"""Shape detection for execution graphs.

The closed form needs a forest or a two-terminal series-parallel graph.
This module recognizes both on an arbitrary execution graph and emits
the one decomposition `continuous.solve_sp` takes. Mirrored shapes (a
join, an in-tree) are forests whose children are the predecessors:
reversing time changes neither durations nor energy, so the forward
speeds apply verbatim.
"""

from __future__ import annotations

import heapq

from .continuous import PARALLEL, SERIES, Decomposition, TreeNode, decompose_forest
from .graph import ExecutionGraph

STRUCTURES = ("independent", "chain", "fork", "tree", "spg", "dag")

_NOT_A = {
    "independent": "an independent task set",
    "chain": "a chain",
    "fork": "a fork or join",
    "tree": "a tree",
    "spg": "series-parallel",
}


def recognise(g: ExecutionGraph, shape: str | None = None) -> tuple[str, Decomposition | None]:
    """The graph's shape label together with its decomposition.

    The decomposition comes from `as_forest` for the four forest labels
    and from `as_spg` for 'spg'; 'dag' has none. Without ``shape`` the
    most specific shape wins, falling back to 'dag'; with it, only that
    shape is parsed, and ValueError says when the graph lacks it.
    """
    if shape == "dag":
        return "dag", None
    if shape != "spg":
        forest = as_forest(g)
        if forest is not None and (shape is None or shape in forest[0]):
            labels, sp = forest
            return shape or labels[0], sp
    if shape in (None, "spg"):
        sp = as_spg(g)
        if sp is not None:
            return "spg", sp
    if shape:
        raise ValueError(f"instance is not {_NOT_A[shape]}")
    return "dag", None


def detect_structure(g: ExecutionGraph) -> str:
    """Most specific recognized shape, falling back to 'dag'."""
    return recognise(g)[0]


def as_forest(g: ExecutionGraph) -> tuple[tuple[str, ...], Decomposition] | None:
    """(labels, decomposition) when the graph is a forest shape, or None.

    An out-forest (every task has at most one predecessor) has
    ``g.successors`` as its children; an in-forest (at most one
    successor) has ``g.predecessors``. The labels are those of
    'independent', 'chain', 'fork' and 'tree' the graph has, most
    specific first: no edges makes an independent set, and one root a
    tree, which is a chain when no task has two children and a fork when
    the root is every other task's parent. Several roots joined by edges
    make no forest shape. The decomposition walks the topological order,
    reversed for an in-forest, so that every parent precedes its children.
    """
    n = len(g.tasks)
    for parents, children in ((g.predecessors, g.successors), (g.successors, g.predecessors)):
        if any(len(p) > 1 for p in parents.values()):
            continue
        roots = [tid for tid, p in parents.items() if not p]
        labels: tuple[str, ...] = () if g.edges else ("independent",)
        if len(roots) == 1:
            if all(len(c) <= 1 for c in children.values()):
                labels += ("chain",)
            if len(children[roots[0]]) == n - 1 > 0:
                labels += ("fork",)
            labels += ("tree",)
        if labels:
            order = g.topo_order if children is g.successors else g.topo_order[::-1]
            return labels, decompose_forest(roots, children, order)
    return None


def as_tree(g: ExecutionGraph) -> TreeNode | None:
    """The graph as a rooted tree (edges all away from, or all toward,
    a single root), or None."""
    forest = as_forest(g)
    if forest is None or "tree" not in forest[0]:
        return None
    # A task's node is series(task), series(task, child) or
    # series(task, parallel(children)); each node stands for a tuple of
    # subtrees, one for a task and one per child for a parallel node.
    subtrees: list[tuple[TreeNode, ...]] = []
    for kind, members in forest[1]:
        if kind == PARALLEL:
            subtrees.append(tuple(t for m in members for t in subtrees[m]))
        else:
            tid, *below = members
            kids = subtrees[below[0]] if below else ()
            subtrees.append((TreeNode(tid, g.costs[tid], kids),))
    return subtrees[-1][0]


def as_spg(g: ExecutionGraph) -> Decomposition | None:
    """Decompose a two-terminal series-parallel graph, or return None.

    Standard confluent reduction: merge duplicate edges into parallel
    compositions, splice out interior nodes of in- and out-degree one
    into series compositions, and succeed when a single source-to-sink
    edge remains. Each edge carries the node of the tasks strictly
    between its ends (a bare edge has none): a splice at x makes
    series(I_in, x, I_out), a merge the parallel node of the non-empty
    interiors, and the graph is series(source, I, sink).
    """
    n = len(g.tasks)
    if n < 2 or not g.edges:
        return None
    sources = [tid for tid, p in g.predecessors.items() if not p]
    sinks = [tid for tid, s in g.successors.items() if not s]
    if len(sources) != 1 or len(sinks) != 1:
        return None
    src, snk = sources[0], sinks[0]

    sp: Decomposition = []

    def node(kind: str, members: list) -> int:
        sp.append((kind, tuple(members)))
        return len(sp) - 1

    inner: dict[int, int | None] = {}
    head: dict[int, str] = {}
    tail: dict[int, str] = {}
    out_eids: dict[str, set[int]] = {t.id: set() for t in g.tasks}
    in_eids: dict[str, set[int]] = {t.id: set() for t in g.tasks}
    for eid, (u, v) in enumerate(sorted(g.edges)):
        inner[eid] = None
        head[eid], tail[eid] = u, v
        out_eids[u].add(eid)
        in_eids[v].add(eid)
    next_eid = len(inner)

    def pair_key(eid: int) -> tuple[str, str]:
        return head[eid], tail[eid]

    pairs: dict[tuple[str, str], list[int]] = {}
    for eid in inner:
        pairs.setdefault(pair_key(eid), []).append(eid)

    def drop(eid: int) -> None:
        out_eids[head[eid]].discard(eid)
        in_eids[tail[eid]].discard(eid)
        bucket = pairs[pair_key(eid)]
        bucket.remove(eid)
        del inner[eid], head[eid], tail[eid]

    def add(u: str, v: str, interior: int | None) -> int:
        nonlocal next_eid
        eid = next_eid
        next_eid += 1
        inner[eid] = interior
        head[eid], tail[eid] = u, v
        out_eids[u].add(eid)
        in_eids[v].add(eid)
        pairs.setdefault((u, v), []).append(eid)
        return eid

    # The splice order is smallest id first; the heap holds exactly the
    # members of series_ready, so the pick costs a log, not a scan.
    series_ready: set[str] = set()
    series_heap: list[str] = []

    def mark_series(tid: str) -> None:
        one_in_one_out = len(in_eids[tid]) == len(out_eids[tid]) == 1
        if one_in_one_out and tid not in series_ready and tid not in (src, snk):
            series_ready.add(tid)
            heapq.heappush(series_heap, tid)

    for tid in out_eids:
        mark_series(tid)
    parallel_ready = {key for key, bucket in pairs.items() if len(bucket) > 1}

    while series_ready or parallel_ready:
        while parallel_ready:
            key = parallel_ready.pop()
            bucket = sorted(pairs.get(key, []))
            if len(bucket) > 1:
                parts = [inner[eid] for eid in bucket if inner[eid] is not None]
                for eid in bucket:
                    drop(eid)
                merged = node(PARALLEL, parts) if len(parts) > 1 else parts[0] if parts else None
                add(*key, merged)
            # Removing parallel edges can enable a series splice.
            for tid in key:
                mark_series(tid)
        if not series_ready:
            break
        x = heapq.heappop(series_heap)
        series_ready.discard(x)
        if len(in_eids[x]) != 1 or len(out_eids[x]) != 1:
            continue
        (e_in,) = in_eids[x]
        (e_out,) = out_eids[x]
        u, v = head[e_in], tail[e_out]
        parts = [m for m in (inner[e_in], x, inner[e_out]) if m is not None]
        drop(e_in)
        drop(e_out)
        add(u, v, node(SERIES, parts))
        if len(pairs[(u, v)]) > 1:
            parallel_ready.add((u, v))
        for tid in (u, v):
            mark_series(tid)

    if len(inner) == 1:
        ((eid, interior),) = inner.items()
        if head[eid] == src and tail[eid] == snk:
            node(SERIES, [m for m in (src, interior, snk) if m is not None])
            return sp
    return None
