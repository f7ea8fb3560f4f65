"""Shape detection for execution graphs.

The two closed forms each demand a topology: a forest or a two-terminal
series-parallel graph. This module recognizes them on an arbitrary
execution graph and converts to the solver's input. Mirrored shapes (a
join, an in-tree) are forests whose children are the predecessors:
reversing time changes neither durations nor energy, so the forward
speeds apply verbatim.
"""

from __future__ import annotations

import heapq
from typing import Sequence

from .continuous import Elementary, Parallel, Series, SpgNode, TreeNode
from .graph import ExecutionGraph, Task

STRUCTURES = ("independent", "chain", "fork", "tree", "spg", "dag")

_NOT_A = {
    "independent": "an independent task set",
    "chain": "a chain",
    "fork": "a fork or join",
    "tree": "a tree",
    "spg": "series-parallel",
}


def recognise(g: ExecutionGraph, shape: str | None = None) -> tuple[str, object]:
    """The graph's shape label together with its parsed form.

    The form is (roots, children) from `as_forest` for the four forest
    labels, an SpgNode for 'spg' and None for 'dag'. Without ``shape``
    the most specific shape wins, falling back to 'dag'; with it, only
    that shape is parsed, and ValueError says when the graph lacks it.
    """
    if shape == "dag":
        return "dag", None
    if shape != "spg":
        forest = as_forest(g)
        if forest is not None and (shape is None or shape in forest[0]):
            labels, roots, children = forest
            return shape or labels[0], (roots, children)
    if shape in (None, "spg"):
        node = as_spg(g)
        if node is not None:
            return "spg", node
    if shape:
        raise ValueError(f"instance is not {_NOT_A[shape]}")
    return "dag", None


def detect_structure(g: ExecutionGraph) -> str:
    """Most specific recognized shape, falling back to 'dag'."""
    return recognise(g)[0]


def as_forest(
    g: ExecutionGraph,
) -> tuple[tuple[str, ...], list[str], dict[str, tuple[str, ...]]] | None:
    """(labels, roots, children) when the graph is a forest shape, or None.

    An out-forest (every task has at most one predecessor) has
    ``g.successors`` as its children; an in-forest (at most one
    successor) has ``g.predecessors``. The labels are those of
    'independent', 'chain', 'fork' and 'tree' the graph has, most
    specific first: no edges makes an independent set, and one root a
    tree, which is a chain when no task has two children and a fork when
    the root is every other task's parent. Several roots joined by edges
    make no forest shape.
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
            return labels, roots, children
    return None


def forest_order(g: ExecutionGraph, children: dict[str, tuple[str, ...]]) -> Sequence[str]:
    """Every task of a forest from `as_forest`, each parent before its
    children: topological order for an out-forest, its reverse for an
    in-forest."""
    return g.topo_order if children is g.successors else g.topo_order[::-1]


def as_tree(g: ExecutionGraph) -> TreeNode | None:
    """The graph as a rooted tree (edges all away from, or all toward,
    a single root), or None."""
    forest = as_forest(g)
    if forest is None or "tree" not in forest[0]:
        return None
    _, (root,), children = forest
    # Build bottom-up so no recursion depth binds the tree size.
    nodes: dict[str, TreeNode] = {}
    for tid in reversed(forest_order(g, children)):
        kids = tuple(nodes[c] for c in children[tid])
        nodes[tid] = TreeNode(id=tid, cost=g.costs[tid], children=kids)
    return nodes[root]


def as_spg(g: ExecutionGraph) -> SpgNode | None:
    """Decompose a two-terminal series-parallel graph, or return None.

    Standard confluent reduction: merge duplicate edges into parallel
    compositions, splice out interior nodes of in- and out-degree one
    into series compositions, and succeed when a single source-to-sink
    edge remains.
    """
    n = len(g.tasks)
    if n < 2 or not g.edges:
        return None
    sources = [tid for tid, p in g.predecessors.items() if not p]
    sinks = [tid for tid, s in g.successors.items() if not s]
    if len(sources) != 1 or len(sinks) != 1:
        return None
    src, snk = sources[0], sinks[0]

    frag: dict[int, SpgNode] = {}
    head: dict[int, str] = {}
    tail: dict[int, str] = {}
    out_eids: dict[str, set[int]] = {t.id: set() for t in g.tasks}
    in_eids: dict[str, set[int]] = {t.id: set() for t in g.tasks}
    for eid, (u, v) in enumerate(sorted(g.edges)):
        frag[eid] = Elementary(Task(u, g.costs[u]), Task(v, g.costs[v]))
        head[eid], tail[eid] = u, v
        out_eids[u].add(eid)
        in_eids[v].add(eid)
    next_eid = len(frag)

    def pair_key(eid: int) -> tuple[str, str]:
        return head[eid], tail[eid]

    pairs: dict[tuple[str, str], list[int]] = {}
    for eid in frag:
        pairs.setdefault(pair_key(eid), []).append(eid)

    def drop(eid: int) -> None:
        out_eids[head[eid]].discard(eid)
        in_eids[tail[eid]].discard(eid)
        bucket = pairs[pair_key(eid)]
        bucket.remove(eid)
        del frag[eid], head[eid], tail[eid]

    def add(u: str, v: str, node: SpgNode) -> int:
        nonlocal next_eid
        eid = next_eid
        next_eid += 1
        frag[eid] = node
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
            bucket = pairs.get(key, [])
            while len(bucket) > 1:
                a, b = sorted(bucket[:2])
                node = Parallel(frag[a], frag[b])
                u, v = key
                drop(a)
                drop(b)
                add(u, v, node)
                bucket = pairs.get(key, [])
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
        node = Series(frag[e_in], frag[e_out])
        drop(e_in)
        drop(e_out)
        add(u, v, node)
        if len(pairs[(u, v)]) > 1:
            parallel_ready.add((u, v))
        for tid in (u, v):
            mark_series(tid)

    if len(frag) == 1:
        (eid,) = frag
        if head[eid] == src and tail[eid] == snk:
            return frag[eid]
    return None
