"""Shape detection for execution graphs.

The closed-form solvers each demand a specific topology. This module
recognizes those topologies on an arbitrary execution graph and converts
to the solver's native input. Mirrored shapes (a join, an in-tree) run
through the same solvers: reversing time changes neither durations nor
energy, so the forward speeds apply verbatim.
"""

from __future__ import annotations

import heapq

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

    The form is the task ids in topological order for 'independent', the
    path order for 'chain', (center, branches) for 'fork', a TreeNode for
    'tree', an SpgNode for 'spg' and None for 'dag'. Without ``shape``
    the most specific shape wins, falling back to 'dag'; with it, only
    that shape is parsed, and ValueError says when the graph lacks it.
    """
    if shape == "dag":
        return "dag", None
    for label in [shape] if shape else STRUCTURES[:-1]:
        if label == "independent":
            form = None if g.edges else list(g.topo_order)
        else:
            form = {"chain": as_chain, "fork": as_fork, "tree": as_tree, "spg": as_spg}[label](g)
        if form is not None:
            return label, form
    if shape:
        raise ValueError(f"instance is not {_NOT_A[shape]}")
    return "dag", None


def detect_structure(g: ExecutionGraph) -> str:
    """Most specific recognized shape, falling back to 'dag'."""
    return recognise(g)[0]


def _degrees(g: ExecutionGraph) -> tuple[dict[str, int], dict[str, int]]:
    indeg = {t.id: 0 for t in g.tasks}
    outdeg = {t.id: 0 for t in g.tasks}
    for u, v in g.edges:
        outdeg[u] += 1
        indeg[v] += 1
    return indeg, outdeg


def as_chain(g: ExecutionGraph) -> list[str] | None:
    """Task ids in path order, or None when the graph is not one path."""
    n = len(g.tasks)
    if len(g.edges) != n - 1:
        return None
    indeg, outdeg = _degrees(g)
    if any(d > 1 for d in indeg.values()) or any(d > 1 for d in outdeg.values()):
        return None
    heads = [tid for tid, d in indeg.items() if d == 0]
    if len(heads) != 1:
        return None
    order = [heads[0]]
    while True:
        succ = g.successors[order[-1]]
        if not succ:
            break
        order.append(succ[0])
    return order if len(order) == n else None


def as_fork(g: ExecutionGraph) -> tuple[str, list[str]] | None:
    """(center id, branch ids) for a star out of one task or into one task."""
    for edges in (g.edges, {(v, u) for u, v in g.edges}):
        heads = {u for u, _ in edges}
        if len(heads) == 1:
            (center,) = heads
            branches = sorted(v for _, v in edges)
            if len(branches) == len(g.tasks) - 1 and center not in branches:
                return center, branches
    return None


def as_tree(g: ExecutionGraph) -> TreeNode | None:
    """The graph as a rooted tree (edges all away from, or all toward,
    a single root), or None."""
    n = len(g.tasks)
    if len(g.edges) != n - 1:
        return None
    for edges in (g.edges, frozenset((v, u) for u, v in g.edges)):
        indeg = {t.id: 0 for t in g.tasks}
        children: dict[str, list[str]] = {t.id: [] for t in g.tasks}
        for u, v in edges:
            indeg[v] += 1
            children[u].append(v)
        roots = [tid for tid, d in indeg.items() if d == 0]
        if len(roots) != 1 or any(d > 1 for d in indeg.values()):
            continue
        # Build bottom-up so no recursion depth binds the tree size.
        order: list[str] = []
        stack = [roots[0]]
        while stack:
            tid = stack.pop()
            order.append(tid)
            stack.extend(children[tid])
        if len(order) != n:
            continue
        nodes: dict[str, TreeNode] = {}
        for tid in reversed(order):
            kids = tuple(nodes[c] for c in sorted(children[tid]))
            nodes[tid] = TreeNode(id=tid, cost=g.costs[tid], children=kids)
        return nodes[roots[0]]
    return None


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
    indeg, outdeg = _degrees(g)
    sources = sorted(tid for tid, d in indeg.items() if d == 0)
    sinks = sorted(tid for tid, d in outdeg.items() if d == 0)
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
