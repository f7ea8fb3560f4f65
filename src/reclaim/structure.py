"""Shape detection for execution graphs.

The closed form needs a forest or a two-terminal series-parallel graph.
This module recognizes both on an arbitrary execution graph and emits
the one decomposition `continuous._solve_sp` takes: a forest's is read
off its own adjacency, and a series-parallel graph's comes from the
reduction the numeric path runs, with parallel merges added
(`continuous.decompose_reduced`). Mirrored shapes (a
join, an in-tree) are forests whose children are the predecessors:
reversing time changes neither durations nor energy, so the forward
speeds apply verbatim. The functions without a leading underscore return
the named form of the decomposition, for library callers.
"""

from __future__ import annotations

from .continuous import (
    PARALLEL,
    Decomposition,
    TreeNode,
    _decompose_forest,
    _named,
    _reduce_dag,
    decompose_reduced,
)
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
    """`_recognise` with the decomposition in the named form."""
    shape, sp = _recognise(g, shape)
    return shape, None if sp is None else _named(sp, g.ids)


def _recognise(g: ExecutionGraph, shape: str | None = None) -> tuple[str, Decomposition | None]:
    """The graph's shape label together with its decomposition.

    The decomposition comes from `_as_forest` for the four forest labels
    and from `_as_spg` for 'spg'; 'dag' has none. Without ``shape`` the
    most specific shape wins, falling back to 'dag'; with it, only that
    shape is parsed, and ValueError says when the graph lacks it.
    """
    if shape == "dag":
        return "dag", None
    if shape != "spg":
        forest = _as_forest(g)
        if forest is not None and (shape is None or shape in forest[0]):
            labels, sp = forest
            return shape or labels[0], sp
    if shape in (None, "spg"):
        sp = _as_spg(g)
        if sp is not None:
            return "spg", sp
    if shape:
        raise ValueError(f"instance is not {_NOT_A[shape]}")
    return "dag", None


def detect_structure(g: ExecutionGraph) -> str:
    """Most specific recognized shape, falling back to 'dag'."""
    return _recognise(g)[0]


def as_forest(g: ExecutionGraph) -> tuple[tuple[str, ...], Decomposition] | None:
    """`_as_forest` with the decomposition in the named form."""
    forest = _as_forest(g)
    return None if forest is None else (forest[0], _named(forest[1], g.ids))


def _as_forest(g: ExecutionGraph) -> tuple[tuple[str, ...], Decomposition] | None:
    """(labels, decomposition) when the graph is a forest shape, or None.

    An out-forest (every task has at most one predecessor) has
    ``g.succ`` as its children; an in-forest (at most one successor) has
    ``g.pred``. The labels are those of 'independent', 'chain', 'fork'
    and 'tree' the graph has, most specific first: no edges makes an
    independent set, and one root a tree, which is a chain when no task
    has two children and a fork when the root is every other task's
    parent. Several roots joined by edges make no forest shape. Roots
    come in the order the tasks were given. The decomposition walks the
    topological order, reversed for an in-forest, so that every parent
    precedes its children.
    """
    n = len(g.ids)
    for parents, children in ((g.pred, g.succ), (g.succ, g.pred)):
        if any(len(p) > 1 for p in parents):
            continue
        roots = [i for i in g.listed if not parents[i]]
        labels: tuple[str, ...] = () if any(g.succ) else ("independent",)
        if len(roots) == 1:
            if all(len(c) <= 1 for c in children):
                labels += ("chain",)
            if len(children[roots[0]]) == n - 1 > 0:
                labels += ("fork",)
            labels += ("tree",)
        if labels:
            order = range(n) if children is g.succ else range(n - 1, -1, -1)
            return labels, _decompose_forest(roots, children, order)
    return None


def as_tree(g: ExecutionGraph) -> TreeNode | None:
    """The graph as a rooted tree (edges all away from, or all toward,
    a single root), or None."""
    forest = _as_forest(g)
    if forest is None or "tree" not in forest[0]:
        return None
    # A task's node is series(task), series(task, child) or
    # series(task, parallel(children)); each node stands for a tuple of
    # subtrees, one for a task and one per child for a parallel node.
    n = len(g.ids)
    subtrees: list[tuple[TreeNode, ...]] = []
    for kind, members in forest[1]:
        if kind == PARALLEL:
            subtrees.append(tuple(t for m in members for t in subtrees[m - n]))
        else:
            i, *below = members
            kids = subtrees[below[0] - n] if below else ()
            subtrees.append((TreeNode(g.ids[i], g.cost[i], kids),))
    return subtrees[-1][0]


def as_spg(g: ExecutionGraph) -> Decomposition | None:
    """`_as_spg` in the named form."""
    sp = _as_spg(g)
    return None if sp is None else _named(sp, g.ids)


def _as_spg(g: ExecutionGraph) -> Decomposition | None:
    """Decompose a two-terminal series-parallel graph, or return None.

    The graph needs at least two tasks, exactly one source and exactly
    one sink, and `_reduce_dag`'s residual must merge down to one node
    (see `decompose_reduced`).
    """
    sources = sum(1 for p in g.pred if not p)
    sinks = sum(1 for s in g.succ if not s)
    if len(g.ids) < 2 or sources != 1 or sinks != 1:
        return None
    return decompose_reduced(*_reduce_dag(g), len(g.ids))
