"""Shape detection for execution graphs.

The closed form needs a forest or a two-terminal series-parallel graph.
This module recognizes both on an arbitrary execution graph and emits
the one decomposition `continuous.solve_sp` takes: a forest's is read
off its own adjacency, and a series-parallel graph's comes from the
reduction the numeric path runs, with parallel merges added
(`continuous.decompose_reduced`). Mirrored shapes (a
join, an in-tree) are forests whose children are the predecessors:
reversing time changes neither durations nor energy, so the forward
speeds apply verbatim.
"""

from __future__ import annotations

from .continuous import (
    PARALLEL,
    Decomposition,
    TreeNode,
    decompose_forest,
    decompose_reduced,
    reduce_dag,
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

    The graph needs at least two tasks, exactly one source and exactly
    one sink, and `reduce_dag`'s residual must merge down to one node
    (see `decompose_reduced`).
    """
    sources = sum(1 for p in g.predecessors.values() if not p)
    sinks = sum(1 for s in g.successors.values() if not s)
    if len(g.tasks) < 2 or sources != 1 or sinks != 1:
        return None
    return decompose_reduced(*reduce_dag(g))
