"""Continuous-speed solvers.

One closed form covers the graph classes where the optimum has a known
shape: forests (independent tasks, chains, fork/join stars and trees)
and series-parallel graphs share one decomposition, and `solve_sp`
applies the paper's rule to it (equivalent costs bottom-up, windows
top-down). A primal-dual interior point handles arbitrary DAGs, on what
is left once transitive edges are dropped and series chains contracted;
the same reduction, with parallel merges added, recognises
series-parallel graphs. Constant per-task speed is optimal in this
model, so every solver here returns one speed per task, and the
power-profile helpers verify the flat-power signature of an interior
optimum.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import InfeasibleError, NoConvergenceError, UnsupportedError
from .graph import (
    REL_TOL,
    ConstantSpeed,
    ExecutionGraph,
    Schedule,
    SolveReport,
    by_index,
    check_work,
    constant_schedule,
    # Unused here; the benchmark's tracer and self-test look it up on this module.
    topological_order,
)

log = logging.getLogger("reclaim.continuous")


def _cbrt(x: float) -> float:
    return x ** (1.0 / 3.0)


# ---------------------------------------------------------------------------
# Closed forms: one series-parallel decomposition, one solver
#
# A decomposition lists its nodes children first, each as (kind, members),
# and the last node is the root. On a graph of n tasks a member m < n is
# task m (a leaf) and a member m >= n is node m - n, so one array indexed
# by member holds a value for every task and then every node. A series
# node's members share one speed and a parallel node's members share one
# window. Series members need no order, since a schedule times the
# speeds ASAP, and only series nodes hold leaves.
#
# Library callers read and write the named form, with task ids for leaves
# and node positions for composite members: `decompose_forest`,
# `solve_sp`, `spg_cost` and `structure.recognise` take or return it.

SERIES = "series"
PARALLEL = "parallel"

Decomposition = list[tuple[str, tuple]]


def _decompose_forest(
    roots: Sequence[int], children: Sequence[Sequence[int]], order: Sequence[int]
) -> Decomposition:
    # ``children`` lists every task's children and ``order`` every task,
    # each parent before its children. A task becomes series(task) without
    # children, series(task, child) with one and series(task,
    # parallel(children)) with several; several roots go under one
    # parallel node. Each task's node comes right after those of the
    # tasks that follow it in ``order``, so `_solve_sp` visits the tasks
    # in ``order``.
    n = len(children)
    sp: Decomposition = []
    node = [0] * n
    for t in reversed(order):
        kids = children[t]
        if len(kids) > 1:
            sp.append((PARALLEL, tuple(node[c] for c in kids)))
            sp.append((SERIES, (t, n + len(sp) - 1)))
        elif kids:
            sp.append((SERIES, (t, node[kids[0]])))
        else:
            sp.append((SERIES, (t,)))
        node[t] = n + len(sp) - 1
    if len(roots) > 1:
        sp.append((PARALLEL, tuple(node[r] for r in roots)))
    return sp


def _node_costs(sp: Decomposition, cost: Sequence[float]) -> list[float]:
    # Every member's equivalent cost: the tasks' own, then bottom-up a
    # series node's the sum of its members', a parallel node's the cube
    # root of their summed cubes.
    eq = list(cost)
    for kind, members in sp:
        if kind == SERIES:
            total = 0.0
            for m in members:
                total += eq[m]
            eq.append(total)
        else:
            eq.append(_cbrt(sum(eq[m] ** 3 for m in members)))
    return eq


def _solve_sp(
    sp: Decomposition,
    cost: Sequence[float],
    ids: Sequence[str],
    deadline: float,
    s_max: float = math.inf,
) -> tuple[float, list[float | None]]:
    """Energy (the sum of cost * s^2) and per-task speeds of a decomposition.

    Top-down, the root's window is the deadline. A series node with
    window w runs at rate eq / w. Under the cap its leaves run at
    min(rate, s_max) and each composite member gets the window
    eq_member / rate at the same rate. Above the cap its leaves are pinned
    at s_max in member order, each checked against what is left of the
    window, and its composite members split the rest in proportion to
    their equivalent costs. A parallel node gives each member its whole
    window. Uncapped this is optimal on every series-parallel graph;
    under a cap it is the paper's tree rule, exact when no series node
    has two composite members, which holds for every forest. Speeds come
    by task index, None for a task the decomposition leaves out; ``ids``
    name tasks in messages.
    """
    _check_limits(deadline, s_max)
    n = len(cost)
    eq = _node_costs(sp, cost)
    window = [0.0] * len(eq)
    # A member's rate is set when its parent knows it exactly; None means eq / window.
    rate: list[float | None] = [None] * len(eq)
    window[-1] = deadline
    speeds: list[float | None] = [None] * n
    energy = 0.0
    for i in range(len(eq) - 1, n - 1, -1):
        kind, members = sp[i - n]
        w, r = window[i], rate[i]
        if kind == PARALLEL:
            for m in members:
                window[m] = w
                if r is not None:
                    rate[m] = r * (eq[m] / eq[i])
            continue
        if r is None:
            r = eq[i] / w
        if r <= s_max * (1 + REL_TOL):
            s = min(r, s_max)
            for m in members:
                if m >= n:
                    window[m] = eq[m] / r
                    rate[m] = r
                else:
                    speeds[m] = s
                    energy += cost[m] * s * s
            continue
        rest = w
        parts = []
        for m in members:
            if m >= n:
                parts.append(m)
                continue
            need = cost[m] / s_max
            if need > rest * (1 + REL_TOL):
                raise InfeasibleError(
                    f"task {ids[m]!r}: work {cost[m]} at cap {s_max:g} misses its window {rest:g}"
                )
            rest -= need
            speeds[m] = s_max
            energy += cost[m] * s_max * s_max
        if parts and rest <= 0:
            head = parts[0]
            while head >= n:  # the node's first task, to name in the message
                head = sp[head - n][1][0]
            raise InfeasibleError(f"no execution window left at task {ids[head]!r}")
        total = sum(eq[m] for m in parts)
        for m in parts:
            window[m] = rest * (eq[m] / total)
    return energy, speeds


def _named(sp: Decomposition, ids: Sequence[str]) -> Decomposition:
    n = len(ids)
    return [(kind, tuple(ids[m] if m < n else m - n for m in members)) for kind, members in sp]


def _indexed(sp: Decomposition, ids: Sequence[str]) -> Decomposition:
    at = {tid: i for i, tid in enumerate(ids)}
    n = len(ids)
    return [(kind, tuple(m + n if type(m) is int else at[m] for m in members))
            for kind, members in sp]


def decompose_forest(
    roots: Sequence[str], children: Mapping[str, Sequence[str]], order: Sequence[str]
) -> Decomposition:
    """`_decompose_forest` on task ids: ``children`` maps each to its own."""
    at = {tid: i for i, tid in enumerate(order)}
    sp = _decompose_forest([at[r] for r in roots], [[at[c] for c in children[t]] for t in order],
                           range(len(order)))
    return _named(sp, list(order))


def solve_sp(
    sp: Decomposition,
    costs: Mapping[str, float],
    deadline: float,
    s_max: float = math.inf,
) -> tuple[float, dict[str, float]]:
    """`_solve_sp` on a named decomposition: energy and speeds by task id."""
    ids = list(costs)
    energy, speeds = _solve_sp(_indexed(sp, ids), list(costs.values()), ids, deadline, s_max)
    return energy, {tid: s for tid, s in zip(ids, speeds) if s is not None}


def _check_limits(deadline: float, s_max: float) -> None:
    if not deadline > 0:
        raise InfeasibleError(f"deadline must be positive, got {deadline}")
    # inf means uncapped; nan fails this test like a cap of zero or less.
    if not s_max > 0:
        raise ValueError(f"s_max must be positive, or inf for no cap, got {s_max}")


def spg_cost(sp: Decomposition, costs: Mapping[str, float]) -> float:
    """Equivalent cost of a named decomposition: sums in series, cube roots
    of summed cubes in parallel."""
    ids = list(costs)
    return _node_costs(_indexed(sp, ids), list(costs.values()))[-1]


def solve_spg(
    sp: Decomposition, costs: Mapping[str, float], deadline: float, s_max: float = math.inf
) -> float:
    """Optimal energy of a series-parallel graph, uncapped speeds only."""
    if math.isfinite(s_max):
        raise UnsupportedError(
            "series-parallel closed form requires an uncapped speed model; "
            "route the instance to the general DAG solver instead"
        )
    return solve_sp(sp, costs, deadline, s_max)[0]


def _solve_listed(
    costs: Sequence[float],
    children: Mapping[int, Sequence[int]],
    roots: Sequence[int],
    deadline: float,
    s_max: float,
) -> tuple[list[float], float]:
    # A forest of tasks named after their list positions, each parent
    # listed before its children; speeds come back in list order.
    n = len(costs)
    sp = _decompose_forest(roots, [children.get(k, ()) for k in range(n)], range(n))
    energy, speeds = _solve_sp(sp, list(costs), [str(k) for k in range(n)], deadline, s_max)
    return speeds, energy


def solve_independent(
    costs: Sequence[float], deadline: float, s_max: float = math.inf
) -> tuple[list[float], float]:
    """Each task gets the whole window: s_i = w_i / D."""
    return _solve_listed(costs, {}, range(len(costs)), deadline, s_max)


def solve_chain(
    costs: Sequence[float], deadline: float, s_max: float = math.inf
) -> tuple[float, float]:
    """A chain behaves like one task of the summed cost: s = W / D."""
    children = {k: (k + 1,) for k in range(len(costs) - 1)}
    speeds, energy = _solve_listed(costs, children, [0], deadline, s_max)
    return speeds[0], energy


def solve_fork_join(
    root_cost: float,
    branch_costs: Sequence[float],
    deadline: float,
    s_max: float = math.inf,
) -> tuple[list[float], float]:
    """Root task followed by independent branches (or the time-mirrored
    join); speeds come root first, then the branches in order."""
    children = {0: range(1, len(branch_costs) + 1)}
    return _solve_listed([root_cost, *branch_costs], children, [0], deadline, s_max)


@dataclass(frozen=True)
class TreeNode:
    id: str
    cost: float
    children: tuple["TreeNode", ...] = ()


def _tree_decomposition(root: TreeNode) -> tuple[Decomposition, dict[str, float]]:
    # Iterative, since fixture trees reach 10^4 nodes.
    costs: dict[str, float] = {}
    children: dict[str, list[str]] = {}
    order: list[str] = []
    stack = [root]
    while stack:
        node = stack.pop()
        order.append(node.id)
        costs[node.id] = node.cost
        children[node.id] = [c.id for c in node.children]
        stack.extend(node.children)
    return decompose_forest([root.id], children, order), costs


def tree_eq_cost(root: TreeNode) -> float:
    """Equivalent cost: leaves keep their own, a parent adds its cost to
    the cube-root of the sum of cubed child costs."""
    return spg_cost(*_tree_decomposition(root))


def solve_tree(
    root: TreeNode, deadline: float, s_max: float = math.inf
) -> tuple[float, dict[str, float]]:
    """Energy and per-task speeds for a rooted tree (see solve_sp)."""
    sp, costs = _tree_decomposition(root)
    return solve_sp(sp, costs, deadline, s_max)


# ---------------------------------------------------------------------------
# General DAGs: primal-dual interior point over durations and completions


MAX_ITERATIONS = 100
GAP_TARGET = 1e-9  # relative gap that ends the loop at once
GAP_FLOOR = 1e-8  # relative gap accepted once the bound stops improving
CENTRING = 0.1  # floor of the centring target, per row, as a share of the residual's gap


def solve_dag(g: ExecutionGraph, s_max: float = math.inf) -> tuple[Schedule, SolveReport]:
    """Minimum-energy constant per-task speeds for an arbitrary DAG.

    The graph is first reduced exactly (see `reduce_dag`): transitive
    edges go, and each series chain becomes one task of summed cost whose
    members share its speed. On the residual the solver minimizes
    sum w^3 / d^2 over durations d and completion times t under the
    precedence, window, and speed-cap constraints with a primal-dual
    interior point. When the deadline equals the all-cap critical path,
    the tasks without float are pinned at the cap and the interior point
    solves the others in the windows the pinned tasks leave them.
    Diagnostics report the iteration count, a weak-duality certificate
    (a lower bound on the optimal energy and the relative gap to it, also
    as the absolute ``duality_gap``), a scaled stationarity residual and
    the residual's task count.
    """
    _check_limits(g.deadline, s_max)
    groups, edges = _reduce_dag(g)
    n = len(groups)
    D = g.deadline
    w = np.array([sum(g.cost[k] for k in group) for group in groups])
    release = np.zeros(n)

    cp = 0.0
    if math.isfinite(s_max):
        done = _asap_vector(n, edges, w / s_max, release)
        cp = float(done.max())
        if cp > D * (1 + REL_TOL):
            raise InfeasibleError(
                f"critical path {cp:g} at cap {s_max:g} exceeds deadline {D:g}"
            )
    if cp >= D * (1 - 1e-9):
        speeds, diagnostics = _solve_pinned(w, edges, done, max(cp, D), s_max)
    else:
        speeds, diagnostics = _interior_point(w, edges, release, np.full(n, D), s_max)
    diagnostics["reduced_tasks"] = n
    per_task = [0.0] * len(g.ids)
    for group, s in zip(groups, speeds):
        for k in group:
            per_task[k] = s
    return constant_schedule(g, per_task, diagnostics)


def reduce_dag(g: ExecutionGraph) -> tuple[list[list[str]], list[tuple[int, int]]]:
    """`_reduce_dag` with every group as a list of task ids."""
    groups, edges = _reduce_dag(g)
    return [[g.ids[k] for k in group] for group in groups], edges


def _reduce_dag(g: ExecutionGraph) -> tuple[list[list[int]], list[tuple[int, int]]]:
    """Series reduction of the execution graph, exact for `solve_dag`.

    Drops every transitive edge u->v (durations are positive, so the other
    u->v path implies it), then contracts every edge u->v where v is u's
    only successor and u is v's only predecessor: at the optimum such a
    pair shares one speed, and that speed meets a cap exactly when their
    summed cost does. Returns the groups, each a chain of task indices
    in order, listed in the topological order of their heads, and the
    residual edges as (group, group) index pairs.
    """
    succ = [list(out) for out in g.succ]
    pred = [list(into) for into in g.pred]
    for u, out in enumerate(succ):
        # Only an edge whose tail has several successors and whose head
        # several predecessors can be transitive; it is when its head is
        # reachable through another successor. Positions bound the search.
        heads = [v for v in out if len(pred[v]) > 1]
        if len(out) < 2 or not heads:
            continue
        last = max(heads)
        seen: set[int] = set()
        stack = list(out)
        while stack:
            for y in succ[stack.pop()]:
                if y <= last and y not in seen:
                    seen.add(y)
                    stack.append(y)
        for v in heads:
            if v in seen:
                out.remove(v)
                pred[v].remove(u)

    groups: list[list[int]] = []
    group_of = [0] * len(succ)
    for i in range(len(succ)):
        if len(pred[i]) == 1 and len(succ[pred[i][0]]) == 1:
            continue  # the tail of an edge contracted below
        chain = [i]
        while len(succ[chain[-1]]) == 1 and len(pred[succ[chain[-1]][0]]) == 1:
            chain.append(succ[chain[-1]][0])
        for k in chain:
            group_of[k] = len(groups)
        groups.append(chain)
    edges = [(gi, group_of[v]) for gi, chain in enumerate(groups) for v in succ[chain[-1]]]
    return groups, edges


def decompose_reduced(
    groups: Sequence[Sequence[int]], edges: Sequence[tuple[int, int]], n: int
) -> Decomposition | None:
    """The decomposition of `_reduce_dag`'s residual on a graph of ``n``
    tasks, or None when it is not series-parallel.

    Repeats two merges until neither applies: nodes with identical
    predecessor and successor sets become one parallel node, and a node
    whose only successor has it as its only predecessor absorbs that
    successor in series. Neither merge makes an edge transitive, so the
    members of a parallel node always share one feasible window, and
    uncapped they act as one task of cost the cube root of their summed
    cubes, as `solve_sp` prices them. Succeeds when one node is left.
    A node's twins are found through its neighbours, so two nodes without
    any never merge: a graph of several components gives None.
    """
    preds: list[set[int]] = [set() for _ in groups]
    succs: list[set[int]] = [set() for _ in groups]
    for u, v in edges:
        succs[u].add(v)
        preds[v].add(u)
    # The series members of each live node not yet listed in sp; None once merged away.
    items: list[list | None] = [list(group) for group in groups]
    sp: Decomposition = []

    def emit(x: int) -> int:
        if len(items[x]) == 1 and items[x][0] >= n:
            return items[x][0]
        sp.append((SERIES, tuple(items[x])))
        return n + len(sp) - 1

    def twins(x: int) -> list[int]:
        # x's twins are among the successors of any one of its
        # predecessors, and the predecessors of any one of its successors.
        pools = [succs[next(iter(preds[x]))]] if preds[x] else []
        if succs[x]:
            pools.append(preds[next(iter(succs[x]))])
        pool = min(pools, key=len, default=())
        return sorted(
            y for y in pool if y == x or preds[y] == preds[x] and succs[y] == succs[x]
        )

    # Nodes whose sets changed since they were last checked.
    dirty = set(range(len(groups)))
    while dirty:
        changed = set()
        for x in sorted(dirty):
            if items[x] is None:
                continue
            while len(preds[x]) == 1 and len(succs[next(iter(preds[x]))]) == 1:
                x = next(iter(preds[x]))  # back to the head of a series run
            changed.add(x)
            while len(succs[x]) == 1 and len(preds[y := next(iter(succs[x]))]) == 1:
                items[x] += items[y]
                items[y] = None
                succs[x] = succs[y]
                for z in succs[x]:
                    preds[z].remove(y)
                    preds[z].add(x)
                    changed.add(z)
        dirty = set()
        for x in sorted(changed):
            if items[x] is None or len(alike := twins(x)) < 2:
                continue
            first = alike[0]
            sp.append((PARALLEL, tuple(emit(y) for y in alike)))
            items[first] = [n + len(sp) - 1]
            for y in alike[1:]:
                items[y] = None
                for p in preds[y]:
                    succs[p].remove(y)
                for z in succs[y]:
                    preds[z].remove(y)
            dirty |= preds[first] | succs[first]
    live = [x for x, item in enumerate(items) if item is not None]
    if len(live) != 1:
        return None
    emit(live[0])
    return sp


def _solve_pinned(w, edges, done, horizon, s_max):
    # The window is exactly the all-cap critical path, whose tasks finish
    # at ``done``. Every task without float lies on such a path, so it
    # runs at the cap in a fixed interval; the others are released when
    # their pinned predecessors finish and due when their pinned
    # successors start.
    n = len(w)
    d_cap = w / s_max
    late = _alap_vector(n, edges, d_cap, horizon)
    pinned = late - done <= 1e-9 * horizon
    free = np.flatnonzero(~pinned)
    index = {int(i): k for k, i in enumerate(free)}
    release, due = np.zeros(len(free)), np.full(len(free), horizon)
    sub_edges = []
    for u, v in edges:
        if pinned[u] and not pinned[v]:
            release[index[v]] = max(release[index[v]], done[u])
        elif pinned[v] and not pinned[u]:
            due[index[u]] = min(due[index[u]], done[v] - d_cap[v])
        elif not pinned[u]:
            sub_edges.append((index[u], index[v]))
    speeds = np.full(n, s_max)
    speeds[free], diagnostics = _interior_point(w[free], sub_edges, release, due, s_max)
    # The pinned tasks' energy is fixed, so it adds to the bound as it is.
    certificate = diagnostics["certificate"]
    certificate["lower_bound"] += float(np.sum(w[pinned])) * s_max**2
    certificate["gap"] = diagnostics["duality_gap"] / (
        certificate["lower_bound"] + diagnostics["duality_gap"]
    )
    diagnostics["pinned"] = True
    return speeds, diagnostics


def _interior_point(w, edges, release, due, s_max):
    """Speeds and diagnostics of the tasks ``w`` (in topological order)
    under ``edges``, each run between its release and due times.

    The caller guarantees an interior: with every task at the cap (or,
    uncapped, at some common speed), each one finishes before it is due.
    Mehrotra's predictor-corrector runs on the rows A x >= b of
    `_constraints` with slacks s and multipliers lam, and stops on the
    weak-duality bound of `_lower_bound`.
    """
    n = len(w)
    if n <= 1:
        # One task, one window; keep the trivial answer exact.
        speeds = w / (due - release)
        energy = float(np.sum(w * speeds**2))
        return speeds, _diagnostics(0, 0.0, energy, energy)

    if math.isfinite(s_max):
        d0 = w / s_max
    else:
        # Pick a virtual cap that leaves the start point half of its
        # tightest window; uncapped, every release time is zero.
        d0 = w / (2.0 * float(np.max(_asap_vector(n, edges, w, release) / due)))
    t0 = _asap_vector(n, edges, d0, release)
    gamma = float(np.min(due / t0))
    beta = 1.0 + 0.9 * (gamma - 1.0)
    # Unit durations from zero give each task its depth plus one.
    depth = _asap_vector(n, edges, np.ones(n), np.zeros(n))
    cushion = float(np.min(due)) * (1.0 - beta / gamma) / (2.0 * n)
    x = np.concatenate([beta * d0, beta * t0 + cushion * depth])

    lb = w / s_max if math.isfinite(s_max) else np.zeros(n)
    A, b, box = _constraints(n, edges, lb, release, due)
    m = len(b)
    w3 = w**3
    # Start every row at the same complementarity, the energy shared out.
    lam = float(np.sum(w3 / x[:n] ** 2)) / m / (A @ x - b)
    best = None
    for iterations in range(MAX_ITERATIONS + 1):
        d = x[:n]
        energy = float(np.sum(w3 / d**2))
        grad = np.zeros(2 * n)
        grad[:n] = -2.0 * w3 / d**3
        r_dual = grad - A.T @ lam
        s = A @ x - b
        comp = float(lam @ s)
        gap = energy - _lower_bound(energy, r_dual, comp, x, box)
        if best is None or gap < best[0]:
            residual = float(np.max(np.abs(r_dual))) / max(1.0, float(np.max(np.abs(grad))))
            best = (gap, energy, x, residual)
            if gap <= GAP_TARGET * energy:
                break
        elif best[0] <= GAP_FLOOR * best[1]:
            break  # the bound stopped improving, close enough
        if iterations == MAX_ITERATIONS:
            break

        # H = A' diag(lam / s) A + the Hessian of f, formed once per iteration.
        H = (A.T * (lam / s)) @ A
        H[np.arange(n), np.arange(n)] += 6.0 * w3 / d**4

        def direction(rc):
            # The Newton step of grad f = A' lam, with ds = A dx and
            # lam * ds + s * dlam = rc for the products s * lam.
            rhs = A.T @ (rc / s) - r_dual
            try:
                dx = np.linalg.solve(H, rhs)
            except np.linalg.LinAlgError:
                dx = np.linalg.lstsq(H, rhs, rcond=None)[0]
            ds = A @ dx
            return dx, ds, (rc - lam * ds) / s

        mu = comp / m
        _, ds_aff, dlam_aff = direction(-s * lam)
        s_aff = s + min(1.0, _to_boundary(s, ds_aff)) * ds_aff
        lam_aff = lam + min(1.0, _to_boundary(lam, dlam_aff)) * dlam_aff
        # Mehrotra's centring target, kept from falling below a share of
        # the gap that the dual residual still owes: with a nonlinear f the
        # residual can fall slower than lam' s, and iterates that reach the
        # boundary first stall there.
        target = max((float(s_aff @ lam_aff) / m / mu) ** 3 * mu, CENTRING * (gap - comp) / m)
        dx, ds, dlam = direction(target - s * lam - ds_aff * dlam_aff)
        # One step for all: 0.99 of the way to the boundary, and no
        # duration below half its current value.
        alpha = min(1.0, 0.99 * min(_to_boundary(s, ds), _to_boundary(lam, dlam)),
                    _to_boundary(d, 2.0 * dx[:n]))
        if not (alpha > 0 and np.isfinite(dx).all() and np.isfinite(dlam).all()):
            break  # no way on from here; the best iterate stands if certified
        x = x + alpha * dx
        lam = lam + alpha * dlam

    gap, energy, x, residual = best
    if gap > GAP_FLOOR * energy:
        raise NoConvergenceError(
            f"interior point stopped after {iterations} iterations "
            f"(relative gap {gap / energy:.3e})",
            iterations=iterations,
            residual=gap / energy,
        )
    speeds = w / x[:n]
    if math.isfinite(s_max):
        np.minimum(speeds, s_max, out=speeds)
    log.info("dag solve: %d tasks, %d iterations, relative gap %.2e", n, iterations, gap / energy)
    return speeds, _diagnostics(iterations, residual, energy, energy - gap)


def _lower_bound(energy, r_dual, complementarity, x, box):
    """Weak-duality lower bound on the optimum, from any point x and any
    multipliers lam >= 0.

    For feasible y, convexity and lam' (A y - b) >= 0 give
    f(y) >= f(x) - lam' (A x - b) + r' (y - x) with r = grad f(x) - A' lam,
    and y lies in ``box`` = (lo, hi), where r' (y - x) is smallest at a corner.
    """
    lo, hi = box
    return energy - complementarity + float(np.sum(np.minimum(r_dual * (lo - x), r_dual * (hi - x))))


def _to_boundary(v, dv):
    # The largest step a with v + a * dv >= 0, for v > 0.
    shrinking = dv < 0
    if not shrinking.any():
        return math.inf
    return float(np.min(-v[shrinking] / dv[shrinking]))


def _diagnostics(iterations, residual, energy, lower):
    return {
        "iterations": iterations,
        "barrier_rounds": 1 if iterations else 0,
        "residual": residual,
        "duality_gap": energy - lower,
        "certificate": {"lower_bound": lower, "gap": (energy - lower) / energy if energy else 0.0},
    }


def _constraints(n, edges, lb, release, due):
    # Rows of A x >= rhs, stored as (A, rhs): duration floors, release
    # times (t_i - d_i >= r_i), precedence gaps, due-time ceilings. The
    # box (lo, hi) holds every feasible x: d_i in [lb_i, due_i - r_i] and
    # t_i in [r_i, due_i].
    rows = n + n + len(edges) + n
    A = np.zeros((rows, 2 * n))
    rhs = np.zeros(rows)
    r = 0
    for i in range(n):
        A[r, i] = 1.0
        rhs[r] = lb[i]
        r += 1
    for i in range(n):
        A[r, n + i] = 1.0
        A[r, i] = -1.0
        rhs[r] = release[i]
        r += 1
    for u, v in edges:
        A[r, n + v] = 1.0
        A[r, n + u] = -1.0
        A[r, v] = -1.0
        r += 1
    for i in range(n):
        A[r, n + i] = -1.0
        rhs[r] = -due[i]
        r += 1
    box = (np.concatenate([lb, release]), np.concatenate([due - release, due]))
    return A, rhs, box


def _asap_vector(n, edges, durations, release):
    # Indices are topological already, so one forward sweep suffices.
    t = np.array(release + durations, dtype=float)
    preds: dict[int, list[int]] = {i: [] for i in range(n)}
    for u, v in edges:
        preds[v].append(u)
    for i in range(n):
        if preds[i]:
            t[i] = max(release[i], max(t[u] for u in preds[i])) + durations[i]
    return t


def _alap_vector(n, edges, durations, horizon):
    # Latest completions that still meet the horizon: one backward sweep.
    t = np.full(n, horizon)
    succs: dict[int, list[int]] = {i: [] for i in range(n)}
    for u, v in edges:
        succs[u].append(v)
    for i in range(n - 1, -1, -1):
        if succs[i]:
            t[i] = min(horizon, min(t[v] - durations[v] for v in succs[i]))
    return t


# ---------------------------------------------------------------------------
# Power profiles


@dataclass(frozen=True)
class PowerProfile:
    """Piecewise-constant total power: len(times) == len(levels) + 1."""

    times: tuple[float, ...]
    levels: tuple[float, ...]

    def __post_init__(self):
        if len(self.times) != len(self.levels) + 1 or not self.levels:
            raise ValueError("profile needs k+1 breakpoints for k levels")
        if any(a >= b for a, b in zip(self.times, self.times[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        if any(level < 0 for level in self.levels):
            raise ValueError("power levels must be non-negative")

    def integral(self) -> float:
        return sum(
            level * (b - a)
            for level, a, b in zip(self.levels, self.times, self.times[1:])
        )

    def span(self) -> float:
        return self.times[-1] - self.times[0]


def power_profile(
    g: ExecutionGraph, schedule: Schedule, min_interval: float = 0.0
) -> PowerProfile:
    """Total dissipated power over time: the sum of s^3 across whatever
    runs at each instant.

    Start times must be explicit, and a segmented profile must complete
    its task's work (WorkDeficitError otherwise, for the first such task
    in topological order, as `retime` names it). With ``min_interval``
    > 0, consecutive intervals are coalesced (duration-weighted, integral
    preserved) until each merged piece spans at least that long; numeric
    schedules produce sliver intervals where nearly simultaneous events
    disagree in the last few ulps, and those slivers carry meaningless
    levels.
    """
    if schedule.starts is None:
        raise ValueError("power profile needs explicit start times")
    try:
        profiles = by_index(g, schedule.profiles)
    except KeyError as exc:
        raise ValueError(f"schedule has no profile for task {exc.args[0]!r}") from None
    try:
        starts = by_index(g, schedule.starts)
    except KeyError as exc:
        raise ValueError(f"no start time for task {exc.args[0]!r}") from None
    cost = g.cost
    deltas: dict[float, float] = {}
    segmented = []
    for i in g.by_id:  # the order reports list tasks in, so replays sum alike
        profile, clock = profiles[i], starts[i]
        if type(profile) is float:
            parts = ((profile, cost[i] / profile),)
        elif isinstance(profile, ConstantSpeed):
            parts = ((profile.speed, cost[i] / profile.speed),)
        else:
            segmented.append(i)
            parts = profile.parts
        for speed, duration in parts:
            if duration <= 0:
                continue
            power = speed**3
            deltas[clock] = deltas.get(clock, 0.0) + power
            clock += duration
            deltas[clock] = deltas.get(clock, 0.0) - power
    for i in sorted(segmented):
        check_work(g.ids[i], profiles[i], cost[i])

    points = sorted(deltas)
    times: list[float] = [points[0]]
    levels: list[float] = []
    level = 0.0
    for a, b in zip(points, points[1:]):
        level += deltas[a]
        levels.append(max(level, 0.0))  # scrub -1e-18 accumulation dust
        times.append(b)

    if min_interval > 0.0 and len(levels) > 1:
        times, levels = _coalesce(times, levels, min_interval)
    return PowerProfile(times=tuple(times), levels=tuple(levels))


def _coalesce(times, levels, min_interval):
    out_t = [times[0]]
    out_l = []
    acc_width = 0.0
    acc_area = 0.0
    for a, b, level in zip(times, times[1:], levels):
        acc_width += b - a
        acc_area += (b - a) * level
        if acc_width >= min_interval:
            out_t.append(b)
            out_l.append(acc_area / acc_width)
            acc_width = 0.0
            acc_area = 0.0
    if acc_width > 0.0:
        # Tail too narrow to stand alone: fold it into the last piece.
        if out_l:
            prev_width = out_t[-1] - out_t[-2]
            out_l[-1] = (out_l[-1] * prev_width + acc_area) / (prev_width + acc_width)
            out_t[-1] = times[-1]
        else:
            out_t.append(times[-1])
            out_l.append(acc_area / acc_width)
    return out_t, out_l


def check_constant_power(profile: PowerProfile, rel_tol: float = 1e-4) -> bool:
    """True when no level strays from the time-averaged mean by more than
    rel_tol relative."""
    mean = profile.integral() / profile.span()
    if mean <= 0:
        return all(level == 0 for level in profile.levels)
    return all(abs(level - mean) <= rel_tol * mean for level in profile.levels)
