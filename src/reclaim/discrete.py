"""Finite-speed models: exact search, rounding schemes, hard instances.

Choosing one mode per task is NP-hard even on a chain with two modes, so
the exact solver is a pruned exhaustive search meant for desk-scale
instances. The approximation pipelines trade that exponent for a
certified multiplicative bound: solve the instance under a geometric
mode-hopping relaxation, then round each task's average speed up to the
model's grid.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence, Union

from .errors import BudgetExceededError, InfeasibleError, RangeError
from .graph import (
    REL_TOL,
    ExecutionGraph,
    Schedule,
    SolveReport,
    Task,
    asap_times,
    build_execution_graph,
    constant_schedule,
    topological_order,
)
from .vdd import VddModel, check_modes, solve_vdd

log = logging.getLogger("reclaim.discrete")

DEFAULT_NODE_BUDGET = 10_000_000


@dataclass(frozen=True)
class DiscreteModel:
    """A finite set of modes, strictly ascending."""

    modes: tuple[float, ...]

    def __post_init__(self):
        check_modes(self.modes)

    @cached_property
    def alpha(self) -> float:
        """Largest gap between adjacent modes; 0 for a single mode."""
        if len(self.modes) == 1:
            return 0.0
        return max(b - a for a, b in zip(self.modes, self.modes[1:]))


@dataclass(frozen=True)
class IncrementalModel:
    """Arithmetic speed grid: s_min, s_min + delta, ... capped at s_max.

    s_max itself is admissible only when it lies on the grid.
    """

    s_min: float
    s_max: float
    delta: float

    def __post_init__(self):
        for name in ("s_min", "s_max", "delta"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if self.s_max < self.s_min:
            raise ValueError(f"s_max {self.s_max} below s_min {self.s_min}")


SpeedModel = Union[DiscreteModel, IncrementalModel]


def admissible_speeds(model: SpeedModel) -> list[float]:
    """Every speed the model allows, ascending."""
    if isinstance(model, DiscreteModel):
        return list(model.modes)
    steps = int(math.floor((model.s_max - model.s_min) / model.delta + 1e-9))
    top = model.s_min + steps * model.delta
    if top > model.s_max * (1 + 1e-12):
        steps -= 1
    return [model.s_min + i * model.delta for i in range(steps + 1)]


@dataclass(frozen=True)
class ExactSolution:
    """An assignment from `solve_exact`.

    `nodes` counts the modes tried; `pruned_deadline` and `pruned_energy`
    count the tries cut by each bound. `proven_optimal` is False only on
    the incumbent a `BudgetExceededError` carries.
    """

    speeds: dict[str, float]
    energy: float
    makespan: float
    nodes: int
    pruned_deadline: int
    pruned_energy: int
    proven_optimal: bool


def _latest_start(bound: float, duration: float) -> float:
    """Largest float t whose rounded sum t + duration stays within bound."""
    t = bound - duration
    while t + duration > bound:
        t = math.nextafter(t, -math.inf)
    while math.nextafter(t, math.inf) + duration <= bound:
        t = math.nextafter(t, math.inf)
    return t


def solve_exact(
    g: ExecutionGraph, model: SpeedModel, node_budget: int = DEFAULT_NODE_BUDGET
) -> ExactSolution:
    """Globally optimal one-mode-per-task assignment by branch and bound.

    Tasks are fixed in topological order and speeds tried ascending, so
    the first optimum reached is the lexicographically smallest one; the
    ties-included pruning rule then keeps exactly that incumbent. Every
    mode tried counts as one node.

    Energy bound: a branch dies when its energy plus the suffix's floor
    (all remaining work at the slowest mode) cannot beat the incumbent;
    faster modes only cost more, so the mode loop stops there.

    Deadline bound: a mode is skipped when some path after the task, run
    at the fastest mode, would finish past the deadline. One backward
    pass before the search makes this a constant-time test. `latest[i]`
    is the deadline minus the tail of task i (the longest path strictly
    after it at the fastest mode), taken in floating point as the largest
    completion of i from which every such path, summed left to right as
    a forward pass sums it, still ends within the deadline. A node
    compares its completion with `latest[i]` and nothing else. The plain
    sum `completion + tail` rounds differently and, with the deadline on
    the feasibility edge, can reject the only schedules that fit.

    The test prunes exactly what a forward walk of the whole unfixed
    suffix at the fastest mode prunes. A path that starts at an earlier
    fixed task and runs only through unfixed tasks passed that task's own
    test when it was fixed: its completion has not moved since, and the
    path's tasks were unfixed then too. A path through task i starts from
    i's completion, which already includes every fixed predecessor. Paths
    from unfixed sources are covered by the root test. Because the sums
    match the forward walk bit for bit, the node counts, the optimum, its
    tie-break and the point where `BudgetExceededError` fires are the
    ones the suffix walk gives.
    """
    speeds = admissible_speeds(model)
    order = topological_order(g)
    n = len(order)
    cost = [g.costs[tid] for tid in order]
    pos = {tid: i for i, tid in enumerate(order)}
    preds: list[list[int]] = [[] for _ in range(n)]
    succs: list[list[int]] = [[] for _ in range(n)]
    for u, v in g.edges:
        preds[pos[v]].append(pos[u])
        succs[pos[u]].append(pos[v])
    fastest = speeds[-1]
    slowest = speeds[0]
    limit = g.deadline * (1 + REL_TOL)

    # Root test: every task at the fastest mode.
    _, finish = asap_times(g, {tid: g.costs[tid] / fastest for tid in order})
    if max(finish.values()) > limit:
        raise InfeasibleError(
            f"even the fastest mode {fastest:g} misses deadline {g.deadline:g}"
        )

    latest = [limit] * n
    for i in range(n - 1, -1, -1):
        for k in succs[i]:
            latest[i] = min(latest[i], _latest_start(latest[k], cost[k] / fastest))

    # Energy floor of every suffix: all remaining work at the slowest mode.
    floor = [0.0] * (n + 1)
    for i in range(n - 1, -1, -1):
        floor[i] = floor[i + 1] + cost[i] * slowest * slowest

    # Per task and mode: (speed, energy, duration).
    table = [
        [(s, cost[i] * s * s, cost[i] / s) for s in speeds] for i in range(n)
    ]

    best_energy = math.inf
    best_speeds: list[float] | None = None
    best_makespan = 0.0
    chosen = [0.0] * n
    completion = [0.0] * n
    nodes = pruned_deadline = pruned_energy = 0

    def pack(proven_optimal: bool) -> ExactSolution | None:
        if best_speeds is None:
            return None
        return ExactSolution(
            speeds=dict(zip(order, best_speeds)),
            energy=best_energy,
            makespan=best_makespan,
            nodes=nodes,
            pruned_deadline=pruned_deadline,
            pruned_energy=pruned_energy,
            proven_optimal=proven_optimal,
        )

    def descend(i: int, energy: float) -> None:
        nonlocal nodes, pruned_deadline, pruned_energy
        nonlocal best_energy, best_speeds, best_makespan
        if i == n:
            # Bounds guarantee feasibility and strict improvement here.
            best_energy = energy
            best_speeds = chosen.copy()
            best_makespan = max(completion)
            return
        begin = max((completion[p] for p in preds[i]), default=0.0)
        for s, work, duration in table[i]:
            nodes += 1
            if nodes > node_budget:
                incumbent = (
                    f"incumbent energy {best_energy:.12g}"
                    if best_speeds is not None
                    else "no incumbent"
                )
                raise BudgetExceededError(
                    f"node budget {node_budget} exhausted after {nodes} nodes; {incumbent}",
                    best=pack(False),
                    nodes=nodes,
                )
            extended = energy + work
            if extended + floor[i + 1] >= best_energy:
                pruned_energy += 1
                break  # faster modes only cost more
            completion[i] = begin + duration
            if completion[i] > latest[i]:
                pruned_deadline += 1
                continue  # a faster mode may still fit
            chosen[i] = s
            descend(i + 1, extended)

    descend(0, 0.0)
    assert best_speeds is not None  # the all-fastest point was feasible
    solution = pack(True)
    log.info("exact: energy %.12g after %d nodes", best_energy, nodes)
    return solution


# ---------------------------------------------------------------------------
# Approximation pipelines


@dataclass(frozen=True)
class ApproxResult:
    schedule: Schedule
    report: SolveReport
    bound_factor: float
    certified_upper: float


def geometric_modes(s_min: float, s_max: float, K: int) -> list[float]:
    """{s_min * (1 + 1/K)^i} for i = 0..N, the largest power within s_max."""
    if K < 1:
        raise ValueError(f"K must be a positive integer, got {K}")
    if s_max < s_min:
        raise ValueError(f"s_max {s_max} below s_min {s_min}")
    ratio = 1.0 + 1.0 / K
    count = int(math.floor(math.log(s_max / s_min) / math.log(ratio)))
    while s_min * ratio ** (count + 1) <= s_max * (1 + 1e-12):
        count += 1
    while count > 0 and s_min * ratio**count > s_max * (1 + 1e-12):
        count -= 1
    return [s_min * ratio**i for i in range(count + 1)]


def _round_up(target: float, grid: Sequence[float]) -> float | None:
    for s in grid:
        if s >= target * (1 - REL_TOL):
            return s
    return None


def _approx(g: ExecutionGraph, grid: list[float], K: int, bound_factor: float, lowest: float):
    geo = geometric_modes(lowest, grid[-1], K)
    # The ladder stops at its last rung within the top speed. When the
    # deadline needs more, the top speed closes it: still within a ratio
    # of 1 + 1/K of the rung below, so the bound and certificate hold.
    _, completion = asap_times(g, {tid: g.costs[tid] / geo[-1] for tid in g.topo_order})
    if max(completion.values()) > g.deadline and grid[-1] > geo[-1]:
        geo.append(grid[-1])
    _, vdd_report = solve_vdd(g, VddModel(tuple(geo)))
    speeds: dict[str, float] = {}
    for tid, avg in vdd_report.speeds.items():
        snapped = _round_up(avg, grid)
        if snapped is None:
            raise InfeasibleError(
                f"task {tid!r} needs average speed {avg:g}, above the top "
                f"admissible speed {grid[-1]:g}"
            )
        speeds[tid] = snapped
    schedule, report = constant_schedule(
        g, speeds, {"vdd_energy": vdd_report.energy, "geometric_modes": geo, "K": K}
    )
    # Rounding up never stretches a task, so the mode-hopping feasibility
    # carries over; the certificate needs no knowledge of the optimum.
    per_task = bound_factor / (1.0 + 1.0 / K) ** 2
    certified = per_task * vdd_report.energy
    return ApproxResult(
        schedule=schedule,
        report=report,
        bound_factor=bound_factor,
        certified_upper=certified,
    )


def approx_incremental(g: ExecutionGraph, model: IncrementalModel, K: int) -> ApproxResult:
    """Certified (1 + delta/s_min)^2 (1 + 1/K)^2 scheme on the speed grid."""
    grid = admissible_speeds(model)
    factor = (1.0 + model.delta / model.s_min) ** 2 * (1.0 + 1.0 / K) ** 2
    return _approx(g, grid, K, factor, model.s_min)


def approx_discrete(g: ExecutionGraph, model: DiscreteModel, K: int) -> ApproxResult:
    """Certified (1 + alpha/s_1)^2 (1 + 1/K)^2 scheme on the mode set."""
    grid = admissible_speeds(model)
    factor = (1.0 + model.alpha / model.modes[0]) ** 2 * (1.0 + 1.0 / K) ** 2
    return _approx(g, grid, K, factor, model.modes[0])


def round_continuous(speeds: Sequence[float], model: IncrementalModel) -> list[float]:
    """Round each speed up to the grid; energy grows at most by
    (1 + delta/s_min)^2 and no duration ever stretches."""
    grid = admissible_speeds(model)
    out = []
    for s in speeds:
        if s > model.s_max * (1 + REL_TOL):
            raise RangeError(f"speed {s:g} exceeds the model cap {model.s_max:g}")
        snapped = _round_up(s, grid)
        if snapped is None:
            raise RangeError(
                f"no admissible speed at or above {s:g} (grid tops out at {grid[-1]:g})"
            )
        out.append(snapped)
    return out


# ---------------------------------------------------------------------------
# Hard instances


def gen_2partition(values: Sequence[int]) -> tuple[ExecutionGraph, DiscreteModel, float]:
    """Chain instance whose optimal-energy question encodes 2-Partition.

    For positive integers a_i with T = (sum a_i)/2: a chain of tasks with
    costs a_i, modes {1, 2}, and deadline 3T/2 admits a schedule meeting
    the deadline with energy at most 5T exactly when some subset of the
    a_i sums to T. Deadline and bound are quarters of integers, so both
    are exact in binary floating point.
    """
    values = list(values)
    if not values:
        raise ValueError("at least one value is required")
    if any(int(v) != v or v <= 0 for v in values):
        raise ValueError(f"values must be positive integers: {values}")
    total = int(sum(values))
    deadline = 3.0 * total / 4.0
    bound = 5.0 * total / 2.0
    tasks = [Task(id=f"T{i + 1}", cost=float(v)) for i, v in enumerate(values)]
    chain = [t.id for t in tasks]
    graph = build_execution_graph(tasks, [], [chain], deadline)
    return graph, DiscreteModel((1.0, 2.0)), bound
