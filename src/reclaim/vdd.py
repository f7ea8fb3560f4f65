"""Mode-switching schedules, solved exactly through a linear program.

A processor that can hop between a finite set of speeds mid-task turns
the scheduling problem into an LP: one start-time variable per task plus
one time-share variable per (task, mode) pair. Optimal energy drops out
of the simplex solution together with an explicit segmented schedule.
`solve_vdd` builds that LP on the series-reduced graph; `build_lp` itself
takes any graph, and `--dump-lp` lists the whole execution graph's.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from . import simplex
from .continuous import reduce_dag
from .errors import InfeasibleError, LpInfeasibleError
from .graph import (
    ExecutionGraph,
    Schedule,
    Segments,
    SolveReport,
    Task,
    evaluate_schedule,
    topological_order,
)

log = logging.getLogger("reclaim.vdd")

# Time shares below this are pivot dust, not schedule content.
SEGMENT_DROP = 1e-12


def check_modes(modes: tuple[float, ...]) -> None:
    """A mode list must be non-empty, positive, finite and strictly ascending."""
    if not modes:
        raise ValueError("at least one mode is required")
    if any(not 0 < s < math.inf for s in modes):
        raise ValueError(f"modes must be positive and finite: {modes}")
    if any(a >= b for a, b in zip(modes, modes[1:])):
        raise ValueError(f"modes must be strictly ascending: {modes}")


@dataclass(frozen=True)
class VddModel:
    """Available speeds, strictly ascending."""

    modes: tuple[float, ...]

    def __post_init__(self):
        check_modes(self.modes)


@dataclass(frozen=True)
class LpProblem:
    """min objective.x  s.t.  lhs x <= rhs,  x >= 0."""

    var_names: tuple[str, ...]
    row_names: tuple[str, ...]
    objective: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray


def build_lp(g: ExecutionGraph, model: VddModel) -> LpProblem:
    """Emit the schedule LP for the graph under the given mode set.

    Variables: a start time b[i] per task, then a time share
    alpha[i,j] per task and mode; n(m+1) in total. Constraint families:
    every task ends by the deadline, no task starts before a predecessor
    has finished, and every task's mode shares add up to its work.
    """
    order = topological_order(g)
    n = len(order)
    m = len(model.modes)
    idx = {tid: i for i, tid in enumerate(order)}
    nvars = n * (m + 1)

    def alpha(i: int, j: int) -> int:
        return n + i * m + j

    var_names = [f"b[{tid}]" for tid in order]
    for tid in order:
        var_names.extend(f"alpha[{tid},{s:g}]" for s in model.modes)

    rows: list[np.ndarray] = []
    rhs: list[float] = []
    row_names: list[str] = []

    for tid in order:
        i = idx[tid]
        row = np.zeros(nvars)
        row[i] = 1.0
        row[alpha(i, 0) : alpha(i, m)] = 1.0
        rows.append(row)
        rhs.append(g.deadline)
        row_names.append(f"deadline[{tid}]")

    for u, v in sorted(g.edges):
        i, i2 = idx[u], idx[v]
        row = np.zeros(nvars)
        row[i] = 1.0
        row[alpha(i, 0) : alpha(i, m)] = 1.0
        row[i2] = -1.0
        rows.append(row)
        rhs.append(0.0)
        row_names.append(f"prec[{u}->{v}]")

    for tid in order:
        i = idx[tid]
        row = np.zeros(nvars)
        for j, s in enumerate(model.modes):
            row[alpha(i, j)] = -s
        rows.append(row)
        rhs.append(-g.costs[tid])
        row_names.append(f"work[{tid}]")

    objective = np.zeros(nvars)
    for tid in order:
        i = idx[tid]
        for j, s in enumerate(model.modes):
            objective[alpha(i, j)] = s * s * s

    return LpProblem(
        var_names=tuple(var_names),
        row_names=tuple(row_names),
        objective=objective,
        lhs=np.array(rows),
        rhs=np.array(rhs),
    )


def solve_lp(problem: LpProblem) -> tuple[np.ndarray, float]:
    """Optimal assignment and objective; deterministic for identical input."""
    return simplex.solve(problem.objective, problem.lhs, problem.rhs)


def format_lp(problem: LpProblem) -> str:
    """Plain-text listing of the program, for audit."""

    def terms(coeffs: np.ndarray) -> str:
        parts = [
            f"{c:g} {name}"
            for c, name in zip(coeffs, problem.var_names)
            if c != 0.0
        ]
        return " + ".join(parts).replace("+ -", "- ") if parts else "0"

    lines = [f"min {terms(problem.objective)}", "s.t."]
    for name, row, bound in zip(problem.row_names, problem.lhs, problem.rhs):
        lines.append(f"  {name}: {terms(row)} <= {bound:g}")
    lines.append("  x >= 0")
    return "\n".join(lines) + "\n"


def solve_vdd(g: ExecutionGraph, model: VddModel) -> tuple[Schedule, SolveReport]:
    """Minimum-energy segmented schedule for the graph under the modes.

    The LP is solved on `reduce_dag`'s residual, one task per group of
    summed cost W. That is exact: at average speed s a unit of work costs
    at least phi(s), the convex piecewise-linear interpolation of s^2
    between the modes, so a chain given a window costs what one task of
    its summed cost does, and attains it when every member runs the
    group's mode mix. Member i gets the group's shares scaled by w_i/W,
    and the members run back to back from the group's start. Diagnostics
    report the solved LP's objective and variable count and the
    residual's task count.
    """
    groups, residual = reduce_dag(g)
    heads = [group[0] for group in groups]
    work = {head: sum(g.costs[tid] for tid in group) for head, group in zip(heads, groups)}
    reduced = ExecutionGraph(
        tasks=tuple(Task(head, w) for head, w in work.items()),
        edges=frozenset((heads[u], heads[v]) for u, v in residual),
        deadline=g.deadline,
    )
    problem = build_lp(reduced, model)
    try:
        x, objective = solve_lp(problem)
    except LpInfeasibleError as exc:
        raise InfeasibleError(f"deadline {g.deadline} unreachable with modes {model.modes}") from exc

    n = len(groups)
    m = len(model.modes)
    slot = {head: i for i, head in enumerate(reduced.topo_order)}
    profiles: dict[str, Segments] = {}
    starts: dict[str, float] = {}
    for head, group in zip(heads, groups):
        i = slot[head]
        shares = x[n + i * m : n + (i + 1) * m]
        used = [(s, float(a)) for s, a in zip(model.modes, shares) if a >= SEGMENT_DROP]
        if not used:  # cost > 0 forces work on every task
            raise InfeasibleError(f"task {head!r} received no execution time")
        begin = float(x[i])
        for tid in group:
            scale = g.costs[tid] / work[head]
            profiles[tid] = Segments(tuple((s, a * scale) for s, a in used))
            starts[tid] = begin
            begin += sum(d for _, d in profiles[tid].parts)
    schedule = Schedule(profiles=profiles, starts=starts)
    log.info("vdd: objective %.12g over %d variables", objective, len(problem.var_names))
    diagnostics = {"objective": objective, "variables": len(problem.var_names), "reduced_tasks": n}
    return schedule, replace(evaluate_schedule(g, schedule), diagnostics=diagnostics)
