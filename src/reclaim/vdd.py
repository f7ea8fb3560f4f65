"""Mode-switching schedules, solved exactly through a linear program.

A processor that can hop between a finite set of speeds mid-task turns
the scheduling problem into an LP: one start-time variable per task plus
one time-share variable per (task, mode) pair. Optimal energy drops out
of the simplex solution together with an explicit segmented schedule.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from . import simplex
from .errors import DegenerateDurationError, InfeasibleError, LpInfeasibleError
from .graph import (
    ConstantSpeed,
    ExecutionGraph,
    Schedule,
    Segments,
    SolveReport,
    evaluate_schedule,
    profile_duration,
    topological_order,
)

log = logging.getLogger("reclaim.vdd")

# Time shares below this are pivot dust, not schedule content.
SEGMENT_DROP = 1e-12


@dataclass(frozen=True)
class VddModel:
    """Available speeds, strictly ascending."""

    modes: tuple[float, ...]

    def __post_init__(self):
        if not self.modes:
            raise ValueError("at least one mode is required")
        if any(not s > 0 for s in self.modes):
            raise ValueError(f"modes must be positive: {self.modes}")
        if any(a >= b for a, b in zip(self.modes, self.modes[1:])):
            raise ValueError(f"modes must be strictly ascending: {self.modes}")


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
    """Minimum-energy segmented schedule for the graph under the modes."""
    problem = build_lp(g, model)
    try:
        x, objective = solve_lp(problem)
    except LpInfeasibleError as exc:
        raise InfeasibleError(f"deadline {g.deadline} unreachable with modes {model.modes}") from exc

    order = topological_order(g)
    n = len(order)
    m = len(model.modes)
    profiles: dict[str, Segments] = {}
    starts: dict[str, float] = {}
    for i, tid in enumerate(order):
        shares = x[n + i * m : n + (i + 1) * m]
        parts = tuple(
            (s, float(a)) for s, a in zip(model.modes, shares) if a >= SEGMENT_DROP
        )
        if not parts:  # cost > 0 forces work on every task
            raise InfeasibleError(f"task {tid!r} received no execution time")
        profiles[tid] = Segments(parts)
        starts[tid] = float(x[i])
    schedule = Schedule(profiles=profiles, starts=starts)
    log.info("vdd: objective %.12g over %d variables", objective, len(problem.var_names))
    diagnostics = {"objective": objective, "variables": len(problem.var_names)}
    return schedule, replace(evaluate_schedule(g, schedule), diagnostics=diagnostics)


def average_speeds(schedule: Schedule, g: ExecutionGraph) -> dict[str, float]:
    """Work over total duration, task by task."""
    out: dict[str, float] = {}
    for tid in topological_order(g):
        profile = schedule.profiles[tid]
        if isinstance(profile, ConstantSpeed):
            out[tid] = profile.speed
            continue
        total = profile_duration(profile, g.costs[tid])
        if total <= 0.0:
            raise DegenerateDurationError(f"task {tid!r} has zero total duration")
        out[tid] = g.costs[tid] / total
    return out
