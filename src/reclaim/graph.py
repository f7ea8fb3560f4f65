"""Task graphs with processor-order edges, plus schedule evaluation.

The central object is the execution graph: the user's precedence DAG
augmented with an edge between consecutive tasks of each processor's run
list. Every solver in the package judges feasibility and energy against
this graph alone, so the types here are the shared vocabulary.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Iterable, Sequence, Union

from .errors import CoverageError, CycleError, WorkDeficitError

# Relative tolerance on deadline and work-completion checks. Rational
# fixtures such as 3/5 + 5/6 + 2/30 do not sum exactly in binary.
REL_TOL = 1e-9


@dataclass(frozen=True)
class Task:
    """One unit of work; ``cost`` is the amount of computation in it."""

    id: str
    cost: float

    def __post_init__(self):
        if not self.id:
            raise ValueError("task id must be a non-empty string")
        if not self.cost > 0 or not math.isfinite(self.cost):
            raise ValueError(
                f"task {self.id!r}: cost must be positive and finite, got {self.cost}"
            )


@dataclass(frozen=True)
class ConstantSpeed:
    """Run the whole task at one speed."""

    speed: float

    def __post_init__(self):
        if not self.speed > 0 or not math.isfinite(self.speed):
            raise ValueError(f"speed must be positive and finite, got {self.speed}")


@dataclass(frozen=True)
class Segments:
    """Run the task as a sequence of (speed, duration) slices.

    Durations may be zero (such slices carry no work and no energy); at
    least one slice must be present.
    """

    parts: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if not self.parts:
            raise ValueError("a segmented profile needs at least one slice")
        for speed, duration in self.parts:
            if not speed > 0 or not math.isfinite(speed):
                raise ValueError(f"segment speed must be positive and finite, got {speed}")
            if not 0 <= duration < math.inf:
                raise ValueError(f"segment duration must be non-negative, got {duration}")


Profile = Union[ConstantSpeed, Segments]


@dataclass(frozen=True)
class ExecutionGraph:
    tasks: tuple[Task, ...]
    edges: frozenset[tuple[str, str]]
    deadline: float

    @cached_property
    def costs(self) -> dict[str, float]:
        return {t.id: t.cost for t in self.tasks}

    @cached_property
    def predecessors(self) -> dict[str, tuple[str, ...]]:
        pred: dict[str, list[str]] = {t.id: [] for t in self.tasks}
        for u, v in sorted(self.edges):
            pred[v].append(u)
        return {tid: tuple(ps) for tid, ps in pred.items()}

    @cached_property
    def successors(self) -> dict[str, tuple[str, ...]]:
        succ: dict[str, list[str]] = {t.id: [] for t in self.tasks}
        for u, v in sorted(self.edges):
            succ[u].append(v)
        return {tid: tuple(ss) for tid, ss in succ.items()}

    @cached_property
    def topo_order(self) -> tuple[str, ...]:
        """Kahn's algorithm with a heap, so ties always break by task id.

        Raises CycleError when the edges contain a cycle; a graph from
        `build_execution_graph` has already passed that test.
        """
        indeg = {t.id: 0 for t in self.tasks}
        for _, v in self.edges:
            indeg[v] += 1
        ready = [tid for tid, d in indeg.items() if d == 0]
        heapq.heapify(ready)
        order: list[str] = []
        while ready:
            tid = heapq.heappop(ready)
            order.append(tid)
            for nxt in self.successors[tid]:
                indeg[nxt] -= 1
                if indeg[nxt] == 0:
                    heapq.heappush(ready, nxt)
        if len(order) != len(self.tasks):
            stuck = sorted(tid for tid, d in indeg.items() if d > 0)
            raise CycleError(f"precedence and processor order conflict around {stuck}")
        return tuple(order)


@dataclass(frozen=True)
class Schedule:
    """Per-task speed profiles, with explicit start times when known."""

    profiles: dict[str, Profile]
    starts: dict[str, float] | None = None


@dataclass(frozen=True)
class SolveReport:
    energy: float
    makespan: float
    feasible: bool
    speeds: dict[str, float]
    diagnostics: dict = field(default_factory=dict)


def build_execution_graph(
    tasks: Iterable[Task],
    precedence_edges: Iterable[tuple[str, str]],
    allocation: Sequence[Sequence[str]],
    deadline: float,
) -> ExecutionGraph:
    """Augment the precedence DAG with same-processor serialization edges.

    ``allocation`` is one ordered id list per processor and must cover
    every task exactly once (CoverageError otherwise). A precedence edge
    that contradicts a processor's order shows up as a cycle in the
    combined relation and raises CycleError.
    """
    tasks = tuple(tasks)
    if not float(deadline) > 0 or not math.isfinite(deadline):
        raise ValueError(f"deadline must be positive and finite, got {deadline}")
    ids = [t.id for t in tasks]
    known = set(ids)
    if len(known) != len(ids):
        dup = sorted({i for i in ids if ids.count(i) > 1})
        raise ValueError(f"duplicate task ids: {dup}")

    edges: set[tuple[str, str]] = set()
    for u, v in precedence_edges:
        if u not in known or v not in known:
            raise ValueError(f"precedence edge ({u!r}, {v!r}) mentions an unknown task")
        if u == v:
            raise CycleError(f"task {u!r} precedes itself")
        edges.add((u, v))

    seen: set[str] = set()
    for run in allocation:
        for tid in run:
            if tid not in known:
                raise CoverageError(f"allocation mentions unknown task {tid!r}")
            if tid in seen:
                raise CoverageError(f"task {tid!r} allocated more than once")
            seen.add(tid)
        for a, b in zip(run, run[1:]):
            edges.add((a, b))
    missing = sorted(known - seen)
    if missing:
        raise CoverageError(f"tasks never allocated: {missing}")

    g = ExecutionGraph(tasks=tasks, edges=frozenset(edges), deadline=float(deadline))
    g.topo_order  # raises CycleError on any contradiction
    return g


def topological_order(g: ExecutionGraph) -> list[str]:
    """Task ids in the graph's topological order (ties by id), as a fresh list."""
    return list(g.topo_order)


def profile_duration(profile: Profile, cost: float) -> float:
    if isinstance(profile, ConstantSpeed):
        return cost / profile.speed
    return sum(d for _, d in profile.parts)


def profile_work(profile: Profile, cost: float) -> float:
    if isinstance(profile, ConstantSpeed):
        return cost
    return sum(s * d for s, d in profile.parts)


def profile_energy(profile: Profile, cost: float) -> float:
    # speed^3 * duration per slice; for a constant profile that is cost * speed^2
    if isinstance(profile, ConstantSpeed):
        return cost * profile.speed * profile.speed
    return sum(s * s * s * d for s, d in profile.parts)


def asap_times(
    g: ExecutionGraph, durations: dict[str, float]
) -> tuple[dict[str, float], dict[str, float]]:
    """Earliest start and completion per task under the given durations."""
    starts: dict[str, float] = {}
    completion: dict[str, float] = {}
    for tid in g.topo_order:
        begin = 0.0
        for p in g.predecessors[tid]:
            if completion[p] > begin:
                begin = completion[p]
        starts[tid] = begin
        completion[tid] = begin + durations[tid]
    return starts, completion


def retime(
    g: ExecutionGraph, profiles: dict[str, Profile]
) -> tuple[dict[str, float], dict[str, float], SolveReport]:
    """Time the profiles ASAP and price them: starts, completions, report.

    Each task starts at the latest predecessor completion, the canonical
    feasibility witness (any feasible timing admits this one). Energy is
    summed in topological order. Constant profiles skip the generic
    `profile_*` calls, which slow this loop on large graphs, and are
    priced inline by the same expressions.
    """
    durations: dict[str, float] = {}
    speeds: dict[str, float] = {}
    energy = 0.0
    for tid in g.topo_order:
        try:
            profile = profiles[tid]
        except KeyError:
            raise ValueError(f"schedule has no profile for task {tid!r}") from None
        cost = g.costs[tid]
        if type(profile) is ConstantSpeed:
            s = profile.speed
            durations[tid] = cost / s
            speeds[tid] = s
            energy += cost * s * s
            continue
        done = profile_work(profile, cost)
        if done < cost * (1 - REL_TOL):
            raise WorkDeficitError(
                f"task {tid!r}: profile completes {done:g} of {cost:g} work units"
            )
        d = profile_duration(profile, cost)
        durations[tid] = d
        speeds[tid] = cost / d
        energy += profile_energy(profile, cost)
    starts, completion = asap_times(g, durations)
    makespan = max(completion.values())
    return starts, completion, SolveReport(
        energy=energy,
        makespan=makespan,
        feasible=makespan <= g.deadline * (1 + REL_TOL),
        speeds=speeds,
    )


def evaluate_schedule(g: ExecutionGraph, schedule: Schedule) -> SolveReport:
    """`retime`'s report on the profiles; start times on the input are ignored."""
    return retime(g, schedule.profiles)[2]


def constant_schedule(
    g: ExecutionGraph, speeds: dict[str, float], diagnostics: dict
) -> tuple[Schedule, SolveReport]:
    """Schedule and report for one constant speed per task, from `retime`."""
    profiles = {tid: ConstantSpeed(float(speeds[tid])) for tid in g.topo_order}
    starts, _, report = retime(g, profiles)
    return Schedule(profiles=profiles, starts=starts), replace(report, diagnostics=diagnostics)


def with_asap_starts(g: ExecutionGraph, schedule: Schedule) -> Schedule:
    """Return the same profiles with ASAP start times filled in."""
    durations = {tid: profile_duration(p, g.costs[tid]) for tid, p in schedule.profiles.items()}
    starts, _ = asap_times(g, durations)
    return Schedule(profiles=dict(schedule.profiles), starts=starts)


# ---------------------------------------------------------------------------
# JSON instance and schedule formats
#
# Instance:
#   {"tasks": [{"id": "T1", "cost": 3.0}, ...],
#    "precedence": [["T1", "T3"], ...],
#    "allocation": [{"processor": 0, "order": ["T1", "T2"]}, ...],
#    "deadline": 1.5}
#
# Schedule: a list of per-task entries, each
#   {"id": ..., "profile": {"constant": s}}            or
#   {"id": ..., "profile": {"segments": [[s, d], ...]}, "start": b}
# (also accepted wrapped as {"schedule": [...]}, which is what reports emit).


def instance_from_dict(obj: dict) -> ExecutionGraph:
    if not isinstance(obj, dict):
        raise ValueError("instance must be a JSON object")
    for key in ("tasks", "precedence", "allocation", "deadline"):
        if key not in obj:
            raise ValueError(f"instance is missing {key!r}")
    raw_tasks = obj["tasks"]
    if not isinstance(raw_tasks, list) or not raw_tasks:
        raise ValueError("'tasks' must be a non-empty list")
    tasks = []
    for i, entry in enumerate(raw_tasks):
        if not isinstance(entry, dict) or "id" not in entry or "cost" not in entry:
            raise ValueError(f"tasks[{i}] must be an object with 'id' and 'cost'")
        tasks.append(Task(id=str(entry["id"]), cost=float(entry["cost"])))

    precedence = []
    for i, pair in enumerate(obj["precedence"]):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ValueError(f"precedence[{i}] must be a pair of task ids")
        precedence.append((str(pair[0]), str(pair[1])))

    raw_alloc = obj["allocation"]
    if not isinstance(raw_alloc, list) or not raw_alloc:
        raise ValueError("'allocation' must be a non-empty list")
    rows = []
    for i, entry in enumerate(raw_alloc):
        if not isinstance(entry, dict) or "processor" not in entry or "order" not in entry:
            raise ValueError(f"allocation[{i}] must be an object with 'processor' and 'order'")
        rows.append((int(entry["processor"]), [str(t) for t in entry["order"]]))
    procs = [p for p, _ in rows]
    if len(set(procs)) != len(procs):
        raise ValueError("duplicate processor index in allocation")
    allocation = [order for _, order in sorted(rows)]

    return build_execution_graph(tasks, precedence, allocation, float(obj["deadline"]))


def load_instance(path: str) -> ExecutionGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return instance_from_dict(json.load(fh))


def schedule_from_obj(obj) -> Schedule:
    if isinstance(obj, dict) and "schedule" in obj:
        obj = obj["schedule"]
    if not isinstance(obj, list) or not obj:
        raise ValueError("schedule must be a non-empty list of per-task entries")
    profiles: dict[str, Profile] = {}
    starts: dict[str, float] = {}
    for i, entry in enumerate(obj):
        if not isinstance(entry, dict) or "id" not in entry or "profile" not in entry:
            raise ValueError(f"schedule[{i}] must be an object with 'id' and 'profile'")
        tid = str(entry["id"])
        if tid in profiles:
            raise ValueError(f"schedule[{i}]: task {tid!r} listed twice")
        prof = entry["profile"]
        if not isinstance(prof, dict):
            raise ValueError(f"schedule[{i}]: 'profile' must be an object")
        if "constant" in prof:
            profiles[tid] = ConstantSpeed(float(prof["constant"]))
        elif "segments" in prof:
            parts = tuple((float(s), float(d)) for s, d in prof["segments"])
            profiles[tid] = Segments(parts)
        else:
            raise ValueError(f"schedule[{i}]: profile needs 'constant' or 'segments'")
        if "start" in entry:
            starts[tid] = float(entry["start"])
    return Schedule(profiles=profiles, starts=starts if starts else None)


def load_schedule(path: str) -> Schedule:
    with open(path, "r", encoding="utf-8") as fh:
        return schedule_from_obj(json.load(fh))


def schedule_to_obj(schedule: Schedule) -> list[dict]:
    out = []
    for tid in sorted(schedule.profiles):
        profile = schedule.profiles[tid]
        if isinstance(profile, ConstantSpeed):
            entry: dict = {"id": tid, "profile": {"constant": profile.speed}}
        else:
            entry = {"id": tid, "profile": {"segments": [[s, d] for s, d in profile.parts]}}
        if schedule.starts is not None and tid in schedule.starts:
            entry["start"] = schedule.starts[tid]
        out.append(entry)
    return out
