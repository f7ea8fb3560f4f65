"""Task graphs with processor-order edges, plus schedule evaluation.

The central object is the execution graph: the user's precedence DAG
augmented with an edge between consecutive tasks of each processor's run
list. Every solver in the package judges feasibility and energy against
this graph alone, so the types here are the shared vocabulary. It is
held on integer task indices; ids are mapped to them when an instance is
read and back when a report is written.
"""

from __future__ import annotations

import heapq
import json
import math
import reprlib
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Iterable, Mapping, Sequence, Union

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


class ExecutionGraph:
    """The execution graph on integer task indices, read-only.

    Task i is the i-th of the topological order (ties broken by id), so
    every edge runs from a lower index to a higher one. ``ids[i]`` and
    ``cost[i]`` describe it, ``pred[i]`` and ``succ[i]`` list its
    neighbours in id order, ``by_id`` lists the indices in id order and
    ``listed`` in the order the tasks were given. The constructor takes
    ``edges`` as pairs of positions in ``ids`` and raises CycleError on a
    cycle; `build_execution_graph` checks its input first.
    """

    def __init__(self, ids: Sequence[str], cost: Sequence[float],
                 edges: Iterable[tuple[int, int]], deadline: float):
        n = len(ids)
        # Interned once: a task's rank is its id's place in sorted order,
        # so one sort of the integer edges lists every neighbour in id
        # order, and the heap breaks ties by rank as it would by id.
        by_rank = sorted(range(n), key=ids.__getitem__)
        rank = [0] * n
        for r, j in enumerate(by_rank):
            rank[j] = r
        codes = sorted({rank[u] * n + rank[v] for u, v in edges})
        out: list[list[int]] = [[] for _ in range(n)]
        indeg = [0] * n
        for code in codes:
            u, v = divmod(code, n)
            out[u].append(v)
            indeg[v] += 1
        pop, push = heapq.heappop, heapq.heappush
        ready = [r for r in range(n) if not indeg[r]]  # ascending, so already a heap
        order: list[int] = []
        while ready:
            r = pop(ready)
            order.append(r)
            for v in out[r]:
                indeg[v] -= 1
                if not indeg[v]:
                    push(ready, v)
        if len(order) != n:
            stuck = sorted(ids[by_rank[r]] for r in range(n) if indeg[r] > 0)
            raise CycleError(f"precedence and processor order conflict around {stuck}")
        at = [0] * n  # rank -> index
        for i, r in enumerate(order):
            at[r] = i
        given = [by_rank[r] for r in order]
        self.ids = [ids[j] for j in given]
        self.cost = [cost[j] for j in given]
        self.pred: list[list[int]] = [[] for _ in range(n)]
        self.succ: list[list[int]] = [[] for _ in range(n)]
        pred, succ = self.pred, self.succ
        for code in codes:
            u, v = divmod(code, n)
            u, v = at[u], at[v]
            succ[u].append(v)
            pred[v].append(u)
        self.by_id = at
        self.listed = [at[r] for r in rank]
        self.deadline = deadline

    # Id-keyed views for library callers, built on first use.

    @cached_property
    def index(self) -> dict[str, int]:
        return {tid: i for i, tid in enumerate(self.ids)}

    @cached_property
    def tasks(self) -> tuple[Task, ...]:
        return tuple(Task(self.ids[i], self.cost[i]) for i in self.listed)

    @cached_property
    def edges(self) -> frozenset[tuple[str, str]]:
        return frozenset((self.ids[u], self.ids[v]) for u, out in enumerate(self.succ) for v in out)

    @cached_property
    def costs(self) -> dict[str, float]:
        return {self.ids[i]: self.cost[i] for i in self.listed}

    @cached_property
    def predecessors(self) -> dict[str, tuple[str, ...]]:
        return {self.ids[i]: tuple(self.ids[u] for u in self.pred[i]) for i in self.listed}

    @cached_property
    def successors(self) -> dict[str, tuple[str, ...]]:
        return {self.ids[i]: tuple(self.ids[v] for v in self.succ[i]) for i in self.listed}

    @cached_property
    def topo_order(self) -> tuple[str, ...]:
        return tuple(self.ids)


class IdMap(Mapping):
    """Per-task results held by index in ``array`` and read by task id,
    in topological order: the CLI writes the array, a library caller
    reads a dict."""

    __slots__ = ("g", "array")

    def __init__(self, g: ExecutionGraph, array: list):
        self.g = g
        self.array = array

    def __getitem__(self, tid):
        return self.array[self.g.index[tid]]

    def __iter__(self):
        return iter(self.g.ids)

    def __len__(self):
        return len(self.array)

    def __repr__(self):
        return f"IdMap({dict(self)!r})"


class Profiles(IdMap):
    """An `IdMap` of profiles, where a bare float is a constant speed."""

    __slots__ = ()

    def __getitem__(self, tid):
        profile = super().__getitem__(tid)
        return ConstantSpeed(profile) if type(profile) is float else profile


def by_index(g: ExecutionGraph, values) -> list:
    """Per-task values as a list by index, from an `IdMap` on ``g``, an
    id-keyed mapping (KeyError names a missing task) or such a list."""
    if isinstance(values, IdMap) and values.g is g:
        return values.array
    if isinstance(values, Mapping):
        return [values[tid] for tid in g.ids]
    return values


def id_sorted(values: Mapping) -> list[tuple[str, object]]:
    """(id, value) pairs in id order; an `IdMap` is read off its array."""
    if isinstance(values, IdMap):
        ids, array = values.g.ids, values.array
        return [(ids[i], array[i]) for i in values.g.by_id]
    return sorted(values.items())


@dataclass(frozen=True)
class Schedule:
    """Per-task speed profiles, with explicit start times when known."""

    profiles: Mapping[str, Profile]
    starts: Mapping[str, float] | None = None


@dataclass(frozen=True)
class SolveReport:
    energy: float
    makespan: float
    feasible: bool
    speeds: Mapping[str, float]
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
    return _build([t.id for t in tasks], [t.cost for t in tasks], precedence_edges,
                  allocation, deadline)


def _build(ids, cost, precedence_edges, allocation, deadline) -> ExecutionGraph:
    if not float(deadline) > 0 or not math.isfinite(deadline):
        raise ValueError(f"deadline must be positive and finite, got {deadline}")
    at = {tid: j for j, tid in enumerate(ids)}
    if len(at) != len(ids):
        dup = sorted({i for i in ids if ids.count(i) > 1})
        raise ValueError(f"duplicate task ids: {dup}")

    edges: list[tuple[int, int]] = []
    for u, v in precedence_edges:
        j, k = at.get(u), at.get(v)
        if j is None or k is None:
            raise ValueError(f"precedence edge ({u!r}, {v!r}) mentions an unknown task")
        if j == k:
            raise CycleError(f"task {u!r} precedes itself")
        edges.append((j, k))

    seen = [False] * len(ids)
    for run in allocation:
        js = []
        for tid in run:
            j = at.get(tid)
            if j is None:
                raise CoverageError(f"allocation mentions unknown task {tid!r}")
            if seen[j]:
                raise CoverageError(f"task {tid!r} allocated more than once")
            seen[j] = True
            js.append(j)
        edges.extend(zip(js, js[1:]))
    if not all(seen):
        missing = sorted(tid for tid, s in zip(ids, seen) if not s)
        raise CoverageError(f"tasks never allocated: {missing}")
    return ExecutionGraph(ids, cost, edges, float(deadline))


def topological_order(g: ExecutionGraph) -> list[str]:
    """Task ids in the graph's topological order (ties by id), as a fresh list."""
    return list(g.ids)


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


def check_work(tid: str, profile: Profile, cost: float) -> None:
    """Raise WorkDeficitError unless the profile completes the task's work."""
    done = profile_work(profile, cost)
    if done < cost * (1 - REL_TOL):
        raise WorkDeficitError(f"task {tid!r}: profile completes {done:g} of {cost:g} work units")


def asap_times(g: ExecutionGraph, durations) -> tuple[IdMap, IdMap]:
    """Earliest start and completion per task under the given durations
    (by id or by index)."""
    durations = by_index(g, durations)
    starts = [0.0] * len(durations)
    completion = [0.0] * len(durations)
    for i, preds in enumerate(g.pred):
        begin = 0.0
        for p in preds:
            if completion[p] > begin:
                begin = completion[p]
        starts[i] = begin
        completion[i] = begin + durations[i]
    return IdMap(g, starts), IdMap(g, completion)


def retime(g: ExecutionGraph, profiles) -> tuple[IdMap, IdMap, SolveReport]:
    """Time the profiles ASAP and price them: starts, completions, report.

    ``profiles`` is keyed by id, or a list by index in which a bare float
    is a constant speed. Each task starts at the latest predecessor
    completion, the canonical feasibility witness (any feasible timing
    admits this one). Energy is summed in topological order, and
    segmented profiles are work-checked in it. Constant speeds skip the
    generic `profile_*` calls, which slow this loop on large graphs, and
    are priced inline by the same expressions.
    """
    try:
        profiles = by_index(g, profiles)
    except KeyError as exc:
        raise ValueError(f"schedule has no profile for task {exc.args[0]!r}") from None
    durations = [0.0] * len(profiles)
    speeds = [0.0] * len(profiles)
    energy = 0.0
    for i, (profile, cost) in enumerate(zip(profiles, g.cost)):
        if type(profile) is float:
            s = profile
        elif type(profile) is ConstantSpeed:
            s = profile.speed
        else:
            check_work(g.ids[i], profile, cost)
            d = profile_duration(profile, cost)
            durations[i] = d
            speeds[i] = cost / d
            energy += profile_energy(profile, cost)
            continue
        durations[i] = cost / s
        speeds[i] = s
        energy += cost * s * s
    starts, completion = asap_times(g, durations)
    makespan = max(completion.array)
    return starts, completion, SolveReport(
        energy=energy,
        makespan=makespan,
        feasible=makespan <= g.deadline * (1 + REL_TOL),
        speeds=IdMap(g, speeds),
    )


def evaluate_schedule(g: ExecutionGraph, schedule: Schedule) -> SolveReport:
    """`retime`'s report on the profiles; start times on the input are ignored."""
    return retime(g, schedule.profiles)[2]


def constant_schedule(g: ExecutionGraph, speeds, diagnostics: dict) -> tuple[Schedule, SolveReport]:
    """Schedule and report for one constant speed per task (by id or by
    index), from `retime`."""
    speeds = [float(s) for s in by_index(g, speeds)]
    for s in speeds:
        if not 0 < s < math.inf:
            raise ValueError(f"speed must be positive and finite, got {s}")
    starts, _, report = retime(g, speeds)
    return Schedule(Profiles(g, speeds), starts), replace(report, diagnostics=diagnostics)


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
#
# The readers' loops run once per task on large inputs, so each loop sits
# in one try: a field that does not convert is named by the handler, from
# the entry the loop stopped at, not by a check on every entry.

# What each scalar or list field must hold, for the readers' messages.
_FIELD_KINDS = {
    "cost": "a number",
    "precedence": "a list of task-id pairs",
    "processor": "an integer",
    "order": "a list of task ids",
    "deadline": "a number",
    "constant": "a number",
    "segments": "a list of [speed, duration] pairs",
    "start": "a number",
}

# What a conversion raises on a wrongly typed or malformed field.
_BAD_FIELD = (TypeError, ValueError, KeyError, OverflowError)


def _field_error(where: str, key: str, value) -> ValueError:
    return ValueError(f"{where}: {key!r} must be {_FIELD_KINDS[key]}, got {reprlib.repr(value)}")


def instance_from_dict(obj: dict) -> ExecutionGraph:
    if not isinstance(obj, dict):
        raise ValueError("instance must be a JSON object")
    for key in ("tasks", "precedence", "allocation", "deadline"):
        if key not in obj:
            raise ValueError(f"instance is missing {key!r}")
    raw_tasks = obj["tasks"]
    if not isinstance(raw_tasks, list) or not raw_tasks:
        raise ValueError("'tasks' must be a non-empty list")
    ids: list[str] = []
    cost: list[float] = []
    try:
        for i, entry in enumerate(raw_tasks):
            ids.append(str(entry["id"]))
            cost.append(float(entry["cost"]))
    except _BAD_FIELD:
        if not isinstance(entry, dict) or "id" not in entry or "cost" not in entry:
            raise ValueError(f"tasks[{i}] must be an object with 'id' and 'cost'") from None
        raise _field_error(f"tasks[{i}]", "cost", entry["cost"]) from None
    if not all(ids):
        raise ValueError("task id must be a non-empty string")
    for tid, c in zip(ids, cost):
        if not 0 < c < math.inf:
            raise ValueError(f"task {tid!r}: cost must be positive and finite, got {c}")

    raw_precedence = obj["precedence"]
    if not isinstance(raw_precedence, list):
        raise _field_error("instance", "precedence", raw_precedence)
    precedence = []
    for i, pair in enumerate(raw_precedence):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ValueError(f"precedence[{i}] must be a pair of task ids")
        precedence.append((str(pair[0]), str(pair[1])))

    raw_alloc = obj["allocation"]
    if not isinstance(raw_alloc, list) or not raw_alloc:
        raise ValueError("'allocation' must be a non-empty list")
    rows = []
    try:
        for i, entry in enumerate(raw_alloc):
            rows.append((int(entry["processor"]), [str(t) for t in entry["order"]]))
    except _BAD_FIELD:
        if not isinstance(entry, dict) or "processor" not in entry or "order" not in entry:
            raise ValueError(
                f"allocation[{i}] must be an object with 'processor' and 'order'"
            ) from None
        key = "processor" if isinstance(entry["order"], list) else "order"
        raise _field_error(f"allocation[{i}]", key, entry[key]) from None
    procs = [p for p, _ in rows]
    if len(set(procs)) != len(procs):
        raise ValueError("duplicate processor index in allocation")
    allocation = [order for _, order in sorted(rows)]

    try:
        deadline = float(obj["deadline"])
    except (TypeError, ValueError):
        raise _field_error("instance", "deadline", obj["deadline"]) from None
    return _build(ids, cost, precedence, allocation, deadline)


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
    try:
        for i, entry in enumerate(obj):
            tid = str(entry["id"])
            if tid in profiles:
                raise ValueError(f"schedule[{i}]: task {tid!r} listed twice")
            prof = entry["profile"]
            if "constant" in prof:
                profiles[tid] = ConstantSpeed(float(prof["constant"]))
            elif "segments" in prof:
                profiles[tid] = Segments(tuple((float(s), float(d)) for s, d in prof["segments"]))
            else:
                raise ValueError(f"schedule[{i}]: profile needs 'constant' or 'segments'")
            if "start" in entry:
                starts[tid] = float(entry["start"])
    except _BAD_FIELD:
        error = _schedule_entry_error(f"schedule[{i}]", entry)
        if error is None:
            raise  # a range check's own message
        raise error from None
    return Schedule(profiles=profiles, starts=starts if starts else None)


def _schedule_entry_error(where: str, entry) -> ValueError | None:
    # The first field of one schedule entry that does not read, or None.
    if not isinstance(entry, dict) or "id" not in entry or "profile" not in entry:
        return ValueError(f"{where} must be an object with 'id' and 'profile'")
    prof = entry["profile"]
    if not isinstance(prof, dict):
        return ValueError(f"{where}: 'profile' must be an object")
    key = "constant" if "constant" in prof else "segments"
    try:
        if key == "constant":
            float(prof[key])
        elif key in prof:
            [(float(s), float(d)) for s, d in prof[key]]
    except _BAD_FIELD:
        return _field_error(where, key, prof[key])
    try:
        float(entry.get("start", 0.0))
    except _BAD_FIELD:
        return _field_error(where, "start", entry["start"])
    return None


def load_schedule(path: str) -> Schedule:
    with open(path, "r", encoding="utf-8") as fh:
        return schedule_from_obj(json.load(fh))


def schedule_to_obj(schedule: Schedule) -> list[dict]:
    """JSON entries in id order; a solver's schedule is read off its arrays."""
    profiles, starts = schedule.profiles, schedule.starts
    if isinstance(profiles, IdMap) and isinstance(starts, IdMap):
        ids, p, b = profiles.g.ids, profiles.array, starts.array
        rows = [(ids[i], p[i], b[i]) for i in profiles.g.by_id]
    else:
        rows = [(tid, profiles[tid], None if starts is None else starts.get(tid))
                for tid in sorted(profiles)]
    out = []
    for tid, profile, start in rows:
        if type(profile) is float:
            entry: dict = {"id": tid, "profile": {"constant": profile}}
        elif isinstance(profile, ConstantSpeed):
            entry = {"id": tid, "profile": {"constant": profile.speed}}
        else:
            entry = {"id": tid, "profile": {"segments": [[s, d] for s, d in profile.parts]}}
        if start is not None:
            entry["start"] = start
        out.append(entry)
    return out
