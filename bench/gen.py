"""Seeded instance generators for the benchmark, as plain data.

Every generator returns an ``Inst``: task ids and costs, the precedence
pairs, the per-processor run lists and the deadline, plus whatever
structure the checks need (tree shape, series-parallel composition).
Nothing here imports the package; the checks in ``oracle.py`` work on
these same plain values (deadlines are timed with ``oracle.Timing``), so
the checks share no code with the program.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

import oracle


@dataclass
class Inst:
    name: str
    costs: dict[str, float]
    precedence: list[tuple[str, str]]
    allocation: list[list[str]]
    deadline: float
    # Shape data the equivalent-cost checks read: ("forest", roots,
    # children) or ("spg", source, sink, composition); None elsewhere.
    shape: tuple | None = None
    extra: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return len(self.costs)

    def edges(self) -> set[tuple[str, str]]:
        """Precedence plus consecutive pairs of every run list."""
        out = set(self.precedence)
        for run in self.allocation:
            out.update(zip(run, run[1:]))
        return out

    def to_json(self) -> str:
        return json.dumps({
            "tasks": [{"id": t, "cost": w} for t, w in self.costs.items()],
            "precedence": [list(e) for e in self.precedence],
            "allocation": [{"processor": p, "order": run} for p, run in enumerate(self.allocation)],
            "deadline": self.deadline,
        })


def _with_deadline(name, costs, precedence, allocation) -> Inst:
    """The ROADMAP deadline: 1.3 x the execution graph's critical path with
    every task at speed 4."""
    inst = Inst(name, costs, precedence, allocation, 0.0)
    at_speed_4 = oracle.Timing(costs, inst.edges(), 0.0).asap({t: w / 4 for t, w in costs.items()})
    inst.deadline = 1.3 * max(at_speed_4.values())
    return inst


def dag_family(rng: random.Random, n: int, name: str) -> Inst:
    """Costs U[1,5]; 4 processors in index order; 0.5n forward edges."""
    ids = [f"T{i}" for i in range(n)]
    costs = {t: rng.uniform(1.0, 5.0) for t in ids}
    runs: list[list[str]] = [[] for _ in range(4)]
    for t in ids:
        runs[rng.randrange(4)].append(t)
    extra: set[tuple[int, int]] = set()
    while len(extra) < n // 2:
        a, b = sorted(rng.sample(range(n), 2))
        extra.add((a, b))
    precedence = [(ids[a], ids[b]) for a, b in sorted(extra)]
    allocation = [run for run in runs if run]
    return _with_deadline(name, costs, precedence, allocation)


def out_tree(rng: random.Random, n: int, name: str, mirrored: bool = False) -> Inst:
    """Random recursive tree; each task continues its parent's processor
    when it is the parent's first child, so run lists follow tree edges.
    ``mirrored`` reverses every edge and run list (an in-tree)."""
    ids = [f"N{i}" for i in range(n)]
    costs = {t: rng.uniform(1.0, 5.0) for t in ids}
    children: dict[str, list[str]] = {t: [] for t in ids}
    for k in range(1, n):
        children[ids[rng.randrange(k)]].append(ids[k])
    allocation: list[list[str]] = []
    stack = [(ids[0], None)]
    while stack:
        t, run = stack.pop()
        if run is None:
            run = []
            allocation.append(run)
        run.append(t)
        kids = children[t]
        for i, c in enumerate(kids):
            stack.append((c, run if i == 0 else None))
    precedence = [(p, c) for p in ids for c in children[p]]
    if mirrored:
        precedence = [(c, p) for p, c in precedence]
        allocation = [run[::-1] for run in allocation]
    inst = _with_deadline(name, costs, precedence, allocation)
    inst.shape = ("forest", [ids[0]], children)
    return inst


def chain(rng: random.Random, n: int, name: str) -> Inst:
    """One processor runs every task; no precedence beyond its order."""
    ids = [f"C{i}" for i in range(n)]
    costs = {t: rng.uniform(1.0, 5.0) for t in ids}
    inst = _with_deadline(name, costs, [], [ids])
    inst.shape = ("forest", [ids[0]], dict(zip(ids, ([c] for c in ids[1:]))))
    return inst


def fork(rng: random.Random, n: int, name: str) -> Inst:
    """Root followed by n-1 independent branches, one processor each
    (the root shares the first branch's)."""
    ids = [f"F{i}" for i in range(n)]
    costs = {t: rng.uniform(1.0, 5.0) for t in ids}
    precedence = [(ids[0], t) for t in ids[1:]]
    allocation = [ids[:2]] + [[t] for t in ids[2:]]
    children = {t: [] for t in ids}
    children[ids[0]] = ids[1:]
    inst = _with_deadline(name, costs, precedence, allocation)
    inst.shape = ("forest", [ids[0]], children)
    return inst


def independent(rng: random.Random, n: int, name: str) -> Inst:
    ids = [f"I{i}" for i in range(n)]
    costs = {t: rng.uniform(1.0, 5.0) for t in ids}
    allocation = [[t] for t in ids]
    inst = _with_deadline(name, costs, [], allocation)
    inst.shape = ("forest", ids, {})
    return inst


def spg(rng: random.Random, n: int, name: str) -> Inst:
    """Random two-terminal series-parallel graph with n tasks.

    The composition is kept as nested tuples: ("edge", u, v),
    ("series", left, mid, right) and ("parallel", left, right), where
    every parallel branch holds at least one interior task, so no edge
    is duplicated. Each task runs alone on its processor.
    """
    ids = [f"P{i}" for i in range(n)]
    costs = {t: rng.uniform(1.0, 5.0) for t in ids}
    fresh = iter(ids[2:])
    edges: list[tuple[str, str]] = []

    # Iterative build: (u, v, interior count, slot to fill) work items.
    root: list = [None]
    work = [(ids[0], ids[1], n - 2, root, 0)]
    while work:
        u, v, k, slot, pos = work.pop()
        if k == 0:
            slot[pos] = ("edge", u, v)
            edges.append((u, v))
        elif k >= 2 and rng.random() < 0.5:
            a = rng.randint(1, k - 1)
            node = ["parallel", None, None]
            slot[pos] = node
            work.append((u, v, a, node, 1))
            work.append((u, v, k - a, node, 2))
        else:
            a = rng.randint(0, k - 1)
            mid = next(fresh)
            node = ["series", None, mid, None]
            slot[pos] = node
            work.append((u, mid, a, node, 1))
            work.append((mid, v, k - 1 - a, node, 3))
    allocation = [[t] for t in ids]
    inst = _with_deadline(name, costs, edges, allocation)
    inst.shape = ("spg", ids[0], ids[1], root[0])
    return inst


def two_partition(rng: random.Random, count: int, partitionable: bool, name: str) -> Inst:
    """A gen2p chain: costs a_i on one processor, deadline 3S/4.

    Partitionable draws put two halves of equal sum together; the others
    have an odd total. Modes {1, 2}; energy <= 5S/2 iff a partition exists.
    """
    while True:
        values = [rng.randint(1, 30) for _ in range(count)]
        half = count // 2
        diff = sum(values[:half]) - sum(values[half:])
        if partitionable:
            values[-1] += diff
        elif diff % 2 == 0:
            values[-1] += 1
        if 1 <= values[-1] <= 30:
            break
    rng.shuffle(values)
    ids = [f"T{i + 1}" for i in range(count)]
    total = sum(values)
    inst = Inst(name, {t: float(v) for t, v in zip(ids, values)}, [], [ids], 3.0 * total / 4.0)
    inst.extra = {"values": values, "bound": 5.0 * total / 2.0}
    return inst
