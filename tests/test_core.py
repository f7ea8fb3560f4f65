"""The integer-indexed graph core against a reference written here.

The reference shares no code with `reclaim.graph`: Kahn's algorithm with
a heap on id strings over the edge set, neighbour tuples sorted by id,
and an ASAP pass over dicts that sums energy in the reference order. The
core must agree with it exactly: the same order, the same neighbours,
the same start times and energy bit for bit, and the same message on a
cyclic input. Graphs come from both constructors, `build_execution_graph`
and `instance_from_dict`.
"""

import heapq
import random

import pytest

import reclaim as rc
import support
from reclaim.graph import retime


def reference(ids, edges):
    """(order, predecessors, successors), or the CycleError message."""
    preds = {t: [] for t in ids}
    succs = {t: [] for t in ids}
    for u, v in edges:
        preds[v].append(u)
        succs[u].append(v)
    indeg = {t: len(preds[t]) for t in ids}
    ready = [t for t in ids if not indeg[t]]
    heapq.heapify(ready)
    order = []
    while ready:
        t = heapq.heappop(ready)
        order.append(t)
        for v in succs[t]:
            indeg[v] -= 1
            if not indeg[v]:
                heapq.heappush(ready, v)
    if len(order) != len(ids):
        stuck = sorted(t for t in ids if indeg[t] > 0)
        return f"precedence and processor order conflict around {stuck}"
    return (order, {t: tuple(sorted(p)) for t, p in preds.items()},
            {t: tuple(sorted(s)) for t, s in succs.items()})


def reference_retime(order, preds, costs, speeds):
    done, starts, energy = {}, {}, 0.0
    for t in order:
        energy += costs[t] * speeds[t] * speeds[t]
    for t in order:
        starts[t] = max((done[p] for p in preds[t]), default=0.0)
        done[t] = starts[t] + costs[t] / speeds[t]
    return starts, energy


def cases(seed):
    """(tasks, precedence, runs) from tier-1's random families, random
    out- and in-trees, and random series-parallel graphs."""
    rng = random.Random(seed)
    for _ in range(60):
        tasks, prec, alloc = support.random_instance(
            rng, rng.randint(1, 14), n_proc=rng.randint(1, 4), p_edge=rng.choice((0.1, 0.3, 0.5)))
        yield tasks, prec, [q for _, q in alloc]
    for _ in range(30):
        costs, edges = support.tree_edges_and_costs(support.random_tree(rng, rng.randint(1, 40)))
        if rng.random() < 0.5:
            edges = [(v, u) for u, v in edges]
        yield list(costs.items()), edges, [[t] for t in costs]
    for _ in range(30):
        data, costs = support.random_spg(rng, rng.randint(2, 40))
        yield list(costs.items()), sorted(support.spg_edges(data)), [[t] for t in costs]


def graphs(seed):
    # Tasks are shuffled, so input order, id order and topological order differ.
    rng = random.Random(seed + 1)
    for tasks, prec, runs in cases(seed):
        rng.shuffle(tasks)
        instance = {
            "tasks": [{"id": t, "cost": w} for t, w in tasks],
            "precedence": [list(e) for e in prec],
            "allocation": [{"processor": p, "order": run} for p, run in enumerate(runs)],
            "deadline": 10.0,
        }
        edges = set(prec) | {e for run in runs for e in zip(run, run[1:])}
        yield rc.instance_from_dict(instance), tasks, edges
        built = rc.build_execution_graph([rc.Task(t, w) for t, w in tasks], prec, runs, 10.0)
        yield built, tasks, edges


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_core_matches_the_reference(seed):
    rng = random.Random(seed)
    for g, tasks, edges in graphs(seed):
        costs = dict(tasks)
        order, preds, succs = reference([t for t, _ in tasks], edges)
        assert rc.topological_order(g) == order
        assert g.predecessors == preds
        assert g.successors == succs
        assert list(g.predecessors) == [t for t, _ in tasks]  # in the order given
        speeds = {t: rng.uniform(0.5, 4.0) for t in costs}
        ref_starts, ref_energy = reference_retime(order, preds, costs, speeds)
        starts, _, report = retime(g, {t: rc.ConstantSpeed(s) for t, s in speeds.items()})
        assert dict(starts) == ref_starts
        assert report.energy == ref_energy


@pytest.mark.parametrize("seed", [4, 5])
def test_cycle_message_matches_the_reference(seed):
    rng = random.Random(seed)
    checked = 0
    for tasks, prec, runs in cases(seed):
        if len(tasks) < 2:
            continue
        ids = [t for t, _ in tasks]
        # A precedence edge against the topological order closes a cycle.
        order, _, _ = reference(ids, set(prec) | {e for r in runs for e in zip(r, r[1:])})
        i, j = sorted(rng.sample(range(len(order)), 2))
        back = (order[j], order[i])
        edges = set(prec) | {back} | {e for r in runs for e in zip(r, r[1:])}
        expected = reference(ids, edges)
        if not isinstance(expected, str):
            continue  # i and j were unrelated, so the edge closed nothing
        with pytest.raises(rc.CycleError) as err:
            rc.build_execution_graph([rc.Task(t, w) for t, w in tasks], prec + [back], runs, 1.0)
        assert str(err.value) == expected
        checked += 1
    assert checked >= 20
