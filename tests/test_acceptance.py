"""Acceptance gate: ten criteria, one test per criterion.

Each test pins its tolerances and, where required, its runtime budget.
Random batches are seeded so a failure is reproducible bit for bit.
"""

import math
import random
import time

import pytest

import reclaim as rc
import support


def build(tasks, precedence, allocation, deadline):
    return rc.build_execution_graph(
        [rc.Task(i, w) for i, w in tasks],
        precedence,
        [list(q) for q in allocation],
        deadline,
    )


def example4():
    return rc.build_execution_graph(
        [rc.Task("T1", 3.0), rc.Task("T2", 2.0), rc.Task("T3", 1.0), rc.Task("T4", 2.0)],
        [("T1", "T3")],
        [["T1", "T2"], ["T3", "T4"]],
        1.5,
    )


def test_criterion_01_continuous_worked_example():
    """Barrier solve of the worked example: energy abs 1e-3, speeds abs 1e-4, < 1 s."""
    g = example4()
    t0 = time.perf_counter()
    _, report = rc.solve_dag(g, 6.0)
    elapsed = time.perf_counter() - t0

    s1 = (2.0 / 3.0) * (3.0 + 35.0 ** (1.0 / 3.0))
    rest = 1.5 - 3.0 / s1
    s2 = 2.0 / rest
    s3 = 3.0 / rest  # T3 and T4 share this speed
    expected_energy = 3 * s1**2 + 2 * s2**2 + 3 * s3**2

    assert report.energy == pytest.approx(expected_energy, abs=1e-3)
    assert report.speeds["T1"] == pytest.approx(s1, abs=1e-4)
    assert report.speeds["T2"] == pytest.approx(s2, abs=1e-4)
    assert report.speeds["T3"] == pytest.approx(s3, abs=1e-4)
    assert report.speeds["T4"] == pytest.approx(s3, abs=1e-4)
    assert elapsed < 1.0


def test_criterion_02_discrete_worked_example():
    """Exact mode assignment {2,5,6}: energy exactly 170, speeds (6,2,2,5), < 1 s."""
    g = example4()
    t0 = time.perf_counter()
    sol = rc.solve_exact(g, rc.DiscreteModel((2.0, 5.0, 6.0)))
    elapsed = time.perf_counter() - t0
    assert sol.energy == 170.0
    assert sol.speeds == {"T1": 6.0, "T2": 2.0, "T3": 2.0, "T4": 5.0}
    assert elapsed < 1.0


def test_criterion_03_vdd_worked_example():
    """Mode hopping over {2,5,6}: energy 144 rel 1e-6, makespan 1.5, < 1 s."""
    g = example4()
    t0 = time.perf_counter()
    schedule, report = rc.solve_vdd(g, rc.VddModel((2.0, 5.0, 6.0)))
    elapsed = time.perf_counter() - t0
    assert report.energy == pytest.approx(144.0, rel=1e-6)
    confirmed = rc.evaluate_schedule(g, schedule)
    assert confirmed.feasible
    assert confirmed.makespan == pytest.approx(1.5, rel=1e-9)
    assert elapsed < 1.0


def test_criterion_04_incremental_worked_example():
    """Grid (s_min=2, delta=2, s_max=6): energy exactly 128, all speeds 4, < 1 s."""
    g = example4()
    t0 = time.perf_counter()
    sol = rc.solve_exact(g, rc.IncrementalModel(2.0, 6.0, 2.0))
    elapsed = time.perf_counter() - t0
    assert sol.energy == 128.0
    assert sol.speeds == {"T1": 4.0, "T2": 4.0, "T3": 4.0, "T4": 4.0}
    assert elapsed < 1.0


def test_criterion_05_model_sandwich():
    """continuous <= vdd <= discrete within 1e-8 on the example and 50 random instances."""
    slack = 1e-8
    violations = 0

    def check(g, modes, s_max):
        nonlocal violations
        _, cont = rc.solve_dag(g, s_max)
        _, vdd = rc.solve_vdd(g, rc.VddModel(modes))
        disc = rc.solve_exact(g, rc.DiscreteModel(modes))
        if cont.energy > vdd.energy * (1 + slack):
            violations += 1
        if vdd.energy > disc.energy * (1 + slack):
            violations += 1

    check(example4(), (2.0, 5.0, 6.0), 6.0)

    rng = random.Random(2024)
    for _ in range(50):
        n = rng.randint(2, 8)
        tasks, prec, alloc = support.random_instance(rng, n)
        edges = support.all_edges(prec, alloc)
        deadline = support.pick_deadline(rng, tasks, edges, 2.0, (1.1, 2.5))
        g = build(tasks, prec, [q for _, q in alloc], deadline)
        _, free = rc.solve_dag(g, math.inf)
        lo, hi = min(free.speeds.values()), max(free.speeds.values())
        # the mode set brackets every continuous speed from both sides
        modes = tuple(sorted({0.8 * lo, rng.uniform(0.95, 1.05) * (lo + hi) / 2, 1.25 * hi}))
        check(g, modes, modes[-1])

    assert violations == 0


def test_criterion_06_closed_forms_against_the_numeric_solver():
    """100 trees (uncapped and non-binding caps) and 100 SPGs agree rel 1e-5."""
    rng = random.Random(77)
    for trial in range(100):
        data = support.random_tree(rng, rng.randint(2, 10))
        costs, edges = support.tree_edges_and_costs(data)
        ids = sorted(costs)
        deadline = support.pick_deadline(
            rng, [(i, costs[i]) for i in ids], edges, 2.0, (1.2, 3.0)
        )
        g = build([(i, costs[i]) for i in ids], edges, [[i] for i in ids], deadline)
        root = rc.as_tree(g)
        assert root is not None
        if trial % 2:
            s_max = math.inf
        else:
            _, free = rc.solve_dag(g, math.inf)
            s_max = 2.0 * max(free.speeds.values())  # finite but non-binding
        tree_energy, _ = rc.solve_tree(root, deadline, s_max)
        _, report = rc.solve_dag(g, s_max)
        assert tree_energy == pytest.approx(report.energy, rel=1e-5)

    for _ in range(100):
        data, costs = support.random_spg(rng, rng.randint(2, 12))
        edges = sorted(support.spg_edges(data))
        ids = sorted(costs)
        deadline = support.pick_deadline(
            rng, [(i, costs[i]) for i in ids], edges, 2.0, (1.2, 3.0)
        )
        g = build([(i, costs[i]) for i in ids], edges, [[i] for i in ids], deadline)
        node = rc.as_spg(g)
        assert node is not None
        spg_energy = rc.solve_spg(node, g.costs, deadline)
        _, report = rc.solve_dag(g, math.inf)
        assert spg_energy == pytest.approx(report.energy, rel=1e-5)


def test_criterion_07_constant_power():
    """50 capped solves with every speed <= 0.999 s_max dissipate constant power (1e-4)."""
    rng = random.Random(4242)
    passed = 0
    while passed < 50:
        n = rng.randint(3, 9)
        tasks, prec, alloc = support.random_instance(rng, n)
        edges = support.all_edges(prec, alloc)
        deadline = support.pick_deadline(rng, tasks, edges, 2.0, (1.3, 2.5))
        g = build(tasks, prec, [q for _, q in alloc], deadline)
        _, free = rc.solve_dag(g, math.inf)
        s_max = 1.5 * max(free.speeds.values())
        schedule, report = rc.solve_dag(g, s_max)
        if any(s > 0.999 * s_max for s in report.speeds.values()):
            continue  # cap not comfortably slack; instance does not qualify
        profile = rc.power_profile(g, schedule, min_interval=1e-6 * deadline)
        assert rc.check_constant_power(profile, rel_tol=1e-4)
        passed += 1


def _bounded_instance(rng, s_min, s_max):
    """Random instance whose continuous optimum lives in [s_min, s_max/2].

    Inside that band the certified chain is airtight: the geometric grid
    covers every optimal speed for any K >= 1. The deadline is rescaled
    analytically (speeds scale as 1/D), then the band is re-checked.
    """
    while True:
        n = rng.randint(2, 8)
        tasks, prec, alloc = support.random_instance(rng, n)
        edges = support.all_edges(prec, alloc)
        deadline = support.pick_deadline(rng, tasks, edges, s_max, (2.2, 3.0))
        g = build(tasks, prec, [q for _, q in alloc], deadline)
        _, free = rc.solve_dag(g, math.inf)
        top = max(free.speeds.values())
        scaled = deadline * top / (0.4 * s_max)  # new top speed = 0.4 s_max
        lo = min(free.speeds.values()) * (0.4 * s_max) / top
        if lo < s_min * 1.05:
            continue
        return build(tasks, prec, [q for _, q in alloc], scaled)


def test_criterion_08_approximation_bounds():
    """E_algo <= (1+round)^2 (1+1/K)^2 E_opt on 100 instances per scheme, < 60 s."""
    t0 = time.perf_counter()
    rng = random.Random(31337)

    inc_model = rc.IncrementalModel(0.5, 2.5, 0.5)
    for _ in range(100):
        g = _bounded_instance(rng, 0.5, 2.5)
        opt = rc.solve_exact(g, inc_model)
        for K in (1, 2, 4):
            result = rc.approx_incremental(g, inc_model, K)
            bound = (1 + 0.5 / 0.5) ** 2 * (1 + 1 / K) ** 2
            assert result.bound_factor == pytest.approx(bound, rel=1e-12)
            assert result.report.feasible
            assert result.report.energy <= bound * opt.energy * (1 + 1e-9)

    modes = (0.5, 1.0, 2.0, 3.0)
    disc_model = rc.DiscreteModel(modes)
    alpha = max(b - a for a, b in zip(modes, modes[1:]))
    for _ in range(100):
        g = _bounded_instance(rng, modes[0], modes[-1])
        opt = rc.solve_exact(g, disc_model)
        for K in (1, 2, 4):
            result = rc.approx_discrete(g, disc_model, K)
            bound = (1 + alpha / modes[0]) ** 2 * (1 + 1 / K) ** 2
            assert result.bound_factor == pytest.approx(bound, rel=1e-12)
            assert result.report.feasible
            assert result.report.energy <= bound * opt.energy * (1 + 1e-9)

    assert time.perf_counter() - t0 < 60.0


def test_criterion_09_partition_reduction_fidelity():
    """Energy <= 5T exactly when an equal split exists (200 sampled lists, n <= 8)."""
    rng = random.Random(90210)
    samples = [[1, 1], [2, 2], [1, 2], [3, 3, 3, 3, 3, 3, 3, 3], [24 // 2, 24 // 2]]
    while len(samples) < 200:
        samples.append(support.random_partition_values(rng))
    for values in samples:
        assert 2 <= len(values) <= 8 and sum(values) <= 24
        g, model, bound = rc.gen_2partition(values)
        sol = rc.solve_exact(g, model)  # always feasible: everything at speed 2
        splits = support.subset_sum_half(values)
        if splits:
            assert sol.energy <= bound
            assert sol.energy == bound  # the minimum lands exactly on the bound
        else:
            assert sol.energy > bound


def _tree_from_plain(data):
    order = []
    stack = [data]
    while stack:
        node = stack.pop()
        order.append(node)
        stack.extend(node["children"])
    built = {}
    for node in reversed(order):
        built[id(node)] = rc.TreeNode(
            node["id"], node["cost"], tuple(built[id(c)] for c in node["children"])
        )
    return built[id(data)]


def test_criterion_10_large_instances_are_fast():
    """10,000-node tree and 10,000-task SPG each solve in < 5 s."""
    rng = random.Random(271828)

    data = support.random_tree(rng, 10_000)
    root = _tree_from_plain(data)
    t0 = time.perf_counter()
    energy, speeds = rc.solve_tree(root, 500.0)
    tree_elapsed = time.perf_counter() - t0
    assert energy > 0 and len(speeds) == 10_000
    assert tree_elapsed < 5.0

    data, costs = support.random_spg(rng, 10_000)
    ids = sorted(costs)
    g = build([(i, costs[i]) for i in ids], sorted(support.spg_edges(data)),
              [[i] for i in ids], 500.0)
    t0 = time.perf_counter()
    energy = rc.solve_spg(rc.as_spg(g), g.costs, 500.0)
    spg_elapsed = time.perf_counter() - t0
    assert energy > 0
    assert spg_elapsed < 5.0
