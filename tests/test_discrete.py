"""Exact mode assignment, certified rounding, and the hardness generator."""

import math
import random

import pytest

import reclaim as rc
import support


def test_discrete_model_validation():
    with pytest.raises(ValueError):
        rc.DiscreteModel(())
    with pytest.raises(ValueError):
        rc.DiscreteModel((3.0, 2.0))
    with pytest.raises(ValueError):
        rc.DiscreteModel((0.0, 2.0))
    m = rc.DiscreteModel((2.0, 5.0, 6.0))
    assert m.alpha == 3.0  # widest adjacent gap
    assert rc.DiscreteModel((4.0,)).alpha == 0.0


def test_incremental_model_validation():
    with pytest.raises(ValueError):
        rc.IncrementalModel(0.0, 6.0, 2.0)
    with pytest.raises(ValueError):
        rc.IncrementalModel(2.0, 1.0, 2.0)
    with pytest.raises(ValueError):
        rc.IncrementalModel(2.0, 6.0, 0.0)


def test_admissible_speeds():
    assert rc.admissible_speeds(rc.DiscreteModel((2.0, 5.0, 6.0))) == [2.0, 5.0, 6.0]
    assert rc.admissible_speeds(rc.IncrementalModel(2.0, 6.0, 2.0)) == [2.0, 4.0, 6.0]
    # the cap itself is only reachable when it sits on the grid
    assert rc.admissible_speeds(rc.IncrementalModel(2.0, 6.5, 2.0)) == [2.0, 4.0, 6.0]
    assert rc.admissible_speeds(rc.IncrementalModel(3.0, 3.0, 1.0)) == [3.0]


def test_worked_example_discrete(example4):
    sol = rc.solve_exact(example4, rc.DiscreteModel((2.0, 5.0, 6.0)))
    assert sol.energy == 170.0
    assert sol.speeds == {"T1": 6.0, "T2": 2.0, "T3": 2.0, "T4": 5.0}
    assert sol.makespan <= 1.5 * (1 + 1e-9)


def test_worked_example_incremental(example4):
    sol = rc.solve_exact(example4, rc.IncrementalModel(2.0, 6.0, 2.0))
    assert sol.energy == 128.0
    assert sol.speeds == {"T1": 4.0, "T2": 4.0, "T3": 4.0, "T4": 4.0}


def test_exact_matches_brute_force(build):
    rng = random.Random(71)
    for trial in range(60):
        n = rng.randint(2, 6)
        tasks, prec, alloc = support.random_instance(rng, n)
        edges = support.all_edges(prec, alloc)
        if trial % 2:
            speeds = sorted({round(rng.uniform(0.8, 6.0), 2) for _ in range(rng.randint(2, 4))})
            if len(speeds) < 2:
                continue
            model = rc.DiscreteModel(tuple(speeds))
        else:
            s_min = round(rng.uniform(0.5, 2.0), 2)
            delta = round(rng.uniform(0.5, 2.0), 2)
            steps = rng.randint(1, 3)
            model = rc.IncrementalModel(s_min, s_min + steps * delta, delta)
            speeds = rc.admissible_speeds(model)
        deadline = support.pick_deadline(rng, tasks, edges, max(speeds), (0.9, 2.0))
        g = build(tasks, prec, [q for _, q in alloc], deadline)
        expected = support.brute_force_exact(
            rc.topological_order(g), dict(tasks), g.edges, deadline, speeds
        )
        if expected is None:
            with pytest.raises(rc.InfeasibleError):
                rc.solve_exact(g, model)
            continue
        sol = rc.solve_exact(g, model)
        assert sol.energy == pytest.approx(expected[0], rel=1e-12)
        assert sol.speeds == expected[1]  # same lexicographic tie-break


def test_node_budget(example4):
    with pytest.raises(rc.BudgetExceededError) as info:
        rc.solve_exact(example4, rc.DiscreteModel((2.0, 5.0, 6.0)), node_budget=3)
    assert info.value.nodes >= 3
    best = info.value.best
    if best is not None:
        assert best.energy >= 170.0  # incumbent can only be worse than OPT


def test_node_budget_message_names_nodes_and_incumbent(example4):
    model = rc.DiscreteModel((2.0, 5.0, 6.0))
    with pytest.raises(rc.BudgetExceededError) as info:
        rc.solve_exact(example4, model, node_budget=3)
    assert info.value.best is None
    assert str(info.value) == "node budget 3 exhausted after 4 nodes; no incumbent"

    with pytest.raises(rc.BudgetExceededError) as info:
        rc.solve_exact(example4, model, node_budget=10)
    best = info.value.best
    assert info.value.nodes == 11
    assert best.energy == 179.0
    assert best.proven_optimal is False
    assert str(info.value) == "node budget 10 exhausted after 11 nodes; incumbent energy 179"


def test_geometric_modes():
    assert rc.geometric_modes(2.0, 6.0, 2) == pytest.approx([2.0, 3.0, 4.5])
    assert rc.geometric_modes(2.0, 6.0, 1) == pytest.approx([2.0, 4.0])
    # exact powers must survive the floor
    assert rc.geometric_modes(2.0, 8.0, 1) == pytest.approx([2.0, 4.0, 8.0])
    assert rc.geometric_modes(3.0, 3.0, 4) == [3.0]


def test_round_continuous():
    model = rc.IncrementalModel(2.0, 6.0, 2.0)
    assert rc.round_continuous([2.0, 3.1, 4.0, 5.9], model) == [2.0, 4.0, 4.0, 6.0]
    # below the grid rounds up to the slowest admissible speed
    assert rc.round_continuous([0.5], model) == [2.0]
    with pytest.raises(rc.RangeError):
        rc.round_continuous([6.3], model)


def _safe_instance(build, rng, s_min, s_max):
    """Instance whose continuous optimum stays below s_max/2.

    That keeps the optimum inside every geometric grid (K >= 1 tops out
    no lower than s_max/2), which is what the certified bounds assume.
    """
    while True:
        n = rng.randint(2, 6)
        tasks, prec, alloc = support.random_instance(rng, n)
        edges = support.all_edges(prec, alloc)
        deadline = support.pick_deadline(rng, tasks, edges, s_max, (2.2, 3.5))
        g = build(tasks, prec, [q for _, q in alloc], deadline)
        _, free = rc.solve_dag(g, math.inf)
        if max(free.speeds.values()) <= 0.5 * s_max and min(
            free.speeds.values()
        ) >= 0.25 * s_min:
            return g


def test_incremental_approximation_bound(build):
    rng = random.Random(83)
    for K in (1, 2, 4):
        for _ in range(5):
            model = rc.IncrementalModel(0.25, 6.0, 0.5)
            g = _safe_instance(build, rng, 0.25, 6.0)
            result = rc.approx_incremental(g, model, K)
            assert result.report.feasible
            assert result.bound_factor == pytest.approx(
                (1 + 0.5 / 0.25) ** 2 * (1 + 1 / K) ** 2, rel=1e-12
            )
            assert result.report.energy <= result.certified_upper * (1 + 1e-9)
            opt = rc.solve_exact(g, model)
            assert result.report.energy >= opt.energy * (1 - 1e-9)
            assert result.report.energy <= result.bound_factor * opt.energy * (1 + 1e-9)


def test_discrete_approximation_bound(build):
    rng = random.Random(89)
    modes = (0.25, 0.5, 1.0, 2.0, 4.0)
    model = rc.DiscreteModel(modes)
    for K in (1, 2, 4):
        for _ in range(5):
            g = _safe_instance(build, rng, modes[0], modes[-1])
            result = rc.approx_discrete(g, model, K)
            assert result.report.feasible
            alpha = 2.0  # widest gap in the mode list
            assert result.bound_factor == pytest.approx(
                (1 + alpha / modes[0]) ** 2 * (1 + 1 / K) ** 2, rel=1e-12
            )
            opt = rc.solve_exact(g, model)
            assert result.report.energy >= opt.energy * (1 - 1e-9)
            assert result.report.energy <= result.bound_factor * opt.energy * (1 + 1e-9)
            assert result.report.energy <= result.certified_upper * (1 + 1e-9)


def test_single_mode_bound_factor(build):
    g = build([("A", 1.0)], [], [["A"]], 2.0)
    result = rc.approx_discrete(g, rc.DiscreteModel((1.0,)), 2)
    # alpha = 0 collapses the rounding term
    assert result.bound_factor == pytest.approx(2.25, rel=1e-12)
    assert result.report.energy == pytest.approx(1.0, rel=1e-9)


def test_gen_2partition_fixture():
    graph, model, bound = rc.gen_2partition([1, 2, 3, 4])
    assert graph.deadline == 7.5  # 3/4 of the total work
    assert bound == 25.0  # 5/2 of the total work
    assert model.modes == (1.0, 2.0)
    assert len(graph.tasks) == 4
    # a chain on one processor: exactly n-1 serialization edges
    assert len(graph.edges) == 3
    assert rc.detect_structure(graph) == "chain"


def test_gen_2partition_validation():
    with pytest.raises(ValueError):
        rc.gen_2partition([])
    with pytest.raises(ValueError):
        rc.gen_2partition([1, 0])
    with pytest.raises(ValueError):
        rc.gen_2partition([1, -2])
    with pytest.raises(ValueError):
        rc.gen_2partition([1.5])  # type: ignore[list-item]


def test_gen_2partition_separates_yes_from_no():
    # yes-instance: {1,2,3,4} splits as {1,4} / {2,3}; minimum energy
    # lands exactly on the bound
    graph, model, bound = rc.gen_2partition([1, 2, 3, 4])
    sol = rc.solve_exact(graph, model)
    assert sol.energy == bound
    # no-instance: odd total, optimum strictly above the bound
    graph, model, bound = rc.gen_2partition([1, 1, 3])
    sol = rc.solve_exact(graph, model)
    assert sol.energy > bound


def test_exact_solution_reports_search_size(example4):
    sol = rc.solve_exact(example4, rc.DiscreteModel((2.0, 5.0, 6.0)))
    assert sol.nodes > 0
    assert sol.proven_optimal is True
    assert sol.pruned_deadline + sol.pruned_energy < sol.nodes


@pytest.mark.parametrize(
    "make, nodes",
    [
        (lambda g: (g, rc.DiscreteModel((2.0, 5.0, 6.0))), 32),
        (lambda g: (g, rc.IncrementalModel(2.0, 6.0, 2.0)), 14),
        (lambda g: rc.gen_2partition([1, 2, 3, 4])[:2], 26),
        (
            lambda g: rc.gen_2partition(
                [20, 9, 24, 12, 26, 23, 27, 24, 21, 30, 17, 1, 27, 15]
            )[:2],
            10752,
        ),
    ],
    ids=["example4-discrete", "example4-incremental", "2partition-4", "2partition-14"],
)
def test_exact_node_counts_are_pinned(example4, make, nodes):
    # The search visits the same nodes as the original suffix-walk
    # deadline test; a changed count means a bound changed.
    g, model = make(example4)
    assert rc.solve_exact(g, model).nodes == nodes


def _feasibility_edge(cp):
    """Smallest deadline D whose tolerance-widened limit D*(1 + 1e-9)
    still covers the critical path cp."""
    d = cp / (1 + 1e-9)
    while d * (1 + 1e-9) < cp:
        d = math.nextafter(d, math.inf)
    while math.nextafter(d, 0.0) * (1 + 1e-9) >= cp:
        d = math.nextafter(d, 0.0)
    return d


def test_exact_matches_brute_force_at_the_feasibility_edge(build):
    # At the edge only schedules with every critical-path task at the top
    # speed fit, so a deadline test that rounds differently from the
    # forward completion sums either loses them or admits a miss.
    rng = random.Random(97)
    for trial in range(40):
        n = rng.randint(2, 8)
        tasks, prec, alloc = support.random_instance(rng, n, n_proc=rng.randint(2, 3))
        edges = support.all_edges(prec, alloc)
        if trial % 2:
            count = 3 if n <= 6 else 2
            speeds = sorted({round(rng.uniform(0.8, 6.0), 3) for _ in range(count)})
            model = rc.DiscreteModel(tuple(speeds))
        else:
            s_min = round(rng.uniform(0.5, 2.0), 3)
            delta = round(rng.uniform(0.3, 2.0), 3)
            model = rc.IncrementalModel(s_min, s_min + (2 if n <= 6 else 1) * delta, delta)
            speeds = rc.admissible_speeds(model)
        cp = support.ref_makespan(edges, {i: w / speeds[-1] for i, w in tasks})
        edge = _feasibility_edge(cp)
        for deadline in (cp, edge):
            g = build(tasks, prec, [q for _, q in alloc], deadline)
            expected = support.brute_force_exact(
                rc.topological_order(g), dict(tasks), g.edges, deadline, speeds
            )
            sol = rc.solve_exact(g, model)
            assert sol.energy == pytest.approx(expected[0], rel=1e-12)
            assert sol.speeds == expected[1]
        below = math.nextafter(edge, 0.0)
        g = build(tasks, prec, [q for _, q in alloc], below)
        assert support.brute_force_exact(
            rc.topological_order(g), dict(tasks), g.edges, below, speeds
        ) is None
        with pytest.raises(rc.InfeasibleError):
            rc.solve_exact(g, model)


def test_exact_search_prunes_like_the_suffix_walk(build):
    # The constant-time deadline test must make every decision a walk of
    # the whole unfixed suffix makes: same optimum, nodes, prunes and
    # budget point, on deadlines at, on and below the feasibility edge.
    rng = random.Random(101)
    for trial in range(150):
        n = rng.randint(1, 9)
        tasks, prec, alloc = support.random_instance(rng, n, n_proc=rng.randint(1, 3))
        edges = support.all_edges(prec, alloc)
        if trial % 2:
            speeds = sorted({round(rng.uniform(0.5, 7.0), 3) for _ in range(rng.randint(1, 4))})
            model = rc.DiscreteModel(tuple(speeds))
        else:
            s_min = round(rng.uniform(0.5, 2.0), 3)
            delta = round(rng.uniform(0.3, 2.0), 3)
            model = rc.IncrementalModel(s_min, s_min + rng.randint(0, 3) * delta, delta)
            speeds = rc.admissible_speeds(model)
        cp = support.ref_makespan(edges, {i: w / speeds[-1] for i, w in tasks})
        edge = _feasibility_edge(cp)
        deadline = rng.choice(
            [cp, edge, math.nextafter(edge, 0.0), cp * rng.uniform(1.0, 2.5)]
        )
        budget = rng.choice([10**6, rng.randint(1, 100)])
        g = build(tasks, prec, [q for _, q in alloc], deadline)
        ref = support.suffix_walk_search(
            rc.topological_order(g), dict(tasks), g.edges, deadline, speeds, budget
        )
        if ref is None:
            with pytest.raises(rc.InfeasibleError):
                rc.solve_exact(g, model, node_budget=budget)
            continue
        if ref["budget_hit"]:
            with pytest.raises(rc.BudgetExceededError) as info:
                rc.solve_exact(g, model, node_budget=budget)
            assert info.value.nodes == ref["nodes"]
            sol = info.value.best
            if ref["speeds"] is None:
                assert sol is None
                continue
        else:
            sol = rc.solve_exact(g, model, node_budget=budget)
        assert sol.speeds == ref["speeds"]
        assert sol.energy == ref["energy"]
        assert (sol.nodes, sol.pruned_deadline, sol.pruned_energy) == (
            ref["nodes"], ref["pruned_deadline"], ref["pruned_energy"]
        )
