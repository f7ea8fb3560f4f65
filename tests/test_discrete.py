"""Exact mode assignment, certified rounding, and the hardness generator."""

import math
import random
import tracemalloc

import pytest

import reclaim as rc
import support
from reclaim import discrete


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
        (lambda g: (g, rc.DiscreteModel((2.0, 5.0, 6.0))), 28),
        (lambda g: (g, rc.IncrementalModel(2.0, 6.0, 2.0)), 14),
        (lambda g: rc.gen_2partition([1, 2, 3, 4])[:2], 24),
        (
            lambda g: rc.gen_2partition(
                [20, 9, 24, 12, 26, 23, 27, 24, 21, 30, 17, 1, 27, 15]
            )[:2],
            1080,
        ),
    ],
    ids=["example4-discrete", "example4-incremental", "2partition-4", "2partition-14"],
)
def test_exact_node_counts_are_pinned(example4, make, nodes):
    # The counts `support.suffix_walk_search` gives on these instances; a
    # changed count means a pruning rule changed.
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


def _assert_like_suffix_walk(g, tasks, model, budget):
    """Solve and compare with `support.suffix_walk_search` at the same
    state limit; returns the number of state prunes."""
    ref = support.suffix_walk_search(
        rc.topological_order(g), dict(tasks), g.edges, g.deadline,
        rc.admissible_speeds(model), budget, state_limit=discrete.STATE_LIMIT,
    )
    if ref is None:
        with pytest.raises(rc.InfeasibleError):
            rc.solve_exact(g, model, node_budget=budget)
        return 0
    if ref["budget_hit"]:
        with pytest.raises(rc.BudgetExceededError) as info:
            rc.solve_exact(g, model, node_budget=budget)
        assert info.value.nodes == ref["nodes"]
        sol = info.value.best
        if ref["speeds"] is None:
            assert sol is None
            return 0
    else:
        sol = rc.solve_exact(g, model, node_budget=budget)
    assert sol.speeds == ref["speeds"]
    assert sol.energy == ref["energy"]
    assert (sol.nodes, sol.pruned_deadline, sol.pruned_energy, sol.pruned_state) == (
        ref["nodes"], ref["pruned_deadline"], ref["pruned_energy"], ref["pruned_state"]
    )
    return sol.pruned_state


def test_exact_search_prunes_like_the_suffix_walk(build, monkeypatch):
    # The constant-time deadline test and the state table must make every
    # decision a walk of the whole unfixed suffix and a scan of the edge
    # list make: same optimum, nodes, prunes and budget point, on
    # deadlines at, on and below the feasibility edge, with the table at
    # its limit, off, and full after a few states.
    rng = random.Random(101)
    default = discrete.STATE_LIMIT
    for trial in range(150):
        monkeypatch.setattr(discrete, "STATE_LIMIT", (default, 0, 1 + trial % 7)[trial % 3])
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
        _assert_like_suffix_walk(g, tasks, model, budget)


def test_state_rule_prunes_like_the_suffix_walk(build, monkeypatch):
    # Integer costs and speeds on halves, where completions repeat and
    # the state rule fires: the same comparison as above.
    rng = random.Random(107)
    default = discrete.STATE_LIMIT
    fired = 0
    for trial in range(150):
        monkeypatch.setattr(discrete, "STATE_LIMIT", (default, 0, 1 + trial % 7)[trial % 3])
        n = rng.randint(5, 11)
        tasks, prec, alloc = support.random_instance(
            rng, n, n_proc=rng.randint(1, 3), cost_range=(1.0, 6.0)
        )
        tasks = [(tid, float(round(cost))) for tid, cost in tasks]
        edges = support.all_edges(prec, alloc)
        speeds = sorted(rng.sample([1.0, 1.5, 2.0, 3.0, 4.0], rng.randint(2, 3)))
        deadline = support.pick_deadline(rng, tasks, edges, speeds[-1], (1.0, 1.5))
        budget = rng.choice([10**6, rng.randint(1, 1000)])
        g = build(tasks, prec, [q for _, q in alloc], deadline)
        fired += _assert_like_suffix_walk(g, tasks, rc.DiscreteModel(tuple(speeds)), budget) > 0
    assert fired >= 25


def test_state_table_changes_no_answer(build, monkeypatch):
    # The state rule cuts only branches that could at best tie an
    # assignment already searched, so the table off (limit 0) and at its
    # limit give the same answer. Half the instances have integer costs,
    # where completions repeat and the rule fires most.
    rng = random.Random(103)
    default = discrete.STATE_LIMIT
    fewer = 0
    for trial in range(320):
        n = rng.randint(4, 12)
        tasks, prec, alloc = support.random_instance(
            rng, n, n_proc=rng.randint(1, 3), cost_range=(1.0, 6.0)
        )
        if trial % 2:
            tasks = [(tid, float(round(cost))) for tid, cost in tasks]
        edges = support.all_edges(prec, alloc)
        speeds = sorted(rng.sample([1.0, 1.5, 2.0, 3.0, 4.0], rng.randint(2, 3)))
        deadline = support.pick_deadline(rng, tasks, edges, speeds[-1], (1.0, 1.5))
        g = build(tasks, prec, [q for _, q in alloc], deadline)
        solved = []
        for limit in (default, 0):
            monkeypatch.setattr(discrete, "STATE_LIMIT", limit)
            solved.append(rc.solve_exact(g, rc.DiscreteModel(tuple(speeds))))
        table, plain = solved
        assert plain.pruned_state == 0
        assert dict(table.speeds) == dict(plain.speeds)
        assert (table.energy, table.makespan) == (plain.energy, plain.makespan)
        assert table.nodes <= plain.nodes
        fewer += table.nodes < plain.nodes
    assert fewer >= 100


def test_state_table_stays_bounded():
    # On float costs no state repeats, so the table fills to its limit;
    # past that the search runs on without it and memory stays flat.
    rng = random.Random(5)
    costs = [rng.uniform(1.0, 30.0) for _ in range(24)]
    ids = [f"T{k + 1}" for k in range(24)]
    g = rc.build_execution_graph(
        [rc.Task(tid, cost) for tid, cost in zip(ids, costs)], [], [ids], 0.75 * sum(costs)
    )
    tracemalloc.start()
    try:
        with pytest.raises(rc.BudgetExceededError) as info:
            rc.solve_exact(g, rc.DiscreteModel((1.0, 2.0)), node_budget=3_000_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert info.value.best is not None
    assert peak < 8 * 2**20
