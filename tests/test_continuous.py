"""Closed forms, the interior-point solver, and the power-profile checks."""

import importlib
import json
import logging
import math
import os
import pathlib
import random

import numpy as np
import pytest

import reclaim as rc
import support
from reclaim import continuous as cont
from reclaim.cli import main

S1 = (2.0 / 3.0) * (3.0 + 35.0 ** (1.0 / 3.0))


def test_independent_tasks_run_at_work_over_deadline():
    speeds, energy = rc.solve_independent([3.0, 2.0, 1.0], 2.0, math.inf)
    assert speeds == [1.5, 1.0, 0.5]
    assert energy == pytest.approx((27.0 + 8.0 + 1.0) / 4.0, rel=1e-12)
    with pytest.raises(rc.InfeasibleError):
        rc.solve_independent([3.0], 1.0, 2.0)


def test_chain_collapses_to_total_work():
    speed, energy = rc.solve_chain([1.0, 2.0, 3.0], 2.0)
    assert speed == 3.0  # 6 units of work in 2 units of time
    assert energy == 6.0 ** 3 / 4.0
    # any split of the same total work prices identically
    _, same = rc.solve_chain([6.0], 2.0)
    assert energy == same
    with pytest.raises(rc.InfeasibleError):
        rc.solve_chain([4.0, 4.0], 1.0, 2.0)


def test_fork_join_closed_form():
    speeds, energy = rc.solve_fork_join(1.0, [1.0, 1.0], 1.0)
    assert speeds[0] == pytest.approx(2.0 ** (1.0 / 3.0) + 1.0, rel=1e-12)
    # both branches share the remaining window equally
    assert speeds[1] == speeds[2]


def test_fork_join_matches_ternary_search_oracle():
    rng = random.Random(17)
    for _ in range(40):
        w0 = rng.uniform(0.5, 3.0)
        branches = [rng.uniform(0.5, 3.0) for _ in range(rng.randint(1, 5))]
        deadline = rng.uniform(1.0, 4.0)
        s_max = rng.choice([math.inf, rng.uniform(1.5, 8.0)])
        lo = w0 / deadline * (1 + 1e-9)  # root any slower never finishes
        hi = s_max if math.isfinite(s_max) else 50.0
        if lo >= hi:
            with pytest.raises(rc.InfeasibleError):
                rc.solve_fork_join(w0, branches, deadline, s_max)
            continue
        _, expected = support.ternary_min(
            lambda s: support.fork_energy_given_root_speed(
                w0, branches, deadline, s, s_max
            ),
            lo,
            hi,
        )
        try:
            _, energy = rc.solve_fork_join(w0, branches, deadline, s_max)
        except rc.InfeasibleError:
            assert not math.isfinite(expected)
            continue
        assert energy == pytest.approx(expected, rel=1e-6)


def test_tree_equivalent_cost():
    leaf = rc.TreeNode("a", 2.0)
    assert rc.tree_eq_cost(leaf) == 2.0
    root = rc.TreeNode("r", 1.0, (rc.TreeNode("x", 1.0), rc.TreeNode("y", 1.0)))
    assert rc.tree_eq_cost(root) == pytest.approx(2.0 ** (1.0 / 3.0) + 1.0, rel=1e-12)


def test_tree_clamp_hits_the_cap_exactly():
    # eq-cost of the root is 2^(1/3)+4 so the uncapped root speed would be
    # ~2.63; at cap 2.5 the root takes 1.6 of the 2.0 window and both
    # children land exactly on the cap as well.
    root = rc.TreeNode("r", 4.0, (rc.TreeNode("x", 1.0), rc.TreeNode("y", 1.0)))
    energy, speeds = rc.solve_tree(root, 2.0, 2.5)
    assert energy == pytest.approx(37.5, rel=1e-12)
    assert speeds == {"r": 2.5, "x": 2.5, "y": 2.5}


def test_tree_infeasible_when_children_overflow_the_window():
    root = rc.TreeNode("r", 1.0, (rc.TreeNode("x", 1.0), rc.TreeNode("y", 1.0)))
    with pytest.raises(rc.InfeasibleError):
        rc.solve_tree(root, 1.0, 1.5)


def test_tree_agrees_with_numeric_solver(build):
    rng = random.Random(31)
    for trial in range(20):
        data = support.random_tree(rng, rng.randint(2, 12))
        costs, edges = support.tree_edges_and_costs(data)
        ids = sorted(costs)
        deadline = support.pick_deadline(
            rng, [(i, costs[i]) for i in ids], edges, 2.0, (1.2, 3.0)
        )
        g = build([(i, costs[i]) for i in ids], edges, [[i] for i in ids], deadline)
        root = rc.as_tree(g)
        assert root is not None
        # alternate between uncapped and a binding cap
        if trial % 2:
            s_max = math.inf
        else:
            _, free = rc.solve_dag(g, math.inf)
            s_max = 0.9 * max(free.speeds.values())
        try:
            energy, speeds = rc.solve_tree(root, deadline, s_max)
        except rc.InfeasibleError:
            with pytest.raises(rc.InfeasibleError):
                rc.solve_dag(g, s_max)
            continue
        _, report = rc.solve_dag(g, s_max)
        assert energy == pytest.approx(report.energy, rel=1e-5)
        assert all(s <= s_max * (1 + 1e-9) for s in speeds.values())


def _forest_instance(rng, shape, shuffled=False):
    """(costs, precedence, run lists) of a small forest of the given shape,
    each task on its own processor (a chain on one). ``shuffled`` hands
    the ids out in random order, so topological order differs from the
    order the tasks were drawn in."""
    n = rng.randint(1, 12) if shape == "independent" else rng.randint(2, 12)
    ids = [f"T{k:02d}" for k in range(n)]
    if shuffled:
        rng.shuffle(ids)
    costs = {t: rng.uniform(0.5, 3.0) for t in ids}
    runs = [[t] for t in ids]
    if shape in ("out-tree", "in-tree"):
        edges = [(ids[rng.randrange(k)], ids[k]) for k in range(1, n)]
    elif shape in ("out-forest", "in-forest"):
        edges = [(ids[rng.randrange(k)], ids[k]) for k in range(1, n) if rng.random() < 0.7]
    elif shape in ("fork", "join"):
        edges = [(ids[0], t) for t in ids[1:]]
    elif shape == "chain-by-precedence":
        edges = list(zip(ids, ids[1:]))
    else:
        edges = []
        if shape == "chain":
            runs = [ids]
    if shape in ("in-tree", "in-forest", "join"):
        edges = [(v, u) for u, v in edges]
    return costs, edges, runs


def _paper_forest_energy(costs, edges, deadline):
    # The paper's tree rule, with children along the edges of an
    # out-forest and against them in an in-forest: a leaf's equivalent
    # cost is its own, a parent's its own plus the cube root of the
    # children's summed cubes; the energy is sum(eq(root)^3) / D^2.
    out = len({v for _, v in edges}) == len(edges)
    children = {t: [] for t in costs}
    for u, v in edges:
        parent, child = (u, v) if out else (v, u)
        children[parent].append(child)
    has_parent = {c for kids in children.values() for c in kids}

    def eq(t):
        kids = children[t]
        return costs[t] + (sum(eq(c) ** 3 for c in kids) ** (1.0 / 3.0) if kids else 0.0)

    return sum(eq(t) ** 3 for t in costs if t not in has_parent) / deadline**2


@pytest.mark.parametrize("shape", ["out-tree", "in-tree", "chain", "fork", "join", "independent"])
def test_forest_rule_matches_the_paper_formula(tmp_path, capsys, shape):
    rng = random.Random(sum(map(ord, shape)))
    for trial in range(15):
        costs, edges, runs = _forest_instance(rng, shape)
        deadline = rng.uniform(0.5, 4.0)
        path = tmp_path / f"{trial}.json"
        path.write_text(json.dumps({
            "tasks": [{"id": t, "cost": c} for t, c in costs.items()],
            "precedence": [list(e) for e in edges],
            "allocation": [{"processor": k, "order": r} for k, r in enumerate(runs)],
            "deadline": deadline,
        }))
        assert main(["solve", str(path), "--model", "continuous"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["structure"] in ("independent", "chain", "fork", "tree")
        graph_edges = edges + [e for r in runs for e in zip(r, r[1:])]
        expected = _paper_forest_energy(costs, graph_edges, deadline)
        assert report["energy"] == pytest.approx(expected, rel=1e-12)
        speeds = report["speeds"]
        if shape == "chain":
            assert len(set(speeds.values())) == 1
        if shape == "independent":
            assert speeds == {t: w / deadline for t, w in costs.items()}


def _forest_tables(g):
    # (roots, children, order) of a forest graph: children along the
    # edges of an out-forest and against them in an in-forest, every
    # parent ordered before its children.
    out = all(len(p) <= 1 for p in g.predecessors.values())
    parents, children = (g.predecessors, g.successors) if out else (g.successors, g.predecessors)
    order = g.topo_order if out else g.topo_order[::-1]
    return [t for t in order if not parents[t]], children, order


@pytest.mark.parametrize("shape", ["out-tree", "in-tree", "chain", "chain-by-precedence", "fork",
                                   "join", "independent", "out-forest", "in-forest"])
def test_forest_solver_matches_the_tree_rule(build, shape):
    # The one closed form against support.tree_rule, the forest solver it
    # replaced, uncapped, under a binding cap and under an infeasible cap.
    rng = random.Random(sum(map(ord, shape)) + 1)
    raised = 0
    for _ in range(25):
        costs, edges, runs = _forest_instance(rng, shape, shuffled=True)
        deadline = rng.uniform(0.5, 4.0)
        g = build(list(costs.items()), edges, runs, deadline)
        roots, children, order = _forest_tables(g)
        forest = rc.as_forest(g)
        if len(roots) > 1 and g.edges:
            # several roots joined by edges are no forest label, but the
            # decomposition of their tables still solves
            assert forest is None
            sp = rc.decompose_forest(roots, children, order)
        else:
            sp = forest[1]
        path = {}
        for t in order:
            path[t] = path.get(t, 0.0) + g.costs[t]
            for c in children[t]:
                path[c] = path[t]
        low = max(path.values()) / deadline  # the lowest feasible cap
        top = max(support.tree_rule(g.costs, roots, children, order, deadline)[1].values())
        for s_max in (math.inf, low + 0.5 * (top - low), 0.9 * low):
            try:
                energy, speeds = support.tree_rule(g.costs, roots, children, order, deadline, s_max)
            except support.TreeRuleInfeasible as exc:
                raised += 1
                with pytest.raises(rc.InfeasibleError) as err:
                    rc.solve_sp(sp, g.costs, deadline, s_max)
                assert str(err.value) == str(exc)
                continue
            got_energy, got = rc.solve_sp(sp, g.costs, deadline, s_max)
            assert got_energy == pytest.approx(energy, rel=1e-12)
            assert got.keys() == speeds.keys()
            for t, s in got.items():
                assert s == pytest.approx(speeds[t], rel=1e-12)
    assert raised >= 25


def test_forest_solver_names_the_task_left_without_a_window():
    # The root fills the whole window at the cap, so nothing is left for x.
    root = rc.TreeNode("r", 1.0, (rc.TreeNode("x", 1.0), rc.TreeNode("y", 1.0)))
    with pytest.raises(rc.InfeasibleError, match="no execution window left at task 'x'"):
        rc.solve_tree(root, 1.0, 1.0)
    with pytest.raises(support.TreeRuleInfeasible, match="no execution window left at task 'x'"):
        support.tree_rule({"r": 1.0, "x": 1.0, "y": 1.0}, ["r"], {"r": ("x", "y"), "x": (), "y": ()},
                          ["r", "x", "y"], 1.0, 1.0)


def _two_or_three_tasks(build, edges):
    # s (2.0) -> t (3.0), with m (1.5) between them when the edges name it.
    tasks = [("s", 2.0), ("t", 3.0), ("m", 1.5)]
    tasks = [t for t in tasks if any(t[0] in e for e in edges)]
    return build(tasks, edges, [[t] for t, _ in tasks], 5.0)


def test_spg_cost_composition(build):
    single = _two_or_three_tasks(build, [("s", "t")])
    assert rc.spg_cost(rc.as_spg(single), single.costs) == 5.0
    two = _two_or_three_tasks(build, [("s", "m"), ("m", "t")])
    assert rc.spg_cost(rc.as_spg(two), two.costs) == 6.5
    both = _two_or_three_tasks(build, [("s", "m"), ("m", "t"), ("s", "t")])
    # parallel inner cost: cbrt(1.5^3 + 0^3) = 1.5 again
    assert rc.spg_cost(rc.as_spg(both), both.costs) == pytest.approx(6.5, rel=1e-12)


def test_spg_energy_frozen_case(build):
    g = _two_or_three_tasks(build, [("s", "t")])
    assert rc.solve_spg(rc.as_spg(g), g.costs, 2.5) == pytest.approx(125.0 / 6.25, rel=1e-12)


def test_spg_speeds_split_the_window(build):
    # s -> {a, b} -> t: both branches get the interior window, the
    # endpoints run at spg_cost / D.
    g = build(
        [("s", 1.0), ("a", 2.0), ("b", 2.0), ("t", 1.0)],
        [("s", "a"), ("s", "b"), ("a", "t"), ("b", "t")],
        [["s"], ["a"], ["b"], ["t"]],
        5.0,
    )
    node = rc.as_spg(g)
    energy, speeds = rc.solve_sp(node, g.costs, 5.0)
    total = 2.0 + 16.0 ** (1.0 / 3.0)
    assert energy == pytest.approx(total**3 / 25.0, rel=1e-12)
    assert speeds["s"] == speeds["t"] == pytest.approx(total / 5.0, rel=1e-12)
    assert speeds["a"] == speeds["b"]
    assert 1.0 / speeds["s"] + 2.0 / speeds["a"] + 1.0 / speeds["t"] == pytest.approx(5.0)
    assert sum(g.costs[t] * s * s for t, s in speeds.items()) == pytest.approx(energy, rel=1e-12)


def test_spg_rejects_finite_cap(build):
    g = _two_or_three_tasks(build, [("s", "t")])
    with pytest.raises(rc.UnsupportedError):
        rc.solve_spg(rc.as_spg(g), g.costs, 2.5, 4.0)


def test_spg_agrees_with_numeric_solver(build):
    rng = random.Random(47)
    for _ in range(20):
        data, costs = support.random_spg(rng, rng.randint(2, 12))
        edges = sorted(support.spg_edges(data))
        ids = sorted(costs)
        deadline = support.pick_deadline(
            rng, [(i, costs[i]) for i in ids], edges, 2.0, (1.2, 3.0)
        )
        g = build([(i, costs[i]) for i in ids], edges, [[i] for i in ids], deadline)
        node = rc.as_spg(g)
        assert node is not None
        energy = rc.solve_spg(node, g.costs, deadline)
        _, report = rc.solve_dag(g, math.inf)
        assert energy == pytest.approx(report.energy, rel=1e-5)


# ---------------------------------------------------------------------------
# the interior-point solver


def test_dag_worked_example(example4):
    _, report = rc.solve_dag(example4, 6.0)
    assert report.energy == pytest.approx(109.60785050042182, abs=1e-3)
    assert report.speeds["T1"] == pytest.approx(S1, abs=1e-4)
    assert report.speeds["T2"] == pytest.approx(2.5561761682648525, abs=1e-4)
    assert report.speeds["T3"] == pytest.approx(3.8342642523972787, abs=1e-4)
    assert report.speeds["T4"] == pytest.approx(3.8342642523972787, abs=1e-4)
    assert report.feasible
    assert report.diagnostics["residual"] <= 1e-8


def test_dag_single_task_is_exact(build):
    g = build([("A", 3.0)], [], [["A"]], 1.5)
    _, report = rc.solve_dag(g)
    assert report.speeds["A"] == 2.0
    assert report.energy == 12.0


def test_dag_uses_the_whole_deadline(build):
    rng = random.Random(3)
    for _ in range(15):
        n = rng.randint(2, 8)
        tasks, prec, alloc = support.random_instance(rng, n)
        edges = support.all_edges(prec, alloc)
        deadline = support.pick_deadline(rng, tasks, edges, 3.0, (1.1, 2.5))
        g = build(tasks, prec, [q for _, q in alloc], deadline)
        _, report = rc.solve_dag(g, 3.0)
        assert report.feasible
        assert report.makespan == pytest.approx(deadline, rel=1e-6)
        assert report.diagnostics["residual"] <= 1e-8


def test_dag_matches_closed_forms(build):
    # an independent set and a chain have exact answers
    g = build([("A", 3.0), ("B", 2.0)], [], [["A"], ["B"]], 2.0)
    _, report = rc.solve_dag(g)
    assert report.energy == pytest.approx((27.0 + 8.0) / 4.0, rel=1e-7)

    g = build([("A", 1.0), ("B", 2.0)], [("A", "B")], [["A", "B"]], 2.0)
    _, report = rc.solve_dag(g)
    assert report.energy == pytest.approx(27.0 / 4.0, rel=1e-7)


def test_dag_energy_is_monotone_in_deadline(build):
    rng = random.Random(13)
    tasks, prec, alloc = support.random_instance(rng, 6)
    edges = support.all_edges(prec, alloc)
    base = support.pick_deadline(rng, tasks, edges, 2.0, (1.2, 1.5))
    last = math.inf
    for scale in (1.0, 1.3, 1.8, 2.5):
        g = build(tasks, prec, [q for _, q in alloc], base * scale)
        _, report = rc.solve_dag(g, 2.0)
        assert report.energy <= last * (1 + 1e-8)
        last = report.energy


def test_dag_scale_covariance(build):
    rng = random.Random(29)
    tasks, prec, alloc = support.random_instance(rng, 5)
    edges = support.all_edges(prec, alloc)
    D = support.pick_deadline(rng, tasks, edges, 2.0, (1.3, 2.0))
    g1 = build(tasks, prec, [q for _, q in alloc], D)
    _, r1 = rc.solve_dag(g1)
    # tripling every cost multiplies the optimum by 27
    g2 = build([(i, 3 * w) for i, w in tasks], prec, [q for _, q in alloc], D)
    _, r2 = rc.solve_dag(g2)
    assert r2.energy == pytest.approx(27.0 * r1.energy, rel=1e-6)
    # doubling the deadline divides it by 4
    g3 = build(tasks, prec, [q for _, q in alloc], 2 * D)
    _, r3 = rc.solve_dag(g3)
    assert r3.energy == pytest.approx(r1.energy / 4.0, rel=1e-6)


def test_dag_infeasible_and_pinned_deadlines(build):
    g = build([("A", 2.0), ("B", 2.0)], [("A", "B")], [["A", "B"]], 2.0)
    _, report = rc.solve_dag(g, 2.0)  # critical path at cap == deadline
    assert report.speeds == {"A": 2.0, "B": 2.0}
    assert report.diagnostics.get("pinned")
    with pytest.raises(rc.InfeasibleError):
        rc.solve_dag(
            build([("A", 2.0), ("B", 2.0)], [("A", "B")], [["A", "B"]], 1.9), 2.0
        )


def test_reduction_matches_the_unreduced_barrier(build):
    rng = random.Random(59)
    for trial in range(36):
        n = rng.randint(3, 14)
        tasks, prec, alloc = support.random_instance(
            rng, n, n_proc=rng.randint(1, 4), p_edge=rng.choice((0.1, 0.25, 0.4))
        )
        if trial % 2:
            # Repeat some processor-order pairs as precedence edges.
            prec += [pair for _, q in alloc for pair in zip(q, q[1:]) if rng.random() < 0.5]
        edges = support.all_edges(prec, alloc)
        deadline = support.pick_deadline(rng, tasks, edges, 2.0, (1.2, 2.5))
        g = build(tasks, prec, [q for _, q in alloc], deadline)
        free_energy, free_speeds, _ = support.unreduced_barrier(g.costs, edges, deadline)
        low = support.ref_makespan(edges, g.costs) / deadline  # every task at speed 1
        top = max(free_speeds.values())
        caps = [math.inf]
        if top > low * (1 + 1e-3):
            caps.append((low + top) / 2)
        for s_max in caps:
            if math.isfinite(s_max):
                energy, speeds, _ = support.unreduced_barrier(g.costs, edges, deadline, s_max)
            else:
                energy, speeds = free_energy, free_speeds
            _, report = rc.solve_dag(g, s_max)
            assert report.energy == pytest.approx(energy, rel=1e-9)
            assert report.speeds == pytest.approx(speeds, rel=1e-6)
            assert report.diagnostics["residual"] <= 1e-8
            assert report.diagnostics["reduced_tasks"] <= n


def test_a_dropped_transitive_edge_lets_a_chain_contract(build):
    # a -> c is implied by a -> b -> c; without it a, b, c form one chain.
    g = build([("a", 1.0), ("b", 2.0), ("c", 3.0), ("x", 1.0)],
              [("a", "b"), ("b", "c"), ("a", "c")], [["a"], ["b"], ["c"], ["x"]], 2.0)
    groups, edges = cont.reduce_dag(g)
    assert groups == [["a", "b", "c"], ["x"]]
    assert edges == []
    _, report = rc.solve_dag(g)
    assert report.diagnostics["reduced_tasks"] == 2
    assert report.speeds["a"] == report.speeds["b"] == report.speeds["c"]
    assert report.speeds == pytest.approx({"a": 3.0, "b": 3.0, "c": 3.0, "x": 0.5}, rel=1e-6)
    # Keeping a -> c out of reach of b leaves nothing to drop or contract.
    g = build([("a", 1.0), ("b", 2.0), ("c", 3.0)], [("a", "b"), ("a", "c")],
              [["a"], ["b"], ["c"]], 2.0)
    groups, edges = cont.reduce_dag(g)
    assert groups == [["a"], ["b"], ["c"]]
    assert edges == [(0, 1), (0, 2)]


def test_dag_on_a_long_chain_is_the_closed_form(tmp_path):
    rng = random.Random(61)
    ids = [f"C{k}" for k in range(300)]
    costs = [rng.uniform(1.0, 5.0) for _ in ids]
    path = tmp_path / "chain.json"
    path.write_text(json.dumps({
        "tasks": [{"id": i, "cost": w} for i, w in zip(ids, costs)],
        "precedence": [],
        "allocation": [{"processor": 0, "order": ids}],
        "deadline": 100.0,
    }))
    out = tmp_path / "report.json"
    code = main(["solve", str(path), "--model", "continuous", "--structure", "dag",
                 "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    total = sum(costs)
    assert report["energy"] == pytest.approx(total**3 / 100.0**2, rel=1e-12)
    assert report["diagnostics"]["reduced_tasks"] == 1
    assert report["diagnostics"]["iterations"] == 0


def test_pinned_deadline_pins_only_the_tasks_without_float(build):
    # A -> B fills D = 1 at the cap; C has float and runs at its own pace.
    g = build([("A", 3.0), ("B", 3.0), ("C", 0.5)], [], [["A", "B"], ["C"]], 1.0)
    _, report = rc.solve_dag(g, 6.0)
    assert report.speeds == pytest.approx({"A": 6.0, "B": 6.0, "C": 0.5}, rel=1e-12)
    assert report.energy == pytest.approx(216.125, rel=1e-12)
    assert report.diagnostics["pinned"]
    rng = random.Random(67)
    for _ in range(10):
        tasks, prec, alloc = support.random_instance(rng, rng.randint(4, 10), n_proc=3)
        edges = support.all_edges(prec, alloc)
        s_max = rng.uniform(2.0, 4.0)
        deadline = support.ref_makespan(edges, {i: w / s_max for i, w in tasks})
        g = build(tasks, prec, [q for _, q in alloc], deadline)
        _, report = rc.solve_dag(g, s_max)
        assert report.diagnostics["pinned"]
        assert report.feasible
        assert all(s <= s_max for s in report.speeds.values())
        # A deadline a hair longer leaves the pinned optimum nearly unchanged.
        _, looser = rc.solve_dag(build(tasks, prec, [q for _, q in alloc], deadline * (1 + 1e-7)),
                                 s_max)
        assert looser.energy <= report.energy * (1 + 1e-9)
        assert report.energy == pytest.approx(looser.energy, rel=1e-5)


def test_dag_respects_the_cap(build):
    rng = random.Random(37)
    for _ in range(10):
        tasks, prec, alloc = support.random_instance(rng, 6)
        edges = support.all_edges(prec, alloc)
        s_max = rng.uniform(2.0, 5.0)
        deadline = support.pick_deadline(rng, tasks, edges, s_max, (1.02, 1.3))
        g = build(tasks, prec, [q for _, q in alloc], deadline)
        _, report = rc.solve_dag(g, s_max)
        assert all(s <= s_max * (1 + 1e-9) for s in report.speeds.values())
        assert report.feasible


def _certified(report, limit=1e-8):
    d = report.diagnostics
    lower, gap = d["certificate"]["lower_bound"], d["certificate"]["gap"]
    assert gap <= limit
    assert lower <= report.energy * (1 + 1e-12)
    assert d["duality_gap"] == pytest.approx(report.energy - lower, rel=1e-6, abs=1e-9 * report.energy)
    assert d["residual"] <= 1e-8
    return lower


def test_certified_bound_is_below_the_unreduced_barrier(build):
    rng = random.Random(71)
    for _ in range(24):
        tasks, prec, alloc = support.random_instance(rng, rng.randint(3, 12), n_proc=rng.randint(1, 4))
        edges = support.all_edges(prec, alloc)
        deadline = support.pick_deadline(rng, tasks, edges, 2.0, (1.2, 2.5))
        g = build(tasks, prec, [q for _, q in alloc], deadline)
        free_energy, free_speeds, _ = support.unreduced_barrier(g.costs, edges, deadline)
        low = support.ref_makespan(edges, g.costs) / deadline
        top = max(free_speeds.values())
        _, report = rc.solve_dag(g)
        assert _certified(report) <= free_energy * (1 + 1e-12)
        if top > low * (1 + 1e-3):
            s_max = (low + top) / 2
            energy, _, _ = support.unreduced_barrier(g.costs, edges, deadline, s_max)
            _, report = rc.solve_dag(g, s_max)
            assert _certified(report) <= energy * (1 + 1e-12)
        # Pinned: the critical path at the cap fills the deadline, so every
        # task at the cap is a feasible schedule.
        s_max = support.ref_makespan(edges, g.costs) / deadline
        _, report = rc.solve_dag(g, s_max)
        assert report.diagnostics["pinned"]
        assert _certified(report) <= sum(g.costs.values()) * s_max**2 * (1 + 1e-12)


def test_no_multipliers_bound_above_a_feasible_energy():
    # The weak-duality bound holds for any point with positive durations
    # and any multipliers >= 0, optimal or not.
    rng = random.Random(73)
    for _ in range(20):
        tasks, prec, alloc = support.random_instance(rng, rng.randint(2, 10), n_proc=rng.randint(1, 3))
        edges = support.all_edges(prec, alloc)
        deadline = support.pick_deadline(rng, tasks, edges, 2.0, (1.2, 2.5))
        costs = dict(tasks)
        capped = rng.random() < 0.5
        # The uncapped optimum also obeys a cap above its top speed.
        feasible, free_speeds, _ = support.unreduced_barrier(costs, edges, deadline)
        top = max(free_speeds.values())
        s_max = 1.5 * top if capped else math.inf
        ids = sorted(costs)
        index = {t: k for k, t in enumerate(ids)}
        n = len(ids)
        w = np.array([costs[t] for t in ids])
        lb = w / s_max if capped else np.zeros(n)
        A, b, box = cont._constraints(n, [(index[u], index[v]) for u, v in edges], lb,
                                      np.zeros(n), np.full(n, deadline))
        for _ in range(25):
            x = np.concatenate([w / top * np.array([rng.uniform(0.1, 5.0) for _ in ids]),
                                np.array([rng.uniform(0.0, deadline) for _ in ids])])
            lam = np.array([rng.expovariate(1.0) * 10 ** rng.uniform(-3, 3)
                            if rng.random() < 0.7 else 0.0 for _ in b])
            energy = float(np.sum(w**3 / x[:n] ** 2))
            grad = np.concatenate([-2.0 * w**3 / x[:n] ** 3, np.zeros(n)])
            lower = cont._lower_bound(energy, grad - A.T @ lam, float(lam @ (A @ x - b)), x, box)
            assert lower <= feasible * (1 + 1e-12)


def test_iteration_cap_is_a_convergence_failure(capsys, example4, example4_path, monkeypatch):
    monkeypatch.setattr(cont, "MAX_ITERATIONS", 1)
    with pytest.raises(rc.NoConvergenceError) as failure:
        rc.solve_dag(example4, 6.0)
    assert failure.value.iterations == 1
    code = main(["solve", example4_path, "--model", "continuous", "--smax", "6",
                 "--structure", "dag", "--out", os.devnull])
    assert code == 3
    err = capsys.readouterr().err
    assert "after 1 iterations" in err and "relative gap" in err


BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def dag_family(monkeypatch):
    """The benchmark's DAG generator, read from bench/gen.py as it is."""
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("gen").dag_family


def _bench_instances(dag_family, build, seed):
    # The dag-barrier workload's instances of one seed, after its warm-up.
    rng = random.Random(seed)
    dag_family(rng, 20, "warm")
    for n, count in ((40, 2), (80, 2), (120, 1)):
        for k in range(count):
            inst = dag_family(rng, n, f"dag{n}-{k}")
            edges = inst.edges()
            g = build(list(inst.costs.items()), inst.precedence, inst.allocation, inst.deadline)
            yield g, support.ref_makespan(edges, inst.costs) / inst.deadline


def _bench_cap(low, top):
    # The workload's cap: halfway to the uncapped top speed, as a user types it.
    return float(f"{(low + top) / 2:.6g}" if top > low * (1 + 1e-3) else f"{1.25 * top:.6g}")


def test_seed_18_first_instance_is_certified(build, dag_family, caplog, monkeypatch):
    # 30 of the 98 rows are near-active at this optimum.
    monkeypatch.setattr(logging.getLogger("reclaim"), "propagate", True)
    caplog.set_level(logging.WARNING, logger="reclaim")
    g, low = next(_bench_instances(dag_family, build, 18))
    _, report = rc.solve_dag(g)
    top = max(report.speeds.values())
    _certified(report)
    for s_max in (_bench_cap(low, top), top):
        _, capped = rc.solve_dag(g, s_max)
        _certified(capped)
    assert not caplog.records


def test_bench_shaped_solves_take_few_iterations(build, dag_family):
    for seed in range(11, 21):
        for g, low in _bench_instances(dag_family, build, seed):
            _, report = rc.solve_dag(g)
            _certified(report)
            assert report.diagnostics["iterations"] <= 40
            _, capped = rc.solve_dag(g, _bench_cap(low, max(report.speeds.values())))
            _certified(capped)
            assert capped.diagnostics["iterations"] <= 40


# ---------------------------------------------------------------------------
# power profiles


def test_power_profile_single_task(build):
    g = build([("A", 2.0)], [], [["A"]], 1.0)
    sched = rc.Schedule(profiles={"A": rc.ConstantSpeed(2.0)}, starts={"A": 0.0})
    profile = rc.power_profile(g, sched)
    assert profile.times == (0.0, 1.0)
    assert profile.levels == (8.0,)
    assert profile.integral() == pytest.approx(8.0, rel=1e-12)


def test_power_profile_overlapping_tasks(build):
    g = build([("A", 2.0), ("B", 2.0)], [], [["A"], ["B"]], 2.5)
    sched = rc.Schedule(
        profiles={"A": rc.ConstantSpeed(2.0), "B": rc.ConstantSpeed(1.0)},
        starts={"A": 0.0, "B": 0.5},
    )
    profile = rc.power_profile(g, sched)
    assert profile.times == (0.0, 0.5, 1.0, 2.5)
    assert profile.levels == (8.0, 9.0, 1.0)
    assert profile.integral() == pytest.approx(2.0 * 4.0 + 2.0 * 1.0, rel=1e-12)


def test_power_profile_coalesces_slivers(build):
    g = build([("A", 1.0), ("B", 1.0)], [], [["A"], ["B"]], 3.0)
    sched = rc.Schedule(
        profiles={"A": rc.ConstantSpeed(1.0), "B": rc.ConstantSpeed(1000.0)},
        starts={"A": 0.0, "B": 0.2},
    )
    raw = rc.power_profile(g, sched)
    merged = rc.power_profile(g, sched, min_interval=0.01)
    assert merged.integral() == pytest.approx(raw.integral(), rel=1e-12)
    widths = [b - a for a, b in zip(merged.times, merged.times[1:])]
    assert all(wd >= 0.01 * (1 - 1e-9) for wd in widths)
    assert len(merged.times) < len(raw.times)


def test_power_profile_needs_starts(build):
    g = build([("A", 1.0)], [], [["A"]], 1.0)
    with pytest.raises(ValueError):
        rc.power_profile(g, rc.Schedule(profiles={"A": rc.ConstantSpeed(1.0)}))


def test_constant_power_at_the_continuous_optimum(build):
    rng = random.Random(101)
    hits = 0
    while hits < 10:
        n = rng.randint(3, 8)
        tasks, prec, alloc = support.random_instance(rng, n)
        edges = support.all_edges(prec, alloc)
        deadline = support.pick_deadline(rng, tasks, edges, 2.0, (1.3, 2.5))
        g = build(tasks, prec, [q for _, q in alloc], deadline)
        _, free = rc.solve_dag(g, math.inf)
        s_max = 1.5 * max(free.speeds.values())
        schedule, report = rc.solve_dag(g, s_max)
        if any(s > 0.999 * s_max for s in report.speeds.values()):
            continue
        profile = rc.power_profile(g, schedule, min_interval=1e-6 * deadline)
        assert rc.check_constant_power(profile, rel_tol=1e-4)
        hits += 1


def test_constant_power_rejects_a_discrete_schedule(example4):
    sol = rc.solve_exact(example4, rc.DiscreteModel((2.0, 5.0, 6.0)))
    sched = rc.with_asap_starts(
        example4,
        rc.Schedule(profiles={t: rc.ConstantSpeed(s) for t, s in sol.speeds.items()}),
    )
    profile = rc.power_profile(example4, sched)
    assert not rc.check_constant_power(profile, rel_tol=1e-4)


def test_power_profile_validation():
    with pytest.raises(ValueError):
        cont.PowerProfile((0.0, 1.0), (1.0, 2.0))  # levels must be one shorter
    with pytest.raises(ValueError):
        cont.PowerProfile((1.0, 0.5), (1.0,))  # times must ascend
    p = cont.PowerProfile((0.0, 2.0), (3.0,))
    assert p.span() == 2.0
    assert p.integral() == 6.0
