"""Mode-hopping model: LP construction, solutions, and orderings."""

import json
import random

import pytest

import reclaim as rc
import support
from reclaim import continuous as cont
from reclaim.cli import main
from reclaim.graph import profile_duration
from reclaim.vdd import build_lp, format_lp


def test_model_validation():
    with pytest.raises(ValueError):
        rc.VddModel(())
    with pytest.raises(ValueError):
        rc.VddModel((2.0, 2.0))  # strictly ascending
    with pytest.raises(ValueError):
        rc.VddModel((2.0, 1.0))
    with pytest.raises(ValueError):
        rc.VddModel((0.0, 1.0))
    assert rc.VddModel((2.0, 5.0, 6.0)).modes == (2.0, 5.0, 6.0)


def test_lp_layout(example4):
    lp = build_lp(example4, rc.VddModel((2.0, 5.0, 6.0)))
    # one begin-time per task, then one alpha block of three modes per task
    assert len(lp.var_names) == 4 + 4 * 3
    assert lp.var_names[0] == "b[T1]"
    assert "alpha[T1,2]" in lp.var_names
    # deadline row per task, one row per edge, work row per task
    assert len(lp.row_names) == 4 + 3 + 4
    assert "prec[T1->T3]" in lp.row_names
    assert lp.lhs.shape == (11, 16)


def test_format_lp_is_readable(example4):
    text = format_lp(build_lp(example4, rc.VddModel((2.0, 5.0, 6.0))))
    assert text.startswith("min")
    assert "deadline[T4]" in text
    assert "x >= 0" in text


def test_worked_example(example4):
    schedule, report = rc.solve_vdd(example4, rc.VddModel((2.0, 5.0, 6.0)))
    assert report.energy == pytest.approx(144.0, rel=1e-6)
    assert report.feasible
    assert report.makespan == pytest.approx(1.5, rel=1e-9)
    assert schedule.starts is not None
    # every emitted slice uses an admissible mode, slowest first
    for tid, profile in schedule.profiles.items():
        speeds = [s for s, _ in profile.parts]
        assert all(s in (2.0, 5.0, 6.0) for s in speeds)
        assert speeds == sorted(speeds)


def test_average_speeds(example4):
    schedule, _ = rc.solve_vdd(example4, rc.VddModel((2.0, 5.0, 6.0)))
    avg = rc.average_speeds(schedule, example4)
    for tid, profile in schedule.profiles.items():
        duration = profile_duration(profile, example4.costs[tid])
        assert avg[tid] == pytest.approx(example4.costs[tid] / duration, rel=1e-12)
        assert 2.0 - 1e-9 <= avg[tid] <= 6.0 + 1e-9


def test_average_speed_of_constant_profile(example4):
    sched = rc.Schedule(profiles={tid: rc.ConstantSpeed(3.0) for tid in example4.costs})
    avg = rc.average_speeds(sched, example4)
    assert all(v == 3.0 for v in avg.values())


def test_zero_duration_profile_is_degenerate(build):
    g = build([("A", 1.0)], [], [["A"]], 1.0)
    sched = rc.Schedule(profiles={"A": rc.Segments(((2.0, 0.0),))})
    with pytest.raises(rc.DegenerateDurationError):
        rc.average_speeds(sched, g)


def test_infeasible_deadline(example4):
    # critical path at the top mode: (3 + 1 + 2) / 6 = 1.0
    squeezed = rc.build_execution_graph(
        example4.tasks, [("T1", "T3")], [["T1", "T2"], ["T3", "T4"]], 0.9
    )
    with pytest.raises(rc.InfeasibleError):
        rc.solve_vdd(squeezed, rc.VddModel((2.0, 5.0, 6.0)))


def test_single_mode_collapses_to_constant(build):
    g = build([("A", 2.0), ("B", 1.0)], [("A", "B")], [["A", "B"]], 3.0)
    schedule, report = rc.solve_vdd(g, rc.VddModel((1.0,)))
    assert report.energy == pytest.approx(3.0, rel=1e-9)  # (2+1) * 1^2
    for profile in schedule.profiles.values():
        assert len(profile.parts) == 1
        assert profile.parts[0][0] == 1.0


def test_energy_identity_and_orderings():
    rng = random.Random(5)
    done = 0
    while done < 30:
        n = rng.randint(2, 6)
        tasks, prec, alloc = support.random_instance(rng, n)
        edges = support.all_edges(prec, alloc)
        k = rng.randint(2, 4)
        modes = sorted({round(rng.uniform(0.8, 8.0), 3) for _ in range(k)})
        if len(modes) < 2:
            continue
        deadline = support.pick_deadline(rng, tasks, edges, modes[-1], (1.05, 2.5))
        g = rc.build_execution_graph(
            [rc.Task(i, w) for i, w in tasks], prec, [q for _, q in alloc], deadline
        )
        schedule, report = rc.solve_vdd(g, rc.VddModel(tuple(modes)))
        assert report.feasible

        by_hand = sum(
            s**3 * d for profile in schedule.profiles.values() for s, d in profile.parts
        )
        assert report.energy == pytest.approx(by_hand, rel=1e-12)

        # hopping can only help relative to one-mode-per-task, and cannot
        # beat the unconstrained continuous optimum
        _, cont = rc.solve_dag(g, modes[-1])
        assert cont.energy <= report.energy * (1 + 1e-8)
        try:
            exact = rc.solve_exact(g, rc.DiscreteModel(tuple(modes)))
        except rc.InfeasibleError:
            exact = None
        if exact is not None:
            assert report.energy <= exact.energy * (1 + 1e-8)

        # starts respect the precedence the LP encoded
        for u, v in g.edges:
            end_u = schedule.starts[u] + profile_duration(
                schedule.profiles[u], g.costs[u]
            )
            assert schedule.starts[v] >= end_u - 1e-7 * max(1.0, end_u)
        done += 1


def test_reduced_lp_matches_the_whole_graph_lp(build):
    rng = random.Random(71)
    for trial in range(200):
        n = rng.randint(2, 12)
        tasks, prec, alloc = support.random_instance(
            rng, n, n_proc=rng.randint(1, 4), p_edge=rng.choice((0.1, 0.25, 0.4))
        )
        if trial % 2:
            # Repeat some processor-order pairs as precedence edges.
            prec += [pair for _, q in alloc for pair in zip(q, q[1:]) if rng.random() < 0.5]
        modes = sorted({round(rng.uniform(0.5, 6.0), 3) for _ in range(rng.randint(1, 5))})
        edges = support.all_edges(prec, alloc)
        deadline = support.pick_deadline(rng, tasks, edges, modes[-1], (1.02, 3.0))
        g = build(tasks, prec, [q for _, q in alloc], deadline)
        model = rc.VddModel(tuple(modes))
        energy, _, _ = support.unreduced_vdd(g, model)
        schedule, report = rc.solve_vdd(g, model)
        assert report.energy == pytest.approx(energy, rel=1e-9)
        assert report.feasible
        groups, _ = cont.reduce_dag(g)
        assert report.diagnostics["reduced_tasks"] == len(groups)
        assert report.diagnostics["variables"] == len(groups) * (len(modes) + 1)
        for group in groups:
            used = [s for s, _ in schedule.profiles[group[0]].parts]
            for tid in group:
                assert [s for s, _ in schedule.profiles[tid].parts] == used
        durations = {tid: profile_duration(p, g.costs[tid]) for tid, p in schedule.profiles.items()}
        for u, v in g.edges:
            end_u = schedule.starts[u] + durations[u]
            assert schedule.starts[v] >= end_u - 1e-9 * max(1.0, end_u)
        assert all(
            schedule.starts[tid] + durations[tid] <= deadline * (1 + 1e-9) for tid in g.costs
        )


def test_dump_lp_is_the_whole_program(capsys, example4, example4_path, tmp_path):
    # T3 -> T4 contracts, so the solved LP has three tasks; the dump keeps four.
    # (capsys: the CLI binds its log handler to the stderr of its first call.)
    dump = tmp_path / "lp.txt"
    out = tmp_path / "report.json"
    code = main(["solve", example4_path, "--model", "vdd",
                 "--modes", "2,5,6", "--dump-lp", str(dump), "--out", str(out)])
    assert code == 0
    model = rc.VddModel((2.0, 5.0, 6.0))
    assert dump.read_text() == format_lp(build_lp(example4, model))
    assert "alpha[T4,6]" in dump.read_text()
    report = json.loads(out.read_text())
    assert report["diagnostics"]["reduced_tasks"] == 3
    assert report["diagnostics"]["variables"] == 12
    assert report["energy"] == pytest.approx(144.0, rel=1e-6)
