"""Core model layer: construction, validation, timing, energy, JSON."""

import json
import math
import random

import pytest

import reclaim as rc
import support
from reclaim.graph import constant_schedule, retime


def test_task_rejects_bad_inputs():
    with pytest.raises(ValueError):
        rc.Task("", 1.0)
    with pytest.raises(ValueError):
        rc.Task("a", 0.0)
    with pytest.raises(ValueError):
        rc.Task("a", -2.0)


def test_profile_validation():
    with pytest.raises(ValueError):
        rc.ConstantSpeed(0.0)
    with pytest.raises(ValueError):
        rc.Segments(())
    with pytest.raises(ValueError):
        rc.Segments(((2.0, -0.1),))
    with pytest.raises(ValueError):
        rc.Segments(((0.0, 1.0),))


def test_profile_arithmetic():
    from reclaim.graph import profile_duration, profile_energy, profile_work

    c = rc.ConstantSpeed(4.0)
    assert profile_duration(c, 2.0) == 0.5
    assert profile_work(c, 2.0) == 2.0
    assert profile_energy(c, 2.0) == 2.0 * 16.0  # w * s^2

    seg = rc.Segments(((2.0, 0.5), (4.0, 0.25)))
    assert profile_duration(seg, 99.0) == 0.75  # cost is irrelevant here
    assert profile_work(seg, 99.0) == 2.0 * 0.5 + 4.0 * 0.25
    assert profile_energy(seg, 99.0) == 8.0 * 0.5 + 64.0 * 0.25  # sum s^3 d


def test_build_rejects_malformed_instances(build):
    tasks = [("A", 1.0), ("B", 2.0)]
    with pytest.raises(ValueError):
        build(tasks, [], [["A", "B"]], 0.0)  # deadline must be positive
    with pytest.raises(ValueError):
        build([("A", 1.0), ("A", 2.0)], [], [["A"]], 1.0)
    with pytest.raises(ValueError):
        build(tasks, [("A", "Z")], [["A", "B"]], 1.0)
    with pytest.raises(rc.CycleError):
        build(tasks, [("A", "A")], [["A", "B"]], 1.0)
    with pytest.raises(rc.CoverageError):
        build(tasks, [], [["A"]], 1.0)  # B unallocated
    with pytest.raises(rc.CoverageError):
        build(tasks, [], [["A", "B", "A"]], 1.0)
    with pytest.raises(rc.CoverageError):
        build(tasks, [], [["A", "B", "Z"]], 1.0)


def test_serialization_edges_join_the_precedence():
    g = rc.build_execution_graph(
        [rc.Task("T1", 3.0), rc.Task("T2", 2.0), rc.Task("T3", 1.0), rc.Task("T4", 2.0)],
        [("T1", "T3")],
        [["T1", "T2"], ["T3", "T4"]],
        1.5,
    )
    assert g.edges == frozenset({("T1", "T2"), ("T1", "T3"), ("T3", "T4")})


def test_allocation_cannot_contradict_precedence(build):
    # T2 before T1 on a shared processor closes a cycle with T1 -> T2.
    with pytest.raises(rc.CycleError):
        build([("T1", 1.0), ("T2", 1.0)], [("T1", "T2")], [["T2", "T1"]], 2.0)


def test_topological_order_is_deterministic(build):
    g = build(
        [("b", 1.0), ("a", 1.0), ("c", 1.0)],
        [],
        [["a"], ["b"], ["c"]],
        1.0,
    )
    order = rc.topological_order(g)
    assert order == ["a", "b", "c"]  # id tie-break
    order.reverse()  # the graph keeps its own copy
    assert rc.topological_order(g) == ["a", "b", "c"]

    cyclic = rc.ExecutionGraph(
        tasks=(rc.Task("x", 1.0), rc.Task("y", 1.0)),
        edges=frozenset({("x", "y"), ("y", "x")}),
        deadline=1.0,
    )
    for _ in range(2):  # a failed order is not cached
        with pytest.raises(rc.CycleError):
            rc.topological_order(cyclic)


def test_asap_times_match_reference_on_random_dags(build):
    rng = random.Random(11)
    for _ in range(50):
        n = rng.randint(2, 9)
        tasks, prec, alloc = support.random_instance(rng, n)
        g = build(tasks, prec, [q for _, q in alloc], 10.0)
        durations = {i: w / rng.uniform(1.0, 4.0) for i, w in tasks}
        starts, completion = rc.asap_times(g, durations)
        ref = support.ref_completion_times(g.edges, durations)
        for tid in ref:
            assert completion[tid] == pytest.approx(ref[tid], rel=1e-12)
            assert starts[tid] == pytest.approx(ref[tid] - durations[tid], rel=1e-9, abs=1e-12)


def test_evaluate_schedule_energy_identity(build):
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randint(2, 8)
        tasks, prec, alloc = support.random_instance(rng, n)
        g = build(tasks, prec, [q for _, q in alloc], 100.0)
        speeds = {i: rng.uniform(0.5, 5.0) for i, _ in tasks}
        sched = rc.Schedule(profiles={i: rc.ConstantSpeed(s) for i, s in speeds.items()})
        report = rc.evaluate_schedule(g, sched)
        costs = dict(tasks)
        assert report.energy == pytest.approx(support.ref_energy(costs, speeds), rel=1e-12)
        assert report.makespan == pytest.approx(
            support.ref_makespan(g.edges, {i: costs[i] / speeds[i] for i in costs}),
            rel=1e-12,
        )


def test_constant_profiles_price_as_one_slice_segments(build):
    # retime prices ConstantSpeed inline; a one-slice Segments of the same
    # speed goes through profile_work, profile_duration and profile_energy.
    rng = random.Random(29)
    for _ in range(40):
        n = rng.randint(2, 9)
        tasks, prec, alloc = support.random_instance(rng, n)
        g = build(tasks, prec, [q for _, q in alloc], 10.0)
        speeds = {i: rng.uniform(0.5, 5.0) for i, _ in tasks}
        constant = {i: rc.ConstantSpeed(s) for i, s in speeds.items()}
        sliced = {i: rc.Segments(((s, g.costs[i] / s),)) for i, s in speeds.items()}
        starts_c, done_c, report_c = retime(g, constant)
        starts_s, done_s, report_s = retime(g, sliced)
        assert report_c.energy == pytest.approx(report_s.energy, rel=1e-12)
        assert report_c.makespan == pytest.approx(report_s.makespan, rel=1e-12)
        assert report_c.feasible == report_s.feasible
        for tid in g.costs:
            assert report_c.speeds[tid] == pytest.approx(report_s.speeds[tid], rel=1e-12)
            assert done_c[tid] == pytest.approx(done_s[tid], rel=1e-12)
            assert starts_c[tid] == pytest.approx(starts_s[tid], rel=1e-12)


def test_constant_schedule_reports_what_evaluate_schedule_does(build):
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randint(2, 9)
        tasks, prec, alloc = support.random_instance(rng, n)
        g = build(tasks, prec, [q for _, q in alloc], 10.0)
        speeds = {i: rng.uniform(0.5, 5.0) for i, _ in tasks}
        schedule, report = constant_schedule(g, speeds, {"tag": 1})
        again = rc.evaluate_schedule(g, schedule)
        assert report.diagnostics == {"tag": 1}
        assert (report.energy, report.makespan, report.feasible, report.speeds) == (
            again.energy, again.makespan, again.feasible, again.speeds
        )
        assert schedule.starts == retime(g, schedule.profiles)[0]


def test_evaluate_schedule_feasibility_verdict(build):
    g = build([("A", 2.0), ("B", 2.0)], [("A", "B")], [["A", "B"]], 2.0)
    ok = rc.Schedule(profiles={"A": rc.ConstantSpeed(2.0), "B": rc.ConstantSpeed(2.0)})
    slow = rc.Schedule(profiles={"A": rc.ConstantSpeed(1.0), "B": rc.ConstantSpeed(2.0)})
    assert rc.evaluate_schedule(g, ok).feasible
    assert not rc.evaluate_schedule(g, slow).feasible


def test_work_deficit_is_an_error(build):
    g = build([("A", 3.0)], [], [["A"]], 10.0)
    short = rc.Schedule(profiles={"A": rc.Segments(((2.0, 0.1),))})  # 0.2 of 3.0
    with pytest.raises(rc.WorkDeficitError):
        rc.evaluate_schedule(g, short)


def test_segments_may_overshoot_the_work(build):
    # Overshoot is tolerated (the machine idles); deficit is not.
    g = build([("A", 1.0)], [], [["A"]], 10.0)
    long = rc.Schedule(profiles={"A": rc.Segments(((2.0, 1.0),))})  # 2.0 of 1.0
    report = rc.evaluate_schedule(g, long)
    assert report.feasible


def test_instance_json_round_trip(example4, example4_path):
    g = rc.load_instance(example4_path)
    assert g.edges == example4.edges
    assert g.deadline == example4.deadline
    assert g.costs == example4.costs


def test_instance_from_dict_validation():
    base = {
        "tasks": [{"id": "A", "cost": 1.0}],
        "precedence": [],
        "allocation": [{"processor": 0, "order": ["A"]}],
        "deadline": 1.0,
    }
    for key in ("tasks", "precedence", "allocation", "deadline"):
        broken = {k: v for k, v in base.items() if k != key}
        with pytest.raises(ValueError):
            rc.instance_from_dict(broken)
    dup = dict(base)
    dup["allocation"] = [
        {"processor": 0, "order": ["A"]},
        {"processor": 0, "order": []},
    ]
    with pytest.raises(ValueError):
        rc.instance_from_dict(dup)


def test_schedule_json_round_trip():
    sched = rc.Schedule(
        profiles={
            "A": rc.ConstantSpeed(2.0),
            "B": rc.Segments(((2.0, 0.5), (5.0, 0.125))),
        },
        starts={"A": 0.0, "B": 1.0},
    )
    back = rc.schedule_from_obj(rc.schedule_to_obj(sched))
    assert back.profiles == sched.profiles
    assert back.starts == sched.starts

    bare = rc.Schedule(profiles={"A": rc.ConstantSpeed(2.0)})
    back = rc.schedule_from_obj(rc.schedule_to_obj(bare))
    assert back.starts is None
    assert back.profiles == bare.profiles

    # the wrapper form {"schedule": [...]} is accepted too
    wrapped = rc.schedule_from_obj({"schedule": rc.schedule_to_obj(sched)})
    assert wrapped.profiles == sched.profiles

    # a task listed twice is an error, not a silent overwrite
    with pytest.raises(ValueError, match="listed twice"):
        rc.schedule_from_obj(rc.schedule_to_obj(sched) * 2)


def test_schedule_to_obj_is_sorted_and_json_safe():
    sched = rc.Schedule(profiles={"b": rc.ConstantSpeed(1.0), "a": rc.ConstantSpeed(2.0)})
    obj = rc.schedule_to_obj(sched)
    assert [row["id"] for row in obj] == ["a", "b"]
    json.dumps(obj)  # must not raise


def test_with_asap_starts(example4):
    profiles = {tid: rc.ConstantSpeed(4.0) for tid in example4.costs}
    starts, _, _ = retime(example4, profiles)
    assert starts["T1"] == 0.0
    assert starts["T2"] == pytest.approx(0.75)  # after T1 on P1
    assert starts["T3"] == pytest.approx(0.75)
    assert starts["T4"] == pytest.approx(1.0)


def test_infinity_is_rejected_in_instances():
    with pytest.raises(ValueError):
        rc.instance_from_dict(
            {
                "tasks": [{"id": "A", "cost": math.inf}],
                "precedence": [],
                "allocation": [{"processor": 0, "order": ["A"]}],
                "deadline": 1.0,
            }
        )
