"""End-to-end runs of the command-line interface (in-process)."""

import io
import json
import os
import pathlib
import random
import sys

import pytest

import reclaim as rc
import support
from reclaim.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def write_instance(tmp_path, obj, name="inst.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


DIAMOND = {
    "tasks": [
        {"id": "s", "cost": 1.0},
        {"id": "a", "cost": 2.0},
        {"id": "b", "cost": 2.0},
        {"id": "t", "cost": 1.0},
    ],
    "precedence": [["s", "a"], ["s", "b"], ["a", "t"], ["b", "t"]],
    "allocation": [
        {"processor": 0, "order": ["s", "a", "t"]},
        {"processor": 1, "order": ["b"]},
    ],
    "deadline": 4.0,
}


def test_solve_continuous(capsys, example4_path):
    payload = run_json(
        capsys, "solve", example4_path, "--model", "continuous", "--smax", "6"
    )
    assert payload["energy"] == pytest.approx(109.60785050042182, abs=1e-3)
    assert payload["structure"] == "tree"
    assert payload["feasible"] is True
    assert {row["id"] for row in payload["schedule"]} == {"T1", "T2", "T3", "T4"}


def test_solve_discrete_and_incremental(capsys, example4_path):
    payload = run_json(
        capsys, "solve", example4_path, "--model", "discrete", "--modes", "2,5,6"
    )
    assert payload["energy"] == 170.0
    assert payload["speeds"] == {"T1": 6.0, "T2": 2.0, "T3": 2.0, "T4": 5.0}

    payload = run_json(
        capsys,
        "solve", example4_path, "--model", "incremental",
        "--smin", "2", "--smax", "6", "--delta", "2",
    )
    assert payload["energy"] == 128.0
    assert payload["diagnostics"] == {
        "nodes": 14, "pruned_deadline": 5, "pruned_energy": 4, "proven_optimal": True,
    }


def test_solve_vdd_with_lp_dump(capsys, example4_path, tmp_path):
    dump = tmp_path / "lp.txt"
    payload = run_json(
        capsys,
        "solve", example4_path, "--model", "vdd", "--modes", "2,5,6",
        "--dump-lp", str(dump),
    )
    assert payload["energy"] == pytest.approx(144.0, rel=1e-6)
    text = dump.read_text()
    assert text.startswith("min")
    assert "work[T1]" in text


def test_solve_report_round_trips_through_validate(capsys, example4_path, tmp_path):
    out = tmp_path / "report.json"
    code, _, err = run(
        capsys,
        "solve", example4_path, "--model", "continuous", "--smax", "6",
        "--out", str(out),
    )
    assert code == 0, err
    solved = json.loads(out.read_text())
    payload = run_json(capsys, "validate", example4_path, str(out))
    assert payload["feasible"] is True
    assert payload["energy"] == solved["energy"]  # same bits after the round trip
    assert payload["violations"] == []


def test_validate_flags_deadline_misses(capsys, example4_path, tmp_path):
    sched = [
        {"id": "T1", "profile": {"constant": 6.0}},
        {"id": "T2", "profile": {"constant": 2.0}},
        {"id": "T3", "profile": {"constant": 2.0}},
        {"id": "T4", "profile": {"constant": 5.0}},
    ]
    path = tmp_path / "sched.json"
    path.write_text(json.dumps(sched))
    payload = run_json(capsys, "validate", example4_path, str(path))
    assert payload["energy"] == 170.0

    # the same speeds cannot meet a 1.0 deadline; T4 is the violator
    tight = dict(json.loads(pathlib.Path(example4_path).read_text()), deadline=1.0)
    tight_path = write_instance(tmp_path, tight, "tight.json")
    code, out, _ = run(capsys, "validate", tight_path, str(path))
    assert code == 2
    report = json.loads(out)
    assert report["feasible"] is False
    assert "T4" in report["violations"]


def test_validate_surfaces_work_deficit(capsys, example4_path, tmp_path):
    sched = [
        {"id": "T1", "profile": {"segments": [[6.0, 0.01]]}},
        {"id": "T2", "profile": {"constant": 2.0}},
        {"id": "T3", "profile": {"constant": 2.0}},
        {"id": "T4", "profile": {"constant": 5.0}},
    ]
    path = tmp_path / "sched.json"
    path.write_text(json.dumps(sched))
    code, _, err = run(capsys, "validate", example4_path, str(path))
    assert code == 2
    assert "work" in err.lower()


# Speeds that meet example4's deadline, with the start times they get.
EXAMPLE4_SCHEDULE = [
    {"id": "T1", "profile": {"constant": 6.0}, "start": 0.0},
    {"id": "T2", "profile": {"constant": 2.0}, "start": 0.5},
    {"id": "T3", "profile": {"constant": 2.0}, "start": 0.5},
    {"id": "T4", "profile": {"constant": 5.0}, "start": 1.0},
]
MALFORMED = {
    "unknown": (EXAMPLE4_SCHEDULE + [{"id": "T9", "profile": {"constant": 1.0}}], "unknown ['T9']"),
    "missing": (EXAMPLE4_SCHEDULE[:3], "missing ['T4']"),
    "missing-no-starts": (
        [{k: v for k, v in e.items() if k != "start"} for e in EXAMPLE4_SCHEDULE[:3]],
        "missing ['T4']",
    ),
    # The first T1 misses the deadline; the second would meet it.
    "twice": ([{"id": "T1", "profile": {"constant": 0.1}}] + EXAMPLE4_SCHEDULE, "'T1' listed twice"),
}


@pytest.mark.parametrize("command", ["validate", "power-profile"])
@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_replays_reject_a_schedule_of_other_tasks(capsys, example4_path, tmp_path, command, case):
    sched, message = MALFORMED[case]
    path = tmp_path / "sched.json"
    path.write_text(json.dumps(sched))
    code, out, err = run(capsys, command, example4_path, str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and message in err


def test_replays_accept_the_well_formed_schedule(capsys, example4_path, tmp_path):
    path = tmp_path / "sched.json"
    path.write_text(json.dumps(EXAMPLE4_SCHEDULE))
    assert run_json(capsys, "validate", example4_path, str(path))["energy"] == 170.0
    code, _, err = run(capsys, "power-profile", example4_path, str(path))
    assert code == 0, err


def _without_starts(sched):
    return [{k: v for k, v in entry.items() if k != "start"} for entry in sched]


# T1 runs 0.06 of its 3 work units, or none at all.
DEFICIT = [{"id": "T1", "profile": {"segments": [[6.0, 0.01]]}, "start": 0.0}] + EXAMPLE4_SCHEDULE[1:]
ZERO_DURATION = [{"id": "T1", "profile": {"segments": [[6.0, 0.0]]}, "start": 0.0}] + EXAMPLE4_SCHEDULE[1:]
PARITY = {
    **{case: sched for case, (sched, _) in MALFORMED.items()},
    "deficit": DEFICIT,
    "deficit-no-starts": _without_starts(DEFICIT),
    "zero-duration": ZERO_DURATION,
    "zero-duration-no-starts": _without_starts(ZERO_DURATION),
}


@pytest.mark.parametrize("case", sorted(PARITY))
def test_replays_reject_alike(capsys, example4_path, tmp_path, case):
    path = tmp_path / "sched.json"
    path.write_text(json.dumps(PARITY[case]))
    results = [run(capsys, command, example4_path, str(path))
               for command in ("validate", "power-profile")]
    (code, out, err), (profile_code, profile_out, profile_err) = results
    assert code in (1, 2)
    assert out == profile_out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert (profile_code, profile_err) == (code, err)


def test_compare_table(capsys, example4_path):
    payload = run_json(
        capsys,
        "compare", example4_path,
        "--smax", "6", "--modes", "2,5,6", "--smin", "2", "--delta", "2",
    )
    rows = payload["rows"]
    assert [r["model"] for r in rows] == ["continuous", "incremental", "vdd", "discrete"]
    energies = [r["energy"] for r in rows]
    assert energies == sorted(energies)
    assert energies[0] == pytest.approx(109.60785050042182, rel=1e-6)
    assert payload["ordering_ok"] is True

    code, out, err = run(
        capsys,
        "compare", example4_path,
        "--smax", "6", "--modes", "2,5,6", "--smin", "2", "--delta", "2",
        "--pretty",
    )
    assert code == 0
    assert "model" in out and "discrete" in out


def test_compare_skips_the_continuous_check_below_the_top_mode(capsys, tmp_path):
    # With the cap under the top mode, mode hopping may run faster than
    # the continuous model allows, so vdd (400) beats continuous (406.4)
    # and that is no ordering violation.
    fork = {
        "tasks": [{"id": t, "cost": c} for t, c in
                  [("R", 4.0), ("A", 6.0), ("B", 6.0), ("C", 6.0)]],
        "precedence": [["R", "A"], ["R", "B"], ["R", "C"]],
        "allocation": [
            {"processor": 0, "order": ["R", "A"]},
            {"processor": 1, "order": ["B"]},
            {"processor": 2, "order": ["C"]},
        ],
        "deadline": 2.3,
    }
    path = write_instance(tmp_path, fork)
    payload = run_json(capsys, "compare", path, "--smax", "4.5", "--modes", "2,4,6")
    energies = {r["model"]: r["energy"] for r in payload["rows"]}
    assert energies["vdd"] < energies["continuous"]
    assert payload["ordering_ok"] is True
    assert len(payload["ordering_skipped"]) == 1
    assert "4.5" in payload["ordering_skipped"][0]

    # at the top mode the models nest again and the check runs
    payload = run_json(capsys, "compare", path, "--smax", "6", "--modes", "2,4,6")
    assert payload["ordering_ok"] is True
    assert payload["ordering_skipped"] == []


N_SHAPED = {
    # a and b are both sources, c joins them and b splits: no closed form.
    "tasks": [{"id": t, "cost": c} for t, c in [("a", 2.0), ("b", 1.0), ("c", 3.0), ("d", 1.5)]],
    "precedence": [["a", "c"], ["b", "c"], ["b", "d"]],
    "allocation": [{"processor": k, "order": [t]} for k, t in enumerate("abcd")],
    "deadline": 3.0,
}


@pytest.mark.parametrize("fixture, shape", [
    ("example4", "tree"), ("diamond", "spg"), ("n-shaped", "dag"),
])
@pytest.mark.parametrize("cap", [[], ["--smax", "4"]])
def test_compare_prices_continuous_as_solve_does(capsys, tmp_path, example4_path, fixture,
                                                 shape, cap):
    instances = {"diamond": DIAMOND, "n-shaped": N_SHAPED}
    path = example4_path if fixture == "example4" else write_instance(tmp_path, instances[fixture])
    solved = run_json(capsys, "solve", path, "--model", "continuous", *cap)
    assert solved["structure"] == shape
    compared = run_json(capsys, "compare", path, *cap)
    row = next(r for r in compared["rows"] if r["model"] == "continuous")
    assert row["energy"] == solved["energy"]


def _solve_instance(costs, edges, runs=None, deadline=4.0):
    # Each task on its own processor unless run lists are given.
    runs = runs or [[t] for t in costs]
    return {
        "tasks": [{"id": t, "cost": c} for t, c in costs.items()],
        "precedence": [list(e) for e in edges],
        "allocation": [{"processor": k, "order": r} for k, r in enumerate(runs)],
        "deadline": deadline,
    }


NESTING_INSTANCES = {
    "one-task": ({"A": 2.0}, []),
    "chain-2": ({"A": 1.0, "B": 2.0}, [], [["A", "B"]]),
    "chain-3": ({"A": 1.0, "B": 2.0, "C": 1.5}, [], [["A", "B", "C"]]),
    "out-star": ({"c": 2.0, "x": 1.0, "y": 1.5, "z": 1.0}, [("c", "x"), ("c", "y"), ("c", "z")]),
    "in-star": ({"c": 2.0, "x": 1.0, "y": 1.5, "z": 1.0}, [("x", "c"), ("y", "c"), ("z", "c")]),
    "out-tree": ({"r": 1.0, "a": 2.0, "b": 1.0, "c": 1.5, "d": 0.5},
                 [("r", "a"), ("r", "b"), ("a", "c"), ("a", "d")]),
    "in-tree": ({"r": 1.0, "a": 2.0, "b": 1.0, "c": 1.5, "d": 0.5},
                [("a", "r"), ("b", "r"), ("c", "a"), ("d", "a")]),
    "independent": ({"A": 1.0, "B": 2.0, "C": 1.5}, []),
    "two-component": ({"a": 1.0, "b": 2.0, "c": 1.5, "d": 1.0}, [], [["a", "b"], ["c", "d"]]),
    "spg": ({"s": 1.0, "a": 2.0, "b": 2.0, "t": 1.0},
            [("s", "a"), ("s", "b"), ("a", "t"), ("b", "t")]),
    "dag": ({"a": 2.0, "b": 1.0, "c": 3.0, "d": 1.5}, [("a", "c"), ("b", "c"), ("b", "d")]),
    # K2,2 between one source and one sink
    "k22": ({"s": 1.0, "a": 2.0, "b": 1.5, "c": 1.0, "d": 2.5, "t": 1.0},
            [("s", "a"), ("s", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"),
             ("c", "t"), ("d", "t")]),
    # the chain s -> a -> b -> t with the crossing edges a -> t and s -> b
    "crossed-chain": ({"s": 1.0, "a": 2.0, "b": 1.5, "t": 1.0},
                      [("s", "a"), ("a", "b"), ("b", "t"), ("a", "t"), ("s", "b")]),
    # r -> a -> c plus the edge r -> c
    "triangle": ({"r": 1.0, "a": 2.0, "c": 1.5}, [("r", "a"), ("a", "c"), ("r", "c")]),
    "two-out-trees": ({"r": 1.0, "a": 2.0, "b": 1.5, "q": 1.0, "c": 2.5, "d": 0.5},
                      [("r", "a"), ("r", "b"), ("q", "c"), ("q", "d")]),
    # the N a -> c, b -> c, b -> d between one source and one sink
    "two-terminal-n": ({"s": 1.0, "a": 2.0, "b": 1.5, "c": 1.0, "d": 2.5, "t": 1.0},
                       [("s", "a"), ("s", "b"), ("a", "c"), ("b", "c"), ("b", "d"),
                        ("c", "t"), ("d", "t")]),
    # K2,2 with two sources and two sinks
    "k22-two-sources": ({"a": 2.0, "b": 1.5, "c": 1.0, "d": 2.5},
                        [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")]),
}

# `solve --model continuous --structure X`, uncapped, for X in
# (none, independent, chain, fork, tree, spg, dag): the reported
# structure, or "exit 1" for an instance that lacks the shape.
NESTING = {
    "one-task": ("independent", "independent", "chain", "exit 1", "tree", "exit 1", "dag"),
    "chain-2": ("chain", "exit 1", "chain", "fork", "tree", "spg", "dag"),
    "chain-3": ("chain", "exit 1", "chain", "exit 1", "tree", "spg", "dag"),
    "out-star": ("fork", "exit 1", "exit 1", "fork", "tree", "exit 1", "dag"),
    "in-star": ("fork", "exit 1", "exit 1", "fork", "tree", "exit 1", "dag"),
    "out-tree": ("tree", "exit 1", "exit 1", "exit 1", "tree", "exit 1", "dag"),
    "in-tree": ("tree", "exit 1", "exit 1", "exit 1", "tree", "exit 1", "dag"),
    "independent": ("independent", "independent", "exit 1", "exit 1", "exit 1", "exit 1", "dag"),
    "two-component": ("dag", "exit 1", "exit 1", "exit 1", "exit 1", "exit 1", "dag"),
    "spg": ("spg", "exit 1", "exit 1", "exit 1", "exit 1", "spg", "dag"),
    "dag": ("dag", "exit 1", "exit 1", "exit 1", "exit 1", "exit 1", "dag"),
    "k22": ("spg", "exit 1", "exit 1", "exit 1", "exit 1", "spg", "dag"),
    "crossed-chain": ("spg", "exit 1", "exit 1", "exit 1", "exit 1", "spg", "dag"),
    "triangle": ("spg", "exit 1", "exit 1", "exit 1", "exit 1", "spg", "dag"),
    "two-out-trees": ("dag", "exit 1", "exit 1", "exit 1", "exit 1", "exit 1", "dag"),
    "two-terminal-n": ("dag", "exit 1", "exit 1", "exit 1", "exit 1", "exit 1", "dag"),
    "k22-two-sources": ("dag", "exit 1", "exit 1", "exit 1", "exit 1", "exit 1", "dag"),
}


@pytest.mark.parametrize("structure", [None, *rc.STRUCTURES])
@pytest.mark.parametrize("name", list(NESTING))
def test_structure_override_nesting(capsys, tmp_path, name, structure):
    path = write_instance(tmp_path, _solve_instance(*NESTING_INSTANCES[name]))
    override = [] if structure is None else ["--structure", structure]
    code, out, err = run(capsys, "solve", path, "--model", "continuous", *override)
    expected = NESTING[name][[None, *rc.STRUCTURES].index(structure)]
    if expected == "exit 1":
        assert code == 1
        assert "not" in err
    else:
        assert code == 0, err
        assert json.loads(out)["structure"] == expected


@pytest.mark.parametrize("name", ["out-tree", "in-tree", "chain-3", "out-star", "in-star",
                                  "independent"])
def test_forests_take_the_one_forest_solver(capsys, tmp_path, monkeypatch, name):
    def retired(*args, **kwargs):
        raise AssertionError("the CLI left the forest solver")

    for target in ("reclaim.structure.as_tree", "reclaim.continuous.solve_tree",
                   "reclaim.continuous.solve_chain", "reclaim.continuous.solve_independent",
                   "reclaim.continuous.solve_fork_join", "reclaim.continuous.solve_dag"):
        monkeypatch.setattr(target, retired)
    path = write_instance(tmp_path, _solve_instance(*NESTING_INSTANCES[name]))
    payload = run_json(capsys, "solve", path, "--model", "continuous")
    assert payload["structure"] == NESTING[name][0]


def test_compare_uses_the_tree_closed_form(capsys, tmp_path, monkeypatch):
    rng = random.Random(200)
    costs, edges = support.tree_edges_and_costs(support.random_tree(rng, 200))
    inst = {
        "tasks": [{"id": t, "cost": c} for t, c in costs.items()],
        "precedence": [list(e) for e in edges],
        "allocation": [{"processor": k, "order": [t]} for k, t in enumerate(costs)],
        "deadline": 50.0,
    }
    path = write_instance(tmp_path, inst)

    def no_barrier(*args, **kwargs):
        raise AssertionError("compare ran the barrier on a tree")

    monkeypatch.setattr("reclaim.continuous.solve_dag", no_barrier)
    payload = run_json(capsys, "compare", path)
    row = next(r for r in payload["rows"] if r["model"] == "continuous")
    assert row["status"] == "ok"


def test_compare_marks_skipped_rows(capsys, example4_path):
    payload = run_json(capsys, "compare", example4_path, "--smax", "6")
    by_model = {r["model"]: r for r in payload["rows"]}
    assert by_model["continuous"]["status"] == "ok"
    assert by_model["vdd"]["status"].startswith("skipped")
    assert by_model["incremental"]["status"].startswith("skipped")


def test_compare_single_task_all_rows_equal(capsys, tmp_path):
    inst = {
        "tasks": [{"id": "A", "cost": 2.0}],
        "precedence": [],
        "allocation": [{"processor": 0, "order": ["A"]}],
        "deadline": 1.0,
    }
    path = write_instance(tmp_path, inst)
    payload = run_json(
        capsys,
        "compare", path,
        "--smax", "2", "--modes", "2", "--smin", "2", "--delta", "1",
    )
    energies = {r["model"]: r["energy"] for r in payload["rows"]}
    assert all(e == pytest.approx(8.0, rel=1e-9) for e in energies.values())


def test_compare_budget_exceeded_is_an_incumbent_row(capsys, example4_path):
    payload = run_json(
        capsys,
        "compare", example4_path,
        "--smax", "6", "--modes", "2,5,6", "--node-budget", "3",
    )
    by_model = {r["model"]: r for r in payload["rows"]}
    assert by_model["discrete"]["status"] == "incumbent"
    assert by_model["continuous"]["status"] == "ok"


def test_approx_reports_certificates(capsys, example4_path):
    payload = run_json(
        capsys,
        "approx", example4_path, "--model", "incremental",
        "--smin", "2", "--smax", "6", "--delta", "2", "--K", "2",
    )
    assert payload["bound_factor"] == pytest.approx(9.0, rel=1e-12)
    assert payload["energy"] <= payload["certified_upper"] * (1 + 1e-9)
    assert payload["feasible"] is True

    code, _, err = run(
        capsys,
        "approx", example4_path, "--model", "discrete", "--modes", "2,5,6", "--K", "0",
    )
    assert code == 1
    assert "K" in err


def test_approx_closes_the_ladder_with_the_top_speed(capsys, tmp_path, example4_path):
    # One task of cost 3 needs speed 2.4 by D = 1.25; the K = 2 ladder
    # from mode 1 stops at 2.25 below the top mode 3, which must join it.
    path = write_instance(tmp_path, _solve_instance({"A": 3.0}, [], deadline=1.25))
    out = tmp_path / "approx.json"
    code, _, err = run(capsys, "approx", path, "--model", "discrete", "--modes", "1,2,3",
                       "--K", "2", "--out", str(out))
    assert code == 0, err
    payload = json.loads(out.read_text())
    assert payload["energy"] == 27.0
    assert payload["certified_upper"] >= payload["energy"]
    assert payload["diagnostics"]["geometric_modes"] == [1.0, 1.5, 2.25, 3.0]
    replay = run_json(capsys, "validate", path, str(out))
    assert replay["feasible"] is True
    assert replay["energy"] == payload["energy"]

    # a deadline the ladder meets leaves the ladder as it is
    payload = run_json(capsys, "approx", example4_path, "--model", "discrete",
                       "--modes", "2,5,6", "--K", "2")
    assert payload["diagnostics"]["geometric_modes"] == rc.geometric_modes(2.0, 6.0, 2)


def test_gen2p_round_trip(capsys, tmp_path):
    out = tmp_path / "inst.json"
    code, meta_text, err = run(
        capsys, "gen2p", "--values", "1,2,3,4", "--out", str(out)
    )
    assert code == 0, err
    meta = json.loads(meta_text)
    assert meta["deadline"] == 7.5
    assert meta["energy_bound"] == 25.0
    g = rc.load_instance(str(out))
    sol = rc.solve_exact(g, rc.DiscreteModel((1.0, 2.0)))
    assert sol.energy == 25.0

    # without --out the instance is embedded in the payload
    meta = run_json(capsys, "gen2p", "--values", "2,2")
    assert meta["instance"]["deadline"] == 3.0

    # seeded generation is reproducible
    a = run_json(capsys, "gen2p", "--seed", "9", "--n", "5")
    b = run_json(capsys, "gen2p", "--seed", "9", "--n", "5")
    assert a["values"] == b["values"]


def test_power_profile_csv(capsys, example4_path, tmp_path):
    out = tmp_path / "report.json"
    run(capsys, "solve", example4_path, "--model", "continuous", "--smax", "6",
        "--out", str(out))
    code, csv_text, err = run(capsys, "power-profile", example4_path, str(out))
    assert code == 0, err
    lines = csv_text.strip().splitlines()
    assert lines[0] == "t,power"
    levels = {line.split(",")[1] for line in lines[1:]}
    assert len(levels) == 1  # constant total power at the optimum
    assert lines[-1].startswith("1.5,")


def test_structure_override_and_fallback(capsys, tmp_path):
    path = write_instance(tmp_path, DIAMOND)
    # the diamond is series-parallel; uncapped solves use the closed form,
    # and the report carries its schedule
    payload = run_json(capsys, "solve", path, "--model", "continuous")
    assert payload["structure"] == "spg"
    assert {row["id"] for row in payload["schedule"]} == {"s", "a", "b", "t"}
    assert payload["makespan"] == pytest.approx(4.0, rel=1e-12)
    assert payload["energy"] == pytest.approx(
        payload["diagnostics"]["closed_form_energy"], rel=1e-12
    )

    # an explicit spg request with a finite cap is refused ...
    code, _, err = run(
        capsys, "solve", path, "--model", "continuous", "--smax", "4",
        "--structure", "spg",
    )
    assert code == 1
    assert "fallback" in err

    # ... unless the caller allows the numeric fallback
    payload = run_json(
        capsys, "solve", path, "--model", "continuous", "--smax", "4",
        "--structure", "spg", "--fallback", "dag",
    )
    assert payload["feasible"] is True

    # ... which still checks the shape: the N-shaped graph is refused either way
    n_path = write_instance(tmp_path, {**N_SHAPED, "deadline": 5.0}, "n.json")
    for cap in ([], ["--smax", "10"]):
        code, _, err = run(
            capsys, "solve", n_path, "--model", "continuous", *cap,
            "--structure", "spg", "--fallback", "dag",
        )
        assert code == 1
        assert "not series-parallel" in err

    # auto-detection with a finite cap silently routes to the numeric path
    payload = run_json(capsys, "solve", path, "--model", "continuous", "--smax", "4")
    assert payload["structure"] == "spg"
    assert "speeds" in payload

    # claiming a structure the instance does not have is an input error
    code, _, err = run(
        capsys, "solve", path, "--model", "continuous", "--structure", "chain"
    )
    assert code == 1
    assert "chain" in err


def test_input_error_exits(capsys, tmp_path, example4_path):
    code, _, err = run(capsys, "solve", str(tmp_path / "missing.json"),
                       "--model", "continuous")
    assert code == 1

    bad = tmp_path / "bad.json"
    bad.write_text('{"tasks": [,]}')
    code, _, err = run(capsys, "solve", str(bad), "--model", "continuous")
    assert code == 1
    assert "line" in err

    code, _, _ = run(capsys, "solve", example4_path, "--model", "discrete")
    assert code == 1  # --modes missing

    code, _, _ = run(capsys, "nonsense")
    assert code == 1

    code, _, _ = run(capsys, "--help")
    assert code == 0


def test_infeasible_and_budget_exits(capsys, tmp_path, example4_path):
    tight = dict(json.loads(pathlib.Path(example4_path).read_text()), deadline=0.5)
    path = write_instance(tmp_path, tight, "tight.json")
    code, _, err = run(capsys, "solve", path, "--model", "discrete",
                       "--modes", "2,5,6")
    assert code == 2

    code, _, err = run(capsys, "solve", example4_path, "--model", "discrete",
                       "--modes", "2,5,6", "--node-budget", "2")
    assert code == 3
    assert "after 3 nodes" in err and "no incumbent" in err


def test_log_env_var(capsys, example4_path, monkeypatch):
    monkeypatch.setenv("RECLAIM_LOG", "debug")
    code, _, err = run(capsys, "solve", example4_path, "--model", "continuous",
                       "--smax", "6", "--structure", "dag")
    assert code == 0
    assert "reclaim" in err

    monkeypatch.setenv("RECLAIM_LOG", "off")
    code, _, err = run(capsys, "solve", example4_path, "--model", "continuous",
                       "--smax", "6", "--structure", "dag")
    assert code == 0
    assert err == ""


def test_log_follows_the_current_stderr(capsys, example4_path, monkeypatch):
    # A first call under another stderr must not keep the log there.
    monkeypatch.setenv("RECLAIM_LOG", "debug")
    elsewhere = io.StringIO()
    with monkeypatch.context() as patch:
        patch.setattr(sys, "stderr", elsewhere)
        assert main(["solve", example4_path, "--model", "continuous", "--smax", "6",
                     "--structure", "dag", "--out", os.devnull]) == 0
    assert "reclaim" in elsewhere.getvalue()
    code, _, err = run(capsys, "solve", example4_path, "--model", "continuous",
                       "--smax", "6", "--structure", "dag")
    assert code == 0
    assert "reclaim.continuous: dag solve" in err
