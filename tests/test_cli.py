"""End-to-end runs of the command-line interface (in-process)."""

import json

import pytest

import reclaim as rc
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
    tight = dict(json.loads(open(example4_path).read()), deadline=1.0)
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
    # the diamond is series-parallel; uncapped solves use the closed form
    payload = run_json(capsys, "solve", path, "--model", "continuous")
    assert payload["structure"] == "spg"

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
    tight = dict(json.loads(open(example4_path).read()), deadline=0.5)
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
