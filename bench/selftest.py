"""The benchmark's own tests.

    python3 -m pytest bench/selftest.py

The file name keeps it out of the package's test collection: these
tests exercise the benchmark, not the program.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import oracle  # noqa: E402


def worked_example() -> gen.Inst:
    # The package README's four-task instance.
    return gen.Inst("example", {"T1": 3.0, "T2": 2.0, "T3": 1.0, "T4": 2.0},
                    [("T1", "T3")], [["T1", "T2"], ["T3", "T4"]], 1.5)


def test_oracles_reproduce_the_worked_example():
    inst = worked_example()
    assert math.isclose(oracle.vdd_lp(inst, (2.0, 5.0, 6.0)), 144.0, rel_tol=1e-9)
    assert math.isclose(oracle.exact_optimum(inst, (2.0, 5.0, 6.0)), 170.0, rel_tol=1e-12)
    assert math.isclose(oracle.exact_optimum(inst, (2.0, 4.0, 6.0)), 128.0, rel_tol=1e-12)


def test_partition_dp():
    assert oracle.partition_exists([3, 1, 1, 2, 2, 1])
    assert not oracle.partition_exists([3, 5, 6, 2, 30])
    assert not oracle.partition_exists([1, 2, 4])


def _chain_report(inst, speeds):
    energy = sum(w * speeds[t] ** 2 for t, w in inst.costs.items())
    makespan = sum(w / speeds[t] for t, w in inst.costs.items())
    return {"energy": energy, "makespan": makespan,
            "schedule": [{"id": t, "profile": {"constant": s}} for t, s in speeds.items()]}


def test_continuous_check_rejects_what_it_should():
    import random

    inst = gen.chain(random.Random(3), 12, "c")
    timing = oracle.Timing(inst.costs, inst.edges(), inst.deadline)
    formula = sum(e ** 3 for e in oracle.forest_eq(inst).values()) / inst.deadline ** 2
    speed = sum(inst.costs.values()) / inst.deadline
    good = _chain_report(inst, dict.fromkeys(inst.costs, speed))
    assert oracle.check_continuous(timing, good, math.inf, False, formula) is None

    late = _chain_report(inst, {**dict.fromkeys(inst.costs, speed), "C3": speed * 0.9})
    assert "misses deadline" in oracle.check_continuous(timing, late, math.inf, False, formula)
    early = _chain_report(inst, {**dict.fromkeys(inst.costs, speed), "C3": speed * 1.1})
    assert "float" in oracle.check_continuous(timing, early, math.inf, False, formula)
    assert "binds on no task" in oracle.check_continuous(timing, good, speed * 1.5, True, None)
    wrong = dict(good, energy=good["energy"] * (1 + 1e-6))
    assert "re-priced" in oracle.check_continuous(timing, wrong, math.inf, False, formula)


def test_quick_mode_fails_only_on_the_known_fault():
    done = subprocess.run([sys.executable, str(HERE / "run.py"), "--quick"],
                          capture_output=True, text=True, timeout=900, check=False)
    assert done.returncode == 0, done.stderr
    results = {}
    for line in done.stdout.splitlines():
        name, payload = line.split(" ", 1)
        results[name] = json.loads(payload)
    assert set(results) == {"dag-barrier", "mode-hopping", "exact-search", "closed-form-large"}
    for name, result in results.items():
        assert result["correct"], name
        # The uncapped series-parallel report has no schedule, so its
        # validate and power-profile replays exit 1.
        assert result["failed"] == (2 if name == "closed-form-large" else 0), name
        assert set(result["metrics"]) == {"setup_s", "solve_s.p50", "tasks_per_s",
                                          "validate_s.p50", "profile_s.p50", "peak_rss_mb"}


def test_tracer_restores_the_program():
    sys.path.insert(0, str(HERE.parent / "src"))
    import reclaim.cli
    import reclaim.continuous
    import spans

    before = (reclaim.cli.load_instance, reclaim.continuous.topological_order)
    tracer = spans.Tracer()
    tracer.open()
    try:
        assert reclaim.cli.load_instance is not before[0]
        assert reclaim.continuous.topological_order is not before[1]
    finally:
        tracer.close()
    assert (reclaim.cli.load_instance, reclaim.continuous.topological_order) == before
