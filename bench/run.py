"""End-to-end benchmark of the reclaim CLI.

    python3 bench/run.py --workload dag-barrier --seed 1 --seconds 22 --trace 0
    python3 bench/run.py --quick

Drives ``reclaim.cli.main`` in-process, one call at a time, exactly as a
user types each command, on instances generated from ``--seed`` before
timing starts. Whole rounds of the workload's calls repeat, as many as
bring the run nearest to ``--seconds``; every output is checked by
``oracle``. The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
``--quick`` runs all four workloads at a few tasks each, once, with
every check, and exits 0 only when the one known fault is the only
failure. See README.md for what each metric means.
"""

import os

# One BLAS thread: the barrier's dense solve otherwise spreads over both
# cores from n ~ 50 with no wall-time gain. Set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib.util  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import redirect_stderr  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5


def _import_program():
    """Import reclaim from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import reclaim.cli as cli
    except ImportError as exc:
        sys.exit(f"bench: cannot import reclaim from {SRC}: {exc}")
    if Path(cli.__file__).resolve().parents[1] != SRC:
        sys.exit(f"bench: reclaim was imported from {cli.__file__}, not {SRC}")
    # The LP checks import scipy only where they run, so it does not
    # weigh on peak_rss_mb elsewhere; its absence is still an error here.
    if importlib.util.find_spec("scipy") is None:
        sys.exit("bench: the output checks need scipy")
    return cli


def run_round(cli, calls):
    """Run each call once; returns [(call, seconds, failure or None)]."""
    out = []
    for call in calls:
        try:
            argv = call.argv()
        except (LookupError, ValueError) as exc:  # flags read from an earlier failed call
            out.append((call, 0.0, f"no command line: {exc!r}"))
            continue
        err = io.StringIO()
        gc.collect()  # each call starts from an empty young heap, as in a fresh process
        with redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = cli.main(argv)
            except Exception as exc:  # a crash is a failed call, not a benchmark error
                code = f"raised {exc!r}"
            seconds = time.perf_counter() - start
        try:
            failure = call.check(code, err.getvalue()) if isinstance(code, int) else code
        except Exception as exc:  # an unreadable output fails its check
            failure = f"check raised {exc!r}"
        out.append((call, seconds, failure))
    return out


def setup_seconds(argv) -> float:
    """Median over fresh interpreters of importing reclaim.cli plus one
    warm-up call."""
    code = ("import json, sys, time\n"
            "t0 = time.perf_counter()\n"
            "import reclaim.cli\n"
            f"code = reclaim.cli.main({argv!r})\n"
            "print(json.dumps([code, time.perf_counter() - t0]))\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=False)
        if done.returncode != 0:
            raise RuntimeError(f"set-up interpreter failed: {done.stderr.strip()}")
        status, seconds = json.loads(done.stdout.strip().splitlines()[-1])
        if status != 0:
            raise RuntimeError(f"warm-up call exited {status}")
        samples.append(seconds)
    return statistics.median(samples)


def measure(cli, plan, seconds: float, tracer=None):
    """Whole rounds, as many as bring the time nearest to ``seconds``
    (at least one). Returns (results of every call, seconds of each round)."""
    results, walls = [], []
    # The benchmark's own instances and oracle tables would otherwise be
    # traversed by every full collection inside the program's calls.
    gc.collect()
    gc.freeze()
    if tracer is not None:
        tracer.open()
    try:
        began = time.perf_counter()
        while True:
            done = run_round(cli, plan.calls)
            results.extend(done)
            walls.append(sum(s for _, s, _ in done))
            elapsed = time.perf_counter() - began
            if elapsed + elapsed / len(walls) / 2 >= seconds:
                break
    finally:
        if tracer is not None:
            tracer.close()
        gc.unfreeze()
    return results, walls


def end_to_end(results, setup: float) -> dict:
    ok = [(c, s) for c, s, f in results if f is None]
    solves = [(c, s) for c, s in ok if c.kind in ("solve", "approx")]
    return {
        "setup_s": setup,
        "solve_s.p50": statistics.median(s for _, s in solves),
        "tasks_per_s": sum(c.tasks for c, _ in solves) / sum(s for _, s in solves),
        "validate_s.p50": statistics.median(s for c, s in ok if c.kind == "validate"),
        "profile_s.p50": statistics.median(s for c, s in ok if c.kind == "profile"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer, results, walls, untraced_wall: float) -> dict:
    """Self times and counts per round of the traced run."""
    rounds = len(walls)
    self_s = tracer.self_times()

    def secs(name):
        return self_s.get(name, (0.0, 0))[0] / rounds

    def calls(name):
        return self_s.get(name, (0.0, 0))[1] / rounds

    diag = {"iterations": 0, "barrier_rounds": 0, "nodes": 0}
    for call, _, failure in results:
        if call.kind == "solve" and failure is None:
            report = json.loads(Path(call.argv()[-1]).read_text(encoding="utf-8"))
            for key in diag:
                diag[key] += report.get("diagnostics", {}).get(key, 0)
    nodes = diag["nodes"] / rounds
    pivots = tracer.pivots / rounds
    return {
        "cli.self_s": secs("cli"),
        "graph.load_instance_s": secs("graph.load_instance"),
        "graph.load_schedule_s": secs("graph.load_schedule"),
        "graph.topological_order_s": secs("graph.topological_order"),
        "graph.topological_order_calls": calls("graph.topological_order"),
        "graph.asap_times_s": secs("graph.asap_times"),
        "graph.asap_times_calls": calls("graph.asap_times"),
        "graph.evaluate_schedule_s": secs("graph.evaluate_schedule"),
        "graph.schedule_to_obj_s": secs("graph.schedule_to_obj"),
        "structure.detect_structure_s": secs("structure.detect_structure"),
        "structure.as_tree_s": secs("structure.as_tree"),
        "structure.as_tree_calls": calls("structure.as_tree"),
        "structure.as_spg_s": secs("structure.as_spg"),
        "continuous.closed_form_s": secs("continuous.closed_form"),
        "continuous.solve_dag_s": secs("continuous.solve_dag"),
        "continuous.newton_steps": diag["iterations"] / rounds,
        "continuous.barrier_rounds": diag["barrier_rounds"] / rounds,
        "continuous.power_profile_s": secs("continuous.power_profile"),
        "vdd.build_lp_s": secs("vdd.build_lp"),
        "vdd.solve_vdd_s": secs("vdd.solve_vdd"),
        "vdd.lp_variables": tracer.lp_variables / rounds,
        "vdd.lp_rows": tracer.lp_rows / rounds,
        "simplex.solve_s": secs("simplex.solve"),
        "simplex.pivots": pivots,
        "simplex.us_per_pivot": secs("simplex.solve") / pivots * 1e6 if pivots else 0.0,
        "discrete.approx_s": secs("discrete.approx"),
        "discrete.solve_exact_s": secs("discrete.solve_exact"),
        "discrete.bnb_nodes": nodes,
        "discrete.ns_per_node": secs("discrete.solve_exact") / nodes * 1e9 if nodes else 0.0,
        "trace.overhead_s": statistics.mean(walls) - untraced_wall,
    }


def run(cli, workload: str, seed: int, seconds: float, trace: bool, work: Path,
        size: dict) -> dict:
    import spans
    import workloads

    plan = workloads.Plan(str(work))
    workloads.WORKLOADS[workload](random.Random(seed), plan, size)
    setup = None if trace else setup_seconds(plan.warmup)
    with redirect_stderr(io.StringIO()):
        if cli.main(plan.warmup) != 0:
            raise RuntimeError("the warm-up call failed")
    if trace:
        untraced, (untraced_wall,) = measure(cli, plan, 0.0)
        tracer = spans.Tracer()
        traced, walls = measure(cli, plan, max(seconds - untraced_wall, 0.0), tracer)
        results = untraced + traced
    else:
        results, _ = measure(cli, plan, seconds)
    failures = [(c, f) for c, _, f in results if f is not None]
    for call, failure in failures:
        if not call.known_fault:
            print(f"bench: {workload}: {' '.join(call.argv())}: {failure}", file=sys.stderr)
    if trace:
        metrics = per_layer(tracer, traced, walls, untraced_wall)
    else:
        metrics = end_to_end(results, setup)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(set(units) ^ set(metrics))} disagree with BENCHMARK.json")
    return {
        "correct": all(c.known_fault and workloads.SPG_FAULT in f for c, f in failures),
        "attempted": len(results),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="all workloads at a few tasks each, one round, every check")
    args = parser.parse_args()
    cli = _import_program()
    sys.path.insert(0, str(HERE))
    import workloads

    names = list(workloads.WORKLOADS) if args.quick else [args.workload]
    if None in names or not set(names) <= set(workloads.WORKLOADS):
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    size = workloads.QUICK if args.quick else workloads.FULL
    work = HERE / "_work" / f"{os.getpid()}"
    results = {}
    try:
        for name in names:
            (work / name).mkdir(parents=True)
            results[name] = run(cli, name, args.seed, 0.0 if args.quick else args.seconds,
                                bool(args.trace), work / name, size)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.quick:
        for name, result in results.items():
            print(name, json.dumps(result))
        return 0 if all(r["correct"] for r in results.values()) else 1
    print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
