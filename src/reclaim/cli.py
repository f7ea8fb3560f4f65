"""Command-line front end.

One instance format serves every model; model parameters arrive on the
command line, so the same fixture can be priced under continuous,
mode-hopping, discrete, and grid speed models. Reports are JSON by
default (``--pretty`` for humans). Exit codes are a stable contract:
0 success, 1 input error, 2 infeasible, 3 budget or convergence failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import math
import os
import random
import sys

from . import continuous as cont
from . import discrete as disc
from . import structure as struct
from .errors import (
    BudgetExceededError,
    CoverageError,
    CycleError,
    InfeasibleError,
    LpInfeasibleError,
    LpNumericalError,
    NoConvergenceError,
    RangeError,
    ReclaimError,
    UnsupportedError,
    WorkDeficitError,
)
from .graph import (
    REL_TOL,
    ExecutionGraph,
    Schedule,
    SolveReport,
    constant_schedule,
    id_sorted,
    load_instance,
    load_schedule,
    retime,
    schedule_to_obj,
)
from .vdd import VddModel, build_lp, format_lp, solve_vdd

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INFEASIBLE = 2
EXIT_BUDGET = 3

log = logging.getLogger("reclaim.cli")


class _StderrHandler(logging.StreamHandler):
    # Writes to sys.stderr as it is when a record arrives: a host or a test
    # harness may replace sys.stderr between calls, and close the old one.
    stream = property(lambda self: sys.stderr, lambda self, value: None)


def main(argv=None) -> int:
    import gc

    # The graph and report are large and acyclic: the cyclic collector
    # would only traverse them. Its previous state comes back on return,
    # for a host process that embeds main().
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _main(argv)
    finally:
        if enabled:
            gc.enable()


def _main(argv) -> int:
    _configure_logging()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits on usage errors and --help
        return EXIT_OK if exc.code in (0, None) else EXIT_INPUT
    try:
        return args.handler(args)
    except json.JSONDecodeError as exc:
        print(f"error: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}", file=sys.stderr)
        return EXIT_INPUT
    except (InfeasibleError, LpInfeasibleError, WorkDeficitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (BudgetExceededError, NoConvergenceError, LpNumericalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (OSError, ValueError, ReclaimError) as exc:
        # CycleError, CoverageError, UnsupportedError and RangeError all
        # land here: bad input, not bad luck.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def _configure_logging() -> None:
    # Touch only the package logger; the process root stays untouched so a
    # host application embedding main() keeps its own logging setup.
    wanted = os.environ.get("RECLAIM_LOG", "off").strip().lower()
    levels = {"off": logging.CRITICAL + 10, "info": logging.INFO, "debug": logging.DEBUG}
    logger = logging.getLogger("reclaim")
    if not logger.handlers:
        handler = _StderrHandler()
        handler.setFormatter(logging.Formatter("%(name)s: %(message)s"))
        logger.addHandler(handler)
        logger.propagate = False
    logger.setLevel(levels.get(wanted, logging.CRITICAL + 10))


def _modes_arg(text: str) -> tuple[float, ...]:
    try:
        modes = tuple(float(part) for part in text.split(",") if part.strip() != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse mode list {text!r}") from None
    if not modes:
        raise argparse.ArgumentTypeError("mode list must not be empty")
    return modes


def _values_arg(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse integer list {text!r}") from None


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built once per process: parse_args leaves the parser as it found it.
    parser = argparse.ArgumentParser(
        prog="reclaim",
        description="Minimum-energy speed assignment for task graphs under a deadline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--out", metavar="PATH", help="write the report here instead of stdout")
        p.add_argument("--pretty", action="store_true", help="human-oriented formatting")

    p = sub.add_parser("solve", help="solve one instance under one speed model")
    p.add_argument("instance")
    p.add_argument("--model", required=True, choices=["continuous", "discrete", "vdd", "incremental"])
    p.add_argument("--smax", type=float, help="speed cap (continuous), grid top (incremental)")
    p.add_argument("--smin", type=float, help="grid bottom (incremental)")
    p.add_argument("--delta", type=float, help="grid step (incremental)")
    p.add_argument("--modes", type=_modes_arg, help="comma-separated speeds (discrete, vdd)")
    p.add_argument("--structure", choices=struct.STRUCTURES, help="skip shape detection")
    p.add_argument("--fallback", choices=["dag"], help="where closed forms give up, go numeric")
    p.add_argument("--node-budget", type=int, default=disc.DEFAULT_NODE_BUDGET)
    p.add_argument("--dump-lp", metavar="PATH", help="write the schedule LP as text (vdd)")
    common(p)
    p.set_defaults(handler=cmd_solve)

    p = sub.add_parser("validate", help="evaluate a schedule file against an instance")
    p.add_argument("instance")
    p.add_argument("schedule")
    common(p)
    p.set_defaults(handler=cmd_validate)

    p = sub.add_parser("compare", help="price one instance under all four models")
    p.add_argument("instance")
    p.add_argument("--smax", type=float)
    p.add_argument("--smin", type=float)
    p.add_argument("--delta", type=float)
    p.add_argument("--modes", type=_modes_arg)
    p.add_argument("--node-budget", type=int, default=disc.DEFAULT_NODE_BUDGET)
    common(p)
    # Each row runs the solve path with detection on and no LP dump.
    p.set_defaults(handler=cmd_compare, structure=None, fallback=None, dump_lp=None)

    p = sub.add_parser("approx", help="certified rounding scheme for finite-speed models")
    p.add_argument("instance")
    p.add_argument("--model", required=True, choices=["discrete", "incremental"])
    p.add_argument("--K", type=int, required=True, help="accuracy knob; bound carries (1+1/K)^2")
    p.add_argument("--smax", type=float)
    p.add_argument("--smin", type=float)
    p.add_argument("--delta", type=float)
    p.add_argument("--modes", type=_modes_arg)
    common(p)
    p.set_defaults(handler=cmd_approx)

    p = sub.add_parser("gen2p", help="emit a chain instance encoding a 2-partition question")
    p.add_argument("--values", type=_values_arg, help="comma-separated positive integers")
    p.add_argument("--seed", type=int, default=0, help="rng seed when --values is absent")
    p.add_argument("--n", type=int, default=6, help="how many random values to draw")
    p.add_argument("--max-value", type=int, default=9)
    common(p)
    p.set_defaults(handler=cmd_gen2p)

    p = sub.add_parser("power-profile", help="piecewise-constant total power of a schedule")
    p.add_argument("instance")
    p.add_argument("schedule")
    p.add_argument("--min-interval", type=float, default=0.0,
                   help="coalesce intervals shorter than this (integral preserved)")
    common(p)
    p.set_defaults(handler=cmd_power_profile)

    return parser


def _write(text: str, path: str | None) -> None:
    """Write one output to ``path``, or to stdout when there is none."""
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _emit_json(payload: dict, args) -> None:
    _write(json.dumps(payload, indent=2 if args.pretty else None), args.out)


def _require(args, names: list[str], model: str) -> None:
    missing = [f"--{n}" for n in names if getattr(args, n.replace("-", "_")) is None]
    if missing:
        raise ValueError(f"model {model!r} requires {', '.join(missing)}")


def _payload(g: ExecutionGraph, schedule: Schedule, report: SolveReport, **head) -> dict:
    """The report of one schedule: ``head`` first, then the shared fields."""
    return {
        **head,
        "energy": report.energy,
        "makespan": report.makespan,
        "feasible": report.feasible,
        "deadline": g.deadline,
        "speeds": dict(id_sorted(report.speeds)),
        "schedule": schedule_to_obj(schedule),
        "diagnostics": report.diagnostics,
    }


def cmd_solve(args) -> int:
    g = load_instance(args.instance)
    shape, schedule, report = _solve(g, args, args.model)
    head = {"command": "solve", "model": args.model}
    if shape is not None:
        head["structure"] = shape
    _emit_json(_payload(g, schedule, report, **head), args)
    return EXIT_OK


def _solve(g: ExecutionGraph, args, model: str) -> tuple[str | None, Schedule, SolveReport]:
    """Solve ``g`` under one model with the parameters in ``args``.

    Returns the shape the continuous model solved by (None for the other
    models), the schedule and its report.
    """
    if model == "continuous":
        return _solve_continuous(g, args)
    if model == "vdd":
        _require(args, ["modes"], "vdd")
        vdd_model = VddModel(args.modes)
        if args.dump_lp:
            with open(args.dump_lp, "w", encoding="utf-8") as fh:
                fh.write(format_lp(build_lp(g, vdd_model)))
        return None, *solve_vdd(g, vdd_model)
    solution = disc.solve_exact(g, _finite_model(args, model), node_budget=args.node_budget)
    counters = (
        "nodes", "pruned_deadline", "pruned_energy", "proven_optimal", "pruned_state",
    )
    diagnostics = {key: getattr(solution, key) for key in counters}
    return None, *constant_schedule(g, solution.speeds, diagnostics)


def _finite_model(args, model: str):
    if model == "discrete":
        _require(args, ["modes"], "discrete")
        return disc.DiscreteModel(args.modes)
    _require(args, ["smin", "smax", "delta"], "incremental")
    return disc.IncrementalModel(args.smin, args.smax, args.delta)


def _solve_continuous(g: ExecutionGraph, args) -> tuple[str, Schedule, SolveReport]:
    s_max = args.smax if args.smax is not None else math.inf
    capped = math.isfinite(s_max)
    if args.structure == "spg" and capped and args.fallback != "dag":
        raise UnsupportedError(
            "the series-parallel closed form needs an uncapped model; "
            "pass --fallback dag (or --structure dag) for a capped solve"
        )
    shape, form = struct._recognise(g, args.structure)
    if shape == "dag" or (shape == "spg" and capped):
        # The detected shape stays in the report.
        return shape, *cont.solve_dag(g, s_max)

    energy, per_task = cont._solve_sp(form, g.cost, g.ids, g.deadline, s_max)
    return shape, *constant_schedule(g, per_task, {"closed_form_energy": energy})


def _load_replay(args) -> tuple[ExecutionGraph, Schedule]:
    """The instance and a schedule that lists exactly its tasks."""
    g = load_instance(args.instance)
    schedule = load_schedule(args.schedule)
    profiles = schedule.profiles
    if len(profiles) != len(g.ids) or not all(tid in profiles for tid in g.ids):
        unknown = sorted(profiles.keys() - set(g.ids))
        missing = sorted(set(g.ids) - profiles.keys())
        raise ValueError(f"schedule tasks differ from the instance's: {len(unknown)} unknown "
                         f"{unknown[:3]}, {len(missing)} missing {missing[:3]}")
    return g, schedule


def cmd_validate(args) -> int:
    g, schedule = _load_replay(args)
    _, completion, report = retime(g, schedule.profiles)
    limit = g.deadline * (1 + REL_TOL)
    done = id_sorted(completion)
    payload = {
        "command": "validate",
        "feasible": report.feasible,
        "energy": report.energy,
        "makespan": report.makespan,
        "deadline": g.deadline,
        "deadline_slack": {tid: g.deadline - t for tid, t in done},
        "violations": [tid for tid, t in done if t > limit],
    }
    _emit_json(payload, args)
    return EXIT_OK if report.feasible else EXIT_INFEASIBLE


def cmd_compare(args) -> int:
    g = load_instance(args.instance)
    rows: list[dict] = []

    def run(model: str) -> None:
        try:
            energy = _solve(g, args, model)[2].energy
            rows.append({"model": model, "energy": energy, "status": "ok"})
        except (InfeasibleError, LpInfeasibleError) as exc:
            rows.append({"model": model, "energy": None, "status": f"infeasible: {exc}"})
        except BudgetExceededError as exc:
            energy = exc.best.energy if exc.best is not None else None
            rows.append({"model": model, "energy": energy, "status": "incumbent"})
        except (ValueError, ReclaimError) as exc:
            rows.append({"model": model, "energy": None, "status": f"error: {exc}"})

    run("continuous")
    if args.modes is not None:
        run("vdd")
        run("discrete")
    else:
        rows.append({"model": "vdd", "energy": None, "status": "skipped: no --modes"})
        rows.append({"model": "discrete", "energy": None, "status": "skipped: no --modes"})
    if args.smin is not None and args.delta is not None and args.smax is not None:
        run("incremental")
    else:
        rows.append({"model": "incremental", "energy": None,
                     "status": "skipped: needs --smin --smax --delta"})

    if all(row["energy"] is None for row in rows):
        print("error: no model produced an energy", file=sys.stderr)
        return EXIT_INFEASIBLE

    rows.sort(key=lambda r: (r["energy"] is None, r["energy"] if r["energy"] is not None else 0.0))
    ladder = {row["model"]: row["energy"] for row in rows if row["energy"] is not None}
    violation = None
    skipped = []
    slack = 1e-8
    if "continuous" in ladder and "vdd" in ladder:
        top = max(args.modes)
        if args.smax is not None and args.smax < top:
            # A cap below the top mode forbids speeds mode hopping may
            # use, so the two models are not nested.
            skipped.append(
                f"continuous <= vdd: --smax {args.smax:g} is below the top mode {top:g}"
            )
        elif ladder["continuous"] > ladder["vdd"] * (1 + slack):
            violation = "continuous energy exceeds the mode-hopping energy"
    if "vdd" in ladder and "discrete" in ladder:
        if ladder["vdd"] > ladder["discrete"] * (1 + slack):
            violation = "mode-hopping energy exceeds the discrete energy"

    if args.pretty:
        width = max(len(r["model"]) for r in rows)
        lines = [f"{'model':<{width}}  {'energy':>16}  status"]
        for row in rows:
            shown = f"{row['energy']:.6f}" if row["energy"] is not None else "-"
            lines.append(f"{row['model']:<{width}}  {shown:>16}  {row['status']}")
        lines.extend(f"skipped check: {note}" for note in skipped)
        _write("\n".join(lines), args.out)
    else:
        _emit_json({
            "command": "compare",
            "rows": rows,
            "ordering_ok": violation is None,
            "ordering_skipped": skipped,
        }, args)

    if violation is not None:
        print(f"error: {violation}", file=sys.stderr)
        return EXIT_BUDGET
    return EXIT_OK


def cmd_approx(args) -> int:
    g = load_instance(args.instance)
    if args.K < 1:
        raise ValueError(f"--K must be at least 1, got {args.K}")
    approx = disc.approx_incremental if args.model == "incremental" else disc.approx_discrete
    result = approx(g, _finite_model(args, args.model), args.K)
    payload = _payload(
        g, result.schedule, result.report,
        command="approx", model=args.model, K=args.K,
        bound_factor=result.bound_factor, certified_upper=result.certified_upper,
    )
    _emit_json(payload, args)
    return EXIT_OK


def cmd_gen2p(args) -> int:
    if args.values is not None:
        values = args.values
    else:
        if args.max_value < 1:
            raise ValueError(f"--max-value must be >= 1, got {args.max_value}")
        rng = random.Random(args.seed)
        values = [rng.randint(1, args.max_value) for _ in range(args.n)]
    graph, model, bound = disc.gen_2partition(values)
    instance = {
        "tasks": [{"id": t.id, "cost": t.cost} for t in graph.tasks],
        "precedence": [],
        "allocation": [{"processor": 0, "order": [t.id for t in graph.tasks]}],
        "deadline": graph.deadline,
    }
    payload = {
        "command": "gen2p",
        "values": list(values),
        "deadline": graph.deadline,
        "energy_bound": bound,
        "modes": list(model.modes),
    }
    if args.out:
        _write(json.dumps(instance, indent=2), args.out)
        payload["out"] = args.out
    else:
        payload["instance"] = instance
    _write(json.dumps(payload, indent=2 if args.pretty else None), None)
    return EXIT_OK


def cmd_power_profile(args) -> int:
    g, schedule = _load_replay(args)
    if schedule.starts is None or schedule.starts.keys() != schedule.profiles.keys():
        schedule = Schedule(profiles=schedule.profiles, starts=retime(g, schedule.profiles)[0])
    profile = cont.power_profile(g, schedule, min_interval=args.min_interval)
    lines = ["t,power"]
    for t, level in zip(profile.times, profile.levels):
        lines.append(f"{t:.12g},{level:.12g}")
    lines.append(f"{profile.times[-1]:.12g},{profile.levels[-1]:.12g}")
    _write("\n".join(lines), args.out)
    return EXIT_OK
