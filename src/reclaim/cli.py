"""Command-line front end.

One instance format serves every model; model parameters arrive on the
command line, so the same fixture can be priced under continuous,
mode-hopping, discrete, and grid speed models. Reports are JSON by
default (``--pretty`` for humans). Exit codes are a stable contract:
0 success, 1 input error, 2 infeasible, 3 budget or convergence failure.
"""

from __future__ import annotations

import argparse
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
    DegenerateDurationError,
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
    ConstantSpeed,
    ExecutionGraph,
    Schedule,
    asap_times,
    evaluate_schedule,
    load_instance,
    load_schedule,
    profile_duration,
    schedule_to_obj,
    topological_order,
    with_asap_starts,
)
from .vdd import VddModel, build_lp, format_lp, solve_vdd

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INFEASIBLE = 2
EXIT_BUDGET = 3

log = logging.getLogger("reclaim.cli")


def main(argv=None) -> int:
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
        # CycleError, CoverageError, UnsupportedError, RangeError,
        # DegenerateDurationError all land here: bad input, not bad luck.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def _configure_logging() -> None:
    # Touch only the package logger; the process root stays untouched so a
    # host application embedding main() keeps its own logging setup.
    wanted = os.environ.get("RECLAIM_LOG", "off").strip().lower()
    levels = {"off": logging.CRITICAL + 10, "info": logging.INFO, "debug": logging.DEBUG}
    logger = logging.getLogger("reclaim")
    if not logger.handlers:
        handler = logging.StreamHandler(sys.stderr)
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


def _build_parser() -> argparse.ArgumentParser:
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
    p.set_defaults(handler=cmd_compare)

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


def _emit_json(payload: dict, args) -> None:
    text = json.dumps(payload, indent=2 if args.pretty else None)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _require(args, names: list[str], model: str) -> None:
    missing = [f"--{n}" for n in names if getattr(args, n.replace("-", "_")) is None]
    if missing:
        raise ValueError(f"model {model!r} requires {', '.join(missing)}")


def _schedule_payload(g: ExecutionGraph, schedule: Schedule, report) -> dict:
    return {
        "energy": report.energy,
        "makespan": report.makespan,
        "feasible": report.feasible,
        "deadline": g.deadline,
        "speeds": dict(sorted(report.speeds.items())),
        "schedule": schedule_to_obj(schedule),
        "diagnostics": report.diagnostics,
    }


def cmd_solve(args) -> int:
    g = load_instance(args.instance)
    if args.model == "continuous":
        payload = _solve_continuous(g, args)
    elif args.model == "vdd":
        _require(args, ["modes"], "vdd")
        model = VddModel(args.modes)
        if args.dump_lp:
            with open(args.dump_lp, "w", encoding="utf-8") as fh:
                fh.write(format_lp(build_lp(g, model)))
        schedule, report = solve_vdd(g, model)
        payload = _schedule_payload(g, schedule, report)
    elif args.model == "discrete":
        _require(args, ["modes"], "discrete")
        payload = _solve_exact(g, disc.DiscreteModel(args.modes), args)
    else:
        _require(args, ["smin", "smax", "delta"], "incremental")
        payload = _solve_exact(
            g, disc.IncrementalModel(args.smin, args.smax, args.delta), args
        )
    payload = {"command": "solve", "model": args.model, **payload}
    _emit_json(payload, args)
    return EXIT_OK


def _solve_exact(g: ExecutionGraph, model, args) -> dict:
    solution = disc.solve_exact(g, model, node_budget=args.node_budget)
    schedule = Schedule(
        profiles={tid: ConstantSpeed(s) for tid, s in solution.speeds.items()}
    )
    schedule = with_asap_starts(g, schedule)
    return {
        "energy": solution.energy,
        "makespan": solution.makespan,
        "feasible": True,
        "deadline": g.deadline,
        "speeds": dict(sorted(solution.speeds.items())),
        "schedule": schedule_to_obj(schedule),
        "diagnostics": {
            "nodes": solution.nodes,
            "pruned_deadline": solution.pruned_deadline,
            "pruned_energy": solution.pruned_energy,
            "proven_optimal": solution.proven_optimal,
        },
    }


def _solve_continuous(g: ExecutionGraph, args) -> dict:
    s_max = args.smax if args.smax is not None else math.inf
    shape = args.structure or struct.detect_structure(g)
    solver = shape
    if shape == "spg" and math.isfinite(s_max):
        if args.structure == "spg" and args.fallback != "dag":
            raise UnsupportedError(
                "the series-parallel closed form needs an uncapped model; "
                "pass --fallback dag (or --structure dag) for a capped solve"
            )
        solver = "dag"  # detected shape stays in the report

    if solver == "independent":
        if g.edges:
            raise ValueError("instance is not an independent task set")
        order = topological_order(g)
        speeds, energy = cont.solve_independent([g.costs[t] for t in order], g.deadline, s_max)
        per_task = dict(zip(order, speeds))
    elif solver == "chain":
        order = struct.as_chain(g)
        if order is None:
            raise ValueError("instance is not a chain")
        speed, energy = cont.solve_chain([g.costs[t] for t in order], g.deadline, s_max)
        per_task = {tid: speed for tid in order}
    elif solver == "fork":
        shape_info = struct.as_fork(g)
        if shape_info is None:
            raise ValueError("instance is not a fork or join")
        center, branches = shape_info
        speeds, energy = cont.solve_fork_join(
            g.costs[center], [g.costs[b] for b in branches], g.deadline, s_max
        )
        per_task = {center: speeds[0], **dict(zip(branches, speeds[1:]))}
    elif solver == "tree":
        root = struct.as_tree(g)
        if root is None:
            raise ValueError("instance is not a tree")
        energy, per_task = cont.solve_tree(root, g.deadline, s_max)
    elif solver == "spg":
        node = struct.as_spg(g)
        if node is None:
            raise ValueError("instance is not series-parallel")
        energy = cont.solve_spg(node, g.deadline, s_max)
        return {
            "energy": energy,
            "makespan": g.deadline,
            "feasible": True,
            "deadline": g.deadline,
            "structure": shape,
            "diagnostics": {"note": "closed form prices the graph without a schedule"},
        }
    else:
        schedule, report = cont.solve_dag(g, s_max)
        payload = _schedule_payload(g, schedule, report)
        payload["structure"] = shape
        return payload

    schedule = with_asap_starts(
        g, Schedule(profiles={tid: ConstantSpeed(s) for tid, s in per_task.items()})
    )
    report = evaluate_schedule(g, schedule)
    payload = _schedule_payload(g, schedule, report)
    payload["structure"] = shape
    payload["diagnostics"] = {"closed_form_energy": energy}
    return payload


def cmd_validate(args) -> int:
    g = load_instance(args.instance)
    schedule = load_schedule(args.schedule)
    report = evaluate_schedule(g, schedule)
    durations = {tid: profile_duration(p, g.costs[tid]) for tid, p in schedule.profiles.items()}
    _, completion = asap_times(g, durations)
    tol = g.deadline * (1 + 1e-9)
    violations = sorted(tid for tid, done in completion.items() if done > tol)
    payload = {
        "command": "validate",
        "feasible": report.feasible,
        "energy": report.energy,
        "makespan": report.makespan,
        "deadline": g.deadline,
        "deadline_slack": {tid: g.deadline - completion[tid] for tid in sorted(completion)},
        "violations": violations,
    }
    _emit_json(payload, args)
    return EXIT_OK if report.feasible else EXIT_INFEASIBLE


def cmd_compare(args) -> int:
    g = load_instance(args.instance)
    rows: list[dict] = []

    def run(model_name: str, runner) -> None:
        try:
            energy, note = runner()
            rows.append({"model": model_name, "energy": energy, "status": note or "ok"})
        except (InfeasibleError, LpInfeasibleError) as exc:
            rows.append({"model": model_name, "energy": None, "status": f"infeasible: {exc}"})
        except BudgetExceededError as exc:
            energy = exc.best.energy if exc.best is not None else None
            rows.append({"model": model_name, "energy": energy, "status": "incumbent"})
        except (ValueError, ReclaimError) as exc:
            rows.append({"model": model_name, "energy": None, "status": f"error: {exc}"})

    s_max = args.smax if args.smax is not None else math.inf
    run("continuous", lambda: (cont.solve_dag(g, s_max)[1].energy, None))
    if args.modes is not None:
        run("vdd", lambda: (solve_vdd(g, VddModel(args.modes))[1].energy, None))
        run("discrete", lambda: (
            disc.solve_exact(g, disc.DiscreteModel(args.modes), args.node_budget).energy,
            None,
        ))
    else:
        rows.append({"model": "vdd", "energy": None, "status": "skipped: no --modes"})
        rows.append({"model": "discrete", "energy": None, "status": "skipped: no --modes"})
    if args.smin is not None and args.delta is not None and args.smax is not None:
        run("incremental", lambda: (
            disc.solve_exact(
                g, disc.IncrementalModel(args.smin, args.smax, args.delta), args.node_budget
            ).energy,
            None,
        ))
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
        text = "\n".join(lines)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        else:
            print(text)
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
    if args.model == "incremental":
        _require(args, ["smin", "smax", "delta"], "incremental")
        result = disc.approx_incremental(
            g, disc.IncrementalModel(args.smin, args.smax, args.delta), args.K
        )
    else:
        _require(args, ["modes"], "discrete")
        result = disc.approx_discrete(g, disc.DiscreteModel(args.modes), args.K)
    payload = {
        "command": "approx",
        "model": args.model,
        "K": args.K,
        "energy": result.report.energy,
        "bound_factor": result.bound_factor,
        "certified_upper": result.certified_upper,
        "makespan": result.report.makespan,
        "feasible": result.report.feasible,
        "deadline": g.deadline,
        "speeds": dict(sorted(result.report.speeds.items())),
        "schedule": schedule_to_obj(result.schedule),
        "diagnostics": result.report.diagnostics,
    }
    _emit_json(payload, args)
    return EXIT_OK


def cmd_gen2p(args) -> int:
    if args.values is not None:
        values = args.values
    else:
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
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(instance, indent=2) + "\n")
        payload["out"] = args.out
        print(json.dumps(payload, indent=2 if args.pretty else None))
    else:
        payload["instance"] = instance
        print(json.dumps(payload, indent=2 if args.pretty else None))
    return EXIT_OK


def cmd_power_profile(args) -> int:
    g = load_instance(args.instance)
    schedule = load_schedule(args.schedule)
    if schedule.starts is None or set(schedule.starts) != set(schedule.profiles):
        schedule = with_asap_starts(g, schedule)
    profile = cont.power_profile(g, schedule, min_interval=args.min_interval)
    lines = ["t,power"]
    for t, level in zip(profile.times, profile.levels):
        lines.append(f"{t:.12g},{level:.12g}")
    lines.append(f"{profile.times[-1]:.12g},{profile.levels[-1]:.12g}")
    text = "\n".join(lines)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return EXIT_OK
