"""The four workloads: instances, the CLI calls of one round, and checks.

A round is a fixed list of CLI calls, each typed exactly as a user would
type it. Every `solve` or `approx` call writes a report that the same
round then replays through `validate` and `power-profile`. Each call
carries a check that reads its output and judges it with ``oracle``.

Sizes are fixed per workload so every seed stays well inside the default
budgets; instances come from the seed alone and are never chosen by how
they turn out.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

import gen
import oracle

MODES = "2,4,6"
MODE_SET = (2.0, 4.0, 6.0)
GRID = (2.0, 3.0, 4.0, 5.0, 6.0)  # --smin 2 --smax 6 --delta 1
K = 2  # approx --K

# Instance sizes; QUICK keeps the same shapes at a few tasks each.
# "dag" and "lp" list (tasks, instances); the counts put the median call
# inside a cluster of like calls, where seed and noise move it least.
# "large" sizes (out-tree, in-tree, chain, fork, independent set) make
# every replay cost about the same, for the same reason.
FULL = {
    "dag": ((40, 2), (80, 2), (120, 1)),
    "lp": ((40, 9), (80, 5), (120, 1)),
    "exact_chains": 192, "chain_values": 14,
    "exact_both": (7, 9), "exact_discrete": (12, 14),
    "large": (20000, 20000, 30000, 22000, 30000), "spg": 4000,
}
QUICK = {
    "dag": ((8, 1), (12, 1)),
    "lp": ((8, 1), (12, 1)),
    "exact_chains": 2, "chain_values": 8,
    "exact_both": (6,), "exact_discrete": (9,),
    "large": (300, 300, 450, 330, 450), "spg": 60,
}

# The series-parallel instance is the input of the calls expected to fail
# (see SPG_FAULT); it comes from this fixed seed, so those calls fail on
# the same input in every run.
SPG_SEED = 20120404
SPG_FAULT = "schedule must be a non-empty list"


@dataclass
class Call:
    kind: str  # "solve", "approx", "validate" or "profile"
    argv: Callable[[], list[str]]
    tasks: int
    check: Callable[[int, str], str | None]  # (exit code, stderr) -> failure
    known_fault: bool = False


class Plan:
    """Instances written to ``work``, the warm-up call and one round."""

    def __init__(self, work: str):
        self.work = work
        self.calls: list[Call] = []
        self.warmup: list[str] = []
        self._timing: dict[str, oracle.Timing] = {}

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)

    def write(self, inst: gen.Inst) -> str:
        path = self.path(inst.name + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(inst.to_json())
        self._timing[inst.name] = oracle.Timing(inst.costs, inst.edges(), inst.deadline)
        return path

    def timing(self, inst: gen.Inst) -> oracle.Timing:
        return self._timing[inst.name]

    def add(self, inst: gen.Inst, tag: str, command: str, args, judge,
            flat: bool = False, known_fault: bool = False) -> None:
        """One solve or approx call on ``inst`` plus its two replays.

        ``args`` is the argument list after the instance path, or a
        function giving it at call time; ``judge(report)`` checks the
        report. ``flat`` asks the power-profile check for constant power.
        """
        src = self.path(inst.name + ".json")
        report = self.path(f"{inst.name}.{tag}.report.json")
        checked = self.path(f"{inst.name}.{tag}.validate.json")
        csv = self.path(f"{inst.name}.{tag}.csv")
        timing = self.timing(inst)

        def argv():
            return [command, src, *(args() if callable(args) else args), "--out", report]

        def on_solve(code, err):
            if code != 0:
                return f"exit {code}: {err.strip()}"
            return judge(_load(report))

        def on_validate(code, err):
            if code != 0:
                return f"exit {code}: {err.strip()}"
            return oracle.check_validate(timing, _load(report), _load(checked))

        def on_profile(code, err):
            if code != 0:
                return f"exit {code}: {err.strip()}"
            with open(csv, encoding="utf-8") as fh:
                return oracle.check_profile(timing, _load(report), fh.read(), flat)

        self.calls.append(Call(command, argv, inst.n, on_solve))
        self.calls.append(Call("validate", lambda: ["validate", src, report, "--out", checked],
                               inst.n, on_validate, known_fault))
        self.calls.append(Call("profile", lambda: ["power-profile", src, report, "--out", csv],
                               inst.n, on_profile, known_fault))


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _cap(low: float, top: float) -> tuple[str, bool]:
    """(--smax as a user would type it, whether it binds).

    Halfway between the lowest feasible cap and the uncapped top speed
    when the two differ. When they coincide (a chain, or a DAG whose
    optimum runs its critical path at one speed) no cap can bind and
    still be met, so the cap sits 25% above the top speed instead.
    """
    if top > low * (1 + 1e-3):
        return f"{(low + top) / 2:.6g}", True
    return f"{1.25 * top:.6g}", False


# ---------------------------------------------------------------------------


def dag_barrier(rng: random.Random, plan: Plan, size: dict) -> None:
    """Continuous DAG solves: uncapped, then capped between the lowest
    feasible cap and the uncapped top speed. No closed form gives that top
    speed for a DAG, so it is read from the first round's checked
    uncapped report."""
    warm = gen.dag_family(rng, 20, "warm")
    plan.warmup = ["solve", plan.write(warm), "--model", "continuous",
                   "--out", plan.path("warm.report.json")]
    for n, count in size["dag"]:
        for k in range(count):
            inst = gen.dag_family(rng, n, f"dag{n}-{k}")
            plan.write(inst)
            timing = plan.timing(inst)
            low = max(timing.asap(inst.costs).values()) / inst.deadline  # all at speed 1
            cap: list[tuple[str, bool]] = []

            def uncapped(report, timing=timing, cap=cap, low=low):
                fail = oracle.check_continuous(timing, report, math.inf, False, None)
                if fail is None and not cap:
                    cap.append(_cap(low, max(report["speeds"].values())))
                return fail

            def capped(report, timing=timing, cap=cap):
                return oracle.check_continuous(timing, report, float(cap[0][0]), cap[0][1], None)

            plan.add(inst, "free", "solve", ["--model", "continuous"], uncapped, flat=True)
            plan.add(inst, "cap", "solve", lambda cap=cap: ["--model", "continuous", "--smax", cap[0][0]],
                     capped)


def mode_hopping(rng: random.Random, plan: Plan, size: dict) -> None:
    """The LP path: a vdd solve and both approx schemes per instance."""
    warm = gen.dag_family(rng, 20, "warm")
    plan.warmup = ["solve", plan.write(warm), "--model", "vdd", "--modes", MODES,
                   "--out", plan.path("warm.report.json")]
    for n, k in ((n, k) for n, count in size["lp"] for k in range(count)):
        inst = gen.dag_family(rng, n, f"dag{n}-{k}")
        plan.write(inst)
        timing = plan.timing(inst)
        lp: dict[tuple, float] = {}

        def lower(modes, inst=inst, lp=lp):
            if modes not in lp:
                lp[modes] = oracle.vdd_lp(inst, modes)
            return lp[modes]

        def vdd(report, timing=timing, lower=lower):
            fail, _, _ = oracle.retime(timing, report, lambda s: s in MODE_SET)
            if fail:
                return fail
            bound = lower(MODE_SET)
            if not oracle.close(report["energy"], bound, 1e-6):
                return f"vdd energy {report['energy']} != HiGHS optimum {bound}"
            return None

        def approx(grid, gap, timing=timing, lower=lower):
            # The a-priori factor (1 + gap/s_1)^2 (1 + 1/K)^2 and the
            # certificate: the factor without (1 + 1/K)^2, times the LP
            # optimum on the geometric ladder s_1 (1 + 1/K)^i <= top speed.
            ratio = 1 + 1 / K
            factor = (1 + gap / grid[0]) ** 2 * ratio ** 2
            ladder = [grid[0]]
            while ladder[-1] * ratio <= grid[-1] * (1 + 1e-12):
                ladder.append(ladder[-1] * ratio)

            def judge(report):
                fail, _, _ = oracle.retime(timing, report, lambda s: s in grid)
                if fail:
                    return fail
                if not oracle.close(report["bound_factor"], factor, 1e-12):
                    return f"bound_factor {report['bound_factor']} != {factor}"
                certified = factor / ratio ** 2 * lower(tuple(ladder))
                if not oracle.close(report["certified_upper"], certified, 1e-6):
                    return f"certified_upper {report['certified_upper']} != ladder LP {certified}"
                if not report["energy"] <= report["certified_upper"] * (1 + 1e-9):
                    return "energy exceeds certified_upper"
                if not report["certified_upper"] <= factor * lower(grid) * (1 + 1e-6):
                    return f"certified_upper exceeds bound_factor x the LP over {grid}"
                return None
            return judge

        plan.add(inst, "vdd", "solve", ["--model", "vdd", "--modes", MODES], vdd)
        plan.add(inst, "inc", "approx", ["--model", "incremental", "--smin", "1", "--smax", "6",
                                         "--delta", "1", "--K", "2"],
                 approx((1.0, 2.0, 3.0, 4.0, 5.0, 6.0), 1.0))
        plan.add(inst, "disc", "approx", ["--model", "discrete", "--modes", MODES, "--K", "2"],
                 approx(MODE_SET, 2.0))


def exact_search(rng: random.Random, plan: Plan, size: dict) -> None:
    """Branch and bound: gen2p chains with modes {1, 2}, half of them
    partitionable, and small DAG-family instances under both finite
    models. Incremental stays at n <= 9: from n = 12 its node counts
    reach 10^6 on some seeds."""
    warm = gen.two_partition(rng, 10, True, "warm")
    plan.warmup = ["solve", plan.write(warm), "--model", "discrete", "--modes", "1,2",
                   "--out", plan.path("warm.report.json")]
    for k in range(size["exact_chains"]):
        inst = gen.two_partition(rng, size["chain_values"], k % 2 == 0, f"chain{k}")
        plan.write(inst)
        yes = oracle.partition_exists(inst.extra["values"])

        def chain(report, inst=inst, yes=yes, timing=plan.timing(inst)):
            fail, _, _ = oracle.retime(timing, report, lambda s: s in (1.0, 2.0))
            if fail:
                return fail
            if (report["energy"] <= inst.extra["bound"]) != yes:
                return f"energy {report['energy']} vs bound {inst.extra['bound']} " \
                       f"disagrees with the subset-sum DP ({yes})"
            return oracle.locally_optimal(timing, oracle.constant_speeds(report), (1.0, 2.0))

        plan.add(inst, "disc", "solve", ["--model", "discrete", "--modes", "1,2"], chain)

    models = [("disc", ["--model", "discrete", "--modes", MODES], MODE_SET),
              ("inc", ["--model", "incremental", "--smin", "2", "--smax", "6", "--delta", "1"], GRID)]
    for n in (*size["exact_both"], *size["exact_discrete"]):
        inst = gen.dag_family(rng, n, f"dag{n}")
        plan.write(inst)
        for tag, args, speeds in models if n in size["exact_both"] else models[:1]:
            best: list[float] = []

            def exact(report, inst=inst, speeds=speeds, best=best, timing=plan.timing(inst)):
                fail, _, _ = oracle.retime(timing, report, lambda s: s in speeds)
                if fail:
                    return fail
                if inst.n > 10:
                    return oracle.locally_optimal(timing, oracle.constant_speeds(report), speeds)
                if not best:
                    best.append(oracle.exact_optimum(inst, speeds))
                if not oracle.close(report["energy"], best[0], 1e-12):
                    return f"energy {report['energy']} != brute-force optimum {best[0]}"
                return None

            plan.add(inst, tag, "solve", args, exact)


def closed_form_large(rng: random.Random, plan: Plan, size: dict) -> None:
    """Closed forms on 20k-30k-task trees, a chain, a fork and an
    independent set, plus a 4k-task series-parallel graph. No numeric
    solver runs. Trees and the chain are solved uncapped and capped."""
    n_out, n_in, n_chain, n_fork, n_indep = size["large"]
    warm = gen.out_tree(rng, n_out // 10, "warm")
    plan.warmup = ["solve", plan.write(warm), "--model", "continuous",
                   "--out", plan.path("warm.report.json")]
    shapes = [
        (gen.out_tree(rng, n_out, "outtree"), True),
        (gen.out_tree(rng, n_in, "intree", mirrored=True), True),
        (gen.chain(rng, n_chain, "chain"), True),
        (gen.fork(rng, n_fork, "fork"), False),
        (gen.independent(rng, n_indep, "independent"), False),
    ]
    for inst, with_cap in shapes:
        plan.write(inst)
        timing = plan.timing(inst)
        eq = oracle.forest_eq(inst)
        energy = sum(e ** 3 for e in eq.values()) / inst.deadline ** 2
        top = max(eq.values()) / inst.deadline

        def free(report, timing=timing, energy=energy):
            return oracle.check_continuous(timing, report, math.inf, False, energy)

        plan.add(inst, "free", "solve", ["--model", "continuous"], free, flat=True)
        if not with_cap:
            continue
        low = max(timing.asap(inst.costs).values()) / inst.deadline  # all at speed 1
        cap, binds = _cap(low, top)
        # A cap that does not bind leaves the uncapped optimum in place.
        formula = None if binds else energy

        def capped(report, timing=timing, cap=cap, binds=binds, formula=formula):
            return oracle.check_continuous(timing, report, float(cap), binds, formula)

        plan.add(inst, "cap", "solve", ["--model", "continuous", "--smax", cap], capped)

    inst = gen.spg(random.Random(SPG_SEED), size["spg"], "spg")
    plan.write(inst)
    energy = oracle.spg_energy(inst)

    def spg(report, energy=energy, deadline=inst.deadline):
        # The closed form writes no schedule (the known fault), so only
        # the energy and makespan can be checked here; the replays fail.
        if "schedule" in report:
            return oracle.check_continuous(plan.timing(inst), report, math.inf, False, energy)
        if not oracle.close(report["energy"], energy, 1e-9):
            return f"energy {report['energy']} != series-parallel formula {energy}"
        if not oracle.close(report["makespan"], deadline, 1e-9):
            return f"makespan {report['makespan']} != deadline {deadline}"
        return None

    plan.add(inst, "free", "solve", ["--model", "continuous"], spg, flat=True, known_fault=True)


WORKLOADS = {
    "dag-barrier": dag_barrier,
    "mode-hopping": mode_hopping,
    "exact-search": exact_search,
    "closed-form-large": closed_form_large,
}
