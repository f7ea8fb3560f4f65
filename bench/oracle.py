"""Independent checks of the program's outputs.

Every check recomputes what it needs from the generator's plain data
(``gen.Inst``) with code written here: ASAP timing, pricing, float,
equivalent costs, a mode-hopping LP solved by scipy's HiGHS, a subset-sum
DP and brute-force mode enumeration. None of it imports the package, and
none of it compares against a stored copy of an earlier output.

A check returns None when the output passes and a one-line reason when
it does not.
"""

from __future__ import annotations

import math

# Relative slack on deadline and work checks; the instance format carries
# sums of reals that do not add exactly in binary.
REL = 1e-9


class Timing:
    """Topological order, predecessors and successors of an instance's
    execution graph, computed once and reused by every check on it."""

    def __init__(self, costs: dict[str, float], edges, deadline: float):
        self.costs = costs
        self.deadline = deadline
        self.preds = {t: [] for t in costs}
        self.succs = {t: [] for t in costs}
        indeg = dict.fromkeys(costs, 0)
        for u, v in edges:
            self.preds[v].append(u)
            self.succs[u].append(v)
            indeg[v] += 1
        ready = [t for t, d in indeg.items() if d == 0]
        self.order: list[str] = []
        while ready:
            t = ready.pop()
            self.order.append(t)
            for s in self.succs[t]:
                indeg[s] -= 1
                if indeg[s] == 0:
                    ready.append(s)
        if len(self.order) != len(costs):
            raise ValueError("the execution graph has a cycle")

    def asap(self, dur: dict[str, float]) -> dict[str, float]:
        """Earliest completion of every task under the given durations."""
        done: dict[str, float] = {}
        for t in self.order:
            begin = 0.0
            for p in self.preds[t]:
                if done[p] > begin:
                    begin = done[p]
            done[t] = begin + dur[t]
        return done

    def max_float(self, dur: dict[str, float], done: dict[str, float]) -> float:
        """Largest total float: latest minus earliest finish, sinks due at D."""
        latest: dict[str, float] = {}
        worst = 0.0
        for t in reversed(self.order):
            lf = self.deadline
            for s in self.succs[t]:
                if latest[s] - dur[s] < lf:
                    lf = latest[s] - dur[s]
            latest[t] = lf
            if lf - done[t] > worst:
                worst = lf - done[t]
        return worst

    def makespan(self, speeds: dict[str, float]) -> float:
        return max(self.asap({t: w / speeds[t] for t, w in self.costs.items()}).values())


def close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


# ---------------------------------------------------------------------------
# Reports: re-time, re-price, admissible speeds


def parse_schedule(report: dict) -> dict[str, list[tuple[float, float | None]]]:
    """Task -> list of (speed, duration) slices; duration None means the
    whole task at one speed."""
    out = {}
    for entry in report["schedule"]:
        prof = entry["profile"]
        if "constant" in prof:
            out[entry["id"]] = [(float(prof["constant"]), None)]
        else:
            out[entry["id"]] = [(float(s), float(d)) for s, d in prof["segments"]]
    return out


def retime(timing: Timing, report: dict, admissible=lambda s: True
           ) -> tuple[str | None, dict, dict]:
    """Re-time and re-price a report's schedule with this module's code.

    Returns (failure, durations, completions). ``admissible`` tells
    whether one speed is allowed by the model.
    """
    if "schedule" not in report:
        return "report has no schedule", {}, {}
    slices = parse_schedule(report)
    if set(slices) != set(timing.costs):
        return "schedule does not cover exactly the instance's tasks", {}, {}
    dur: dict[str, float] = {}
    energy = 0.0
    for t, w in timing.costs.items():
        parts = slices[t]
        if len(parts) == 1 and parts[0][1] is None:
            s = parts[0][0]
            if not admissible(s):
                return f"task {t}: speed {s!r} is not admissible", {}, {}
            dur[t] = w / s
            energy += w * s * s
            continue
        work = 0.0
        d_total = 0.0
        for s, d in parts:
            if not admissible(s) or d < 0:
                return f"task {t}: slice ({s!r}, {d!r}) is not admissible", {}, {}
            work += s * d
            d_total += d
            energy += s * s * s * d
        if work < w * (1 - REL):
            return f"task {t}: slices do {work} of {w} work", {}, {}
        dur[t] = d_total
    done = timing.asap(dur)
    makespan = max(done.values())
    if makespan > timing.deadline * (1 + REL):
        return f"makespan {makespan} misses deadline {timing.deadline}", {}, {}
    if not close(energy, report["energy"], 1e-9):
        return f"re-priced energy {energy} != reported {report['energy']}", {}, {}
    if not close(makespan, report["makespan"], 1e-9):
        return f"re-timed makespan {makespan} != reported {report['makespan']}", {}, {}
    return None, dur, done


def flat(pieces, span: float) -> str | None:
    """Pieces (width, level) of a power profile must sit within 1e-4 of
    their mean. Pieces narrower than 1e-6 of the span are skipped:
    finishes that tie in exact arithmetic differ in the last bits, and
    such slivers carry no energy."""
    mean = sum(w * lv for w, lv in pieces) / span
    for width, lv in pieces:
        if width > 1e-6 * span and abs(lv - mean) > 1e-4 * mean:
            return f"power level {lv} strays from the mean {mean}"
    return None


def constant_power(timing: Timing, dur: dict, done: dict) -> str | None:
    """Total power s^3 summed over running tasks must be flat on [0, D]."""
    deltas: dict[float, float] = {}
    for t, w in timing.costs.items():
        p = (w / dur[t]) ** 3
        start = done[t] - dur[t]
        deltas[start] = deltas.get(start, 0.0) + p
        deltas[done[t]] = deltas.get(done[t], 0.0) - p
    points = sorted(deltas)
    level = 0.0
    pieces = []
    for a, b in zip(points, points[1:]):
        level += deltas[a]
        pieces.append((b - a, level))
    span = points[-1] - points[0]
    if not close(span, timing.deadline, 1e-6):
        return f"power spans {span}, not the whole window {timing.deadline}"
    return flat(pieces, span)


def check_continuous(timing: Timing, report: dict, cap: float, binds: bool,
                     formula: float | None) -> str | None:
    """Continuous optimum: admissible, no float, cap respected (and binding
    when the cap lies below the uncapped top speed), flat power when
    uncapped, and the equivalent-cost energy where a formula exists."""
    fail, dur, done = retime(timing, report, lambda s: 0 < s <= cap)
    if fail:
        return fail
    slack = timing.max_float(dur, done)
    if slack > 1e-6 * timing.deadline:
        return f"a task has total float {slack}; it could run slower"
    if binds and max(w / dur[t] for t, w in timing.costs.items()) < cap * (1 - 1e-6):
        return f"the cap {cap} binds on no task"
    if math.isinf(cap):
        fail = constant_power(timing, dur, done)
        if fail:
            return fail
    if formula is not None and not close(report["energy"], formula, 1e-9):
        return f"energy {report['energy']} != equivalent-cost formula {formula}"
    return None


def forest_eq(inst) -> dict[str, float]:
    """Equivalent cost of every root of a forest: eq(node) = own cost +
    cbrt(sum of the children's eq^3). The uncapped optimum gives each
    component the whole window, so its energy is sum(eq^3) / D^2 and its
    top speed is max(eq) / D."""
    _, roots, children = inst.shape
    eq: dict[str, float] = {}
    for root in roots:
        post = []
        stack = [root]
        while stack:
            t = stack.pop()
            post.append(t)
            stack.extend(children.get(t, ()))
        for t in reversed(post):
            kids = children.get(t, ())
            eq[t] = inst.costs[t] + (sum(eq[c] ** 3 for c in kids) ** (1 / 3) if kids else 0.0)
    return {r: eq[r] for r in roots}


def spg_energy(inst) -> float:
    """Uncapped series-parallel closed form from the generator's own
    composition: inner cost adds in series (junction task counted once)
    and combines by cbrt of cube sums in parallel."""
    _, src, snk, root = inst.shape
    inner: dict[int, float] = {}
    post = []
    stack = [root]
    while stack:
        node = stack.pop()
        post.append(node)
        if node[0] == "series":
            stack += [node[1], node[3]]
        elif node[0] == "parallel":
            stack += [node[1], node[2]]
    for node in reversed(post):
        if node[0] == "edge":
            inner[id(node)] = 0.0
        elif node[0] == "series":
            inner[id(node)] = inner[id(node[1])] + inst.costs[node[2]] + inner[id(node[3])]
        else:
            inner[id(node)] = (inner[id(node[1])] ** 3 + inner[id(node[2])] ** 3) ** (1 / 3)
    total = inst.costs[src] + inner[id(root)] + inst.costs[snk]
    return total ** 3 / inst.deadline ** 2


# ---------------------------------------------------------------------------
# Finite speeds: LP lower bounds, exact optima


def vdd_lp(inst, modes) -> float:
    """Optimal mode-hopping energy, formulated here and solved by HiGHS.

    Variables: a time share per (task, mode), then one completion time
    per task. Work is met exactly; a task starts after every predecessor
    completes and at time 0 or later; completions stay within D.
    """
    import numpy as np
    from scipy.optimize import linprog
    from scipy.sparse import coo_matrix

    tasks = list(inst.costs)
    pos = {t: i for i, t in enumerate(tasks)}
    n, m = len(tasks), len(modes)
    comp = n * m
    c = np.zeros(n * m + n)
    eq_r, eq_c, eq_v = [], [], []
    for i in range(n):
        for j, s in enumerate(modes):
            c[i * m + j] = s ** 3
            eq_r.append(i)
            eq_c.append(i * m + j)
            eq_v.append(s)
    ub_r, ub_c, ub_v = [], [], []
    row = 0

    def duration_minus(v: int, extra: list[tuple[int, float]]) -> None:
        # One row: duration of task v minus its completion, plus extra terms.
        nonlocal row
        for j in range(m):
            ub_r.append(row)
            ub_c.append(v * m + j)
            ub_v.append(1.0)
        ub_r.append(row)
        ub_c.append(comp + v)
        ub_v.append(-1.0)
        for col, val in extra:
            ub_r.append(row)
            ub_c.append(col)
            ub_v.append(val)
        row += 1

    for i in range(n):
        duration_minus(i, [])
    for u, v in inst.edges():
        duration_minus(pos[v], [(comp + pos[u], 1.0)])
    a_eq = coo_matrix((eq_v, (eq_r, eq_c)), shape=(n, n * m + n)).tocsr()
    a_ub = coo_matrix((ub_v, (ub_r, ub_c)), shape=(row, n * m + n)).tocsr()
    b_eq = np.array([inst.costs[t] for t in tasks])
    bounds = [(0, None)] * (n * m) + [(0, inst.deadline)] * n
    res = linprog(c, A_ub=a_ub, b_ub=np.zeros(row), A_eq=a_eq, b_eq=b_eq,
                  bounds=bounds, method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS could not solve the check LP: {res.message}")
    return float(res.fun)


def exact_optimum(inst, speeds) -> float:
    """Minimum energy over every one-mode-per-task assignment, by full
    enumeration (vectorised over assignments, no pruning)."""
    import numpy as np

    timing = Timing(inst.costs, inst.edges(), inst.deadline)
    order = timing.order
    idx = {t: i for i, t in enumerate(order)}
    n = len(order)
    w = np.array([inst.costs[t] for t in order])
    sp = np.array(sorted(speeds))
    k = len(sp)
    best = math.inf
    total = k ** n
    chunk = 1 << 16
    limit = inst.deadline * (1 + REL)
    for lo in range(0, total, chunk):
        code = np.arange(lo, min(total, lo + chunk))
        choice = np.empty((n, len(code)), dtype=np.int64)
        for i in range(n - 1, -1, -1):
            code, choice[i] = np.divmod(code, k)
        s = sp[choice]
        done = np.empty_like(s)
        for t in order:
            i = idx[t]
            begin = np.zeros(s.shape[1])
            for p in timing.preds[t]:
                np.maximum(begin, done[idx[p]], out=begin)
            done[i] = begin + w[i] / s[i]
        ok = done.max(axis=0) <= limit
        if ok.any():
            best = min(best, float((w[:, None] * s * s).sum(axis=0)[ok].min()))
    return best


def locally_optimal(timing: Timing, speeds: dict[str, float], modes) -> str | None:
    """No single task can drop to the next lower mode and stay feasible."""
    ladder = sorted(modes)
    limit = timing.deadline * (1 + REL)
    for t, s in speeds.items():
        k = ladder.index(s)
        if k == 0:
            continue
        trial = dict(speeds)
        trial[t] = ladder[k - 1]
        if timing.makespan(trial) <= limit:
            return f"task {t} could drop from {s} to {ladder[k - 1]} and stay feasible"
    return None


def partition_exists(values) -> bool:
    """Subset-sum DP: can the values split into two halves of equal sum?"""
    total = sum(values)
    if total % 2:
        return False
    reach = 1
    for v in values:
        reach |= reach << v
    return bool(reach >> (total // 2) & 1)


def constant_speeds(report: dict) -> dict[str, float]:
    return {e["id"]: float(e["profile"]["constant"]) for e in report["schedule"]}


# ---------------------------------------------------------------------------
# Replays


def check_validate(timing: Timing, report: dict, out: dict) -> str | None:
    """`validate` must agree with this module's own timing of the report."""
    fail, _, done = retime(timing, report)
    if fail:
        return f"the replayed report fails its own re-timing: {fail}"
    if out.get("feasible") is not True or out.get("violations") != []:
        return "validate calls a feasible schedule infeasible"
    if not close(out["energy"], report["energy"], 1e-9):
        return f"validate energy {out['energy']} != re-priced {report['energy']}"
    if not close(out["makespan"], max(done.values()), 1e-9):
        return f"validate makespan {out['makespan']} != re-timed {max(done.values())}"
    slack = out["deadline_slack"]
    tol = 1e-9 * timing.deadline
    if set(slack) != set(done) or any(
        abs(slack[t] - (timing.deadline - done[t])) > tol for t in done
    ):
        return "validate deadline slack differs from the re-timed completions"
    return None


def check_profile(timing: Timing, report: dict, csv_text: str, flat_power: bool) -> str | None:
    """`power-profile` must integrate to the energy within the window,
    and be flat wherever the report is an uncapped continuous optimum."""
    lines = csv_text.split()
    if not lines or lines[0] != "t,power":
        return "power profile has no t,power header"
    rows = [tuple(float(x) for x in line.split(",")) for line in lines[1:]]
    times = [t for t, _ in rows]
    # Breakpoints print with 12 significant digits, so ties in exact
    # arithmetic that differ in the last bits may print equal.
    if len(rows) < 2 or any(b < a for a, b in zip(times, times[1:])):
        return "power profile breakpoints go back in time"
    if times[0] < -REL * timing.deadline or times[-1] > timing.deadline * (1 + REL):
        return "power profile leaves the window [0, D]"
    area = sum(lv * (b - a) for (a, lv), (b, _) in zip(rows, rows[1:]))
    if not close(area, report["energy"], 1e-7):
        return f"power profile integrates to {area}, energy is {report['energy']}"
    if flat_power:
        return flat([(b - a, lv) for (a, lv), (b, _) in zip(rows, rows[1:])], times[-1] - times[0])
    return None

