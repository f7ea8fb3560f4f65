"""Reference implementations and random generators used only by the tests.

Everything in the "oracle" half is deliberately independent of the package:
timing, energy, and optima are recomputed from first principles on plain
dicts/lists, so the library has something honest to disagree with. The
generator half produces plain data (ids, costs, edge lists); tests feed it
through the public constructors themselves.
"""

from __future__ import annotations

import math
import random
from itertools import product

# ---------------------------------------------------------------------------
# oracle: timing and energy from scratch
# ---------------------------------------------------------------------------


def ref_completion_times(edges, durations):
    """Earliest completion time per task: t = max(pred t) + own duration.

    `durations` maps id -> duration; `edges` is an iterable of (u, v) pairs.
    Plain Kahn ordering, no shared code with the package.
    """
    ids = sorted(durations)
    preds = {i: [] for i in ids}
    indeg = {i: 0 for i in ids}
    succs = {i: [] for i in ids}
    for u, v in edges:
        preds[v].append(u)
        succs[u].append(v)
        indeg[v] += 1
    ready = [i for i in ids if indeg[i] == 0]
    t = {}
    while ready:
        i = ready.pop()
        t[i] = max((t[p] for p in preds[i]), default=0.0) + durations[i]
        for s in succs[i]:
            indeg[s] -= 1
            if indeg[s] == 0:
                ready.append(s)
    assert len(t) == len(ids), "cycle in oracle input"
    return t


def ref_makespan(edges, durations):
    return max(ref_completion_times(edges, durations).values())


def ref_energy(costs, speeds):
    """Σ w·s² for a constant-speed assignment (dict id -> speed)."""
    return sum(costs[i] * speeds[i] ** 2 for i in costs)


def ref_feasible(costs, edges, deadline, speeds, rel_tol=1e-9):
    durations = {i: costs[i] / speeds[i] for i in costs}
    return ref_makespan(edges, durations) <= deadline * (1 + rel_tol)


# ---------------------------------------------------------------------------
# oracle: exhaustive optimum for mode assignments (no pruning at all)
# ---------------------------------------------------------------------------


def brute_force_exact(order, costs, edges, deadline, speeds, rel_tol=1e-9):
    """Minimum-energy speed assignment by full enumeration.

    `order` fixes the position of each task in the assignment tuple, and
    therefore the lexicographic tie-break. Returns (energy, dict) or None
    when no assignment meets the deadline. Speeds are tried ascending, so
    itertools.product enumerates assignments in lexicographic order and the
    first strict improvement is also the lex-smallest optimum.
    """
    ascending = sorted(speeds)
    best = None
    best_combo = None
    for combo in product(ascending, repeat=len(order)):
        assignment = dict(zip(order, combo))
        if not ref_feasible(costs, edges, deadline, assignment, rel_tol):
            continue
        e = ref_energy(costs, assignment)
        if best is None or e < best:
            best, best_combo = e, assignment
    if best is None:
        return None
    return best, best_combo


def suffix_walk_search(order, costs, edges, deadline, speeds, budget, rel_tol=1e-9,
                       state_limit=math.inf):
    """The exact search with a deadline test that walks the whole unfixed
    suffix at the fastest speed at every node.

    Fixes tasks in `order`, tries speeds ascending and prunes on energy
    (incumbent versus all remaining work at the slowest speed), on the
    deadline and on repeated states, with the same floating-point
    operations in the same order as the package's search, so its node
    and prune counts must match. A state is the depth plus the
    completions of the fixed tasks that an edge leads from to an unfixed
    task, found by scanning the edge list at every node; a try whose
    state was reached before at no higher energy is cut. At most
    `state_limit` states are recorded, the first ones met. Returns None
    when even the fastest speed misses the deadline, else a dict with
    `energy`, `speeds` (None without an incumbent), `nodes`,
    `pruned_deadline`, `pruned_energy`, `pruned_state` and `budget_hit`,
    the last true when node `budget + 1` was reached.
    """
    speeds = sorted(speeds)
    n = len(order)
    pos = {t: i for i, t in enumerate(order)}
    cost = [costs[t] for t in order]
    preds = [[] for _ in range(n)]
    for u, v in edges:
        preds[pos[v]].append(pos[u])
    fastest, slowest = speeds[-1], speeds[0]
    limit = deadline * (1 + rel_tol)
    completion = [0.0] * n

    def walk(i):
        done = completion[: i + 1] + [0.0] * (n - i - 1)
        for j in range(i + 1, n):
            done[j] = max((done[p] for p in preds[j]), default=0.0) + cost[j] / fastest
        return max(done, default=0.0)

    def state(i):
        fixed = sorted({pos[u] for u, v in edges if pos[u] <= i < pos[v]})
        return i, tuple(completion[j] for j in fixed)

    if walk(-1) > limit:
        return None
    floor = [0.0] * (n + 1)
    for i in range(n - 1, -1, -1):
        floor[i] = floor[i + 1] + cost[i] * slowest * slowest
    out = {"energy": math.inf, "speeds": None, "nodes": 0, "pruned_deadline": 0,
           "pruned_energy": 0, "pruned_state": 0, "budget_hit": False}
    chosen = [0.0] * n
    lowest = {}

    def descend(i, energy):
        if i == n:
            out["energy"], out["speeds"] = energy, dict(zip(order, chosen))
            return True
        begin = max((completion[p] for p in preds[i]), default=0.0)
        for s in speeds:
            out["nodes"] += 1
            if out["nodes"] > budget:
                return False
            extended = energy + cost[i] * s * s
            if extended + floor[i + 1] >= out["energy"]:
                out["pruned_energy"] += 1
                break
            completion[i] = begin + cost[i] / s
            if walk(i) > limit:
                out["pruned_deadline"] += 1
                continue
            key = state(i)
            if key in lowest and lowest[key] <= extended:
                out["pruned_state"] += 1
                continue
            if key in lowest or len(lowest) < state_limit:
                lowest[key] = extended
            chosen[i] = s
            if not descend(i + 1, extended):
                return False
        return True

    out["budget_hit"] = not descend(0, 0.0)
    return out


class TreeRuleInfeasible(Exception):
    """Raised by `tree_rule` where the package raises InfeasibleError."""


def tree_rule(costs, roots, children, order, deadline, s_max=math.inf, rel_tol=1e-9):
    """The paper's tree rule walked over a forest's own tables.

    `children` maps every task to its children and `order` lists every
    task, each parent before its children. Bottom-up, a task's equivalent
    cost is its own plus the cube root of its children's summed cubes (a
    single child's as it is). Top-down, a root gets rate eq / D and window
    D; a task at most `s_max * (1 + rel_tol)` runs at min(rate, s_max) and
    gives each child the rate scaled by the child's share of its inner
    cost; a faster one is pinned at `s_max` and its children split what
    is left of its window. Returns (energy, speeds) or raises
    TreeRuleInfeasible with the package's message, at the first task in
    `order` that misses its window.
    """
    if not deadline > 0:
        raise TreeRuleInfeasible(f"deadline must be positive, got {deadline}")
    eq, inner = {}, {}
    for tid in reversed(order):
        kids = children[tid]
        if len(kids) == 1:
            below = eq[kids[0]]
        elif kids:
            below = sum(eq[c] ** 3 for c in kids) ** (1.0 / 3.0)
        else:
            below = 0.0
        inner[tid] = below
        eq[tid] = costs[tid] + below
    rate = {r: eq[r] / deadline for r in roots}
    window = dict.fromkeys(roots, deadline)
    speeds, energy = {}, 0.0
    for tid in order:
        cost, r, kids = costs[tid], rate[tid], children[tid]
        if r <= s_max * (1 + rel_tol):
            s = min(r, s_max)
            for c in kids:
                rate[c] = r * (eq[c] / inner[tid])
                window[c] = inner[tid] / r
        else:
            s = s_max
            if cost / s_max > window[tid] * (1 + rel_tol):
                raise TreeRuleInfeasible(
                    f"task {tid!r}: work {cost} at cap {s_max:g} "
                    f"misses its window {window[tid]:g}"
                )
            rest = window[tid] - cost / s_max
            if kids and rest <= 0:
                raise TreeRuleInfeasible(f"no execution window left at task {kids[0]!r}")
            for c in kids:
                rate[c] = eq[c] / rest
                window[c] = rest
        speeds[tid] = s
        energy += cost * s * s
    return energy, speeds


def unreduced_barrier(costs, edges, deadline, s_max=math.inf):
    """A log-barrier DAG solver run on the whole graph, with no reduction.

    `costs` maps id -> work and `edges` lists (u, v) pairs. Minimizes
    Σ w³/d² over durations d and completion times t, subject to d ≥ w/s_max,
    t - d ≥ 0, t_v - d_v ≥ t_u on every edge and t ≤ deadline, by barrier
    rounds, damped Newton centring and a least-squares multiplier fit, on
    one variable pair per task. It shares no code and no method with the
    package's primal-dual solver, which makes it an oracle. The deadline must
    leave an interior (at the cap, the critical path must be shorter).
    Returns (energy, speeds, residual).
    """
    import numpy as np

    ids = sorted(costs)
    preds = {i: [] for i in ids}
    for u, v in edges:
        preds[v].append(u)
    order, placed = [], set()
    while len(order) < len(ids):  # plain topological order, smallest id first
        nxt = min(i for i in ids if i not in placed and all(p in placed for p in preds[i]))
        order.append(nxt)
        placed.add(nxt)
    n, idx = len(order), {t: k for k, t in enumerate(order)}
    pairs = sorted((idx[u], idx[v]) for u, v in set(map(tuple, edges)))
    w = np.array([costs[t] for t in order])

    def asap(d):
        t = np.array(d, dtype=float)
        for u, v in pairs:  # sorted by tail, and tails precede heads
            t[v] = max(t[v], t[u] + d[v])
        return t

    depth = np.zeros(n)
    for u, v in pairs:
        depth[v] = max(depth[v], depth[u] + 1.0)
    capped = math.isfinite(s_max)
    d0 = w / s_max if capped else w / (2.0 * float(asap(w).max()) / deadline)
    t0 = asap(d0)
    cp = float(t0.max())
    gamma = deadline / cp
    assert gamma > 1.0, "no interior: the critical path at the cap fills the deadline"
    beta = 1.0 + 0.9 * (gamma - 1.0)
    cushion = cp * (gamma - beta) / (2.0 * n)
    x = np.concatenate([beta * d0, beta * t0 + cushion * (depth + 1.0)])

    A = np.zeros((3 * n + len(pairs), 2 * n))
    rhs = np.zeros(len(A))
    for i in range(n):
        A[i, i] = 1.0
        rhs[i] = w[i] / s_max if capped else 0.0
        A[n + i, n + i], A[n + i, i] = 1.0, -1.0
        A[2 * n + i, n + i] = -1.0
        rhs[2 * n + i] = -deadline
    for r, (u, v) in enumerate(pairs, start=3 * n):
        A[r, n + v], A[r, n + u], A[r, v] = 1.0, -1.0, -1.0

    def f(xv):
        return float(np.sum(w**3 / xv[:n] ** 2))

    def grad_f(xv):
        out = np.zeros(2 * n)
        out[:n] = -2.0 * w**3 / xv[:n] ** 3
        return out

    def center(x, t):
        for _ in range(200):
            slack = A @ x - rhs
            grad = t * grad_f(x) - A.T @ (1.0 / slack)
            hess = (A.T * slack**-2) @ A
            hess[np.diag_indices(n)] += t * 6.0 * w**3 / x[:n] ** 4
            step = np.linalg.solve(hess, -grad)
            decrement = float(step @ (hess @ step))
            if decrement / 2.0 <= 1e-12:
                return x
            ray = A @ step
            alpha = min(1.0, 0.99 * float(np.min(-slack[ray < 0] / ray[ray < 0], initial=np.inf)))

            def phi(xv):
                return t * f(xv) - float(np.sum(np.log(A @ xv - rhs)))

            base = phi(x)
            while alpha > 1e-12:
                trial = x + alpha * step
                if (A @ trial - rhs).min() > 0 and (
                    phi(trial) <= base - 0.25 * alpha * decrement + 1e-12 * abs(base)
                ):
                    x = trial
                    break
                alpha *= 0.5
            else:
                return x
        return x

    def kkt_residual(x, t):
        slack = A @ x - rhs
        lam = 1.0 / (t * slack)
        g0 = grad_f(x)
        scale = max(1.0, float(np.max(np.abs(g0))))
        best = float(np.max(np.abs(g0 - A.T @ lam))) / scale
        active = lam > 1e-6 * max(1.0, float(lam.max()))
        for _ in range(5):
            if not active.any():
                break
            mu = np.linalg.lstsq(A[active].T, g0, rcond=None)[0]
            if (mu >= 0.0).all():
                refined = np.zeros_like(lam)
                refined[active] = mu
                return min(best, float(np.max(np.abs(g0 - A.T @ refined))) / scale)
            keep = np.zeros_like(active)
            keep[active] = mu > 0.0
            active = keep
        return best

    t = 1.0
    while True:
        x = center(x, t)
        if len(A) / t <= 1e-9 * max(1.0, f(x)):
            break
        t *= 10.0
    residual = kkt_residual(x, t)
    for _ in range(6):
        if residual <= 1e-8:
            break
        t *= 10.0
        x = center(x, t)
        residual = min(residual, kkt_residual(x, t))
    speeds = np.minimum(w / x[:n], s_max)
    return (
        sum(costs[i] * s * s for i, s in zip(order, speeds)),
        {i: float(s) for i, s in zip(order, speeds)},
        residual,
    )


def edge_spg(ids, edges):
    """Series-parallel decomposition by edge reduction, or None.

    `ids` lists the tasks and `edges` the (u, v) pairs. A graph with one
    source and one sink is reduced edge by edge: duplicate edges merge
    into a parallel composition, and a task other than the two ends with
    one edge in and one out is spliced out into a series composition. It
    succeeds when one source-to-sink edge is left. Each edge carries the
    node of the tasks strictly between its ends (a bare edge has none),
    and the result uses the package's decomposition format: ("series" or
    "parallel", members) nodes, children first, the root last. This
    recognises only edge-series-parallel graphs, a subset of the vertex
    series-parallel graphs the package accepts.
    """
    edges = sorted(set(map(tuple, edges)))
    preds = {i: set() for i in ids}
    succs = {i: set() for i in ids}
    for u, v in edges:
        succs[u].add(v)
        preds[v].add(u)
    sources = [i for i in ids if not preds[i]]
    sinks = [i for i in ids if not succs[i]]
    if len(ids) < 2 or len(sources) != 1 or len(sinks) != 1:
        return None
    src, snk = sources[0], sinks[0]
    sp = []

    def node(kind, members):
        sp.append((kind, tuple(members)))
        return len(sp) - 1

    # edge id -> [tail, head, interior node or None]
    live = {eid: [u, v, None] for eid, (u, v) in enumerate(edges)}
    fresh = len(live)
    changed = True
    while changed:
        changed = False
        by_pair = {}
        for eid in sorted(live):
            u, v, _ = live[eid]
            by_pair.setdefault((u, v), []).append(eid)
        for (u, v), bucket in by_pair.items():
            if len(bucket) > 1:
                parts = [live[e][2] for e in bucket if live[e][2] is not None]
                for e in bucket:
                    del live[e]
                merged = node("parallel", parts) if len(parts) > 1 else (parts or [None])[0]
                live[fresh] = [u, v, merged]
                fresh += 1
                changed = True
        if changed:
            continue
        ins = {i: [] for i in ids}
        outs = {i: [] for i in ids}
        for eid, (u, v, _) in live.items():
            outs[u].append(eid)
            ins[v].append(eid)
        for x in sorted(ids):
            if x not in (src, snk) and len(ins[x]) == len(outs[x]) == 1:
                (a,), (b,) = ins[x], outs[x]
                u, _, first = live.pop(a)
                _, v, last = live.pop(b)
                parts = [m for m in (first, x, last) if m is not None]
                live[fresh] = [u, v, node("series", parts)]
                fresh += 1
                changed = True
                break
    if len(live) != 1:
        return None
    ((u, v, interior),) = live.values()
    if (u, v) != (src, snk):
        return None
    node("series", [m for m in (src, interior, snk) if m is not None])
    return sp


def subset_sum_half(values):
    """True iff some subset of `values` sums to exactly half the total."""
    total = sum(values)
    if total % 2:
        return False
    half = total // 2
    reachable = {0}
    for v in values:
        reachable |= {r + v for r in reachable}
    return half in reachable


# ---------------------------------------------------------------------------
# oracle: 1-D convex minimization (ternary search)
# ---------------------------------------------------------------------------


def ternary_min(f, lo, hi, iters=200):
    """Minimize a strictly convex f on [lo, hi]; returns (x, f(x))."""
    a, b = lo, hi
    for _ in range(iters):
        m1 = a + (b - a) / 3
        m2 = b - (b - a) / 3
        if f(m1) <= f(m2):
            b = m2
        else:
            a = m1
    x = (a + b) / 2
    return x, f(x)


def fork_energy_given_root_speed(w0, branch_costs, deadline, s0, s_max=math.inf):
    """Energy of a fork when the root runs at s0 and every branch task is a
    leaf solved optimally (speed w/D') under the remaining deadline.

    Returns inf when some speed would exceed s_max or no time remains.
    """
    if s0 > s_max * (1 + 1e-12):
        return math.inf
    rest = deadline - w0 / s0
    if rest <= 0:
        return math.inf
    for w in branch_costs:
        if w / rest > s_max * (1 + 1e-12):
            return math.inf
    return w0 * s0 ** 2 + sum(w ** 3 for w in branch_costs) / rest ** 2


# ---------------------------------------------------------------------------
# oracle: the mode-hopping LP on the whole graph, by a row-loop simplex
# ---------------------------------------------------------------------------


def bland_simplex(c, A, b, tol=1e-10):
    """Two-phase tableau simplex with Bland's rule, one row at a time.

    Solves min c.x over {A x <= b, x >= 0} by the same pivoting rules and
    tolerance as `reclaim.simplex.solve`, with every ratio test and row
    operation written as a plain loop over the tableau's rows. Returns
    (x, objective, pivots); raises ValueError on an empty polyhedron and
    ArithmeticError on an unbounded ray.
    """
    import numpy as np

    c = np.asarray(c, dtype=float)
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = A.shape
    neg = b < 0
    art_rows = np.flatnonzero(neg)
    k = len(art_rows)
    width = n + m + k + 1
    T = np.zeros((m, width))
    T[:, :n] = A
    T[:, n : n + m] = np.eye(m)
    T[:, -1] = b
    T[neg, :] *= -1.0
    basis = np.array([n + i for i in range(m)], dtype=int)
    for j, row in enumerate(art_rows):
        T[row, n + m + j] = 1.0
        basis[row] = n + m + j
    pivots = 0

    def eliminate(leave, enter):
        T[leave, :] /= T[leave, enter]
        for r in range(m):
            if r != leave and T[r, enter] != 0.0:
                T[r, :] -= T[r, enter] * T[leave, :]
        basis[leave] = enter

    def iterate(obj, allowed):
        nonlocal pivots
        while True:
            enter = next((j for j in range(allowed) if obj[j] < -tol), -1)
            if enter < 0:
                return
            leave, best = -1, np.inf
            for r in range(m):
                coef = T[r, enter]
                if coef > tol:
                    ratio = T[r, -1] / coef
                    if ratio < best - tol or (
                        abs(ratio - best) <= tol and (leave < 0 or basis[r] < basis[leave])
                    ):
                        best, leave = ratio, r
            if leave < 0:
                raise ArithmeticError("unbounded ray")
            pivots += 1
            eliminate(leave, enter)
            obj -= obj[enter] * T[leave, :]

    if k:
        obj1 = np.zeros(width)
        obj1[n + m : n + m + k] = 1.0
        for row in art_rows:
            obj1 -= T[row, :]
        iterate(obj1, n + m)
        if -obj1[-1] > 1e-7 * (1.0 + float(np.max(np.abs(b)))):
            raise ValueError("no feasible point")
        for r in range(m):
            if basis[r] >= n + m:
                for j in range(n + m):
                    if abs(T[r, j]) > tol:
                        eliminate(r, j)
                        break
                else:
                    T[r, :] = 0.0
                    basis[r] = -1
    obj2 = np.zeros(width)
    obj2[:n] = c
    for r in range(m):
        if basis[r] >= 0 and obj2[basis[r]] != 0.0:
            obj2 -= obj2[basis[r]] * T[r, :]
    iterate(obj2, n + m)
    x = np.zeros(n)
    for r in range(m):
        if 0 <= basis[r] < n:
            x[basis[r]] = T[r, -1]
    np.maximum(x, 0.0, out=x)
    return x, float(c @ x), pivots


def unreduced_vdd(g, model, drop=1e-12):
    """The mode-hopping LP of the whole execution graph, solved and expanded.

    Builds `reclaim.vdd.build_lp(g, model)` (one start time and one share
    per mode for every task), solves it with `bland_simplex` and reads
    each task's profile off its own shares, dropping shares below `drop`.
    Returns (energy, profiles, starts): energy is the sum of s^3 d over
    the kept slices, profiles map id -> [(speed, duration), ...].
    """
    from reclaim.vdd import build_lp

    problem = build_lp(g, model)
    x, _, _ = bland_simplex(problem.objective, problem.lhs, problem.rhs)
    order = [name[2:-1] for name in problem.var_names if name.startswith("b[")]
    n, m = len(order), len(model.modes)
    profiles, starts = {}, {}
    for i, tid in enumerate(order):
        shares = x[n + i * m : n + (i + 1) * m]
        profiles[tid] = [(s, float(a)) for s, a in zip(model.modes, shares) if a >= drop]
        starts[tid] = float(x[i])
    energy = sum(s**3 * d for parts in profiles.values() for s, d in parts)
    return energy, profiles, starts


# ---------------------------------------------------------------------------
# random generators (plain data; tests build the real objects)
# ---------------------------------------------------------------------------


def random_instance(rng, n, n_proc=2, p_edge=0.35, cost_range=(0.5, 4.0)):
    """A random precedence DAG plus a consistent allocation.

    Tasks are assigned to processors in a topological order of the precedence
    relation, so serialization edges can never close a cycle. Returns
    (tasks, precedence, allocation) with tasks = [(id, cost), ...] and
    allocation = [(proc, [ids...]), ...]; the deadline is left to the caller.
    """
    ids = [f"T{k + 1}" for k in range(n)]
    tasks = [(i, rng.uniform(*cost_range)) for i in ids]
    precedence = []
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < p_edge:
                precedence.append((ids[a], ids[b]))
    queues = [[] for _ in range(n_proc)]
    for i in ids:  # index order is a topological order of `precedence`
        queues[rng.randrange(n_proc)].append(i)
    allocation = [(p, q) for p, q in enumerate(queues) if q]
    return tasks, precedence, allocation


def all_edges(precedence, allocation):
    """Precedence plus serialization pairs, the way the model combines them."""
    edges = set(map(tuple, precedence))
    for _, q in allocation:
        edges.update(zip(q, q[1:]))
    return edges


def pick_deadline(rng, tasks, edges, top_speed, slack_range):
    """Deadline = (all-fastest makespan) × slack, slack drawn from the range."""
    durations = {i: w / top_speed for i, w in tasks}
    return ref_makespan(edges, durations) * rng.uniform(*slack_range)


def random_tree(rng, n, cost_range=(0.5, 3.0)):
    """Random rooted tree as plain data: {"id", "cost", "children": [...]}."""
    nodes = [
        {"id": f"N{k}", "cost": rng.uniform(*cost_range), "children": []}
        for k in range(n)
    ]
    for k in range(1, n):
        nodes[rng.randrange(k)]["children"].append(nodes[k])
    return nodes[0]


def tree_edges_and_costs(root):
    """Flatten plain tree data into ({id: cost}, [(parent, child), ...])."""
    costs, edges = {}, []
    stack = [root]
    while stack:
        node = stack.pop()
        costs[node["id"]] = node["cost"]
        for child in node["children"]:
            edges.append((node["id"], child["id"]))
            stack.append(child)
    return costs, edges


def random_spg(rng, n_tasks, cost_range=(0.5, 3.0), parallel_ops=None):
    """Random two-terminal series-parallel graph as plain data.

    Node shape: {"kind": "elem"|"series"|"parallel", "children": [...],
    "source": id, "sink": id}. A series composition creates one merge task,
    so n_tasks = 2 + number of series ops. Returns (root, {id: cost}).
    """
    n_series = n_tasks - 2
    if n_series < 0:
        raise ValueError("an SPG has at least two tasks")
    if parallel_ops is None:
        parallel_ops = rng.randint(1, max(1, n_series + 1))
    ops = ["series"] * n_series + ["parallel"] * parallel_ops
    rng.shuffle(ops)
    pool = [{"kind": "elem", "children": []} for _ in range(len(ops) + 1)]

    def take():
        k = rng.randrange(len(pool))
        pool[k], pool[-1] = pool[-1], pool[k]
        return pool.pop()

    for op in ops:
        a, b = take(), take()
        pool.append({"kind": op, "children": [a, b]})
    root = pool[0]

    counter = [0]

    def fresh():
        counter[0] += 1
        return f"S{counter[0]}"

    root["source"], root["sink"] = fresh(), fresh()
    stack = [root]
    while stack:
        node = stack.pop()
        if node["kind"] == "series":
            mid = fresh()
            left, right = node["children"]
            left["source"], left["sink"] = node["source"], mid
            right["source"], right["sink"] = mid, node["sink"]
            stack += [left, right]
        elif node["kind"] == "parallel":
            for child in node["children"]:
                child["source"], child["sink"] = node["source"], node["sink"]
                stack.append(child)
    costs = {f"S{k + 1}": rng.uniform(*cost_range) for k in range(counter[0])}
    return root, costs


def spg_edges(root):
    """Distinct (source, sink) pairs of the elementary components."""
    edges = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if node["kind"] == "elem":
            edges.add((node["source"], node["sink"]))
        else:
            stack.extend(node["children"])
    return edges


def random_partition_values(rng, max_n=8, max_total=24):
    """Integer lists for the 2-partition fixtures: 2 ≤ n ≤ max_n, Σ ≤ max_total."""
    n = rng.randint(2, max_n)
    while True:
        values = [rng.randint(1, max(1, max_total // n)) for _ in range(n)]
        if sum(values) <= max_total:
            return values
