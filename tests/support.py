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


def suffix_walk_search(order, costs, edges, deadline, speeds, budget, rel_tol=1e-9):
    """The exact search with a deadline test that walks the whole unfixed
    suffix at the fastest speed at every node.

    Fixes tasks in `order`, tries speeds ascending and prunes on energy
    (incumbent versus all remaining work at the slowest speed) and on the
    deadline, with the same floating-point operations in the same order
    as the package's search, so its node and prune counts must match.
    Returns None when even the fastest speed misses the deadline, else a
    dict with `energy`, `speeds` (None without an incumbent), `nodes`,
    `pruned_deadline`, `pruned_energy` and `budget_hit`, the last true
    when node `budget + 1` was reached.
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

    if walk(-1) > limit:
        return None
    floor = [0.0] * (n + 1)
    for i in range(n - 1, -1, -1):
        floor[i] = floor[i + 1] + cost[i] * slowest * slowest
    out = {"energy": math.inf, "speeds": None, "nodes": 0,
           "pruned_deadline": 0, "pruned_energy": 0, "budget_hit": False}
    chosen = [0.0] * n

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
            chosen[i] = s
            if not descend(i + 1, extended):
                return False
        return True

    out["budget_hit"] = not descend(0, 0.0)
    return out


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
