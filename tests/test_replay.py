"""Every solve and approx report replays through validate and power-profile.

The reports come from the command line, as a user gets them. The checks
use none of the package's solvers: the instances come from the test
generators, timing and energy are recomputed in `support`, the power
profile is integrated here, and the mode-hopping energy is compared with
a linear program written here and solved by HiGHS.
"""

import json
import random

import pytest

import support
from reclaim.cli import main

SHAPES = ["independent", "chain", "fork", "join", "out-tree", "in-tree", "spg", "dag"]
# The label `solve --model continuous` must report for each shape.
LABELS = {"join": "fork", "out-tree": "tree", "in-tree": "tree"}
# With K = 1 the approx schemes' geometric ladder from 1 reaches the top mode.
MODES = (1.0, 2.0, 4.0)
SEEDS = (1, 2)


def make_instance(shape: str, rng: random.Random) -> dict:
    """A small instance of the shape, each task on its own processor
    (a chain on one), with a deadline the top mode meets."""
    n = rng.randint(4, 7)
    if shape in ("out-tree", "in-tree"):
        # Root with two subtrees, one of them branching: neither a chain nor a star.
        data = {"id": "N0", "cost": 1.0, "children": [
            {"id": "N1", "cost": 1.0, "children": [
                {"id": "N3", "cost": 1.0, "children": []},
                {"id": "N4", "cost": 1.0, "children": []}]},
            {"id": "N2", "cost": 1.0, "children": []}]}
        costs, edges = support.tree_edges_and_costs(data)
        for k in range(5, n + 3):
            parent = rng.choice(sorted(costs))
            costs[f"N{k}"] = 1.0
            edges.append((parent, f"N{k}"))
        costs = {t: rng.uniform(0.5, 3.0) for t in costs}
        if shape == "in-tree":
            edges = [(v, u) for u, v in edges]
    elif shape == "spg":
        while True:
            data, costs = support.random_spg(rng, n)
            edges = sorted(support.spg_edges(data))
            indeg = [v for _, v in edges]
            outdeg = [u for u, _ in edges]
            # A node joining two paths and one splitting them: not a tree.
            if max(map(indeg.count, indeg)) > 1 and max(map(outdeg.count, outdeg)) > 1:
                break
    else:
        costs = {f"T{k}": rng.uniform(0.5, 3.0) for k in range(n)}
        ids = sorted(costs)
        if shape == "independent" or shape == "chain":
            edges = []
        elif shape == "fork":
            edges = [(ids[0], t) for t in ids[1:]]
        elif shape == "join":
            edges = [(t, ids[0]) for t in ids[1:]]
        else:
            # T0 and T1 are both sources and T2 joins them while T1 also
            # splits: two sources rule out a series-parallel graph.
            edges = [("T0", "T2"), ("T1", "T2"), ("T1", "T3")]
            edges += [(a, b) for i, a in enumerate(ids) for b in ids[i + 1:]
                      if b > "T3" and rng.random() < 0.4]
    ids = sorted(costs)
    allocation = [ids] if shape == "chain" else [[t] for t in ids]
    all_edges = support.all_edges(edges, list(enumerate(allocation)))
    deadline = support.pick_deadline(rng, list(costs.items()), all_edges, MODES[-1], (1.3, 2.5))
    return {
        "tasks": [{"id": t, "cost": costs[t]} for t in ids],
        "precedence": [list(e) for e in edges],
        "allocation": [{"processor": k, "order": order} for k, order in enumerate(allocation)],
        "deadline": deadline,
    }


def instance_edges(instance: dict) -> set:
    precedence = [tuple(e) for e in instance["precedence"]]
    allocation = [(row["processor"], row["order"]) for row in instance["allocation"]]
    return support.all_edges(precedence, allocation)


def run(capsys, *argv) -> str:
    code = main(list(argv))
    out, err = capsys.readouterr()
    assert code == 0, f"{' '.join(argv)}: exit {code}: {err}"
    return out


def solve(capsys, tmp_path, name: str, *argv) -> dict:
    path = tmp_path / f"{name}.json"
    run(capsys, *argv, "--out", str(path))
    return json.loads(path.read_text())


def replay(capsys, tmp_path, inst_path: str, instance: dict, name: str, *argv) -> dict:
    """Solve, then check the report against validate, the power profile
    and a re-timing of its own schedule."""
    report = solve(capsys, tmp_path, name, *argv)
    report_path = str(tmp_path / f"{name}.json")
    energy = report["energy"]

    out = run(capsys, "validate", inst_path, report_path)
    checked = json.loads(out)
    assert checked["violations"] == []
    assert checked["feasible"] is True
    assert checked["energy"] == pytest.approx(energy, rel=1e-9)

    csv = run(capsys, "power-profile", inst_path, report_path)
    rows = [tuple(map(float, line.split(","))) for line in csv.strip().splitlines()[1:]]
    integral = sum(level * (b - a) for (a, level), (b, _) in zip(rows, rows[1:]))
    assert integral == pytest.approx(energy, rel=1e-7)

    costs = {t["id"]: t["cost"] for t in instance["tasks"]}
    durations, spent = {}, 0.0
    for entry in report["schedule"]:
        profile, w = entry["profile"], costs[entry["id"]]
        if "constant" in profile:
            s = profile["constant"]
            durations[entry["id"]] = w / s
            spent += w * s * s
        else:
            durations[entry["id"]] = sum(d for _, d in profile["segments"])
            spent += sum(s**3 * d for s, d in profile["segments"])
            assert sum(s * d for s, d in profile["segments"]) == pytest.approx(w, rel=1e-9)
    assert set(durations) == set(costs)
    assert spent == pytest.approx(energy, rel=1e-9)
    makespan = support.ref_makespan(instance_edges(instance), durations)
    assert makespan <= instance["deadline"] * (1 + 1e-9)
    return report


@pytest.fixture(params=[(shape, seed) for shape in SHAPES for seed in SEEDS],
                ids=lambda p: f"{p[0]}-{p[1]}")
def case(request, tmp_path):
    shape, seed = request.param
    instance = make_instance(shape, random.Random(f"{shape}-{seed}"))
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(instance))
    return shape, instance, str(path)


def test_continuous_reports_replay(capsys, tmp_path, case):
    """Uncapped, then under a cap between the lowest feasible one and
    the uncapped top speed where that interval is not empty."""
    shape, instance, path = case
    free = replay(capsys, tmp_path, path, instance, "free",
                  "solve", path, "--model", "continuous")
    assert free["structure"] == LABELS.get(shape, shape)

    costs = {t["id"]: t["cost"] for t in instance["tasks"]}
    low = support.ref_makespan(instance_edges(instance), costs) / instance["deadline"]
    top = max(free["speeds"].values())
    if top > low * (1 + 1e-3):
        cap = (low + top) / 2
        capped = replay(capsys, tmp_path, path, instance, "capped",
                        "solve", path, "--model", "continuous", "--smax", repr(cap))
        assert max(capped["speeds"].values()) <= cap * (1 + 1e-9)
        assert capped["energy"] >= free["energy"] * (1 - 1e-9)


def test_finite_model_reports_replay(capsys, tmp_path, case):
    _, instance, path = case
    modes = ",".join(map(str, MODES))
    grid = ["--smin", "1", "--smax", "4", "--delta", "1"]
    for name, argv in [
        ("vdd", ["solve", path, "--model", "vdd", "--modes", modes]),
        ("discrete", ["solve", path, "--model", "discrete", "--modes", modes]),
        ("incremental", ["solve", path, "--model", "incremental", *grid]),
        ("approx-discrete", ["approx", path, "--model", "discrete", "--modes", modes, "--K", "1"]),
        ("approx-incremental", ["approx", path, "--model", "incremental", *grid, "--K", "1"]),
    ]:
        replay(capsys, tmp_path, path, instance, name, *argv)


def mode_hopping_lp(instance: dict, modes) -> float:
    """Minimum energy with mode switching: time t[i, j] at mode j per task
    and a start b[i], work equalities, precedence and deadline rows."""
    optimize = pytest.importorskip("scipy.optimize")
    ids = [t["id"] for t in instance["tasks"]]
    costs = {t["id"]: t["cost"] for t in instance["tasks"]}
    n, m = len(ids), len(modes)
    pos = {t: i for i, t in enumerate(ids)}

    def time_var(i, j):
        return i * m + j

    def start_var(i):
        return n * m + i

    size = n * m + n
    c = [0.0] * size
    a_eq, b_eq, a_ub, b_ub = [], [], [], []
    for i, t in enumerate(ids):
        row = [0.0] * size
        for j, s in enumerate(modes):
            c[time_var(i, j)] = s**3
            row[time_var(i, j)] = s
        a_eq.append(row)
        b_eq.append(costs[t])

    def finish_row(i):
        row = [0.0] * size
        row[start_var(i)] = 1.0
        for j in range(m):
            row[time_var(i, j)] = 1.0
        return row

    for i in range(n):
        a_ub.append(finish_row(i))
        b_ub.append(instance["deadline"])
    for u, v in instance_edges(instance):
        row = finish_row(pos[u])
        row[start_var(pos[v])] -= 1.0
        a_ub.append(row)
        b_ub.append(0.0)
    done = optimize.linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                            bounds=(0, None), method="highs")
    assert done.status == 0, done.message
    return done.fun


def test_vdd_energy_matches_highs(capsys, tmp_path, case):
    _, instance, path = case
    expected = mode_hopping_lp(instance, MODES)
    report = solve(capsys, tmp_path, "vdd", "solve", path, "--model", "vdd",
                   "--modes", ",".join(map(str, MODES)))
    assert report["energy"] == pytest.approx(expected, rel=1e-6)
