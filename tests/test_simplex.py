"""Dense two-phase simplex: known optima, failure modes, random cross-checks."""

import itertools
import logging
import random

import numpy as np
import pytest

import reclaim as rc
import support
from reclaim import LpInfeasibleError, LpNumericalError
from reclaim import simplex
from reclaim.vdd import build_lp


def test_known_optimum():
    # min -x1 - 2*x2  s.t.  x1 + x2 <= 4, x1 <= 2  ->  x = (0, 4)
    x, obj = simplex.solve([-1.0, -2.0], [[1.0, 1.0], [1.0, 0.0]], [4.0, 2.0])
    assert obj == pytest.approx(-8.0, abs=1e-9)
    assert x[0] == pytest.approx(0.0, abs=1e-9)
    assert x[1] == pytest.approx(4.0, abs=1e-9)


def test_negative_rhs_forces_phase_one():
    # min x1  s.t.  -x1 <= -3  (that is x1 >= 3)
    x, obj = simplex.solve([1.0], [[-1.0]], [-3.0])
    assert obj == pytest.approx(3.0, abs=1e-9)
    assert x[0] == pytest.approx(3.0, abs=1e-9)


def test_infeasible_system():
    # x1 >= 3 and x1 <= 1 cannot both hold
    with pytest.raises(LpInfeasibleError):
        simplex.solve([1.0], [[-1.0], [1.0]], [-3.0, 1.0])


def test_unbounded_objective():
    # min -x1 with only x1 >= 0 in play
    with pytest.raises(LpNumericalError):
        simplex.solve([-1.0], [[-1.0]], [0.0])


def test_redundant_rows_are_harmless():
    x, obj = simplex.solve(
        [-1.0, -1.0],
        [[1.0, 1.0], [1.0, 1.0], [2.0, 2.0]],
        [3.0, 3.0, 6.0],
    )
    assert obj == pytest.approx(-3.0, abs=1e-9)
    assert sum(x) == pytest.approx(3.0, abs=1e-9)


def test_zero_objective_feasibility_probe():
    x, obj = simplex.solve([0.0, 0.0], [[-1.0, -1.0]], [-2.0])
    assert obj == 0.0
    assert x[0] + x[1] >= 2.0 - 1e-9


def _oracle_optimum(c, A, b):
    """Minimum of c.x over {Ax <= b, x >= 0} by basic-solution enumeration.

    Appends slack columns and tries every basis of [A | I]; returns None
    when no feasible vertex exists. Exponential, so callers keep m+n tiny.
    """
    A = np.asarray(A, dtype=float)
    m, n = A.shape
    full = np.hstack([A, np.eye(m)])
    c_full = np.concatenate([np.asarray(c, dtype=float), np.zeros(m)])
    best = None
    for cols in itertools.combinations(range(n + m), m):
        basis = full[:, cols]
        try:
            xb = np.linalg.solve(basis, b)
        except np.linalg.LinAlgError:
            continue
        if (xb < -1e-9).any():
            continue
        x = np.zeros(n + m)
        x[list(cols)] = xb
        val = float(c_full @ x)
        if best is None or val < best:
            best = val
    return best


def test_matches_vertex_enumeration_on_random_lps():
    rng = random.Random(42)
    checked = 0
    for _ in range(60):
        n = rng.randint(2, 4)
        m = rng.randint(2, 4)
        A = [[rng.randint(-3, 4) for _ in range(n)] for _ in range(m)]
        x_star = [rng.randint(0, 3) for _ in range(n)]
        # b keeps x_star feasible; negative entries exercise phase one.
        b = [sum(A[i][j] * x_star[j] for j in range(n)) + rng.randint(0, 4) for i in range(m)]
        # one row bounding the simplex keeps the problem finite
        A.append([1.0] * n)
        b.append(float(sum(x_star) + 10))
        c = [rng.randint(-4, 4) for _ in range(n)]

        expected = _oracle_optimum(c, A, b)
        assert expected is not None  # x_star is feasible by construction
        _, obj = simplex.solve(c, A, b)
        assert obj == pytest.approx(expected, abs=1e-7)
        checked += 1
    assert checked == 60


def test_solution_vector_is_clean():
    x, _ = simplex.solve([-1.0, 0.0], [[1.0, 1.0]], [2.0])
    assert all(v >= 0.0 for v in x)
    assert len(x) == 2


def _random_lp(rng):
    """One LP of `test_matches_vertex_enumeration_on_random_lps`'s kind."""
    n = rng.randint(2, 4)
    m = rng.randint(2, 4)
    A = [[rng.randint(-3, 4) for _ in range(n)] for _ in range(m)]
    x_star = [rng.randint(0, 3) for _ in range(n)]
    b = [sum(A[i][j] * x_star[j] for j in range(n)) + rng.randint(0, 4) for i in range(m)]
    A.append([1.0] * n)
    b.append(float(sum(x_star) + 10))
    c = [rng.randint(-4, 4) for _ in range(n)]
    return c, A, b


def test_vectorised_pivots_match_the_row_loop(build, caplog, monkeypatch):
    rng = random.Random(42)
    lps = [_random_lp(rng) for _ in range(60)]
    for _ in range(30):
        tasks, prec, alloc = support.random_instance(rng, rng.randint(3, 12), n_proc=3)
        modes = sorted({round(rng.uniform(0.5, 6.0), 3) for _ in range(rng.randint(2, 5))})
        edges = support.all_edges(prec, alloc)
        deadline = support.pick_deadline(rng, tasks, edges, modes[-1], (1.02, 3.0))
        problem = build_lp(build(tasks, prec, [q for _, q in alloc], deadline),
                           rc.VddModel(tuple(modes)))
        lps.append((problem.objective, problem.lhs, problem.rhs))
    # The CLI stops the package logger from propagating; let records through.
    monkeypatch.setattr(logging.getLogger("reclaim"), "propagate", True)
    caplog.set_level(logging.DEBUG, logger="reclaim.simplex")
    for c, A, b in lps:
        caplog.clear()
        x, obj = simplex.solve(c, A, b)
        (record,) = [r for r in caplog.records if r.msg.startswith("simplex finished")]
        x_ref, obj_ref, pivots_ref = support.bland_simplex(c, A, b)
        assert x.tobytes() == x_ref.tobytes()
        assert obj == obj_ref
        assert record.args[0] == pivots_ref
