"""Dense two-phase simplex with Bland's rule.

Solves min c.x subject to A x <= b, x >= 0. Bland's rule makes every run
deterministic and cycle-free at the cost of a few extra pivots: the
entering column is the lowest-index negative reduced cost, and the
leaving row the minimum ratio among rows with a positive entry in that
column, ties going to the lowest basis index. The choices are made in
that order and the tolerance-aware ratio comparison is sequential, but
each pivot's row operations run in numpy over the rows with a nonzero
entry in the entering column only, so a pivot costs one outer product
instead of a Python loop over the tableau.
"""

from __future__ import annotations

import logging

import numpy as np

from .errors import LpInfeasibleError, LpNumericalError

log = logging.getLogger("reclaim.simplex")

PIVOT_TOL = 1e-10


def solve(c, A, b, max_pivots: int = 50_000) -> tuple[np.ndarray, float]:
    """Return (x, objective) for min c.x over {A x <= b, x >= 0}.

    Raises LpInfeasibleError when the polyhedron is empty, and
    LpNumericalError when the pivot guard trips or an unbounded ray is
    met (a well-posed schedule program produces neither).
    """
    c = np.asarray(c, dtype=float)
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = A.shape
    if c.shape != (n,) or b.shape != (m,):
        raise ValueError("inconsistent LP dimensions")

    # Equality form: A x + I s = b with slack basis. Rows with negative
    # rhs are flipped (their slack enters with -1) and get an artificial
    # variable so phase 1 can start from an identity basis.
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

    def pivot(leave: int, enter: int) -> None:
        # Row operations touch only the rows with a nonzero entry in the
        # entering column; the others would be left unchanged anyway.
        T[leave] /= T[leave, enter]
        rows = np.flatnonzero(T[:, enter])
        rows = rows[rows != leave]
        T[rows] -= np.outer(T[rows, enter], T[leave])
        basis[leave] = enter

    def iterate(obj: np.ndarray, allowed: int) -> int:
        # Bland: entering = lowest-index negative reduced cost; leaving =
        # min-ratio row, ties by lowest basis index. Returns pivot count.
        nonlocal pivots
        while True:
            negative = np.flatnonzero(obj[:allowed] < -PIVOT_TOL)
            if not negative.size:
                return pivots
            enter = int(negative[0])
            col = T[:, enter]
            rows = np.flatnonzero(col > PIVOT_TOL)
            ratios = T[rows, -1] / col[rows]
            leave = -1
            best = np.inf
            for r, ratio in zip(rows.tolist(), ratios.tolist()):
                if ratio < best - PIVOT_TOL or (
                    abs(ratio - best) <= PIVOT_TOL
                    and (leave < 0 or basis[r] < basis[leave])
                ):
                    best = ratio
                    leave = r
            if leave < 0:
                raise LpNumericalError("unbounded ray met during pivoting")
            pivots += 1
            if pivots > max_pivots:
                raise LpNumericalError(f"pivot guard tripped after {max_pivots} pivots")
            pivot(leave, enter)
            obj -= obj[enter] * T[leave, :]

    if k:
        # Phase 1: minimize the artificial total.
        obj1 = np.zeros(width)
        obj1[n + m :] = 0.0
        obj1[n + m : n + m + k] = 1.0
        for row in art_rows:
            obj1 -= T[row, :]
        iterate(obj1, n + m)  # artificials never re-enter
        scale = 1.0 + float(np.max(np.abs(b)))
        if -obj1[-1] > 1e-7 * scale:
            raise LpInfeasibleError(f"constraints admit no solution (gap {-obj1[-1]:.3e})")
        # Pivot surviving artificials out, or drop their rows as redundant.
        for r in np.flatnonzero(basis >= n + m).tolist():
            nonzero = np.flatnonzero(np.abs(T[r, : n + m]) > PIVOT_TOL)
            if nonzero.size:
                pivot(r, int(nonzero[0]))
            else:
                T[r, :] = 0.0  # redundant constraint
                basis[r] = -1

    # Only structural variables cost anything, and basic columns are exact
    # unit vectors, so a row's basic cost is still c's entry when reached.
    obj2 = np.zeros(width)
    obj2[:n] = c
    for r in np.flatnonzero((basis >= 0) & (basis < n)).tolist():
        if obj2[basis[r]] != 0.0:
            obj2 -= obj2[basis[r]] * T[r, :]
    iterate(obj2, n + m)

    x = np.zeros(n)
    structural = (basis >= 0) & (basis < n)
    x[basis[structural]] = T[structural, -1]
    np.maximum(x, 0.0, out=x)  # scrub -1e-17 style dust
    value = float(c @ x)
    log.debug("simplex finished: %d pivots, objective %.12g", pivots, value)
    return x, value
