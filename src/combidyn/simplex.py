"""Dense bounded-variable dual simplex started at the box optimum.

Solves  max c^T x  subject to  rows @ x <= rhs,  0 <= x <= 1,  with one slack
per row.  The start is the optimum of the box alone: x_j = 1 exactly when
c_j > 0, with every slack basic.  Its reduced costs are the objective itself,
so the start is dual feasible for any right-hand side, and no phase 1 or
artificial column is needed, not even for rows with a negative right-hand
side.  If the start satisfies the rows, it is optimal after zero pivots.

Each iteration the smallest-index basic variable outside its bounds leaves.
The ratio test flips bounds (Koberstein, *The dual simplex method, techniques
for a fast and stable implementation*, PhD thesis, Paderborn (2005)): it
walks the columns that keep the reduced costs dual feasible in order of
ratio, smallest index first among equal ratios.  A boxed column passed while
the leaving row stays infeasible moves to its other bound, and the first
column that would clear the row enters.  When every eligible column is
passed and the row is still infeasible, no point of the box satisfies the
rows.

The basis inverse is kept densely and updated by each pivot's rank-one
(eta) step; it is rebuilt from the basis every _REFRESH pivots.  The duals
are c_B B^-1 and the leaving row is read from B^-1.  The final vertex is
solved afresh from its basis, so totally unimodular rows yield vertices that
are integral up to the roundoff of one dense solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InfeasibleError, NumericError

_PIVOT_TOL = 1e-11
_FEAS_TOL = 1e-7
_MAX_ITER = 20000
_REFRESH = 20  # pivots between rebuilds of the basis inverse


@dataclass(frozen=True)
class LpProblem:
    """A linear program over the unit box: max objective @ x, rows @ x <= rhs."""

    objective: np.ndarray
    rows: np.ndarray
    rhs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.objective, dtype=float).reshape(-1)
        A = np.asarray(self.rows, dtype=float)
        if A.size == 0:
            A = A.reshape(0, c.size)
        if A.ndim != 2 or A.shape[1] != c.size:
            raise DimensionError("constraint rows do not match the objective length")
        b = np.asarray(self.rhs, dtype=float).reshape(-1)
        if b.size != A.shape[0]:
            raise DimensionError("right-hand side does not match the number of rows")
        object.__setattr__(self, "objective", c)
        object.__setattr__(self, "rows", A)
        object.__setattr__(self, "rhs", b)


def solve_boxed_lp(problem: LpProblem):
    """Solve the boxed LP; returns (x, value).

    Raises :class:`InfeasibleError` when no point satisfies the rows inside
    the unit box.
    """
    c0 = problem.objective
    rows = problem.rows
    rhs = problem.rhs
    l, m = rows.shape

    A = np.hstack([rows, np.eye(l)])
    c = np.concatenate([c0, np.zeros(l)])
    hi = np.concatenate([np.ones(m), np.full(l, np.inf)])  # the flip range of a column
    at_upper = np.concatenate([c0 > 0.0, np.zeros(l, dtype=bool)])
    basis = np.arange(m, m + l)  # one variable index per row
    inverse = np.eye(l)  # B^-1 of the slack basis

    for pivots in range(_MAX_ITER):
        if pivots and pivots % _REFRESH == 0:
            inverse = np.linalg.inv(A[:, basis])
        x = at_upper.astype(float)  # nonbasic values; every lower bound is 0
        x[basis] = 0.0
        residual = rhs - A @ x
        xb = inverse @ residual
        below, above = xb < -_FEAS_TOL, xb > hi[basis] + _FEAS_TOL
        out = below | above
        if not out.any():
            x[basis] = np.linalg.solve(A[:, basis], residual)  # the vertex, solved afresh
            break
        r = int(np.argmin(np.where(out, basis, m + l)))  # the smallest leaving index

        reduced = c - (c[basis] @ inverse) @ A
        alpha = inverse[r] @ A  # row r of B^-1 A
        # The leaving value must rise when below its bound and fall when
        # above; a column at its lower bound can only rise, at its upper
        # bound only fall.
        step = alpha if below[r] else -alpha
        eligible = np.where(at_upper, step > _PIVOT_TOL, step < -_PIVOT_TOL)
        eligible[basis] = False
        cand = np.flatnonzero(eligible)
        ratio = np.abs(reduced[cand]) / np.abs(alpha[cand])
        walk = cand[np.argsort(ratio, kind="stable")]  # by ratio, then by index
        # Passing a column moves it across its range and the leaving value by
        # |alpha| times that range; the first column that clears the row enters.
        infeasibility = -xb[r] if below[r] else xb[r] - hi[basis[r]]
        k = int(np.searchsorted(np.cumsum(np.abs(alpha[walk]) * hi[walk]), infeasibility))
        if k == walk.size:
            raise InfeasibleError("no point satisfies the rows inside the unit box")
        entering = walk[k]
        at_upper[walk[:k]] ^= True

        at_upper[basis[r]] = above[r]
        basis[r] = entering
        column = inverse @ A[:, entering]
        pivot_row = inverse[r] / column[r]
        inverse -= column[:, None] * pivot_row
        inverse[r] = pivot_row
    else:
        raise NumericError("simplex iteration guard exceeded")

    sol = np.clip(x[:m], 0.0, 1.0)
    slack_violation = rows @ sol - rhs
    if np.any(slack_violation > _FEAS_TOL * (1.0 + np.abs(rhs).max(initial=1.0))):
        raise NumericError("simplex returned an infeasible point")
    return sol, float(c0 @ sol)
