"""Dense bounded-variable dual simplex started at the box optimum.

Solves  max c^T x  subject to  rows @ x <= rhs,  0 <= x <= 1,  with one slack
per row.  The start is the optimum of the box alone: x_j = 1 exactly when
c_j > 0, with every slack basic.  Its reduced costs are the objective itself,
so the start is dual feasible for any right-hand side, and no phase 1 or
artificial column is needed, not even for rows with a negative right-hand
side.  If the start satisfies the rows, it is optimal after zero pivots.

Each iteration the smallest-index basic variable outside its bounds leaves,
and the smallest-index column of minimal ratio among those that keep the
reduced costs dual feasible enters.  This dual form of Bland's rule rules out
cycling; when no column is eligible, no point of the box satisfies the rows.
See Koberstein, *The dual simplex method, techniques for a fast and stable
implementation*, PhD thesis, Paderborn (2005).  Everything is dense and the
basic values are re-solved from the basis each iteration: the programs here
are small and exactness matters more than speed, in particular so that
totally unimodular rows yield exactly integral vertices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InfeasibleError, NumericError

_PIVOT_TOL = 1e-11
_FEAS_TOL = 1e-7
_MAX_ITER = 20000


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

    eye = np.eye(l)
    A = np.hstack([rows, eye])
    c = np.concatenate([c0, np.zeros(l)])
    hi = np.concatenate([np.ones(m), np.full(l, np.inf)])
    at_upper = np.concatenate([c0 > 0.0, np.zeros(l, dtype=bool)])
    basis = np.arange(m, m + l)  # one variable index per row

    for _ in range(_MAX_ITER):
        x = at_upper.astype(float)  # nonbasic values; every lower bound is 0
        x[basis] = 0.0
        B = A[:, basis]
        x[basis] = np.linalg.solve(B, rhs - A @ x)

        below = x[basis] < -_FEAS_TOL
        above = x[basis] > hi[basis] + _FEAS_TOL
        out = np.flatnonzero(below | above)
        if out.size == 0:
            break
        r = out[np.argmin(basis[out])]

        # Duals and row r of B^-1 A from one solve with B^T.
        y, rho = np.linalg.solve(B.T, np.column_stack([c[basis], eye[r]])).T
        reduced = c - y @ A
        alpha = rho @ A
        # The leaving value must rise when below its bound and fall when
        # above; a column at its lower bound can only rise, at its upper
        # bound only fall.
        step = alpha if below[r] else -alpha
        eligible = np.where(at_upper, step > _PIVOT_TOL, step < -_PIVOT_TOL)
        eligible[basis] = False
        if not eligible.any():
            raise InfeasibleError("no point satisfies the rows inside the unit box")
        ratio = np.full(m + l, np.inf)
        ratio[eligible] = np.abs(reduced[eligible]) / np.abs(alpha[eligible])
        entering = int(np.argmin(ratio))  # the first index of minimal ratio

        at_upper[basis[r]] = above[r]
        basis[r] = entering
    else:
        raise NumericError("simplex iteration guard exceeded")

    sol = np.clip(x[:m], 0.0, 1.0)
    slack_violation = rows @ sol - rhs
    if np.any(slack_violation > _FEAS_TOL * (1.0 + np.abs(rhs).max(initial=1.0))):
        raise NumericError("simplex returned an infeasible point")
    return sol, float(c0 @ sol)
