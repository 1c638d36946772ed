"""The bound-flipping dual simplex against an independent LP solver.

The values are compared with HiGHS through scipy, which is installed in the
development environment but is not a dependency of the package.
"""

import numpy as np
import pytest

from combidyn import InfeasibleError, LpProblem, exclusion_budget_rows, simplex, solve_boxed_lp


def _highs_value(c, rows, rhs):
    linprog = pytest.importorskip("scipy.optimize").linprog
    res = linprog(-np.asarray(c), A_ub=rows, b_ub=rhs, bounds=(0.0, 1.0), method="highs")
    assert res.status == 0
    return -res.fun


@pytest.mark.parametrize("seed", range(20))
def test_exclusion_budget_rows_match_highs(seed):
    # The 41 TU rows of the m = 100 fleet with random objectives and budgets.
    # Mostly positive objectives start far above a small budget, so the
    # budget row is cleared by many flips.
    rng = np.random.default_rng(seed)
    rows, rhs = exclusion_budget_rows(100)
    rhs = rhs.copy()
    rhs[-1] = float(rng.integers(0, rhs[-1] + 1))
    c = rng.standard_normal(100) + rng.uniform(0.0, 2.0)
    x, val = solve_boxed_lp(LpProblem(c, rows, rhs))
    assert np.array_equal(x, np.round(x))
    assert np.all(rows @ x <= rhs)
    assert val == float(c @ x)
    assert abs(val - _highs_value(c, rows, rhs)) <= 1e-9 * (1.0 + abs(val))


@pytest.mark.parametrize("seed", range(30))
def test_random_small_lps_match_highs(seed):
    # Dense rows with mixed signs, so vertices are fractional in general.
    rng = np.random.default_rng(700 + seed)
    m = int(rng.integers(2, 12))
    l = int(rng.integers(1, 8))
    rows = rng.uniform(-2.0, 2.0, (l, m))
    c = rng.standard_normal(m)
    rhs = rows @ rng.uniform(0.0, 1.0, m) + rng.uniform(0.0, 0.5, l)  # feasible by construction
    x, val = solve_boxed_lp(LpProblem(c, rows, rhs))
    assert np.all((x >= 0.0) & (x <= 1.0))
    assert np.all(rows @ x <= rhs + 1e-9)
    assert abs(val - _highs_value(c, rows, rhs)) <= 1e-9 * (1.0 + abs(val))


@pytest.mark.parametrize(
    "budget, expected, value",
    [(1.0, [1, 0, 0, 0, 0], 5.0), (2.5, [1, 1, 0.5, 0, 0], 10.5), (4.0, [1, 1, 1, 1, 0], 14.0)],
)
def test_budget_row_cleared_by_several_flips(budget, expected, value, monkeypatch):
    # The start takes every unit (all objectives are positive) and breaks the
    # budget row by 5 - budget.  The walk passes the units in increasing
    # objective, flipping each to 0 while the row stays infeasible; the unit
    # that clears the row enters at the value that meets the budget.  That is
    # one pivot, where a ratio test without flips needs one per unit dropped:
    # two iterations are the pivot and the optimality check.
    monkeypatch.setattr(simplex, "_MAX_ITER", 2)
    x, val = solve_boxed_lp(LpProblem([5.0, 4.0, 3.0, 2.0, 1.0], [[1.0] * 5], [budget]))
    assert np.array_equal(x, expected)
    assert val == value


def test_row_still_infeasible_after_every_flip():
    # x1 + x2 >= 3 cannot hold in the unit box: flipping both columns still
    # leaves the row one short, and no unbounded column can enter.
    with pytest.raises(InfeasibleError):
        solve_boxed_lp(LpProblem([-1.0, -2.0, 1.0], [[-1.0, -1.0, 0.0]], [-3.0]))
