import dataclasses

import numpy as np
import pytest

from combidyn import (
    DimensionError,
    TimeGrid,
    blended_system,
    evaluate_payoff,
    hamiltonian,
    integrate,
    solve_adjoint,
)

from support import RANDOM_HORIZON, random_nonrelaxable_system, random_poly_system, scalar_exp_system

E = np.e


def test_hamiltonian_zero_costate():
    spec = scalar_exp_system()
    assert hamiltonian(spec, [3.0], [0.0], [0.0]) == 3.0  # r(x) = x


def test_hamiltonian_zero_field():
    spec = dataclasses.replace(
        scalar_exp_system(), vector_field=lambda x, a, t: np.zeros(1)
    )
    for lam in (-2.0, 0.0, 7.5):
        assert hamiltonian(spec, [3.0], [lam], [0.0]) == 3.0


def test_hamiltonian_linear():
    spec = scalar_exp_system()
    # lam * f + r = 5 * 2 + 2
    assert hamiltonian(spec, [2.0], [5.0], [0.0]) == 12.0


def test_hamiltonian_dimension_check():
    spec = scalar_exp_system()
    with pytest.raises(DimensionError):
        hamiltonian(spec, [1.0, 2.0], [0.0], [0.0])


def test_adjoint_zero_without_payoff():
    spec = dataclasses.replace(
        scalar_exp_system(),
        running_payoff=lambda x, a, t: 0.0,
        jac_r_x=lambda x, a, t: np.zeros(1),
    )
    grid = TimeGrid(1.0, 101)
    fwd = integrate(spec, [0.0], grid)
    lam = solve_adjoint(spec, [0.0], fwd)
    assert np.array_equal(lam.values, np.zeros((101, 1)))


def test_adjoint_running_payoff_analytic():
    # -lam' = lam + 1, lam(1) = 0  =>  lam(t) = exp(1 - t) - 1
    spec = scalar_exp_system(x0=1.0)
    grid = TimeGrid(1.0, 1001)
    fwd = integrate(spec, [0.0], grid, "rk4")
    lam = solve_adjoint(spec, [0.0], fwd, "rk4")
    expected = np.exp(1.0 - grid.times) - 1.0
    assert np.max(np.abs(lam.values[:, 0] - expected)) < 1e-4


def test_adjoint_terminal_payoff_analytic():
    # lam(t) = exp(1 - t) when q = x and r = 0
    spec = scalar_exp_system(x0=1.0, terminal=True)
    grid = TimeGrid(1.0, 1001)
    fwd = integrate(spec, [0.0], grid, "rk4")
    lam = solve_adjoint(spec, [0.0], fwd, "rk4")
    assert abs(lam.values[0, 0] - E) < 1e-4


def test_terminal_condition_exact():
    spec = scalar_exp_system(x0=1.0, terminal=True)
    grid = TimeGrid(1.0, 64)
    fwd = integrate(spec, [0.0], grid)
    lam = solve_adjoint(spec, [0.0], fwd)
    assert np.array_equal(lam.values[-1], spec.jac_q_x(fwd.final_state))


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_adjoint_divergence_reports_knot():
    from combidyn import AdjointDivergedError

    spec = dataclasses.replace(
        scalar_exp_system(),
        jac_f_x=lambda x, a, t: np.array([[1e308]]),
    )
    grid = TimeGrid(1.0, 101)
    fwd = integrate(spec, [0.0], grid)
    with pytest.raises(AdjointDivergedError) as err:
        solve_adjoint(spec, [0.0], fwd)
    assert 0 <= err.value.knot_index < 101


@pytest.mark.parametrize("terminal", [False, True])
def test_initial_costate_matches_initial_state_sensitivity(terminal):
    # lam(0) is the payoff gradient with respect to the initial state.
    spec = scalar_exp_system(x0=1.0, terminal=terminal)
    grid = TimeGrid(1.0, 801)
    fwd = integrate(spec, [0.0], grid, "rk4")
    lam = solve_adjoint(spec, [0.0], fwd, "rk4")

    h = 1e-4
    vals = []
    for shift in (h, -h):
        shifted = dataclasses.replace(spec, initial_state=[1.0 + shift])
        traj = integrate(shifted, [0.0], grid, "rk4")
        vals.append(evaluate_payoff(shifted, traj, [0.0]))
    fd = (vals[0] - vals[1]) / (2.0 * h)
    assert abs(lam.values[0, 0] - fd) < 1e-3


@pytest.mark.parametrize("scheme", ["euler", "rk4"])
@pytest.mark.parametrize("make", [random_poly_system, random_nonrelaxable_system])
def test_endpoint_blend_costate_equals_plain_costate(make, scheme):
    # At eps = 0 (eps = 1) the blend's field and state Jacobians are those of
    # the base (direction) decision exactly, so its forward path and costate
    # are that decision's bit for bit.
    spec = make(np.random.default_rng(11), 3, 4)
    grid = TimeGrid(RANDOM_HORIZON, 101)
    abar, ato = np.array([1.0, 0.0, 1.0, 0.0]), np.array([0.0, 1.0, 1.0, 1.0])
    for eps, plain in ((0.0, abar), (1.0, ato)):
        blend = blended_system(spec, abar, ato, eps)
        forward = integrate(blend, abar, grid, scheme)
        assert np.array_equal(forward.values, integrate(spec, plain, grid, scheme).values)
        costate = solve_adjoint(blend, abar, forward, scheme).values
        assert np.array_equal(costate, solve_adjoint(spec, plain, forward, scheme).values)
