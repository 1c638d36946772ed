import numpy as np
import pytest

from combidyn import (
    DimensionError,
    IntegrationDivergedError,
    NotRelaxableError,
    SystemSpec,
    TimeGrid,
    evaluate_payoff,
    evaluate_variational_payoff,
    integrate,
    integrate_variational,
    matvec,
)

from support import random_poly_system, scalar_affine_system, scalar_exp_system

E = np.e


def _const_system(values, m=1, horizon=1.0):
    n = len(values)
    return SystemSpec(
        state_dim=n,
        decision_dim=m,
        initial_state=values,
        horizon=horizon,
        vector_field=lambda x, a, t: np.zeros(n),
        running_payoff=lambda x, a, t: 0.0,
        terminal_payoff=lambda x: x[..., 0],
        jac_f_x=lambda x, a, t: np.zeros((n, n)),
        jac_r_x=lambda x, a, t: np.zeros(n),
        jac_q_x=lambda x: np.r_[1.0, np.zeros(n - 1)],
        relaxable=True,
        jac_f_alpha=lambda x, a, t: np.zeros((n, m)),
        jac_r_alpha=lambda x, a, t: np.zeros(m),
    )


def test_zero_field_gives_constant_trajectory():
    spec = _const_system([1.0, 2.0])
    traj = integrate(spec, [1.0], TimeGrid(1.0, 50))
    assert np.array_equal(traj.values, np.tile([1.0, 2.0], (50, 1)))


def test_exponential_growth_final_state():
    spec = scalar_exp_system(x0=1.0)
    traj = integrate(spec, [0.0], TimeGrid(1.0, 10001), "rk4")
    assert abs(traj.final_state[0] - E) < 1e-6


def test_affine_decision_final_state():
    spec = scalar_affine_system()
    traj = integrate(spec, [1.0], TimeGrid(1.0, 2001), "rk4")
    assert abs(traj.final_state[0] - (E - 1.0)) < 1e-6


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_divergence_reports_knot():
    spec = SystemSpec(
        state_dim=1,
        decision_dim=1,
        initial_state=[3.0],
        horizon=2.0,
        vector_field=lambda x, a, t: x * x,
        running_payoff=lambda x, a, t: 0.0,
        terminal_payoff=lambda x: 0.0,
        jac_f_x=lambda x, a, t: 2.0 * x[..., None],
        jac_r_x=lambda x, a, t: np.zeros(1),
        jac_q_x=lambda x: np.zeros(1),
        relaxable=True,
    )
    with pytest.raises(IntegrationDivergedError) as err:
        integrate(spec, [0.0], TimeGrid(2.0, 2001))
    assert 0 < err.value.knot_index < 2001


def test_decision_validation():
    spec = scalar_affine_system()
    with pytest.raises(ValueError):
        integrate(spec, [1.2], TimeGrid(1.0, 10))
    nonrelax = SystemSpec(
        state_dim=1,
        decision_dim=1,
        initial_state=[0.0],
        horizon=1.0,
        vector_field=lambda x, a, t: x,
        running_payoff=lambda x, a, t: 0.0,
        terminal_payoff=lambda x: 0.0,
        jac_f_x=lambda x, a, t: np.array([[1.0]]),
        jac_r_x=lambda x, a, t: np.zeros(1),
        jac_q_x=lambda x: np.zeros(1),
        relaxable=False,
    )
    with pytest.raises(NotRelaxableError):
        integrate(nonrelax, [0.5], TimeGrid(1.0, 10))
    integrate(nonrelax, [1.0], TimeGrid(1.0, 10))  # binary is fine


def test_payoff_terminal_only():
    spec = _const_system([5.0])
    traj = integrate(spec, [0.0], TimeGrid(1.0, 20))
    assert evaluate_payoff(spec, traj, [0.0]) == 5.0


def test_payoff_exponential_running():
    spec = scalar_exp_system(x0=1.0)
    traj = integrate(spec, [0.0], TimeGrid(1.0, 1001), "rk4")
    assert abs(evaluate_payoff(spec, traj, [0.0]) - (E - 1.0)) < 1e-5


def test_payoff_affine_running():
    spec = scalar_affine_system()
    traj = integrate(spec, [1.0], TimeGrid(1.0, 1001), "rk4")
    assert abs(evaluate_payoff(spec, traj, [1.0]) - (E - 2.0)) < 1e-5


def test_payoff_grid_mismatch():
    spec = scalar_exp_system(horizon=1.0)
    other = scalar_exp_system(horizon=2.0)
    traj = integrate(other, [0.0], TimeGrid(2.0, 100))
    with pytest.raises(DimensionError):
        evaluate_payoff(spec, traj, [0.0])


def test_variational_endpoints_reproduce_plain_integration():
    spec = scalar_affine_system()
    grid = TimeGrid(1.0, 301)
    base = integrate(spec, [0.0], grid)
    target = integrate(spec, [1.0], grid)
    at0 = integrate_variational(spec, [0.0], [1.0], 0.0, grid)
    at1 = integrate_variational(spec, [0.0], [1.0], 1.0, grid)
    assert np.array_equal(at0.values, base.values)
    assert np.array_equal(at1.values, target.values)


def test_variational_midpoint_matches_halfway_field():
    spec = scalar_affine_system()
    grid = TimeGrid(1.0, 1001)
    traj = integrate_variational(spec, [0.0], [1.0], 0.5, grid, "rk4")
    assert abs(traj.final_state[0] - 0.5 * (E - 1.0)) < 1e-5


def test_variational_payoff_blend():
    spec = SystemSpec(
        state_dim=1,
        decision_dim=1,
        initial_state=[0.0],
        horizon=1.0,
        vector_field=lambda x, a, t: np.zeros(1),
        running_payoff=lambda x, a, t: a[..., 0],
        terminal_payoff=lambda x: 0.0,
        jac_f_x=lambda x, a, t: np.zeros((1, 1)),
        jac_r_x=lambda x, a, t: np.zeros(1),
        jac_q_x=lambda x: np.zeros(1),
        relaxable=True,
        jac_f_alpha=lambda x, a, t: np.zeros((1, 1)),
        jac_r_alpha=lambda x, a, t: np.array([1.0]),
    )
    grid = TimeGrid(1.0, 101)
    traj = integrate_variational(spec, [0.0], [1.0], 0.25, grid)
    val = evaluate_variational_payoff(spec, traj, [0.0], [1.0], 0.25)
    assert abs(val - 0.25) < 1e-12
    assert evaluate_variational_payoff(spec, traj, [0.0], [1.0], 0.0) == evaluate_payoff(
        spec, traj, [0.0]
    )
    assert evaluate_variational_payoff(spec, traj, [0.0], [1.0], 1.0) == evaluate_payoff(
        spec, traj, [1.0]
    )


def test_blend_deviation_scales_linearly():
    rng = np.random.default_rng(7)
    spec = random_poly_system(rng, 2, 2)
    grid = TimeGrid(spec.horizon, 401)
    abar = np.zeros(2)
    atarget = np.ones(2)
    base = integrate(spec, abar, grid, "rk4").values
    devs = []
    for eps in (0.2, 0.1, 0.05, 0.025):
        blend = integrate_variational(spec, abar, atarget, eps, grid, "rk4").values
        devs.append(float(np.max(np.linalg.norm(blend - base, axis=1))))
    for big, small in zip(devs, devs[1:]):
        assert small <= 0.55 * big + 1e-12


def test_blend_squared_deviation_vanishes_superlinearly():
    rng = np.random.default_rng(8)
    spec = random_poly_system(rng, 2, 2)
    grid = TimeGrid(spec.horizon, 401)
    abar = np.zeros(2)
    atarget = np.ones(2)
    base = integrate(spec, abar, grid, "rk4").values
    h = grid.step
    seq = []
    for eps in (0.2, 0.1, 0.05, 0.025):
        blend = integrate_variational(spec, abar, atarget, eps, grid, "rk4").values
        seq.append(float(np.sum(np.linalg.norm(blend - base, axis=1) ** 2) * h / eps))
    assert all(b > s for b, s in zip(seq, seq[1:]))
    assert seq[-1] <= 0.5 * seq[0]


@pytest.mark.parametrize(
    "scheme,factor", [("euler", 0.7), ("rk4", 0.35)]
)
def test_grid_refinement_order(scheme, factor):
    # First order for euler; the trapezoid payoff quadrature caps rk4 at
    # second order even though its trajectory is fourth order.
    spec = scalar_exp_system(x0=1.0)
    exact = E - 1.0
    errs = []
    for n_pts in (201, 401, 801):
        traj = integrate(spec, [0.0], TimeGrid(1.0, n_pts), scheme)
        errs.append(abs(evaluate_payoff(spec, traj, [0.0]) - exact))
    for big, small in zip(errs, errs[1:]):
        assert small <= factor * big


def test_single_vector_matvec_equals_its_stacked_row():
    # A 1-D vector goes straight to M @ v; each row of a stacked call must
    # carry the same bits, for contiguous matrices and transposed views.
    for n in range(1, 129):
        rng = np.random.default_rng(n)
        M = rng.standard_normal((n, n))
        V = rng.standard_normal((4, 3, n))
        for mat in (M, M.T, M[:, ::-1].T):
            stacked = matvec(mat, V)
            for i, j in np.ndindex(4, 3):
                assert np.array_equal(matvec(mat, V[i, j]), stacked[i, j]), n
