import dataclasses
import itertools
import re

import numpy as np
import pytest

from combidyn import (
    NotRelaxableError,
    TimeGrid,
    costate_pairing,
    evaluate_payoff,
    finite_difference_nonstandard,
    finite_difference_standard,
    integrate,
    linearize,
    nonstandard_derivative,
    reformulate,
    solve_adjoint,
    standard_derivative,
    variational_quotient,
)

from support import (
    cubic_bias_system,
    exp_additive_system,
    random_additive_system,
    random_affine_system,
    random_nonrelaxable_system,
    random_poly_system,
    scalar_affine_system,
    scalar_exp_system,
)

E = np.e


def _grid(spec, n=801):
    return TimeGrid(spec.horizon, n)


def test_standard_scalar_affine_value():
    spec = scalar_affine_system()
    grad = standard_derivative(linearize(spec, [0.0], _grid(spec, 1001), "rk4"))
    assert abs(grad.entries[0] - (E - 2.0)) < 1e-4
    assert abs(grad.base_payoff - 0.0) < 1e-6  # J at alpha = 0 with x(0) = 0


@pytest.mark.parametrize("kind", ["standrd", "Standard", "both"])
def test_derivative_refuses_an_unknown_kind(kind):
    # An unknown kind must not fall through to the nonstandard derivative.
    from combidyn.gradient import DERIVATIVE_KINDS, derivative

    spec = scalar_affine_system()
    lin = linearize(spec, [0.0], _grid(spec, 101), "rk4")
    with pytest.raises(ValueError, match=f"kind must be one of {re.escape(str(DERIVATIVE_KINDS))}"):
        derivative(lin, kind)


def test_standard_zero_when_decision_free():
    spec = scalar_exp_system()
    grad = standard_derivative(linearize(spec, [1.0], _grid(spec, 301), "rk4"))
    assert np.allclose(grad.entries, 0.0, atol=1e-12)


def test_standard_bias_ratio():
    spec = cubic_bias_system()
    grad = standard_derivative(linearize(spec, [1.0, 1.0], _grid(spec, 1001), "rk4"))
    assert grad.entries[1] > 0
    assert abs(grad.entries[0] / grad.entries[1] - 1.5) < 1e-3


def test_standard_requires_relaxable():
    spec = random_nonrelaxable_system(np.random.default_rng(0), 2, 2)
    with pytest.raises(NotRelaxableError):
        standard_derivative(linearize(spec, [0.0, 0.0], _grid(spec, 101)))


def test_standard_jacobian_fallback():
    spec = cubic_bias_system()
    stripped = dataclasses.replace(spec, jac_f_alpha=None, jac_r_alpha=None)
    grid = _grid(spec, 401)
    exact = standard_derivative(linearize(spec, [1.0, 0.0], grid, "rk4"))
    fallback = standard_derivative(linearize(stripped, [1.0, 0.0], grid, "rk4"))
    assert np.max(np.abs(exact.entries - fallback.entries)) < 1e-6


def test_nonstandard_zero_when_decision_free():
    spec = scalar_exp_system()
    grad = nonstandard_derivative(linearize(spec, [1.0], _grid(spec, 301), "rk4"))
    assert np.allclose(grad.entries, 0.0, atol=1e-12)


def test_nonstandard_bias_ratio():
    spec = cubic_bias_system()
    grad = nonstandard_derivative(linearize(spec, [1.0, 1.0], _grid(spec, 1001), "rk4"))
    assert grad.entries[1] > 0
    assert abs(grad.entries[0] / grad.entries[1] - 0.5) < 1e-3


@pytest.mark.parametrize("abar", [(0.0, 0.0, 0.0), (1.0, 0.0, 1.0), (1.0, 1.0, 1.0)])
def test_nonstandard_additive_exponential_closed_form(abar):
    # Every entry is (exp(-1) - 1) * integral of the costate, regardless of
    # the base bit; with T = 1 the costate integral is e - 2.
    spec = exp_additive_system(m=3)
    grad = nonstandard_derivative(linearize(spec, list(abar), _grid(spec, 1001), "rk4"))
    expected = (np.exp(-1.0) - 1.0) * (E - 2.0)
    assert np.max(np.abs(grad.entries - expected)) < 1e-4


def test_reformulate_affine_is_identity():
    rng = np.random.default_rng(3)
    spec = random_affine_system(rng, 2, 3)
    hat = reformulate(spec)
    for _ in range(10):
        x = rng.standard_normal(2)
        a = rng.uniform(-1.0, 2.0, 3)  # arbitrary real decisions
        t = rng.uniform(0.0, 1.0)
        assert np.allclose(hat.vector_field(x, a, t), spec.vector_field(x, a, t), atol=1e-12)
        assert abs(hat.running_payoff(x, a, t) - spec.running_payoff(x, a, t)) < 1e-12


def test_reformulate_exponential_additive():
    spec = exp_additive_system(m=2)
    hat = reformulate(spec)
    x = np.array([0.3])
    a = np.array([0.25, 0.75])
    expected = 0.3 + np.sum(1.0 + a * (np.exp(-1.0) - 1.0))
    assert abs(hat.vector_field(x, a, 0.0)[0] - expected) < 1e-12
    for bits in itertools.product((0.0, 1.0), repeat=2):
        b = np.array(bits)
        assert np.allclose(hat.vector_field(x, b, 0.0), spec.vector_field(x, b, 0.0), atol=1e-12)


def test_reformulate_cubic_bias_becomes_linear():
    spec = cubic_bias_system()
    hat = reformulate(spec)
    x = np.array([0.7])
    a = np.array([0.5, 0.25])
    assert abs(hat.vector_field(x, a, 0.0)[0] - (0.7 + 0.5 + 2.0 * 0.25)) < 1e-12
    assert hat.relaxable


def test_fd_standard_matches_adjoint_on_affine():
    spec = scalar_affine_system()
    grid = _grid(spec, 1001)
    grad = standard_derivative(linearize(spec, [0.0], grid, "rk4"))
    for h_fd in (1e-3, 1e-4):
        fd = finite_difference_standard(spec, [0.0], 0, h_fd, grid, "rk4")
        assert abs(fd - grad.entries[0]) < max(1e-3, 10.0 * h_fd**2)


def test_fd_standard_zero_when_decision_free():
    spec = scalar_exp_system()
    assert finite_difference_standard(spec, [0.0], 0, 1e-4, _grid(spec, 301)) == 0.0


def test_fd_standard_bias_second_entry():
    spec = cubic_bias_system()
    grid = _grid(spec, 1001)
    grad = standard_derivative(linearize(spec, [1.0, 1.0], grid, "rk4"))
    fd = finite_difference_standard(spec, [1.0, 1.0], 1, 1e-4, grid, "rk4")
    assert abs(fd - grad.entries[1]) < 1e-3


@pytest.mark.parametrize("entry", [0, 1])
def test_fd_nonstandard_error_shrinks_on_bias_system(entry):
    spec = cubic_bias_system(horizon=0.5)
    grid = _grid(spec, 801)
    grad = nonstandard_derivative(linearize(spec, [1.0, 1.0], grid, "rk4"))
    errs = []
    for eps in (0.1, 0.05, 0.025):
        fd = finite_difference_nonstandard(spec, [1.0, 1.0], entry, eps, grid, "rk4")
        errs.append(abs(fd - grad.entries[entry]))
    assert errs[0] > errs[1] > errs[2]
    assert errs[-1] < 1e-2


def test_fd_nonstandard_zero_when_decision_free():
    spec = scalar_exp_system()
    for eps in (0.5, 0.1, 0.01):
        assert finite_difference_nonstandard(spec, [1.0], 0, eps, _grid(spec, 201)) == 0.0


def test_fd_nonstandard_works_without_relaxability():
    spec = random_nonrelaxable_system(np.random.default_rng(5), 2, 3)
    grid = _grid(spec, 801)
    grad = nonstandard_derivative(linearize(spec, [0.0, 1.0, 0.0], grid, "rk4"))
    err_big = abs(finite_difference_nonstandard(spec, [0.0, 1.0, 0.0], 1, 0.1, grid, "rk4") - grad.entries[1])
    err_small = abs(finite_difference_nonstandard(spec, [0.0, 1.0, 0.0], 1, 0.0125, grid, "rk4") - grad.entries[1])
    assert err_small <= 0.3 * err_big + 1e-10


def test_general_direction_quotient_limit():
    # The difference quotient toward an arbitrary binary target (not just a
    # single-bit flip) converges to the costate pairing with that target.
    rng = np.random.default_rng(11)
    spec = random_poly_system(rng, 3, 4)
    grid = _grid(spec, 801)
    abar = np.array([0.0, 1.0, 0.0, 1.0])
    ato = np.array([1.0, 0.0, 0.0, 1.0])  # two bits flipped
    fwd = integrate(spec, abar, grid, "rk4")
    lam = solve_adjoint(spec, abar, fwd, "rk4")
    target = costate_pairing(spec, abar, ato, fwd, lam)
    errs = [
        abs(variational_quotient(spec, abar, ato, eps, grid, "rk4") - target)
        for eps in (0.1, 0.05, 0.025, 0.0125)
    ]
    assert errs[-1] <= 0.25 * errs[0] + 1e-10
    for big, small in zip(errs, errs[1:]):
        assert small <= 0.75 * big + 1e-10


@pytest.mark.parametrize("seed", range(5))
def test_affine_systems_make_both_derivatives_coincide(seed):
    rng = np.random.default_rng(100 + seed)
    spec = random_affine_system(rng, rng.integers(1, 4), rng.integers(1, 5))
    grid = _grid(spec, 301)
    abar = rng.integers(0, 2, spec.decision_dim).astype(float)
    g_std = standard_derivative(linearize(spec, abar, grid, "rk4"))
    g_ns = nonstandard_derivative(linearize(spec, abar, grid, "rk4"))
    assert np.max(np.abs(g_std.entries - g_ns.entries)) <= 1e-8


@pytest.mark.parametrize("seed", range(3))
def test_reformulation_identities_on_additive_systems(seed):
    rng = np.random.default_rng(200 + seed)
    n, m = 2, 3
    spec = random_additive_system(rng, n, m)
    hat = reformulate(spec)
    grid = _grid(spec, 201)
    for bits in itertools.product((0.0, 1.0), repeat=m):
        a = np.array(bits)
        j = evaluate_payoff(spec, integrate(spec, a, grid, "rk4"), a)
        j_hat = evaluate_payoff(hat, integrate(hat, a, grid, "rk4"), a)
        assert abs(j - j_hat) <= 1e-6
        g_hat = standard_derivative(linearize(hat, a, grid, "rk4"))
        g_ns = nonstandard_derivative(linearize(spec, a, grid, "rk4"))
        assert np.max(np.abs(g_hat.entries - g_ns.entries)) <= 1e-6


@pytest.mark.parametrize("seed", range(4))
def test_standard_matches_finite_differences_on_random_systems(seed):
    rng = np.random.default_rng(300 + seed)
    n = int(rng.integers(1, 5))
    m = int(rng.integers(1, 7))
    spec = random_poly_system(rng, n, m)
    grid = _grid(spec, 401)
    abar = rng.integers(0, 2, m).astype(float)
    grad = standard_derivative(linearize(spec, abar, grid, "rk4"))
    h_fd = 1e-3
    for i in range(m):
        fd = finite_difference_standard(spec, abar, i, h_fd, grid, "rk4")
        assert abs(fd - grad.entries[i]) < max(1e-3, 10.0 * h_fd**2)
