import numpy as np
import pytest

from combidyn import (
    DimensionError,
    NumericError,
    Gradient,
    Knapsack,
    L0Band,
    TimeGrid,
    TuRows,
    certify,
    check_concavity_inequality,
    evaluate_payoff,
    integrate,
    linearize,
    monotonicity_report,
    nonstandard_derivative,
    payoff_function,
    reformulate,
    solve_bruteforce,
    solve_l0,
    standard_derivative,
    submodularity_report,
)

from support import (
    RANDOM_HORIZON,
    concave_quadratic_oracle,
    coupled_square_system,
    random_concave_instance,
    scalar_affine_system,
)

E = np.e


def _grid(n=401, horizon=1.0):
    return TimeGrid(horizon, n)


def test_certify_zero_gain_flags_base_optimal():
    spec = scalar_affine_system()
    grid = _grid()
    abar = np.zeros(1)
    grad = standard_derivative(linearize(spec, abar, grid, "rk4"))
    cert = certify(spec, abar, grad, abar, integrate(spec, abar, grid, "rk4"))
    assert cert.optimal and cert.rho is None
    assert cert.rho_post == 1.0
    assert np.array_equal(cert.alpha_post, abar)


def test_certify_post_processing_is_exact_max():
    spec = scalar_affine_system()
    grid = _grid()
    abar = np.zeros(1)
    grad = standard_derivative(linearize(spec, abar, grid, "rk4"))
    astar = np.ones(1)
    cert = certify(spec, abar, grad, astar, integrate(spec, astar, grid, "rk4"))
    assert cert.payoff_post == max(cert.payoff, cert.base_payoff)
    assert cert.rho_post == max(cert.rho, 0.0)
    assert cert.payoff_post >= cert.base_payoff


def test_certify_base_point_mismatch():
    spec = scalar_affine_system()
    grid = _grid()
    grad = standard_derivative(linearize(spec, np.zeros(1), grid, "rk4"))
    with pytest.raises(DimensionError):
        certify(spec, np.ones(1), grad, np.ones(1), integrate(spec, np.ones(1), grid, "rk4"))


def _random_constraints(rng, m):
    kind = rng.integers(0, 3)
    if kind == 0:
        k_max = int(rng.integers(1, m + 1))
        return L0Band(0, k_max)
    if kind == 1:
        rows = np.zeros((2, m))
        for i in range(2):
            a = int(rng.integers(0, m))
            b = int(rng.integers(a, m))
            rows[i, a : b + 1] = 1.0
        rhs = rng.integers(0, m + 1, 2).astype(float)
        return TuRows(rows, rhs)
    w = rng.uniform(0.0, 2.0, m)
    cap = float(rng.uniform(0.3, 1.0) * max(w.sum(), 1.0))
    return Knapsack(w, cap)


@pytest.mark.parametrize("seed", range(15))
def test_certificate_bound_on_concave_instances(seed):
    rng = np.random.default_rng(900 + seed)
    n, m = int(rng.integers(2, 4)), int(rng.integers(3, 9))
    spec, pieces = random_concave_instance(rng, n, m)
    grid = _grid(401, RANDOM_HORIZON)
    _c0, _g, _H, batch = concave_quadratic_oracle(spec, pieces, grid, "rk4")

    abar = np.zeros(m)
    grad = standard_derivative(linearize(spec, abar, grid, "rk4"))
    con = _random_constraints(rng, m)
    # the certificate needs the exact argmax of the linearized objective
    astar, _ = solve_bruteforce(lambda A: A @ grad.entries, con, m)
    cert = certify(spec, abar, grad, astar, integrate(spec, astar, grid, "rk4"))
    _opt_alpha, opt_val = solve_bruteforce(batch, con, m)

    assert cert.payoff_post >= cert.base_payoff
    norm_opt = opt_val - cert.base_payoff
    norm_post = cert.payoff_post - cert.base_payoff
    assert cert.rho_post * norm_opt <= norm_post + 1e-6


def test_concavity_check_passes_on_concave_instance():
    rng = np.random.default_rng(42)
    spec, pieces = random_concave_instance(rng, 2, 4)
    grid = _grid(401, RANDOM_HORIZON)
    abar = np.zeros(4)
    grad = standard_derivative(linearize(spec, abar, grid, "rk4"))
    report = check_concavity_inequality(payoff_function(spec, grid, "rk4"), grad)
    assert report.holds
    assert 1 << report.witness.size == 16


def test_concavity_check_fails_on_convex_square_payoff():
    spec = coupled_square_system(sign=+1.0)
    grid = _grid()
    abar = np.zeros(2)
    grad = standard_derivative(linearize(spec, abar, grid, "rk4"))
    report = check_concavity_inequality(payoff_function(spec, grid, "rk4"), grad)
    assert not report.holds
    assert report.worst_gap > 1e-3


def test_concavity_check_single_bit():
    spec = scalar_affine_system()
    grid = _grid()
    abar = np.zeros(1)
    grad = standard_derivative(linearize(spec, abar, grid, "rk4"))
    report = check_concavity_inequality(payoff_function(spec, grid, "rk4"), grad)
    # affine-in-decision scalar system: linearization is exact up to
    # integration curvature in the decision, which is concave here
    assert 1 << report.witness.size == 2
    assert report.holds


def test_nonstandard_certificate_via_reformulated_concavity():
    # Linear field with concave state penalty but a nonconcave additive
    # decision term: the plain payoff need not be concave, the reformulated
    # one is, so the convex-combination certificate is valid.
    rng = np.random.default_rng(4)
    n, m = 2, 4
    A = 0.4 * rng.standard_normal((n, n)) - 0.5 * np.eye(n)
    B = 0.8 * rng.standard_normal((n, m))
    w = rng.uniform(0.3, 1.0, n)
    bump = rng.uniform(0.5, 1.5, m)

    from combidyn import SystemSpec, matvec, rowdot

    spec = SystemSpec(
        decision_dim=m,
        initial_state=0.4 * rng.standard_normal(n),
        vector_field=lambda x, a, t: matvec(A, x) + matvec(B, a),
        running_payoff=lambda x, a, t: rowdot(x**2, -w) + rowdot(a**3, bump),
        terminal_payoff=lambda x: 0.0,
        jac_f_x=lambda x, a, t: A,
        jac_r_x=lambda x, a, t: -2.0 * w * x,
        jac_q_x=lambda x: np.zeros(n),
        jac_f_alpha=lambda x, a, t: B,
        jac_r_alpha=lambda x, a, t: 3.0 * bump * a**2,
    )
    grid = _grid(401, 0.5)
    abar = np.zeros(m)

    hat = reformulate(spec)
    hat_grad = standard_derivative(linearize(hat, abar, grid, "rk4"))
    assert check_concavity_inequality(payoff_function(hat, grid, "rk4"), hat_grad).holds

    grad = nonstandard_derivative(linearize(spec, abar, grid, "rk4"))
    con = L0Band(0, 2)
    astar = solve_l0(grad, 0, 2)
    cert = certify(spec, abar, grad, astar, integrate(spec, astar, grid, "rk4"))

    def payoff(a):
        return evaluate_payoff(spec, integrate(spec, a, grid, "rk4"), a)

    _, opt_val = solve_bruteforce(payoff, con, m)
    assert cert.rho_post * (opt_val - cert.base_payoff) <= (
        cert.payoff_post - cert.base_payoff
    ) + 1e-6


def _square_payoff(sign):
    spec = coupled_square_system(sign=sign)
    grid = TimeGrid(1.0, 401)

    def payoff(a):
        return evaluate_payoff(spec, integrate(spec, a, grid, "rk4"), a)

    return payoff


def test_submodularity_counterexamples():
    assert submodularity_report(_square_payoff(-1.0), 2).holds is False
    assert submodularity_report(_square_payoff(+1.0), 2).holds is True


def test_submodularity_closed_form_differences():
    payoff = _square_payoff(-1.0)
    bump = (np.e**2 - 1.0) / 2.0 - 2.0 * (np.e - 1.0) + 1.0  # integral of (e^t - 1)^2
    j00, j01 = payoff(np.array([0.0, 0.0])), payoff(np.array([0.0, 1.0]))
    j10, j11 = payoff(np.array([1.0, 0.0])), payoff(np.array([1.0, 1.0]))
    assert abs((j01 - j00) - 3.0 * bump) < 1e-4
    assert abs((j11 - j10) - 5.0 * bump) < 1e-4
    # adding unit 2 helps more at the larger set: diminishing returns fail
    assert (j11 - j10) > (j01 - j00)


def test_modular_payoff_is_submodular_and_monotone():
    c = np.array([0.5, 1.0, 0.25])
    payoff = lambda a: a @ c
    assert submodularity_report(payoff, 3).holds is True
    assert monotonicity_report(payoff, 3).holds is True
    assert monotonicity_report(lambda a: -np.sum(a, axis=-1), 3).holds is False


def test_set_function_witnesses_are_little_endian():
    # Entry j of a witness is bit j of its code in the payoff table.
    triple = lambda a: a[..., 0] * a[..., 1] * a[..., 2]
    assert submodularity_report(triple, 3).witness.tolist() == [0, 0, 1]
    mono = monotonicity_report(lambda a: -a[..., 0] * (1 - a[..., 1]) * (1 + a[..., 2]), 3)
    assert mono.witness.tolist() == [0, 0, 1]


def test_set_function_witness_is_first_of_roundoff_ties():
    # Two bases tie for the worst gap up to a few units of roundoff, the later
    # one slightly ahead: the witness is the first base in scan order, and the
    # worst gap is still the true maximum.
    tiny = 1e-15
    sub = submodularity_report(lambda a: a[..., 0] * a[..., 1] * (1.0 + tiny * a[..., 2]), 3)
    assert sub.worst_gap == 1.0 + tiny and sub.witness.tolist() == [0, 0, 0]
    mono = monotonicity_report(lambda a: -a[..., 0] * (1.0 + tiny * a[..., 2]), 3)
    assert mono.worst_gap == 1.0 + tiny and mono.witness.tolist() == [0, 0, 0]


def test_set_function_report_without_pairs():
    report = submodularity_report(lambda a: a[..., 0], 1)
    assert report.holds and report.worst_gap == -np.inf and report.witness.tolist() == [0]


def test_concavity_worst_alpha_is_first_in_lexicographic_order():
    # Four points tie for the worst violation; the report keeps the first in
    # lexicographic (entry 0 most significant) order.
    grad = Gradient("standard", np.zeros(3), np.zeros(3), 0.0)
    report = check_concavity_inequality(lambda a: np.abs(a[..., 0] - a[..., 2]), grad)
    assert not report.holds and 1 << report.witness.size == 8
    assert report.worst_gap == 1.0
    assert report.witness.tolist() == [0, 0, 1]



def _all_on_is(value):
    """A 3-bit payoff, the ON count, except ``value`` at the all-on point."""
    return lambda a: np.where(np.all(a == 1.0, axis=-1), value, np.sum(a, axis=-1))


_ZERO_GRAD = Gradient("standard", np.zeros(3), np.zeros(3), 0.0)
_CHECKS = {
    "concavity": lambda payoff: check_concavity_inequality(payoff, _ZERO_GRAD),
    "submodularity": lambda payoff: submodularity_report(payoff, 3),
    "monotonicity": lambda payoff: monotonicity_report(payoff, 3),
}


@pytest.mark.parametrize("check", _CHECKS.values(), ids=_CHECKS.keys())
def test_structure_checks_raise_on_a_nan_payoff(check):
    # A NaN compares false with every tolerance, so it would pass as a verdict.
    with pytest.raises(NumericError):
        check(_all_on_is(np.nan))


@pytest.mark.parametrize("report", [submodularity_report, monotonicity_report])
@pytest.mark.parametrize("value", [np.inf, -np.inf])
def test_set_function_reports_raise_on_an_infinite_payoff(report, value):
    # Differences of infinite payoffs are NaN or infinite: no gap to report.
    with pytest.raises(NumericError):
        report(_all_on_is(value), 3)


def test_applied_decision_falls_back_to_pick_at_infeasible_base():
    spec = scalar_affine_system()
    grid = _grid()
    abar = np.zeros(1)
    grad = standard_derivative(linearize(spec, abar, grid, "rk4"))
    cert = certify(spec, abar, grad, np.ones(1), integrate(spec, np.ones(1), grid, "rk4"))
    alpha, payoff = cert.applied(True)
    assert np.array_equal(alpha, cert.alpha_post) and payoff == cert.payoff_post
    alpha, payoff = cert.applied(False)
    assert np.array_equal(alpha, cert.alpha_star) and payoff == cert.payoff
