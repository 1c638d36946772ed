"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
lines and the reported (non-asserted) benchmark figures.
"""

import dataclasses
import functools
import itertools
import time

import numpy as np
import pytest

from combidyn import (
    Knapsack,
    L0Band,
    TimeGrid,
    TuRows,
    build_etp_system,
    build_transient_system,
    certify,
    check_submodular,
    default_fleet,
    default_scenario,
    evaluate_payoff,
    finite_difference_nonstandard,
    finite_difference_standard,
    integrate,
    is_feasible,
    linearize,
    nonstandard_derivative,
    quadratic_payoff_model,
    reformulate,
    run_receding_horizon,
    solve_adjoint,
    solve_bruteforce,
    solve_greedy,
    solve_knapsack,
    solve_l0,
    solve_tu,
    standard_derivative,
    step_constraints,
    step_system,
    trapezoid_weights,
    transient_members,
)

from support import (
    concave_quadratic_oracle,
    coupled_square_system,
    cubic_bias_system,
    random_additive_system,
    random_concave_instance,
    random_nonrelaxable_system,
    random_poly_system,
    scalar_affine_system,
    scalar_exp_system,
)

E = np.e


def criterion(number, title):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                report = fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number:2d} FAIL  {title}")
                raise
            elapsed = time.perf_counter() - start
            extra = f"  [{report}]" if report else ""
            print(f"ACCEPTANCE {number:2d} PASS  {title} ({elapsed:.1f}s){extra}")

        return wrapper

    return deco


@criterion(1, "analytic trajectory, payoff and costate regression")
def test_criterion_01_analytic_regression():
    start = time.perf_counter()
    grid = TimeGrid(1.0, 1001)

    growth = scalar_exp_system(x0=1.0)
    traj = integrate(growth, [0.0], grid, "rk4")
    assert abs(evaluate_payoff(growth, traj, [0.0]) - (E - 1.0)) < 1e-5

    driven = scalar_affine_system()
    traj2 = integrate(driven, [1.0], grid, "rk4")
    assert abs(evaluate_payoff(driven, traj2, [1.0]) - (E - 2.0)) < 1e-5

    lam = solve_adjoint(driven, [1.0], traj2, "rk4")
    expected = np.exp(1.0 - grid.times) - 1.0
    assert np.max(np.abs(lam.values[:, 0] - expected)) < 1e-4

    assert time.perf_counter() - start < 1.0


@criterion(2, "relaxed gradient matches central differences on 50 random systems")
def test_criterion_02_gradient_correctness():
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    h_fd = 1e-3
    tol = max(1e-3, 10.0 * h_fd**2)
    for _ in range(50):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 7))
        spec = random_poly_system(rng, n, m)
        grid = TimeGrid(spec.horizon, 401)
        abar = rng.integers(0, 2, m).astype(float)
        grad = standard_derivative(linearize(spec, abar, grid, "rk4"))
        for i in range(m):
            fd = finite_difference_standard(spec, abar, i, h_fd, grid, "rk4")
            assert abs(fd - grad.entries[i]) < tol
    assert time.perf_counter() - start < 30.0


@criterion(3, "blend-quotient error shrinks at least linearly in the weight")
def test_criterion_03_nonstandard_limit():
    start = time.perf_counter()
    rng = np.random.default_rng(1002)
    eps_ladder = (0.1, 0.05, 0.025, 0.0125)
    for trial in range(20):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 5))
        if trial % 2:
            spec = random_nonrelaxable_system(rng, n, m)
        else:
            spec = random_poly_system(rng, n, m)
        grid = TimeGrid(spec.horizon, 401)
        abar = rng.integers(0, 2, m).astype(float)
        i = int(rng.integers(0, m))
        grad = nonstandard_derivative(linearize(spec, abar, grid, "rk4"))
        floor = 1e-9 * (1.0 + abs(grad.entries[i]))
        errs = [
            abs(finite_difference_nonstandard(spec, abar, i, eps, grid, "rk4") - grad.entries[i])
            for eps in eps_ladder
        ]
        for big, small in zip(errs, errs[1:]):
            assert small <= 0.55 * big + floor
        assert errs[-1] <= 0.25 * errs[0] + floor
    assert time.perf_counter() - start < 30.0


@criterion(4, "decision-affine systems: both derivative concepts coincide to 1e-8")
def test_criterion_04_affine_equivalence():
    rng = np.random.default_rng(1003)
    worst = 0.0
    from support import random_affine_system

    for _ in range(10):
        spec = random_affine_system(rng, int(rng.integers(1, 4)), int(rng.integers(1, 6)))
        grid = TimeGrid(spec.horizon, 301)
        abar = rng.integers(0, 2, spec.decision_dim).astype(float)
        g_std = standard_derivative(linearize(spec, abar, grid, "rk4"))
        g_ns = nonstandard_derivative(linearize(spec, abar, grid, "rk4"))
        worst = max(worst, float(np.max(np.abs(g_std.entries - g_ns.entries))))
    fleet = build_etp_system(default_fleet(20, seed=7), 0.25)
    grid = TimeGrid(0.25, 201)
    for abar in (np.zeros(20), rng.integers(0, 2, 20).astype(float)):
        g_std = standard_derivative(linearize(fleet, abar, grid, "rk4"))
        g_ns = nonstandard_derivative(linearize(fleet, abar, grid, "rk4"))
        worst = max(worst, float(np.max(np.abs(g_std.entries - g_ns.entries))))
    assert worst <= 1e-8
    return f"worst gap {worst:.2e}"


@criterion(5, "additive systems: surrogate payoff and derivative identities")
def test_criterion_05_reformulation_identities():
    rng = np.random.default_rng(1004)
    worst_j = worst_g = 0.0
    sizes = [int(rng.integers(2, 6)) for _ in range(18)] + [6, 8]
    for m in sizes:
        n = int(rng.integers(1, 4))
        spec = random_additive_system(rng, n, m)
        hat = reformulate(spec)
        grid = TimeGrid(spec.horizon, 41)
        for bits in itertools.product((0.0, 1.0), repeat=m):
            a = np.array(bits)
            j = evaluate_payoff(spec, integrate(spec, a, grid), a)
            j_hat = evaluate_payoff(hat, integrate(hat, a, grid), a)
            worst_j = max(worst_j, abs(j - j_hat))
            g_hat = standard_derivative(linearize(hat, a, grid))
            g_ns = nonstandard_derivative(linearize(spec, a, grid))
            worst_g = max(worst_g, float(np.max(np.abs(g_hat.entries - g_ns.entries))))
    assert worst_j <= 1e-6
    assert worst_g <= 1e-6
    return f"payoff gap {worst_j:.2e}, derivative gap {worst_g:.2e}"


@criterion(6, "cubic-bias example: derivative kinds pick different optima")
def test_criterion_06_bias_example():
    spec = cubic_bias_system(x0=1.0, horizon=1.0)
    grid = TimeGrid(1.0, 801)
    abar = np.array([1.0, 1.0])

    g_std = standard_derivative(linearize(spec, abar, grid, "rk4"))
    g_ns = nonstandard_derivative(linearize(spec, abar, grid, "rk4"))
    pick_std = solve_l0(g_std, 0, 1)
    pick_ns = solve_l0(g_ns, 0, 1)
    assert np.array_equal(pick_std, [1.0, 0.0])
    assert np.array_equal(pick_ns, [0.0, 1.0])

    def payoff(a):
        return evaluate_payoff(spec, integrate(spec, a, grid, "rk4"), a)

    best, _ = solve_bruteforce(payoff, L0Band(0, 1), 2)
    assert np.array_equal(best, [0.0, 1.0])


def _random_constraints(rng, m):
    kind = rng.integers(0, 3)
    if kind == 0:
        return L0Band(0, int(rng.integers(1, m + 1)))
    if kind == 1:
        rows = np.zeros((2, m))
        for i in range(2):
            a = int(rng.integers(0, m))
            b = int(rng.integers(a, m))
            rows[i, a : b + 1] = 1.0
        return TuRows(rows, rng.integers(0, m + 1, 2).astype(float))
    w = rng.uniform(0.0, 2.0, m)
    return Knapsack(w, float(rng.uniform(0.3, 1.0) * max(w.sum(), 1.0)))


@criterion(7, "certificates bound the optimum on 200 random concave instances")
def test_criterion_07_certificates():
    start = time.perf_counter()
    rng = np.random.default_rng(1005)
    for trial in range(200):
        n, m = int(rng.integers(2, 4)), int(rng.integers(3, 11))
        spec, pieces = random_concave_instance(rng, n, m)
        grid = TimeGrid(spec.horizon, 201)
        _c0, _g, _H, batch = concave_quadratic_oracle(spec, pieces, grid, "rk4")
        if trial % 20 == 0:
            a_spot = rng.integers(0, 2, m).astype(float)
            direct = evaluate_payoff(spec, integrate(spec, a_spot, grid, "rk4"), a_spot)
            assert abs(batch(a_spot[None])[0] - direct) < 1e-9 * (1.0 + abs(direct))
        con = _random_constraints(rng, m)
        abar = np.zeros(m)
        assert is_feasible(con, abar)
        grad = standard_derivative(linearize(spec, abar, grid, "rk4"))
        # the certificate premise needs the exact linearized argmax
        astar, _ = solve_bruteforce(lambda A: A @ grad.entries, con, m)
        cert = certify(spec, abar, grad, astar, integrate(spec, astar, grid, "rk4"))
        _opt, opt_val = solve_bruteforce(batch, con, m)
        norm_opt = opt_val - cert.base_payoff
        norm_post = cert.payoff_post - cert.base_payoff
        assert cert.rho_post * norm_opt <= norm_post + 1e-6
        assert cert.payoff_post >= cert.base_payoff
    assert time.perf_counter() - start < 300.0


@criterion(8, "solver exactness and the knapsack half-bound on random instances")
def test_criterion_08_solver_exactness():
    start = time.perf_counter()
    rng = np.random.default_rng(1006)
    for _ in range(500):
        m = int(rng.integers(2, 13))
        g = rng.standard_normal(m)
        grad = _as_grad(g)
        k_min = int(rng.integers(0, m + 1))
        k_max = int(rng.integers(k_min, m + 1))
        got = solve_l0(grad, k_min, k_max)
        _best, best_val = solve_bruteforce(lambda A: A @ g, L0Band(k_min, k_max), m)
        assert abs(float(g @ got) - best_val) < 1e-12

    for trial in range(500):
        m = int(rng.integers(2, 13))
        g = rng.standard_normal(m)
        rows_n = int(rng.integers(1, 5))
        rows = np.zeros((rows_n, m))
        for i in range(rows_n):
            a = int(rng.integers(0, m))
            b = int(rng.integers(a, m))
            rows[i, a : b + 1] = 1.0 if trial % 3 else -1.0
        rhs = rng.integers(-1, m + 1, rows_n).astype(float)
        con = TuRows(rows, rhs)
        try:
            _best, best_val = solve_bruteforce(lambda A: A @ g, con, m)
        except Exception:
            with pytest.raises(Exception):
                solve_tu(_as_grad(g), rows, rhs)
            continue
        got = solve_tu(_as_grad(g), rows, rhs)
        assert np.all(rows @ got <= rhs + 1e-9)
        assert abs(float(g @ got) - best_val) < 1e-9

    for _ in range(1000):
        m = int(rng.integers(2, 16))
        g = rng.uniform(-1.0, 3.0, m)
        w = rng.uniform(0.0, 2.0, m)
        cap = float(rng.uniform(0.4, 0.9) * max(w.sum(), 1.0))
        got = solve_knapsack(_as_grad(g), w, cap)
        _best, opt = solve_bruteforce(lambda A: A @ g, Knapsack(w, cap), m)
        assert float(w @ got) <= cap + 1e-9
        assert float(g @ got) >= 0.5 * opt - 1e-9
    assert time.perf_counter() - start < 120.0


def _as_grad(entries):
    from combidyn import Gradient

    entries = np.asarray(entries, dtype=float)
    return Gradient("standard", np.zeros(entries.size), entries, 0.0)


@criterion(9, "coupled-square examples separate submodularity from concavity")
def test_criterion_09_submodularity_examples():
    grid = TimeGrid(1.0, 401)

    def payoff_fn(sign):
        spec = coupled_square_system(sign=sign)

        def payoff(a):
            return evaluate_payoff(spec, integrate(spec, a, grid, "rk4"), a)

        return payoff

    neg = payoff_fn(-1.0)
    pos = payoff_fn(+1.0)
    assert check_submodular(neg, 2) is False
    assert check_submodular(pos, 2) is True

    # closed-form second differences scale with the integral of (e^t - 1)^2
    bump = (E**2 - 1.0) / 2.0 - 2.0 * (E - 1.0) + 1.0
    j00, j01 = neg(np.zeros(2)), neg(np.array([0.0, 1.0]))
    j10, j11 = neg(np.array([1.0, 0.0])), neg(np.ones(2))
    assert abs((j01 - j00) - 3.0 * bump) < 1e-4
    assert abs((j11 - j10) - 5.0 * bump) < 1e-4


@criterion(10, "desk Case I: per-step certificates hold against the oracle")
def test_criterion_10_case_one():
    start = time.perf_counter()
    sc = default_scenario(20, seed=7)
    results = run_receding_horizon(
        sc, kind="standard", solver="tu", grid_points=201, scheme="rk4", with_oracle=True
    )
    assert len(results) == 32
    ratios, rhos = [], []
    for res in results:
        if not res.optimal:
            assert res.oracle_ratio + 1e-9 >= res.rho_post
        ratios.append(res.oracle_ratio)
        rhos.append(res.rho_post)
    assert time.perf_counter() - start < 600.0
    return (
        f"ratio min {min(ratios):.3f} mean {np.mean(ratios):.3f}; "
        f"rho_post min {min(rhos):.3f} mean {np.mean(rhos):.3f} "
        f"(published fleets: ratio >= 0.95, rho >= 0.7)"
    )


@criterion(11, "desk Case II: operation rows respected, certificates hold")
def test_criterion_11_case_two():
    start = time.perf_counter()
    sc = default_scenario(20, seed=7, case="tu")
    results = run_receding_horizon(
        sc, kind="standard", solver="tu", grid_points=201, scheme="rk4", with_oracle=True
    )
    grid = TimeGrid(sc.step_hours, 201)
    x = sc.params.x0.copy()
    greedy_wins = 0
    ratios = []
    for res in results:
        rhs = sc.case.rhs.copy()
        rhs[-1] = sc.case.z_bar[res.step - 1]
        assert np.all(sc.case.rows @ res.alpha <= rhs + 1e-9)
        if not res.optimal:
            assert res.oracle_ratio + 1e-9 >= res.rho_post
        ratios.append(res.oracle_ratio)
        params = dataclasses.replace(sc.params, x0=x)
        model = quadratic_payoff_model(params, sc.step_hours, grid, "rk4")
        greedy = solve_greedy(model.value, TuRows(sc.case.rows, rhs), 20)
        if res.payoff >= model.value(greedy) - 1e-9:
            greedy_wins += 1
        x = res.temperatures_end.copy()
    assert time.perf_counter() - start < 600.0
    return (
        f"ratio min {min(ratios):.3f} mean {np.mean(ratios):.3f}; "
        f"proposed >= greedy on {greedy_wins}/32 steps "
        f"(published: proposed >= 0.90 of oracle, greedy dips to 0.70-0.85 on 7/32)"
    )


@criterion(12, "transient fleet: closed-form entries and derivative ordering")
def test_criterion_12_transient_comparison():
    params = default_fleet(20, seed=7)
    members = transient_members(20)
    xi = 100.0
    spec = build_transient_system(params, xi, members, 0.25)

    fine = TimeGrid(0.25, 1001)
    rng = np.random.default_rng(1007)
    abar = rng.integers(0, 2, 20).astype(float)
    fwd = integrate(spec, abar, fine, "rk4")
    lam = solve_adjoint(spec, abar, fwd, "rk4")
    w = trapezoid_weights(fine)
    t = fine.times
    g_std = standard_derivative(linearize(spec, abar, fine, "rk4"))
    g_ns = nonstandard_derivative(linearize(spec, abar, fine, "rk4"))
    for i in members:
        lam_i = lam.values[:, i]
        closed_std = -params.b[i] * xi * float(w @ (t * np.exp(-xi * (1.0 - abar[i]) * t) * lam_i))
        closed_ns = -params.b[i] * float(w @ ((1.0 - np.exp(-xi * t)) * lam_i))
        assert abs(g_std.entries[i] - closed_std) < 1e-3
        assert abs(g_ns.entries[i] - closed_ns) < 1e-3
    # independent relaxed-difference cross-check of one member entry
    i = members[0]
    fd = finite_difference_standard(spec, abar, i, 1e-5, fine, "rk4")
    assert abs(fd - g_std.entries[i]) < 1e-3 * (1.0 + abs(fd))

    # 100-point linearization sample on the first slot: the convex-combination
    # route must do at least as well on average.
    sc = default_scenario(20, seed=7, transient=True)
    slot = step_system(sc, sc.params.x0)
    con, _band = step_constraints(sc, 1)
    grid = TimeGrid(sc.step_hours, 501)
    sample_rng = np.random.default_rng(1008)
    totals = {"standard": 0.0, "nonstandard": 0.0}
    for s in range(100):
        base = np.zeros(20) if s == 0 else sample_rng.integers(0, 2, 20).astype(float)
        lin = linearize(slot, base, grid, "rk4")
        for kind, derive in (
            ("standard", standard_derivative),
            ("nonstandard", nonstandard_derivative),
        ):
            grad = derive(lin)
            astar = solve_tu(grad, con.rows, con.rhs)
            cert = certify(slot, base, grad, astar, integrate(slot, astar, grid, "rk4"))
            totals[kind] += cert.payoff_post if is_feasible(con, base) else cert.payoff
    avg_std = totals["standard"] / 100.0
    avg_ns = totals["nonstandard"] / 100.0
    assert avg_ns >= avg_std
    return f"avg payoff: nonstandard {avg_ns:.3f} >= standard {avg_std:.3f}"
