import dataclasses
import sys

import numpy as np
import pytest

from combidyn import (
    ConstraintError,
    DimensionError,
    EtpParams,
    FleetQuadratic,
    SystemSpec,
    TargetBandCase,
    TimeGrid,
    Trajectory,
    TransientConfig,
    TuRows,
    affine_state_model,
    build_etp_system,
    build_transient_system,
    certify,
    check_concavity_inequality,
    default_fleet,
    default_scenario,
    evaluate_payoff,
    finite_difference_standard,
    integrate,
    linearize,
    matvec,
    monotonicity_report,
    nonstandard_derivative,
    payoff_function,
    penalty,
    quadratic_payoff_model,
    run_receding_horizon,
    slot_payoff,
    slot_picks,
    solve_adjoint,
    solve_bruteforce,
    solve_l0,
    standard_derivative,
    step_constraints,
    step_system,
    submodularity_report,
    trapezoid_weights,
    transient_members,
)

SLOT = 0.25  # hours


def test_penalty_band_values():
    assert penalty(2.0, 0.0, 4.0, 1.0) == 0.0
    assert penalty(0.0, 0.0, 4.0, 1.0) == 8.0
    assert penalty(4.0, 0.0, 4.0, 1.0) == 8.0


def test_single_unit_cooling_rate():
    params = default_fleet(10, seed=0)
    params = dataclasses.replace(
        params,
        a=np.array([[1.0]]),
        b=np.array([2.0]),
        theta_ambient=np.array([19.5]),
        theta_lo=np.array([0.0]),
        theta_hi=np.array([4.0]),
        delta=np.array([1.0]),
        c=np.array([10.0]),
        x0=np.array([4.0]),
    )
    spec = build_etp_system(params)
    assert spec.vector_field(np.array([4.0]), np.array([1.0]), 0.0)[0] == 13.5


def test_equilibrium_at_uniform_ambient():
    params = default_fleet(10, seed=1)
    params = dataclasses.replace(params, x0=params.theta_ambient.copy())
    spec = build_etp_system(params)
    f = spec.vector_field(params.x0, np.zeros(10), 0.0)
    assert np.allclose(f, 0.0, atol=1e-12)


def test_matrix_form_matches_summation_form():
    rng = np.random.default_rng(3)
    m = 6
    a = rng.uniform(0.0, 0.5, (m, m))
    params = default_fleet(10, seed=0)
    params = dataclasses.replace(
        params,
        a=a,
        b=rng.uniform(5.0, 30.0, m),
        theta_ambient=rng.uniform(15.0, 25.0, m),
        theta_lo=np.zeros(m),
        theta_hi=np.full(m, 4.0),
        delta=np.ones(m),
        c=np.full(m, 10.0),
        x0=rng.uniform(0.0, 4.0, m),
    )
    spec = build_etp_system(params)
    x = rng.uniform(-2.0, 6.0, m)
    alpha = rng.integers(0, 2, m).astype(float)
    got = spec.vector_field(x, alpha, 0.0)
    # summation form, written independently of the matrix assembly
    expected = np.empty(m)
    for i in range(m):
        coupling = sum(a[i, j] * (x[i] - x[j]) for j in range(m) if j != i)
        expected[i] = -a[i, i] * (x[i] - params.theta_ambient[i]) - coupling - params.b[i] * alpha[i]
    assert np.max(np.abs(got - expected)) < 1e-12


def test_transient_on_units_recover_base_model():
    params = default_fleet(10, seed=2)
    base = build_etp_system(params)
    trans = build_transient_system(params, 100.0, range(10))
    x = params.x0
    ones = np.ones(10)
    for t in (0.0, 0.1, 0.2):
        assert np.allclose(trans.vector_field(x, ones, t), base.vector_field(x, ones, t), atol=1e-12)


def test_transient_off_cooling_decays():
    params = default_fleet(10, seed=2)
    trans = build_transient_system(params, 100.0, range(10))
    base = build_etp_system(params)
    x = params.x0
    zeros = np.zeros(10)
    early = trans.vector_field(x, zeros, 0.0)
    late = trans.vector_field(x, zeros, 0.2)
    no_cooling = base.vector_field(x, zeros, 0.2)
    assert np.all(early < no_cooling - 1.0)  # full cooling right after shutdown
    assert np.max(np.abs(late - no_cooling)) < 1e-6  # decayed after ~20 time constants


def test_transient_member_validation():
    params = default_fleet(10, seed=2)
    with pytest.raises(Exception):
        build_transient_system(params, 100.0, [11])
    with pytest.raises(ConstraintError):
        build_transient_system(params, -1.0, [0])


def test_transient_derivatives_match_costate_integrals():
    params = default_fleet(10, seed=5)
    members = (0, 2, 4, 6, 8)
    xi = 100.0
    spec = build_transient_system(params, xi, members)
    grid = TimeGrid(SLOT, 1001)
    for abar_bits in (np.zeros(10), (np.arange(10) % 2).astype(float)):
        fwd = integrate(spec, abar_bits, grid, "rk4")
        lam = solve_adjoint(spec, abar_bits, fwd, "rk4")
        w = trapezoid_weights(grid)
        t = grid.times
        g_std = standard_derivative(linearize(spec, abar_bits, grid, "rk4"))
        g_ns = nonstandard_derivative(linearize(spec, abar_bits, grid, "rk4"))
        for i in members:
            lam_i = lam.values[:, i]
            closed_std = -params.b[i] * xi * float(
                w @ (t * np.exp(-xi * (1.0 - abar_bits[i]) * t) * lam_i)
            )
            closed_ns = -params.b[i] * float(w @ ((1.0 - np.exp(-xi * t)) * lam_i))
            assert abs(g_std.entries[i] - closed_std) < 1e-3
            assert abs(g_ns.entries[i] - closed_ns) < 1e-3
        # independent relaxed-difference cross-check of one member entry
        i = members[1]
        fd = finite_difference_standard(spec, abar_bits, i, 1e-5, grid, "rk4")
        assert abs(fd - g_std.entries[i]) < 1e-3 * (1.0 + abs(fd))


def test_default_fleet_deterministic_and_published_constants():
    p1 = default_fleet(20, seed=9)
    p2 = default_fleet(20, seed=9)
    for name in ("a", "b", "x0"):
        assert np.array_equal(getattr(p1, name), getattr(p2, name))
    assert np.all(p1.theta_ambient == 19.5)
    assert np.all(p1.theta_lo == 0.0)
    assert np.all(p1.theta_hi == 4.0)
    assert np.all(p1.delta == 1.0)
    assert np.all(p1.c == 10.0)
    sc = default_scenario(20, seed=9)
    assert sc.step_minutes == 15.0
    assert sc.num_steps == 32


def test_default_fleet_perturbation_within_ten_percent():
    p = default_fleet(30, seed=11)
    nominal = default_fleet(10, seed=11)
    for blk in range(3):
        sl = slice(blk * 10, (blk + 1) * 10)
        sub = p.a[sl, sl]
        mask = nominal.a > 0
        ratio = sub[mask] / nominal.a[mask]
        assert np.all(ratio >= 0.9 - 1e-12) and np.all(ratio <= 1.1 + 1e-12)
        assert np.all(np.abs(p.b[sl] / nominal.b - 1.0) <= 0.1 + 1e-12)
    # off-block couplings are zero (blocks are independent stores)
    assert np.all(p.a[:10, 10:] == 0.0)
    with pytest.raises(ConstraintError):
        default_fleet(7, seed=0)


def test_default_scenario_band_profile():
    sc = default_scenario(20, seed=0)
    assert np.all(sc.case.y_hi[8:16] == 0.55 * 200.0)
    assert np.all(sc.case.y_hi[:8] == 0.50 * 200.0)
    assert np.all(sc.case.y_lo == 0.0)
    tu = default_scenario(20, seed=0, case="tu")
    assert tu.case.rows.shape == (9, 20)
    assert np.all(tu.case.z_bar[8:16] == 5.0)
    assert np.all(tu.case.z_bar[:8] == 4.0)


def test_quadratic_model_matches_integrated_payoff():
    rng = np.random.default_rng(21)
    params = default_fleet(10, seed=3)
    grid = TimeGrid(SLOT, 101)
    spec = build_etp_system(params)
    model = quadratic_payoff_model(params, grid, "rk4")
    for _ in range(8):
        alpha = rng.integers(0, 2, 10).astype(float)
        direct = evaluate_payoff(spec, integrate(spec, alpha, grid, "rk4"), alpha)
        assert abs(model.value(alpha) - direct) < 1e-9 * (1.0 + abs(direct))
    batch = model.value(np.eye(10))
    singles = [model.value(row) for row in np.eye(10)]
    assert np.allclose(batch, singles, atol=1e-12)


@pytest.mark.parametrize("scheme", ["euler", "rk4"])
@pytest.mark.parametrize("m", [10, 20, 100])
def test_fleet_hessian_is_symmetric_and_negative_semidefinite(m, scheme):
    # -S^T W S with W = diag(2 w d) >= 0, symmetrized: symmetric bit for bit,
    # and no eigenvalue above roundoff, for both fleets.
    params = default_fleet(m, seed=m)
    grid = TimeGrid(SLOT, 51)
    transient = build_transient_system(params, np.full(m, 100.0), transient_members(m))
    for spec in (build_etp_system(params), transient):
        sens = affine_state_model(spec, grid, scheme)[1]
        Q = FleetQuadratic(params, grid, sens).quadratic
        assert np.array_equal(Q, Q.T)
        assert np.linalg.eigvalsh(Q).max() <= 1e-12 * np.linalg.norm(Q)


@pytest.mark.parametrize("grid_points", [21, 201])
@pytest.mark.parametrize("scheme", ["euler", "rk4"])
@pytest.mark.parametrize("m", [10, 20])
@pytest.mark.parametrize("transient", [False, True])
def test_slot_payoff_equals_integration_at_binary_rows(transient, m, scheme, grid_points):
    # Both fleets are linear in the state with one term per decision entry,
    # so the quadratic slot model reproduces the integrated payoff at every
    # binary row.
    sc = default_scenario(m, seed=3, transient=transient)
    spec = step_system(sc, sc.params.x0)
    grid = TimeGrid(sc.step_hours, grid_points)
    base_path = integrate(spec, np.zeros(m), grid, scheme)
    objective, _fleet = slot_payoff(sc, spec, scheme, base_path)
    rows = np.random.default_rng(m + grid_points).integers(0, 2, (200, m)).astype(float)
    want = payoff_function(spec, grid, scheme)(rows)
    assert np.all(np.abs(objective(rows) - want) <= 1e-12 * np.abs(want))


def test_case_one_payoff_is_concave_and_submodular_small_fleet():
    params = default_fleet(10, seed=13)
    grid = TimeGrid(SLOT, 101)
    model = quadratic_payoff_model(params, grid, "rk4")
    assert submodularity_report(model.value, 10).holds is True
    spec = build_etp_system(params)
    grad = standard_derivative(linearize(spec, np.zeros(10), grid, "rk4"))
    assert check_concavity_inequality(model.value, grad).holds
    # monotonicity is scenario dependent; just exercise the report
    monotonicity_report(model.value, 10)


@pytest.mark.parametrize(
    "kind, holds, worst_gap, witness",
    [
        ("standard", False, 4.400308769266083, [0, 0, 0, 0, 1, 0, 0, 0, 1, 0]),
        ("nonstandard", True, 8.881784197001252e-16, [1, 0, 1, 0, 1, 0, 1, 0, 1, 0]),
    ],
)
def test_concavity_check_reads_the_base_point_from_the_gradient(kind, holds, worst_gap, witness):
    # The premise is checked at the point the derivative was taken, so a
    # check away from all-off gives the verdict of linearizing there: on the
    # transient fleet the standard premise fails and the nonstandard one holds.
    from combidyn.gradient import derivative

    sc = default_scenario(10, seed=2, num_steps=2, transient=True)
    spec = step_system(sc, sc.params.x0)
    grid = TimeGrid(sc.step_hours, 21)
    objective, _fleet = slot_payoff(sc, spec, "rk4", integrate(spec, np.zeros(10), grid, "rk4"))
    grad = derivative(linearize(spec, np.tile([1.0, 0.0], 5), grid, "rk4"), kind)
    report = check_concavity_inequality(objective, grad)
    assert report.holds is holds
    assert report.worst_gap == pytest.approx(worst_gap, rel=1e-9, abs=1e-12)
    assert report.witness.tolist() == witness


def test_fleet_quadratic_refuses_paths_of_another_grid():
    sc = default_scenario(10, seed=2, num_steps=2)
    spec = step_system(sc, sc.params.x0)
    coarse, fine = TimeGrid(sc.step_hours, 21), TimeGrid(sc.step_hours, 41)
    base_fine, sens_fine = affine_state_model(spec, fine, "rk4")
    with pytest.raises(DimensionError, match="41 knots, but the grid has 21"):
        FleetQuadratic(sc.params, coarse, sens_fine)
    _objective, fleet = slot_payoff(sc, spec, "rk4", integrate(spec, np.zeros(10), coarse, "rk4"))
    with pytest.raises(DimensionError, match="41 knots, but the grid has 21"):
        fleet.model(base_fine)
    with pytest.raises(DimensionError, match="41 knots, but the grid has 21"):
        slot_payoff(sc, spec, "rk4", integrate(spec, np.zeros(10), fine, "rk4"), fleet)


def test_slot_payoff_refuses_a_path_not_integrated_all_off():
    # A model completed from another decision's path is silently wrong: on
    # the all-on path it values the all-off decision at -2.581, where
    # integrating that decision gives -5.057.  The path records its decision,
    # so slot_payoff refuses it, and a path that records none.
    sc = default_scenario(10, seed=2, num_steps=2)
    spec = step_system(sc, sc.params.x0)
    grid = TimeGrid(sc.step_hours, 21)
    off, on = (integrate(spec, np.full(10, bit), grid, "rk4") for bit in (0.0, 1.0))
    objective, fleet = slot_payoff(sc, spec, "rk4", off)
    want = evaluate_payoff(spec, off, np.zeros(10))
    assert want == pytest.approx(-5.057, abs=1e-3)
    assert objective(np.zeros(10)) == pytest.approx(want, rel=1e-12)
    assert fleet.model(on.values).value(np.zeros(10)) == pytest.approx(-2.581, abs=1e-3)
    stack = integrate(spec, np.zeros((2, 10)), grid, "rk4")
    for path in (on, Trajectory(grid, off.values), stack):
        with pytest.raises(ValueError, match="all-off decision"):
            slot_payoff(sc, spec, "rk4", path, fleet)
    assert on.decision.tolist() == [1.0] * 10 and not on.decision.flags.writeable


def test_fleet_size_is_the_order_of_the_heat_transfer_matrix():
    scalars = dict(b=8.0, theta_ambient=19.5, theta_lo=0.0, theta_hi=4.0, delta=1.0, c=10.0, x0=2.0)
    params = EtpParams(a=np.full((3, 3), 0.1), **scalars)
    assert params.m == 3 and params.b.shape == (3,)
    for a in (np.ones((3, 2)), np.ones(3), np.zeros((0, 0))):
        with pytest.raises(DimensionError, match="nonempty square matrix"):
            EtpParams(a=a, **scalars)


_FINITE_CASES = [
    *((field, value) for field in ("a", "b", "theta_ambient", "theta_lo", "theta_hi", "delta", "c")
      for value in (np.nan, np.inf)),
    ("y_lo", np.nan), ("y_hi", np.nan), ("y_hi", np.inf),
    ("transient.xi", np.inf), ("transient.xi", np.nan),
    ("step_minutes", np.nan), ("step_minutes", np.inf),
]


@pytest.mark.parametrize("field, value", _FINITE_CASES, ids=[f"{f}-{v}" for f, v in _FINITE_CASES])
def test_scenario_types_refuse_non_finite_numbers(field, value):
    # Refused when built, naming the field, rather than failing in a later
    # slot as a divergence, a dimension error or a bare ValueError.
    sc = default_scenario(10, seed=2, num_steps=2, transient=True)
    with pytest.raises(ConstraintError, match="finite") as err:
        if field in ("y_lo", "y_hi"):
            bounds = {"y_lo": sc.case.y_lo.copy(), "y_hi": sc.case.y_hi.copy()}
            bounds[field][1] = value
            TargetBandCase(**bounds)
        elif field == "transient.xi":
            xi = sc.transient.xi.copy()
            xi[3] = value
            dataclasses.replace(sc, transient=TransientConfig(xi, sc.transient.members))
        elif field == "step_minutes":
            dataclasses.replace(sc, step_minutes=value)
        else:
            entries = getattr(sc.params, field).copy()
            entries.flat[1] = value
            dataclasses.replace(sc.params, **{field: entries})
    assert err.value.field == field


@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_tu_case_refuses_non_finite_budgets(value):
    sc = default_scenario(10, seed=2, num_steps=2, case="tu")
    z_bar = sc.case.z_bar.copy()
    z_bar[0] = value
    with pytest.raises(ConstraintError, match="z_bar must be integer"):
        dataclasses.replace(sc.case, z_bar=z_bar)


def test_case_one_derivatives_coincide():
    params = default_fleet(20, seed=4)
    spec = build_etp_system(params)
    grid = TimeGrid(SLOT, 201)
    abar = np.zeros(20)
    g_std = standard_derivative(linearize(spec, abar, grid, "rk4"))
    g_ns = nonstandard_derivative(linearize(spec, abar, grid, "rk4"))
    assert np.max(np.abs(g_std.entries - g_ns.entries)) <= 1e-8


def test_temperatures_stay_bounded_under_alternating_control():
    params = default_fleet(10, seed=6)
    x = params.x0.copy()
    grid = TimeGrid(SLOT, 101)
    for k in range(32):
        alpha = ((np.arange(10) + k) % 2).astype(float)
        spec = build_etp_system(dataclasses.replace(params, x0=x))
        x = integrate(spec, alpha, grid).final_state.copy()
        assert np.all(x > -5.0) and np.all(x < 25.0)


def test_receding_horizon_state_continuity_and_power():
    sc = default_scenario(10, seed=2, num_steps=4)
    results = run_receding_horizon(sc, grid_points=101, scheme="rk4")
    assert len(results) == 4
    x = sc.params.x0.copy()
    grid = TimeGrid(sc.step_hours, 101)
    for res in results:
        spec = build_etp_system(dataclasses.replace(sc.params, x0=x))
        replay = integrate(spec, res.alpha, grid, "rk4").final_state
        assert np.array_equal(res.temperatures_end, replay)
        assert res.power_kw == float(sc.params.c @ res.alpha)
        x = res.temperatures_end.copy()


def test_receding_horizon_refuses_an_unknown_derivative_kind():
    # A misspelt kind used to run the nonstandard picks under its own label.
    with pytest.raises(ValueError, match="kind must be one of"):
        run_receding_horizon(default_scenario(10, 0, num_steps=2), kind="Standard", grid_points=21)


def test_receding_horizon_checks_its_configuration_before_slot_1(monkeypatch):
    # The oracle route reads no kind, yet a misspelt one is still refused;
    # a misspelt solver or scheme is refused before anything is linearized.
    from combidyn import refrigeration

    scenario = default_scenario(10, 0, num_steps=2)
    with pytest.raises(ValueError, match="kind must be one of"):
        run_receding_horizon(scenario, kind="Standard", solver="oracle", grid_points=21)

    def refuse(*_args):
        raise AssertionError("slot 1 was linearized")

    monkeypatch.setattr(refrigeration, "linearize", refuse)
    for options, name in (({"solver": "oracel"}, "solver"), ({"scheme": "rk5"}, "scheme")):
        with pytest.raises(ValueError, match=f"{name} must be one of") as err:
            run_receding_horizon(scenario, grid_points=21, **options)
        assert "step" not in str(err.value)


def test_receding_horizon_zero_penalty_weights():
    sc = default_scenario(10, seed=2, num_steps=3)
    params = dataclasses.replace(sc.params, delta=np.zeros(10))
    sc = dataclasses.replace(sc, params=params)
    results = run_receding_horizon(sc, grid_points=51)
    for res in results:
        assert res.payoff == 0.0
        assert res.optimal
        assert res.rho_post == 1.0


def test_receding_horizon_first_step_certificate():
    sc = default_scenario(10, seed=2, num_steps=1)
    results = run_receding_horizon(sc, grid_points=201, scheme="rk4")
    res = results[0]
    assert not res.optimal
    assert 0.0 < res.rho_post <= 1.0 + 1e-12


def test_receding_horizon_tu_rows_satisfied():
    sc = default_scenario(10, seed=7, case="tu", num_steps=4)
    results = run_receding_horizon(sc, grid_points=101, scheme="rk4")
    for res in results:
        rhs = sc.case.rhs.copy()
        rhs[-1] = sc.case.z_bar[res.step - 1]
        assert np.all(sc.case.rows @ res.alpha <= rhs + 1e-9)


def test_binding_lower_count_tu_and_l0_agree():
    # A 60-120 kW band at 10 kW per unit asks for 6 to 12 units ON: the TU
    # route's lower-count row has a negative right-hand side.  In the first
    # slot ten units share one gradient entry; the LP's vertex must take the
    # lowest of them, as the stable sort of solve_l0 does.
    sc = default_scenario(20, seed=3, num_steps=6)
    sc = dataclasses.replace(
        sc,
        params=dataclasses.replace(sc.params, x0=np.full(20, 0.5)),
        case=TargetBandCase(np.full(6, 60.0), np.full(6, 120.0)),
    )
    tu, l0 = (run_receding_horizon(sc, solver=solver) for solver in ("tu", "l0"))
    assert [int(res.alpha.sum()) for res in tu] == [6, 12, 6, 12, 8, 12]
    for a, b in zip(tu, l0):
        assert np.array_equal(a.alpha, b.alpha)
        assert a.payoff == b.payoff


def test_receding_horizon_oracle_ratio_bounds():
    sc = default_scenario(10, seed=2, num_steps=3)
    results = run_receding_horizon(sc, grid_points=101, scheme="rk4", with_oracle=True)
    for res in results:
        assert res.oracle_ratio <= 1.0 + 1e-9
        assert res.oracle_ratio + 1e-9 >= res.rho_post or res.optimal


def test_transient_nonstandard_bound_holds_against_the_oracle():
    # The transient oracle runs on the quadratic slot model, so it can check
    # the nonstandard certificate: every slot's a-posteriori bound is at most
    # the achieved share of the true optimum (the benchmark's slot rule).
    sc = default_scenario(20, 7, transient=True, num_steps=4)
    results = run_receding_horizon(
        sc, kind="nonstandard", with_oracle=True, scheme="rk4", grid_points=51
    )
    assert len(results) == 4
    for res in results:
        assert res.rho_post <= res.oracle_ratio + 1e-9


def test_transient_members_pattern():
    mem = transient_members(20)
    assert len(mem) == 12
    assert 1 not in mem and 3 not in mem and 17 not in mem
    assert 0 in mem and 8 in mem and 19 in mem


def test_bruteforce_batch_and_scalar_routes_agree():
    # The quadratic model and batched integration must select the same
    # optimum over the Case-I feasible set.
    import combidyn

    params = default_fleet(10, seed=8)
    grid = TimeGrid(SLOT, 51)
    spec = build_etp_system(params)
    model = quadratic_payoff_model(params, grid, "rk4")
    con = combidyn.TuRows(np.vstack([np.ones(10), -np.ones(10)]), np.array([5.0, 0.0]))

    def payoff(a):
        return evaluate_payoff(spec, integrate(spec, a, grid, "rk4"), a)

    a_scalar, v_scalar = combidyn.solve_bruteforce(payoff, con, 10)
    a_batch, v_batch = combidyn.solve_bruteforce(model.value, con, 10)
    assert np.array_equal(a_scalar, a_batch)
    assert abs(v_scalar - v_batch) < 1e-9 * (1.0 + abs(v_scalar))


def test_desk_fleet_quality_matches_module_expectations():
    # On the shipped synthetic fleet the certified controller stays within
    # 10% of the per-slot exhaustive optimum with strictly positive
    # certificates (regression for the documented desk-scale behavior).
    sc = default_scenario(20, seed=7, num_steps=12)
    results = run_receding_horizon(
        sc, kind="standard", solver="tu", grid_points=201, scheme="rk4", with_oracle=True
    )
    for res in results:
        assert res.optimal or res.rho_post > 0.0
        assert res.oracle_ratio >= 0.9


def test_receding_horizon_both_kinds():
    sc = default_scenario(10, seed=2, num_steps=2)
    results = run_receding_horizon(sc, kind="both", grid_points=101, scheme="rk4")
    assert all(res.kind in ("standard", "nonstandard") for res in results)


def _infeasible_base_scenario():
    """Transient m = 20, one slot, all rooms at 1.5 C and a band that forces
    exactly 10 units ON, so the all-zeros base point is infeasible."""
    sc = default_scenario(20, seed=0, transient=True, num_steps=1)
    params = dataclasses.replace(sc.params, x0=np.full(20, 1.5))
    return dataclasses.replace(sc, params=params, case=TargetBandCase([100.0], [100.0]))


def test_both_kinds_compare_applied_payoffs_at_infeasible_base():
    # A band of exactly 10 ON units makes the all-zeros base point infeasible,
    # so each kind applies its solver pick rather than the post-processed
    # best of pick and base; "both" must choose by that applied payoff, not
    # by payoff_post (which here is the infeasible base's payoff for both
    # kinds, since both picks pay less than the base).
    sc = _infeasible_base_scenario()
    run = dict(solver="l0", grid_points=201, scheme="rk4")
    (std,) = run_receding_horizon(sc, kind="standard", **run)
    (ns,) = run_receding_horizon(sc, kind="nonstandard", **run)
    (both,) = run_receding_horizon(sc, kind="both", **run)
    assert ns.payoff > std.payoff
    assert both.kind == "nonstandard"
    assert both.payoff == ns.payoff
    assert np.array_equal(both.alpha, ns.alpha)


def test_scenario_rejects_duplicate_transient_members():
    sc = default_scenario(10, seed=2, num_steps=2, transient=True)
    with pytest.raises(ConstraintError, match="duplicate unit index"):
        dataclasses.replace(sc, transient=TransientConfig(sc.transient.xi, (0, 0)))
    with pytest.raises(DimensionError, match="out of range"):
        dataclasses.replace(sc, transient=TransientConfig(sc.transient.xi, (10,)))



@pytest.mark.parametrize(
    "c, message",
    [
        (np.array([10.0, 10.0, 10.0, 12.0, 10.0, 10.0, 10.0, 10.0, 10.0, 10.0]), "uniform unit power draws"),
        (np.zeros(10), "must be positive"),
    ],
    ids=["unit_4_draws_12_kw", "no_draw"],
)
def test_power_band_scenario_needs_uniform_positive_power_draws(c, message):
    # The count-band encoding of a power band is checked once, when the
    # scenario is built, not in every slot.
    sc = default_scenario(10, seed=2, num_steps=2)
    with pytest.raises(ConstraintError, match=message):
        dataclasses.replace(sc, params=dataclasses.replace(sc.params, c=c))


def _rebind(monkeypatch, fn, replacement):
    """Replace ``fn`` under every name that holds it in the package modules,
    so calls through any module-level binding reach the replacement."""
    modules = [mod for name, mod in sys.modules.items() if name.split(".")[0] == "combidyn"]
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is fn:
                monkeypatch.setattr(mod, attr, replacement)


def _count_calls(monkeypatch, *functions):
    counts = {fn.__name__: 0 for fn in functions}
    for fn in functions:

        def counted(*args, _fn=fn, **kwargs):
            counts[_fn.__name__] += 1
            return _fn(*args, **kwargs)

        _rebind(monkeypatch, fn, counted)
    return counts


@pytest.mark.parametrize(
    "transient, kind, integrations",
    [(False, "standard", 2), (True, "standard", 2), (True, "both", 2), (False, "both", 2)],
)
def test_one_forward_pass_and_one_costate_per_slot(monkeypatch, transient, kind, integrations):
    # Per slot: the base path (shared by every derivative kind), one costate
    # pass on it, and one pass over the distinct picks: a (2, m) stack when
    # the transient fleet's two kinds pick differently, one 1-D integration
    # when the linear fleet's coinciding derivatives pick the same decision.
    # The applied decision is never integrated again.
    sc = default_scenario(20, seed=0, num_steps=2, transient=transient)
    counts = _count_calls(monkeypatch, integrate, solve_adjoint)
    results = run_receding_horizon(sc, kind=kind, solver="l0", grid_points=51, scheme="rk4")
    assert len(results) == 2
    assert counts == {"integrate": 2 * integrations, "solve_adjoint": 2}


@pytest.mark.parametrize("transient", [False, True])
@pytest.mark.parametrize("route", [dict(with_oracle=True), dict(solver="oracle")])
def test_oracle_probes_the_fleet_once_per_horizon(monkeypatch, route, transient):
    # One probe stack in slot 1; after it each slot integrates its base path
    # and the applied decision (the with_oracle route's pick, the oracle
    # route's optimum) and reads the fleet's quadratic part for the oracle.
    # No fleet integrates the enumerated rows.
    sc = default_scenario(20, seed=0, case="tu", num_steps=3, transient=transient)
    counts = _count_calls(monkeypatch, integrate, affine_state_model, payoff_function)
    results = run_receding_horizon(sc, grid_points=51, scheme="rk4", **route)
    assert len(results) == 3
    assert counts == {"integrate": 2 * 3 + 1, "affine_state_model": 1, "payoff_function": 0}


@pytest.mark.parametrize(
    "seed, transient",
    [pytest.param(seed, transient, id=f"{seed}-transient" if transient else str(seed))
     for transient in (False, True) for seed in (0, 1, 2)],
)
def test_slot_models_equal_a_per_slot_rebuild(monkeypatch, seed, transient):
    # Every slot's model (the fleet's Hessian and sensitivities from slot 1,
    # completed by the slot's all-off path) equals a model rebuilt at the
    # slot's temperatures: quadratic_payoff_model for the linear fleet, a
    # fresh slot_payoff for the transient one.  The constant is equal bit for
    # bit, the rest to roundoff, and the exhaustive optimum is the same.
    if transient:
        sc = default_scenario(20, seed, num_steps=6, transient=True)
    else:
        sc = default_scenario(20, seed, "tu", num_steps=6)
    grid = TimeGrid(sc.step_hours, 51)
    models = []
    fleet_model = FleetQuadratic.model

    def rebuild(x):
        if not transient:
            return quadratic_payoff_model(dataclasses.replace(sc.params, x0=x), grid, "rk4")
        spec = step_system(sc, x)
        base_path = integrate(spec, np.zeros(20), grid, "rk4")
        _objective, fleet = slot_payoff(sc, spec, "rk4", base_path, fleet=None)
        return fleet_model(fleet, base_path.values)

    def recorded(self, base):
        models.append(fleet_model(self, base))
        return models[-1]

    monkeypatch.setattr(FleetQuadratic, "model", recorded)
    run = dict(grid_points=51, scheme="rk4")
    checked = run_receding_horizon(sc, with_oracle=True, **run)
    assert len(models) == 6
    optimal = run_receding_horizon(sc, solver="oracle", **run)
    assert len(models) == 12
    plain = run_receding_horizon(sc, **run)
    for route, results, slot_models in ((0, checked, models[:6]), (1, optimal, models[6:])):
        x = sc.params.x0
        for res, model in zip(results, slot_models):
            rebuilt = rebuild(x)
            assert model.constant == rebuilt.constant
            for got, want in ((model.linear, rebuilt.linear), (model.quadratic, rebuilt.quadratic)):
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
            con, _ = step_constraints(sc, res.step)
            best, value = solve_bruteforce(rebuilt.value, con, 20)
            if route:
                assert np.array_equal(res.alpha, best)
                assert abs(res.payoff - value) <= 1e-12 * abs(value)
            else:
                assert abs(res.oracle_payoff - value) <= 1e-12 * abs(value)
            x = res.temperatures_end
    # The oracle reads the applied path and does not move it.
    for res, ref in zip(checked, plain):
        assert res.payoff == ref.payoff and res.rho_post == ref.rho_post
        assert np.array_equal(res.temperatures_end, ref.temperatures_end)


def _first_slot(transient):
    sc = default_scenario(20, seed=0, num_steps=1, transient=transient)
    con, band = step_constraints(sc, 1)
    return step_system(sc, sc.params.x0), con, band, TimeGrid(sc.step_hours, 51)


@pytest.mark.parametrize("transient", [False, True])
def test_distinct_picks_share_one_integration(monkeypatch, transient):
    # After the base path, the slot integrates its distinct picks once: the
    # transient fleet's two kinds pick differently and go through one (2, m)
    # stack; the linear fleet's coinciding derivatives pick the same decision,
    # which is integrated as a 1-D decision.
    spec, con, band, grid = _first_slot(transient)
    shapes = []

    def recorded(spec, alpha, *args):
        shapes.append(np.shape(alpha))
        return integrate(spec, alpha, *args)

    _rebind(monkeypatch, integrate, recorded)
    kinds = ("standard", "nonstandard")
    picks = slot_picks(spec, np.zeros(20), con, band, kinds, "l0", grid, "rk4")
    std, ns = (picks[kind].cert.alpha_star for kind in kinds)
    assert np.array_equal(std, ns) is not transient
    assert shapes == [(20,), (2, 20) if transient else (20,)]


@pytest.mark.parametrize("transient", [False, True])
def test_certify_from_a_stacked_row_equals_a_single_integration(transient):
    spec, con, band, grid = _first_slot(transient)
    base = np.zeros(20)
    grad = standard_derivative(linearize(spec, base, grid, "rk4"))
    pick = solve_l0(grad, 0, 10)
    other = np.roll(pick, 1)
    assert not np.array_equal(pick, other)
    stack = integrate(spec, np.stack([other, pick]), grid, "rk4")
    from_row = certify(spec, base, grad, pick, Trajectory(grid, stack.values[:, 1]))
    alone = certify(spec, base, grad, pick, integrate(spec, pick, grid, "rk4"))
    for field in ("payoff", "rho", "rho_post", "payoff_post"):
        assert getattr(from_row, field) == getattr(alone, field)
    assert np.array_equal(from_row.end_state, alone.end_state)
    assert np.array_equal(from_row.alpha_post, alone.alpha_post)
    with pytest.raises(DimensionError):
        certify(spec, base, grad, pick, stack)
    narrow = Trajectory(grid, np.ascontiguousarray(stack.values[:, 1, :19]))
    with pytest.raises(DimensionError):
        certify(spec, base, grad, pick, narrow)


@pytest.mark.parametrize("case", ["standard", "both", "oracle", "infeasible_base"])
def test_end_temperatures_equal_a_fresh_integration(case):
    if case == "infeasible_base":
        sc, run = _infeasible_base_scenario(), dict(kind="both", solver="l0")
    else:
        sc = default_scenario(10, seed=0, num_steps=2, transient=case == "both")
        run = {
            "standard": dict(kind="standard", solver="tu"),
            "both": dict(kind="both", solver="l0"),
            "oracle": dict(solver="oracle"),
        }[case]
    grid = TimeGrid(sc.step_hours, 51)
    x = sc.params.x0
    for res in run_receding_horizon(sc, grid_points=51, scheme="rk4", **run):
        final = integrate(step_system(sc, x), res.alpha, grid, "rk4").final_state
        assert np.array_equal(res.temperatures_end, final)
        x = res.temperatures_end


def test_slot_pick_applies_the_base_path_when_the_pick_pays_less():
    # x' = a1 + a2 from 0 with terminal payoff -(x - 0.9)^2: the linearization
    # at zero favors both bits, but both ON pays -1.21 against -0.81 at the
    # feasible base, so the base point and its path's end state are applied.
    spec = SystemSpec(
        decision_dim=2,
        initial_state=[0.0],
        vector_field=lambda x, a, t: np.zeros_like(x) + np.sum(a, axis=-1, keepdims=True),
        running_payoff=lambda x, a, t: 0.0,
        terminal_payoff=lambda x: -((x[..., 0] - 0.9) ** 2),
        jac_f_x=lambda x, a, t: np.zeros((1, 1)),
        jac_r_x=lambda x, a, t: np.zeros(1),
        jac_q_x=lambda x: -2.0 * (x - 0.9),
        jac_f_alpha=lambda x, a, t: np.ones((1, 2)),
        jac_r_alpha=lambda x, a, t: np.zeros(2),
    )
    grid = TimeGrid(1.0, 11)
    con = TuRows(np.ones((1, 2)), [2.0])
    picks = slot_picks(spec, np.zeros(2), con, None, ("standard", "nonstandard"), "tu", grid, "rk4")
    for pick in picks.values():
        assert np.array_equal(pick.cert.alpha_star, np.ones(2))
        assert np.array_equal(pick.alpha, np.zeros(2))
        assert pick.payoff == pick.cert.base_payoff
        assert np.array_equal(pick.end_state, integrate(spec, np.zeros(2), grid, "rk4").final_state)
        assert np.array_equal(pick.cert.end_state, integrate(spec, np.ones(2), grid, "rk4").final_state)


@pytest.mark.parametrize("m", [10, 20, 100])
def test_etp_field_equals_the_dense_decision_product(m):
    # The field takes -b * a for matvec(B, a) with B = -diag(b): the dense
    # product's off-diagonal terms are exact zeros, so the bits are the same
    # at binary, relaxed (box overhang included) and stacked decisions.
    from combidyn.refrigeration import _etp_matrices

    params = default_fleet(m, seed=m)
    spec = build_etp_system(params)
    A, B, theta = _etp_matrices(params)
    assert np.array_equal(spec.jac_f_alpha(params.x0, np.zeros(m), 0.0), B)
    rng = np.random.default_rng(m)
    binary = rng.integers(0, 2, m).astype(float)
    relaxed = rng.uniform(-0.01, 1.01, m)
    relaxed[:3] = -0.01, 1.01, 0.0
    stack = np.vstack([binary, relaxed, np.zeros(m), np.ones(m)])
    for a in (binary, relaxed, np.zeros(m), stack):
        x = rng.uniform(-2.0, 6.0, a.shape)
        assert np.array_equal(spec.vector_field(x, a, 0.0), matvec(A, x) + matvec(B, a) + theta)
    X = rng.uniform(-2.0, 6.0, (5,) + stack.shape)  # knots x decisions x states
    assert np.array_equal(spec.vector_field(X, stack, 0.0), matvec(A, X) + matvec(B, stack) + theta)
