"""The broadcasting callback contract: one call over stacked points equals the
stacked single-point calls bit for bit, for every shipped and test system."""

import numpy as np
import pytest

import combidyn.system as system
from combidyn import (
    TimeGrid,
    affine_state_model,
    blended_system,
    build_etp_system,
    build_transient_system,
    costate_pairing,
    default_fleet,
    evaluate_payoff,
    integrate,
    linearize,
    nonstandard_derivative,
    payoff_function,
    quadratic_payoff_model,
    reformulate,
    transient_members,
)

from support import (
    coupled_square_system,
    cubic_bias_system,
    exp_additive_system,
    random_additive_system,
    random_affine_system,
    random_concave_instance,
    random_nonrelaxable_system,
    random_poly_system,
    scalar_affine_system,
    scalar_exp_system,
)

SLOT = 0.25


def _fleet(m=10):
    return build_etp_system(default_fleet(m, seed=3))


def _transient(m=20):
    params = default_fleet(m, seed=3)
    return build_transient_system(params, 100.0, transient_members(m))


SYSTEMS = {
    "etp": _fleet,
    "transient": _transient,
    "scalar_exp": scalar_exp_system,
    "scalar_exp_terminal": lambda: scalar_exp_system(terminal=True),
    "scalar_affine": scalar_affine_system,
    "cubic_bias": cubic_bias_system,
    "exp_additive": exp_additive_system,
    "coupled_square": coupled_square_system,
    "random_poly": lambda: random_poly_system(np.random.default_rng(1), 3, 4),
    "random_nonrelaxable": lambda: random_nonrelaxable_system(np.random.default_rng(2), 3, 4),
    "random_additive": lambda: random_additive_system(np.random.default_rng(3), 3, 4),
    "random_affine": lambda: random_affine_system(np.random.default_rng(4), 3, 4),
    "random_concave": lambda: random_concave_instance(np.random.default_rng(5), 3, 4)[0],
    "reformulated_additive": lambda: reformulate(
        random_additive_system(np.random.default_rng(6), 3, 4)
    ),
    "reformulated_transient": lambda: reformulate(_transient(10)),
    "blended_transient": lambda: blended_system(
        _transient(10), np.zeros(10), np.tile([1.0, 0.0], 5), 0.3
    ),
}


def _points(spec, rng, count=7):
    x = rng.standard_normal((count, spec.state_dim))
    if spec.relaxable:
        a = rng.uniform(0.0, 1.0, (count, spec.decision_dim))
    else:
        a = rng.integers(0, 2, (count, spec.decision_dim)).astype(float)
    return x, a, rng.uniform(0.0, 1.0, count)  # no system here runs past t = 1


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_batched_callbacks_equal_stacked_single_points(name):
    spec = SYSTEMS[name]()
    n, m = spec.state_dim, spec.decision_dim
    x, a, t = _points(spec, np.random.default_rng(len(name)))
    shapes = {
        "vector_field": (n,),
        "running_payoff": (),
        "jac_f_x": (n, n),
        "jac_r_x": (n,),
        "jac_f_alpha": (n, m),
        "jac_r_alpha": (m,),
    }
    for attr, out in shapes.items():
        fn = getattr(spec, attr)
        if fn is None:
            continue
        batched = np.broadcast_to(fn(x, a, t), (len(t),) + out)
        singles = np.stack([np.broadcast_to(fn(*point), out) for point in zip(x, a, t)])
        assert np.array_equal(batched, singles), attr
    for attr, out in (("terminal_payoff", ()), ("jac_q_x", (n,))):
        fn = getattr(spec, attr)
        batched = np.broadcast_to(fn(x), (len(t),) + out)
        singles = np.stack([np.broadcast_to(fn(point), out) for point in x])
        assert np.array_equal(batched, singles), attr


@pytest.mark.parametrize("build", [_fleet, _transient], ids=["etp", "transient"])
@pytest.mark.parametrize("scheme", ["euler", "rk4"])
def test_stacked_integration_equals_per_row(build, scheme):
    spec = build()
    grid = TimeGrid(SLOT, 41)
    rows = np.random.default_rng(7).integers(0, 2, (6, spec.decision_dim)).astype(float)
    paths = integrate(spec, rows, grid, scheme)
    payoffs = evaluate_payoff(spec, paths, rows)
    assert paths.values.shape == (41, 6, spec.state_dim) and payoffs.shape == (6,)
    for b, row in enumerate(rows):
        single = integrate(spec, row, grid, scheme)
        assert np.array_equal(paths.values[:, b], single.values)
        assert payoffs[b] == evaluate_payoff(spec, single, row)


def test_affine_state_model_equals_per_unit_integrations():
    spec = _fleet()
    grid = TimeGrid(SLOT, 51)
    base, sens = affine_state_model(spec, grid, "rk4")
    m = spec.decision_dim
    assert np.array_equal(base, integrate(spec, np.zeros(m), grid, "rk4").values)
    for i, unit in enumerate(np.eye(m)):
        assert np.array_equal(sens[:, :, i], integrate(spec, unit, grid, "rk4").values - base)


def test_nonstandard_entries_equal_single_flip_pairings():
    spec = _transient()
    grid = TimeGrid(SLOT, 41)
    abar = np.random.default_rng(8).integers(0, 2, spec.decision_dim).astype(float)
    lin = linearize(spec, abar, grid, "rk4")
    grad = nonstandard_derivative(lin)
    for i in range(spec.decision_dim):
        flip = abar.copy()
        flip[i] = 1.0 - abar[i]
        sign = 1.0 if abar[i] == 0.0 else -1.0
        assert grad.entries[i] == sign * costate_pairing(lin, flip)


def test_quadratic_model_rows_equal_single_decisions():
    model = quadratic_payoff_model(default_fleet(10, seed=3), TimeGrid(SLOT, 31), "rk4")
    rows = np.random.default_rng(9).integers(0, 2, (16, 10)).astype(float)
    values = model.value(rows)
    assert values.shape == (16,)
    assert np.array_equal(values, [model.value(row) for row in rows])
    assert isinstance(model.value(rows[0]), float)


def test_payoff_function_blocks_equal_per_row(monkeypatch):
    spec = _transient(10)
    grid = TimeGrid(SLOT, 21)
    monkeypatch.setattr(system, "_PATH_BUDGET", 3 * grid.num_points * spec.state_dim)
    payoff = payoff_function(spec, grid, "rk4")  # blocks of 3 rows
    rows = np.random.default_rng(10).integers(0, 2, (2, 4, 10)).astype(float)
    values = payoff(rows)
    assert values.shape == (2, 4)
    for idx in np.ndindex(2, 4):
        row = rows[idx]
        assert values[idx] == evaluate_payoff(spec, integrate(spec, row, grid, "rk4"), row)
        assert payoff(row) == values[idx]
