"""Integrate a scalar system, evaluate its payoff, and solve the costate.

The running example is x' = x + alpha_1 on [0, 1] with running payoff r = x:
everything has a closed form in e, so we can watch the fixed-step schemes and
the backward costate pass converge to known numbers.  The callbacks follow
the package's broadcasting contract: x is (..., n) and a is (..., m), so the
same lambdas serve one point or every knot of a path in one call.
"""

import numpy as np

from combidyn import (
    SystemSpec,
    TimeGrid,
    evaluate_payoff,
    integrate,
    solve_adjoint,
)

E = np.e

spec = SystemSpec(
    state_dim=1,
    decision_dim=1,
    initial_state=[0.0],
    horizon=1.0,
    vector_field=lambda x, a, t: x + a[..., :1],
    running_payoff=lambda x, a, t: x[..., 0],
    terminal_payoff=lambda x: 0.0,
    jac_f_x=lambda x, a, t: np.array([[1.0]]),
    jac_r_x=lambda x, a, t: np.array([1.0]),
    jac_q_x=lambda x: np.array([0.0]),
    jac_f_alpha=lambda x, a, t: np.array([[1.0]]),
    jac_r_alpha=lambda x, a, t: np.array([0.0]),
    relaxable=True,
)

print("=== forward integration: x' = x + 1, x(0) = 0, so x(1) = e - 1 ===")
for scheme in ("euler", "rk4"):
    for n_pts in (101, 1001):
        traj = integrate(spec, [1.0], TimeGrid(1.0, n_pts), scheme)
        err = abs(traj.final_state[0] - (E - 1.0))
        print(f"  {scheme:5s} N={n_pts:5d}  x(T) = {traj.final_state[0]:.8f}  error {err:.2e}")

print()
print("=== trajectory payoff: integral of x dt = e - 2 ===")
grid = TimeGrid(1.0, 1001)
traj = integrate(spec, [1.0], grid, "rk4")
payoff = evaluate_payoff(spec, traj, [1.0])
print(f"  trapezoid payoff = {payoff:.8f}   (e - 2 = {E - 2.0:.8f})")

print()
print("=== costate: -lam' = lam + 1 backward from lam(1) = 0 ===")
lam = solve_adjoint(spec, [1.0], traj, "rk4")
expected = np.exp(1.0 - grid.times) - 1.0
err = np.max(np.abs(lam.values[:, 0] - expected))
print(f"  lam(0) = {lam.values[0, 0]:.8f}   (e - 1 = {E - 1.0:.8f})")
print(f"  max deviation from exp(1 - t) - 1 over the grid: {err:.2e}")
print()
print("The costate weighs how state perturbations at each time feed the payoff;")
print("its quadrature against decision sensitivities is what the gradient module uses.")
