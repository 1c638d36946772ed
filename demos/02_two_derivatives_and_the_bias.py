"""The two decision-space derivatives, and a system where they disagree.

System: x' = x + a1^3 + 2 a2, r = x^2, x(0) = 1, T = 1, linearized at (1, 1)
under the constraint "at most one bit on".

The relaxation-based (standard) derivative differentiates the cubic and sees
slope 3 on bit 1; the convex-combination (nonstandard) derivative only ever
compares the two binary levels and sees the unit secant.  Since a1 enters
only through a1^3, which is the same 0/1 step as a1 itself, the nonstandard
view matches what flipping the bit actually does -- and it picks the true
optimum here while the standard pick is biased toward bit 1.
"""

import numpy as np

from combidyn import (
    L0Band,
    TimeGrid,
    finite_difference_nonstandard,
    finite_difference_standard,
    nonstandard_derivative,
    payoff_function,
    reformulate,
    solve_bruteforce,
    solve_l0,
    standard_derivative,
)

spec_kwargs = dict(
    state_dim=1,
    decision_dim=2,
    initial_state=[1.0],
    horizon=1.0,
    vector_field=lambda x, a, t: x + a[..., :1] ** 3 + 2.0 * a[..., 1:],
    running_payoff=lambda x, a, t: x[..., 0] ** 2,
    terminal_payoff=lambda x: 0.0,
    jac_f_x=lambda x, a, t: np.array([[1.0]]),
    jac_r_x=lambda x, a, t: 2.0 * x,
    jac_q_x=lambda x: np.array([0.0]),
    jac_f_alpha=lambda x, a, t: np.stack(
        [3.0 * a[..., 0] ** 2, np.full(a.shape[:-1], 2.0)], axis=-1
    )[..., None, :],
    jac_r_alpha=lambda x, a, t: np.zeros(2),
    relaxable=True,
)
from combidyn import SystemSpec

spec = SystemSpec(**spec_kwargs)
grid = TimeGrid(1.0, 1001)
abar = np.array([1.0, 1.0])

g_std = standard_derivative(spec, abar, grid, "rk4")
g_ns = nonstandard_derivative(spec, abar, grid, "rk4")
print("=== gradients at the base point (1, 1) ===")
print(f"  standard    : {g_std.entries}   (ratio {g_std.entries[0] / g_std.entries[1]:.3f}, slope 3 vs 2)")
print(f"  nonstandard : {g_ns.entries}   (ratio {g_ns.entries[0] / g_ns.entries[1]:.3f}, secant 1 vs 2)")

print()
print("=== independent difference-quotient oracles agree ===")
fd_std = finite_difference_standard(spec, abar, 0, 1e-4, grid, "rk4")
print(f"  central difference on bit 1      : {fd_std:.5f}  vs adjoint {g_std.entries[0]:.5f}")
for eps in (0.1, 0.05, 0.025):
    fd_ns = finite_difference_nonstandard(spec, abar, 0, eps, grid, "rk4")
    print(f"  blend quotient, eps = {eps:<6}     : {fd_ns:.5f}  vs adjoint {g_ns.entries[0]:.5f}")

print()
print("=== solving 'at most one bit on' with each gradient ===")
pick_std = solve_l0(g_std, 0, 1)
pick_ns = solve_l0(g_ns, 0, 1)
payoff = payoff_function(spec, grid, "rk4")  # decision rows (..., 2) -> payoffs (...)
best, best_val = solve_bruteforce(payoff, L0Band(0, 1), 2)
print(f"  standard pick    : {pick_std.astype(int)}  payoff {payoff(pick_std):.5f}")
print(f"  nonstandard pick : {pick_ns.astype(int)}  payoff {payoff(pick_ns):.5f}")
print(f"  exhaustive best  : {best.astype(int)}  payoff {best_val:.5f}")

print()
print("=== the decision-affine surrogate ===")
hat = reformulate(spec)
x_probe = np.array([0.7])
a_probe = np.array([0.5, 0.25])
print("  surrogate field at fractional decision:", hat.vector_field(x_probe, a_probe, 0.0))
print("  (equals x + a1 + 2 a2: the cubic collapsed to its binary secant)")
g_hat = standard_derivative(hat, abar, grid, "rk4")
print(f"  standard derivative of the surrogate : {g_hat.entries}")
print(f"  nonstandard derivative of the original: {g_ns.entries}")
print("  They coincide: the surrogate interprets the convex-combination route.")
