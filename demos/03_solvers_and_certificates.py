"""Linearize, solve the 0-1 program three ways, and certify the result.

A random linear system with concave penalties stands in for a 'real' model.
Because its payoff is concave in the decision vector, the linearized picks
come with an a-posteriori guarantee: rho_post times the best possible
(normalized) payoff is at most what the pick achieves.  The concavity check,
the exhaustive oracle and the set-function reports all read one payoff
objective, built once by ``payoff_function``.
"""

import numpy as np

from combidyn import (
    Knapsack,
    L0Band,
    SystemSpec,
    TimeGrid,
    TuRows,
    certify,
    check_concavity_inequality,
    integrate,
    linearize,
    matvec,
    monotonicity_report,
    payoff_function,
    rowdot,
    solve_bruteforce,
    solve_knapsack,
    solve_l0,
    solve_tu,
    standard_derivative,
    submodularity_report,
)

rng = np.random.default_rng(3)
n, m = 3, 8
A = 0.4 * rng.standard_normal((n, n)) - 0.5 * np.eye(n)
B = 0.8 * rng.standard_normal((n, m))
w = rng.uniform(0.3, 1.0, n)
ctr = rng.uniform(-0.5, 0.5, n)
d = 0.6 * rng.standard_normal(m)

spec = SystemSpec(
    decision_dim=m,
    initial_state=0.5 * rng.uniform(-1.0, 1.0, n),
    vector_field=lambda x, a, t: matvec(A, x) + matvec(B, a),
    running_payoff=lambda x, a, t: rowdot((x - ctr) ** 2, -w) + rowdot(a, d),
    terminal_payoff=lambda x: 0.0,
    jac_f_x=lambda x, a, t: A,
    jac_r_x=lambda x, a, t: -2.0 * w * (x - ctr),
    jac_q_x=lambda x: np.zeros(n),
    jac_f_alpha=lambda x, a, t: B,
    jac_r_alpha=lambda x, a, t: d,
)
grid = TimeGrid(0.5, 201)
abar = np.zeros(m)
grad = standard_derivative(linearize(spec, abar, grid, "rk4"))
payoff = payoff_function(spec, grid, "rk4")  # decision rows (..., m) -> payoffs (...)

print("=== gradient at the all-zeros base ===")
print(" ", np.round(grad.entries, 4))

print()
print("=== the concavity inequality validates the certificate premise ===")
report = check_concavity_inequality(payoff, grad)
print(f"  holds over all {1 << m} binary points: {report.holds}"
      f" (worst gap {report.worst_gap:.2e})")

print()
print("=== one-shot count-band solver (at most 3 on) ===")
pick = solve_l0(grad, 0, 3)
cert = certify(spec, abar, grad, pick, integrate(spec, pick, grid, "rk4"))
opt_a, opt_v = solve_bruteforce(payoff, L0Band(0, 3), m)
print(f"  pick {pick.astype(int)}  rho_post = {cert.rho_post:.3f}")
print(f"  guarantee: payoff gain >= {cert.rho_post:.3f} x best gain")
print(f"  achieved  {cert.payoff_post - cert.base_payoff:.5f}"
      f"  vs best {opt_v - cert.base_payoff:.5f}")

print()
print("=== totally unimodular operation rows through the boxed LP ===")
rows = np.zeros((2, m))
rows[0, :4] = 1.0   # first four units share a feeder: at most 2
rows[1, 4:] = 1.0   # remaining units: at most 3
rhs = np.array([2.0, 3.0])
pick_tu = solve_tu(grad, rows, rhs)
cert_tu = certify(spec, abar, grad, pick_tu, integrate(spec, pick_tu, grid, "rk4"))
opt_tu, opt_tu_v = solve_bruteforce(payoff, TuRows(rows, rhs), m)
print(f"  pick {pick_tu.astype(int)}  rho_post = {cert_tu.rho_post:.3f}")
print(f"  achieved {cert_tu.payoff_post - cert_tu.base_payoff:.5f}"
      f"  vs best {opt_tu_v - cert_tu.base_payoff:.5f}")

print()
print("=== greedy knapsack (0.5-approximate in value) ===")
weights = rng.uniform(0.5, 2.0, m)
cap = 0.4 * float(weights.sum())
pick_kn = solve_knapsack(grad, weights, cap)
_, opt_kn_v = solve_bruteforce(lambda M: M @ grad.entries, Knapsack(weights, cap), m)
print(f"  pick {pick_kn.astype(int)}  linearized value {grad.entries @ pick_kn:.4f}"
      f"  vs exact knapsack {opt_kn_v:.4f}")

print()
print("=== set-function structure of the same payoff ===")
print(f"  submodular (diminishing returns): {submodularity_report(payoff, m).holds}")
print(f"  monotone: {monotonicity_report(payoff, m).holds}")
