"""Backward costate integration along a stored forward trajectory.

The costate lam solves

    -lam'(t) = jac_f_x(x(t), alpha, t)^T lam(t) + jac_r_x(x(t), alpha, t)^T
    lam(T)   = jac_q_x(x(T))^T

and weighs how state perturbations at time t propagate into the trajectory
payoff.  The pass reads the state from the stored forward grid (no dense
output, no re-integration) and mirrors the forward scheme in time; rk4
midpoint stages take the state as the mean of the two adjacent stored
samples, which keeps the pass second order or better.  The state Jacobians
do not depend on the costate, so each is evaluated in one call over all
knots (and midpoints) before the backward sweep.
"""

from __future__ import annotations

import numpy as np

from .errors import AdjointDivergedError, DimensionError
from .system import (
    AdjointTrajectory,
    SystemSpec,
    Trajectory,
    _check_grid,
    _check_scheme,
    broadcast_result,
    decision_vector,
)


def hamiltonian(spec: SystemSpec, state, costate, alpha, t: float = 0.0) -> float:
    """lam^T f(x, alpha, t) + r(x, alpha, t)."""
    x = np.asarray(state, dtype=float).reshape(-1)
    lam = np.asarray(costate, dtype=float).reshape(-1)
    if x.size != spec.state_dim or lam.size != spec.state_dim:
        raise DimensionError("state and costate must both have the system's state dimension")
    a = decision_vector(alpha, spec.decision_dim)
    return float(lam @ spec.vector_field(x, a, t)) + float(spec.running_payoff(x, a, t))


def solve_adjoint(
    spec: SystemSpec, alpha, forward: Trajectory, scheme: str = "euler"
) -> AdjointTrajectory:
    """Integrate the costate backward from t = T over the forward grid.

    ``forward`` must be the trajectory produced by ``integrate`` for the same
    (spec, alpha); the terminal condition is exact at the last knot.
    """
    _check_scheme(scheme)
    _check_grid(spec, forward.grid)
    a = decision_vector(alpha, spec.decision_dim)
    X = forward.values
    if X.shape[1] != spec.state_dim:
        raise DimensionError("forward trajectory does not match the system's state dimension")

    n = spec.state_dim
    times = forward.grid.times
    h = forward.grid.step
    n_pts = forward.grid.num_points

    def jacobians(x, t):
        # Views, not copies: a constant (n, n) Jacobian stays one matrix.
        jf = broadcast_result(spec.jac_f_x(x, a, t), x.shape[:-1] + (n, n), "jac_f_x")
        jr = broadcast_result(spec.jac_r_x(x, a, t), x.shape, "jac_r_x")
        return jf, jr

    def rate(jf, jr, lam):
        # d lam / d tau with tau = T - t, i.e. the right-hand side of the
        # costate law read backward in time.
        return jf.T @ lam + jr

    out = np.empty_like(X)
    lam = np.asarray(spec.jac_q_x(X[-1]), dtype=float).reshape(-1)
    if lam.size != n:
        raise DimensionError("terminal payoff gradient has the wrong length")
    out[-1] = lam
    JF, JR = jacobians(X, times)

    if scheme == "euler":
        for k in range(n_pts - 2, -1, -1):
            lam = lam + h * rate(JF[k + 1], JR[k + 1], lam)
            if not np.isfinite(lam).all():
                raise AdjointDivergedError(k)
            out[k] = lam
    else:  # rk4 mirrored in time
        half = 0.5 * h
        sixth = h / 6.0
        MF, MR = jacobians(0.5 * (X[:-1] + X[1:]), times[1:] - half)
        for k in range(n_pts - 2, -1, -1):
            k1 = rate(JF[k + 1], JR[k + 1], lam)
            k2 = rate(MF[k], MR[k], lam + half * k1)
            k3 = rate(MF[k], MR[k], lam + half * k2)
            k4 = rate(JF[k], JR[k], lam + h * k3)
            lam = lam + sixth * (k1 + 2.0 * (k2 + k3) + k4)
            if not np.isfinite(lam).all():
                raise AdjointDivergedError(k)
            out[k] = lam

    out.flags.writeable = False
    return AdjointTrajectory(grid=forward.grid, values=out)
