"""Derivatives of the trajectory payoff with respect to the binary decision.

Two derivative concepts are provided:

* ``standard``: relax the decision into the unit box and differentiate as
  usual.  A quadrature of  jac_f_alpha^T lam + jac_r_alpha^T  along the
  base path.  Needs the system to be relaxable.

* ``nonstandard``: vary the vector field and running payoff by convex
  combination instead of varying the decision.  Entry i weighs the field and
  payoff difference between the base decision and its single-bit flip by the
  costate; the flip direction respects the box (bit 0 flips up, bit 1 flips
  down, with the quotient's sign matching).  Needs no smoothness in the
  decision and never evaluates off binary points.

Both read one :class:`Linearization` (the base point's forward and costate
solves, made once by :func:`linearize`) and add O(m) work per knot in one
broadcast callback call over all knots (and, for the convex-combination
derivative, all m flips).  For decision-affine systems they coincide.

The finite-difference oracles integrate plain systems: the relaxed one at
shifted decisions, the convex-combination one the
:func:`~combidyn.system.blended_system` of the base and its flip.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotRelaxableError
from .adjoint import solve_adjoint
from .system import (
    SystemSpec,
    TimeGrid,
    Trajectory,
    as_binary,
    blended_system,
    broadcast_result,
    evaluate_payoff,
    integrate,
    matvec,
    rowdot,
    trapezoid_weights,
)

DERIVATIVE_KINDS = ("standard", "nonstandard")

# Step for the central-difference fallback when analytic decision-Jacobians
# are absent from a relaxable spec.
_JAC_FD_STEP = 1e-5


@dataclass(frozen=True)
class Linearization:
    """A binary base point with its forward path, costate and payoff."""

    spec: SystemSpec
    base_point: np.ndarray
    forward: Trajectory
    costate: Trajectory
    base_payoff: float


def linearize(spec: SystemSpec, alpha_bar, grid: TimeGrid, scheme: str = "euler") -> Linearization:
    """One forward pass, one costate pass and the payoff at a binary base point."""
    abar = as_binary(alpha_bar, spec.decision_dim)
    forward = integrate(spec, abar, grid, scheme)
    costate = solve_adjoint(spec, abar, forward, scheme)
    return Linearization(spec, abar, forward, costate, evaluate_payoff(spec, forward, abar))


@dataclass(frozen=True)
class Gradient:
    """A payoff derivative at a binary base point.

    ``base_payoff`` caches the payoff at the base point so certificate
    computations need no re-integration.
    """

    kind: str
    base_point: np.ndarray
    entries: np.ndarray
    base_payoff: float

    def __post_init__(self):
        if self.kind not in DERIVATIVE_KINDS:
            raise ValueError(f"kind must be one of {DERIVATIVE_KINDS}")
        object.__setattr__(self, "base_point", np.asarray(self.base_point, dtype=float))
        object.__setattr__(self, "entries", np.asarray(self.entries, dtype=float))
        if not np.all(np.isfinite(self.entries)):
            raise ValueError("gradient entries must be finite")


def _fd_jac_alpha(fn, X, alpha, times):
    """Central differences of fn(x, ., t) in the decision argument at every
    knot: the 2m probes alpha +- h e_i are stacked as decisions, so the
    result is (N, m, ...) with the decision axis ahead of fn's output axes."""
    steps = _JAC_FD_STEP * np.eye(alpha.size)
    hi = fn(X[:, None], alpha + steps, times[:, None])
    lo = fn(X[:, None], alpha - steps, times[:, None])
    return (np.asarray(hi, dtype=float) - lo) / (2.0 * _JAC_FD_STEP)


def standard_derivative(lin: Linearization) -> Gradient:
    """Relaxation-based derivative via the costate quadrature.

    Uses the spec's analytic decision-Jacobians when present, otherwise a
    pointwise central-difference fallback along the stored trajectory.
    """
    spec = lin.spec
    if not spec.relaxable:
        raise NotRelaxableError(
            "the relaxation-based derivative needs a system defined on the unit box"
        )
    abar, grid = lin.base_point, lin.forward.grid
    n, m, N = spec.state_dim, spec.decision_dim, grid.num_points
    times = grid.times
    X, L = lin.forward.values, lin.costate.values
    if spec.jac_f_alpha is not None:
        Fa = spec.jac_f_alpha(X, abar, times)
    else:
        Fa = np.swapaxes(_fd_jac_alpha(spec.vector_field, X, abar, times), -1, -2)
    if spec.jac_r_alpha is not None:
        Ra = spec.jac_r_alpha(X, abar, times)
    else:
        Ra = _fd_jac_alpha(spec.running_payoff, X, abar, times)
    Fa = broadcast_result(Fa, (N, n, m), "jac_f_alpha")
    Ra = broadcast_result(Ra, (N, m), "jac_r_alpha")
    # Row k is Fa[k].T @ lam[k] + Ra[k], the same BLAS call per knot.
    integrand = (L[:, None, :] @ Fa)[:, 0, :] + Ra
    entries = trapezoid_weights(grid) @ integrand
    return Gradient("standard", abar, entries, lin.base_payoff)


def costate_pairing(spec: SystemSpec, alpha_bar, alpha_to, forward, costate):
    """Quadrature of (f(x, to) - f(x, bar))^T lam + r(x, to) - r(x, bar).

    This is the value the variational difference quotient converges to as
    the blend weight goes to zero, for an arbitrary target decision; the
    convex-combination derivative is its single-bit-flip specialization.
    A (B, m) stack of targets gives B values in one pass.
    """
    abar = as_binary(alpha_bar, spec.decision_dim)
    ato = as_binary(alpha_to, spec.decision_dim)
    f, r = spec.vector_field, spec.running_payoff
    times = forward.grid.times
    X, L = forward.values, costate.values
    to = ato[..., None, :]  # targets on their own axis ahead of the knots
    df = f(X, to, times) - f(X, abar, times)
    vals = rowdot(df, L) + r(X, to, times) - r(X, abar, times)
    return rowdot(vals, trapezoid_weights(forward.grid))


def nonstandard_derivative(lin: Linearization) -> Gradient:
    """Convex-combination derivative via the costate quadrature.

    Entry i integrates the field/payoff difference between the base decision
    and its bit-i flip, weighted by the costate; downward flips enter with a
    minus sign so the entry is always the sensitivity of turning bit i on.
    """
    abar = lin.base_point
    flips = np.abs(abar - np.eye(abar.size))  # row i is abar with bit i flipped
    sign = np.where(abar == 0.0, 1.0, -1.0)
    entries = sign * costate_pairing(lin.spec, abar, flips, lin.forward, lin.costate)
    return Gradient("nonstandard", abar, entries, lin.base_payoff)


def derivative(lin: Linearization, kind: str) -> Gradient:
    """The derivative of ``kind``, one of :data:`DERIVATIVE_KINDS`, at a linearization."""
    if kind not in DERIVATIVE_KINDS:
        raise ValueError(f"kind must be one of {DERIVATIVE_KINDS}, got {kind!r}")
    return standard_derivative(lin) if kind == "standard" else nonstandard_derivative(lin)


def reformulate(spec: SystemSpec) -> SystemSpec:
    """Decision-affine surrogate built from the m+1 basis evaluations.

    The surrogate field is  f(., 0) + sum_i alpha_i (f(., e_i) - f(., 0))
    and likewise for the running payoff.  It agrees with the original at all
    binary points whenever the original is additive across decision entries,
    is always relaxable, and carries exact decision-Jacobians (the basis
    differences).  The relaxation-based derivative of the surrogate equals
    the convex-combination derivative of the original under additivity.
    """
    m, n = spec.decision_dim, spec.state_dim
    basis = np.eye(m + 1, m, -1)  # zero, then the unit vectors

    def columns(fn, name, x, t, out_shape):
        """fn(., 0) and the differences fn(., e_i) - fn(., 0) on a last axis,
        from one call with the basis rows on a new leading axis."""
        x, t = np.asarray(x, dtype=float), np.asarray(t, dtype=float)
        lead = np.broadcast_shapes(x.shape[:-1], t.shape)
        rows = basis.reshape((m + 1,) + (1,) * len(lead) + (m,))
        vals = broadcast_result(fn(x[None], rows, t[None]), (m + 1,) + lead + out_shape, name)
        return vals[0], np.ascontiguousarray(np.moveaxis(vals[1:] - vals[0], 0, -1))

    def f_cols(x, t):
        return columns(spec.vector_field, "vector_field", x, t, (n,))

    def r_cols(x, t):
        return columns(spec.running_payoff, "running_payoff", x, t, ())

    def f_hat(x, a, t):
        f0, cols = f_cols(x, t)
        return f0 + matvec(cols, np.asarray(a, dtype=float))

    def r_hat(x, a, t):
        r0, cols = r_cols(x, t)
        return r0 + rowdot(cols, np.asarray(a, dtype=float))

    def jac_f_x_hat(x, a, t):
        j0, cols = columns(spec.jac_f_x, "jac_f_x", x, t, (n, n))
        return j0 + matvec(cols, np.asarray(a, dtype=float)[..., None, :])

    def jac_r_x_hat(x, a, t):
        j0, cols = columns(spec.jac_r_x, "jac_r_x", x, t, (n,))
        return j0 + matvec(cols, np.asarray(a, dtype=float))

    return SystemSpec(
        state_dim=spec.state_dim,
        decision_dim=m,
        initial_state=spec.initial_state,
        horizon=spec.horizon,
        vector_field=f_hat,
        running_payoff=r_hat,
        terminal_payoff=spec.terminal_payoff,
        jac_f_x=jac_f_x_hat,
        jac_r_x=jac_r_x_hat,
        jac_q_x=spec.jac_q_x,
        jac_f_alpha=lambda x, a, t: f_cols(x, t)[1],
        jac_r_alpha=lambda x, a, t: r_cols(x, t)[1],
        relaxable=True,
    )


def finite_difference_standard(
    spec: SystemSpec, alpha_bar, i: int, h_fd: float, grid: TimeGrid, scheme: str = "euler"
) -> float:
    """Central-difference oracle for the relaxation-based derivative:
    [J(bar + h e_i) - J(bar - h e_i)] / (2 h) with full relaxed integrations."""
    if not spec.relaxable:
        raise NotRelaxableError("finite differences in the decision need a relaxable system")
    abar = as_binary(alpha_bar, spec.decision_dim)
    probes = abar + h_fd * np.outer([1.0, -1.0], np.eye(spec.decision_dim)[i])
    j_hi, j_lo = evaluate_payoff(spec, integrate(spec, probes, grid, scheme), probes)
    return (j_hi - j_lo) / (2.0 * h_fd)


def variational_quotient(
    spec: SystemSpec, alpha_bar, alpha_to, eps: float, grid: TimeGrid, scheme: str = "euler"
) -> float:
    """One-sided difference quotient through the blended system:
    [ blended payoff at eps  -  payoff at the base ] / eps."""
    if not (0.0 < eps <= 1.0):
        raise ValueError("eps must lie in (0, 1]")
    abar = as_binary(alpha_bar, spec.decision_dim)
    blend = blended_system(spec, abar, alpha_to, eps)
    val = evaluate_payoff(blend, integrate(blend, abar, grid, scheme), abar)
    base = evaluate_payoff(spec, integrate(spec, abar, grid, scheme), abar)
    return (val - base) / eps


def finite_difference_nonstandard(
    spec: SystemSpec, alpha_bar, i: int, eps: float, grid: TimeGrid, scheme: str = "euler"
) -> float:
    """Difference-quotient oracle for the convex-combination derivative.

    Flips bit i toward the admissible side and applies the downward-flip
    sign convention, so the value converges to the corresponding adjoint
    entry as eps goes to zero.
    """
    abar = as_binary(alpha_bar, spec.decision_dim)
    a_to = abar.copy()
    a_to[i] = 1.0 - abar[i]
    sign = 1.0 if abar[i] == 0.0 else -1.0
    return sign * variational_quotient(spec, abar, a_to, eps, grid, scheme)
