"""Combinatorial dynamical systems and their trajectory payoffs.

A system is an ODE  x' = f(x, alpha, t)  on [0, T] whose vector field is
parameterized by an m-dimensional binary decision vector alpha that is held
constant over the horizon.  The payoff of a decision is the integral of a
running payoff r along the trajectory plus a terminal payoff q at time T.

Everything here is pure: specs and trajectories are immutable after
construction.  Every callable broadcasts over leading axes (see
:class:`SystemSpec`), so one integration can carry a stack of B decisions
along a batch axis, and one callback call covers every knot of a path.
The blend of two decisions' fields and running payoffs
(:func:`blended_system`) is itself a system, so the one integrator and the
one payoff evaluator also give the convex-combination difference quotient.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import DimensionError, IntegrationDivergedError, NotRelaxableError

SCHEMES = ("euler", "rk4")

# Central-difference probes of the relaxed system step slightly outside the
# unit box at binary base points; integration tolerates this much overhang.
_BOX_OVERHANG = 1e-2


def decision_vector(alpha, m: Optional[int] = None) -> np.ndarray:
    """A decision as a flat float array, or a (B, m) stack of decisions as
    rows; checked to have m entries per decision when m is given."""
    a = np.asarray(alpha, dtype=float)
    if a.ndim != 2:
        a = a.reshape(-1)
    if m is not None and a.shape[-1] != m:
        raise DimensionError(f"decision vector has length {a.shape[-1]}, expected {m}")
    return a


def as_binary(alpha, m: Optional[int] = None) -> np.ndarray:
    """Validate and return a binary decision vector as a float array."""
    a = decision_vector(alpha, m)
    if not np.all((a == 0.0) | (a == 1.0)):
        raise ValueError("decision vector entries must be exactly 0 or 1")
    return a


def is_binary(alpha) -> bool:
    a = np.asarray(alpha, dtype=float)
    return bool(np.all((a == 0.0) | (a == 1.0)))


def matvec(M, v) -> np.ndarray:
    """M @ v over leading axes, (..., p, q) by (..., q): one BLAS call per
    row, the same as for a single point, so the values are the same too.
    A single vector goes straight to ``M @ v``, the same gemv."""
    if v.ndim == 1:
        return M @ v
    return (M @ v[..., None])[..., 0]


def rowdot(u, v) -> np.ndarray:
    """Dot products of the last axes, one BLAS dot per (contiguous) row."""
    return (u[..., None, :] @ v[..., :, None])[..., 0, 0]


def broadcast_result(value, shape, name: str) -> np.ndarray:
    """A callback's return value as a read-only view of the given shape."""
    try:
        return np.broadcast_to(np.asarray(value, dtype=float), shape)
    except ValueError:
        raise DimensionError(
            f"{name} returned shape {np.shape(value)}, which does not broadcast to {shape}"
        ) from None


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time knots t_k = k * h covering [0, horizon]."""

    horizon: float
    num_points: int

    def __post_init__(self):
        if self.num_points < 2:
            raise DimensionError("a time grid needs at least 2 points")
        if not (self.horizon > 0.0 and np.isfinite(self.horizon)):
            raise DimensionError("horizon must be a positive finite number")

    @property
    def step(self) -> float:
        return self.horizon / (self.num_points - 1)

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.num_points)


@dataclass(frozen=True)
class SystemSpec:
    """A combinatorial dynamical system with running and terminal payoffs.

    All callables are pure, are called positionally, and broadcast over
    leading axes "...": x is (..., n), a is (..., m), t a scalar or array.
    ``vector_field`` returns (..., n), ``running_payoff`` (...), ``jac_f_x``
    (..., n, n), ``jac_r_x`` (..., n), ``jac_f_alpha`` (..., n, m) and
    ``jac_r_alpha`` (..., m); ``terminal_payoff`` and ``jac_q_x`` map x to
    (...) and (..., n).  Returns need only broadcast to these shapes.  One
    call evaluates many knots or decisions; a single point has no leading
    axes, and :func:`matvec` / :func:`rowdot` keep batched values equal to it.

    The time argument is carried uniformly so that models with explicit time
    dependence (e.g. transient actuator behavior) fit the same interface;
    autonomous systems simply ignore it.

    The state dimension is len(initial_state); the horizon is the grid's.
    A spec supplying both decision Jacobians ``jac_f_alpha`` and
    ``jac_r_alpha`` is relaxable: its field and running payoff accept
    fractional decisions in the unit box, which the relaxation-based
    derivative needs.  Otherwise it accepts binary decisions only, which
    the convex-combination derivative never leaves.
    """

    decision_dim: int
    initial_state: np.ndarray
    vector_field: Callable[[np.ndarray, np.ndarray, float], np.ndarray]
    running_payoff: Callable[[np.ndarray, np.ndarray, float], float]
    terminal_payoff: Callable[[np.ndarray], float]
    jac_f_x: Callable[[np.ndarray, np.ndarray, float], np.ndarray]
    jac_r_x: Callable[[np.ndarray, np.ndarray, float], np.ndarray]
    jac_q_x: Callable[[np.ndarray], np.ndarray]
    jac_f_alpha: Optional[Callable[[np.ndarray, np.ndarray, float], np.ndarray]] = None
    jac_r_alpha: Optional[Callable[[np.ndarray, np.ndarray, float], np.ndarray]] = None

    def __post_init__(self):
        object.__setattr__(
            self, "initial_state", np.asarray(self.initial_state, dtype=float).reshape(-1)
        )
        if self.state_dim < 1 or self.decision_dim < 1:
            raise DimensionError("state_dim and decision_dim must be positive")

    @property
    def state_dim(self) -> int:
        return self.initial_state.size

    @property
    def relaxable(self) -> bool:
        return self.jac_f_alpha is not None and self.jac_r_alpha is not None


@dataclass(frozen=True)
class Trajectory:
    """A state path sampled on a uniform grid; row k is the state at t_k.

    The same container holds costate paths produced by the adjoint solver.
    """

    grid: TimeGrid
    values: np.ndarray

    @property
    def final_state(self) -> np.ndarray:
        return self.values[-1]


def _check_scheme(scheme: str) -> None:
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")


def _check_decision(spec: SystemSpec, alpha) -> np.ndarray:
    a = decision_vector(alpha, spec.decision_dim)
    if spec.relaxable:
        if not np.all((a >= -_BOX_OVERHANG) & (a <= 1.0 + _BOX_OVERHANG)):  # NaN fails too
            raise ValueError("relaxed decision entries must lie in the unit box")
    else:
        if not np.all((a == 0.0) | (a == 1.0)):
            raise NotRelaxableError(
                "this system only accepts binary decision vectors"
            )
    return a


def _step_factory(f, alpha, h, scheme):
    """Return step(x, t) advancing the state by one knot."""
    if scheme == "euler":

        def step(x, t):
            return x + h * f(x, alpha, t)

    else:  # rk4
        half = 0.5 * h
        sixth = h / 6.0

        def step(x, t):
            k1 = f(x, alpha, t)
            k2 = f(x + half * k1, alpha, t + half)
            k3 = f(x + half * k2, alpha, t + half)
            k4 = f(x + h * k3, alpha, t + h)
            return x + sixth * (k1 + 2.0 * (k2 + k3) + k4)

    return step


def integrate(spec: SystemSpec, alpha, grid: TimeGrid, scheme: str = "euler") -> Trajectory:
    """Integrate the system forward with a fixed-step explicit scheme.

    ``alpha`` is one decision (m,) or a stack of B decisions (B, m); the
    stored path is (N, n) or (N, B, n), and each stacked path equals the
    path of its decision integrated alone.  Fixed steps are deliberate: the
    costate pass and the payoff quadrature reuse the same knots, which keeps
    derivatives consistent with the discrete payoff actually computed.
    """
    _check_scheme(scheme)
    a = _check_decision(spec, alpha)
    times = grid.times
    x = np.array(np.broadcast_to(spec.initial_state, a.shape[:-1] + (spec.state_dim,)))
    out = np.empty((grid.num_points,) + x.shape)
    out[0] = x
    step = _step_factory(spec.vector_field, a, grid.step, scheme)
    for k in range(grid.num_points - 1):
        x = step(x, times[k])
        if not np.isfinite(x).all():
            raise IntegrationDivergedError(k + 1)
        out[k + 1] = x
    out.flags.writeable = False
    return Trajectory(grid=grid, values=out)


def trapezoid_weights(grid: TimeGrid) -> np.ndarray:
    w = np.full(grid.num_points, grid.step)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def evaluate_payoff(spec: SystemSpec, traj: Trajectory, alpha):
    """Trajectory payoff: trapezoid rule on the shared grid plus the
    terminal payoff at the final knot.  A stacked (N, B, n) path with (B, m)
    decisions gives B payoffs, a single path a float."""
    X = traj.values
    if X.shape[-1] != spec.state_dim:
        raise DimensionError(
            f"trajectory has state dimension {X.shape[-1]}, expected {spec.state_dim}"
        )
    a = decision_vector(alpha, spec.decision_dim)
    times = traj.grid.times.reshape((-1,) + (1,) * (X.ndim - 2))
    rvals = broadcast_result(spec.running_payoff(X, a, times), X.shape[:-1], "running_payoff")
    rows = np.ascontiguousarray(np.moveaxis(rvals, 0, -1))  # one trapezoid dot per path
    total = rowdot(rows, trapezoid_weights(traj.grid)) + np.asarray(
        spec.terminal_payoff(X[-1]), dtype=float
    )
    if not np.all(np.isfinite(total)):  # name the first knot that overflows
        finite = np.isfinite(rvals).reshape(len(X), -1).all(axis=1)
        knot = len(X) - 1 if finite.all() else int(np.argmin(finite))
        raise IntegrationDivergedError(knot, f"non-finite payoff at knot {knot}")
    return total if total.ndim else float(total)


_PATH_BUDGET = 1 << 21  # stored path entries per integrated block: 16 MB


def payoff_function(spec: SystemSpec, grid: TimeGrid, scheme: str = "euler"):
    """The discrete payoff as an objective from decision rows (..., m) to
    payoffs (...), integrating the rows in blocks of at most _PATH_BUDGET
    stored path entries."""
    block = max(1, _PATH_BUDGET // (grid.num_points * spec.state_dim))

    def payoff(alpha):
        a = np.asarray(alpha, dtype=float)
        rows = a.reshape(-1, a.shape[-1])
        parts = np.split(rows, range(block, rows.shape[0], block))
        values = np.concatenate(
            [evaluate_payoff(spec, integrate(spec, p, grid, scheme), p) for p in parts]
        )
        return values.reshape(a.shape[:-1]) if a.ndim > 1 else float(values[0])

    return payoff


def affine_state_model(spec: SystemSpec, grid: TimeGrid, scheme: str = "euler"):
    """Probe the discrete trajectory map as an affine function of the decision.

    Returns (base, sens) with base the (N, n) trajectory under the all-zeros
    decision and sens the (N, n, m) sensitivity columns, so that the stored
    path for any binary decision vector a is  base + sens @ a.  This is
    *exact* (up to roundoff) whenever the field is linear in the state and
    each decision entry enters through one term of its own, such as
    g_i(t) a_i or exp(-xi_i (1 - a_i) t): every such term is affine in its
    bit at binary points, so every explicit fixed-step update is then an
    affine map there.  It costs one integration of the m + 1 rows zero,
    e_1, ..., e_m and lets exhaustive oracles evaluate the discrete payoff
    without one integration per binary point.  For such a field sens does
    not depend on the initial state, up to roundoff, so one probe serves
    every slot of a receding horizon; base is the all-off path that
    :func:`integrate` gives for the zero decision, bit for bit.
    """
    m = spec.decision_dim
    paths = integrate(spec, np.eye(m + 1, m, -1), grid, scheme).values
    base = np.ascontiguousarray(paths[:, 0])
    sens = np.ascontiguousarray((paths[:, 1:] - base[:, None]).transpose(0, 2, 1))
    return base, sens


def blended_system(spec: SystemSpec, alpha_base, alpha_dir, epsilon: float) -> SystemSpec:
    """The system whose field, running payoff and state Jacobians blend those
    of two binary decisions with weight eps on the direction.

    The blend happens in the space of vector fields, not decisions, so it is
    well defined even when the field is only declared on binary vectors.
    Each value is written as v_base + eps (v_dir - v_base), and eps = 1
    swaps the endpoints, so both endpoints reproduce the plain decision's
    values exactly.  The blended system ignores its decision argument; its
    terminal payoff enters once.
    """
    if not (0.0 <= epsilon <= 1.0):
        raise ValueError("epsilon must lie in [0, 1]")
    base = as_binary(alpha_base, spec.decision_dim)
    target = as_binary(alpha_dir, spec.decision_dim)
    if epsilon == 1.0:
        base, target, epsilon = target, base, 0.0

    def blend(fn):
        def blended(x, _a, t):
            v = fn(x, base, t)
            return v + epsilon * (fn(x, target, t) - v)

        return blended

    return replace(
        spec,
        vector_field=blend(spec.vector_field),
        running_payoff=blend(spec.running_payoff),
        jac_f_x=blend(spec.jac_f_x),
        jac_r_x=blend(spec.jac_r_x),
        jac_f_alpha=None,
        jac_r_alpha=None,
    )
