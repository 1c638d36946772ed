"""Combinatorial dynamical systems and their trajectory payoffs.

A system is an ODE  x' = f(x, alpha, t)  on [0, T] whose vector field is
parameterized by an m-dimensional binary decision vector alpha that is held
constant over the horizon.  The payoff of a decision is the integral of a
running payoff r along the trajectory plus a terminal payoff q at time T.

Everything here is pure: specs and trajectories are immutable after
construction, and independent integrations can run concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DimensionError, IntegrationDivergedError, NotRelaxableError

SCHEMES = ("euler", "rk4")

# Central-difference probes of the relaxed system step slightly outside the
# unit box at binary base points; integration tolerates this much overhang.
_BOX_OVERHANG = 1e-2


def decision_vector(alpha, m: Optional[int] = None) -> np.ndarray:
    """A decision as a flat float array, checked to have length m when given."""
    a = np.asarray(alpha, dtype=float).reshape(-1)
    if m is not None and a.size != m:
        raise DimensionError(f"decision vector has length {a.size}, expected {m}")
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


def unit_direction(i: int, m: int) -> np.ndarray:
    """The m-vector with a one in entry i and zeros elsewhere."""
    e = np.zeros(m)
    e[i] = 1.0
    return e


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

    All callables are pure.  The time argument is carried uniformly so that
    models with explicit time dependence (e.g. transient actuator behavior)
    fit the same interface; autonomous systems simply ignore it.

    relaxable=True declares that ``vector_field`` and ``running_payoff``
    accept fractional decision vectors in the unit box, which the
    relaxation-based derivative needs.  The convex-combination derivative
    never evaluates off binary points and works either way.
    """

    state_dim: int
    decision_dim: int
    initial_state: np.ndarray
    horizon: float
    vector_field: Callable[[np.ndarray, np.ndarray, float], np.ndarray]
    running_payoff: Callable[[np.ndarray, np.ndarray, float], float]
    terminal_payoff: Callable[[np.ndarray], float]
    jac_f_x: Callable[[np.ndarray, np.ndarray, float], np.ndarray]
    jac_r_x: Callable[[np.ndarray, np.ndarray, float], np.ndarray]
    jac_q_x: Callable[[np.ndarray], np.ndarray]
    jac_f_alpha: Optional[Callable[[np.ndarray, np.ndarray, float], np.ndarray]] = None
    jac_r_alpha: Optional[Callable[[np.ndarray, np.ndarray, float], np.ndarray]] = None
    relaxable: bool = False

    def __post_init__(self):
        object.__setattr__(
            self, "initial_state", np.asarray(self.initial_state, dtype=float).reshape(-1)
        )
        if self.state_dim < 1 or self.decision_dim < 1:
            raise DimensionError("state_dim and decision_dim must be positive")
        if self.initial_state.size != self.state_dim:
            raise DimensionError(
                f"initial state has length {self.initial_state.size}, "
                f"expected {self.state_dim}"
            )
        if not (self.horizon > 0.0 and np.isfinite(self.horizon)):
            raise DimensionError("horizon must be a positive finite number")


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


# The costate path lives on the same grid with the same layout.
AdjointTrajectory = Trajectory


def _check_scheme(scheme: str) -> None:
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")


def _check_grid(spec: SystemSpec, grid: TimeGrid) -> None:
    if not np.isclose(grid.horizon, spec.horizon, rtol=1e-12, atol=0.0):
        raise DimensionError(
            f"grid horizon {grid.horizon} does not match system horizon {spec.horizon}"
        )


def _check_decision(spec: SystemSpec, alpha) -> np.ndarray:
    a = decision_vector(alpha, spec.decision_dim)
    if spec.relaxable:
        if np.any(a < -_BOX_OVERHANG) or np.any(a > 1.0 + _BOX_OVERHANG):
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


def _integrate_field(f, x0, alpha, grid, scheme) -> Trajectory:
    times = grid.times
    h = grid.step
    n_pts = grid.num_points
    out = np.empty((n_pts, x0.size))
    x = np.array(x0, dtype=float)
    out[0] = x
    step = _step_factory(f, alpha, h, scheme)
    for k in range(n_pts - 1):
        x = step(x, times[k])
        if not np.all(np.isfinite(x)):
            raise IntegrationDivergedError(k + 1)
        out[k + 1] = x
    out.flags.writeable = False
    return Trajectory(grid=grid, values=out)


def integrate(spec: SystemSpec, alpha, grid: TimeGrid, scheme: str = "euler") -> Trajectory:
    """Integrate the system forward with a fixed-step explicit scheme.

    Fixed steps are deliberate: the costate pass and the payoff quadrature
    reuse the same knots, which keeps derivatives consistent with the
    discrete payoff actually computed.
    """
    _check_scheme(scheme)
    _check_grid(spec, grid)
    a = _check_decision(spec, alpha)
    return _integrate_field(spec.vector_field, spec.initial_state, a, grid, scheme)


def trapezoid_weights(grid: TimeGrid) -> np.ndarray:
    w = np.full(grid.num_points, grid.step)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def payoff_functional(spec: SystemSpec, traj: Trajectory, beta) -> float:
    """Quadrature of r(x(t), beta) along a stored path, plus q at the end.

    This is the payoff as a functional of an arbitrary path and an arbitrary
    decision argument; ``evaluate_payoff`` is the special case where the path
    was produced by the same decision.
    """
    _check_grid(spec, traj.grid)
    if traj.values.shape[1] != spec.state_dim:
        raise DimensionError(
            f"trajectory has state dimension {traj.values.shape[1]}, "
            f"expected {spec.state_dim}"
        )
    b = np.asarray(beta, dtype=float).reshape(-1)
    times = traj.grid.times
    r = spec.running_payoff
    rvals = np.fromiter(
        (r(traj.values[k], b, times[k]) for k in range(traj.grid.num_points)),
        dtype=float,
        count=traj.grid.num_points,
    )
    integral = float(np.dot(trapezoid_weights(traj.grid), rvals))
    return integral + float(spec.terminal_payoff(traj.final_state))


def evaluate_payoff(spec: SystemSpec, traj: Trajectory, alpha) -> float:
    """Trajectory payoff: trapezoid rule on the shared grid plus the
    terminal payoff at the final knot."""
    return payoff_functional(spec, traj, decision_vector(alpha, spec.decision_dim))


def affine_state_model(spec: SystemSpec, grid: TimeGrid, scheme: str = "euler"):
    """Probe the discrete trajectory map as an affine function of the decision.

    Returns (base, sens) with base the (N, n) trajectory under the all-zeros
    decision and sens the (N, n, m) sensitivity columns, so that the stored
    path for any decision vector a is  base + sens @ a.  This is *exact*
    (up to roundoff) whenever the vector field is jointly affine in state and
    decision, because every explicit fixed-step update is then an affine map;
    it costs m + 1 integrations and lets exhaustive oracles evaluate the
    discrete payoff without one integration per binary point.
    """
    m = spec.decision_dim
    base = integrate(spec, np.zeros(m), grid, scheme).values
    sens = np.empty((grid.num_points, spec.state_dim, m))
    for i in range(m):
        sens[:, :, i] = integrate(spec, unit_direction(i, m), grid, scheme).values - base
    return base, sens


def blended_field(spec: SystemSpec, alpha_base, alpha_dir, epsilon: float):
    """Convex blend (1-eps) f(., base) + eps f(., dir) of two binary fields.

    eps = 0 and eps = 1 return the pure fields so the degenerate cases
    reproduce plain integration bit for bit.
    """
    if not (0.0 <= epsilon <= 1.0):
        raise ValueError("epsilon must lie in [0, 1]")
    base = as_binary(alpha_base, spec.decision_dim)
    target = as_binary(alpha_dir, spec.decision_dim)
    f = spec.vector_field
    if epsilon == 0.0:
        return lambda x, _a, t: f(x, base, t)
    if epsilon == 1.0:
        return lambda x, _a, t: f(x, target, t)
    w = 1.0 - epsilon

    def blend(x, _a, t):
        return w * f(x, base, t) + epsilon * f(x, target, t)

    return blend


def integrate_variational(
    spec: SystemSpec,
    alpha_base,
    alpha_dir,
    epsilon: float,
    grid: TimeGrid,
    scheme: str = "euler",
) -> Trajectory:
    """Integrate the blended system interpolating two binary decisions.

    The blend happens in the space of vector fields, not decisions, so it is
    well defined even when the field is only declared on binary vectors.
    """
    _check_scheme(scheme)
    _check_grid(spec, grid)
    f = blended_field(spec, alpha_base, alpha_dir, epsilon)
    return _integrate_field(f, spec.initial_state, None, grid, scheme)


def evaluate_variational_payoff(
    spec: SystemSpec, traj: Trajectory, alpha_base, alpha_dir, epsilon: float
) -> float:
    """Payoff of a blended trajectory: the running payoff is blended with the
    same weight as the field, the terminal payoff enters once."""
    if not (0.0 <= epsilon <= 1.0):
        raise ValueError("epsilon must lie in [0, 1]")
    base = as_binary(alpha_base, spec.decision_dim)
    target = as_binary(alpha_dir, spec.decision_dim)
    if epsilon == 0.0:
        return payoff_functional(spec, traj, base)
    if epsilon == 1.0:
        return payoff_functional(spec, traj, target)
    return (1.0 - epsilon) * payoff_functional(spec, traj, base) + epsilon * payoff_functional(
        spec, traj, target
    )
