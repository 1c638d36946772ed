"""Coupled-refrigeration direct-load-control benchmark.

A fleet of m evaporator units cools m air rooms whose temperatures follow a
linear heat-exchange model: each room relaxes toward the store's ambient,
exchanges heat with coupled rooms, and loses b_i degrees per hour while its
unit is ON.  An aggregator picks the ON/OFF vector every slot (15 minutes by
default) to minimize the quadratic deviation penalty from the comfort band,
subject to either an aggregate power band or customer-specified totally
unimodular operation rows.

The per-slot problem is solved through the package's linearize-certify
pipeline, and ``slot_payoff`` is its exact objective for the oracles; a
receding-horizon driver carries the room temperatures across slots and
names the slot of any package error raised in one.  A transient variant
models units that keep cooling for a short while after an OFF command
through a decaying exponential term, which makes the field genuinely time
dependent and separates the two derivative concepts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from .certify import CertifiedSolution, certify
from .errors import (
    ConstraintError,
    DimensionError,
    InfeasibleError,
    named_step,
)
from .gradient import DERIVATIVE_KINDS, Gradient, derivative, linearize
from .solvers import (
    L0Band,
    TuRows,
    integer_array,
    integer_rows,
    is_feasible,
    solve_bruteforce,
    solve_l0,
    solve_tu,
)
from .system import (
    SCHEMES,
    SystemSpec,
    TimeGrid,
    Trajectory,
    affine_state_model,
    integrate,
    evaluate_payoff,
    matvec,
    rowdot,
    trapezoid_weights,
)

_MINUTES_PER_HOUR = 60.0
_MIN_STEP_MINUTES = 10.0  # faster ON/OFF cycling risks compressor damage
# The per-unit vectors of EtpParams, in field (and scenario-file) order.
_FLEET_VECTORS = ("b", "theta_ambient", "theta_lo", "theta_hi", "delta", "c", "x0")


def _vec(x, m, name, field=None) -> np.ndarray:
    a = np.asarray(x, dtype=float)
    if a.ndim == 0:
        a = np.full(m, float(a))
    a = a.reshape(-1)
    if a.size != m:
        raise DimensionError(f"{name} must be a scalar or a length-{m} vector")
    if not np.all(np.isfinite(a)):
        raise ConstraintError(f"{name} entries must be finite", field=field or name)
    return a


@dataclass(frozen=True)
class EtpParams:
    """Thermal fleet parameters.

    a[i, j] is the heat-transfer coefficient between rooms i and j (per
    hour); a[i, i] couples room i to the ambient, and the unit count m is
    the order of a.  b is the cooling rate of an ON unit (deg C per hour), c
    its power draw (kW), delta the penalty weight, and [theta_lo, theta_hi]
    the comfort band.  Every entry must be finite.
    """

    a: np.ndarray
    b: np.ndarray
    theta_ambient: np.ndarray
    theta_lo: np.ndarray
    theta_hi: np.ndarray
    delta: np.ndarray
    c: np.ndarray
    x0: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
            raise DimensionError(f"a must be a nonempty square matrix, got shape {a.shape}", field="a")
        if not np.all(np.isfinite(a)):
            raise ConstraintError("a entries must be finite", field="a")
        object.__setattr__(self, "a", a)
        for name in _FLEET_VECTORS:
            object.__setattr__(self, name, _vec(getattr(self, name), self.m, name))
        if np.any(self.theta_lo >= self.theta_hi):
            raise ConstraintError("comfort band needs theta_lo < theta_hi entrywise", field="theta_lo")
        if np.any(a < 0):
            raise ConstraintError("heat-transfer coefficients must be nonnegative", field="a")
        if np.any(self.b <= 0):
            raise ConstraintError("cooling rates b must be positive", field="b")
        for name in ("delta", "c"):
            if np.any(getattr(self, name) < 0):
                raise ConstraintError("penalty weights and power draws must be nonnegative", field=name)

    @property
    def m(self) -> int:
        return self.a.shape[0]


def penalty(x, theta_lo, theta_hi, delta):
    """Quadratic deviation penalty, zero at the band midpoint:
    delta * ((theta_lo - x)^2 + (x - theta_hi)^2 - (theta_lo + theta_hi)^2 / 2).
    Broadcasts over arrays."""
    s = theta_lo + theta_hi
    return delta * ((theta_lo - x) ** 2 + (x - theta_hi) ** 2 - 0.5 * s * s)


def _etp_matrices(params: EtpParams):
    # Diagonal couples each room to everything it touches (ambient included);
    # off-diagonals are the pairwise transfer coefficients.
    A = params.a.copy()
    np.fill_diagonal(A, -params.a.sum(axis=1))
    B = -np.diag(params.b)
    theta = np.diag(params.a) * params.theta_ambient
    return A, B, theta


def _fleet_system(params: EtpParams, A, vector_field, jac_f_alpha) -> SystemSpec:
    """The fleet system of a field with state Jacobian A and decision
    Jacobian ``jac_f_alpha``: the negated band penalty is its running
    payoff, free of the decision, and it has no terminal payoff."""
    lo, hi, d = params.theta_lo, params.theta_hi, params.delta
    s = lo + hi
    n = params.m
    zero_m = np.zeros(n)

    return SystemSpec(
        decision_dim=n,
        initial_state=params.x0,
        vector_field=vector_field,
        running_payoff=lambda x, a, t: -np.sum(penalty(x, lo, hi, d), axis=-1),
        terminal_payoff=lambda x: 0.0,
        jac_f_x=lambda x, a, t: A,
        jac_r_x=lambda x, a, t: -d * (4.0 * x - 2.0 * s),
        jac_q_x=lambda x: np.zeros(n),
        jac_f_alpha=jac_f_alpha,
        jac_r_alpha=lambda x, a, t: zero_m,
    )


def build_etp_system(params: EtpParams) -> SystemSpec:
    """Linear fleet dynamics  x' = A x + B alpha + theta  with the negated
    band penalty as running payoff and no terminal payoff.

    The field is affine in the decision, so the spec ships exact
    decision-Jacobians and is relaxable; both derivative concepts coincide
    on it.
    """
    A, B, theta = _etp_matrices(params)
    b = params.b  # B = -diag(b): its off-diagonal products are exact zeros
    return _fleet_system(params, A, lambda x, a, t: matvec(A, x) - b * a + theta, lambda x, a, t: B)


def _transient_arrays(xi, members, m: int):
    """Validated (xi, members) for m units: finite positive decay rates, unique
    0-based member indices below m (errors name units 1-based, as files do)."""
    members = tuple(int(i) for i in members)
    for j, i in enumerate(members):
        if not (0 <= i < m):
            raise DimensionError(
                f"unit index {i + 1} out of range 1..{m}", field=f"transient.members[{j}]"
            )
    if len(set(members)) != len(members):
        raise ConstraintError("duplicate unit index", field="transient.members")
    xi = _vec(xi, m, "xi", field="transient.xi")
    if np.any(xi <= 0):
        raise ConstraintError("transient decay rates must be positive", field="transient.xi")
    return xi, members


def build_transient_system(params: EtpParams, xi, members: Sequence[int]) -> SystemSpec:
    """Fleet dynamics where member units keep cooling after an OFF command.

    For i in ``members`` the cooling term is  -b_i exp(-xi_i (1 - u_i) t)
    with t measured from the start of the slot: an ON unit (u=1) cools at
    full rate, an OFF unit's cooling decays over a 1/xi_i time scale instead
    of stopping instantly.  Non-members keep the instantaneous -b_i u_i term.
    The field is smooth in the decision, so the relaxed derivative exists,
    but it is no longer affine and the two derivative concepts differ.
    """
    m = params.m
    xi, members = _transient_arrays(xi, members, m)
    mem = np.zeros(m, dtype=bool)
    mem[list(members)] = True

    A, _B, theta = _etp_matrices(params)
    b = params.b

    def cooling(a, t):
        t = np.asarray(t)[..., None]
        return np.where(mem, b * np.exp(-xi * (1.0 - a) * t), b * a)

    def jac_f_alpha(x, a, t):
        t = np.asarray(t)[..., None]
        diag = np.where(mem, -b * xi * t * np.exp(-xi * (1.0 - a) * t), -b)
        out = np.zeros(diag.shape + (m,))
        out[..., range(m), range(m)] = diag
        return out

    return _fleet_system(params, A, lambda x, a, t: matvec(A, x) + theta - cooling(a, t), jac_f_alpha)


@dataclass(frozen=True)
class TargetBandCase:
    """Per-step aggregate power band: y_lo[k] <= c @ alpha <= y_hi[k] (kW)."""

    y_lo: np.ndarray
    y_hi: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.y_lo, dtype=float).reshape(-1)
        hi = np.asarray(self.y_hi, dtype=float).reshape(-1)
        if lo.size != hi.size:
            raise DimensionError("y_lo and y_hi must have the same length")
        for name, v in (("y_lo", lo), ("y_hi", hi)):
            if not np.all(np.isfinite(v)):
                raise ConstraintError(f"{name} entries must be finite", field=name)
        if np.any(lo < 0) or np.any(hi < 0):
            raise ConstraintError("target bands must be nonnegative", field="y_lo")
        if np.any(lo > hi):
            raise ConstraintError("target band needs y_lo <= y_hi", field="y_lo")
        object.__setattr__(self, "y_lo", lo)
        object.__setattr__(self, "y_hi", hi)


@dataclass(frozen=True)
class TuCase:
    """Customer operation rows Q @ alpha <= rhs with a per-step budget on the
    last row (rhs[-1] is replaced by z_bar[k] at step k)."""

    rows: np.ndarray
    rhs: np.ndarray
    z_bar: np.ndarray

    def __post_init__(self):
        Q = np.asarray(self.rows, dtype=float)
        r = np.asarray(self.rhs, dtype=float).reshape(-1)
        z = np.asarray(self.z_bar, dtype=float).reshape(-1)
        if Q.ndim != 2 or Q.shape[0] != r.size:
            raise DimensionError("rows and rhs shapes do not match", field="rhs")
        if Q.shape[0] == 0:
            raise ConstraintError("operation rows need at least the per-step budget row", field="rows")
        for name, arr in (("rows", Q), ("rhs", r), ("z_bar", z)):
            object.__setattr__(self, name, integer_array(arr, name, field=name))


@dataclass(frozen=True)
class TransientConfig:
    xi: np.ndarray
    members: tuple


@dataclass(frozen=True)
class Scenario:
    """A fleet, a slot schedule, a constraint case, and an optional transient
    shutdown configuration.  A power band is encoded as a count band, which
    needs uniform, positive unit power draws."""

    params: EtpParams
    step_minutes: float
    num_steps: int
    case: Union[TargetBandCase, TuCase]
    transient: Optional[TransientConfig] = None

    def __post_init__(self):
        if not math.isfinite(self.step_minutes):
            raise ConstraintError("step_minutes must be finite", field="step_minutes")
        if self.step_minutes < _MIN_STEP_MINUTES:
            raise ConstraintError(
                f"step_minutes must be at least {_MIN_STEP_MINUTES} minutes", field="step_minutes"
            )
        if self.num_steps < 1:
            raise ConstraintError("num_steps must be positive")
        K = self.num_steps
        if isinstance(self.case, TargetBandCase):
            if self.case.y_lo.size != K:
                raise DimensionError("target band length must equal num_steps")
            c = self.params.c
            if not np.allclose(c, c[0]):
                raise ConstraintError(
                    "the target-band encodings need uniform unit power draws", field="params.c"
                )
            if c[0] <= 0:
                raise ConstraintError(
                    "unit power draw must be positive for a power band", field="params.c"
                )
        elif isinstance(self.case, TuCase):
            if self.case.rows.shape[1] != self.params.m:
                raise DimensionError("operation rows must have one column per unit")
            if self.case.z_bar.size != K:
                raise DimensionError("z_bar length must equal num_steps")
        else:
            raise ConstraintError("case must be a target band or TU rows")
        if self.transient is not None:
            xi, members = _transient_arrays(
                self.transient.xi, self.transient.members, self.params.m
            )
            object.__setattr__(self, "transient", TransientConfig(xi, members))

    @property
    def step_hours(self) -> float:
        return self.step_minutes / _MINUTES_PER_HOUR


@dataclass(frozen=True)
class StepResult:
    """One slot of the receding-horizon run; ``alpha`` is the applied
    (post-processed) decision and power_kw its total draw."""

    step: int
    alpha: np.ndarray
    payoff: float
    rho: Optional[float]
    rho_post: float
    optimal: bool
    temperatures_end: np.ndarray
    power_kw: float
    kind: str
    base_payoff: float
    oracle_payoff: Optional[float] = None
    oracle_ratio: Optional[float] = None


@dataclass(frozen=True)
class QuadraticPayoff:
    """Exact quadratic form of the discrete slot payoff at binary decision
    vectors, valid under the exactness condition of affine_state_model."""

    constant: float
    linear: np.ndarray
    quadratic: np.ndarray

    def value(self, alpha):
        """Payoffs (...) of decision rows (..., m), each row computed as for
        a single decision; a float for one decision."""
        a = np.asarray(alpha, dtype=float)
        v = self.constant + rowdot(a, self.linear) + rowdot(matvec(self.quadratic.T, a), a)
        return v if np.ndim(v) else float(v)


def _check_knots(path: np.ndarray, grid: TimeGrid, name: str) -> None:
    if path.shape[0] != grid.num_points:
        raise DimensionError(f"{name}: {path.shape[0]} knots, but the grid has {grid.num_points}")


@dataclass(frozen=True)
class FleetQuadratic:
    """The part of a fleet's quadratic slot payoff that no slot changes.

    Both fleets have one: their fields meet the exactness condition of
    :func:`~combidyn.system.affine_state_model` through the decision terms
    ``b_i a_i`` and, for a transient member, ``b_i exp(-xi_i (1 - a_i) t)``,
    so the path is exactly affine at binary points and the band penalty
    makes the payoff an exact quadratic there.

    ``sens`` holds the (N, n, m) sensitivity columns of the discrete path
    (see affine_state_model) and ``quadratic`` the Hessian
    -sum_k w_k sum_i 2 d_i S_ki^T S_ki, one GEMM over ``sens`` stacked to
    (N n, m), symmetrized.  It is negative semidefinite because delta and
    the trapezoid weights are nonnegative.  Both depend on the fleet, the
    grid and the scheme but not on the initial temperatures, up to
    roundoff, so a receding horizon builds them once and :meth:`model`
    completes each slot from its all-off path.
    """

    params: EtpParams
    grid: TimeGrid
    sens: np.ndarray
    quadratic: np.ndarray = field(init=False)

    def __post_init__(self):
        _check_knots(self.sens, self.grid, "sensitivities")
        m = self.sens.shape[-1]
        weights = 2.0 * trapezoid_weights(self.grid)[:, None] * self.params.delta
        product = (self.sens * weights[..., None]).reshape(-1, m).T @ self.sens.reshape(-1, m)
        quadratic = -0.5 * (product + product.T)  # the GEMM's rounding is not symmetric
        quadratic.flags.writeable = False  # shared by every slot's model
        object.__setattr__(self, "quadratic", quadratic)

    def model(self, base: np.ndarray) -> QuadraticPayoff:
        """The quadratic payoff of the slot whose all-off path is ``base``
        (N, n): its ``constant`` and ``linear`` terms over the fleet's
        sensitivities and Hessian."""
        _check_knots(base, self.grid, "all-off path")
        w = trapezoid_weights(self.grid)
        p = self.params
        lo, hi, d = p.theta_lo, p.theta_hi, p.delta
        s = lo + hi
        kappa = lo**2 + hi**2 - 0.5 * s * s
        constant = -float(np.einsum("k,ki->", w, d * (2.0 * base**2 - 2.0 * s * base + kappa)))
        linear = -np.einsum("k,ki,kim->m", w, d * (4.0 * base - 2.0 * s), self.sens)
        return QuadraticPayoff(constant, linear, self.quadratic)


def quadratic_payoff_model(params: EtpParams, grid: TimeGrid, scheme: str = "euler") -> QuadraticPayoff:
    """Reduce the discrete slot payoff of the fleet without transient members
    to a quadratic form: the one-shot reference for :func:`slot_payoff`.

    The discrete trajectory is exactly affine in the decision (see
    :class:`FleetQuadratic`) and the band penalty is quadratic in
    temperature, so the trapezoid payoff is an exact quadratic in the
    decision.  Produces the same numbers as integrate + evaluate_payoff on
    the same grid and scheme, at a tiny fraction of the cost when sweeping
    many decisions.  One probe (affine_state_model) feeds both parts,
    :class:`FleetQuadratic` and its :meth:`~FleetQuadratic.model`; a
    receding horizon builds the first once.
    """
    base, sens = affine_state_model(build_etp_system(params), grid, scheme)
    return FleetQuadratic(params, grid, sens).model(base)


# ---------------------------------------------------------------------------
# Synthetic fleets


_NOMINAL_X0 = np.array([2.8, 1.6, 3.2, 2.0, 1.2, 2.4, 3.0, 1.8, 2.6, 1.4])
_BLOCK = 10
_AMBIENT_C = 19.5
_BAND_C = (0.0, 4.0)
_POWER_KW = 10.0
# Sized so the fleet is slightly cooling-starved at the 0.50/0.55 power
# caps (midband duty need ~0.55): the cap binds every slot, temperatures
# ride the upper half of the band, and one ON unit nets about -1 C per
# 15-minute slot.  A non-binding cap degenerates into bang-bang regulation
# with weak certificates.
_A_AMBIENT = 0.25
_A_RING = 0.08
_A_CHORD = 0.03
_B_COOL = 8.0


def _nominal_block():
    a = np.zeros((_BLOCK, _BLOCK))
    for i in range(_BLOCK):
        j = (i + 1) % _BLOCK
        a[i, j] = a[j, i] = _A_RING
    for i in range(_BLOCK // 2):
        j = i + _BLOCK // 2
        a[i, j] = a[j, i] = _A_CHORD
    np.fill_diagonal(a, _A_AMBIENT)
    return a


def default_fleet(m: int, seed: int) -> EtpParams:
    """Deterministic synthetic fleet of m units in 10-unit blocks.

    Each block is a ring with cross-chords; the first block carries the
    nominal coefficients and every later block perturbs the couplings,
    cooling rates and initial temperatures by a uniform +/-10%.  The ambient
    (19.5 C), comfort band ([0, 4] C), penalty weight (1), power draw
    (10 kW) and slot length are held at their published values.
    """
    if m < _BLOCK or m % _BLOCK:
        raise ConstraintError(f"fleet size must be a positive multiple of {_BLOCK}")
    rng = np.random.default_rng(seed)
    blocks = m // _BLOCK
    a = np.zeros((m, m))
    b = np.empty(m)
    x0 = np.empty(m)
    nominal_a = _nominal_block()
    for blk in range(blocks):
        sl = slice(blk * _BLOCK, (blk + 1) * _BLOCK)
        if blk == 0:
            a[sl, sl] = nominal_a
            b[sl] = _B_COOL
            x0[sl] = _NOMINAL_X0
        else:
            pert = nominal_a * (1.0 + rng.uniform(-0.1, 0.1, nominal_a.shape))
            pert = 0.5 * (pert + pert.T)  # keep couplings symmetric
            a[sl, sl] = pert
            b[sl] = _B_COOL * (1.0 + rng.uniform(-0.1, 0.1, _BLOCK))
            x0[sl] = _NOMINAL_X0 * (1.0 + rng.uniform(-0.1, 0.1, _BLOCK))
    return EtpParams(
        a=a,
        b=b,
        theta_ambient=np.full(m, _AMBIENT_C),
        theta_lo=np.full(m, _BAND_C[0]),
        theta_hi=np.full(m, _BAND_C[1]),
        delta=np.ones(m),
        c=np.full(m, _POWER_KW),
        x0=x0,
    )


def exclusion_budget_rows(m: int):
    """Customer operation rows: in every 10-unit block the first unit
    excludes units 2 and 3 and the last unit excludes units 8 and 9
    (pairwise alpha_i + alpha_j <= 1), plus one shared budget row over units
    4..7 of every block.  The pair rows are the edge incidence of a forest
    and the budget row touches disjoint columns, so the matrix is totally
    unimodular.  Returns (rows, rhs) with the budget row last; its rhs is a
    placeholder the scenario overrides per step.
    """
    if m < _BLOCK or m % _BLOCK:
        raise ConstraintError(f"operation rows need a positive multiple of {_BLOCK} units")
    rows = []
    for blk in range(m // _BLOCK):
        o = blk * _BLOCK
        for i, j in ((0, 1), (0, 2), (9, 8), (9, 7)):
            row = np.zeros(m)
            row[o + i] = 1.0
            row[o + j] = 1.0
            rows.append(row)
    budget = np.zeros(m)
    for blk in range(m // _BLOCK):
        o = blk * _BLOCK
        budget[o + 3 : o + 7] = 1.0
    rows.append(budget)
    Q = np.array(rows)
    rhs = np.ones(Q.shape[0])
    rhs[-1] = float(budget.sum())
    return Q, rhs


_PEAK_STEPS = range(9, 17)  # 1-based steps with the peak-period budget


def default_scenario(
    m: int, seed: int, case: str = "target_band", num_steps: int = 32, transient: bool = False
) -> Scenario:
    """Desk-scale scenario around :func:`default_fleet`.

    ``target_band``: aggregate power capped at 55% of installed draw during
    steps 9..16 and 50% otherwise (lower band zero), mirroring the published
    5500/5000 kW profile proportionally.  ``tu``: the exclusion/budget rows
    with a binding budget of ceil(5/8) of the budgeted units at peak steps
    and half otherwise (the published absolute budgets are vacuous at desk
    scale).  ``transient=True`` adds the decaying-shutdown term on the usual
    member pattern with decay rate 100 per hour.
    """
    params = default_fleet(m, seed)
    installed = float(params.c.sum())
    if case == "target_band":
        y_hi = np.array(
            [0.55 * installed if k in _PEAK_STEPS else 0.50 * installed for k in range(1, num_steps + 1)]
        )
        the_case: Union[TargetBandCase, TuCase] = TargetBandCase(np.zeros(num_steps), y_hi)
    elif case == "tu":
        Q, rhs = exclusion_budget_rows(m)
        n_budget = int(Q[-1].sum())
        z = np.array(
            [
                math.ceil(0.625 * n_budget) if k in _PEAK_STEPS else math.ceil(0.5 * n_budget)
                for k in range(1, num_steps + 1)
            ],
            dtype=float,
        )
        the_case = TuCase(Q, rhs, z)
    else:
        raise ConstraintError(f"unknown case {case!r}")
    trans = None
    if transient:
        trans = TransientConfig(np.full(m, 100.0), transient_members(m))
    return Scenario(
        params=params, step_minutes=15.0, num_steps=num_steps, case=the_case, transient=trans
    )


def transient_members(m: int) -> tuple:
    """Member pattern for the transient variant: within every 20 units, all
    but the eight even-position units 2,4,6,8,12,14,16,18 (1-based)."""
    instant = {1, 3, 5, 7, 11, 13, 15, 17}  # 0-based within a 20-unit span
    return tuple(i for i in range(m) if (i % 20) not in instant)


# ---------------------------------------------------------------------------
# Receding-horizon driver


def step_constraints(scenario: Scenario, k: int):
    """Constraint set for 1-based step k as TU rows, plus the count band they
    encode when the case is a power band (None for operation rows)."""
    if isinstance(scenario.case, TargetBandCase):
        m = scenario.params.m
        unit = scenario.params.c[0]  # uniform and positive, checked by the Scenario
        k_hi = min(m, math.floor(scenario.case.y_hi[k - 1] / unit + 1e-9))
        k_lo = max(0, math.ceil(scenario.case.y_lo[k - 1] / unit - 1e-9))
        if k_lo > k_hi:
            raise InfeasibleError("power band admits no ON-count")
        band = L0Band(k_lo, k_hi)
        return TuRows(*integer_rows(band, m)), band
    rhs = scenario.case.rhs.copy()
    rhs[-1] = scenario.case.z_bar[k - 1]
    return TuRows(scenario.case.rows, rhs), None


def step_system(scenario: Scenario, x_now: np.ndarray) -> SystemSpec:
    params = replace(scenario.params, x0=x_now)
    if scenario.transient is None:
        return build_etp_system(params)
    return build_transient_system(params, scenario.transient.xi, scenario.transient.members)


# Solvers of the linearized slot program.  The horizon's choices widen both
# selectors: "both" applies the better derivative's pick, "oracle" the optimum.
LINEARIZED_SOLVERS = ("l0", "tu")
HORIZON_KINDS = (*DERIVATIVE_KINDS, "both")
HORIZON_SOLVERS = (*LINEARIZED_SOLVERS, "oracle")


def solve_linearized(grad: Gradient, con: TuRows, band, solver: str):
    if solver == "tu":
        return solve_tu(grad, con.rows, con.rhs)
    if solver == "l0":
        if band is None:
            raise ConstraintError("the count-band solver applies to target-band cases only")
        return solve_l0(grad, band.k_min, band.k_max)
    raise ConstraintError(f"unknown solver {solver!r}")


class SlotPick(NamedTuple):
    """A kind's certified pick and the applied decision, payoff and end state,
    with the slot's base-point path that every kind linearized on."""

    grad: Gradient
    cert: CertifiedSolution
    alpha: np.ndarray
    payoff: float
    end_state: np.ndarray
    base_path: Trajectory


def _pick_paths(spec: SystemSpec, picks, grid: TimeGrid, scheme: str):
    """One path per pick from one pass: a 1-D integration when the picks are
    all equal (a one-row stack is slower), else their (B, m) stack read by
    row, which equals each pick integrated alone under the callback contract."""
    if all(np.array_equal(alpha, picks[0]) for alpha in picks):
        return [integrate(spec, picks[0], grid, scheme)] * len(picks)
    stack = integrate(spec, np.stack(picks), grid, scheme)
    return [Trajectory(grid, stack.values[:, j], stack.decision[j]) for j in range(len(picks))]


def slot_picks(spec: SystemSpec, alpha_bar, con: TuRows, band, kinds, solver, grid, scheme):
    """Linearize once at ``alpha_bar``, derive and solve per derivative kind,
    integrate the distinct picks in one pass, then certify and apply each
    kind's pick from its path: {kind: SlotPick} in the order of ``kinds``.
    End states come from paths already integrated (the pick's or the base's)."""
    lin = linearize(spec, alpha_bar, grid, scheme)
    base_feasible = is_feasible(con, lin.base_point)
    grads = [derivative(lin, kind) for kind in kinds]
    stars = [solve_linearized(grad, con, band, solver) for grad in grads]
    paths = _pick_paths(spec, stars, grid, scheme)
    picks = {}
    for kind, grad, alpha_star, path in zip(kinds, grads, stars, paths):
        cert = certify(spec, lin.base_point, grad, alpha_star, path)
        alpha, payoff = cert.applied(base_feasible)
        end = cert.end_state if np.array_equal(alpha, cert.alpha_star) else lin.forward.final_state
        picks[kind] = SlotPick(grad, cert, alpha, payoff, end, lin.forward)
    return picks


def slot_payoff(scenario: Scenario, spec: SystemSpec, scheme, base_path: Trajectory, fleet=None):
    """(objective, fleet): the exact discrete payoff of one slot over binary
    decision rows (..., m), ``fleet.model`` on the slot's all-off
    ``base_path``, exact for both fleets (see :class:`FleetQuadratic`);
    ``fleet`` is probed on that path's grid when None, for later slots.
    ValueError unless ``base_path`` records that :func:`integrate` held
    the all-off decision along it."""
    off = base_path.decision
    if off is None or off.shape != (spec.decision_dim,) or np.any(off):
        raise ValueError("slot_payoff needs the slot's path integrated at the all-off decision")
    if fleet is None:
        grid = base_path.grid
        fleet = FleetQuadratic(scenario.params, grid, affine_state_model(spec, grid, scheme)[1])
    return fleet.model(base_path.values).value, fleet


def run_receding_horizon(
    scenario: Scenario,
    kind: str = "standard",
    solver: str = "tu",
    grid_points: int = 201,
    scheme: str = "euler",
    with_oracle: bool = False,
):
    """Roll the fleet forward one slot at a time.

    Per step: build the slot system from the carried temperatures and run
    :func:`slot_picks` at the all-zeros base point.  ``kind="both"`` applies
    the decision of the derivative concept with the better applied payoff.
    ``solver="oracle"`` applies the exact per-slot optimum instead.
    ``with_oracle=True`` additionally reports the exact optimum and the
    achieved optimality ratio along the applied path.  Both oracle routes
    take one exhaustive step over :func:`slot_payoff`, which probes the fleet
    once per horizon; its model is exact at binary points for both fleets.
    ``kind``, ``solver`` and ``scheme`` are checked against
    :data:`HORIZON_KINDS`, :data:`HORIZON_SOLVERS` and ``SCHEMES`` before
    slot 1 (ValueError); a package error raised in slot k carries step k.
    """
    m = scenario.params.m
    grid = TimeGrid(scenario.step_hours, grid_points)
    for name, value, choices in (
        ("kind", kind, HORIZON_KINDS), ("solver", solver, HORIZON_SOLVERS), ("scheme", scheme, SCHEMES)
    ):
        if value not in choices:
            raise ValueError(f"{name} must be one of {choices}, got {value!r}")
    x = scenario.params.x0.copy()
    fleet = None  # the payoff's quadratic part, from the first oracle step
    results = []

    for k in range(1, scenario.num_steps + 1):
        abar = np.zeros(m)  # a fresh base point: the slot may apply it as its decision
        with named_step(k):
            spec = step_system(scenario, x)
            con, band = step_constraints(scenario, k)
            if solver == "oracle":
                base_path = integrate(spec, abar, grid, scheme)
            else:
                kinds = DERIVATIVE_KINDS if kind == "both" else (kind,)
                picks = slot_picks(spec, abar, con, band, kinds, solver, grid, scheme)
                # Ties keep the first kind, so "both" prefers the standard one.
                used_kind = max(picks, key=lambda one: picks[one].payoff)
                _grad, cert, applied, applied_payoff, end, base_path = picks[used_kind]
                base_payoff = cert.base_payoff
                rho, rho_post, optimal = cert.rho, cert.rho_post, cert.optimal
            if with_oracle or solver == "oracle":
                objective, fleet = slot_payoff(scenario, spec, scheme, base_path, fleet)
                optimum, best = solve_bruteforce(objective, con, m)
            if solver == "oracle":
                base_payoff = evaluate_payoff(spec, base_path, abar)
                applied, applied_payoff = optimum, best
                end = integrate(spec, applied, grid, scheme).final_state
                rho, rho_post, optimal, used_kind = None, 1.0, True, "oracle"

            oracle_payoff = oracle_ratio = None
            if with_oracle:
                oracle_payoff, gain_opt = best, best - base_payoff
                small = gain_opt <= 1e-12 * (1 + abs(best))
                oracle_ratio = 1.0 if small else (applied_payoff - base_payoff) / gain_opt

        x = end
        results.append(
            StepResult(
                step=k,
                alpha=applied,
                payoff=applied_payoff,
                rho=rho,
                rho_post=rho_post,
                optimal=optimal,
                temperatures_end=end.copy(),
                power_kw=float(scenario.params.c @ applied),
                kind=used_kind,
                base_payoff=base_payoff,
                oracle_payoff=oracle_payoff,
                oracle_ratio=oracle_ratio,
            )
        )
    return results
