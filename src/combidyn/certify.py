"""A-posteriori suboptimality certificates and exhaustive structure checks.

The certificate: linearize the payoff at a feasible base point, solve the
resulting 0-1 linear program exactly to get alpha_star, and form

    rho = (J(alpha_star) - J(base)) / (g^T (alpha_star - base)).

Whenever the linearization over-estimates every payoff gain (the concavity
inequality checked by :func:`check_concavity_inequality`), the post-processed
coefficient rho_post = max(rho, 0) satisfies

    rho_post * (J(opt) - J(base)) <= J(alpha_post) - J(base)

with alpha_post the better of alpha_star and the base point.  A zero
linearized gain certifies the base point itself as optimal.

The certificate requires alpha_star to be an exact maximizer of the
linearized objective over the feasible set (count-band and TU solvers are
exact; the greedy knapsack solver is not, so the driver does not offer it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DimensionError, EnumerationRefusedError
from .gradient import Gradient
from .solvers import binary_chunks, binary_rows
from .system import (
    SystemSpec,
    TimeGrid,
    as_binary,
    evaluate_payoff,
    integrate,
    payoff_function,
    rowdot,
)

_ZERO_GAIN_TOL = 1e-12
_CONCAVITY_LIMIT = 20
_SET_FUNCTION_LIMIT = 14


@dataclass(frozen=True)
class CertifiedSolution:
    """An approximate solution together with its suboptimality certificate.

    ``optimal`` marks the degenerate case of zero linearized gain, where the
    base point is certified optimal; ``rho`` is None there and ``rho_post``
    reports 1.0 (the bound holds with coefficient one since the normalized
    optimum is zero).  ``end_state`` is the final state of alpha_star's path.
    """

    alpha_star: np.ndarray
    kind: str
    payoff: float
    rho: Optional[float]
    optimal: bool
    rho_post: float
    alpha_post: np.ndarray
    payoff_post: float
    base_payoff: float
    end_state: np.ndarray

    def __post_init__(self):
        if self.rho_post < 0.0:
            raise ValueError("rho_post must be nonnegative")

    def applied(self, base_feasible: bool):
        """The decision to apply and its payoff: the post-processed pick when
        the base point is feasible, else the solver's pick, because an
        infeasible base point is no fallback."""
        if base_feasible:
            return self.alpha_post, self.payoff_post
        return self.alpha_star, self.payoff


def certify(
    spec: SystemSpec,
    alpha_bar,
    grad: Gradient,
    alpha_star,
    grid: TimeGrid,
    scheme: str = "euler",
) -> CertifiedSolution:
    """Certify an exact linearized-program solution against the base point.

    Payoffs are normalized by subtracting the cached base payoff; the spec
    itself is never mutated.  One extra integration (for alpha_star) is the
    only dynamical-system work, and its end state is kept.
    """
    abar = as_binary(alpha_bar, spec.decision_dim)
    astar = as_binary(alpha_star, spec.decision_dim)
    if grad.entries.size != spec.decision_dim:
        raise DimensionError("gradient length does not match the system")
    if not np.array_equal(grad.base_point, abar):
        raise DimensionError("gradient was computed at a different base point")

    j_base = grad.base_payoff
    star = integrate(spec, astar, grid, scheme)
    j_star = evaluate_payoff(spec, star, astar)
    gain = float(grad.entries @ (astar - abar))

    optimal = abs(gain) < _ZERO_GAIN_TOL
    rho = None if optimal else (j_star - j_base) / gain
    alpha_post, payoff_post = (astar, j_star) if j_star >= j_base else (abar, j_base)
    return CertifiedSolution(
        alpha_star=astar,
        kind=grad.kind,
        payoff=j_star,
        rho=rho,
        optimal=optimal,
        rho_post=1.0 if optimal else max(rho, 0.0),
        alpha_post=alpha_post,
        payoff_post=payoff_post,
        base_payoff=j_base,
        end_state=star.final_state,
    )


@dataclass(frozen=True)
class ConcavityReport:
    holds: bool
    worst_alpha: np.ndarray
    worst_violation: float
    checked: int


def check_concavity_inequality(
    spec: SystemSpec,
    alpha_bar,
    grad: Gradient,
    grid: TimeGrid,
    scheme: str = "euler",
    payoff_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> ConcavityReport:
    """Exhaustively verify  g^T (alpha - base) >= J(alpha) - J(base)  over all
    binary vectors, the condition under which the certificate is valid.

    Costs one integration per binary point (2^m total, guarded at m = 20),
    batched by ``payoff_function``; ``payoff_fn`` may replace the
    integrations when the caller has a faster exact evaluation of the same
    discrete payoff, and maps decision rows (..., m) to payoffs (...).  The
    tolerance is relative to the payoff magnitude so integration roundoff
    does not flag spurious violations.
    """
    m = spec.decision_dim
    if m > _CONCAVITY_LIMIT:
        raise EnumerationRefusedError(
            f"refusing 2^{m} payoff evaluations (limit m = {_CONCAVITY_LIMIT})"
        )
    abar = as_binary(alpha_bar, spec.decision_dim)
    if payoff_fn is None:
        payoff_fn = payoff_function(spec, grid, scheme)

    worst_violation = -np.inf
    worst_alpha = abar
    holds = True
    for rows in binary_chunks(m):
        j_alpha = np.asarray(payoff_fn(rows), dtype=float)
        violation = (j_alpha - grad.base_payoff) - rowdot(rows - abar, grad.entries)
        k = int(np.argmax(violation))  # the first worst, in lexicographic order
        if violation[k] > worst_violation:
            worst_violation = float(violation[k])
            worst_alpha = rows[k].copy()
        holds = holds and not np.any(violation > 1e-7 * (1.0 + np.abs(j_alpha)))
    return ConcavityReport(
        holds=holds, worst_alpha=worst_alpha, worst_violation=worst_violation, checked=1 << m
    )


def _payoff_table(payoff: Callable[[np.ndarray], np.ndarray], m: int) -> np.ndarray:
    """Payoff at every subset, indexed by the little-endian bit code (bit j
    of the code is entry j): the lexicographic rows read column-reversed."""
    if m > _SET_FUNCTION_LIMIT:
        raise EnumerationRefusedError(
            f"refusing 2^{m} payoff evaluations (limit m = {_SET_FUNCTION_LIMIT})"
        )
    little = (np.ascontiguousarray(rows[:, ::-1]) for rows in binary_chunks(m))
    return np.concatenate([np.asarray(payoff(rows), dtype=float) for rows in little])


@dataclass(frozen=True)
class SetFunctionReport:
    """Outcome of an exhaustive set-function check with its worst witness."""

    holds: bool
    worst_gap: float
    witness: np.ndarray


def submodularity_report(payoff: Callable[[np.ndarray], np.ndarray], m: int) -> SetFunctionReport:
    """Diminishing returns over all set pairs: adding an element to a smaller
    set helps at least as much as adding it to a larger one.  Equivalent to
    all pairwise second differences being nonpositive, which is what is
    enumerated here; the witness is the base set of the worst positive
    second difference."""
    table = _payoff_table(payoff, m)
    tol = 1e-9 * (1.0 + float(np.abs(table).max()))
    codes = np.arange(1 << m)
    worst = -np.inf
    worst_code = 0
    for s in range(m):
        bs = 1 << s
        free_s = (codes & bs) == 0
        for u in range(s + 1, m):
            bu = 1 << u
            base = codes[free_s & ((codes & bu) == 0)]
            second = table[base | bs | bu] - table[base | bs] - table[base | bu] + table[base]
            k = int(np.argmax(second))
            if second[k] > worst:
                worst = float(second[k])
                worst_code = int(base[k])
    witness = binary_rows(worst_code, worst_code + 1, m)[0, ::-1]  # little-endian
    return SetFunctionReport(holds=bool(worst <= tol), worst_gap=worst, witness=witness)


def check_submodular(payoff: Callable[[np.ndarray], np.ndarray], m: int) -> bool:
    return submodularity_report(payoff, m).holds


def monotonicity_report(payoff: Callable[[np.ndarray], np.ndarray], m: int) -> SetFunctionReport:
    """Adding elements never decreases the payoff (checked over single-element
    additions, which suffices along subset chains)."""
    table = _payoff_table(payoff, m)
    tol = 1e-9 * (1.0 + float(np.abs(table).max()))
    codes = np.arange(1 << m)
    worst = -np.inf
    worst_code = 0
    for s in range(m):
        bs = 1 << s
        base = codes[(codes & bs) == 0]
        drop = table[base] - table[base | bs]
        k = int(np.argmax(drop))
        if drop[k] > worst:
            worst = float(drop[k])
            worst_code = int(base[k])
    witness = binary_rows(worst_code, worst_code + 1, m)[0, ::-1]  # little-endian
    return SetFunctionReport(holds=bool(worst <= tol), worst_gap=worst, witness=witness)


def check_monotone(payoff: Callable[[np.ndarray], np.ndarray], m: int) -> bool:
    return monotonicity_report(payoff, m).holds
