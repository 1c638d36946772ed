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

The certificate reads alpha_star's path, integrated by its caller; it solves
no dynamical system itself.  A caller with several picks integrates the
distinct ones once, as one stack, and certifies each pick from its row.

The certificate requires alpha_star to be an exact maximizer of the
linearized objective over the feasible set (count-band and TU solvers are
exact; the greedy knapsack solver is not, so the driver does not offer it).

The three exhaustive structure checks return one :class:`SetFunctionReport`
and raise NumericError, rather than print a verdict, on a NaN payoff (for
the set functions, on any payoff that is not finite).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DimensionError, EnumerationRefusedError, NumericError
from .gradient import Gradient
from .solvers import binary_chunks, binary_rows, solve_bruteforce
from .system import SystemSpec, Trajectory, as_binary, evaluate_payoff, rowdot

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
    path: Trajectory,
) -> CertifiedSolution:
    """Certify an exact linearized-program solution against the base point.

    ``path`` must be the single (N, n) trajectory produced by ``integrate``
    for the same (spec, alpha_star), or a row of a stacked one; its payoff
    is evaluated and its end state kept.  Payoffs are normalized by
    subtracting the cached base payoff; the spec itself is never mutated.
    """
    abar = as_binary(alpha_bar, spec.decision_dim)
    astar = as_binary(alpha_star, spec.decision_dim)
    if grad.entries.size != spec.decision_dim:
        raise DimensionError("gradient length does not match the system")
    if not np.array_equal(grad.base_point, abar):
        raise DimensionError("gradient was computed at a different base point")
    if path.values.ndim != 2 or path.values.shape[1] != spec.state_dim:
        raise DimensionError(
            f"certify needs one (N, {spec.state_dim}) path, got {path.values.shape}"
        )

    j_base = grad.base_payoff
    j_star = evaluate_payoff(spec, path, astar)
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
        end_state=path.final_state,
    )


@dataclass(frozen=True)
class SetFunctionReport:
    """Outcome of an exhaustive check over all 2^m binary points (m is the
    witness's size): whether it holds, the worst gap and its first witness."""

    holds: bool
    worst_gap: float
    witness: np.ndarray


def check_concavity_inequality(
    payoff: Callable[[np.ndarray], np.ndarray], grad: Gradient
) -> SetFunctionReport:
    """Exhaustively verify  g^T (alpha - base) >= J(alpha) - J(base)  over all
    binary vectors, the condition under which the certificate is valid; the
    base is the gradient's own base point.

    ``payoff`` is the discrete payoff J as an objective from decision rows
    (..., m) to payoffs (...), such as ``payoff_function``; it is evaluated
    at all 2^m binary points, guarded at m = 20.  The worst gap
    J(alpha) - J(base) - g^T (alpha - base) and its witness are the
    unconstrained :func:`solve_bruteforce` maximum of that gap.  The check
    holds when no gap exceeds 1e-7 (1 + |J(alpha)|), relative to the payoff
    magnitude so integration roundoff does not flag spurious violations.
    """
    m = grad.entries.size
    if m > _CONCAVITY_LIMIT:
        raise EnumerationRefusedError(
            f"refusing 2^{m} payoff evaluations (limit m = {_CONCAVITY_LIMIT})"
        )
    abar = as_binary(grad.base_point, m)
    violated = []

    def gap(rows):
        j_alpha = np.asarray(payoff(rows), dtype=float)
        gaps = (j_alpha - grad.base_payoff) - rowdot(rows - abar, grad.entries)
        violated.append(np.any(gaps > 1e-7 * (1.0 + np.abs(j_alpha))))
        return gaps

    witness, worst = solve_bruteforce(gap, None, m)
    return SetFunctionReport(holds=not any(violated), worst_gap=worst, witness=witness)


def _payoff_table(payoff: Callable[[np.ndarray], np.ndarray], m: int) -> np.ndarray:
    """Payoff at every subset, indexed by the little-endian bit code (bit j
    of the code is entry j): the lexicographic rows read column-reversed.
    NumericError when a payoff is not finite, which no gap could compare."""
    if m > _SET_FUNCTION_LIMIT:
        raise EnumerationRefusedError(
            f"refusing 2^{m} payoff evaluations (limit m = {_SET_FUNCTION_LIMIT})"
        )
    little = (np.ascontiguousarray(rows[:, ::-1]) for rows in binary_chunks(m))
    table = np.concatenate([np.asarray(payoff(rows), dtype=float) for rows in little])
    if not np.all(np.isfinite(table)):
        raise NumericError("the payoff is not finite at some binary vector")
    return table


def _set_function_report(payoff: Callable[[np.ndarray], np.ndarray], m: int, scan):
    """Tabulate the payoff and take the worst gap over the (base codes, gaps)
    pairs that ``scan(table, codes)`` yields; the check holds when the worst
    gap is within a tolerance relative to the payoff magnitude.  The witness
    is the first base, in scan order, whose gap is within that tolerance of
    the worst, so bases tied up to evaluation roundoff give a stable witness.
    """
    table = _payoff_table(payoff, m)
    tol = 1e-9 * (1.0 + float(np.abs(table).max()))
    scans = list(scan(table, np.arange(1 << m)))
    worst = max((float(gaps.max()) for _, gaps in scans), default=-np.inf)
    code = 0
    for base, gaps in scans:
        near = np.flatnonzero(gaps >= worst - tol)
        if near.size:
            code = int(base[near[0]])
            break
    witness = binary_rows(code, code + 1, m)[0, ::-1]  # little-endian
    return SetFunctionReport(holds=bool(worst <= tol), worst_gap=worst, witness=witness)


def submodularity_report(payoff: Callable[[np.ndarray], np.ndarray], m: int) -> SetFunctionReport:
    """Diminishing returns over all set pairs: adding an element to a smaller
    set helps at least as much as adding it to a larger one.  Equivalent to
    all pairwise second differences being nonpositive, which is what is
    enumerated here; the witness is the base set of the worst second
    difference."""

    def scan(table, codes):
        for s in range(m):
            for u in range(s + 1, m):
                bs, bu = 1 << s, 1 << u
                base = codes[(codes & (bs | bu)) == 0]
                yield base, table[base | bs | bu] - table[base | bs] - table[base | bu] + table[base]

    return _set_function_report(payoff, m, scan)


def monotonicity_report(payoff: Callable[[np.ndarray], np.ndarray], m: int) -> SetFunctionReport:
    """Adding elements never decreases the payoff (checked over single-element
    additions, which suffices along subset chains)."""

    def scan(table, codes):
        for s in range(m):
            base = codes[(codes & (1 << s)) == 0]
            yield base, table[base] - table[base | (1 << s)]

    return _set_function_report(payoff, m, scan)
