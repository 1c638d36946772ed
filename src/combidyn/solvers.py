"""Solvers for the linearized 0-1 program, plus exact and greedy baselines.

Once a payoff gradient is available the decision problem collapses to
max g^T alpha over the constraint set, which no longer involves the
dynamical system at all; the solvers here take only the gradient (or a plain
objective callable) and the constraints.  Objectives map decision rows
(..., m) to values (...), so a whole chunk of candidates is one call.

Constraint kinds:

* count band    : k_min <= number of ones <= k_max
* TU rows       : integer rows @ alpha <= integer rhs with a totally
                  unimodular row matrix, solved exactly through the boxed LP
                  relaxation (the optimal vertex is integral)
* knapsack      : nonnegative weights, one capacity, 0.5-approximate greedy
* explicit      : a literal list of admissible vectors

The exhaustive oracle (:func:`solve_bruteforce`) and the checks in ``certify``
share one enumerator, :func:`binary_chunks`: lexicographic blocks of 2^16 rows
over one cached suffix table, masked by integer rows before they are built.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .errors import (
    ConstraintError,
    EnumerationRefusedError,
    InfeasibleError,
    NumericError,
    TuViolationError,
)
from .gradient import Gradient
from .simplex import LpProblem, solve_boxed_lp

_TU_CHECK_LIMIT = 8          # exhaustive determinant check up to this size
_BRUTE_FORCE_LIMIT = 24
_SUFFIX_BITS = 16            # enumeration blocks hold 2^16 rows


def is_totally_unimodular(Q, max_minors: int = 200000) -> bool:
    """Exhaustively test total unimodularity by enumerating square submatrix
    determinants.  Intended for small matrices; raises when the number of
    minors exceeds ``max_minors``."""
    A = np.asarray(Q, dtype=float)
    if not np.allclose(A, np.round(A), atol=1e-9):
        return False
    A = np.round(A)
    l, m = A.shape
    total = 0
    from math import comb

    for k in range(1, min(l, m) + 1):
        total += comb(l, k) * comb(m, k)
    if total > max_minors:
        raise EnumerationRefusedError(
            f"{total} square submatrices exceed the enumeration limit {max_minors}"
        )
    for k in range(1, min(l, m) + 1):
        for rows in itertools.combinations(range(l), k):
            sub_rows = A[list(rows), :]
            for cols in itertools.combinations(range(m), k):
                det = np.linalg.det(sub_rows[:, list(cols)])
                if abs(det - round(det)) > 1e-6 or round(det) not in (-1, 0, 1):
                    return False
    return True


def integer_array(values, name: str) -> np.ndarray:
    """``values`` rounded to integers; ConstraintError when any entry is
    further than 1e-9 from an integer."""
    a = np.asarray(values, dtype=float)
    if not np.allclose(a, np.round(a), atol=1e-9):
        raise ConstraintError(f"{name} must be integer")
    return np.round(a)


@dataclass(frozen=True)
class L0Band:
    """k_min <= ||alpha||_0 <= k_max."""

    k_min: int
    k_max: int

    def __post_init__(self):
        if not (0 <= self.k_min <= self.k_max):
            raise ConstraintError("count band needs 0 <= k_min <= k_max")


@dataclass(frozen=True)
class TuRows:
    """Integer inequality rows asserted totally unimodular by the caller.

    The assertion is verified exhaustively for matrices up to 8 x 8 and
    trusted above that; a false assertion surfaces later as a fractional LP
    vertex (TuViolationError).
    """

    rows: np.ndarray
    rhs: np.ndarray

    def __post_init__(self):
        A = np.asarray(self.rows, dtype=float)
        b = np.asarray(self.rhs, dtype=float).reshape(-1)
        if A.ndim != 2 or A.shape[0] != b.size:
            raise ConstraintError("rows and rhs shapes do not match")
        object.__setattr__(self, "rows", integer_array(A, "TU rows"))
        object.__setattr__(self, "rhs", integer_array(b, "TU right-hand side"))
        if A.shape[0] <= _TU_CHECK_LIMIT and A.shape[1] <= _TU_CHECK_LIMIT:
            if not is_totally_unimodular(self.rows):
                raise ConstraintError("row matrix is not totally unimodular")


@dataclass(frozen=True)
class Knapsack:
    """weights @ alpha <= capacity with nonnegative weights."""

    weights: np.ndarray
    capacity: float

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float).reshape(-1)
        if np.any(w < 0):
            raise ConstraintError("knapsack weights must be nonnegative")
        if self.capacity < 0:
            raise ConstraintError("knapsack capacity must be nonnegative")
        object.__setattr__(self, "weights", w)


@dataclass(frozen=True)
class ExplicitSet:
    """A literal collection of admissible binary vectors of one length."""

    vectors: tuple

    def __post_init__(self):
        vecs = tuple(np.asarray(v, dtype=float).reshape(-1) for v in self.vectors)
        if not vecs:
            raise ConstraintError("explicit constraint set is empty")
        if len({v.size for v in vecs}) != 1:
            raise ConstraintError("explicit vectors must all have the same length")
        if not all(np.all((v == 0.0) | (v == 1.0)) for v in vecs):
            raise ConstraintError("explicit vectors must be binary")
        # (v == 1) drops the sign of a -0.0 entry, so equal vectors have equal bytes.
        object.__setattr__(self, "vectors", tuple((v == 1.0).astype(float) for v in vecs))

    def _key_set(self):
        return {v.tobytes() for v in self.vectors}


ConstraintSet = Union[L0Band, TuRows, Knapsack, ExplicitSet]


def is_feasible(constraints: ConstraintSet, alpha) -> bool:
    """Whether the binary vector ``alpha`` satisfies the constraints."""
    a = np.asarray(alpha, dtype=float).reshape(1, -1)
    return bool(feasible_mask(constraints, a)[0])


def feasible_mask(constraints: ConstraintSet, A: np.ndarray) -> np.ndarray:
    """Vectorized feasibility over a (N, m) matrix of binary rows."""
    if isinstance(constraints, L0Band):
        s = A.sum(axis=1)
        return (s >= constraints.k_min) & (s <= constraints.k_max)
    if isinstance(constraints, TuRows):
        return np.all(A @ constraints.rows.T <= constraints.rhs + 1e-9, axis=1)
    if isinstance(constraints, Knapsack):
        return A @ constraints.weights <= constraints.capacity + 1e-9
    if isinstance(constraints, ExplicitSet):
        keys = constraints._key_set()
        rows = np.ascontiguousarray(A, dtype=float) + 0.0  # -0.0 + 0.0 is 0.0
        return np.fromiter((r.tobytes() in keys for r in rows), bool, count=rows.shape[0])
    raise ConstraintError(f"unknown constraint set {type(constraints).__name__}")


def solve_l0(grad: Gradient, k_min: int, k_max: int) -> np.ndarray:
    """Exact one-shot solver for the count-band linearized problem.

    Turns on the k_min largest-derivative entries unconditionally, then keeps
    filling through rank k_max while the sorted entry is strictly positive.
    Ties sort stably, lower index first.
    """
    g = grad.entries
    m = g.size
    if not (0 <= k_min <= k_max <= m):
        raise ConstraintError("count band needs 0 <= k_min <= k_max <= m")
    order = np.argsort(-g, kind="stable")
    alpha = np.zeros(m)
    alpha[order[:k_min]] = 1.0
    for rank in range(k_min, k_max):
        if g[order[rank]] > 0.0:
            alpha[order[rank]] = 1.0
        else:
            break
    return alpha


def solve_tu(grad: Gradient, Q, r) -> np.ndarray:
    """Exact solver for integer TU inequality rows via the boxed LP
    relaxation; the optimal vertex must be integral and is snapped.

    A vertex further than 1e-7 from {0,1} means the caller's TU assertion was
    false and raises TuViolationError.
    """
    con = TuRows(np.asarray(Q), np.asarray(r))
    x, _ = solve_boxed_lp(LpProblem(grad.entries, con.rows, con.rhs))
    rounded = np.round(x)
    if np.any(np.abs(x - rounded) > 1e-7):
        raise TuViolationError(
            "LP relaxation returned a fractional vertex; the row matrix is not TU"
        )
    return np.clip(rounded, 0.0, 1.0)


def solve_knapsack(grad: Gradient, weights, capacity: float) -> np.ndarray:
    """Ratio-greedy 0.5-approximation for the knapsack-constrained problem.

    Entries with nonpositive derivative are fixed to zero first.  Items are
    packed in decreasing value/weight order; the packed set is compared
    against the best single fitting item and the better one is returned, so
    the value is at least half the knapsack optimum.
    """
    con = Knapsack(np.asarray(weights), float(capacity))
    w = con.weights
    v = grad.entries
    m = v.size
    if w.size != m:
        raise ConstraintError("weights length does not match the gradient")

    candidates = [i for i in range(m) if v[i] > 0.0 and w[i] <= con.capacity]
    alpha = np.zeros(m)
    if not candidates:
        return alpha

    ratio = np.where(w > 0, v / np.where(w > 0, w, 1.0), np.inf)
    order = sorted(candidates, key=lambda i: (-ratio[i], i))
    remaining = con.capacity
    packed_value = 0.0
    for i in order:
        if w[i] <= remaining:
            alpha[i] = 1.0
            remaining -= w[i]
            packed_value += v[i]

    best_single = max(candidates, key=lambda i: (v[i], -i))
    if v[best_single] > packed_value:
        alpha = np.zeros(m)
        alpha[best_single] = 1.0
    return alpha


def binary_rows(start: int, stop: int, m: int) -> np.ndarray:
    """The binary m-vectors with codes start..stop-1 as float rows, in
    lexicographic order: entry 0 is the code's most significant bit.
    Reversing the columns gives the little-endian reading of the same codes.
    The bits are extracted in the narrowest unsigned type that holds the
    codes and shifts, which keeps the integer temporary small."""
    dtype = np.min_scalar_type(max(stop - 1, m, 0))
    codes = np.arange(start, stop, dtype=dtype)[:, None]
    shifts = (m - 1 - np.arange(m)).astype(dtype)
    return ((codes >> shifts) & dtype.type(1)).astype(float)


def integer_rows(constraints: Optional[ConstraintSet], m: int):
    """``(rows, rhs)`` when feasibility is ``rows @ alpha <= rhs`` with integer
    rows and right-hand side, else None.  A count band is the rows [1; -1]."""
    if isinstance(constraints, TuRows):
        return constraints.rows, constraints.rhs
    if isinstance(constraints, L0Band):
        rows = np.vstack([np.ones(m), -np.ones(m)])
        return rows, np.array([constraints.k_max, -constraints.k_min], dtype=float)
    return None


@functools.lru_cache(maxsize=1)
def _suffix_table(m: int) -> np.ndarray:
    """The suffix table, cached read-only: block 0 of the m-wide enumeration,
    the codes 0 .. 2^16 - 1 (all codes when m <= 16).  Its columns ahead of
    the low 16 are zero; every block is its rows with the block's prefix
    written there."""
    table = binary_rows(0, 1 << min(m, _SUFFIX_BITS), m)
    table.flags.writeable = False
    return table


# Their range limits are exact in float64, so a clipped float slack casts exactly.
_SUM_TYPES = (np.int8, np.int16, np.int32)


@functools.lru_cache(maxsize=1)
def _suffix_sums(m: int, shape: tuple, data: bytes) -> np.ndarray:
    """``rows @ table.T`` for the float64 integer rows with the given shape
    and bytes over the m-wide suffix table, cached read-only: (l, 2^16)
    exact integers in the narrowest signed type that holds the largest
    absolute row sum over the table's low 16 columns (its others are zero).
    ConstraintError when that sum exceeds the int32 range."""
    rows = np.frombuffer(data).reshape(shape)
    low = rows[:, max(m - _SUFFIX_BITS, 0):]
    bound = max(np.maximum(low, 0.0).sum(axis=1).max(initial=0.0),
                np.maximum(-low, 0.0).sum(axis=1).max(initial=0.0))
    dtype = next((t for t in _SUM_TYPES if bound <= np.iinfo(t).max), None)
    if dtype is None:
        raise ConstraintError(f"integer row sums up to {bound:g} exceed the enumerator's int32 range")
    sums = (rows @ _suffix_table(m).T).astype(dtype)
    sums.flags.writeable = False
    return sums


def _explicit_chunks(constraints: ExplicitSet, m: int):
    """An explicit set's distinct vectors in code order, split at the
    2^16-code block boundaries (where the leading m - 16 entries change);
    nothing when its vectors are not m long."""
    if constraints.vectors[0].size != m:
        return
    rows = np.unique(np.stack(constraints.vectors), axis=0)  # lexicographic: code order
    high = max(m - _SUFFIX_BITS, 0)
    new_block = np.any(rows[1:, :high] != rows[:-1, :high], axis=1)
    yield from np.split(rows, np.flatnonzero(new_block) + 1)


def binary_chunks(m: int, constraints: Optional[ConstraintSet] = None):
    """Yield the feasible binary m-vectors as row blocks in lexicographic order.

    Block p holds the feasible codes among p * 2^16 .. (p + 1) * 2^16 - 1
    (all 2^m codes form block 0 when m <= 16): the p-th prefix of the
    leading m - 16 entries in front of rows of the cached suffix table.
    Integer-row constraints (``TuRows``, and ``L0Band`` as the rows [1; -1])
    mask a block before building it: the suffix table's row sums, cached per
    row matrix in the narrowest signed integer type that holds them, are
    compared with ``rhs`` minus the prefix's row sums, clipped to that
    type's range.  Both sides are exact integers (binary decisions, integer
    rows) and every sum lies inside the range, so the mask equals
    :func:`feasible_mask` on the full block.  ``Knapsack``
    applies :func:`feasible_mask` to each built block.  An ``ExplicitSet``
    builds no block: its own vectors are the feasible rows.  Blocks with no
    feasible row are skipped; the full table is never built.

    The blocks are built in one buffer per call, so a block is valid only
    until the next one is yielded: a consumer copies the rows it keeps.
    """
    if isinstance(constraints, ExplicitSet):
        yield from _explicit_chunks(constraints, m)
        return
    high = max(m - _SUFFIX_BITS, 0)
    table = _suffix_table(m)
    integer = integer_rows(constraints, m)
    if integer is None:
        buffer = table.copy()  # an unconstrained block differs from it in the prefix only
    else:
        rows, rhs = integer
        suffix_sums = _suffix_sums(m, rows.shape, rows.tobytes())
        info = np.iinfo(suffix_sums.dtype)
        buffer = np.empty_like(table)  # a block's kept rows fill its top only
    for prefix in binary_rows(0, 1 << high, high):
        if integer is None:
            block = buffer
        else:
            slack = np.clip(rhs - rows[:, :high] @ prefix, info.min, info.max)
            keep = np.flatnonzero(np.all(suffix_sums <= slack.astype(info.dtype)[:, None], axis=0))
            # mode="clip" writes straight into ``out``; "raise" buffers a copy.
            block = np.take(table, keep, axis=0, out=buffer[: keep.size], mode="clip")
        block[:, :high] = prefix
        if integer is None and constraints is not None:
            block = block[feasible_mask(constraints, block)]
        if block.shape[0]:
            yield block


def solve_bruteforce(
    objective: Callable[[np.ndarray], np.ndarray],
    constraints: Optional[ConstraintSet],
    m: int,
):
    """Exact maximizer by exhaustive enumeration; the oracle everything else
    is tested against.

    ``objective`` maps each (N, m) block of feasible binary rows from
    :func:`binary_chunks` to N values.  Blocks come in lexicographic order
    and the first maximizer within a block is kept, replaced only by a
    strictly larger value from a later block, so ties resolve toward the
    lexicographically smallest vector.  Returns (alpha, value); raises
    InfeasibleError when nothing is feasible, NumericError when the
    objective is NaN or no feasible value is above -inf, and
    EnumerationRefusedError above m = 24.
    """
    if m > _BRUTE_FORCE_LIMIT:
        raise EnumerationRefusedError(f"refusing exhaustive search for m = {m} > {_BRUTE_FORCE_LIMIT}")
    best_val = -np.inf
    best_alpha = None
    feasible = False
    for feas in binary_chunks(m, constraints):
        vals = np.asarray(objective(feas), dtype=float)
        k = int(np.argmax(vals))  # a NaN, if there is one
        if np.isnan(vals[k]):
            raise NumericError("the objective is NaN at a feasible binary vector")
        if vals[k] > best_val:
            best_val = float(vals[k])
            best_alpha = feas[k].copy()
        feasible = True
    if best_alpha is None:
        if feasible:
            raise NumericError("the objective is -inf at every feasible binary vector")
        raise InfeasibleError("no binary vector satisfies the constraints")
    return best_alpha, best_val


def _addable(constraints: Optional[ConstraintSet], cands: np.ndarray) -> np.ndarray:
    """Which candidate rows a greedy step may move to."""
    if constraints is None:
        return np.ones(cands.shape[0], dtype=bool)
    if isinstance(constraints, L0Band):
        # The lower bound constrains the final answer, not partial sets.
        return cands.sum(axis=1) <= constraints.k_max
    return feasible_mask(constraints, cands)


def solve_greedy(
    objective: Callable[[np.ndarray], np.ndarray],
    constraints: Optional[ConstraintSet],
    m: int,
) -> np.ndarray:
    """Greedy baseline on the true payoff: repeatedly turn on the feasible
    entry with the largest payoff increment.

    Stops when no increment is positive, except that a count band's k_min is
    filled first regardless of sign.  Costs O(m) objective calls, one per
    round over all of that round's candidates.
    """
    alpha = np.zeros(m)
    current = float(objective(alpha))
    k_min = constraints.k_min if isinstance(constraints, L0Band) else 0
    while True:
        off = np.flatnonzero(alpha == 0.0)
        cands = np.repeat(alpha[None], off.size, axis=0)
        cands[np.arange(off.size), off] = 1.0
        ok = _addable(constraints, cands)
        if not ok.any():
            break
        vals = np.asarray(objective(cands[ok]), dtype=float)
        k = int(np.argmax(vals))  # the first best, lowest index on ties
        best_i, best_val = off[ok][k], float(vals[k])
        must_grow = int(alpha.sum()) < k_min
        if best_val - current <= 0.0 and not must_grow:
            break
        alpha[best_i] = 1.0
        current = best_val
    if isinstance(constraints, L0Band) and int(alpha.sum()) < k_min:
        raise InfeasibleError("greedy could not reach the count band's lower bound")
    return alpha
