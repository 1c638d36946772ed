import itertools

import numpy as np
import pytest

from combidyn import (
    ConstraintError,
    EnumerationRefusedError,
    ExplicitSet,
    Gradient,
    InfeasibleError,
    Knapsack,
    L0Band,
    NumericError,
    TuRows,
    TuViolationError,
    exclusion_budget_rows,
    is_totally_unimodular,
    solve_bruteforce,
    solve_greedy,
    solve_knapsack,
    solve_l0,
    solve_tu,
)
from combidyn import solvers
from combidyn.solvers import binary_chunks, binary_rows, feasible_mask, is_feasible


def _grad(entries):
    entries = np.asarray(entries, dtype=float)
    return Gradient("standard", np.zeros(entries.size), entries, 0.0)


def _interval_rows(rng, l, m):
    rows = np.zeros((l, m))
    for i in range(l):
        a = int(rng.integers(0, m))
        b = int(rng.integers(a, m))
        rows[i, a : b + 1] = 1.0
    return rows


def _network_rows(rng, nodes, arcs):
    rows = np.zeros((nodes, arcs))
    for j in range(arcs):
        head, tail = rng.choice(nodes, size=2, replace=False)
        rows[head, j] = 1.0
        rows[tail, j] = -1.0
    return rows


# ---------------------------------------------------------------------------
# count-band solver


def test_l0_band_examples():
    g = _grad([0.5, -0.2, 0.3, 0.1])
    assert np.array_equal(solve_l0(g, 0, 2), [1, 0, 1, 0])
    assert np.array_equal(solve_l0(g, 3, 3), [1, 0, 1, 1])
    assert np.array_equal(solve_l0(_grad([-1.0, -0.5, -2.0]), 0, 3), [0, 0, 0])


def test_l0_band_tie_break_prefers_lower_index():
    g = _grad([0.5, 0.5, 0.5])
    assert np.array_equal(solve_l0(g, 0, 2), [1, 1, 0])


def test_l0_band_zero_entries_stay_off():
    # the optional phase requires strictly positive entries
    assert np.array_equal(solve_l0(_grad([0.0, 1.0]), 0, 2), [0, 1])


def test_l0_band_validation():
    with pytest.raises(ConstraintError):
        solve_l0(_grad([1.0, 2.0]), 2, 1)
    with pytest.raises(ConstraintError):
        solve_l0(_grad([1.0, 2.0]), 0, 3)


@pytest.mark.parametrize("seed", range(50))
def test_l0_band_matches_brute_force(seed):
    rng = np.random.default_rng(500 + seed)
    m = int(rng.integers(2, 13))
    g = rng.standard_normal(m)
    k_min = int(rng.integers(0, m + 1))
    k_max = int(rng.integers(k_min, m + 1))
    got = solve_l0(_grad(g), k_min, k_max)
    best, best_val = solve_bruteforce(lambda A: A @ g, L0Band(k_min, k_max), m)
    assert k_min <= got.sum() <= k_max
    assert abs(float(g @ got) - best_val) < 1e-12


# ---------------------------------------------------------------------------
# TU rows


def test_tu_examples():
    assert np.array_equal(solve_tu(_grad([3.0, 2.0]), [[1, 1]], [1]), [1, 0])
    assert np.array_equal(
        solve_tu(_grad([1.0, -1.0, 1.0]), np.zeros((0, 3)), []), [1, 0, 1]
    )


def test_tu_rejects_non_tu_small_matrix():
    odd_cycle = [[1, 1, 0], [0, 1, 1], [1, 0, 1]]
    with pytest.raises(ConstraintError):
        TuRows(np.array(odd_cycle, dtype=float), np.ones(3))


def test_tu_violation_detected_beyond_check_limit():
    # Odd cycle padded to 9 columns skips the exhaustive check (m > 8) and
    # must surface as a fractional vertex.
    rows = np.zeros((3, 9))
    rows[0, :2] = 1
    rows[1, 1:3] = 1
    rows[2, 0] = rows[2, 2] = 1
    g = np.r_[np.ones(3), np.zeros(6)]
    with pytest.raises(TuViolationError):
        solve_tu(_grad(g), rows, np.ones(3))


def test_is_totally_unimodular():
    assert is_totally_unimodular(np.array([[1, 1, 0], [0, 1, 1]]))
    assert not is_totally_unimodular(np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]]))


def test_exclusion_budget_rows_are_tu():
    Q, rhs = exclusion_budget_rows(10)
    assert Q.shape == (5, 10)
    assert is_totally_unimodular(Q)


def test_tu_block_matches_brute_force_ten_units():
    rng = np.random.default_rng(77)
    Q, rhs = exclusion_budget_rows(10)
    rhs = rhs.copy()
    rhs[-1] = 2.0
    g = rng.uniform(0.1, 1.0, 10)  # all entries positive
    got = solve_tu(_grad(g), Q, rhs)
    best, best_val = solve_bruteforce(lambda A: A @ g, TuRows(Q, rhs), 10)
    assert np.all(Q @ got <= rhs + 1e-9)
    assert abs(float(g @ got) - best_val) < 1e-9


@pytest.mark.parametrize("family", ["interval", "network"])
@pytest.mark.parametrize("seed", range(25))
def test_tu_matches_brute_force_random_instances(family, seed):
    rng = np.random.default_rng(600 + seed)
    m = int(rng.integers(2, 13))
    l = int(rng.integers(1, 6))
    if family == "interval":
        rows = _interval_rows(rng, l, m)
        rhs = rng.integers(0, m + 1, l).astype(float)
    else:
        nodes = max(2, min(l + 1, m))
        rows = _network_rows(rng, nodes, m)
        rhs = rng.integers(-1, 3, nodes).astype(float)
    g = rng.standard_normal(m)
    con = TuRows(rows, rhs)
    try:
        best, best_val = solve_bruteforce(lambda A: A @ g, con, m)
    except InfeasibleError:
        with pytest.raises(InfeasibleError):
            solve_tu(_grad(g), rows, rhs)
        return
    got = solve_tu(_grad(g), rows, rhs)
    assert np.all(np.isin(got, (0.0, 1.0)))
    assert np.all(rows @ got <= rhs + 1e-9)
    assert abs(float(g @ got) - best_val) < 1e-9


# ---------------------------------------------------------------------------
# knapsack


def test_knapsack_example_half_bound():
    g = _grad([6.0, 10.0, 12.0])
    got = solve_knapsack(g, [1.0, 2.0, 3.0], 5.0)
    assert np.array_equal(got, [1, 1, 0])  # ratio order packs items 1 and 2
    _, opt = solve_bruteforce(lambda A: A @ g.entries, Knapsack(np.array([1.0, 2.0, 3.0]), 5.0), 3)
    assert abs(opt - 22.0) < 1e-12
    assert float(g.entries @ got) >= 0.5 * opt


def test_knapsack_loose_capacity_takes_everything():
    g = _grad([1.0, 2.0, 3.0])
    assert np.array_equal(solve_knapsack(g, [1.0, 1.0, 1.0], 10.0), [1, 1, 1])


def test_knapsack_oversized_item_excluded():
    g = _grad([5.0, 0.0, 0.0])
    assert np.array_equal(solve_knapsack(g, [9.0, 1.0, 1.0], 5.0), [0, 0, 0])


def test_knapsack_negative_entries_fixed_to_zero():
    g = _grad([-1.0, 4.0, -2.0])
    assert np.array_equal(solve_knapsack(g, [1.0, 1.0, 1.0], 3.0), [0, 1, 0])


def test_knapsack_validation():
    with pytest.raises(ConstraintError):
        solve_knapsack(_grad([1.0]), [1.0], -1.0)
    with pytest.raises(ConstraintError):
        solve_knapsack(_grad([1.0]), [-1.0], 1.0)


@pytest.mark.parametrize("seed", range(60))
def test_knapsack_half_approximation(seed):
    rng = np.random.default_rng(700 + seed)
    m = int(rng.integers(2, 16))
    g = rng.uniform(-1.0, 3.0, m)
    w = rng.uniform(0.0, 2.0, m)
    cap = float(rng.uniform(0.5, 0.8 * max(w.sum(), 1.0)))
    got = solve_knapsack(_grad(g), w, cap)
    assert float(w @ got) <= cap + 1e-9
    _, opt = solve_bruteforce(lambda A: A @ g, Knapsack(w, cap), m)
    assert float(g @ got) >= 0.5 * opt - 1e-9


# ---------------------------------------------------------------------------
# brute force


def test_bruteforce_unconstrained_indicator():
    g = np.array([1.0, -2.0, 0.5, -0.1])
    best, val = solve_bruteforce(lambda a: a @ g, None, 4)
    assert np.array_equal(best, [1, 0, 1, 0])
    assert abs(val - 1.5) < 1e-12


def test_bruteforce_tie_breaks_lexicographically():
    best, val = solve_bruteforce(lambda a: np.zeros(len(a)), None, 3)
    assert np.array_equal(best, [0, 0, 0])
    best, _ = solve_bruteforce(lambda a: a[..., 0] + a[..., 1], L0Band(1, 1), 2)
    assert np.array_equal(best, [0, 1])  # (0,1) < (1,0) lexicographically


def test_bruteforce_explicit_set():
    admissible = ExplicitSet(((0.0, 1.0), (1.0, 0.0)))
    best, val = solve_bruteforce(lambda a: a[..., 0] * 2 + a[..., 1], admissible, 2)
    assert np.array_equal(best, [1, 0])


def test_bruteforce_guard():
    with pytest.raises(EnumerationRefusedError):
        solve_bruteforce(lambda a: np.zeros(len(a)), None, 25)


def test_bruteforce_infeasible():
    with pytest.raises(InfeasibleError):
        solve_bruteforce(lambda a: np.zeros(len(a)), TuRows([[1.0, 1.0]], [-1.0]), 2)


def test_bruteforce_nan_or_all_minus_inf_is_a_numeric_failure():
    nan_at_first_on = lambda a: np.where(a[:, 0] == 1.0, np.nan, a.sum(axis=1))
    for objective, con in (
        (lambda a: np.full(len(a), np.nan), None),
        (nan_at_first_on, None),
        (lambda a: np.full(len(a), -np.inf), L0Band(1, 2)),
    ):
        with pytest.raises(NumericError):
            solve_bruteforce(objective, con, 3)
    # -inf at some rows is a value; an infeasible set stays infeasible
    minus_inf_at_first_on = lambda a: np.where(a[:, 0] == 1.0, -np.inf, a.sum(axis=1))
    best, value = solve_bruteforce(minus_inf_at_first_on, None, 3)
    assert best.tolist() == [0.0, 1.0, 1.0] and value == 2.0
    with pytest.raises(InfeasibleError):
        solve_bruteforce(lambda a: np.full(len(a), np.nan), TuRows([[1.0, 1.0]], [-1.0]), 2)


def _enumerator_constraints(kind, m):
    """One constraint set of each kind for width m.  The TU rows are intervals
    and negated intervals (totally unimodular): an ON cap, a binding lower
    count, a cap on the first half, a negative right-hand side demanding an
    ON unit in the second half, and at most one of the first two entries,
    which empties the blocks whose prefix has both ON (4 of 16 at m = 20)."""
    if kind == "none":
        return None
    if kind == "l0":
        return L0Band(m // 4, (m + 1) // 2)
    if kind == "tu":
        first, second, pair = np.zeros(m), np.zeros(m), np.zeros(m)
        first[: m // 2] = 1.0
        second[m // 2 :] = 1.0
        pair[:2] = 1.0
        rows = np.vstack([np.ones(m), -np.ones(m), first, -second, pair])
        return TuRows(rows, [(m + 1) // 2, -(m // 3), 1 + m // 4, -1, 1])
    if kind == "knapsack":
        return Knapsack(1.0 + np.arange(m) % 4, 1.5 * m)
    rng = np.random.default_rng(m)
    return ExplicitSet(tuple(rng.integers(0, 2, size=m) for _ in range(6)) + ((1.0,) * m,))


@pytest.mark.parametrize("kind", ["none", "l0", "tu", "knapsack", "explicit"])
@pytest.mark.parametrize("m", [1, 5, 16, 17, 20])
def test_enumerator_blocks_are_the_masked_table(m, kind):
    # Block by block against the masked table, read 2^16 codes at a time
    # so that m = 20 never holds the full table: the concatenation is
    # byte-equal to binary_rows(0, 2**m, m)[feasible_mask(con, ...)] and the
    # block boundaries are the 2^16-code boundaries.
    con = _enumerator_constraints(kind, m)
    total = 1 << m
    starts = range(0, total, 1 << 16)
    table = (binary_rows(start, min(start + (1 << 16), total), m) for start in starts)
    expected = (A if con is None else A[feasible_mask(con, A)] for A in table)
    pairs = itertools.zip_longest((A for A in expected if A.shape[0]), binary_chunks(m, con))
    count = 0
    for want, got in pairs:
        assert want is not None and got is not None
        assert got.dtype == np.float64 and got.flags.c_contiguous
        assert got.tobytes() == want.tobytes() and got.shape == want.shape
        count += got.shape[0]
    assert count > 0


def test_bruteforce_tie_across_blocks_prefers_the_smaller_row():
    # m = 17: (0, ..., 0, 1) is code 1 in block 0 and (1, 0, ..., 0) is code
    # 2^16 in block 1; both are the maximum.  A later block replaces the
    # best only with a strictly larger value.
    m = 17

    def objective(a):
        return a[..., 0] + a[..., -1] - 2.0 * a[..., 0] * a[..., -1] - a[..., 1:-1].sum(axis=-1)

    low, high = np.eye(m)[-1], np.eye(m)[0]
    assert objective(low) == objective(high) == 1.0
    for con in (None, L0Band(1, 1), TuRows(np.ones((1, m)), [1.0])):
        best, val = solve_bruteforce(objective, con, m)
        assert np.array_equal(best, low) and val == 1.0
        # Raising the later block's maximizer moves the pick there.
        lifted, _ = solve_bruteforce(lambda a: objective(a) + 1e-9 * a[..., 0], con, m)
        assert np.array_equal(lifted, high)


@pytest.mark.parametrize("m", [17, 20])
def test_bruteforce_infeasible_over_every_block(m):
    never = np.zeros(m)
    for con in (
        TuRows(np.vstack([np.ones(m), -np.ones(m)]), [m // 2, -(m // 2) - 1]),
        TuRows(np.ones((1, m)), [-1.0]),
        L0Band(m + 1, m + 1),
    ):
        assert next(binary_chunks(m, con), None) is None
        with pytest.raises(InfeasibleError):
            solve_bruteforce(lambda a: a @ never, con, m)


@pytest.mark.parametrize("vectors", [((0.5, 1.0),), ((0.0, 1.0), (1.0, 0.0, 1.0)), ((2.0, 0.0),)])
def test_explicit_set_rejects_non_binary_and_ragged_vectors(vectors):
    with pytest.raises(ConstraintError):
        ExplicitSet(vectors)


def test_explicit_set_admits_only_its_own_vectors():
    admissible = ExplicitSet(((0.0, 1.0),))
    assert is_feasible(admissible, (0.0, 1.0)) and is_feasible(admissible, (-0.0, 1.0))
    assert not is_feasible(admissible, (0.5, 1.0))
    assert not is_feasible(admissible, (0.0, 1.0, 0.0))


def test_explicit_enumeration_yields_its_vectors_without_the_table(monkeypatch):
    # m = 20: the set's distinct vectors in code order, one block per
    # 2^16-code block they fall in, and no 2^16-row table is built.
    def refuse(*_args):
        raise AssertionError("the explicit enumeration built a table")

    monkeypatch.setattr(solvers, "_suffix_table", refuse)
    monkeypatch.setattr(solvers, "binary_rows", refuse)
    m = 20
    top, low, last = np.eye(m)[0], np.eye(m)[-1], np.eye(m)[m - 17]
    admissible = ExplicitSet((top, low, top, np.zeros(m), last))
    blocks = list(binary_chunks(m, admissible))
    assert [b.tolist() for b in blocks] == [[np.zeros(m).tolist(), low.tolist()], [last.tolist()], [top.tolist()]]
    assert all(b.dtype == np.float64 and b.flags.c_contiguous for b in blocks)
    assert list(binary_chunks(m + 1, admissible)) == []
    best, val = solve_bruteforce(lambda a: a @ np.arange(m), admissible, m)
    assert np.array_equal(best, low) and val == m - 1


# ---------------------------------------------------------------------------
# greedy


def test_greedy_modular_equals_one_shot():
    rng = np.random.default_rng(13)
    for _ in range(20):
        m = int(rng.integers(2, 10))
        g = rng.standard_normal(m)
        k_min = int(rng.integers(0, m + 1))
        k_max = int(rng.integers(k_min, m + 1))
        greedy = solve_greedy(lambda a: a @ g, L0Band(k_min, k_max), m)
        one_shot = solve_l0(_grad(g), k_min, k_max)
        assert abs(float(g @ greedy) - float(g @ one_shot)) < 1e-12


def test_greedy_no_positive_increment_stays_zero():
    got = solve_greedy(lambda a: -a.sum(axis=-1), L0Band(0, 3), 3)
    assert np.array_equal(got, [0, 0, 0])


@pytest.mark.parametrize("seed", range(10))
def test_greedy_coverage_bound(seed):
    # Weighted coverage: monotone submodular, so greedy earns at least
    # (1 - 1/e) of the exhaustive optimum under a cardinality cap.
    rng = np.random.default_rng(800 + seed)
    m = int(rng.integers(4, 12))
    universe = 12
    covers = rng.integers(0, 2, (m, universe)).astype(bool)
    weights = rng.uniform(0.1, 1.0, universe)
    k = int(rng.integers(1, m))

    def coverage(a):
        covered = (np.asarray(a, dtype=bool)[..., :, None] & covers).any(axis=-2)
        return covered @ weights

    greedy = solve_greedy(coverage, L0Band(0, k), m)
    _, opt = solve_bruteforce(coverage, L0Band(0, k), m)
    assert coverage(greedy) >= (1.0 - 1.0 / np.e) * opt - 1e-9


@pytest.mark.parametrize("kind", ["none", "tu"])
def test_enumerator_blocks_share_one_buffer(kind):
    # m = 20: every block is written into the same buffer, so a block is
    # valid only until the next one is yielded.
    con = _enumerator_constraints(kind, 20)
    blocks = binary_chunks(20, con)
    first = next(blocks)
    second = next(blocks)
    assert np.shares_memory(first, second)


@pytest.mark.parametrize("rhs", [(-5e9, 5e9), (5e9, -5e9), (5e9, 5e9), (24000.0, 5e9), (5e9, -3000.0)])
def test_enumerator_narrow_sums_clip_the_slack(rhs):
    # Entries of 3000 over the low 16 columns sum past the int16 range, so
    # the cached sums are int32; right-hand sides beyond the int32 range on
    # either side clip to it and still give the masked table, block by block.
    m = 17
    signs = np.where(np.arange(m) % 3 == 0, -1.0, 1.0)
    con = TuRows(3000.0 * np.vstack([np.ones(m), signs]), rhs)
    solvers._suffix_sums.cache_clear()
    table = (binary_rows(start, start + (1 << 16), m) for start in (0, 1 << 16))
    expected = [A[feasible_mask(con, A)] for A in table]
    got = [block.tobytes() for block in binary_chunks(m, con)]  # one buffer: copy each
    assert got == [A.tobytes() for A in expected if A.shape[0]]
    sums = solvers._suffix_sums(m, con.rows.shape, con.rows.tobytes())
    assert sums.dtype == np.int32 and not sums.flags.writeable


def test_enumerator_sums_are_cached_once_per_row_matrix():
    # The slots of a horizon share the row matrix and change only rhs: two
    # calls with equal rows build the sums once, in the narrowest type.
    m = 20
    rows, rhs = exclusion_budget_rows(m)
    solvers._suffix_sums.cache_clear()
    for budget in (4.0, 5.0):
        feasible_rhs = rhs.copy()
        feasible_rhs[-1] = budget
        assert sum(b.shape[0] for b in binary_chunks(m, TuRows(rows.copy(), feasible_rhs))) > 0
    info = solvers._suffix_sums.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    sums = solvers._suffix_sums(m, rows.shape, rows.tobytes())
    assert sums.dtype == np.int8 and not sums.flags.writeable
    with pytest.raises(ValueError):
        sums[0, 0] = 0


def test_enumerator_refuses_sums_beyond_int32():
    con = TuRows(np.full((1, 17), float(1 << 28)), [0.0])
    with pytest.raises(ConstraintError, match="int32"):
        next(binary_chunks(17, con))


@pytest.mark.parametrize("start, stop, m", [(0, 32, 5), (0, 1 << 9, 9), ((1 << 16) - 3, (1 << 16) + 3, 17), ((1 << 40) - 2, 1 << 40, 41)])
def test_binary_rows_are_the_codes_bits(start, stop, m):
    # Against Python's own bit reading: entry j of code c is bit m - 1 - j,
    # whatever integer type the extraction runs in.
    want = [[(code >> (m - 1 - j)) & 1 for j in range(m)] for code in range(start, stop)]
    got = binary_rows(start, stop, m)
    assert got.dtype == np.float64 and got.tolist() == want
