"""The exact kernels in ``motzkinrank.backend``, against independent routes."""

import random
from fractions import Fraction

import pytest
from conftest import entrywise_modp_echelon, write_upper
from hypothesis import example, given, settings
from hypothesis import strategies as st

import motzkinrank
from motzkinrank import backend
from motzkinrank.linalg import PRIME

# 2**61 - 465 beside PRIME = 2**61 - 1, and 2**31 + 11, whose fold
# constant 2**32 - p = 2**31 - 11 makes its fold the slowest to converge.
PRIMES = (97, PRIME, 2305843009213693487, 2147483659)


def test_backend_selection():
    # Callers and the benchmark's spans look the kernels up on the
    # backend module, so each must be defined there.
    assert backend.BACKEND == motzkinrank.BACKEND == "pure"
    for name in ("conv_trunc", "dp_rows", "modp_echelon", "packed_echelon", "bareiss_echelon"):
        assert getattr(backend, name).__module__ == "motzkinrank.backend"


def _random_coeffs(rng, length):
    pick = rng.random()
    out = []
    for _ in range(length):
        if rng.random() < 0.3:
            out.append(0)
        elif pick < 0.3:
            out.append(Fraction(rng.randint(-(10**6), 10**6), rng.randint(1, 10**3)))
        else:
            out.append(rng.randint(-(10**30), 10**30))
    return out


def test_conv_trunc_matches_double_sum():
    rng = random.Random(1)
    for _ in range(200):
        a = _random_coeffs(rng, rng.randint(0, 10))
        b = _random_coeffs(rng, rng.randint(0, 10))
        for n in range(len(a) + len(b) + 2):
            naive = [
                sum(a[i] * b[k - i] for i in range(len(a)) if 0 <= k - i < len(b))
                for k in range(n)
            ]
            assert backend.conv_trunc(a, b, n) == naive


def _lu_product(lu, pivots, p):
    """Rows of L * U mod p, read back from modp_echelon's compact output."""
    ncols = len(lu[0])
    upper = []
    for k, c in enumerate(pivots):
        u = [0] * c + [1] + lu[k][c + 1 :]
        for c2 in pivots[k + 1 :]:
            assert u[c2] == lu[k][c2]
        upper.append(u)
    out = []
    for i, row in enumerate(lu):
        mults = [row[c] for c in pivots[: min(i + 1, len(pivots))]]
        for c in range(ncols):
            if c not in pivots[: len(mults)] and (i >= len(pivots) or c < pivots[i]):
                assert row[c] == 0  # nothing left of the pivot but multipliers
        out.append([sum(m * u[j] for m, u in zip(mults, upper)) % p for j in range(ncols)])
    return out


def _random_lu_cases(rng, p, count):
    for _ in range(count):
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        rank = rng.randint(0, min(m, n))
        left = [[rng.randrange(p) for _ in range(rank)] for _ in range(m)]
        right = [[rng.randrange(p) if rng.random() < 0.8 else 0 for _ in range(n)] for _ in range(rank)]
        yield [
            [sum(row[t] * right[t][j] for t in range(rank)) % p for j in range(n)]
            for row in left
        ]


@pytest.mark.parametrize("p", PRIMES)
def test_modp_echelon_factors_its_input(p):
    # The compact output is P A = L U mod p: input row order[i] is the
    # product of row i of L (multipliers, pivot values on the diagonal)
    # with the unit upper rows.
    rng = random.Random(p)
    for rows in _random_lu_cases(rng, p, 40):
        lu = [r[:] for r in rows]
        pivots, order = backend.modp_echelon(lu, p)
        assert sorted(order) == list(range(len(rows)))
        assert pivots == sorted(pivots)
        assert _lu_product(lu, pivots, p) == [rows[i] for i in order]


def _assert_matches_entrywise(rows, p):
    """modp_echelon on rows equals the oracle on their residues: pivots,
    order, every entry, and which input row object ends where."""
    packed = [r[:] for r in rows]
    reference = [r[:] for r in rows]
    packed_ids, reference_ids = list(map(id, packed)), list(map(id, reference))
    result = backend.modp_echelon(packed, p)
    assert result == entrywise_modp_echelon(reference, p)
    assert packed == reference
    # The same from packed_echelon's folded tails, checked and written out.
    lu = [[0] * len(row) for row in rows]
    direct = backend.packed_echelon(backend.pack_residues(rows, p), lu, p)
    assert (write_upper(lu, direct, p), lu) == (result, reference)
    pivots, order = result
    assert [packed_ids[k] for k in order] == list(map(id, packed))
    assert [reference_ids[k] for k in order] == list(map(id, reference))
    return pivots


def _low_rank(rng, p, m, n, rank, density=0.8):
    left = [[rng.randrange(p) for _ in range(rank)] for _ in range(m)]
    right = [[rng.randrange(p) if rng.random() < density else 0 for _ in range(n)] for _ in range(rank)]
    return [[sum(row[t] * right[t][j] for t in range(rank)) % p for j in range(n)] for row in left]


def _dense_full_rank(m, n, p):
    """All p - 1 (that is, -1) except p - 2 on the diagonal: -(J + I) on
    the leading square, of rank min(m, n) while p does not divide
    min(m, n) + 1.  Every entry stays nonzero under elimination, so each
    row takes an update at every pivot above it."""
    return [[p - 2 if i == j else p - 1 for j in range(n)] for i in range(m)]


@pytest.mark.parametrize("p", PRIMES)
def test_modp_echelon_matches_entrywise_loop(p):
    rng = random.Random(p + 1)
    for _ in range(30):  # rank-deficient, some with zero columns or rows
        m, n = rng.randint(1, 12), rng.randint(1, 12)
        rank = rng.randint(0, min(m, n) - 1)
        rows = _low_rank(rng, p, m, n, rank, density=rng.choice((0.3, 0.8, 1)))
        assert len(_assert_matches_entrywise(rows, p)) <= rank
    for m, n in ((8, 100), (20, 130), (130, 101)):  # wide, and tall at 101 columns
        rows = _low_rank(rng, p, m, n, min(m, n, 15))
        assert len(_assert_matches_entrywise(rows, p)) == min(m, n, 15)
    # Dense -1 rows take the most updates, so their slots grow largest;
    # 63 and 64 columns sit on either side of a bit_length step.
    for m, n in ((40, 40), (45, 40), (30, 63), (64, 64), (20, 110)):
        assert len(_assert_matches_entrywise(_dense_full_rank(m, n, p), p)) == min(m, n)
    assert _assert_matches_entrywise([], p) == []
    assert _assert_matches_entrywise([[], []], p) == []


def test_modp_echelon_matches_entrywise_loop_on_a_guess_rec_system():
    # The order-10, degree-7 system guess_recurrence eliminates on 120
    # counts of a rank-2 spec: 102 rows, 88 columns, entries of up to 367 bits.
    terms = motzkinrank.count_sequence(motzkinrank.WeightSpec.parse("1,2;1;1,3"), 119)
    k, degree, guard = 10, 7, 8
    rows = [
        [t * n**e for e in range(degree + 1) for t in terms[n : n + k + 1]]
        for n in range(len(terms) - k - guard)
    ]
    assert (len(rows), len(rows[0])) == (102, 88)
    for p in PRIMES:
        _assert_matches_entrywise(rows, p)


@pytest.mark.parametrize("p", PRIMES)
def test_modp_echelon_reduces_out_of_range_entries(p):
    # Negative entries and entries >= p are packed as v % p, so none can
    # borrow from or carry into a neighbouring slot.
    rng = random.Random(p + 2)
    for _ in range(20):
        m, n = rng.randint(1, 9), rng.randint(1, 9)
        rows = [[v + p * rng.randint(-3, 3) for v in row]
                for row in _low_rank(rng, p, m, n, rng.randint(0, min(m, n)))]
        _assert_matches_entrywise(rows, p)
        _assert_matches_entrywise([[-v for v in row] for row in rows], p)
        _assert_matches_entrywise([[rng.randint(-(10**40), 10**40) for _ in range(n)] for _ in range(m)], p)
    # -1 and p + (p - 1) in every slot: a borrow or carry would show.
    _assert_matches_entrywise([[-1] * 12 for _ in range(12)], p)
    _assert_matches_entrywise([[2 * p - 1 - (i == j) for j in range(30)] for i in range(30)], p)


@st.composite
def _echelon_cases(draw):
    """(rows, p) aimed at the packed kernel's bookkeeping.  Each row is
    zero left of its own start column (all zero when that is n), so the
    pivot search passes over rows; each column is zero, a combination of
    the columns before it (a free column wherever it falls, and its
    slots end as multiples of p, often nonzero ones), or random.
    Entries are then moved out of [0, p) by multiples of p or negated."""
    p = draw(st.sampled_from([2, 3, 97, PRIME, 2147483659]))
    m, n = draw(st.integers(0, 8)), draw(st.integers(1, 8))
    starts = draw(st.lists(st.integers(0, n), min_size=m, max_size=m))
    residue = st.integers(0, p - 1)
    cols = []
    for j in range(n):
        kind = draw(st.sampled_from(("zero", "combination", "random")))
        if kind == "random":
            col = [draw(residue) if j >= s else 0 for s in starts]
        elif kind == "combination" and cols:
            coeffs = draw(st.lists(residue, min_size=len(cols), max_size=len(cols)))
            col = [sum(a * c[i] for a, c in zip(coeffs, cols)) % p for i in range(m)]
        else:
            col = [0] * m
        cols.append(col)
    shifts = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    rows = [[col[i] for col in cols] for i in range(m)]
    rows = [[v + p * k for v, k in zip(row, draw(shifts))] for row in rows]
    if draw(st.booleans()):
        rows = [[-v for v in row] for row in rows]
    return rows, p


@settings(max_examples=150, deadline=None)
@given(_echelon_cases())
@example(([[0, 0, 0], [0, 0, 0], [0, 5, 1], [1, 2, 3]], 97))  # the first pivot three rows down
@example(([[0, 1, 2, 1, 0], [0, 2, 1, 1, 0], [0, 1, 2, 2, 0]], 3))  # leading, interior, trailing free
@example(([[1, 1], [1, 1], [1, 0]], 2))  # a slot that ends at 2 = p, not 0
@example(([[0] * 5 for _ in range(4)], PRIME))  # rank 0
@example(([[-1, PRIME], [PRIME + 2, -PRIME - 1], [0, 0]], PRIME))  # m > n, out of range
def test_modp_echelon_matches_entrywise_loop_property(case):
    rows, p = case
    _assert_matches_entrywise(rows, p)


@st.composite
def _fold_cases(draw):
    """(p, ncols, slots): up to 24 slot values of a packed row at
    slot_bits(p, ncols), anywhere below 2**S, for ncols up to 300."""
    p = draw(st.sampled_from((2, 3) + PRIMES))
    ncols = draw(st.integers(1, 300))
    top = (1 << backend.slot_bits(p, ncols)) - 1
    slot = st.one_of(st.integers(0, top), st.sampled_from((0, p - 1, p, top)))
    return p, ncols, draw(st.lists(slot, min_size=1, max_size=min(ncols, 24)))


@settings(max_examples=150, deadline=None)
@given(_fold_cases())
def test_fold_leaves_slots_congruent_and_below_the_bound(case):
    # Folded as a whole packed row, every slot stays congruent to its
    # input mod p and ends below 2**(p.bit_length() + 1), none carried
    # into the next.
    p, ncols, slots = case
    s = backend.slot_bits(p, ncols)
    folded = backend.folder(p, ncols)(backend.pack(slots, s))
    assert folded >> (len(slots) * s) == 0
    out = backend.unpack(folded, len(slots), s)
    assert [v % p for v in out] == [v % p for v in slots]
    assert max(out) < 2 ** (p.bit_length() + 1)


def _random_small_matrix(rng):
    m, n = rng.randint(1, 6), rng.randint(1, 6)
    if rng.random() < 0.5:
        return [[rng.randint(-50, 50) for _ in range(n)] for _ in range(m)]
    # rank <= 2 with entries still in -50..50
    k = rng.randint(0, 2)
    left = [[rng.randint(-5, 5) for _ in range(k)] for _ in range(m)]
    right = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(k)]
    return [[sum(row[t] * right[t][j] for t in range(k)) for j in range(n)] for row in left]


def test_bareiss_echelon_pivots_match_modular_route():
    # Every minor of a 6 x 6 matrix with entries in -50..50 is at most
    # 6! * 50**6 < p, so the rank profile is the same mod p.
    p = PRIME
    rng = random.Random(4)
    for _ in range(300):
        rows = _random_small_matrix(rng)
        exact = [r[:] for r in rows]
        pivots = backend.bareiss_echelon(exact)
        modular = [[v % p for v in r] for r in rows]
        assert pivots == backend.modp_echelon(modular, p)[0]
        for k, c in enumerate(pivots):
            assert not any(exact[k][:c]) and exact[k][c]
        for row in exact[len(pivots) :]:
            assert not any(row)
        # Exact divisions keep every row in the input's row space.
        for row in exact[: len(pivots)]:
            stacked = [[v % p for v in r] for r in rows + [row]]
            assert len(backend.modp_echelon(stacked, p)[0]) == len(pivots)
