"""Polynomial-coefficient recurrences: verify, extend, guess, scan."""

import pytest
from conftest import entrywise_modp_echelon
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import motzkinrank as mr
from motzkinrank import MinimalityReport, Recurrence, backend, intpoly, linalg, recurrence
from motzkinrank.recurrence import shift_left_multiply


@pytest.fixture(scope="module")
def motzkin():
    return mr.count_sequence(mr.WeightSpec.all_ones(1), 60)


@pytest.fixture(scope="module")
def rank2():
    return mr.count_sequence(mr.WeightSpec.all_ones(2), 80)


def test_construction_validation():
    with pytest.raises(ValueError):
        Recurrence(((1, 1),))  # order 0
    with pytest.raises(ValueError):
        Recurrence(((1,), ()))  # zero leading polynomial
    rec = Recurrence(((1,), (0, 0, 0), (2, 1)))
    assert rec.order == 2
    assert rec.degree == 1
    assert rec.coeff_polys == ((1,), (), (2, 1))  # inner zeros trim away


def test_normalized_and_proportional():
    rec = mr.motzkin_recurrence()
    tripled = Recurrence(tuple(tuple(3 * c for c in p) for p in rec.coeff_polys))
    negated = Recurrence(tuple(tuple(-c for c in p) for p in rec.coeff_polys))
    assert tripled.normalized() == rec.normalized()
    assert negated.normalized() == rec.normalized()
    assert rec.content() == 1
    assert tripled.content() == 3
    assert rec.proportional_to(tripled)
    assert not rec.proportional_to(mr.prodinger_recurrence())


def test_str_rendering():
    text = str(mr.motzkin_recurrence())
    assert text == "(-3*n - 3)*m[n] + (-2*n - 5)*m[n+1] + (n + 4)*m[n+2] = 0"
    assert str(Recurrence(((-1,), (0, 2), (3, -1)))) == (
        "-m[n] + (2*n)*m[n+1] + (-n + 3)*m[n+2] = 0"
    )


def test_verify_motzkin(motzkin):
    assert mr.verify_recurrence(mr.motzkin_recurrence(), motzkin)
    corrupted = list(motzkin)
    corrupted[30] += 1
    assert not mr.verify_recurrence(mr.motzkin_recurrence(), corrupted)


def test_verify_rank1_general():
    for u, l, d in ((2, 1, 3), (1, 0, 1), (3, 2, 2)):
        terms = mr.count_sequence(mr.WeightSpec.rank1(u, l, d), 40)
        assert mr.verify_recurrence(mr.rank1_recurrence(u, l, d), terms)


def test_verify_prodinger(rank2):
    assert mr.verify_recurrence(mr.prodinger_recurrence(), rank2)
    assert mr.prodinger_recurrence().order == 6
    assert mr.prodinger_recurrence().degree == 3


def test_apply_extends_dp(motzkin):
    rec = mr.motzkin_recurrence()
    assert mr.apply_recurrence(rec, motzkin[:2], 61) == motzkin
    with pytest.raises(mr.InsufficientTerms):
        mr.apply_recurrence(rec, motzkin[:1], 10)


def test_apply_singular_leading_coefficient():
    # leading polynomial n - 3 vanishes at n = 3
    rec = Recurrence(((1,), (-3, 1)))
    with pytest.raises(mr.SingularLeadingCoefficient) as info:
        mr.apply_recurrence(rec, [6], 10)
    assert info.value.n == 3


def test_apply_non_integral_step():
    rec = Recurrence(((1,), (2,)))  # m[n+1] = -m[n]/2
    with pytest.raises(mr.NonIntegralStep):
        mr.apply_recurrence(rec, [1], 5)
    assert mr.apply_recurrence(rec, [4], 3) == [4, -2, 1]


def test_json_roundtrip():
    rec = mr.prodinger_recurrence()
    data = rec.to_json_dict()
    assert Recurrence.from_json_dict(data) == rec
    data["order"] = 5
    with pytest.raises(ValueError):
        Recurrence.from_json_dict(data)


def test_guess_recovers_motzkin(motzkin):
    rec = mr.guess_recurrence(motzkin, max_order=3, max_degree=2)
    assert rec is not None
    assert rec.order == 2 and rec.degree == 1  # trimmed to the true cell
    assert rec.proportional_to(mr.motzkin_recurrence())
    assert mr.verify_recurrence(rec, motzkin)


def test_guess_returns_none_when_no_relation_fits(motzkin):
    assert mr.guess_recurrence(motzkin[:30], max_order=1, max_degree=1) is None


def test_guess_rank1_general_weights():
    terms = mr.count_sequence(mr.WeightSpec.rank1(2, 1, 3), 60)
    rec = mr.guess_recurrence(terms, max_order=2, max_degree=1)
    assert rec is not None
    assert rec.proportional_to(mr.rank1_recurrence(2, 1, 3))


def test_guess_input_validation(motzkin):
    with pytest.raises(ValueError):
        mr.guess_recurrence(motzkin, max_order=0, max_degree=1)
    with pytest.raises(TypeError):
        mr.guess_recurrence([1.0, 2.0, 3.0], max_order=1, max_degree=0)
    with pytest.raises(mr.InsufficientTerms):
        mr.guess_recurrence(motzkin[:20], max_order=8, max_degree=5)


def test_minimality_scan_motzkin(motzkin):
    report = mr.minimality_scan(motzkin, max_order=3, max_degree=2)
    assert report.hits == ((2, 1), (2, 2), (3, 1), (3, 2))
    assert report.smallest == (2, 1)
    assert report.observed_term_count == 3
    assert report.terms_used == len(motzkin)


def test_minimality_scan_finds_nothing_small(motzkin):
    report = mr.minimality_scan(motzkin, max_order=1, max_degree=2)
    assert report.hits == ()


def test_rank2_shorter_relation_is_genuine(rank2):
    # the guided search over (order + degree, order) finds an order-5
    # degree-4 relation before the classical 7-term one; both verify
    # and both extend the dp sequence correctly
    rec = mr.guess_recurrence(rank2, max_order=6, max_degree=4)
    assert rec is not None
    assert (rec.order, rec.degree) == (5, 4)
    assert mr.verify_recurrence(rec, rank2)
    longer = mr.count_sequence(mr.WeightSpec.all_ones(2), 200)
    assert mr.verify_recurrence(rec, longer)
    assert mr.apply_recurrence(rec, longer[:5], 201) == longer


@settings(max_examples=40, deadline=None)
@given(
    st.integers(-3, 3),
    st.lists(st.lists(st.integers(-5, 5), max_size=4), min_size=2, max_size=4),
    st.lists(st.integers(-50, 50), min_size=12, max_size=12),
)
def test_shift_left_multiply_applies_the_shift_after_the_operator(c, polys, seq):
    # ((S + c) L m)(n) = (L m)(n + 1) + c (L m)(n) for any sequence m
    def apply(ops, n):
        return sum(intpoly.evaluate(p, n) * seq[n + i] for i, p in enumerate(ops))

    product = shift_left_multiply(c, polys)
    for n in range(len(seq) - len(polys)):
        assert apply(product, n) == apply(polys, n + 1) + c * apply(polys, n)


def test_frontier_keeps_the_minimal_hits():
    report = MinimalityReport(
        terms_used=100, max_order=8, max_degree=6, guard=8,
        hits=((2, 5), (3, 3), (3, 4), (4, 3), (5, 1), (5, 2), (6, 1), (7, 0)),
    )
    assert report.frontier == ((2, 5), (3, 3), (5, 1), (7, 0))
    assert MinimalityReport(100, 3, 3, 8, ()).frontier == ()
    assert MinimalityReport(100, 3, 3, 8, ((2, 2),)).frontier == ((2, 2),)


def _solve_cell(terms, k, d, guard, max_candidates=8):
    """Reference for one cell, independent of the order-major scan: the
    cell's own order-major system (all n-powers for m_n, then for
    m_{n+1}, ...) solved by ``nullspace_basis``, and the first of its
    canonical vectors that verifies on all terms."""
    rows_n = len(terms) - k - guard
    if rows_n < (k + 1) * (d + 1):
        return None
    rows = []
    for n in range(rows_n):
        rows.append([terms[n + i] * n**j for i in range(k + 1) for j in range(d + 1)])
    for vec in linalg.nullspace_basis(rows, max_vectors=max_candidates):
        polys = [
            intpoly.trim(vec[i * (d + 1) : (i + 1) * (d + 1)]) for i in range(k + 1)
        ]
        while polys and not polys[-1]:
            polys.pop()
        if len(polys) < 2:
            continue
        rec = Recurrence(tuple(polys))
        if mr.verify_recurrence(rec, terms):
            return rec.normalized()
    return None


def _cell_by_cell(terms, max_order, max_degree, guard=8):
    """The grid solved cell by cell: (guess, hits) as the two scans
    define them, without the shared modular elimination."""
    recs = {
        (k, d): _solve_cell(terms, k, d, guard)
        for k in range(1, max_order + 1)
        for d in range(max_degree + 1)
    }
    hits = tuple(cell for cell, rec in recs.items() if rec is not None)
    first = min(hits, key=lambda kd: (kd[0] + kd[1], kd[0]), default=None)
    return (recs[first] if first else None), hits


@pytest.mark.parametrize(
    "weights, start, end, n_terms, grid",
    [("1,3;0;1,0", 1, 2, 75, (5, 4)), ("1,0;2;1,3", 2, 1, 54, (6, 4))],
)
def test_nullity_two_cells_keep_their_own_candidates(weights, start, end, n_terms, grid):
    # The first hit cell has a nullspace of dimension >= 2, whose
    # canonical vectors differ between the scan's degree-major columns
    # and the cell's own order-major ones; the guess must be the
    # order-major one, as when each cell is solved on its own.
    terms = mr.count_sequence(mr.WeightSpec.parse(weights), n_terms - 1, start, end)
    guess, hits = _cell_by_cell(terms, *grid)
    k, d = min(hits, key=lambda kd: (kd[0] + kd[1], kd[0]))
    rows = [
        [terms[n + i] * n**j for j in range(d + 1) for i in range(k + 1)]
        for n in range(len(terms) - k - 8)
    ]
    assert len(linalg.nullspace_basis(rows)) >= 2
    assert mr.guess_recurrence(terms, *grid) == guess
    assert mr.minimality_scan(terms, *grid).hits == hits


@st.composite
def _rank_le_2_specs(draw):
    rank = draw(st.integers(1, 2))
    weights = st.lists(st.integers(0, 3), min_size=rank, max_size=rank)
    return mr.WeightSpec(tuple(draw(weights)), draw(st.integers(0, 3)), tuple(draw(weights)))


@st.composite
def _recurrence_cases(draw):
    spec = draw(_rank_le_2_specs())
    start = draw(st.integers(0, spec.rank))
    end = draw(st.integers(0, spec.rank))
    n_terms = draw(st.integers(40, 90))
    return spec, start, end, n_terms, draw(st.integers(1, 6)), draw(st.integers(0, 5))


@settings(max_examples=60, deadline=None)
@given(_recurrence_cases())
def test_order_major_scan_matches_cell_by_cell(case):
    spec, start, end, n_terms, max_order, max_degree = case
    terms = mr.count_sequence(spec, n_terms - 1, start, end)
    try:
        report = mr.minimality_scan(terms, max_order, max_degree)
    except mr.InsufficientTerms:
        assume(False)
    guess, hits = _cell_by_cell(terms, max_order, max_degree)
    assert report.hits == hits
    assert mr.guess_recurrence(terms, max_order, max_degree) == guess


@st.composite
def _order_system_cases(draw):
    # Terms that are zero, small, multiples of p, or up to 400 bits, of
    # either sign; or a rank-1 count sequence times a large factor, whose
    # systems are rank-deficient.  Row counts from 1 to a few past the
    # column count.
    p = draw(st.sampled_from([2, 3, 97, linalg.PRIME]))
    k, d, guard = draw(st.integers(1, 4)), draw(st.integers(0, 4)), draw(st.integers(0, 5))
    size = k + guard + draw(st.integers(1, (k + 1) * (d + 1) + 4))
    if draw(st.booleans()):
        u, l, dn = (draw(st.integers(0, 3)) for _ in range(3))
        scale = draw(st.integers(2**300, 2**350)) * draw(st.sampled_from([1, -1]))
        terms = [scale * t for t in mr.count_sequence(mr.WeightSpec.rank1(u, l, dn), size - 1)]
    else:
        term = st.one_of(
            st.just(0),
            st.integers(-3, 3),
            st.integers(-5, 5).map(lambda m: m * p),
            st.integers(-(2**400), 2**400),
            st.integers(2**399, 2**400).map(lambda t: -t),
        )
        terms = draw(st.lists(term, min_size=size, max_size=size))
    return terms, k, d, guard, p


@settings(max_examples=150, deadline=None)
@given(_order_system_cases())
@example(([0, 0, 0], 1, 2, 0, 97))  # rows n = 0, 1: only the n = 0 row's n^0 block survives
@example(([2**400 - 1, -(2**399), 5, -7, 0, 3, 1, 1], 2, 4, 1, linalg.PRIME))
def test_packed_order_rows_eliminate_like_the_integer_rows(case):
    # Packed from residues and eliminated, an order's system gives the
    # LU of its integer rows bit for bit: pivots, order and every entry,
    # as modp_echelon and the entry-by-entry oracle give it.
    terms, k, d, guard, p = case
    ncols = (k + 1) * (d + 1)
    rows = recurrence._order_rows(terms, k, d, guard)
    assert rows[0][: k + 1] == terms[: k + 1]  # 0^0 = 1
    packed = recurrence._packed_rows(terms, k, d, guard, p)
    s = backend.slot_bits(p, ncols)
    slots = [[x >> (j * s) & ((1 << s) - 1) for j in range(ncols)] for x in packed]
    assert all(v < p * p for row in slots for v in row)
    assert [[v % p for v in row] for row in slots] == [[v % p for v in row] for row in rows]
    lu = [[0] * ncols for _ in packed]
    result = backend.packed_echelon(packed, lu, p)
    by_rows, oracle = [row[:] for row in rows], [row[:] for row in rows]
    assert (result, lu) == (backend.modp_echelon(by_rows, p), by_rows)
    assert (result, lu) == (entrywise_modp_echelon(oracle, p), oracle)


def test_integer_systems_are_built_only_for_orders_that_lift(monkeypatch):
    built = []
    order_rows = recurrence._order_rows
    monkeypatch.setattr(
        recurrence, "_order_rows", lambda terms, k, *rest: built.append(k) or order_rows(terms, k, *rest)
    )
    # C4's grid: orders 1-4 are full rank at every width, so only order 5
    # has a prefix to lift.
    terms = mr.count_sequence(mr.WeightSpec.all_ones(2), 119)
    assert all(recurrence._order_system(terms, k, 5, 8).full_rank(6 * (k + 1)) for k in range(1, 5))
    assert mr.minimality_scan(terms, max_order=5, max_degree=5).hits == ((5, 4), (5, 5))
    assert built == [5]
    built.clear()
    terms = mr.count_sequence(mr.WeightSpec.parse("2,1;1;3,1"), 119)
    assert mr.guess_recurrence(terms, 10, 7).order == 10
    assert built == [10]


@settings(max_examples=20, deadline=None)
@given(_rank_le_2_specs())
@example(mr.WeightSpec((0,), 0, (0,)))  # 1, 0, 0, ...
@example(mr.WeightSpec((0, 2), 1, (3, 0)))
def test_guessed_recurrence_extends_the_counts(spec):
    # Guessed from 120 counts, a relation extends them to the DP's counts
    # up to 240; rank 1 always has one, of order 2 and degree 1.
    counts = mr.count_sequence(spec, 239)
    rec = mr.guess_recurrence(counts[:120], 10, 7)
    if spec.rank == 1:
        assert rec is not None
    if rec is not None:
        assert mr.apply_recurrence(rec, counts[:120], 240) == counts
