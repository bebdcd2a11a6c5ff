"""Polynomial-coefficient recurrences: verify, extend, guess, scan."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import motzkinrank as mr
from motzkinrank import MinimalityReport, Recurrence, intpoly, linalg
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
def _recurrence_cases(draw):
    rank = draw(st.integers(1, 2))
    weights = st.lists(st.integers(0, 3), min_size=rank, max_size=rank)
    spec = mr.WeightSpec(tuple(draw(weights)), draw(st.integers(0, 3)), tuple(draw(weights)))
    start = draw(st.integers(0, rank))
    end = draw(st.integers(0, rank))
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
