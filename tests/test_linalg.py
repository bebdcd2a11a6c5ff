"""Exact integer nullspace computation, modular and fraction-free routes."""

import random

import pytest
from conftest import entrywise_packed_echelon
from hypothesis import given, settings
from hypothesis import strategies as st

import motzkinrank as mr
from motzkinrank import SelfCheckFailed, backend, linalg
from motzkinrank.linalg import (
    PRIME,
    PrefixNullspaces,
    canonical_basis,
    exact_nullspace,
    is_nullvector,
    nullspace_basis,
)


def random_matrix(rng, m, n, bound):
    return [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(m)]


def rank_of(rows, n):
    # rational Gauss, good enough as an independent rank oracle
    from fractions import Fraction

    work = [[Fraction(v) for v in row] for row in rows]
    r = 0
    for col in range(n):
        piv = next((i for i in range(r, len(work)) if work[i][col]), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        for i in range(len(work)):
            if i != r and work[i][col]:
                f = work[i][col] / work[r][col]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        r += 1
    return r


def test_known_kernel():
    rows = [[1, 2, 3], [2, 4, 6]]
    basis = nullspace_basis(rows)
    assert len(basis) == 2
    for v in basis:
        assert is_nullvector(rows, v)
        assert any(v)


def test_full_rank_has_trivial_kernel():
    rows = [[2, 0, 0], [0, 3, 0], [0, 0, 5]]
    assert nullspace_basis(rows) == []
    assert nullspace_basis(rows, max_vectors=1) == []


def test_zero_matrix():
    rows = [[0, 0, 0, 0]]
    basis = nullspace_basis(rows)
    assert len(basis) == 4
    for v in basis:
        assert is_nullvector(rows, v)


def test_modular_and_exact_routes_agree():
    rng = random.Random(61)
    for trial in range(25):
        m = rng.randint(1, 6)
        n = rng.randint(1, 6)
        rows = random_matrix(rng, m, n, 50)
        fast = nullspace_basis(rows)
        slow = exact_nullspace(rows)
        assert len(fast) == len(slow) == n - rank_of(rows, n), (trial, rows)
        for v in fast + slow:
            assert is_nullvector(rows, v)


def test_huge_entries_lift_from_one_prime():
    rng = random.Random(7)
    rows = random_matrix(rng, 4, 6, 10**40)
    fast = nullspace_basis(rows)
    slow = exact_nullspace(rows)
    assert len(fast) == len(slow) == 2
    for v in fast + slow:
        assert is_nullvector(rows, v)


def test_max_vectors_cap():
    rows = [[0, 0, 0]]
    assert len(nullspace_basis(rows, max_vectors=1)) == 1
    assert len(nullspace_basis(rows, max_vectors=2)) == 2


def test_nullvector_returns_single_verified_vector():
    rows = [[1, 1, -2], [3, 3, -6]]
    basis = nullspace_basis(rows, max_vectors=1)
    assert len(basis) == 1
    assert is_nullvector(rows, basis[0])
    assert is_nullvector(rows, exact_nullspace(rows, max_vectors=1)[0])


def test_wide_and_tall_shapes():
    wide = [[1, 2, 3, 4, 5]]
    basis = nullspace_basis(wide)
    assert len(basis) == 4
    tall = [[1], [2], [3]]
    assert nullspace_basis(tall) == []


@pytest.mark.parametrize("rows", [[[1, 2, 3], [2, 4]], [[1, 2], [2, 4, 6]]])
@pytest.mark.parametrize("route", [nullspace_basis, PrefixNullspaces, exact_nullspace])
def test_ragged_rows_are_a_value_error(route, rows):
    with pytest.raises(ValueError, match="row 1 has"):
        route(rows)


def test_one_elimination_at_prime_lifts_720_bit_nullvector(monkeypatch):
    # 2 x 3 with 360-bit entries: the nullvector's entries are 2 x 2
    # minors of about 720 bits, far beyond one 61-bit prime; the p-adic
    # lift gets there from one elimination at PRIME, without Bareiss.
    rng = random.Random(2024)
    rows = random_matrix(rng, 2, 3, 2**360)
    exact = exact_nullspace(rows)
    assert len(exact) == 1 and max(abs(x) for x in exact[0]).bit_length() > 700

    def no_bareiss(rows):
        raise AssertionError("the modular route fell back to Bareiss")

    calls = []
    echelon = backend.modp_echelon
    monkeypatch.setattr(backend, "bareiss_echelon", no_bareiss)
    monkeypatch.setattr(
        backend, "modp_echelon", lambda rows, p: calls.append(p) or echelon(rows, p)
    )
    assert nullspace_basis(rows) == exact
    assert calls == [PRIME]


def _count_routes(monkeypatch):
    # (prime, width) of each modular elimination, width of each Bareiss one
    modular, exact = [], []
    echelon, bareiss = backend.packed_echelon, backend.bareiss_echelon
    monkeypatch.setattr(
        backend,
        "packed_echelon",
        lambda packed, rows, p: modular.append((p, len(rows[0]))) or echelon(packed, rows, p),
    )
    monkeypatch.setattr(
        backend, "bareiss_echelon", lambda rows: exact.append(len(rows[0])) or bareiss(rows)
    )
    return modular, exact


def test_unlucky_prime_hands_the_system_to_the_exact_route(monkeypatch):
    # The second row's middle entry vanishes mod PRIME, which therefore
    # sees pivots [0, 2] instead of [0, 1]; the lift of free column 1
    # cannot verify, and the exact route answers.
    rows = [[1, 0, 1], [0, PRIME, 1]]
    exact = exact_nullspace(rows)
    assert exact == [[PRIME, 1, -PRIME]]
    modular, bareiss = _count_routes(monkeypatch)
    assert nullspace_basis(rows) == exact
    assert modular == [(PRIME, 3)]
    assert bareiss == [3]


def test_prime_unlucky_in_one_prefix_is_left_for_the_wider_ones(monkeypatch):
    # Column 1 vanishes mod PRIME but not over Q.  Width 2 shows it up
    # (its lift cannot verify): the narrower widths keep the prime, and
    # width 2 and every wider one go to the exact route, so every width
    # keeps the exact route's canonical basis.
    rows = [[1, 0, 1, 1, 0], [0, PRIME, 1, 0, 1], [1, PRIME, 2, 1, 1]]
    exact = [exact_nullspace([row[:w] for row in rows]) for w in range(6)]
    modular, bareiss = _count_routes(monkeypatch)
    lifted = []
    lift = PrefixNullspaces._lift
    monkeypatch.setattr(PrefixNullspaces, "_lift", lambda self, f: lifted.append(f) or lift(self, f))
    system = PrefixNullspaces(rows)
    assert [system.basis(w) for w in range(6)] == exact
    assert modular == [(PRIME, 5)]
    assert bareiss == [2, 3, 4, 5]
    # The failed column is lifted once; narrower widths asked again
    # still come from the prime.
    assert [system.basis(w) for w in (1, 0)] == [exact[1], exact[0]]
    assert lifted == [1] and bareiss == [2, 3, 4, 5]


def test_failed_exact_check_is_a_typed_error(monkeypatch):
    # With every candidate rejected, the modular route lifts until the
    # Hadamard bound, falls back to Bareiss, and the exact route's own
    # check fails as a MotzkinError.
    monkeypatch.setattr(linalg, "is_nullvector", lambda rows, v: False)
    bareiss = []
    echelon = backend.bareiss_echelon
    monkeypatch.setattr(
        backend, "bareiss_echelon", lambda rows: bareiss.append(1) or echelon(rows)
    )
    with pytest.raises(SelfCheckFailed):
        nullspace_basis([[1, 2, 3], [4, 5, 6]])
    assert bareiss == [1]
    with pytest.raises(SelfCheckFailed):
        exact_nullspace([[1, 2, 3]])


@st.composite
def _prefix_systems(draw):
    # Products of random factors: rank-deficient whenever the inner
    # dimension is below both sides, with entries up to about 2**400;
    # some columns are then zeroed.
    m = draw(st.integers(1, 6))
    n = draw(st.integers(1, 7))
    k = draw(st.integers(0, min(m, n)))
    big = st.integers(-(2**200), 2**200)
    left = [[draw(big) for _ in range(k)] for _ in range(m)]
    right = [[draw(big) for _ in range(n)] for _ in range(k)]
    zero = draw(st.sets(st.integers(0, n - 1), max_size=n))
    return [
        [0 if j in zero else sum(row[t] * right[t][j] for t in range(k)) for j in range(n)]
        for row in left
    ]


@settings(max_examples=80, deadline=None)
@given(_prefix_systems())
def test_every_prefix_matches_the_exact_route(rows):
    system = PrefixNullspaces(rows)
    for w in range(1, len(rows[0]) + 1):
        exact = exact_nullspace([row[:w] for row in rows])
        assert system.full_rank(w) == (exact == [])
        assert system.basis(w, max_vectors=1) == exact[:1]
        assert system.basis(w) == exact


def test_canonical_basis_reads_a_span_in_another_column_order():
    rng = random.Random(5)
    for _ in range(30):
        m, n = rng.randint(1, 4), rng.randint(2, 7)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        rows.append([x + y for x, y in zip(rows[0], rows[-1])])
        perm = rng.sample(range(n), n)
        basis = nullspace_basis(rows)
        moved = [[v[c] for c in perm] for v in basis]
        assert canonical_basis(moved) == exact_nullspace([[row[c] for c in perm] for row in rows])
        assert canonical_basis(moved, 1) == canonical_basis(moved)[:1]


def _count_eliminations(monkeypatch):
    calls = []
    echelon = backend.packed_echelon
    monkeypatch.setattr(
        backend,
        "packed_echelon",
        lambda packed, rows, p: calls.append(len(rows[0])) or echelon(packed, rows, p),
    )
    monkeypatch.setattr(backend, "bareiss_echelon", None)
    return calls


def test_minimality_scan_eliminates_once_per_order(monkeypatch):
    terms = mr.count_sequence(mr.WeightSpec.all_ones(2), 119)
    calls = _count_eliminations(monkeypatch)
    report = mr.minimality_scan(terms, max_order=5, max_degree=5)
    assert report.hits == ((5, 4), (5, 5))
    assert calls == [6 * (k + 1) for k in range(1, 6)]


def test_rank4_equation_guess_eliminates_once(monkeypatch):
    # Every y-degree below 16 is a full-rank prefix of the y-degree-16
    # ansatz, so the one elimination certifies them all.
    series = mr.CoeffSeries(mr.count_sequence(mr.WeightSpec.all_ones(4), 169))
    calls = _count_eliminations(monkeypatch)
    report = mr.guess_algebraic_equation(series, 16)
    assert report.found and report.equation.y_degree == 16
    assert mr.check_shape_conjecture(report.equation, 4)
    assert calls == [153]


def test_guessers_match_with_the_entrywise_kernel(monkeypatch):
    # Both guessers give the same answers with the packed kernel and with
    # the entry-by-entry oracle in its place.
    def guesses():
        recs = [
            mr.guess_recurrence(mr.count_sequence(mr.WeightSpec.parse(text), 119), 10, 7)
            for text in ("2,1;1;3,1", "1,2;1;1,2")  # a (10, 7) and a (5, 4) relation
        ]
        series = mr.CoeffSeries(mr.count_sequence(mr.WeightSpec.all_ones(2), 59))
        return [rec.to_json_dict() for rec in recs], mr.guess_algebraic_equation(series, 4)

    packed = guesses()
    monkeypatch.setattr(backend, "packed_echelon", entrywise_packed_echelon)
    assert guesses() == packed
    assert [rec["order"] for rec in packed[0]] == [10, 5] and packed[1].found
