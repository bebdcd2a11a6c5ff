"""End-to-end acceptance checks, one test per numbered criterion.

Everything here is exact integer or rational arithmetic, so every
comparison is strict equality; there are no numeric tolerances.  Each
test registers a one-line verdict that pytest prints in a summary
block at the end of the run.
"""

from __future__ import annotations

import random

import pytest
from conftest import record_criterion

import motzkinrank as mr
from motzkinrank import intpoly, published
from motzkinrank.recurrence import shift_left_multiply

ALL_ONES = {r: mr.WeightSpec.all_ones(r) for r in (1, 2, 3, 4)}


@pytest.fixture(scope="module")
def r3_series_120():
    return mr.solve_series(ALL_ONES[3], 120, symmetric=True)[0, 0]


@pytest.fixture(scope="module")
def r4_series_170():
    # 170 terms: enough to determine the 153-coefficient y-degree-16
    # ansatz with the default guard (needs at least 161).
    return mr.solve_series(ALL_ONES[4], 170, symmetric=True)[0, 0]


@pytest.fixture(scope="module")
def series60(r3_series_120, r4_series_170):
    return {
        1: mr.generating_series(ALL_ONES[1], 60),
        2: mr.solve_series(ALL_ONES[2], 60, symmetric=True)[0, 0],
        3: r3_series_120.truncate(60),
        4: r4_series_170.truncate(60),
    }


def test_c1_table_reproduction(series60):
    bad = []
    for rank in (2, 3, 4):
        want = list(published.TABLES[rank])
        dp = mr.count_sequence(ALL_ONES[rank], 10)[1:]
        ser = list(series60[rank].coeffs[1:11])
        if dp != want:
            bad.append(f"rank {rank} dp")
        if ser != want:
            bad.append(f"rank {rank} series")
    ok = record_criterion(
        "C1", "dp and series solver reproduce the rank 2..4 tables for n = 1..10", not bad
    )
    assert ok, f"mismatches: {bad}"


def test_c2_reference_equations_verify(series60):
    failed = []
    for rank in (1, 2, 3, 4):
        for k, eq in enumerate(mr.reference_equations(rank)):
            if not mr.verify_algebraic_equation(eq, series60[rank]):
                failed.append((rank, k))
    one_plus_xy = mr.AlgebraicEquation(((1,), (0, 1)))
    square = mr.multiply_equations(one_plus_xy, one_plus_xy)
    sextic, quartic = mr.reference_equations(2)
    factor_ok = mr.multiply_equations(square, quartic).normalized() == sextic.normalized()
    ok = record_criterion(
        "C2",
        "reference equations annihilate the series mod x^60; sextic = (1+xy)^2 * quartic",
        not failed and factor_ok,
    )
    assert not failed, f"equations with nonzero residual: {failed}"
    assert factor_ok
    assert ok


def test_c3_equation_rediscovery(series60, r3_series_120, r4_series_170):
    rep1 = mr.guess_algebraic_equation(series60[1], max_y_degree=2)
    ok1 = rep1.found and rep1.equation.normalized() == mr.reference_equation(1).normalized()

    quartic = mr.reference_equations(2)[-1]
    rep2 = mr.guess_algebraic_equation(series60[2], max_y_degree=4)
    ok2 = rep2.found and rep2.equation.normalized() == quartic.normalized()

    rep3 = mr.guess_algebraic_equation(series60[3], max_y_degree=8)
    ok3 = (
        rep3.found
        and mr.verify_algebraic_equation(rep3.equation, r3_series_120, order=120)
        and mr.check_shape_conjecture(rep3.equation, 3)
    )

    # 60 terms leave the rank-4 ansatz underdetermined (up to 153
    # unknowns), so the guess honestly reports nothing there; the
    # 170-term series is the smallest round fixture that pins it.
    rep4 = mr.guess_algebraic_equation(r4_series_170, max_y_degree=16)
    ok4 = (
        rep4.found
        and mr.verify_algebraic_equation(rep4.equation, r4_series_170, order=120)
        and mr.check_shape_conjecture(rep4.equation, 4)
    )

    ok = record_criterion(
        "C3",
        "guessing recovers the rank-1 quadratic and rank-2 quartic exactly; "
        "ranks 3 and 4 verify at order 120 and match the shape conjecture",
        ok1 and ok2 and ok3 and ok4,
    )
    assert ok1, "rank-1 guess did not return the reference quadratic"
    assert ok2, "rank-2 guess did not return the reference quartic"
    assert ok3, "rank-3 guess failed verification or shape check"
    assert ok4, "rank-4 guess failed verification or shape check"
    assert ok


def test_c4_recurrence_rediscovery():
    # The seven-term relation P is genuinely satisfied by the sequence,
    # and extending from six seeds reproduces the dp values.  It is not
    # the smallest relation: the guesser, scanning (order, degree) cells
    # in the mandated order, first finds a verified order-5 degree-4
    # relation Q, and P is a left multiple of it:
    #     (n + 5) * P = (S + 5) * Q     (S the shift m_n -> m_{n+1}).
    # Q holds for every n, not only on the terms it was fitted to:
    # P annihilates the sequence, so (S + 5)(Q m) = 0, hence
    # (Q m)(n) = c * (-5)^n for a constant c, and (Q m)(0) = 0 gives
    # c = 0.  So the (<= 5, <= 5) scan hits exactly (5, 4) and (5, 5):
    # no relation of order <= 4 and none at order 5 with degree <= 3.
    terms = mr.count_sequence(ALL_ONES[2], 119)
    embedded = mr.prodinger_recurrence()
    assert mr.verify_recurrence(embedded, terms)

    guessed = mr.guess_recurrence(terms, max_order=6, max_degree=4)
    guess_ok = (
        guessed is not None
        and (guessed.order, guessed.degree) == (5, 4)
        and mr.verify_recurrence(guessed, terms)
    )
    certificate_ok = guess_ok and tuple(
        intpoly.mul((5, 1), p) for p in embedded.coeff_polys
    ) == shift_left_multiply(5, guessed.coeff_polys)

    scan = mr.minimality_scan(terms, max_order=5, max_degree=5)
    scan_ok = scan.hits == ((5, 4), (5, 5)) and scan.frontier == ((5, 4),)

    extension = mr.apply_recurrence(embedded, terms[: embedded.order], 101)
    extend_ok = extension == terms[:101]

    record_criterion(
        "C4",
        "guess on 120 terms is a verified order-5 degree-4 Q with "
        "(n+5)*P = (S+5)*Q for the 7-term P, the (<=5, <=5) scan hits "
        "exactly (5,4) and (5,5) with frontier (5,4), and extension to "
        "n = 100 matches dp",
        guess_ok and certificate_ok and scan_ok and extend_ok,
    )
    assert extend_ok, "extension from the 7-term relation diverged from dp"
    assert guess_ok, f"guess did not return a verified (5, 4) relation: {guessed}"
    assert certificate_ok, "(n+5)*P != (S+5)*Q for the guessed order-5 Q"
    assert scan_ok, (
        f"scan hits {scan.hits} with frontier {scan.frontier}, "
        "expected ((5, 4), (5, 5)) with frontier ((5, 4),)"
    )


def test_c5_rank1_collapse_identity():
    rng = random.Random(104184)
    bad = None
    for _ in range(50):
        u, l, d = (rng.randint(1, 5) for _ in range(3))
        full = mr.count_sequence(mr.WeightSpec.rank1(u, l, d), 30)
        collapsed = mr.count_sequence(mr.WeightSpec.rank1(1, l, u * d), 30)
        explicit = [mr.rank1_explicit(u, l, d, n) for n in range(31)]
        if not (full == collapsed == explicit):
            bad = (u, l, d)
            break
    ok = record_criterion(
        "C5",
        "50 random specs, n <= 30: dp(u,l,d) = dp(1,l,ud) = explicit formula",
        bad is None,
    )
    assert ok, f"identity failed for spec {bad}"


def test_c6_bijection_sweep():
    # u*d <= 9 bounds the color pairs; the level weight is free in the
    # statement, so sweep the representative values 0, 1, 2 (0 covers
    # the Dyck edge case).
    bad = []
    total = 0
    for u in range(1, 10):
        for d in range(1, 10):
            if u * d > 9:
                continue
            for level in (0, 1, 2):
                for n in range(9):
                    report = mr.recoloring_report(u, level, d, n)
                    total += report.domain_size
                    if not report.is_bijection:
                        bad.append((u, level, d, n))
    ok = record_criterion(
        "C6",
        f"recoloring is a bijection for all u*d <= 9, level in 0..2, "
        f"n <= 8 ({total} paths checked)",
        not bad,
    )
    assert ok, f"bijection failed for (u, level, d, n) in {bad}"


def test_c7_general_weight_sextic():
    rng = random.Random(40)
    failures = []
    for _ in range(20):
        u1 = rng.randint(1, 4)
        u2, l, d1, d2 = (rng.randint(0, 4) for _ in range(4))
        if not mr.rank2_general_equation_check(u1, u2, l, d1, d2, order=40):
            failures.append((u1, u2, l, d1, d2))
    degen_ok = mr.rank2_general_equation_check(3, 0, 2, 4, 0, order=40)
    # with u2 = d2 = 0 the sextic must collapse to the rank-1 quadratic
    quadratic = mr.AlgebraicEquation(((1,), (-1, 2), (0, 0, 12)))
    degen_ok = (
        degen_ok
        and mr.rank2_general_sextic(3, 0, 2, 4, 0).normalized() == quadratic.normalized()
    )
    ok = record_criterion(
        "C7",
        "general-weight sextic verified for 20 random specs at order 40, "
        "including the u2 = d2 = 0 degeneration",
        not failures and degen_ok,
    )
    assert not failures, f"sextic check failed for {failures}"
    assert degen_ok, "u2 = d2 = 0 did not collapse to the rank-1 quadratic"
    assert ok


def test_c8_degeneracy_and_symmetry():
    catalan = [1, 1, 2, 5, 14, 42, 132]
    dyck = mr.count_sequence(mr.WeightSpec.rank1(1, 0, 1), 12)
    want = []
    for c in catalan:
        want.extend([c, 0])
    dyck_ok = dyck == want[:13]

    sym_ok = True
    for rank in (2, 3, 4):
        family = mr.solve_series(ALL_ONES[rank], 30)
        for s in range(rank):
            for t in range(rank):
                if family[s, t] != family[t, s]:
                    sym_ok = False

    cat = mr.catalan_series(30)
    one = mr.CoeffSeries([1], order=30)
    y = mr.CoeffSeries([0, 1], order=30)
    residual = one - cat + y * cat * cat
    cat_ok = not any(residual.coeffs)

    ok = record_criterion(
        "C8",
        "Dyck collapse at l = 0, B[s,t] = B[t,s] to order 30, and "
        "1 - C + xC^2 = 0",
        dyck_ok and sym_ok and cat_ok,
    )
    assert dyck_ok, f"l = 0 did not give aerated Catalan numbers: {dyck}"
    assert sym_ok, "family symmetry B[s,t] = B[t,s] failed"
    assert cat_ok, "Catalan series does not satisfy its quadratic"
    assert ok
