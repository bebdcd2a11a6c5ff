"""The exact kernels in ``motzkinrank.backend``, against independent routes."""

import random
from fractions import Fraction

import pytest

import motzkinrank
from motzkinrank import backend
from motzkinrank.linalg import PRIMES61

def test_backend_selection():
    # Callers and the benchmark's spans look the kernels up on the
    # backend module, so each must be defined there.
    assert backend.BACKEND == motzkinrank.BACKEND == "pure"
    for name in ("conv_trunc", "dp_rows", "modp_echelon", "bareiss_echelon"):
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


@pytest.mark.parametrize("p", [97, PRIMES61[0], PRIMES61[-1]])
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
    p = PRIMES61[0]
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
