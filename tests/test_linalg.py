"""Exact integer nullspace computation, modular and fraction-free routes."""

import random
import subprocess
import sys
from itertools import islice

import pytest

from motzkinrank import SelfCheckFailed, backend, linalg
from motzkinrank.linalg import (
    PRIMES61,
    is_nullvector,
    nullspace_basis,
    nullvector,
    prime_stream,
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
    assert nullvector(rows) is None


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
        slow = nullspace_basis(rows, force_exact=True)
        assert len(fast) == len(slow) == n - rank_of(rows, n), (trial, rows)
        for v in fast + slow:
            assert is_nullvector(rows, v)


def test_huge_entries_need_many_primes():
    rng = random.Random(7)
    rows = random_matrix(rng, 4, 6, 10**40)
    fast = nullspace_basis(rows)
    slow = nullspace_basis(rows, force_exact=True)
    assert len(fast) == len(slow) == 2
    for v in fast + slow:
        assert is_nullvector(rows, v)


def test_max_vectors_cap():
    rows = [[0, 0, 0]]
    assert len(nullspace_basis(rows, max_vectors=1)) == 1
    assert len(nullspace_basis(rows, max_vectors=2)) == 2


def test_nullvector_returns_single_verified_vector():
    rows = [[1, 1, -2], [3, 3, -6]]
    v = nullvector(rows)
    assert v is not None
    assert is_nullvector(rows, v)
    assert is_nullvector(rows, nullvector(rows, force_exact=True))


def test_wide_and_tall_shapes():
    wide = [[1, 2, 3, 4, 5]]
    basis = nullspace_basis(wide)
    assert len(basis) == 4
    tall = [[1], [2], [3]]
    assert nullspace_basis(tall) == []


def test_modular_route_lifts_past_the_fixed_primes(monkeypatch):
    # 2 x 3 with 360-bit entries: the nullvector's entries are 2 x 2
    # minors of about 720 bits, far beyond what ten 61-bit primes
    # reconstruct, and the modular route must still get there alone.
    rng = random.Random(2024)
    rows = random_matrix(rng, 2, 3, 2**360)
    exact = nullspace_basis(rows, force_exact=True)
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
    assert len(calls) > len(PRIMES61)


def test_unlucky_first_prime_restarts_the_lift(monkeypatch):
    # The second row's middle entry vanishes mod the first prime, which
    # therefore sees pivots [0, 2] instead of [0, 1]; the next prime
    # shows it up, and lifting restarts from there without Bareiss.
    p0 = PRIMES61[0]
    rows = [[1, 0, 1], [0, p0, 1]]
    exact = nullspace_basis(rows, force_exact=True)
    assert exact == [[p0, 1, -p0]]

    def no_bareiss(rows):
        raise AssertionError("the modular route fell back to Bareiss")

    monkeypatch.setattr(backend, "bareiss_echelon", no_bareiss)
    assert nullspace_basis(rows) == exact


def _strong_probable_prime(n, a):
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(a, d, n)
    if x in (0, 1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _is_prime_below_2_64(n):
    # Sinclair's seven bases: a deterministic Miller-Rabin for n < 2**64,
    # independent of the library's bases 2..37.
    if n < 2 or n % 2 == 0:
        return n == 2
    return all(
        _strong_probable_prime(n, a)
        for a in (2, 325, 9375, 28178, 450775, 9780504, 1795265022)
    )


def test_prime_stream_descends_through_every_prime_below_2_61():
    drawn = list(islice(prime_stream(), 40))
    assert tuple(drawn[: len(PRIMES61)]) == PRIMES61
    assert drawn[0] < 2**61
    assert all(a > b for a, b in zip(drawn, drawn[1:]))
    assert all(_is_prime_below_2_64(p) for p in drawn)
    # no prime is skipped between 2**61 and the last one drawn
    between = [n for n in range(drawn[-1], 2**61) if _is_prime_below_2_64(n)]
    assert between == drawn[::-1]


def test_importing_linalg_generates_no_primes():
    # Profile a fresh interpreter's import for calls into the prime test.
    code = (
        "import sys\n"
        "calls = []\n"
        "def hook(frame, event, arg):\n"
        "    if event == 'call' and frame.f_code.co_name in ('_is_prime', 'prime_stream'):\n"
        "        calls.append(frame.f_code.co_name)\n"
        "sys.setprofile(hook)\n"
        "import motzkinrank.linalg as linalg\n"
        "sys.setprofile(None)\n"
        "assert hasattr(linalg, '_is_prime')\n"
        "print(len(calls))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "0"


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
        nullspace_basis([[1, 2, 3]], force_exact=True)
