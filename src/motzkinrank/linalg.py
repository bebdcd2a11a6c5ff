"""Exact integer nullspace extraction for the guessers.

Two routes, both exact:

* Modular fast path: row echelon mod a 61-bit prime.  Full column rank
  mod p is a sound certificate of an empty nullspace (reduction mod p
  can only lower the rank).  Otherwise canonical candidate vectors are
  lifted by CRT over further primes plus rational reconstruction, and
  each candidate is verified against the original integer matrix
  before being returned.  Primes come from ``prime_stream``: the ten
  ``PRIMES61``, then every smaller prime in descending order, found
  lazily by deterministic Miller-Rabin.  A prime whose pivot columns
  come earlier than the first prime's shows that the first prime was
  unlucky, and lifting restarts from it; a prime whose pivots come later
  is unlucky itself and is skipped.  Lifting goes on until every
  candidate verifies.  The guessers' largest relations need about 11
  primes (coefficients of 330 bits), so a fixed budget of ten would
  send them to the slow route.
* Fraction-free fallback: Bareiss elimination over the integers with
  exact back substitution.  Used when the CRT modulus exceeds twice
  the square of the system's Hadamard bound without every candidate
  verifying: with the right pivots, that modulus reconstructs every
  entry, so only wrong pivots can get there.  Directly reachable via
  ``force_exact`` so both routes stay tested against each other.

Nothing leaves this module unverified, so an unlucky prime can cost
time but never an answer.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm

from . import backend
from .errors import SelfCheckFailed

# Ten largest primes below 2**61; products fit in unsigned 128-bit
# words, which is what the compiled echelon kernel relies on.
PRIMES61 = (
    2305843009213693951,
    2305843009213693921,
    2305843009213693907,
    2305843009213693723,
    2305843009213693693,
    2305843009213693669,
    2305843009213693613,
    2305843009213693561,
    2305843009213693549,
    2305843009213693487,
)

# Miller-Rabin with these bases is exact below 3.3e24, far above 2**61.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n):
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_stream():
    """PRIMES61, then every smaller prime in descending order, lazily."""
    yield from PRIMES61
    n = PRIMES61[-1] - 2
    while True:
        if _is_prime(n):
            yield n
        n -= 2


def is_nullvector(rows, v) -> bool:
    idx = [i for i, x in enumerate(v) if x]
    for row in rows:
        if sum(row[i] * v[i] for i in idx):
            return False
    return True


def _normalize(v):
    g = 0
    for x in v:
        g = gcd(g, abs(x))
    if g == 0:
        return None
    if g > 1:
        v = [x // g for x in v]
    for x in v:
        if x:
            return v if x > 0 else [-y for y in v]
    return None


def _modp_canonical(echelon, pivots, ncols, free_col, p):
    # The unique mod-p nullvector with 1 at free_col and 0 at the other
    # free columns; echelon rows have unit pivots.
    v = [0] * ncols
    v[free_col] = 1
    for r in range(len(pivots) - 1, -1, -1):
        c = pivots[r]
        row = echelon[r]
        s = 0
        for j in range(c + 1, ncols):
            vj = v[j]
            if vj and row[j]:
                s += row[j] * vj
        v[c] = -s % p
    return v


def _rat_recon(c, m):
    """Fraction p/q with p = c*q mod m and |p|, q <= sqrt(m/2), or None."""
    c %= m
    bound = isqrt(m // 2)
    if c <= bound:
        return Fraction(c)
    r0, s0, r1, s1 = m, 0, c, 1
    while r1 > bound:
        q = r0 // r1
        r0, s0, r1, s1 = r1, s1, r0 - q * r1, s0 - q * s1
    if s1 == 0:
        return None
    p, q = (r1, s1) if s1 > 0 else (-r1, -s1)
    if q > bound or gcd(abs(p), q) != 1:
        return None
    return Fraction(p, q)


def _reconstruct_vector(residues, m):
    fracs = []
    for c in residues:
        f = _rat_recon(c, m)
        if f is None:
            return None
        fracs.append(f)
    den = 1
    for f in fracs:
        den = lcm(den, f.denominator)
    return _normalize([int(f * den) for f in fracs])


def _hadamard_bound(rows, ncols):
    """Bound on the absolute value of every square minor of rows."""
    norms = sorted(
        (isqrt(sum(row[c] * row[c] for row in rows)) + 1 for c in range(ncols)),
        reverse=True,
    )
    h = 1
    for x in norms[: len(rows)]:
        h *= x
    return h


def _modular_nullspace(rows, ncols, max_vectors):
    """Verified basis via the modular route, [] for certified full rank,
    or None when the route fails and the caller must go exact."""
    pivots = None
    limit = None
    for p in prime_stream():
        ech = [[v % p for v in row] for row in rows]
        piv = backend.modp_echelon(ech, p)
        # Reduction mod p can only lose pivots, so the rational pivot
        # columns come first where two primes' pivot lists differ.
        if pivots is None or piv + [ncols] < pivots + [ncols]:
            if len(piv) == ncols:
                return []
            pivots = piv
            pivset = set(pivots)
            free_cols = [c for c in range(ncols) if c not in pivset]
            if max_vectors is not None:
                free_cols = free_cols[:max_vectors]
            acc = {f: _modp_canonical(ech, pivots, ncols, f, p) for f in free_cols}
            modulus = p
            found = {}
        elif piv != pivots:
            continue  # unlucky prime: it loses a pivot the others have
        else:
            inv = pow(modulus % p, -1, p)
            for f in free_cols:
                if f in found:
                    continue
                vp = _modp_canonical(ech, piv, ncols, f, p)
                acc[f] = [
                    a + modulus * ((b - a) * inv % p) for a, b in zip(acc[f], vp)
                ]
            modulus *= p
        for f in free_cols:
            if f in found:
                continue
            v = _reconstruct_vector(acc[f], modulus)
            if v is not None and is_nullvector(rows, v):
                found[f] = v
        if len(found) == len(free_cols):
            return [found[f] for f in free_cols]
        if limit is None:
            limit = 2 * _hadamard_bound(rows, ncols) ** 2
        if modulus > limit:
            return None


def _exact_nullspace(rows, ncols, max_vectors):
    work = [list(row) for row in rows]
    pivots = backend.bareiss_echelon(work)
    if len(pivots) == ncols:
        return []
    pivset = set(pivots)
    free_cols = [c for c in range(ncols) if c not in pivset]
    if max_vectors is not None:
        free_cols = free_cols[:max_vectors]
    out = []
    for f in free_cols:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r in range(len(pivots) - 1, -1, -1):
            c = pivots[r]
            row = work[r]
            s = Fraction(0)
            for j in range(c + 1, ncols):
                if v[j] and row[j]:
                    s += row[j] * v[j]
            v[c] = -s / row[c]
        den = 1
        for x in v:
            den = lcm(den, x.denominator)
        ints = _normalize([int(x * den) for x in v])
        if ints is None or not is_nullvector(rows, ints):
            raise SelfCheckFailed("exact elimination produced an invalid vector")
        out.append(ints)
    return out


def nullspace_basis(rows, force_exact: bool = False, max_vectors: int | None = None):
    """Canonical verified integer nullvectors, one per free column.

    Rows must have integer entries (clear denominators first).  Returns
    [] exactly when the matrix has full column rank.  Every
    returned vector is content-1, has positive first nonzero entry, and
    satisfies rows @ v == 0 (checked over the integers, not mod p).
    Deterministic: fixed primes, fixed scan order.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    if ncols == 0:
        return []
    if nrows == 0:
        out = []
        top = ncols if max_vectors is None else min(ncols, max_vectors)
        for f in range(top):
            v = [0] * ncols
            v[f] = 1
            out.append(v)
        return out
    if not force_exact:
        basis = _modular_nullspace(rows, ncols, max_vectors)
        if basis is not None:
            return basis
    return _exact_nullspace(rows, ncols, max_vectors)


def nullvector(rows, force_exact: bool = False):
    """First canonical nullvector, or None for full column rank."""
    basis = nullspace_basis(rows, force_exact=force_exact, max_vectors=1)
    return basis[0] if basis else None
