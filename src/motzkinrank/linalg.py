"""Exact integer nullspaces for the guessers.

Both guessers solve many column prefixes of one homogeneous integer
system: the (order, degree) cells of one recurrence order, or the
y-degrees of one algebraic ansatz.  ``PrefixNullspaces`` answers every
prefix width from one elimination:

* One LU factorization mod the 61-bit prime ``PRIME``
  (``backend.packed_echelon``), eliminated on packed rows: each row is
  one int holding only its columns not yet eliminated, so a row update
  is one big-integer multiply-add on a row that shrinks by a slot per
  column.  Row operations never mix columns, so cut to its first w
  columns it factors the width-w prefix, whose pivots are the ones
  below w.  The elimination gives the pivots, the multipliers and, per
  pivot row, its tail still packed and only folded mod p, with the
  pivot's inverse.  The factors at the pivot columns (L, U and the
  inverses) and the pivot block of the integer rows are read only at
  the system's first lift, so a system whose every prefix asked is
  certified by full rank reads none of them.  A system given as integer
  rows is packed here; ``PrefixNullspaces.from_packed`` takes the rows'
  residues already packed and a function that builds the integer rows,
  which runs only when a lift, the Hadamard bound or the exact route
  first needs them.
* Full rank.  w pivots below column w certify that the prefix has no
  nullvector: reduction mod p can only lower the rank.  More generally
  the prefix's nullity mod p, w less those pivots, bounds its nullity
  over the rationals, and so does that of any subset of the rows,
  since more rows cannot raise the nullity; the recurrence guessers
  answer most cells on a head of their rows by that bound.
* Otherwise every canonical nullvector of the prefix is lifted
  p-adically (Dixon, Numer. Math. 1982) from the same factorization.
  The canonical vector of free column f has 1 at f and 0 at the other
  free columns and right of f, so it is the unique solution of the
  square system of the pivot rows and pivot columns below f, which is
  invertible mod p.  Each lifting step solves that system mod p by
  substitution, in O(r^2) for r pivots below f, and divides the
  residual by p.  After each step the vector is rationally
  reconstructed and checked over the integers.  It depends on f alone,
  so every wider prefix reuses it.
* Unlucky prime.  When the prime's pivots below f are the rational
  ones, the lift reaches the canonical vector before the p-adic modulus
  passes 2 H^2, H the Hadamard bound of the first f + 1 columns.  Past
  that bound the prime has lost a pivot: it divides a pivot minor.
  Free columns are lifted in increasing order, so the first one that
  fails is the first column the prime gets wrong, and every vector
  lifted before it is the rational canonical one.  That column f is
  recorded: prefixes of width at most f are still answered from the
  prime, and every wider one goes to the exact route.  So an unlucky
  prime costs one Bareiss elimination per width asked past f, not one
  more modular elimination; none of the systems the guessers build in
  the tests or the benchmark meets one.
* Exact route, ``exact_nullspace``: Bareiss elimination over the
  integers with exact back substitution.  The last resort after an
  unlucky prime, and callable directly so both routes stay tested
  against each other.

Nothing leaves this module unverified, so an unlucky prime can cost
time but never an answer: every lifted vector is checked on all the
integer rows.  Both routes take rectangular rows only: a
ragged row is a ``ValueError`` before any elimination.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import mul

from . import backend
from .errors import SelfCheckFailed

# The largest prime below 2**61, so each p-adic lifting step gains 61
# bits.
PRIME = 2**61 - 1


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
    return _normalize(clear_denominators(fracs))


def clear_denominators(values):
    """Ints and Fractions scaled to ints by the lcm of their denominators."""
    den = lcm(*(v.denominator for v in values))
    if den == 1:
        return [int(v) for v in values]
    return [int(v * den) for v in values]


def _check_rectangular(rows):
    """Raise ValueError naming the first row whose length is not row 0's."""
    for i, row in enumerate(rows):
        if len(row) != len(rows[0]):
            raise ValueError(f"row {i} has {len(row)} entries, row 0 has {len(rows[0])}")


class PrefixNullspaces:
    """Verified canonical nullspaces of every column prefix of one system.

    ``rows`` is an integer matrix (clear denominators first).
    ``full_rank(w)``, ``nullity(w)`` and ``basis(w)`` answer for its
    first w columns by the route in the module docstring.  The system is
    eliminated once, here, mod ``PRIME``.  ``from_packed`` builds the
    same object from the rows' residues, packed.
    """

    def __init__(self, rows):
        _check_rectangular(rows)
        self._factor(backend.pack_residues(rows, PRIME), len(rows[0]) if rows else 0)
        self._rows = rows

    @classmethod
    def from_packed(cls, packed, ncols, build_rows):
        """The system whose rows mod ``PRIME`` are ``packed``, laid out
        by ``backend.pack`` at ``backend.slot_bits(PRIME, ncols)`` with
        each slot below PRIME**2, and whose integer rows ``build_rows()``
        returns.  They are built the first time a lift, the Hadamard
        bound or the exact route needs them, so a system whose every
        prefix asked is certified by full rank never builds them."""
        self = cls.__new__(cls)
        self._factor(packed, ncols)
        self._rows = None
        self._build_rows = build_rows
        return self

    def _factor(self, packed, ncols):
        self._ncols = ncols
        self._norms = None
        self._canonical = {}  # free column -> its verified canonical vector
        self._unlucky = None  # first free column whose lift failed
        lu = [[0] * ncols for _ in packed]
        self._pivots, self._order, tails, invs = backend.packed_echelon(packed, lu, PRIME)
        self._factors = lu, tails, invs  # read by _solver at the first lift
        self._solved = None

    def _solver(self):
        """B's factors mod p, the pivot rows and B, the square block of
        pivot rows and pivot columns.  B = L U mod p, and the factors are
        the inverses of L's diagonal (the pivot values), L below it and
        U above U's unit diagonal.  Read at the first lift, off the
        elimination's multipliers and folded tails and off the integer
        rows."""
        if self._solved is None:
            pivots = self._pivots
            lu, tails, invs = self._factors
            lower = [[lu[k][c] for c in pivots[:k]] for k in range(len(pivots))]
            upper = []
            for k, c in enumerate(pivots):
                row = backend.upper_row(tails[k], invs[k], c, self._ncols, PRIME)
                upper.append([row[c2 - c - 1] for c2 in pivots[k + 1 :]])
            pivot_rows = [self.rows[i] for i in self._order[: len(pivots)]]
            block = [[row[c] for c in pivots] for row in pivot_rows]
            self._solved = invs, lower, upper, pivot_rows, block
            self._factors = None
        return self._solved

    @property
    def rows(self):
        """The integer rows, built on first use."""
        if self._rows is None:
            self._rows = self._build_rows()
        return self._rows

    def nullity(self, w) -> int:
        """The first w columns' nullity mod ``PRIME``, read off the
        pivots: a bound on their nullity over the rationals."""
        return w - bisect_left(self._pivots, w)

    def full_rank(self, w) -> bool:
        """Certified: the first w columns have no nullvector."""
        return self.nullity(w) == 0

    def basis(self, w, max_vectors: int | None = None):
        """Canonical verified nullvectors of the first w columns, one per
        free column in increasing order, at most ``max_vectors``; []
        exactly for full column rank.  The vectors are those of
        ``nullspace_basis`` on the prefix."""
        if self._unlucky is None or w <= self._unlucky:
            pivots = set(self._pivots)
            free = [c for c in range(w) if c not in pivots][:max_vectors]
            for f in free:
                if f not in self._canonical:
                    v = self._lift(f)
                    if v is None:
                        self._unlucky = f
                        break
                    self._canonical[f] = v
            else:
                return [self._canonical[f] + [0] * (w - f - 1) for f in free]
        return exact_nullspace([row[:w] for row in self.rows], max_vectors)

    def _lift(self, f):
        """The canonical nullvector of free column f, cut after f and
        verified, or None once the modulus passes the Hadamard limit."""
        p = PRIME
        inv, lower, upper, pivot_rows, block = self._solver()
        r = bisect_left(self._pivots, f)
        cols = self._pivots[:r]
        # Solve B x = -(column f on the pivot rows), truncated to the
        # pivots below f, one p-adic digit y per step.
        res = [-row[f] for row in pivot_rows[:r]]
        x = [0] * r
        modulus = 1
        limit = None
        while True:
            y = []
            for k in range(r):
                y.append((res[k] - sum(map(mul, lower[k], y))) * inv[k] % p)
            for k in range(r - 1, -1, -1):
                y[k] = (y[k] - sum(map(mul, upper[k], y[k + 1 :]))) % p
            res = [(a - sum(map(mul, b, y))) // p for a, b in zip(res, block)]
            x = [a + modulus * b for a, b in zip(x, y)]
            modulus *= p
            v = [0] * (f + 1)
            v[f] = 1
            for c, a in zip(cols, x):
                v[c] = a
            v = _reconstruct_vector(v, modulus)
            if v is not None and is_nullvector(self.rows, v):
                return v
            if limit is None:
                limit = 2 * self._hadamard_bound(f + 1) ** 2
            if modulus > limit:
                return None

    def _hadamard_bound(self, width):
        """Bound on the absolute value of every square minor of the
        first ``width`` columns."""
        if self._norms is None:
            ncols = len(self.rows[0])
            self._norms = [
                isqrt(sum(row[c] * row[c] for row in self.rows)) + 1 for c in range(ncols)
            ]
        h = 1
        for x in sorted(self._norms[:width], reverse=True)[: len(self.rows)]:
            h *= x
        return h


def exact_nullspace(rows, max_vectors: int | None = None):
    """``nullspace_basis`` by Bareiss elimination over the integers."""
    _check_rectangular(rows)
    ncols = len(rows[0]) if rows else 0
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
        ints = _normalize(clear_denominators(v))
        if ints is None or not is_nullvector(rows, ints):
            raise SelfCheckFailed("exact elimination produced an invalid vector")
        out.append(ints)
    return out


def nullspace_basis(rows, max_vectors: int | None = None):
    """Canonical verified integer nullvectors, one per free column.

    Rows must have integer entries (clear denominators first).  The
    vector of free column f has 0 at the other free columns and right of
    f; the first ``max_vectors`` free columns are returned, in
    increasing order.  Returns [] exactly when the matrix has full
    column rank.  Every returned vector is content-1, has positive first
    nonzero entry, and satisfies rows @ v == 0 (checked over the
    integers, not mod p).  Deterministic.  The single-width case of
    ``PrefixNullspaces``.
    """
    return PrefixNullspaces(rows).basis(len(rows[0]) if rows else 0, max_vectors)


def canonical_basis(vectors, max_vectors: int | None = None):
    """The canonical basis of the span of independent integer vectors.

    These are the vectors ``nullspace_basis`` returns for any matrix
    whose nullspace is that span: a reduced echelon form read from the
    last column, whose last nonzero entries sit on the free columns.
    Exact; used to read a nullspace found in one column order in
    another.  Returns the first ``max_vectors`` by free column.
    """
    ncols = len(vectors[0]) if vectors else 0
    rest = [list(v) for v in vectors]
    found = []
    for c in range(ncols - 1, -1, -1):
        k = next((i for i, v in enumerate(rest) if v[c]), None)
        if k is None:
            continue
        piv = rest.pop(k)
        rest = [_eliminate(v, piv, c) if v[c] else v for v in rest]
        found.append((c, piv))
        if not rest:
            break
    # Kept in increasing free column; each still has to be cleared at
    # the smaller free columns, whose vectors are zero at every other
    # free column, so the order of clearing does not matter.
    found.reverse()
    out = []
    for c, v in found[:max_vectors]:
        for c2, u in out:
            if v[c2]:
                v = _eliminate(v, u, c2)
        out.append((c, v))
    return [_normalize(v) for _, v in out]


def _eliminate(v, piv, c):
    """v with its entry at c cleared by a multiple of piv, content 1."""
    return _normalize([piv[c] * a - v[c] * b for a, b in zip(v, piv)])
