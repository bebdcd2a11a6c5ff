"""Polynomial-coefficient recurrences on integer sequences.

A Recurrence of order k stores integer polynomials p_0..p_k (in n) with
the convention

    sum_i p_i(n) * m_{n+i} = 0   for all n >= 0,   p_k not identically 0.

``guess_recurrence`` searches small (order, degree) cells in increasing
order + degree, solving the exact homogeneous system on the given
terms with the last ``guard`` instances withheld, and returns the first
candidate that verifies on every applicable instance including the
withheld ones.  ``minimality_scan`` maps out the whole grid, which is
how desk-scale minimality evidence is collected.

Both scan order by order and make one elimination per order.  All
cells of order k share the rows n = 0..len(terms)-k-guard-1, so order
k's system is eliminated once, with its columns degree-major (every
m_{n+i} for n^0, then for n^1, ...), by ``linalg.PrefixNullspaces``.
Its rows are packed for the modular elimination straight from the
terms mod p, never from the integer entries t_{n+i} n^e.  Cell (k, d)
is then the column prefix of width w = (k+1)(d+1): full column rank
mod p, read off the pivots, certifies an empty cell, and otherwise the
prefix's canonical nullvectors are lifted p-adically from the same
factorization and checked on the integer system, which is built for
that order at its first lift.  An order whose every cell is full rank
never builds it.  The candidates of a cell are the canonical
vectors of its own order-major columns (all n-powers for m_n, then for
m_{n+1}, ...), read exactly off that basis: when the cell's nullspace
has dimension 2 or more, the two layouts can pick different canonical
vectors, and the order-major ones are the cell's answer.
``guess_recurrence`` stops each order's degrees at the best verified
cell found so far.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from . import backend, intpoly, linalg, published
from .errors import (
    InsufficientTerms,
    NonIntegralStep,
    SingularLeadingCoefficient,
)


@dataclass(frozen=True)
class Recurrence:
    """coeff_polys[i] is p_i; see the module docstring for the convention."""

    coeff_polys: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        polys = tuple(intpoly.trim(p) for p in self.coeff_polys)
        if len(polys) < 2:
            raise ValueError("a recurrence needs order at least 1")
        if not polys[-1]:
            raise ValueError("the leading coefficient polynomial must be nonzero")
        object.__setattr__(self, "coeff_polys", polys)

    @property
    def order(self) -> int:
        return len(self.coeff_polys) - 1

    @property
    def degree(self) -> int:
        return max(intpoly.degree(p) for p in self.coeff_polys)

    def content(self) -> int:
        g = 0
        for p in self.coeff_polys:
            g = gcd(g, intpoly.content(p))
        return g

    def normalized(self) -> "Recurrence":
        """Content 1, leading coefficient of p_k positive."""
        g = self.content()
        polys = [tuple(v // g for v in p) for p in self.coeff_polys]
        if polys[-1][-1] < 0:
            polys = [intpoly.neg(p) for p in polys]
        return Recurrence(tuple(polys))

    def proportional_to(self, other: "Recurrence") -> bool:
        """Equal up to a nonzero rational factor."""
        return self.normalized() == other.normalized()

    def __str__(self):
        parts = []
        for i, p in enumerate(self.coeff_polys):
            if not p:
                continue
            idx = "m[n]" if i == 0 else f"m[n+{i}]"
            body = intpoly.to_str(p, "n")
            if p == (1,):
                parts.append(idx)
            elif p == (-1,):
                parts.append(f"-{idx}")
            else:
                parts.append(f"({body})*{idx}")
        return intpoly.signed_sum(parts) + " = 0"

    def to_json_dict(self) -> dict:
        return {
            "order": self.order,
            "coeff_polys": [[str(v) for v in p] for p in self.coeff_polys],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Recurrence":
        polys = tuple(tuple(int(v) for v in p) for p in data["coeff_polys"])
        rec = cls(polys)
        if "order" in data and rec.order != int(data["order"]):
            raise ValueError(
                f"stated order {data['order']} does not match "
                f"coefficients (order {rec.order})"
            )
        return rec


def verify_recurrence(rec: Recurrence, terms) -> bool:
    """Does the relation hold at every applicable index of terms?"""
    k = rec.order
    polys = rec.coeff_polys
    for n in range(len(terms) - k):
        if sum(intpoly.evaluate(polys[i], n) * terms[n + i] for i in range(k + 1)):
            return False
    return True


def apply_recurrence(rec: Recurrence, seeds, count: int) -> list[int]:
    """Extend seeds to ``count`` terms.

    Solves for m_{n+k} at each step; raises if the leading coefficient
    vanishes at some n or if a division is not exact (either means the
    relation does not actually generate an integer sequence from these
    seeds).
    """
    k = rec.order
    if len(seeds) < k:
        raise InsufficientTerms(f"need at least {k} seed terms, got {len(seeds)}")
    out = list(seeds)
    while len(out) < count:
        n = len(out) - k
        lead = intpoly.evaluate(rec.coeff_polys[k], n)
        if lead == 0:
            raise SingularLeadingCoefficient(n)
        s = sum(
            intpoly.evaluate(rec.coeff_polys[i], n) * out[n + i] for i in range(k)
        )
        quot, rem = divmod(-s, lead)
        if rem:
            raise NonIntegralStep(f"extension step at n={n} is not integral")
        out.append(quot)
    return out[:count]


def _check_terms(terms, max_order, max_degree, guard):
    if max_order < 1 or max_degree < 0:
        raise ValueError("need max_order >= 1 and max_degree >= 0")
    if guard < 0:
        raise ValueError("guard must be nonnegative")
    for t in terms:
        if not isinstance(t, int):
            raise TypeError("terms must be integers")
    need = (max_order + 1) * (max_degree + 1) + max_order + guard
    if len(terms) < need:
        raise InsufficientTerms(
            f"{len(terms)} terms cannot support order {max_order} and degree "
            f"{max_degree} with guard {guard}; need at least {need}"
        )


def _order_rows(terms, k, max_degree, guard):
    """Order k's integer system over rows n = 0..len-k-guard-1 (the last
    ``guard`` applicable instances withheld), columns degree-major up to
    ``max_degree``: every m_{n+i} for n^0, then for n^1, and so on."""
    rows = []
    for n in range(len(terms) - k - guard):
        window = terms[n : n + k + 1]
        row = []
        e = 1
        for _ in range(max_degree + 1):
            row += [t * e for t in window]
            e *= n
        rows.append(row)
    return rows


def _packed_rows(terms, k, max_degree, guard, p):
    """``_order_rows``'s rows mod the prime p, packed by ``backend.pack``
    at ``backend.slot_bits`` straight from the terms mod p.

    Row n's degree-e block is (n^e mod p) times the packed window
    t_n..t_{n+k} mod p, and the next row's window drops t_n and takes
    t_{n+k+1}: a row costs a few big-integer operations per degree, and
    each term is reduced once, not once per entry.  Each slot is a
    product of two residues, below p**2.
    """
    nrows = len(terms) - k - guard
    s = backend.slot_bits(p, (k + 1) * (max_degree + 1))
    top, block = k * s, (k + 1) * s
    residues = [t % p for t in terms[: nrows + k]]
    window = backend.pack(residues[:k], s) << s
    packed = []
    for n in range(nrows):
        window = (window >> s) | residues[n + k] << top
        row, c, at = 0, 1, 0
        for _ in range(max_degree + 1):
            row |= c * window << at
            c = c * n % p
            at += block
        packed.append(row)
    return packed


def _order_system(terms, k, max_degree, guard):
    """Order k's system, eliminated from ``_packed_rows``; its integer
    rows are built only if a prefix has to be lifted."""
    return linalg.PrefixNullspaces.from_packed(
        _packed_rows(terms, k, max_degree, guard, linalg.PRIME),
        (k + 1) * (max_degree + 1),
        lambda: _order_rows(terms, k, max_degree, guard),
    )


def _cell_relation(terms, system, k, d, max_candidates=8):
    """Verified relation of order <= k and degree <= d, or None.

    The candidates are the canonical nullvectors of the cell's own
    order-major columns (all n-powers for m_n, then for m_{n+1}, ...),
    read exactly off the degree-major prefix's basis, and each must hold
    on every instance of the terms.  A candidate whose top polynomials
    vanish is kept at its true (lower) order.
    """
    w = (k + 1) * (d + 1)
    if system.full_rank(w):
        return None
    basis = [
        [v[j * (k + 1) + i] for i in range(k + 1) for j in range(d + 1)]
        for v in system.basis(w)
    ]
    for vec in linalg.canonical_basis(basis, max_candidates):
        polys = [
            intpoly.trim(vec[i * (d + 1) : (i + 1) * (d + 1)]) for i in range(k + 1)
        ]
        while polys and not polys[-1]:
            polys.pop()
        if len(polys) < 2:
            continue
        rec = Recurrence(tuple(polys))
        if verify_recurrence(rec, terms):
            return rec.normalized()
    return None


def guess_recurrence(terms, max_order: int, max_degree: int, guard: int = 8):
    """Smallest relation (by order+degree, then order) fitting the terms.

    Finds the first cell (k, d), ordered by k+d then k, that admits a
    verified relation; each candidate must hold on every applicable
    instance of the input, including the ``guard`` withheld ones,
    before it is returned (normalized).  Returns None when no cell in
    the grid admits a verified relation.
    """
    terms = list(terms)
    _check_terms(terms, max_order, max_degree, guard)
    best = None
    bound = max_order + max_degree + 1  # a better cell has k + d below this
    for k in range(1, max_order + 1):
        top = min(max_degree, bound - k - 1)
        if top < 0:
            break
        system = _order_system(terms, k, top, guard)
        for d in range(top + 1):
            rec = _cell_relation(terms, system, k, d)
            if rec is not None:
                best, bound = rec, k + d
                break
    return best


@dataclass(frozen=True)
class MinimalityReport:
    """Grid scan outcome: which (order, degree) cells admit a verified
    relation on the given terms."""

    terms_used: int
    max_order: int
    max_degree: int
    guard: int
    hits: tuple[tuple[int, int], ...]

    @property
    def smallest(self) -> tuple[int, int] | None:
        return min(self.hits) if self.hits else None

    @property
    def observed_term_count(self) -> int | None:
        """Number of sequence terms tied together by the smallest
        relation found (order + 1), or None."""
        return self.smallest[0] + 1 if self.hits else None

    @property
    def frontier(self) -> tuple[tuple[int, int], ...]:
        """The minimal hits under the product order, by increasing order:
        no other hit has both order and degree at most theirs."""
        out = []
        for k, d in sorted(self.hits):
            if not out or d < out[-1][1]:
                out.append((k, d))
        return tuple(out)


def minimality_scan(terms, max_order: int, max_degree: int, guard: int = 8):
    """Try every cell of the (order, degree) grid and record the hits."""
    terms = list(terms)
    _check_terms(terms, max_order, max_degree, guard)
    hits = []
    for k in range(1, max_order + 1):
        system = _order_system(terms, k, max_degree, guard)
        hits += [
            (k, d)
            for d in range(max_degree + 1)
            if _cell_relation(terms, system, k, d) is not None
        ]
    return MinimalityReport(
        terms_used=len(terms),
        max_order=max_order,
        max_degree=max_degree,
        guard=guard,
        hits=tuple(hits),
    )


def shift_left_multiply(c: int, polys) -> tuple[tuple[int, ...], ...]:
    """Coefficients of (S + c) * sum_i polys[i](n) S^i, where S is the
    shift m_n -> m_{n+1}: S * p(n) S^i = p(n + 1) S^(i + 1)."""

    def shifted(p):  # p(n + 1), by Horner in the ring Z[n]
        acc = ()
        for v in reversed(p):
            acc = intpoly.add(intpoly.mul(acc, (1, 1)), (v,))
        return acc

    lower = [intpoly.scale(p, c) for p in polys] + [()]
    upper = [()] + [shifted(p) for p in polys]
    return tuple(intpoly.add(a, b) for a, b in zip(lower, upper))


def rank1_recurrence(u: int, l: int, d: int) -> Recurrence:
    """Forward form of the rank-1 three-term relation:

    -(4ud - l^2)(n+1) m_n - l(2n+5) m_{n+1} + (n+4) m_{n+2} = 0.
    """
    q = 4 * u * d - l * l
    return Recurrence(((-q, -q), (-5 * l, -2 * l), (4, 1)))


def motzkin_recurrence() -> Recurrence:
    """The classical three-term Motzkin relation (all-ones rank 1)."""
    return rank1_recurrence(1, 1, 1)


def prodinger_recurrence() -> Recurrence:
    """The embedded seven-term relation for the rank-2 all-ones counts."""
    return Recurrence(published.PRODINGER)
