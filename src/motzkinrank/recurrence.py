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

Both scan order by order.  All cells of order k share the rows
n = 0..len(terms)-k-guard-1, so a system of order k's rows is
eliminated once for all its cells, with its columns degree-major (every
m_{n+i} for n^0, then for n^1, ...), by ``linalg.PrefixNullspaces``.
Its rows are packed for the modular elimination straight from the
terms mod p, never from the integer entries t_{n+i} n^e.  Cell (k, d)
is then the column prefix of width w = (k+1)(d+1): full column rank
mod p, read off the pivots, certifies an empty cell, and otherwise the
prefix's canonical nullvectors are lifted p-adically from the same
factorization and checked on the integer rows, which are built for
that system at its first lift.  A system whose every cell asked is
full rank never builds them.  The candidates of a cell are the
canonical vectors of its own order-major columns (all n-powers for
m_n, then for m_{n+1}, ...), read exactly off that basis: when the
cell's nullspace has dimension 2 or more, the two layouts can pick
different canonical vectors, and the order-major ones are the cell's
answer.  ``guess_recurrence`` stops each order's degrees at the best
verified cell found so far.

Most cells have no relation, and a few rows more than columns already
show it.  So both scans first eliminate an order's head: its first
w + 8 rows, w = (k+1)(top+1) its widest cell, top its largest degree,
or all its rows when they are no more.  The head is a row subset of
the order's system, so the system's nullspace at each width lies in
the head's, whose dimension is at most the head's nullity mod p.  Each
cell is answered by that nullity:

* 0: the cell has no relation.
* 1: the head's one canonical nullvector v is lifted and checked on
  every term, as every candidate is.  The whole system's nullspace is
  either empty or spanned by v, and a one-dimensional span has the
  same canonical vector in either column layout, so this is the whole
  system's verdict without eliminating it: when v verifies, when it
  fails, and when the prime was unlucky on the head, whose exact route
  then finds its nullspace.
* 2 or more: the head cannot tell which of its vectors the whole
  system keeps, so the order's whole system is eliminated, and the
  cell is read off it as above.

Nullity never falls as the width grows, so an order's whole system is
eliminated at most once, and every wider cell is read off it too.
Past its first hit ``minimality_scan`` eliminates each order's whole
system at once, since those heads always reach nullity 2.
The 8 spare rows are there because the first rows are weak: row 0 is
zero in every n^e block with e >= 1, and row 1 repeats its window in
every block.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from . import backend, intpoly, linalg, published
from .errors import (
    InsufficientTerms,
    NonIntegralStep,
    SingularLeadingCoefficient,
    check_sizes,
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
        rec = cls(intpoly.polys_from_json(data["coeff_polys"]))
        if "order" in data and rec.order != intpoly.exact_from_json(data["order"]):
            raise ValueError(
                f"stated order {data['order']} does not match "
                f"coefficients (order {rec.order})"
            )
        return rec


def verify_recurrence(rec: Recurrence, terms) -> bool:
    """Does the relation hold at every applicable index of terms?

    Raises ``InsufficientTerms`` when the terms hold no instance of the
    relation (at most ``rec.order`` of them), which would verify nothing,
    and ``TypeError`` on a term that is not an int.
    """
    _check_integers(terms)
    k = rec.order
    if len(terms) <= k:
        raise InsufficientTerms(
            f"an order-{k} relation needs at least {k + 1} terms to check, got {len(terms)}"
        )
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
    seeds), and ``TypeError`` on a seed that is not an int.
    """
    check_sizes("count", count)
    _check_integers(seeds)
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


def _check_integers(terms):
    for t in terms:
        if not isinstance(t, int):
            raise TypeError("terms must be integers")


def _check_terms(terms, max_order, max_degree, guard):
    check_sizes("max_order", max_order, least=1)
    check_sizes("max_degree, guard", max_degree, guard)
    _check_integers(terms)
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


# Rows a head takes past its column count (see the module docstring).
_HEAD_SPARE = 8


def _order_cells(terms, k, top, guard, with_head=True):
    """The verified relation of each cell (k, d), d = 0..top in turn, or
    None: answered on the order's head of rows, or on its whole system
    where the head's nullity is 2 or more (see the module docstring).
    Without ``with_head`` every cell is read off the whole system."""
    rows = (k + 1) * (top + 1) + _HEAD_SPARE
    full = None
    if with_head and rows < len(terms) - k - guard:
        head = _order_system(terms[: rows + k + guard], k, top, guard)
    else:
        head = full = _order_system(terms, k, top, guard)
    for d in range(top + 1):
        if full is None and head.nullity((k + 1) * (d + 1)) >= 2:
            full = _order_system(terms, k, top, guard)
        yield _cell_relation(terms, head if full is None else full, k, d)


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
        for d, rec in enumerate(_order_cells(terms, k, top, guard)):
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
    """Try every cell of the (order, degree) grid and record the hits.

    Every order after the first with a hit is eliminated whole, without
    a head: a relation Q of order k0 and degree d0 gives Q and S Q at
    each higher order, so there the head's nullity reaches 2 by degree
    d0, which the scan reaches."""
    terms = list(terms)
    _check_terms(terms, max_order, max_degree, guard)
    hits = []
    for k in range(1, max_order + 1):
        cells = _order_cells(terms, k, max_degree, guard, with_head=not hits)
        hits += [(k, d) for d, rec in enumerate(cells) if rec is not None]
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
    """The rank-1 three-term relation

    (n+4) m_{n+2} = l(2n+5) m_{n+1} + (4ud - l^2)(n+1) m_n,

    in the forward form of the module docstring; like the counts, it
    depends on u and d only through u*d.
    """
    q = 4 * u * d - l * l
    return Recurrence(((-q, -q), (-5 * l, -2 * l), (4, 1)))


def motzkin_recurrence() -> Recurrence:
    """The classical three-term Motzkin relation (all-ones rank 1)."""
    return rank1_recurrence(1, 1, 1)


def prodinger_recurrence() -> Recurrence:
    """The embedded seven-term relation for the rank-2 all-ones counts."""
    return Recurrence(published.PRODINGER)
