"""Exact path counting.

The workhorse is a forward DP over heights with exact big integers.  A
path of length n from height s to height t can never climb above
min(s + r*i, t + r*(n - i)) after i steps, so each DP row is capped
there; one forward run therefore serves every length up to n at once.
Only heights up to min(s + r*n, t) are ever read, so the DP keeps one
full row and returns every row cut there: O(n*(t+1)) big integers
returned plus one row of at most (s + t + r*n)/2 + 1, in place of all
n+1 full rows (O(n^2 * r)).

Rank-1 counts have two independent cross-checks: the closed form

    m_n = sum_j Cat(j) * C(n, 2j) * (u*d)^j * l^(n-2j)

and the three-term relation ``recurrence.rank1_recurrence``, both of
which depend on u and d only through u*d (see the recoloring bijection
in ``paths``).
"""

from __future__ import annotations

from math import comb

from .errors import InvalidSpec
from .paths import WeightSpec, capped_dp_rows
from .recurrence import apply_recurrence, prodinger_recurrence, rank1_recurrence


def count_paths_dp(spec: WeightSpec, n: int, start: int = 0, end: int = 0) -> int:
    """Number of colored length-n paths from ``start`` to ``end``."""
    if n < 0 or start < 0 or end < 0:
        raise InvalidSpec("n, start, end must be nonnegative")
    last = capped_dp_rows(spec, n, start, end)[n]
    return last[end] if end < len(last) else 0


def count_sequence(spec: WeightSpec, n_max: int, start: int = 0, end: int = 0) -> list[int]:
    """Counts for every length 0..n_max from one DP run.

    The caps for length n_max are only looser than those for n < n_max,
    and loosening a cap never changes a count, so row n of the same run
    is already the length-n answer.
    """
    if n_max < 0 or start < 0 or end < 0:
        raise InvalidSpec("n_max, start, end must be nonnegative")
    rows = capped_dp_rows(spec, n_max, start, end)
    return [row[end] if end < len(row) else 0 for row in rows]


class CountTable:
    """Counts for all (n, s, t) with n <= n_max, s <= start_max, t <= end_max."""

    def __init__(self, spec, n_max, start_max=0, end_max=0):
        if n_max < 0 or start_max < 0 or end_max < 0:
            raise InvalidSpec("n_max, start_max, end_max must be nonnegative")
        self.spec = spec
        self.n_max = n_max
        self.start_max = start_max
        self.end_max = end_max
        self._rows = {s: capped_dp_rows(spec, n_max, s, end_max) for s in range(start_max + 1)}

    def value(self, n, s, t) -> int:
        if not (0 <= n <= self.n_max and 0 <= s <= self.start_max and 0 <= t <= self.end_max):
            raise InvalidSpec(
                f"(n={n}, s={s}, t={t}) outside the table bounds "
                f"({self.n_max}, {self.start_max}, {self.end_max})"
            )
        row = self._rows[s][n]
        return row[t] if t < len(row) else 0


def rank1_explicit(u: int, l: int, d: int, n: int) -> int:
    """Closed-form rank-1 count; depends on u, d only through u*d."""
    WeightSpec.rank1(u, l, d)  # validate the weights
    if n < 0:
        raise InvalidSpec("n must be nonnegative")
    ud = u * d
    total = 0
    for j in range(n // 2 + 1):
        cat = comb(2 * j, j) // (j + 1)
        total += cat * comb(n, 2 * j) * ud**j * l ** (n - 2 * j)
    return total


def rank1_recurrence_seq(u: int, l: int, d: int, n_max: int) -> list[int]:
    """Rank-1 counts m_0..m_n_max via the three-term relation from the
    seeds m_0 = 1, m_1 = l.

    Every step divides by (n+2); the division is checked to be exact,
    so a wrong seed or a transcription slip fails loudly instead of
    silently truncating.
    """
    WeightSpec.rank1(u, l, d)
    if n_max < 0:
        raise InvalidSpec("n_max must be nonnegative")
    return apply_recurrence(rank1_recurrence(u, l, d), [1, l], n_max + 1)


def rank2_prodinger_seq(n_max: int) -> list[int]:
    """Rank-2 all-ones counts via the seven-term relation.

    Seeds m_0..m_5 come from the DP; the rest is the polynomial-
    coefficient recurrence, with exact division checked at each step.
    """
    if n_max < 0:
        raise InvalidSpec("n_max must be nonnegative")
    seeds = count_sequence(WeightSpec.all_ones(2), min(n_max, 5))
    if n_max <= 5:
        return seeds
    return apply_recurrence(prodinger_recurrence(), seeds, n_max + 1)
