"""Exact path counting.

This module owns the weight spec :class:`WeightSpec` and the capped DP
``capped_dp_rows``; ``paths`` imports both for its enumeration guards,
and ``genfunc``, ``algebraic`` and the CLI take the spec from here.  It
needs only ``backend`` and ``errors``, so counting loads no solver or
guesser: the two sequences built from a recurrence import ``recurrence``
when they are called.  Weights and sizes are checked by
``errors.check_sizes``, like every size in the library.

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

from dataclasses import dataclass
from math import comb

from . import backend
from .errors import InvalidPath, InvalidSpec, check_sizes


@dataclass(frozen=True)
class WeightSpec:
    """Step weights (u_1..u_r; l; d_1..d_r) for rank-r colored paths."""

    up: tuple[int, ...]
    level: int
    down: tuple[int, ...]

    def __post_init__(self):
        up = tuple(self.up)
        down = tuple(self.down)
        check_sizes("weights", *up, self.level, *down)
        if not up:
            raise InvalidSpec("rank must be at least 1")
        if len(up) != len(down):
            raise InvalidSpec(
                f"need as many down-weights as up-weights, got {len(up)} up and {len(down)} down"
            )
        object.__setattr__(self, "up", up)
        object.__setattr__(self, "down", down)

    @property
    def rank(self) -> int:
        return len(self.up)

    @property
    def is_all_ones(self) -> bool:
        return self.level == 1 and set(self.up) == {1} and set(self.down) == {1}

    @classmethod
    def all_ones(cls, rank: int) -> "WeightSpec":
        check_sizes("rank", rank, least=1)
        return cls((1,) * rank, 1, (1,) * rank)

    @classmethod
    def rank1(cls, u: int, level: int, d: int) -> "WeightSpec":
        return cls((u,), level, (d,))

    @classmethod
    def parse(cls, text: str) -> "WeightSpec":
        """Parse the text form ``u_1,..,u_r;l;d_1,..,d_r``."""
        parts = text.split(";")
        if len(parts) != 3:
            raise InvalidSpec(
                f"weight text must have three ';'-separated groups, got {text!r}"
            )

        def group(chunk):
            items = [s.strip() for s in chunk.split(",")]
            try:
                return tuple(int(s) for s in items)
            except ValueError:
                raise InvalidSpec(f"bad weight group {chunk!r} in {text!r}") from None

        up, lev, down = (group(p) for p in parts)
        if len(lev) != 1:
            raise InvalidSpec(f"exactly one level weight expected in {text!r}")
        return cls(up, lev[0], down)

    def format(self) -> str:
        """Inverse of :meth:`parse`."""
        return "{};{};{}".format(
            ",".join(map(str, self.up)), self.level, ",".join(map(str, self.down))
        )

    def step_types(self) -> tuple[tuple[int, int], ...]:
        """All (displacement, weight) pairs, ascending displacement."""
        r = self.rank
        out = [(-j, self.down[j - 1]) for j in range(r, 0, -1)]
        out.append((0, self.level))
        out.extend((j, self.up[j - 1]) for j in range(1, r + 1))
        return tuple(out)

    def weight_of(self, displacement: int) -> int:
        if displacement == 0:
            return self.level
        j = abs(displacement)
        if j > self.rank:
            raise InvalidPath(f"displacement {displacement} outside rank {self.rank}")
        return self.up[j - 1] if displacement > 0 else self.down[j - 1]


def capped_dp_rows(spec, n, start, end, colored=True):
    """Rows 0..n of the capped counting DP from height ``start``.

    Row i is capped at min(start + r*i, end + r*(n - i)), the highest a
    length-n path from ``start`` to ``end`` can be after i steps, and is
    returned cut at heights <= min(start + r*n, end).  Entry h of row i
    is the number of colored length-i paths from ``start`` to h, or of
    uncolored ones with ``colored`` unset.  The counts below and the
    enumeration guards in ``paths``, which imports the spec and this DP
    from here, share this one DP.
    """
    r = spec.rank
    types = [(d, w if colored else 1) for d, w in spec.step_types() if w > 0]
    caps = [min(start + r * i, end + r * (n - i)) for i in range(n + 1)]
    return backend.dp_rows(
        [d for d, _ in types], [w for _, w in types], n, start, caps
    )


def count_paths_dp(spec: WeightSpec, n: int, start: int = 0, end: int = 0) -> int:
    """Number of colored length-n paths from ``start`` to ``end``."""
    check_sizes("n, start, end", n, start, end)
    last = capped_dp_rows(spec, n, start, end)[n]
    return last[end] if end < len(last) else 0


def count_sequence(spec: WeightSpec, n_max: int, start: int = 0, end: int = 0) -> list[int]:
    """Counts for every length 0..n_max from one DP run.

    The caps for length n_max are only looser than those for n < n_max,
    and loosening a cap never changes a count, so row n of the same run
    is already the length-n answer.
    """
    check_sizes("n_max, start, end", n_max, start, end)
    rows = capped_dp_rows(spec, n_max, start, end)
    return [row[end] if end < len(row) else 0 for row in rows]


class CountTable:
    """Counts for all (n, s, t) with n <= n_max, s <= start_max, t <= end_max."""

    def __init__(self, spec, n_max, start_max=0, end_max=0):
        check_sizes("n_max, start_max, end_max", n_max, start_max, end_max)
        self.spec = spec
        self.n_max = n_max
        self.start_max = start_max
        self.end_max = end_max
        self._rows = {s: capped_dp_rows(spec, n_max, s, end_max) for s in range(start_max + 1)}

    def value(self, n, s, t) -> int:
        check_sizes("n, s, t", n, s, t)
        if not (n <= self.n_max and s <= self.start_max and t <= self.end_max):
            raise InvalidSpec(
                f"(n={n}, s={s}, t={t}) outside the table bounds "
                f"({self.n_max}, {self.start_max}, {self.end_max})"
            )
        row = self._rows[s][n]
        return row[t] if t < len(row) else 0


def rank1_explicit(u: int, l: int, d: int, n: int) -> int:
    """Closed-form rank-1 count; depends on u, d only through u*d."""
    WeightSpec.rank1(u, l, d)  # validate the weights
    check_sizes("n", n)
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
    from .recurrence import apply_recurrence, rank1_recurrence

    WeightSpec.rank1(u, l, d)
    check_sizes("n_max", n_max)
    return apply_recurrence(rank1_recurrence(u, l, d), [1, l], n_max + 1)


def rank2_prodinger_seq(n_max: int) -> list[int]:
    """Rank-2 all-ones counts via the seven-term relation.

    Seeds m_0..m_5 come from the DP; the rest is the polynomial-
    coefficient recurrence, with exact division checked at each step.
    """
    from .recurrence import apply_recurrence, prodinger_recurrence

    check_sizes("n_max", n_max)
    seeds = count_sequence(WeightSpec.all_ones(2), min(n_max, 5))
    if n_max <= 5:
        return seeds
    return apply_recurrence(prodinger_recurrence(), seeds, n_max + 1)
