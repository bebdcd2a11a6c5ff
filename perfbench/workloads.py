"""The four workloads: seeded batches, the timed operation, and its check.

Each workload is the only place where one layer of the library does
most of the work:

* ``rediscover``: series -> algebraic equation (``genfunc`` and
  ``backend.conv_trunc``, then the modular guess);
* ``count``: large-n exact counting (``backend.dp_rows``);
* ``guess-rec``: P-recurrence guessing (``linalg`` with
  ``modp_echelon`` and the ``bareiss_echelon`` fallback);
* ``bijection``: the exhaustive recoloring sweep (``paths``).

A batch is a fixed mix of operation classes; the seed only picks the
weights and endpoints inside each class, so the share of every class
is the same for every seed, and one seed always gives the same inputs
(and so the same kernel call counts).  The program receives only the
generated specs and terms.  Every operation
result is checked afterwards, outside the timed interval, by a route
that does not go through the code being timed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, NamedTuple

from motzkinrank import algebraic, counting, genfunc, paths, recurrence
from motzkinrank.errors import MotzkinError
from motzkinrank.paths import WeightSpec


@dataclass(frozen=True)
class Op:
    """One timed operation: ``args`` go to the program, ``ref`` only to
    the check."""

    kind: str
    label: str
    args: tuple
    ref: Any = None


class Workload(NamedTuple):
    batch: Callable[..., list]  # (rng, tiny) -> [Op]
    run: Callable[..., Any]  # (*op.args) -> comparable result
    check: Callable[..., bool]  # (op, result) -> passed


def _spec(up, level, down):
    return WeightSpec(tuple(up), level, tuple(down))


def _spread(big, small):
    """Small operations split evenly around the big ones, so their times
    sample the whole batch rather than one stretch of it."""
    out = []
    for i, op in enumerate([None, *big]):
        if op is not None:
            out.append(op)
        lo, hi = (len(small) * i // (len(big) + 1), len(small) * (i + 1) // (len(big) + 1))
        out.extend(small[lo:hi])
    return out


def _annihilates(coeffs, f):
    """P(x, F(x)) == 0 mod x^len(f), by schoolbook Horner in y."""
    n = len(f)
    acc = [0] * n
    for poly in reversed(coeffs):
        acc = [sum(acc[j] * f[k - j] for j in range(k + 1) if acc[j]) for k in range(n)]
        for j, c in enumerate(poly[:n]):
            acc[j] += c
    return not any(acc)


# --- rediscover ----------------------------------------------------------


def _rediscover_batch(rng, tiny):
    r, o, y = (2, 40, 4) if tiny else (3, 120, 8)
    big = [Op("all-ones", f"rank {r} order {o}", (WeightSpec.all_ones(r), o, y))]
    ops = []
    order = 40 if tiny else 60
    for _ in range(1 if tiny else 6):
        spec = _spec([rng.randint(1, 5) for _ in range(2)], rng.randint(1, 5),
                     [rng.randint(1, 5) for _ in range(2)])
        ops.append(Op("rank-2", f"{spec.format()} order {order}", (spec, order, 6)))
    for _ in range(1 if tiny else 3):
        spec = WeightSpec.rank1(rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5))
        ops.append(Op("rank-1", f"{spec.format()} order {order}", (spec, order, 2)))
    return _spread(big, ops)


def _rediscover(spec, order, max_y_degree):
    series = genfunc.solve_series(spec, order, symmetric=spec.is_all_ones)[0, 0]
    eq = algebraic.guess_algebraic_equation(series, max_y_degree).equation
    verified = eq is not None and algebraic.verify_algebraic_equation(eq, series)
    return series.coeffs, (eq.coeffs if eq is not None else None), verified


def _reference_equation(spec):
    if spec.is_all_ones:
        return algebraic.reference_equation(spec.rank).coeffs
    (u1, *u2), l, (d1, *d2) = spec.up, spec.level, spec.down
    # At u2 = d2 = 0 the sextic collapses to the rank-1 quadratic.
    return algebraic.rank2_general_sextic(u1, u2[0] if u2 else 0, l, d1, d2[0] if d2 else 0).coeffs


def _check_rediscover(op, result):
    spec, order, _ = op.args
    coeffs, eq, verified = result
    dp = counting.count_sequence(spec, order - 1)
    ref = _reference_equation(spec)
    return (
        verified
        and eq is not None
        and list(coeffs) == dp
        and _annihilates(eq, dp)
        and _annihilates(ref, dp)
        and len(eq) <= len(ref)
    )


# --- count ---------------------------------------------------------------

# Work of one seeded counting operation, in DP cell-steps weighted by the
# size of the numbers in them; n is chosen per spec to reach it, so the
# seeded operations cost about the same whatever weights the seed draws.
_COUNT_WORK = 8e6
_COUNT_WORK_TINY = 2e4


def _count_work(spec, n, start, end, growth):
    r = spec.rank
    steps = sum(1 for _, w in spec.step_types() if w > 0)
    work = 0.0
    for i in range(1, n + 1):
        cap = min(start + r * i, end + r * (n - i))
        work += (cap + 1) * (4.0 + i * growth)
    return work * steps


def _count_length(spec, start, end, target):
    # Bits gained per step, from a short run; the DP is exact, so the
    # probe only sizes the operation.
    probe = counting.count_sequence(spec, 64, start, end)
    growth = max(1, probe[-1].bit_length(), probe[-2].bit_length()) / 64 / 30
    lo, hi = 1, 1
    while _count_work(spec, hi, start, end, growth) < target:
        lo, hi = hi, hi * 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _count_work(spec, mid, start, end, growth) < target:
            lo = mid
        else:
            hi = mid
    return hi


def _seeded_count_spec(rng, rank):
    while True:
        up = [rng.randint(0, 5) for _ in range(rank)]
        down = [rng.randint(0, 5) for _ in range(rank)]
        spec = _spec(up, rng.randint(0, 5), down)
        if rank == 1:
            start = end = 0
        else:
            start, end = rng.randint(1, rank), rng.randint(1, rank)
        # Some path must exist at every long enough length, or the
        # operation degenerates into counting zeros.
        if any(up) and any(down) and all(counting.count_sequence(spec, 64, start, end)[-2:]):
            return spec, start, end


def _count_batch(rng, tiny):
    fixed = ((2, 60), (3, 40)) if tiny else ((2, 1200), (8, 300))
    big = [
        Op("all-ones", f"rank {r} n {n} 0->0", (WeightSpec.all_ones(r), n, 0, 0))
        for r, n in fixed
    ]
    ops = []
    target = _COUNT_WORK_TINY if tiny else _COUNT_WORK
    for rank in (1, 2) if tiny else (1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8):
        spec, start, end = _seeded_count_spec(rng, rank)
        n = _count_length(spec, start, end, target)
        ops.append(Op(f"rank-{rank}", f"{spec.format()} n {n} {start}->{end}",
                      (spec, n, start, end)))
    return _spread(big, ops)


def _count(spec, n, start, end):
    return tuple(counting.count_sequence(spec, n, start, end))


def _check_count(op, result):
    spec, n, start, end = op.args
    if len(result) != n + 1:
        return False
    # Exhaustive enumeration for the short lengths.
    for i in range(min(n, 10) + 1):
        if result[i] > 5000:
            break
        try:
            if len(paths.enumerate_paths(spec, i, start, end)) != result[i]:
                return False
        except MotzkinError:
            return False
    if spec.rank == 1:
        (u,), l, (d,) = spec.up, spec.level, spec.down
        return (list(result) == counting.rank1_recurrence_seq(u, l, d, n)
                and result[n] == counting.rank1_explicit(u, l, d, n))
    if spec == WeightSpec.all_ones(2) and start == end == 0:
        return list(result) == counting.rank2_prodinger_seq(n)
    return True


# --- guess-rec -----------------------------------------------------------

# Rank-2 specs sorted by how recurrence guessing on their first 120
# counts ends, all with (10, 7) as the grid bound:
# * "small": a (5, 4) relation of small coefficients, found early;
# * "modular": a (10, 7) relation that the modular route reconstructs;
# * "fallback": a (10, 7) relation whose coefficients exceed the reach of
#   the CRT primes, so linalg falls back to exact Bareiss elimination.
# Reversing every path swaps the up and down weights and keeps the
# counts, so each spec's mirror lands in the same class at the same cost.
_REC_POOLS = {
    "small": ("1,1;1;1,1", "1,1;2;1,1", "2,2;1;2,2", "1,2;1;1,2", "1,2;2;1,2",
              "2,1;1;2,1", "1,3;1;1,3", "1,3;2;1,3", "2,3;1;2,3", "2,3;2;2,3"),
    "modular": ("1,1;2;2,1", "1,1;1;2,2", "1,1;2;2,2", "1,1;1;3,1", "1,2;1;2,1",
                "1,2;2;3,1", "2,1;1;3,1", "2,1;2;3,1", "1,2;1;3,3"),
    "fallback": ("1,2;1;1,3", "1,2;2;1,3", "1,2;1;2,3", "1,2;2;2,3"),
}
_REC_FULL = (_REC_POOLS, (("small", 7), ("modular", 1), ("fallback", 1)), 120, (10, 7))
_REC_TINY = ({"small": ("1;1;1", "2;1;3", "1,1;1;1,1")}, (("small", 2),), 50, (5, 4))


def _mirror(spec):
    return WeightSpec(spec.down, spec.level, spec.up)


def _guess_rec_batch(rng, tiny):
    pools, mix, terms, grid = _REC_TINY if tiny else _REC_FULL
    ops = []
    for cls, k in mix:
        for text in rng.sample(pools[cls], k):
            spec = WeightSpec.parse(text)
            if rng.random() < 0.5:
                spec = _mirror(spec)
            seq = tuple(counting.count_sequence(spec, terms - 1))
            ops.append(Op(cls, f"{spec.format()} terms {terms}", (seq, *grid), spec))
    return _spread([op for op in ops if op.kind != "small"], [op for op in ops if op.kind == "small"])


def _guess_rec(terms, max_order, max_degree):
    rec = recurrence.guess_recurrence(terms, max_order, max_degree)
    if rec is None:
        return None
    return rec.coeff_polys, tuple(recurrence.apply_recurrence(rec, terms, 2 * len(terms)))


def _check_guess_rec(op, result):
    if result is None:
        return False
    _, extended = result
    return list(extended) == counting.count_sequence(op.ref, len(extended) - 1)


# --- bijection -----------------------------------------------------------

# (u, l, d, n) with u, d in 1..3 and l in 0..2 whose domain holds 2e5 to
# 3e5 paths, in three strata of near-equal sweep time (about 2.1, 2.7 and
# 3.2 s with the pure backend on a 2-vCPU Xeon VM); a batch sweeps one
# member of each.  The last stratum, which sets the peak memory, is a
# pair with equal path counts.
_BIJ_STRATA = (
    ((3, 1, 3, 8), (1, 2, 3, 9), (3, 2, 1, 9)),
    ((2, 2, 3, 8), (3, 2, 2, 8)),
    ((2, 1, 3, 9), (3, 1, 2, 9)),
)
_BIJ_TINY = (((1, 1, 2, 6), (2, 0, 1, 8)),)


def _bijection_batch(rng, tiny):
    picks = [rng.choice(stratum) for stratum in (_BIJ_TINY if tiny else _BIJ_STRATA)]
    return [Op("sweep", f"({u};{l};{d}) n {n}", (u, l, d, n)) for u, l, d, n in picks]


def _bijection(u, l, d, n):
    return paths.recoloring_report(u, l, d, n)


def _check_bijection(op, report):
    u, l, d, n = op.args
    return (
        report.is_bijection
        and report.domain_size == counting.count_paths_dp(WeightSpec.rank1(u, l, d), n)
        and report.codomain_size == counting.count_paths_dp(WeightSpec.rank1(1, l, u * d), n)
    )


WORKLOADS = {
    "rediscover": Workload(_rediscover_batch, _rediscover, _check_rediscover),
    "count": Workload(_count_batch, _count, _check_count),
    "guess-rec": Workload(_guess_rec_batch, _guess_rec, _check_guess_rec),
    "bijection": Workload(_bijection_batch, _bijection, _check_bijection),
}
