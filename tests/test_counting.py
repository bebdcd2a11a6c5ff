"""Dynamic-programming counters against enumeration and known sequences."""

import functools
import random

import pytest

import motzkinrank as mr
from motzkinrank import backend
from motzkinrank.paths import capped_dp_rows

MOTZKIN = [1, 1, 2, 4, 9, 21, 51, 127, 323, 835, 2188]


def test_motzkin_numbers():
    assert mr.count_sequence(mr.WeightSpec.all_ones(1), 10) == MOTZKIN


def test_dp_matches_enumeration():
    for text in ("2;1;3", "1,1;1;1,1", "1,2,1;2;2,1,1"):
        spec = mr.WeightSpec.parse(text)
        for n in range(6):
            for start in range(3):
                for end in range(3):
                    got = mr.count_paths_dp(spec, n, start=start, end=end)
                    want = len(mr.enumerate_paths(spec, n, start=start, end=end))
                    assert got == want, (text, n, start, end)


def test_count_sequence_matches_pointwise():
    spec = mr.WeightSpec.parse("1,2;0;2,1")
    seq = mr.count_sequence(spec, 25, start=1, end=0)
    assert seq == [mr.count_paths_dp(spec, n, start=1, end=0) for n in range(26)]


def test_count_table():
    spec = mr.WeightSpec.all_ones(2)
    table = mr.CountTable(spec, 6, start_max=2, end_max=2)
    for n in range(7):
        for s in range(3):
            for t in range(3):
                assert table.value(n, s, t) == mr.count_paths_dp(spec, n, start=s, end=t)
    with pytest.raises(mr.InvalidSpec):
        table.value(7, 0, 0)
    with pytest.raises(mr.InvalidSpec):
        table.value(3, 3, 0)


def test_argument_validation():
    spec = mr.WeightSpec.all_ones(1)
    with pytest.raises(mr.InvalidSpec):
        mr.count_paths_dp(spec, -1)
    with pytest.raises(mr.InvalidSpec):
        mr.count_sequence(spec, 5, start=-2)
    with pytest.raises(mr.InvalidSpec):
        mr.rank1_explicit(1, 1, 1, -3)
    with pytest.raises(mr.InvalidSpec):
        mr.rank1_recurrence_seq(1, 1, 1, -1)
    with pytest.raises(mr.InvalidSpec):
        mr.rank2_prodinger_seq(-1)
    # Sizes that once raised ValueError still do.
    assert issubclass(mr.InvalidSpec, ValueError)


@pytest.mark.parametrize(
    "call",
    [
        lambda spec: mr.count_sequence(spec, 3, True, 0),
        lambda spec: mr.count_sequence(spec, 3, 0, False),
        lambda spec: mr.count_sequence(spec, 3.0),
        lambda spec: mr.count_paths_dp(spec, 2.0),
        lambda spec: mr.count_paths_dp(spec, True),
        lambda spec: mr.count_paths_dp(spec, 2, start="1"),
        lambda spec: mr.CountTable(spec, 4, start_max=True),
        lambda spec: mr.CountTable(spec, 4.0),
        lambda spec: mr.CountTable(spec, 4).value(True, 0, 0),
        lambda spec: mr.CountTable(spec, 4).value(2.0, 0, 0),
        lambda spec: mr.enumerate_paths(spec, True),
        lambda spec: mr.enumerate_paths(spec, 2.0),
        lambda spec: mr.enumerate_paths(spec, 2, max_paths=True),
        lambda spec: mr.enumerate_paths(spec, 2, max_paths=10.0),
        lambda spec: mr.enumerate_paths(spec, 2, max_length=True),
        lambda spec: mr.enumerate_paths(spec, 2, max_length=12.0),
        lambda spec: mr.recoloring_report(1, 1, 1, True),
        lambda spec: mr.recoloring_report(1, 1, 1, 2.0),
        lambda spec: mr.recoloring_report(1, 1, 1, 2, max_paths=True),
        lambda spec: mr.recoloring_report(1, 1, 1, 2, max_paths=10.0),
        lambda spec: mr.rank1_explicit(1, 1, 1, True),
        lambda spec: mr.rank1_explicit(1, 1, 1, 2.0),
        lambda spec: mr.rank1_recurrence_seq(1, 1, 1, True),
        lambda spec: mr.rank1_recurrence_seq(1, 1, 1, 2.0),
        lambda spec: mr.rank2_prodinger_seq(7.0),
        lambda spec: mr.WeightSpec.all_ones(True),
        lambda spec: mr.WeightSpec.all_ones(2.0),
        lambda spec: mr.rank2_general_sextic(1, 1, True, 1, 1),
        lambda spec: mr.rank2_general_sextic(1, 1, 1.0, 1, 1),
        lambda spec: mr.solve_series(spec, True),
        lambda spec: mr.solve_series(spec, 2.0),
        lambda spec: mr.rank1_closed_form_series(1, 1, 1, True),
        lambda spec: mr.rank1_closed_form_series(1, 1, 1, 2.0),
        lambda spec: mr.guess_recurrence(mr.count_sequence(spec, 40), True, 2),
        lambda spec: mr.guess_recurrence(mr.count_sequence(spec, 40), 2.0, 1),
        lambda spec: mr.guess_recurrence(mr.count_sequence(spec, 40), 5, 4, guard=False),
        lambda spec: mr.minimality_scan(mr.count_sequence(spec, 40), 2, True),
        lambda spec: mr.minimality_scan(mr.count_sequence(spec, 40), 2, 1.0),
        lambda spec: mr.apply_recurrence(mr.motzkin_recurrence(), [1, 1], True),
        lambda spec: mr.apply_recurrence(mr.motzkin_recurrence(), [1, 1], 3.0),
        lambda spec: mr.guess_algebraic_equation(mr.generating_series(spec, 20), True),
        lambda spec: mr.guess_algebraic_equation(mr.generating_series(spec, 20), 2.0),
        lambda spec: mr.verify_algebraic_equation(
            mr.reference_equation(1), mr.generating_series(spec, 20), True
        ),
        lambda spec: mr.verify_algebraic_equation(
            mr.reference_equation(1), mr.generating_series(spec, 20), 4.0
        ),
        lambda spec: mr.CoeffSeries([1], order=True),
        lambda spec: mr.CoeffSeries([1], order=2.0),
        lambda spec: mr.catalan_series(4) ** True,
        lambda spec: mr.catalan_series(4) ** 2.0,
        lambda spec: mr.catalan_series(4).shift(True),
        lambda spec: mr.catalan_series(4).shift(2.0),
        lambda spec: mr.catalan_series(True),
        lambda spec: mr.catalan_series(2.0),
    ],
)
def test_sizes_must_be_ints_not_bools(call):
    # A bool once counted as 0 or 1 and a float escaped from range().
    with pytest.raises(mr.InvalidSpec, match="must be integers"):
        call(mr.WeightSpec.all_ones(1))


def test_rank1_explicit_and_recurrence_agree_with_dp():
    for u, l, d in ((1, 1, 1), (2, 1, 3), (1, 0, 1), (3, 2, 1), (2, 0, 2)):
        dp = mr.count_sequence(mr.WeightSpec.rank1(u, l, d), 20)
        assert [mr.rank1_explicit(u, l, d, n) for n in range(21)] == dp
        assert mr.rank1_recurrence_seq(u, l, d, 20) == dp


def test_rank1_recurrence_matches_dp_on_every_small_weight():
    for u in range(4):
        for l in range(4):
            for d in range(4):
                dp = mr.count_sequence(mr.WeightSpec.rank1(u, l, d), 60)
                assert mr.rank1_recurrence_seq(u, l, d, 60) == dp
                assert mr.rank1_recurrence_seq(u, l, d, 0) == [1]


def test_rank1_explicit_collapse():
    # counts depend on u and d only through the product u*d
    assert [mr.rank1_explicit(2, 1, 3, n) for n in range(15)] == [
        mr.rank1_explicit(6, 1, 1, n) for n in range(15)
    ]


def test_prodinger_seq_matches_dp():
    assert mr.rank2_prodinger_seq(40) == mr.count_sequence(mr.WeightSpec.all_ones(2), 40)


def test_large_n_counts_are_exact():
    # 200-digit scale; spot value checked against an independent run of
    # the series solver
    seq = mr.count_sequence(mr.WeightSpec.all_ones(2), 120)
    assert seq[120] == mr.generating_series(mr.WeightSpec.all_ones(2), 121)[120]
    assert seq[120] > 10**55


def _reference_rows(deltas, weights, n, start, caps):
    # Full rows, one height at a time; the kernel must agree with them on
    # every height it returns.
    first = [0] * (caps[0] + 1)
    if 0 <= start <= caps[0]:
        first[start] = 1
    rows = [first]
    for i in range(1, n + 1):
        cur = [0] * (caps[i] + 1)
        for d, w in zip(deltas, weights):
            for h in range(max(d, 0), min(caps[i], caps[i - 1] + d) + 1):
                cur[h] += rows[i - 1][h - d] * w
        rows.append(cur)
    return rows


def _random_spec(rng):
    # Weights 0..4, half of them 0, so that some specs stay small enough
    # to enumerate at n = 12.
    def weight():
        return rng.choice((0, 0, 0, 0, 1, 2, 3, 4))

    rank = rng.randint(1, 3)
    return mr.WeightSpec(
        tuple(weight() for _ in range(rank)), weight(), tuple(weight() for _ in range(rank))
    )


def test_dp_rows_returns_rows_cut_at_last_cap():
    rng = random.Random(5)
    for _ in range(300):
        spec = _random_spec(rng)
        r = spec.rank
        start, end, n = rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 12)
        deltas = [d for d, _ in spec.step_types()]
        weights = [w for _, w in spec.step_types()]
        for caps in (
            [min(start + r * i, end + r * (n - i)) for i in range(n + 1)],
            [max(start, rng.randint(0, 3 * r)) for _ in range(n + 1)],
        ):
            got = backend.dp_rows(deltas, weights, n, start, caps)
            want = _reference_rows(deltas, weights, n, start, caps)
            assert len(got) == n + 1
            for i, row in enumerate(got):
                assert len(row) == min(caps[i], caps[n]) + 1, (spec, start, caps, i)
                assert row == want[i][: caps[n] + 1], (spec, start, caps, i)


def test_counts_match_enumeration_on_random_specs():
    rng = random.Random(6)
    for case in range(150):
        spec = _random_spec(rng)
        r = spec.rank
        start, end = rng.randint(0, 3), rng.randint(0, 3)
        n = 0 if case % 10 == 0 else rng.randint(0, 12)
        deltas = [d for d, _ in spec.step_types()]
        weights = [w for _, w in spec.step_types()]
        # Enumeration walks at most every colored prefix that stays >= 0,
        # so the uncapped reference rows bound its work; n shrinks until
        # the (n+1)(end+1) walks from each start stay cheap.
        while n:
            prefixes = sum(
                sum(map(sum, _reference_rows(deltas, weights, n, s, [s + r * i for i in range(n + 1)])))
                for s in range(start + 1)
            )
            if (n + 1) * (end + 1) * prefixes <= 100_000:
                break
            n -= 1

        @functools.cache
        def enum(m, s, t, colored=True):
            return len(mr.enumerate_paths(spec, m, start=s, end=t, colored=colored))

        counts = [enum(m, start, end) for m in range(n + 1)]
        assert mr.count_sequence(spec, n, start=start, end=end) == counts, (spec, start, end)
        assert mr.count_paths_dp(spec, n, start=start, end=end) == counts[n]
        table = mr.CountTable(spec, n, start_max=start, end_max=end)
        for m in range(n + 1):
            for s in range(start + 1):
                for t in range(end + 1):
                    assert table.value(m, s, t) == enum(m, s, t), (spec, m, s, t)
        last = capped_dp_rows(spec, n, start, end, colored=False)[n]
        uncolored = last[end] if end < len(last) else 0
        assert uncolored == enum(n, start, end, colored=False)


def test_rows_stop_short_of_unreachable_end():
    spec = mr.WeightSpec.all_ones(1)
    # start + r*n < end: no row reaches height `end`, and every count is 0
    rows = capped_dp_rows(spec, 2, 0, 3)
    assert [len(row) for row in rows] == [1, 2, 3]
    assert mr.count_sequence(spec, 2, start=0, end=3) == [0, 0, 0]
    assert mr.count_paths_dp(spec, 2, start=0, end=3) == 0
    assert mr.CountTable(spec, 2, end_max=3).value(2, 0, 3) == 0
    # n = 0: the single empty path, and only when start == end
    assert capped_dp_rows(spec, 0, 2, 2) == [[0, 0, 1]]
    assert mr.count_sequence(spec, 0, start=2, end=2) == [1]
    assert mr.count_paths_dp(spec, 0, start=1, end=2) == 0
    assert mr.CountTable(spec, 0, start_max=2, end_max=2).value(0, 2, 2) == 1
