"""Path model, enumeration guards, and the recoloring bijection."""

import dataclasses
import hashlib
import json
import tracemalloc
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import motzkinrank as mr
from motzkinrank import paths


def test_weight_spec_parse_format_roundtrip():
    spec = mr.WeightSpec.parse("2,1;3;1,4")
    assert spec.up == (2, 1)
    assert spec.level == 3
    assert spec.down == (1, 4)
    assert spec.rank == 2
    assert mr.WeightSpec.parse(spec.format()) == spec
    assert mr.WeightSpec.parse(" 1 , 1 ; 1 ; 1 , 1 ") == mr.WeightSpec.all_ones(2)


@pytest.mark.parametrize(
    "text",
    ["1;1", "1;1;1;1", "a;1;1", "1,2;1;1,2,3", "1;1,2;1", "", ";;", "1;-1;1"],
)
def test_weight_spec_rejects_bad_text(text):
    with pytest.raises(mr.InvalidSpec):
        mr.WeightSpec.parse(text)


def test_weight_spec_validation():
    with pytest.raises(mr.InvalidSpec):
        mr.WeightSpec((1, 2), 1, (1,))  # up/down rank mismatch
    with pytest.raises(mr.InvalidSpec):
        mr.WeightSpec((), 1, ())
    with pytest.raises(mr.InvalidSpec):
        mr.WeightSpec((1,), 1, (-2,))
    with pytest.raises(mr.InvalidSpec):
        mr.WeightSpec.all_ones(0)
    assert mr.WeightSpec.rank1(2, 0, 3) == mr.WeightSpec((2,), 0, (3,))
    assert mr.WeightSpec.all_ones(3).is_all_ones
    assert not mr.WeightSpec.rank1(2, 1, 1).is_all_ones


def test_step_types_and_weight_of():
    spec = mr.WeightSpec((2, 5), 3, (1, 4))
    assert dict(spec.step_types()) == {1: 2, 2: 5, 0: 3, -1: 1, -2: 4}
    assert spec.weight_of(0) == 3
    assert spec.weight_of(-2) == 4
    with pytest.raises(mr.InvalidPath):
        spec.weight_of(3)


def test_path_text_roundtrip_and_weight():
    spec = mr.WeightSpec((2,), 3, (4,))
    path = mr.ColoredPath.from_text(spec, "+1:2,0:3,0:1,-1:4")
    assert path.to_text() == "+1:2,0:3,0:1,-1:4"
    assert len(path) == 4
    assert path.end_height == 0
    assert path.heights() == (0, 1, 1, 1, 0)
    # validate() returns the path itself for chaining
    assert path.validate() is path
    assert path.weight() == 2 * 3 * 3 * 4  # product of step-type weights
    pairs = ((1, 2), (0, 3), (0, 1), (-1, 4))
    assert path.steps == pairs
    assert mr.ColoredPath.from_step_pairs(spec, pairs) == path


def test_step_is_a_displacement_color_pair():
    assert mr.Step(-2) == mr.Step(-2, 1) == (-2, 1)
    step = mr.Step(1, 2)
    assert (step.displacement, step.color) == (1, 2)
    assert repr(step) == "Step(displacement=1, color=2)"
    with pytest.raises(AttributeError):
        step.color = 3
    assert {step: 1}[mr.Step(1, 2)] == 1
    assert hash(step) == hash((1, 2))


def test_path_validation_errors():
    spec = mr.WeightSpec.rank1(2, 1, 2)
    with pytest.raises(mr.InvalidPath):
        mr.ColoredPath.from_text(spec, "-1:1").validate()  # below axis
    with pytest.raises(mr.InvalidPath):
        mr.ColoredPath.from_text(spec, "+1:3,-1:1").validate()  # color > weight
    with pytest.raises(mr.InvalidPath):
        mr.ColoredPath.from_text(spec, "+1:1,-1:0").validate()  # colors start at 1
    with pytest.raises(mr.InvalidPath, match="start height -1 is negative"):
        mr.ColoredPath(spec, (), start_height=-1).validate()
    with pytest.raises(mr.InvalidPath):
        mr.ColoredPath.from_text(spec, "+2:1,-1:1,-1:1")  # step outside rank
    with pytest.raises(mr.InvalidPath):
        mr.ColoredPath.from_text(spec, "+1;1")  # missing the ':' separator
    with pytest.raises(mr.InvalidPath):
        mr.ColoredPath.from_text(spec, "+x:1")


@pytest.mark.parametrize("height", [True, 1.0, 2.0, "1"])
def test_start_height_must_be_an_int(height):
    # A bool or a float is no start height, even where it equals one.
    spec = mr.WeightSpec.rank1(2, 1, 2)
    with pytest.raises(mr.InvalidSpec, match="start height must be integers"):
        mr.ColoredPath.from_text(spec, "-1:1", height)
    with pytest.raises(mr.InvalidSpec):
        mr.ColoredPath(spec, (), height).validate()
    assert mr.ColoredPath.from_text(spec, "-1:1", 1).heights() == (1, 0)


def test_enumerate_matches_dp():
    for text in ("1;1;1", "2;1;3", "1,1;1;1,1"):
        spec = mr.WeightSpec.parse(text)
        for n in range(7):
            paths = mr.enumerate_paths(spec, n)
            assert len(paths) == mr.count_paths_dp(spec, n)
            assert len(set(paths)) == len(paths)
            for p in paths:
                p.validate()


def test_enumerate_uncolored_and_endpoints():
    spec = mr.WeightSpec.rank1(2, 1, 3)
    plain = mr.enumerate_paths(spec, 5, colored=False)
    assert len(plain) == mr.count_paths_dp(mr.WeightSpec.all_ones(1), 5)
    assert all(all(s.color == 1 for s in p.steps) for p in plain)
    lifted = mr.enumerate_paths(spec, 4, start=1, end=0)
    assert len(lifted) == mr.count_paths_dp(spec, 4, start=1, end=0)
    assert all(p.start_height == 1 and p.end_height == 0 for p in lifted)


def test_enumeration_with_zero_top_weights():
    # The top displacements (+3, -3) and the +2 step carry weight 0, so the
    # walker may only plan on rising by 1 and falling by 2 per step.
    spec = mr.WeightSpec((1, 0, 0), 1, (1, 2, 0))
    steps = [(dd, c) for dd, w in spec.step_types() for c in range(1, w + 1)]
    for start in range(4):
        for end in range(4):
            for n in range(9):
                found = mr.enumerate_paths(spec, n, start, end)
                assert len(found) == mr.count_paths_dp(spec, n, start, end)
                if n > 5:
                    continue
                # Same paths in the same order as a brute-force walk over
                # every step sequence, which is lexicographic by construction.
                brute = []
                for vec in product(steps, repeat=n):
                    heights = [start]
                    for dd, _ in vec:
                        heights.append(heights[-1] + dd)
                    if min(heights) >= 0 and heights[-1] == end:
                        brute.append(vec)
                assert [p.steps for p in found] == brute


# md5 over every path of the grid below and over the recoloring of
# (3;2;2) and back, one text line each, as the recursive walker and the
# dataclass steps gave them: any other route must give the same paths in
# the same order.
PINNED_DIGEST = Path(__file__).resolve().parent / "pinned" / "paths.md5"


def test_enumeration_and_recoloring_are_pinned():
    digest = hashlib.md5()
    count = 0
    for text in ("1;1;1", "2;0;3", "0;2;1", "1,1;1;1,1", "2,0;1;1,3", "1,2,1;0;1,0,2"):
        spec = mr.WeightSpec.parse(text)
        for n, s, t, colored in product(range(7), range(3), range(3), (True, False)):
            for p in mr.enumerate_paths(spec, n, s, t, colored):
                line = f"{text}|{n}|{s}|{t}|{colored}|{p.start_height}|{p.to_text()}\n"
                digest.update(line.encode())
                count += 1
    for n in range(7):
        for p in mr.enumerate_paths(mr.WeightSpec.rank1(3, 2, 2), n):
            image = mr.recolor_bijection(p)
            back = mr.recolor_inverse(image, 3, 2)
            digest.update(
                f"{n}|{p.to_text()}|{image.spec.format()}|{image.to_text()}|"
                f"{back.spec.format()}|{back.to_text()}\n".encode()
            )
            count += 1
    assert f"{count} {digest.hexdigest()}\n" == PINNED_DIGEST.read_text()


def test_enumeration_deeper_than_the_recursion_limit():
    # One level step of weight 1 and nothing else: a single path, walked
    # 2000 steps deep.
    found = mr.enumerate_paths(mr.WeightSpec.parse("0;1;0"), 2000, max_length=5000)
    assert len(found) == 1
    assert found[0].steps == (mr.Step(0, 1),) * 2000


def test_enumeration_guards(monkeypatch):
    spec = mr.WeightSpec.all_ones(1)
    with pytest.raises(mr.GuardExceeded):
        mr.enumerate_paths(spec, 13)
    assert len(mr.enumerate_paths(spec, 13, max_length=13)) == 41835
    with pytest.raises(mr.GuardExceeded):
        mr.enumerate_paths(spec, 8, max_paths=10)
    monkeypatch.setenv("MOTZKIN_MAX_ENUM", "10")
    with pytest.raises(mr.GuardExceeded):
        mr.enumerate_paths(spec, 8)
    monkeypatch.setenv("MOTZKIN_MAX_ENUM", "junk")
    with pytest.raises(mr.InvalidSpec):
        mr.enumerate_paths(spec, 8)


def test_find_pairs_stack_discipline():
    spec = mr.WeightSpec.all_ones(1)
    path = mr.ColoredPath.from_text(spec, "+1:1,0:1,+1:1,-1:1,0:1,-1:1")
    assert mr.find_pairs(path) == ((0, 5), (2, 3))
    with pytest.raises(mr.NotRankOne):
        mr.find_pairs(mr.ColoredPath.from_text(mr.WeightSpec.all_ones(2), "+2:1,-2:1"))
    with pytest.raises(mr.UnbalancedPath):
        mr.find_pairs(mr.ColoredPath.from_text(spec, "+1:1"))


def test_recolor_hand_example():
    spec = mr.WeightSpec.rank1(2, 1, 3)
    path = mr.ColoredPath.from_text(spec, "+1:2,0:1,-1:3")
    image = mr.recolor_bijection(path)
    # up color a=2, down color b=3 collapse to (a-1)*d + b = 6
    assert image.to_text() == "+1:1,0:1,-1:6"
    assert image.spec == mr.WeightSpec.rank1(1, 1, 6)
    assert mr.recolor_inverse(image, 2, 3) == path


def test_recolor_roundtrip_exhaustive():
    spec = mr.WeightSpec.rank1(2, 1, 2)
    for n in range(6):
        for path in mr.enumerate_paths(spec, n):
            image = mr.recolor_bijection(path)
            image.validate()
            assert mr.recolor_inverse(image, 2, 2) == path


def test_recolor_errors():
    with pytest.raises(mr.NotRankOne):
        mr.recolor_bijection(
            mr.ColoredPath.from_text(mr.WeightSpec.all_ones(2), "+2:1,-2:1")
        )
    collapsed = mr.ColoredPath.from_text(mr.WeightSpec.rank1(1, 1, 6), "+1:1,-1:6")
    with pytest.raises(mr.InvalidSpec):
        mr.recolor_inverse(collapsed, 2, 2)  # u*d does not match the spec
    # The target spec is built once per (u, l, d), yet True is not taken
    # for the cached weight 1.
    assert mr.recolor_inverse(collapsed, 1, 6).spec == mr.WeightSpec.rank1(1, 1, 6)
    with pytest.raises(mr.InvalidSpec, match="integers, got True"):
        mr.recolor_inverse(collapsed, True, 6)


def test_recoloring_report_small():
    report = mr.recoloring_report(2, 1, 3, 5)
    assert report.domain_size == mr.count_paths_dp(mr.WeightSpec.rank1(2, 1, 3), 5)
    assert report.codomain_size == mr.count_paths_dp(mr.WeightSpec.rank1(1, 1, 6), 5)
    assert report.domain_size == report.codomain_size == report.image_size
    assert report.image_in_codomain and report.roundtrip_ok and report.is_bijection
    with pytest.raises(mr.GuardExceeded):
        mr.recoloring_report(3, 2, 3, 8, max_paths=100)


def test_recoloring_report_length_guard():
    # (0;1;0) has one path of each length, so only the length guard stops
    # a walk n steps deep.
    with pytest.raises(mr.GuardExceeded, match="length 5000"):
        mr.recoloring_report(0, 1, 0, 5000)
    with pytest.raises(mr.GuardExceeded, match="length 13"):
        mr.recoloring_report(1, 1, 1, 13)
    assert mr.recoloring_report(1, 1, 1, 12).domain_size == 15511


def test_recoloring_report_negative_length():
    # As enumerate_paths does, and before any DP row is indexed.
    with pytest.raises(mr.InvalidSpec, match="nonnegative"):
        mr.recoloring_report(1, 1, 1, -1)
    with pytest.raises(mr.InvalidSpec):
        mr.enumerate_paths(mr.WeightSpec.rank1(1, 1, 1), -1)


def test_recoloring_report_holds_one_skeleton_at_a_time():
    # (2;1;3) at n = 8 has 53,593 colored paths; one key per path would
    # take about 7 MiB. The sweep holds no coloring and peaks near 80 KiB.
    tracemalloc.start()
    try:
        report = mr.recoloring_report(2, 1, 3, 8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.is_bijection and report.domain_size == 53593
    assert peak < 2**20


def _report_by_paths(u, level, d, n):
    # The report rebuilt path by path through the public maps.
    domain = mr.enumerate_paths(mr.WeightSpec.rank1(u, level, d), n)
    codomain = {p.to_text() for p in mr.enumerate_paths(mr.WeightSpec.rank1(1, level, u * d), n)}
    images = [mr.recolor_bijection(p) for p in domain]
    texts = {p.to_text() for p in images}
    return mr.RecoloringReport(
        u, level, d, n,
        domain_size=len(domain),
        codomain_size=len(codomain),
        image_size=len(texts),
        image_in_codomain=texts <= codomain,
        roundtrip_ok=all(
            mr.recolor_inverse(image, u, d).to_text() == p.to_text()
            for p, image in zip(domain, images)
        ),
    )


# Faulty pair or split maps, as (name in ``paths``, replacement).
_split = paths._split_color
FAULTY_MAPS = {
    # Forgetting the up color merges the u colorings of each pair.
    "non_injective_pair_map": ("_pair_color", lambda a, b, d: b),
    # Splitting every down color back to up color 1 undoes no pair with a > 1.
    "broken_inverse": ("_split_color", lambda c, d: (1, c)),
    # Shifting every collapsed color up by one sends the pair (u, d) to
    # color u*d + 1, which no codomain path carries.
    "image_outside_codomain": ("_pair_color", lambda a, b, d: (a - 1) * d + b + 1),
    # Only the color pair collapsed to 6 splits wrongly.
    "one_broken_color_pair": ("_split_color", lambda c, d: (1, c) if c == 6 else _split(c, d)),
}


# The path-by-path route walks every domain and codomain path, so each
# case keeps to lengths whose DP-predicted count stays within PATH_BUDGET.
PATH_BUDGET = 2 * 10**4


@st.composite
def _recoloring_cases(draw):
    """(u, level, d, n) with n <= 6 and at most PATH_BUDGET domain paths
    at every length up to n."""
    u, level, d = draw(st.integers(0, 4)), draw(st.integers(0, 3)), draw(st.integers(0, 4))
    counts = mr.count_sequence(mr.WeightSpec.rank1(u, level, d), 6)
    n_max = next((n - 1 for n, c in enumerate(counts) if c > PATH_BUDGET), 6)
    return u, level, d, draw(st.integers(0, n_max))


@settings(max_examples=50, deadline=None)
@given(_recoloring_cases())
def test_recoloring_report_matches_path_by_path_route(case):
    assert mr.recoloring_report(*case) == _report_by_paths(*case)


# At n = 1 no path has a pair, so no faulty pair map can show.
@pytest.mark.parametrize("case", [(2, 1, 3, 6), (3, 0, 2, 6), (1, 2, 4, 5), (2, 1, 3, 1)])
@pytest.mark.parametrize("faulty", sorted(FAULTY_MAPS))
def test_recoloring_report_matches_path_by_path_route_under_faulty_maps(monkeypatch, faulty, case):
    monkeypatch.setattr(paths, *FAULTY_MAPS[faulty])
    assert mr.recoloring_report(*case) == _report_by_paths(*case)


# Reports as the key-set sweep gave them: the C6 grid (u*d <= 9, level
# 0..2, n <= 8), the seven (u, l, d, n) of the bijection workload, and
# (2;1;3) at n = 6 under each faulty map.
PINNED_REPORTS = Path(__file__).resolve().parent / "pinned" / "recoloring_reports.json"


def test_recoloring_reports_are_pinned(monkeypatch):
    pinned = json.loads(PINNED_REPORTS.read_text())
    assert len(pinned["reports"]) == 628 and set(pinned["faulty"]) == set(FAULTY_MAPS)
    for want in pinned["reports"]:
        report = mr.recoloring_report(want["u"], want["level"], want["d"], want["n"])
        assert dataclasses.asdict(report) == want
    for faulty, want in pinned["faulty"].items():
        with monkeypatch.context() as patch:
            patch.setattr(paths, *FAULTY_MAPS[faulty])
            assert dataclasses.asdict(mr.recoloring_report(2, 1, 3, 6)) == want


def test_recoloring_report_catches_non_injective_pair_map(monkeypatch):
    monkeypatch.setattr(paths, *FAULTY_MAPS["non_injective_pair_map"])
    report = mr.recoloring_report(2, 1, 3, 6)
    assert report.image_size < report.domain_size
    assert not report.is_bijection
    # recolor_bijection reads the same pair map.
    path = mr.ColoredPath.from_text(mr.WeightSpec.rank1(2, 1, 3), "+1:2,-1:3")
    assert mr.recolor_bijection(path).to_text() == "+1:1,-1:3"


def test_recoloring_report_catches_broken_inverse(monkeypatch):
    monkeypatch.setattr(paths, *FAULTY_MAPS["broken_inverse"])
    report = mr.recoloring_report(2, 1, 3, 6)
    assert report.image_in_codomain
    assert report.domain_size == report.image_size == report.codomain_size
    assert not report.roundtrip_ok
    assert not report.is_bijection
    image = mr.ColoredPath.from_text(mr.WeightSpec.rank1(1, 1, 6), "+1:1,-1:6")
    assert mr.recolor_inverse(image, 2, 3).to_text() == "+1:1,-1:6"


def test_recoloring_report_catches_image_outside_codomain(monkeypatch):
    monkeypatch.setattr(paths, *FAULTY_MAPS["image_outside_codomain"])
    report = mr.recoloring_report(2, 1, 3, 6)
    assert report.domain_size == report.image_size == report.codomain_size
    assert not report.image_in_codomain
    assert not report.is_bijection


def test_recoloring_report_catches_one_broken_color_pair(monkeypatch):
    # Only the last color pair (u, d), collapsed to u*d = 6, splits wrongly;
    # the round-trip must reach it on a skeleton after the first.
    monkeypatch.setattr(paths, *FAULTY_MAPS["one_broken_color_pair"])
    report = mr.recoloring_report(2, 1, 3, 6)
    assert report.image_in_codomain
    assert report.domain_size == report.image_size == report.codomain_size
    assert not report.roundtrip_ok
    assert not report.is_bijection


def _patch_target_skeletons(monkeypatch, edit):
    # Apply ``edit`` to the skeleton stream of the target spec (1;1;6) only.
    skeletons = paths._skeletons

    def patched(spec, n):
        found = skeletons(spec, n)
        return edit(found) if spec == mr.WeightSpec.rank1(1, 1, 6) else found

    monkeypatch.setattr(paths, "_skeletons", patched)


def test_recoloring_report_catches_codomain_missing_a_skeleton(monkeypatch):
    # The dropped skeleton has 6 * 6 = 36 colorings under (1;1;6); the 36
    # domain paths on it have no codomain path to land on.
    full = mr.recoloring_report(2, 1, 3, 6)
    dropped = (1, 0, -1, 1, 0, -1)
    _patch_target_skeletons(monkeypatch, lambda found: (s for s in found if s != dropped))
    report = mr.recoloring_report(2, 1, 3, 6)
    assert report.domain_size == report.image_size == full.domain_size
    assert report.codomain_size == full.codomain_size - 36
    assert not report.image_in_codomain
    assert not report.is_bijection


def test_recoloring_report_catches_codomain_skeleton_outside_domain(monkeypatch):
    # The extra skeleton sorts between two real ones and has one coloring
    # under (1;1;6); no domain path maps onto it.
    full = mr.recoloring_report(2, 1, 3, 6)
    extra = (0, 0, 0, 0, 0, 1)
    _patch_target_skeletons(monkeypatch, lambda found: iter(sorted([*found, extra])))
    report = mr.recoloring_report(2, 1, 3, 6)
    assert report.domain_size == report.image_size == full.domain_size
    assert report.codomain_size == full.codomain_size + 1
    assert report.image_in_codomain
    assert not report.is_bijection
