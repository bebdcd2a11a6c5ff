"""Path model, enumeration guards, and the recoloring bijection."""

import tracemalloc
from itertools import product

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
    pairs = path.step_pairs()
    assert pairs == ((1, 2), (0, 3), (0, 1), (-1, 4))
    assert mr.ColoredPath.from_step_pairs(spec, pairs) == path


def test_path_validation_errors():
    spec = mr.WeightSpec.rank1(2, 1, 2)
    with pytest.raises(mr.InvalidPath):
        mr.ColoredPath.from_text(spec, "-1:1").validate()  # below axis
    with pytest.raises(mr.InvalidPath):
        mr.ColoredPath.from_text(spec, "+1:3,-1:1").validate()  # color > weight
    with pytest.raises(mr.InvalidPath):
        mr.ColoredPath.from_text(spec, "+1:1,-1:0").validate()  # colors start at 1
    with pytest.raises(mr.InvalidPath):
        mr.ColoredPath(spec, (), start_height=-1).validate()
    with pytest.raises(mr.InvalidPath):
        mr.ColoredPath.from_text(spec, "+2:1,-1:1,-1:1")  # step outside rank
    with pytest.raises(mr.InvalidPath):
        mr.ColoredPath.from_text(spec, "+1;1")  # missing the ':' separator
    with pytest.raises(mr.InvalidPath):
        mr.ColoredPath.from_text(spec, "+x:1")


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
                assert [p.step_pairs() for p in found] == brute


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
    matching = mr.find_pairs(path)
    assert sorted(matching.pairs) == [(0, 5), (2, 3)]
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
    # a recursion n levels deep.
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
    # (2;1;3) at n = 8 has 53,593 colored paths. Keying the whole image and
    # codomain at once takes about 7 MiB; the streamed sweep peaks under 0.5 MiB.
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


@settings(max_examples=50, deadline=None)
@given(
    u=st.integers(0, 4),
    level=st.integers(0, 3),
    d=st.integers(0, 4),
    n=st.integers(0, 6),
)
def test_recoloring_report_matches_path_by_path_route(u, level, d, n):
    assert mr.recoloring_report(u, level, d, n) == _report_by_paths(u, level, d, n)


def test_recoloring_report_catches_non_injective_pair_map(monkeypatch):
    # Forgetting the up color merges the u colorings of each pair.
    monkeypatch.setattr(paths, "_pair_color", lambda a, b, d: b)
    report = mr.recoloring_report(2, 1, 3, 6)
    assert report.image_size < report.domain_size
    assert not report.is_bijection
    # recolor_bijection reads the same pair map.
    path = mr.ColoredPath.from_text(mr.WeightSpec.rank1(2, 1, 3), "+1:2,-1:3")
    assert mr.recolor_bijection(path).to_text() == "+1:1,-1:3"


def test_recoloring_report_catches_broken_inverse(monkeypatch):
    # Splitting every down color back to up color 1 undoes no pair with a > 1.
    monkeypatch.setattr(paths, "_split_color", lambda c, d: (1, c))
    report = mr.recoloring_report(2, 1, 3, 6)
    assert report.image_in_codomain
    assert report.domain_size == report.image_size == report.codomain_size
    assert not report.roundtrip_ok
    assert not report.is_bijection
    image = mr.ColoredPath.from_text(mr.WeightSpec.rank1(1, 1, 6), "+1:1,-1:6")
    assert mr.recolor_inverse(image, 2, 3).to_text() == "+1:1,-1:6"


def test_recoloring_report_catches_image_outside_codomain(monkeypatch):
    # Shifting every collapsed color up by one sends the pair (u, d) to
    # color u*d + 1, which no codomain path carries.
    monkeypatch.setattr(paths, "_pair_color", lambda a, b, d: (a - 1) * d + b + 1)
    report = mr.recoloring_report(2, 1, 3, 6)
    assert report.domain_size == report.image_size == report.codomain_size
    assert not report.image_in_codomain
    assert not report.is_bijection


def test_recoloring_report_catches_one_broken_color_pair(monkeypatch):
    # Only the last color pair (u, d), collapsed to u*d = 6, splits wrongly;
    # the round-trip must reach it on a skeleton after the first.
    split = paths._split_color
    monkeypatch.setattr(
        paths, "_split_color", lambda c, d: (1, c) if c == 6 else split(c, d)
    )
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
