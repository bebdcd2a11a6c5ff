"""Generating-function systems and the ordered-sweep series solver."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import motzkinrank as mr

# first-return decomposition of the symmetric all-ones rank-3 family,
# frozen as a readability oracle for build_system
RANK3_SYMMETRIC_RENDER = """\
A[0,0] = 1 + x*A[0,0] + x^2*A[0,0]*A[0,0] + 2*x^2*A[0,0]*A[1,0] + x^2*A[0,0]*A[1,1] + 2*x^2*A[0,0]*A[2,0] + 2*x^2*A[0,0]*A[2,1] + x^2*A[0,0]*A[2,2]
A[1,1] = A[0,0] + x*A[1,0]*A[0,0] + x*A[1,0]*A[1,0] + x*A[1,0]*A[2,0]
A[2,1] = A[1,0] + x*A[1,0]*A[1,0] + x*A[1,0]*A[1,1] + x*A[1,0]*A[2,1]
A[2,2] = A[1,1] + x*A[2,0]*A[1,0] + x*A[2,0]*A[1,1] + x*A[2,0]*A[2,1]
A[1,0] = x*A[0,0]*A[0,0] + x*A[0,0]*A[1,0] + x*A[0,0]*A[2,0]
A[2,0] = x*A[0,0]*A[1,0] + x*A[0,0]*A[1,1] + x*A[0,0]*A[2,1]"""


def test_rank1_system_render():
    system = mr.build_system(mr.WeightSpec.rank1(2, 3, 5))
    assert system.render() == "A[0,0] = 1 + 3*x*A[0,0] + 10*x^2*A[0,0]*A[0,0]"
    assert system.unknowns == ((0, 0),)


def test_rank3_symmetric_system_render():
    system = mr.build_system(mr.WeightSpec.all_ones(3), symmetric=True)
    assert system.render() == RANK3_SYMMETRIC_RENDER


def test_system_shapes():
    assert len(mr.build_system(mr.WeightSpec.all_ones(3)).unknowns) == 9
    assert len(mr.build_system(mr.WeightSpec.all_ones(3), symmetric=True).unknowns) == 6
    assert len(mr.build_system(mr.WeightSpec.all_ones(4), symmetric=True).unknowns) == 10
    with pytest.raises(mr.SymmetryRequiresAllOnes):
        mr.build_system(mr.WeightSpec.rank1(2, 1, 3), symmetric=True)
    with pytest.raises(mr.SymmetryRequiresAllOnes):
        mr.solve_series(mr.WeightSpec.parse("1,2;1;2,1"), 10, symmetric=True)


def test_solver_fixed_point_residual():
    for symmetric in (False, True):
        spec = mr.WeightSpec.all_ones(2)
        system = mr.build_system(spec, symmetric=symmetric)
        family = mr.solve_series(spec, 25, symmetric=symmetric)
        residuals = mr.system_residual(system, family)
        assert set(residuals) == set(lab for lab, _ in system.equations)
        for series in residuals.values():
            assert not any(series.coeffs)


def test_solver_general_weights_residual():
    spec = mr.WeightSpec.parse("2,1;3;1,2")
    system = mr.build_system(spec)
    family = mr.solve_series(spec, 20)
    for series in mr.system_residual(system, family).values():
        assert not any(series.coeffs)


@st.composite
def _solver_cases(draw):
    rank = draw(st.integers(1, 3))
    if draw(st.booleans()):
        spec = mr.WeightSpec.all_ones(rank)
    else:
        weights = st.lists(st.integers(0, 5), min_size=rank, max_size=rank)
        spec = mr.WeightSpec(draw(weights), draw(st.integers(0, 5)), draw(weights))
    return spec, draw(st.integers(1, 16))


@settings(max_examples=150, deadline=None)
@given(_solver_cases())
# evaluated in build order rather than by min(i, j), the symmetric rank-3
# solve gets A[1,2] and A[2,1] wrong in the top coefficient here
@example((mr.WeightSpec.all_ones(3), 12))
def test_solver_matches_dp_and_residual_property(case):
    spec, order = case
    families = []
    for symmetric in (False, True) if spec.is_all_ones else (False,):
        family = mr.solve_series(spec, order, symmetric=symmetric)
        system = mr.build_system(spec, symmetric=symmetric)
        for series in mr.system_residual(system, family).values():
            assert not any(series.coeffs)
        families.append(family)
    for s in range(spec.rank):
        for t in range(spec.rank):
            counts = mr.count_sequence(spec, order - 1, start=s, end=t)
            for family in families:
                assert list(family[s, t].coeffs) == counts, (spec, order, s, t)


def test_series_matches_dp():
    for text in ("1;1;1", "2;0;3", "1,1;1;1,1", "1,2,3;2;3,2,1"):
        spec = mr.WeightSpec.parse(text)
        series = mr.generating_series(spec, 16)
        assert list(series.coeffs) == mr.count_sequence(spec, 15)


def test_family_counts_all_endpoints():
    spec = mr.WeightSpec.all_ones(2)
    family = mr.solve_series(spec, 12)
    for s in range(2):
        for t in range(2):
            assert list(family[s, t].coeffs) == mr.count_sequence(
                spec, 11, start=s, end=t
            )


def test_symmetric_solve_mirrors_offdiagonal():
    family = mr.solve_series(mr.WeightSpec.all_ones(3), 15, symmetric=True)
    assert family[0, 2] == family[2, 0]
    assert family[1, 2] == family[2, 1]
    full = mr.solve_series(mr.WeightSpec.all_ones(3), 15)
    for s in range(3):
        for t in range(3):
            assert family[s, t] == full[s, t]


def test_generating_series_reduces_exactly_the_all_ones_specs(monkeypatch):
    solve = mr.genfunc.solve_series
    seen = []

    def spy(spec, order, symmetric=False):
        seen.append(symmetric)
        return solve(spec, order, symmetric)

    monkeypatch.setattr(mr.genfunc, "solve_series", spy)
    for text in ("1,1,1;1;1,1,1", "1,1,1;2;1,1,1", "1,2;1;2,1"):
        spec = mr.WeightSpec.parse(text)
        assert mr.generating_series(spec, 15) == solve(spec, 15)[0, 0]
    assert seen == [True, False, False]


def test_rank1_closed_form():
    for u, l, d in ((1, 1, 1), (2, 1, 3), (1, 0, 1), (2, 4, 1)):
        closed = mr.rank1_closed_form_series(u, l, d, 30)
        solved = mr.generating_series(mr.WeightSpec.rank1(u, l, d), 30)
        assert closed == solved


def test_solver_rejects_bad_order():
    with pytest.raises(ValueError):
        mr.solve_series(mr.WeightSpec.all_ones(1), 0)
