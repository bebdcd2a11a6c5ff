"""Algebraic equations: verification, guessing, reference transcriptions."""

import pytest

import motzkinrank as mr
from motzkinrank import AlgebraicEquation


@pytest.fixture(scope="module")
def motzkin40():
    return mr.generating_series(mr.WeightSpec.all_ones(1), 40)


def scaled(eq, k):
    return AlgebraicEquation(tuple(tuple(k * c for c in p) for p in eq.coeffs))


def test_basic_accessors():
    eq = AlgebraicEquation(((2,), (0, 4), ()))
    assert eq.y_degree == 1  # trailing zero polynomial is trimmed
    assert eq.content() == 2
    with pytest.raises(ValueError):
        AlgebraicEquation(((), ()))


def test_normalization():
    quad = mr.reference_equation(1)
    assert scaled(quad, 6).normalized() == quad.normalized()
    assert scaled(quad, -6).normalized() == quad.normalized()
    assert quad.normalized().content() == 1
    assert quad.normalized() == quad.normalized().normalized()


def test_residual_and_verify(motzkin40):
    quad = mr.reference_equation(1)
    assert not any(quad.residual(motzkin40).coeffs)
    assert mr.verify_algebraic_equation(quad, motzkin40)
    wrong = AlgebraicEquation(((1,), (-1, 2), (0, 0, 1)))
    assert any(wrong.residual(motzkin40).coeffs)
    assert not mr.verify_algebraic_equation(wrong, motzkin40)
    assert mr.verify_algebraic_equation(quad, motzkin40, order=10)
    with pytest.raises(ValueError):
        quad.residual(motzkin40, order=99)
    for order in (0, True, 1.0, 2.0):
        with pytest.raises(mr.InvalidSpec):
            quad.residual(motzkin40, order)


def test_verify_needs_the_x_degree_plus_one(motzkin40):
    # Below order x-degree + 1 the top x-power never enters the residual.
    quad = mr.reference_equation(1)  # 1 + (x - 1) y + x^2 y^2: x-degree 2
    with pytest.raises(mr.InsufficientOrder, match="x-degree 2 needs order at least 3"):
        mr.verify_algebraic_equation(quad, motzkin40, order=2)
    assert mr.verify_algebraic_equation(quad, motzkin40, order=3)
    rank2 = mr.generating_series(mr.WeightSpec.all_ones(2), 3)
    with pytest.raises(mr.InsufficientOrder):
        mr.verify_algebraic_equation(quad, rank2.truncate(1))
    assert not mr.verify_algebraic_equation(quad, rank2)


def test_multiply_equations():
    a = AlgebraicEquation(((1,), (0, 1)))  # 1 + x y
    b = AlgebraicEquation(((0, 1), (2,)))  # x + 2 y
    prod = mr.multiply_equations(a, b)
    assert prod.coeffs == ((0, 1), (2, 0, 1), (0, 2))
    unit = AlgebraicEquation(((1,),))
    assert mr.multiply_equations(unit, b) == b


def test_json_roundtrip():
    eq = mr.reference_equations(2)[0]
    data = eq.to_json_dict()
    assert AlgebraicEquation.from_json_dict(data) == eq
    data["y_degree"] = 3
    with pytest.raises(ValueError):
        AlgebraicEquation.from_json_dict(data)
    # A plain int reads as written. Any other number, or a string that
    # str() gives for no int, is refused rather than truncated or coerced.
    quad = {"y_degree": 2, "coeffs": [["1"], ["-1", "1"], ["0", "0", 1]]}
    assert AlgebraicEquation.from_json_dict(quad) == mr.reference_equation(1)
    for bad in (1.7, 1.0, True, " 1", "1.0", "0x1"):
        quad["coeffs"][2][2] = bad
        with pytest.raises(ValueError, match="expected an int|invalid literal"):
            AlgebraicEquation.from_json_dict(quad)
    quad["coeffs"][2][2] = "1"
    for bad in (2.0, "02", True):
        quad["y_degree"] = bad
        with pytest.raises(ValueError, match="expected an int"):
            AlgebraicEquation.from_json_dict(quad)


def test_str_rendering():
    quad = mr.reference_equation(1)
    assert str(quad) == "1 + (x - 1)*y + x^2*y^2 = 0"
    # leading negative terms, with and without a y^0 coefficient
    assert str(AlgebraicEquation(((), (-1,), (0, -2), (1, -1)))) == (
        "-y - 2*x*y^2 + (-x + 1)*y^3 = 0"
    )
    assert str(AlgebraicEquation(((-1, 1), (0, 3), (-1,)))) == "x - 1 + 3*x*y - y^2 = 0"


def test_reference_equations_lookup():
    assert len(mr.reference_equations(2)) == 2
    assert mr.reference_equation(2).y_degree == 4
    for rank in (1, 2, 3, 4):
        assert mr.reference_equation(rank).y_degree == 2**rank
    with pytest.raises(mr.UnsupportedRank):
        mr.reference_equations(5)
    with pytest.raises(mr.UnsupportedRank):
        mr.reference_equation(0)


def test_guess_recovers_quadratic(motzkin40):
    report = mr.guess_algebraic_equation(motzkin40, max_y_degree=2)
    assert report.found
    assert report.ansatz == "per-degree"
    assert report.equation.normalized() == mr.reference_equation(1).normalized()
    assert report.verified_order == 40


def test_guess_not_found_below_true_degree(motzkin40):
    report = mr.guess_algebraic_equation(motzkin40, max_y_degree=1)
    assert not report.found
    assert report.equation is None


def test_guess_insufficient_order():
    short = mr.generating_series(mr.WeightSpec.all_ones(1), 10)
    with pytest.raises(mr.InsufficientOrder):
        mr.guess_algebraic_equation(short, max_y_degree=4)


def test_guess_argument_validation(motzkin40):
    with pytest.raises(ValueError):
        mr.guess_algebraic_equation(motzkin40, max_y_degree=0)
    with pytest.raises(ValueError):
        mr.guess_algebraic_equation(motzkin40, max_y_degree=2, guard=-1)


def test_shape_conjecture():
    assert mr.check_shape_conjecture(mr.reference_equation(1), 1)
    assert mr.check_shape_conjecture(mr.reference_equation(2), 2)
    assert not mr.check_shape_conjecture(mr.reference_equation(1), 2)
    # sextic has y-degree 6, not 2^2
    sextic = mr.reference_equations(2)[0]
    assert not mr.check_shape_conjecture(sextic, 2)


def test_general_sextic_all_ones_matches_reference():
    sextic = mr.reference_equations(2)[0]
    general = mr.rank2_general_sextic(1, 1, 1, 1, 1)
    assert general.normalized() == sextic.normalized()


def test_general_sextic_degeneration():
    degen = mr.rank2_general_sextic(2, 0, 1, 3, 0)
    quad = AlgebraicEquation(((1,), (-1, 1), (0, 0, 6)))
    assert degen.normalized() == quad.normalized()
    with pytest.raises(mr.InvalidSpec):
        mr.rank2_general_sextic(1, 1, -1, 1, 1)


def test_general_equation_check():
    assert mr.rank2_general_equation_check(2, 1, 0, 1, 2)
    with pytest.raises(mr.InsufficientOrder):
        mr.rank2_general_equation_check(1, 1, 1, 1, 1, order=20)


def test_uniform_ansatz_finds_equations_outside_the_shape():
    # x M(x) for the Motzkin series M satisfies x + (x - 1) y + x y^2 = 0,
    # whose a_0 = x breaks deg a_i <= i: only the uniform family (its own
    # system, tried after the per-degree one) contains it.
    motzkin = mr.count_sequence(mr.WeightSpec.all_ones(1), 38)
    shifted = mr.CoeffSeries([0] + motzkin)
    report = mr.guess_algebraic_equation(shifted, 2, max_x_degree=1)
    assert report.found and report.ansatz == "uniform"
    assert report.equation == AlgebraicEquation(((0, 1), (-1, 1), (0, 1)))
    assert not mr.guess_algebraic_equation(shifted, 2).found
