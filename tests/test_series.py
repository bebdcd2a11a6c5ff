"""Truncated power series arithmetic."""

from fractions import Fraction

import pytest

import motzkinrank as mr
from motzkinrank import CoeffSeries


def geom(order):
    return CoeffSeries([1] * order)


def test_construction_and_order():
    s = CoeffSeries([1, 2, 3])
    assert s.order == 3
    assert s.coeffs == (1, 2, 3)
    assert s[2] == 3
    padded = CoeffSeries([1], order=4)
    assert padded.coeffs == (1, 0, 0, 0)
    with pytest.raises(ValueError):
        CoeffSeries([])
    with pytest.raises(ValueError):
        CoeffSeries([1, 2], order=0)
    with pytest.raises(TypeError):
        CoeffSeries([1.5, 2])


def test_ring_identities():
    s = geom(12)
    t = CoeffSeries([0, 1], order=12)  # x
    assert (s - s).coeffs == (0,) * 12
    assert (s + (-s)).coeffs == (0,) * 12
    assert s * 1 == s
    assert 1 * s == s
    assert (2 - s).coeffs[:3] == (1, -1, -1)
    # (1-x) * (1+x+x^2+...) = 1
    one_minus_x = CoeffSeries([1, -1], order=12)
    assert (one_minus_x * s).coeffs == (1,) + (0,) * 11
    assert (t**3).coeffs[:5] == (0, 0, 0, 1, 0)
    assert s**0 == CoeffSeries([1], order=12)
    with pytest.raises(ValueError):
        s**-1


def test_mixed_orders_truncate_to_shorter():
    a = CoeffSeries([1, 1, 1, 1, 1])
    b = CoeffSeries([1, 2])
    assert (a + b).order == 2
    assert (a * b).coeffs == (1, 3)


def test_truncate_and_shift():
    s = CoeffSeries([1, 2, 3, 4])
    assert s.truncate(2).coeffs == (1, 2)
    assert s.truncate(4) is not s and s.truncate(4) == s
    with pytest.raises(ValueError):
        s.truncate(5)
    for order in (0, True, 1.0, 2.0):
        with pytest.raises(mr.InvalidSpec):
            s.truncate(order)
    assert s.shift(2).coeffs == (0, 0, 1, 2)
    # shifting by the order or more leaves the zero series, not a wrap-around
    for k in (4, 5, 7):
        assert s.shift(k) == CoeffSeries([0], order=4)
    with pytest.raises(ValueError):
        s.shift(-1)


def test_compose():
    # C(x^2) aerates the Catalan numbers
    cat = mr.catalan_series(12)
    x2 = CoeffSeries([0, 0, 1], order=12)
    aerated = cat.compose(x2)
    assert aerated.coeffs == (1, 0, 1, 0, 2, 0, 5, 0, 14, 0, 42, 0)
    with pytest.raises(mr.ComposeConstantTerm):
        cat.compose(CoeffSeries([1, 1], order=6))


def test_reciprocal():
    s = CoeffSeries([1, -1], order=10).reciprocal()
    assert s == geom(10)
    half = CoeffSeries([2, 1], order=5).reciprocal()
    assert half[0] == Fraction(1, 2)
    assert not half.is_integral()
    with pytest.raises(ZeroDivisionError):
        CoeffSeries([0, 1], order=4).reciprocal()


def test_json_roundtrip():
    s = CoeffSeries([1, Fraction(1, 2), -3], order=5)
    data = s.to_json_dict()
    assert data["order"] == 5
    assert data["coeffs"][1] == "1/2"
    assert CoeffSeries.from_json_dict(data) == s
    # Plain ints and the strings str() gives for an int or a Fraction read
    # as written; a float never becomes Fraction(0.1), nor a bool 0 or 1.
    assert CoeffSeries.from_json_dict({"order": 5, "coeffs": [1, "1/2", -3]}) == s
    for bad in (0.1, 1.0, False, "0.5", "2/4", "3/1", " 1/2", "1e3", "1/0"):
        with pytest.raises(ValueError, match="expected an int|Invalid literal"):
            CoeffSeries.from_json_dict({"order": 5, "coeffs": [1, bad]})
    for bad in (5.0, True, "05"):
        with pytest.raises(ValueError, match="expected an int"):
            CoeffSeries.from_json_dict({"order": bad, "coeffs": [1]})


def test_integrality_and_equality():
    assert geom(4).is_integral()
    assert geom(4) == CoeffSeries([Fraction(1)] * 4)
    assert hash(geom(4)) == hash(CoeffSeries([1, 1, 1, 1]))
    assert geom(4) != geom(5)


def test_catalan_series():
    cat = mr.catalan_series(10)
    assert cat.coeffs == (1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862)
    assert cat.is_integral()


def test_str_smoke():
    assert str(CoeffSeries([1, 0, -2], order=5)) == "1 - 2*x^2 + O(x^5)"
    assert str(CoeffSeries([-1, 2, 0, -1], order=4)) == "-1 + 2*x - x^3 + O(x^4)"
    assert str(CoeffSeries([Fraction(-1, 2), 0, Fraction(3, 4)])) == "-1/2 + 3/4*x^2 + O(x^3)"
    assert str(CoeffSeries([0, 0], order=2)) == "0 + O(x^2)"
