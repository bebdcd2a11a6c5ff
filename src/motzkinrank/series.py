"""Truncated formal power series with exact coefficients.

A ``CoeffSeries`` is a power series known modulo x^order; coefficients
are ints or Fractions, never floats.  Instances are immutable, and all
binary operations truncate to the smaller operand order (knowledge can
only shrink).  Division is deliberately absent except through
``reciprocal`` (Newton iteration), which keeps every operation exact
and total on its stated domain.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from . import backend, intpoly
from .errors import ComposeConstantTerm, check_sizes


def _norm(v):
    # Fractions with denominator 1 collapse to int so that integer
    # series stay integer after mixed arithmetic.
    if isinstance(v, Fraction) and v.denominator == 1:
        return int(v)
    return v


class CoeffSeries:
    __slots__ = ("_c",)

    def __init__(self, coeffs, order: int | None = None):
        c = [_norm(v) for v in coeffs]
        for v in c:
            if isinstance(v, float) or not isinstance(v, (int, Fraction)):
                raise TypeError(
                    f"coefficients must be int or Fraction, got {type(v).__name__}"
                )
        if order is not None:
            check_sizes("order", order, least=1)
            c = c[:order] + [0] * (order - len(c))
        if not c:
            raise ValueError("a series needs at least its constant term")
        self._c = c

    @property
    def order(self) -> int:
        return len(self._c)

    @property
    def coeffs(self) -> tuple:
        return tuple(self._c)

    def __getitem__(self, k: int):
        return self._c[k]

    def __eq__(self, other):
        return isinstance(other, CoeffSeries) and self._c == other._c

    def __hash__(self):
        return hash(tuple(self._c))

    def __repr__(self):
        if len(self._c) > 8:
            head = ", ".join(repr(v) for v in self._c[:8])
            return f"CoeffSeries([{head}, ...], order={len(self._c)})"
        return f"CoeffSeries({self._c!r})"

    def __str__(self):
        terms = [intpoly.monomial(v, k) for k, v in enumerate(self._c) if v]
        return f"{intpoly.signed_sum(terms)} + O(x^{len(self._c)})"

    # -- arithmetic ----------------------------------------------------

    def _binary(self, other, op):
        n = min(len(self._c), len(other._c))
        return CoeffSeries([_norm(op(a, b)) for a, b in zip(self._c[:n], other._c[:n])])

    def __add__(self, other):
        if isinstance(other, CoeffSeries):
            return self._binary(other, lambda a, b: a + b)
        if isinstance(other, (int, Fraction)):
            c = list(self._c)
            c[0] = _norm(c[0] + other)
            return CoeffSeries(c)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, CoeffSeries):
            return self._binary(other, lambda a, b: a - b)
        if isinstance(other, (int, Fraction)):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return CoeffSeries([-v for v in self._c])

    def __mul__(self, other):
        if isinstance(other, CoeffSeries):
            n = min(len(self._c), len(other._c))
            return CoeffSeries([_norm(v) for v in backend.conv_trunc(self._c, other._c, n)])
        if isinstance(other, (int, Fraction)):
            return CoeffSeries([_norm(v * other) for v in self._c])
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, k: int):
        check_sizes("exponent", k)
        result = CoeffSeries([1], order=len(self._c))
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    # -- structural operations -----------------------------------------

    def truncate(self, order: int) -> "CoeffSeries":
        """Drop knowledge down to the given order (never extends)."""
        check_sizes("truncation order", order, least=1)
        if order > len(self._c):
            raise ValueError(
                f"truncation order must be in 1..{len(self._c)}, got {order}"
            )
        return CoeffSeries(self._c[:order])

    def shift(self, k: int) -> "CoeffSeries":
        """Multiply by x^k, keeping the order."""
        check_sizes("shift", k)
        n = len(self._c)
        k = min(k, n)
        return CoeffSeries([0] * k + self._c[: n - k])

    def compose(self, inner: "CoeffSeries") -> "CoeffSeries":
        """self(inner(x)); the inner series must vanish at x = 0."""
        if inner._c[0] != 0:
            raise ComposeConstantTerm("inner series must have zero constant term")
        n = min(len(self._c), len(inner._c))
        g = inner._c
        acc = [0] * n
        acc[0] = self._c[n - 1]
        for k in range(n - 2, -1, -1):
            acc = backend.conv_trunc(acc, g, n)
            acc[0] = acc[0] + self._c[k]
        return CoeffSeries([_norm(v) for v in acc])

    def reciprocal(self) -> "CoeffSeries":
        """Multiplicative inverse by Newton iteration.

        Quadratic convergence: an inverse correct mod x^m lifts to one
        correct mod x^{2m} via g <- g + g(1 - f g), so log2(order)
        rounds suffice and the total cost is a few convolutions.
        """
        f = self._c
        if f[0] == 0:
            raise ZeroDivisionError("series with zero constant term has no reciprocal")
        n = len(f)
        g = [_norm(Fraction(1, 1) / f[0])]
        m = 1
        while m < n:
            m = min(2 * m, n)
            fg = backend.conv_trunc(f, g, m)
            err = [1 - fg[0]] + [-v for v in fg[1:]]
            corr = backend.conv_trunc(g, err, m)
            g = [
                _norm((g[i] if i < len(g) else 0) + corr[i])
                for i in range(m)
            ]
        return CoeffSeries(g)

    # -- predicates and serialization ------------------------------------

    def is_integral(self) -> bool:
        return all(isinstance(v, int) for v in self._c)

    def to_json_dict(self) -> dict:
        return {"order": len(self._c), "coeffs": [str(v) for v in self._c]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "CoeffSeries":
        coeffs = [intpoly.exact_from_json(v, Fraction) for v in data["coeffs"]]
        return cls(coeffs, order=intpoly.exact_from_json(data["order"]))


def catalan_series(order: int) -> CoeffSeries:
    """C(x) = sum_k Cat(k) x^k, the unique series with C = 1 + x C^2."""
    check_sizes("order", order, least=1)
    return CoeffSeries([comb(2 * k, k) // (k + 1) for k in range(order)])
