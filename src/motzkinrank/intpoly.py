"""Dense univariate polynomials as coefficient tuples.

Lowest degree first, no trailing zeros; the zero polynomial is the
empty tuple.  Coefficients are ints (Fractions also work for evaluate).
Small and boring on purpose: these polynomials multiply recurrence
terms and bivariate equation coefficients, where degrees stay tiny.
"""

from __future__ import annotations

from math import gcd

from . import backend


def trim(coeffs) -> tuple:
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def exact_from_json(v, kind=int):
    """One value as ``to_json_dict`` writes it: an int that is no bool,
    or the exact string ``str`` gives for a ``kind`` (int, or Fraction
    for a series).  Anything else, a float or ``" 3"`` say, raises
    ValueError rather than being rounded or coerced."""
    if type(v) is int:
        return v
    try:
        if isinstance(v, str) and str(value := kind(v)) == v:
            return value
    except ZeroDivisionError:  # Fraction("1/0")
        pass
    raise ValueError(f"expected an int or an exact {kind.__name__} string, got {v!r}")


def polys_from_json(polys) -> tuple:
    return tuple(tuple(exact_from_json(v) for v in p) for p in polys)


def degree(p) -> int:
    return len(p) - 1  # -1 for the zero polynomial


def add(p, q) -> tuple:
    n = max(len(p), len(q))
    return trim(
        (p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n)
    )


def neg(p) -> tuple:
    return tuple(-v for v in p)


def sub(p, q) -> tuple:
    return add(p, neg(q))


def mul(p, q) -> tuple:
    if not p or not q:
        return ()
    return trim(backend.conv_trunc(list(p), list(q), len(p) + len(q) - 1))


def scale(p, k) -> tuple:
    if k == 0:
        return ()
    return tuple(v * k for v in p)


def evaluate(p, x):
    acc = 0
    for v in reversed(p):
        acc = acc * x + v
    return acc


def content(p) -> int:
    g = 0
    for v in p:
        g = gcd(g, abs(v))
    return g


def to_str(p, var: str = "x") -> str:
    """Human form, descending degree: ``2*x^3 - x + 1``."""
    return signed_sum([monomial(p[k], k, var) for k in range(len(p) - 1, -1, -1) if p[k]])


def monomial(v, k: int, var: str = "x") -> str:
    """``v*var^k`` in human form: ``-2*x^3``, ``x``, ``-1/2``."""
    sign = "-" if v < 0 else ""
    mag = abs(v)
    if k == 0:
        return f"{sign}{mag}"
    x = var if k == 1 else f"{var}^{k}"
    return sign + (x if mag == 1 else f"{mag}*{x}")


def signed_sum(terms) -> str:
    """Terms joined by `` + `` or, for a term with a leading ``-``, by
    `` - ``: ``["x", "-2", "y"]`` gives ``x - 2 + y``; "0" for none."""
    if not terms:
        return "0"
    out = terms[0]
    for term in terms[1:]:
        out += " - " + term[1:] if term.startswith("-") else " + " + term
    return out
