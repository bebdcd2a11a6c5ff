"""Bivariate annihilating equations for generating series.

An AlgebraicEquation is P(x, y) = sum_i a_i(x) y^i with integer
polynomial coefficients; it annihilates a series F when P(x, F(x)) = 0.
``guess_algebraic_equation`` finds the smallest-y-degree annihilator
within degree bounds by exact linear algebra on the series
coefficients, and ``verify_algebraic_equation`` checks any equation by
direct substitution, so a guess is never trusted on the strength of the
linear solve alone.  Its columns are y-degree-major, so the ansatz of
each y-degree is a column prefix of the next one's: each ansatz family
is one system, eliminated once mod a prime by
``linalg.PrefixNullspaces``, which certifies the empty y-degrees by
full rank and lifts the candidates of the others p-adically.

Reference transcriptions of the known all-ones equations for ranks
1..4 live in ``published`` and are exposed here via
``reference_equations``; every known equation has y-degree 2^rank,
constant coefficient 1, and deg a_i <= i, which is what
``check_shape_conjecture`` tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from . import backend, intpoly, linalg, published
from .counting import WeightSpec
from .errors import InsufficientOrder, UnsupportedRank, check_sizes
from .series import CoeffSeries


@dataclass(frozen=True)
class AlgebraicEquation:
    """sum_i coeffs[i](x) * y^i = 0; coeffs are intpoly tuples."""

    coeffs: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        polys = [intpoly.trim(p) for p in self.coeffs]
        while polys and not polys[-1]:
            polys.pop()
        if not polys or not any(polys):
            raise ValueError("equation must not be identically zero")
        object.__setattr__(self, "coeffs", tuple(polys))

    @property
    def y_degree(self) -> int:
        return len(self.coeffs) - 1

    def content(self) -> int:
        g = 0
        for p in self.coeffs:
            g = gcd(g, intpoly.content(p))
        return g

    def normalized(self) -> "AlgebraicEquation":
        """Content 1; sign fixed so a_0(0) > 0 when a_0(0) != 0 (first
        nonzero coefficient positive otherwise)."""
        g = self.content()
        polys = [tuple(v // g for v in p) for p in self.coeffs]
        lead = 0
        for p in polys:
            for v in p:
                if v:
                    lead = v
                    break
            if lead:
                break
        if polys[0] and polys[0][0]:
            lead = polys[0][0]
        if lead < 0:
            polys = [intpoly.neg(p) for p in polys]
        return AlgebraicEquation(tuple(polys))

    def residual(self, series: CoeffSeries, order: int | None = None) -> CoeffSeries:
        """P(x, F(x)) mod x^order, by Horner in y."""
        n = series.order if order is None else order
        check_sizes("order", n, least=1)
        if n > series.order:
            raise ValueError(f"order must be in 1..{series.order}, got {n}")
        f = list(series.coeffs[:n])
        acc = list(self.coeffs[-1][:n]) + [0] * max(0, n - len(self.coeffs[-1]))
        for i in range(len(self.coeffs) - 2, -1, -1):
            acc = backend.conv_trunc(acc, f, n)
            p = self.coeffs[i]
            for j in range(min(len(p), n)):
                if p[j]:
                    acc[j] += p[j]
        return CoeffSeries(acc)

    def __str__(self):
        parts = []
        for i, p in enumerate(self.coeffs):
            if not p:
                continue
            if i == 0:
                parts.append(intpoly.to_str(p))
                continue
            y = "y" if i == 1 else f"y^{i}"
            if p == (1,):
                parts.append(y)
            elif p == (-1,):
                parts.append(f"-{y}")
            elif len([v for v in p if v]) == 1:
                parts.append(f"{intpoly.to_str(p)}*{y}")
            else:
                parts.append(f"({intpoly.to_str(p)})*{y}")
        return intpoly.signed_sum(parts) + " = 0"

    def to_json_dict(self) -> dict:
        return {
            "y_degree": self.y_degree,
            "coeffs": [[str(v) for v in p] for p in self.coeffs],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "AlgebraicEquation":
        eq = cls(intpoly.polys_from_json(data["coeffs"]))
        if "y_degree" in data and eq.y_degree != intpoly.exact_from_json(data["y_degree"]):
            raise ValueError(
                f"stated y_degree {data['y_degree']} does not match "
                f"coefficients (degree {eq.y_degree})"
            )
        return eq


def multiply_equations(a: AlgebraicEquation, b: AlgebraicEquation) -> AlgebraicEquation:
    """Product of two bivariate polynomials (used by the factorization
    identity checks)."""
    out = [() for _ in range(a.y_degree + b.y_degree + 1)]
    for i, p in enumerate(a.coeffs):
        if not p:
            continue
        for j, q in enumerate(b.coeffs):
            if q:
                out[i + j] = intpoly.add(out[i + j], intpoly.mul(p, q))
    return AlgebraicEquation(tuple(out))


def verify_algebraic_equation(
    eq: AlgebraicEquation, series: CoeffSeries, order: int | None = None
) -> bool:
    """True iff the equation annihilates the series mod x^order.

    Raises ``InsufficientOrder`` below order x-degree + 1, where the
    equation's top x-power never enters the check.
    """
    n = series.order if order is None else order
    check_sizes("order", n, least=1)
    floor = max(len(p) for p in eq.coeffs)  # x-degree + 1
    if n < floor:
        raise InsufficientOrder(
            f"an equation of x-degree {floor - 1} needs order at least {floor} to check, got {n}"
        )
    return not any(eq.residual(series, order).coeffs)


@dataclass(frozen=True)
class GuessReport:
    found: bool
    equation: AlgebraicEquation | None
    y_degree_bound: int
    x_degree_bound: int | None
    guard: int
    ansatz: str | None = None  # "per-degree" or "uniform"
    verified_order: int | None = None


def _ansatz_system(f_pows, order, bounds):
    """Columns (i, j) for x^j y^i with j <= bounds[i], y-degree-major,
    over the first ``order`` coefficients of P(x, F(x))."""
    cols = [(i, j) for i, b in enumerate(bounds) for j in range(b + 1)]
    rows = [[f_pows[i][n - j] if n >= j else 0 for i, j in cols] for n in range(order)]
    # Scaling a row to integers keeps the nullspace.
    return cols, linalg.PrefixNullspaces([linalg.clear_denominators(row) for row in rows])


def guess_algebraic_equation(
    series: CoeffSeries,
    max_y_degree: int,
    max_x_degree: int | None = None,
    guard: int = 8,
) -> GuessReport:
    """Search for the minimal-y-degree annihilator within the bounds.

    Scans y-degrees 1..max_y_degree in order.  For each degree D the
    per-coefficient ansatz deg a_i <= min(i, max_x_degree) is tried
    first (the shape all known equations here have); if it yields
    nothing and a uniform x-bound was given, deg a_i <= max_x_degree is
    retried.  Each of the two ansatz families is one system, built for
    its largest y-degree and eliminated once; every y-degree is a
    column prefix of it.  Candidate nullvectors are accepted only after
    exact substitution back into the series, and the scan order makes
    the returned y-degree minimal within the searched space.

    The series must have order >= unknowns + guard for the initial
    ansatz; degrees whose ansatz would exceed the available order are
    skipped (the report's bounds say what was actually searched).
    """
    check_sizes("max_y_degree", max_y_degree, least=1)
    check_sizes("guard", guard)
    order = series.order

    def shape_bounds(dd):
        if max_x_degree is None:
            return [i for i in range(dd + 1)]
        return [min(i, max_x_degree) for i in range(dd + 1)]

    first_unknowns = sum(b + 1 for b in shape_bounds(1))
    if order < first_unknowns + guard:
        raise InsufficientOrder(
            f"series order {order} cannot support even the smallest ansatz "
            f"({first_unknowns} unknowns + guard {guard})"
        )

    # Each family's system is built for the largest y-degree that
    # leaves ``guard`` spare coefficients.
    families = {"per-degree": shape_bounds(max_y_degree)}
    if max_x_degree is not None:
        families["uniform"] = [max_x_degree] * (max_y_degree + 1)
    for bounds in families.values():
        while sum(b + 1 for b in bounds) + guard > order:
            bounds.pop()
    f = list(series.coeffs)
    f_pows = [[1] + [0] * (order - 1)]
    systems = {}

    def candidates(ansatz, dd):
        bounds = families[ansatz]
        if ansatz not in systems:
            while len(f_pows) < len(bounds):
                f_pows.append(backend.conv_trunc(f_pows[-1], f, order))
            systems[ansatz] = _ansatz_system(f_pows, order, bounds)
        cols, system = systems[ansatz]
        w = sum(b + 1 for b in bounds[: dd + 1])
        for vec in system.basis(w, max_vectors=8):
            polys = [[0] * (b + 1) for b in bounds[: dd + 1]]
            for (i, j), v in zip(cols, vec):
                polys[i][j] = v
            if not any(any(p) for p in polys):
                continue
            eq = AlgebraicEquation(tuple(tuple(p) for p in polys)).normalized()
            if verify_algebraic_equation(eq, series):
                return eq
        return None

    for dd in range(1, max_y_degree + 1):
        attempts = ["per-degree"]
        if max_x_degree is not None and families["uniform"][: dd + 1] != shape_bounds(dd):
            attempts.append("uniform")
        for ansatz in attempts:
            if len(families[ansatz]) <= dd:
                continue
            eq = candidates(ansatz, dd)
            if eq is not None:
                return GuessReport(
                    found=True,
                    equation=eq,
                    y_degree_bound=max_y_degree,
                    x_degree_bound=max_x_degree,
                    guard=guard,
                    ansatz=ansatz,
                    verified_order=order,
                )
    return GuessReport(
        found=False,
        equation=None,
        y_degree_bound=max_y_degree,
        x_degree_bound=max_x_degree,
        guard=guard,
    )


def check_shape_conjecture(eq: AlgebraicEquation, rank: int) -> bool:
    """Shape shared by every known equation: y-degree exactly 2^rank,
    constant coefficient exactly 1, and deg a_i <= i throughout."""
    if eq.y_degree != 2**rank:
        return False
    if eq.coeffs[0] != (1,):
        return False
    return all(intpoly.degree(p) <= i for i, p in enumerate(eq.coeffs))


def reference_equations(rank: int) -> tuple[AlgebraicEquation, ...]:
    """Embedded transcriptions for the all-ones spec of this rank.

    Rank 2 returns two forms: the elimination sextic and the quartic
    factor that vanishes on the series (sextic = (1 + x y)^2 * quartic).
    """
    if rank not in published.EQUATIONS:
        raise UnsupportedRank(f"no reference equation embedded for rank {rank}")
    return tuple(AlgebraicEquation(c) for c in published.EQUATIONS[rank])


def reference_equation(rank: int) -> AlgebraicEquation:
    """The reference equation that vanishes on the series (for rank 2,
    the quartic; elsewhere the unique embedded one)."""
    return reference_equations(rank)[-1]


def rank2_general_sextic(u1, u2, l, d1, d2) -> AlgebraicEquation:
    """The weight-parametrized sextic annihilating the rank-2 series.

    With e = u2 d2 - u1 d1 the equation reads

      0 = 1 + (lx - 1) y - e x^2 y^2
            + x^2 (2 u2 d2 + (u1^2 d2 + u2 d1^2 - 2 l u2 d2) x) y^3
            - u2 d2 e x^4 y^4 + u2^2 d2^2 x^4 (lx - 1) y^5
            + u2^3 d2^3 x^6 y^6.

    At u2 = d2 = 0 everything above y^2 vanishes and the rank-1
    quadratic (with u1 d1 for ud) remains; at all-ones weights it
    collapses to the embedded rank-2 sextic.
    """
    WeightSpec((u1, u2), l, (d1, d2))  # validate the weights
    e = u2 * d2 - u1 * d1
    s = u2 * d2
    coeffs = (
        (1,),
        (-1, l),
        (0, 0, -e),
        (0, 0, 2 * s, u1 * u1 * d2 + u2 * d1 * d1 - 2 * l * s),
        (0, 0, 0, 0, -s * e),
        (0, 0, 0, 0, -s * s, s * s * l),
        (0, 0, 0, 0, 0, 0, s**3),
    )
    return AlgebraicEquation(coeffs)


def rank2_general_equation_check(u1, u2, l, d1, d2, order: int = 40) -> bool:
    """Does the weight-parametrized sextic annihilate the solved series?

    Substitutes the numeric weights into :func:`rank2_general_sextic`
    and checks it against the solved series for the same spec,
    truncated at ``order``.
    """
    from .genfunc import generating_series

    if order < 30:
        raise InsufficientOrder("the sextic check needs order >= 30")
    eq = rank2_general_sextic(u1, u2, l, d1, d2)
    series = generating_series(WeightSpec((u1, u2), l, (d1, d2)), order)
    return verify_algebraic_equation(eq, series)
