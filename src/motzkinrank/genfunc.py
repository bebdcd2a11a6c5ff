"""The quadratic system for height-to-height generating functions.

Write A[i,j] for the generating function (by length) of colored paths
from height i to height j, for 0 <= i, j <= r-1.  First-return
decomposition gives a closed quadratic system:

  A[0,0] = 1 + l x A[0,0]
             + x^2 A[0,0] * sum_{p,q} u_p d_q A[p-1,q-1]
  A[i,j] = A[i-1,j-1] + x A[0,j] * sum_q d_q A[i-1,q-1]   (i >= 1)
  A[0,j] = x A[0,0] * sum_p u_p A[p-1,j-1]                (j >= 1)

with the convention that A[s,t] = 0 when an index is negative.  The
first equation splits a 0->0 path at its first return; the second
splits an i->j path at its first visit to height 0 (or shifts it down
if there is none); the third splits a 0->j path at its last visit to 0.

For the all-ones spec, reversing paths swaps A[i,j] with A[j,i], so the
system collapses to r(r+1)/2 equations in the unknowns with i >= j
(``symmetric=True``).  ``generating_series`` and the CLI solve the
reduced system whenever the spec is all-ones; the series are the same.

``solve_series`` finds all A[i,j] as truncated integer series in
``order`` ordered sweeps.  The system is well-founded: the only term
without a factor x is A[i-1,j-1] in the (i,j) equation, and its label
has a smaller min(i, j).  So the equations are evaluated in increasing
min(i, j) of their label (the same in both layouts, since min is
symmetric), each result written back before the next equation is read.
By induction on t, after sweep t the coefficients 0..t-1 of every
unknown are exact: a term carrying a factor x needs only coefficients
below t-1, exact since sweep t-1, and the x-free A[i-1,j-1] was
already brought to t exact coefficients earlier in the same sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import backend
from .counting import WeightSpec
from .errors import SelfCheckFailed, SymmetryRequiresAllOnes, check_sizes
from .series import CoeffSeries, catalan_series

Label = tuple[int, int]


@dataclass(frozen=True)
class EquationTerm:
    """coeff * x^xpow * product of the factor unknowns (0..2 factors)."""

    coeff: int
    xpow: int
    factors: tuple[Label, ...]


@dataclass(frozen=True)
class SystemOfEquations:
    rank: int
    symmetric: bool
    unknowns: tuple[Label, ...]
    equations: tuple[tuple[Label, tuple[EquationTerm, ...]], ...]

    def render(self) -> str:
        """Readable text form, one equation per line."""
        lines = []
        for lhs, terms in self.equations:
            parts = []
            for t in terms:
                bits = []
                if t.coeff != 1 or (t.xpow == 0 and not t.factors):
                    bits.append(str(t.coeff))
                if t.xpow == 1:
                    bits.append("x")
                elif t.xpow > 1:
                    bits.append(f"x^{t.xpow}")
                bits.extend(f"A[{i},{j}]" for i, j in t.factors)
                parts.append("*".join(bits))
            lines.append(f"A[{lhs[0]},{lhs[1]}] = " + " + ".join(parts))
        return "\n".join(lines)


def _bag_to_terms(bag):
    return tuple(
        EquationTerm(coeff, xpow, factors)
        for (xpow, factors), coeff in sorted(bag.items())
        if coeff
    )


def build_system(spec: WeightSpec, symmetric: bool = False) -> SystemOfEquations:
    """The quadratic system for the spec; see the module docstring.

    With ``symmetric`` set (all-ones specs only) unknowns are the pairs
    with i >= j, mirrored references are canonicalized, and merged terms
    pick up integer coefficients.
    """
    r = spec.rank
    if symmetric and not spec.is_all_ones:
        raise SymmetryRequiresAllOnes(
            "the symmetric reduction relies on path reversal, which swaps "
            "up and down weights; it needs the all-ones spec"
        )

    def canon(i, j):
        if symmetric and j > i:
            return (j, i)
        return (i, j)

    def add(bag, coeff, xpow, factors):
        if coeff:
            key = (xpow, tuple(factors))
            bag[key] = bag.get(key, 0) + coeff

    equations = []

    # 0 -> 0: empty path, level step first, or first return after an
    # up/down excursion.
    bag = {}
    add(bag, 1, 0, ())
    add(bag, spec.level, 1, (canon(0, 0),))
    for p in range(1, r + 1):
        for q in range(1, r + 1):
            add(
                bag,
                spec.up[p - 1] * spec.down[q - 1],
                2,
                (canon(0, 0), canon(p - 1, q - 1)),
            )
    equations.append(((0, 0), _bag_to_terms(bag)))

    # i -> j for i >= 1: either never touches 0 (shift down one unit) or
    # splits at the first visit to 0.
    for i in range(1, r):
        for j in range(r):
            if symmetric and (j > i or j == 0):
                continue  # mirrored copy, or covered by the 0 -> i equation
            bag = {}
            if j >= 1:
                add(bag, 1, 0, (canon(i - 1, j - 1),))
            for q in range(1, r + 1):
                add(bag, spec.down[q - 1], 1, (canon(0, j), canon(i - 1, q - 1)))
            equations.append((canon(i, j), _bag_to_terms(bag)))

    # 0 -> j for j >= 1: split at the last visit to 0.
    for j in range(1, r):
        bag = {}
        for p in range(1, r + 1):
            add(bag, spec.up[p - 1], 1, (canon(0, 0), canon(p - 1, j - 1)))
        equations.append((canon(0, j), _bag_to_terms(bag)))

    if symmetric:
        unknowns = tuple((i, j) for i in range(r) for j in range(i + 1))
    else:
        unknowns = tuple((i, j) for i in range(r) for j in range(r))
    return SystemOfEquations(r, symmetric, unknowns, tuple(equations))


@dataclass(frozen=True)
class SeriesFamily:
    """The solved series, one per (start height, end height) pair."""

    spec: WeightSpec
    order: int
    symmetric: bool
    series: dict

    def __getitem__(self, key) -> CoeffSeries:
        i, j = key
        return self.series[i, j]


def _evaluation_plan(terms):
    const = []
    linear = []
    quads = {}
    for t in terms:
        if len(t.factors) == 0:
            const.append((t.coeff, t.xpow))
        elif len(t.factors) == 1:
            linear.append((t.coeff, t.xpow, t.factors[0]))
        elif len(t.factors) == 2:
            quads.setdefault((t.xpow, t.factors[0]), []).append(
                (t.coeff, t.factors[1])
            )
        else:  # the builder never produces higher-degree terms
            raise ValueError("terms with more than two factors are not supported")
    return const, linear, sorted(quads.items())


def _eval_plan(plan, values, t):
    const, linear, quads = plan
    out = [0] * t
    for coeff, xp in const:
        if xp < t:
            out[xp] += coeff
    for coeff, xp, lab in linear:
        v = values[lab]
        for k in range(min(len(v), t - xp)):
            if v[k]:
                out[xp + k] += coeff * v[k]
    for (xp, left), items in quads:
        m = t - xp
        if m <= 0:
            continue
        inner = [0] * m
        for coeff, right in items:
            v = values[right]
            for k in range(min(len(v), m)):
                if v[k]:
                    inner[k] += coeff * v[k]
        prod = backend.conv_trunc(values[left], inner, m)
        for k in range(m):
            if prod[k]:
                out[xp + k] += prod[k]
    return out


def solve_series(spec: WeightSpec, order: int, symmetric: bool = False) -> SeriesFamily:
    """Solve the system as integer series modulo x^order.

    Every unknown starts as the empty series.  Sweep t = 1..order
    evaluates the equations at truncation t in increasing min(i, j) of
    their label, writing each result back at once; after sweep t the
    first t coefficients of every unknown are exact (see the module
    docstring), so ``order`` sweeps solve the system.
    """
    check_sizes("order", order, least=1)
    system = build_system(spec, symmetric=symmetric)
    plans = sorted(
        ((lhs, _evaluation_plan(terms)) for lhs, terms in system.equations),
        key=lambda item: min(item[0]),
    )
    values = {lab: [] for lab in system.unknowns}
    for t in range(1, order + 1):
        for lhs, plan in plans:
            values[lhs] = _eval_plan(plan, values, t)

    r = spec.rank
    family = {}
    for i in range(r):
        for j in range(r):
            key = (j, i) if symmetric and j > i else (i, j)
            if key not in family:
                family[key] = CoeffSeries(values[key])
            family[i, j] = family[key]
    for s in family.values():
        if not s.is_integral():  # cannot happen with integer weights
            raise SelfCheckFailed("solver produced non-integer coefficients")
    return SeriesFamily(spec, order, symmetric, family)


def generating_series(spec: WeightSpec, order: int) -> CoeffSeries:
    """The 0 -> 0 series (counts of closed paths), solved at the order,
    from the reduced system whenever the spec is all-ones."""
    return solve_series(spec, order, symmetric=spec.is_all_ones)[0, 0]


def system_residual(system: SystemOfEquations, family: SeriesFamily, order=None) -> dict:
    """lhs - rhs of each equation as series; all zero iff solved."""
    t = family.order if order is None else order
    values = {lab: list(family[lab].coeffs) for lab in system.unknowns}
    out = {}
    for lhs, terms in system.equations:
        rhs = _eval_plan(_evaluation_plan(terms), values, t)
        out[lhs] = CoeffSeries([a - b for a, b in zip(values[lhs][:t], rhs)])
    return out


def rank1_closed_form_series(u: int, l: int, d: int, order: int) -> CoeffSeries:
    """Rank-1 series in closed form: C(u d x^2 / (1-lx)^2) / (1-lx).

    Catalan composition: summing over the number of up steps j, the
    j-up paths contribute Cat(j) (ud)^j x^{2j} / (1-lx)^{2j+1}.  A
    route to the coefficients independent of both the DP and the
    series solver.
    """
    WeightSpec.rank1(u, l, d)  # validate
    check_sizes("order", order, least=1)
    rec = CoeffSeries([1, -l], order=max(order, 2)).reciprocal().truncate(order)
    inner = (rec * rec).shift(2) * (u * d)
    return catalan_series(order).compose(inner) * rec
