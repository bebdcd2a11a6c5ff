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
(``symmetric=True``).  The reduction is one pass over the full system:
every label is mirrored to i >= j, equal terms merge, and the last
equation of each label is kept, so A[j,0] keeps its 0 -> j equation.
``generating_series`` and the CLI solve the reduced system whenever the
spec is all-ones; the series are the same.

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
class SystemOfEquations:
    """One (label, grouped terms) pair per equation.  The grouped form is
    the one the solver evaluates: constants (coeff, xpow), linear terms
    (coeff, xpow, label), and products keyed by (xpow, left factor) with
    their (coeff, right factor) pairs, each in increasing (xpow, factors)
    order."""

    rank: int
    symmetric: bool
    unknowns: tuple[Label, ...]
    equations: tuple[tuple[Label, tuple], ...]

    def render(self) -> str:
        """Readable text form, one equation per line."""
        lines = []
        for (i, j), (const, linear, quads) in self.equations:
            terms = [(coeff, xp, ()) for coeff, xp in const]
            terms += [(coeff, xp, (lab,)) for coeff, xp, lab in linear]
            terms += [(c, xp, (left, right)) for (xp, left), items in quads for c, right in items]
            lines.append(f"A[{i},{j}] = " + " + ".join(_render_term(*t) for t in terms))
        return "\n".join(lines)


def _render_term(coeff, xpow, factors):
    bits = [str(coeff)] if coeff != 1 or not (xpow or factors) else []
    if xpow:
        bits.append("x" if xpow == 1 else f"x^{xpow}")
    bits.extend(f"A[{i},{j}]" for i, j in factors)
    return "*".join(bits)


def _grouped(terms):
    """(coeff, xpow, factors) terms, equal ones merged and zero ones
    dropped, in the grouped form of ``SystemOfEquations``."""
    bag = {}
    for coeff, xpow, factors in terms:
        bag[xpow, factors] = bag.get((xpow, factors), 0) + coeff
    const, linear, quads = [], [], {}
    for (xpow, factors), coeff in sorted(bag.items()):
        if not coeff:
            continue
        if not factors:
            const.append((coeff, xpow))
        elif len(factors) == 1:
            linear.append((coeff, xpow, factors[0]))
        else:
            quads.setdefault((xpow, factors[0]), []).append((coeff, factors[1]))
    quads = tuple((key, tuple(items)) for key, items in sorted(quads.items()))
    return tuple(const), tuple(linear), quads


def build_system(spec: WeightSpec, symmetric: bool = False) -> SystemOfEquations:
    """The quadratic system for the spec; see the module docstring.

    With ``symmetric`` set (all-ones specs only) every label of the full
    system is mirrored to i >= j, equal terms merge into integer
    coefficients, and the last equation of each label is kept.
    """
    r = spec.rank
    if symmetric and not spec.is_all_ones:
        raise SymmetryRequiresAllOnes(
            "the symmetric reduction relies on path reversal, which swaps "
            "up and down weights; it needs the all-ones spec"
        )
    up, down = spec.up, spec.down

    # 0 -> 0: empty path, level step first, or first return after an
    # up/down excursion.
    origin = [(1, 0, ()), (spec.level, 1, ((0, 0),))]
    origin += [(up[p] * down[q], 2, ((0, 0), (p, q))) for p in range(r) for q in range(r)]
    equations = [((0, 0), origin)]
    # i -> j for i >= 1: either never touches 0 (shift down one unit) or
    # splits at the first visit to 0.
    for i in range(1, r):
        for j in range(r):
            terms = [(1, 0, ((i - 1, j - 1),))] if j else []
            terms += [(down[q], 1, ((0, j), (i - 1, q))) for q in range(r)]
            equations.append(((i, j), terms))
    # 0 -> j for j >= 1: split at the last visit to 0.
    for j in range(1, r):
        equations.append(((0, j), [(up[p], 1, ((0, 0), (p, j - 1))) for p in range(r)]))
    unknowns = tuple((i, j) for i in range(r) for j in range(r))

    if symmetric:
        def canon(lab):
            return max(lab), min(lab)

        mirrored = [
            (canon(lhs), [(c, xp, tuple(map(canon, f))) for c, xp, f in terms])
            for lhs, terms in equations
        ]
        last = {lhs: k for k, (lhs, _) in enumerate(mirrored)}
        equations = [eq for k, eq in enumerate(mirrored) if last[eq[0]] == k]
        unknowns = tuple(lab for lab in unknowns if lab == canon(lab))
    return SystemOfEquations(
        r, symmetric, unknowns, tuple((lhs, _grouped(terms)) for lhs, terms in equations)
    )


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
    plans = sorted(system.equations, key=lambda item: min(item[0]))
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
    for lhs, plan in system.equations:
        rhs = _eval_plan(plan, values, t)
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
