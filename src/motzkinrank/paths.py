"""Colored lattice paths of higher rank.

A rank-r weight spec assigns nonnegative integer weights u_1..u_r to the
up steps (1, j), a weight l to the level step (1, 0), and d_1..d_r to
the down steps (1, -j), 1 <= j <= r.  Paths move right one unit per
step and never dip below the x-axis.  A colored path additionally
carries, on each step, a color between 1 and the weight of its step
type, so the number of colored paths equals the weighted count of the
underlying uncolored paths.  A step is a :class:`Step`, the named
pair (displacement, color); an uncolored path has every color 1.

For rank 1 the colors of an up step and of its partner down step (the
first down step to its right at the same height) can be collapsed onto
the down step alone, which is why rank-1 counts depend on u and d only
through the product u*d.  ``recolor_bijection`` implements that map and
``recoloring_report`` checks it exhaustively on small path sets.

The weight spec :class:`WeightSpec` and the capped counting DP
``capped_dp_rows`` live in ``counting``, which counts without loading
this module; both stay importable from ``paths``.  One guard,
``_guard``, checks the sizes through ``errors.check_sizes`` and holds
both ``enumerate_paths`` and ``recoloring_report`` to the length and
path-count guards, the latter predicted by that DP.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache
from heapq import merge
from itertools import groupby
from operator import itemgetter
from typing import NamedTuple

from .counting import WeightSpec, capped_dp_rows
from .errors import (
    GuardExceeded,
    InvalidPath,
    InvalidSpec,
    NotRankOne,
    UnbalancedPath,
    check_sizes,
)

DEFAULT_MAX_ENUM = 10**6
DEFAULT_MAX_LENGTH = 12
ENUM_GUARD_ENV = "MOTZKIN_MAX_ENUM"


def _guard(specs, n, start, end, colored, max_paths, max_length):
    """Refuse an enumeration of length-n paths from ``start`` to ``end``
    before it starts: ``n`` must not exceed ``max_length``, and no spec's
    DP-predicted path count may exceed ``max_paths`` (default 10**6, or
    the MOTZKIN_MAX_ENUM environment variable)."""
    check_sizes("n, start, end", n, start, end)
    check_sizes("max_length", max_length)
    if n > max_length:
        raise GuardExceeded(f"length {n} exceeds the enumeration length guard {max_length}")
    if max_paths is None:
        raw = os.environ.get(ENUM_GUARD_ENV, DEFAULT_MAX_ENUM)
        try:
            max_paths = int(raw)
        except ValueError:
            raise InvalidSpec(f"{ENUM_GUARD_ENV} must be an integer, got {raw!r}") from None
    else:
        check_sizes("max_paths", max_paths)
    for spec in specs:
        last = capped_dp_rows(spec, n, start, end, colored)[n]
        predicted = last[end] if end < len(last) else 0
        if predicted > max_paths:
            raise GuardExceeded(f"predicted {predicted} paths exceed the guard {max_paths}")


class Step(NamedTuple):
    """One step: its displacement and its color (1 on an uncolored path)."""

    displacement: int
    color: int = 1


@dataclass(frozen=True)
class ColoredPath:
    """A colored path under a fixed spec.

    Construction does not validate (enumeration produces valid paths by
    construction and revalidating millions of them is wasteful); call
    :meth:`validate` on untrusted step data.  ``from_text`` validates.
    """

    spec: WeightSpec
    steps: tuple[Step, ...]
    start_height: int = 0

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))

    def __len__(self) -> int:
        return len(self.steps)

    @property
    def end_height(self) -> int:
        return self.start_height + sum(s.displacement for s in self.steps)

    def heights(self) -> tuple[int, ...]:
        """The n+1 heights visited, including both endpoints."""
        out = [self.start_height]
        for s in self.steps:
            out.append(out[-1] + s.displacement)
        return tuple(out)

    def validate(self) -> "ColoredPath":
        h = self.start_height
        if isinstance(h, int) and h < 0:
            raise InvalidPath(f"start height {h} is negative")
        check_sizes("start height", h)
        for i, s in enumerate(self.steps):
            w = self.spec.weight_of(s.displacement)  # raises on |d| > rank
            if not 1 <= s.color <= w:
                raise InvalidPath(
                    f"step {i}: color {s.color} outside 1..{w} "
                    f"for displacement {s.displacement}"
                )
            h += s.displacement
            if h < 0:
                raise InvalidPath(f"step {i}: path drops below the x-axis")
        return self

    def weight(self) -> int:
        """Product of the step-type weights (= number of recolorings)."""
        w = 1
        for s in self.steps:
            w *= self.spec.weight_of(s.displacement)
        return w

    def to_text(self) -> str:
        """Text form ``+1:1,0:2,-1:3`` (empty string for the empty path)."""
        return ",".join(
            f"{s.displacement:+d}:{s.color}" if s.displacement else f"0:{s.color}"
            for s in self.steps
        )

    @classmethod
    def from_text(cls, spec: WeightSpec, text: str, start_height: int = 0) -> "ColoredPath":
        text = text.strip()
        steps = []
        if text:
            for i, tok in enumerate(text.split(",")):
                head, sep, tail = tok.partition(":")
                if not sep:
                    raise InvalidPath(f"step {i}: missing ':' in {tok!r}")
                try:
                    steps.append(Step(int(head), int(tail)))
                except ValueError:
                    raise InvalidPath(f"step {i}: bad step token {tok!r}") from None
        return cls(spec, tuple(steps), start_height).validate()

    @classmethod
    def from_step_pairs(cls, spec, pairs, start_height=0) -> "ColoredPath":
        return cls(spec, tuple(map(Step._make, pairs)), start_height)


def _iter_step_vectors(spec, n, start, end, colored):
    """Yield step vectors as tuples of :class:`Step`, in lexicographic
    order by (displacement, color).

    A prefix is cut as soon as ``end`` lies farther away than the
    remaining steps can climb or drop with the largest up and down
    displacements of positive weight.  The walk is a loop over a stack
    of iterators, one per step taken, so its depth is not bounded by the
    interpreter's recursion limit.  Every path shares the ``Step``s of
    one table, and the allowed steps of each (height, steps left) are
    listed once.
    """
    types = [(d, w) for d, w in spec.step_types() if w > 0]
    rise = max([d for d, _ in types if d > 0], default=0)
    fall = max([-d for d, _ in types if d < 0], default=0)
    table = [(d, [Step(d, c) for c in range(1, (w if colored else 1) + 1)]) for d, w in types]
    allowed = {}

    def moves(h, rem):
        """(step, height after it) from height h with ``rem`` steps to follow."""
        if (h, rem) not in allowed:
            allowed[h, rem] = [
                (s, h + d)
                for d, group in table
                if h + d >= 0 and h + d - end <= fall * rem and end - h - d <= rise * rem
                for s in group
            ]
        return iter(allowed[h, rem])

    if n == 0:
        if start == end:
            yield ()
        return
    buf = []
    stack = [moves(start, n - 1)]
    while stack:
        for s, h in stack[-1]:
            if len(buf) == n - 1:  # the cut leaves only steps that land on end
                yield (*buf, s)
            else:
                buf.append(s)
                stack.append(moves(h, n - 1 - len(buf)))
                break
        else:
            stack.pop()
            if buf:
                buf.pop()


def enumerate_paths(
    spec: WeightSpec,
    n: int,
    start: int = 0,
    end: int = 0,
    colored: bool = True,
    max_paths: int | None = None,
    max_length: int = DEFAULT_MAX_LENGTH,
) -> list[ColoredPath]:
    """All length-n paths from ``start`` to ``end`` in lexicographic
    order by (displacement, color).

    With ``colored`` unset, one representative (all colors 1) per
    uncolored path is produced.  Two guards protect against accidental
    blow-up: ``n`` must not exceed ``max_length``, and the DP-predicted
    path count must not exceed ``max_paths`` (default 10**6, or the
    MOTZKIN_MAX_ENUM environment variable).
    """
    _guard((spec,), n, start, end, colored, max_paths, max_length)
    return [
        ColoredPath(spec, vec, start)
        for vec in _iter_step_vectors(spec, n, start, end, colored)
    ]


def _match_pairs(displacements):
    stack = []
    pairs = []
    for i, d in enumerate(displacements):
        if d > 0:
            stack.append(i)
        elif d < 0:
            pairs.append((stack.pop(), i))
    pairs.sort()
    return pairs


def find_pairs(path: ColoredPath) -> tuple[tuple[int, int], ...]:
    """Pair matching of a rank-1 path from height 0 back to height 0:
    each up step paired with the first down step to its right at the
    same height, as (up index, down index) pairs sorted by up index.

    On such paths the matching is total: when a down step arrives, the
    current height equals the number of unmatched up steps, so the stack
    is never empty, and the final height 0 means nothing stays open.
    """
    if path.spec.rank != 1:
        raise NotRankOne(f"pair matching needs rank 1, got rank {path.spec.rank}")
    path.validate()
    if path.start_height != 0 or path.end_height != 0:
        raise UnbalancedPath("pair matching needs a path from height 0 to height 0")
    return tuple(_match_pairs([s.displacement for s in path.steps]))


def _pair_color(a, b, d):
    """The pair map: up color a and down color b (of d) of a matched pair
    become the down color (a-1)*d + b of the collapsed pair."""
    return (a - 1) * d + b


def _split_color(c, d):
    """Inverse of :func:`_pair_color`: down color c -> (a, b)."""
    a = (c + d - 1) // d
    return a, c - (a - 1) * d


def _recolor_vec(steps, pairs, d):
    out = list(steps)
    for iu, idn in pairs:
        out[iu] = Step(1, 1)
        out[idn] = Step(-1, _pair_color(steps[iu].color, steps[idn].color, d))
    return out


def _recolor_vec_inverse(steps, pairs, d):
    out = list(steps)
    for iu, idn in pairs:
        a, b = _split_color(steps[idn].color, d)
        out[iu] = Step(1, a)
        out[idn] = Step(-1, b)
    return out


# The specs on either side of the recoloring, built and validated once per
# (u, l, d).  ``typed`` keeps True apart from 1 and 2.0 from 2, so a weight
# that is no integer still raises each time.
_rank1_spec = lru_cache(typed=True)(WeightSpec.rank1)


def recolor_bijection(path: ColoredPath) -> ColoredPath:
    """Collapse up/down colors of a rank-1 path onto the down steps.

    A matched pair with up color a (of u choices) and down color b (of
    d choices) becomes an up step of color 1 and a down step of color
    (a-1)*d + b; level steps are untouched.  The result is a colored
    path under the spec (1; l; u*d), and the map is a bijection between
    the two colored path sets, which is why counts depend on u and d
    only through u*d.
    """
    pairs = find_pairs(path)
    u = path.spec.up[0]
    d = path.spec.down[0]
    target = _rank1_spec(1, path.spec.level, u * d)
    return ColoredPath(target, _recolor_vec(path.steps, pairs, d))


def recolor_inverse(path: ColoredPath, u: int, d: int) -> ColoredPath:
    """Inverse of :func:`recolor_bijection` onto the spec (u; l; d).

    The path must live under (1; l; u*d); the down color c of each pair
    splits as a = ceil(c/d), b = c - (a-1)*d.
    """
    spec = path.spec
    if spec.rank != 1:
        raise NotRankOne(f"recoloring needs rank 1, got rank {spec.rank}")
    if spec.up != (1,) or spec.down != (u * d,):
        raise InvalidSpec(
            f"path spec {spec.format()} is not (1;{spec.level};{u * d}) "
            f"as required for up weight {u} and down weight {d}"
        )
    steps = _recolor_vec_inverse(path.steps, find_pairs(path), d)
    return ColoredPath(_rank1_spec(u, spec.level, d), steps)


@dataclass(frozen=True)
class RecoloringReport:
    """Outcome of the exhaustive recoloring check at one (u, l, d, n)."""

    u: int
    level: int
    d: int
    n: int
    domain_size: int
    codomain_size: int
    image_size: int
    image_in_codomain: bool
    roundtrip_ok: bool

    @property
    def is_bijection(self) -> bool:
        return (
            self.image_in_codomain
            and self.roundtrip_ok
            and self.domain_size == self.image_size == self.codomain_size
        )


def _skeletons(spec, n):
    """Uncolored length-n paths from height 0 to 0, as displacement tuples."""
    for vec in _iter_step_vectors(spec, n, 0, 0, False):
        yield tuple(map(itemgetter(0), vec))


def recoloring_report(u, level, d, n, max_paths=None) -> RecoloringReport:
    """Exhaustively verify the recoloring on all length-n colored paths.

    Checks that the recoloring maps the colored path set of (u; l; d)
    into the colored path set of (1; l; u*d), injectively and onto it,
    and that the inverse returns every path.  ``n`` is held to the
    enumeration length guard of :func:`enumerate_paths` and both path
    counts to ``max_paths``, before anything is enumerated.

    The sweep is one pass over the uncolored skeletons.  The recoloring
    keeps every displacement, so a colored path is a skeleton plus one
    color per step, and its image has the same skeleton.  Both sides
    enumerate their skeletons in ascending order, and the two streams are
    merged, so each skeleton is met once with the sides that have it.
    Paths on different skeletons differ, so the whole image is the
    disjoint union of the skeletons' images: its size is the sum of
    theirs, and it lies in the codomain exactly when each skeleton's
    image lies in the codomain paths of the same skeleton.  A domain
    skeleton the codomain lacks has no codomain paths, so any image there
    is reported outside the codomain; a codomain skeleton the domain
    lacks still counts toward the codomain size.

    On one skeleton, the domain paths, their images and the codomain
    paths are each a product of one color set per step.  All three take
    1..l on a level step.  The image and the codomain take {1} on an up
    step, and the codomain takes 1..u*d on a down step.  On a domain
    skeleton every down step closes exactly one pair (see
    :func:`find_pairs`), and the pair map acts on each pair alone, so the
    domain has u*d colorings per pair, and the image takes the collapsed
    colors :func:`_pair_color` (a, b) on each down step.  A step type of
    weight 0 never occurs on a skeleton, so every set is nonempty.  A
    product of nonempty sets has the product of their sizes, and it lies
    in another product exactly when each set lies in the other's set at
    the same step.  So each skeleton adds a product of powers to each
    size, and its image lies in the codomain exactly when the collapsed
    colors lie in 1..u*d, which is checked once.

    The inverse also splits each pair alone, so a path comes back
    exactly when each of its color pairs does.  Round-trip is therefore
    checked once per color pair, by splitting each collapsed color back
    with :func:`_split_color`: every skeleton with a pair meets every
    (a, b) on it, so this equals checking each path.
    """
    src = WeightSpec((u,), level, (d,))
    tgt = WeightSpec((1,), level, (u * d,))
    _guard((src, tgt), n, 0, 0, True, max_paths, DEFAULT_MAX_LENGTH)

    # The pair map on every (a, b) that occurs, tabulated once.
    pair_map = {
        (a, b): _pair_color(a, b, d) for a in range(1, u + 1) for b in range(1, d + 1)
    }
    collapsed = set(pair_map.values())
    collapsed_fit = collapsed <= set(range(1, u * d + 1))

    domain_size = codomain_size = image_size = 0
    image_in_codomain = True
    paired = False
    skeletons = merge(
        ((skel, "codomain") for skel in _skeletons(tgt, n)),
        ((skel, "domain") for skel in _skeletons(src, n)),
    )
    for skel, group in groupby(skeletons, key=itemgetter(0)):
        sides = {side for _, side in group}
        level_colorings = level ** skel.count(0)
        downs = skel.count(-1)
        if "codomain" in sides:
            codomain_size += level_colorings * (u * d) ** downs
        if "domain" in sides:
            paired = paired or downs > 0
            domain_size += level_colorings * (u * d) ** downs
            image_size += level_colorings * len(collapsed) ** downs
            image_in_codomain = (
                image_in_codomain and "codomain" in sides and (collapsed_fit or not downs)
            )
    roundtrip_ok = not paired or all(
        _split_color(c, d) == ab for ab, c in pair_map.items()
    )
    return RecoloringReport(
        u, level, d, n,
        domain_size=domain_size,
        codomain_size=codomain_size,
        image_size=image_size,
        image_in_codomain=image_in_codomain,
        roundtrip_ok=roundtrip_ok,
    )
