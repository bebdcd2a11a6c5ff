"""Colored lattice paths of higher rank.

A rank-r weight spec assigns nonnegative integer weights u_1..u_r to the
up steps (1, j), a weight l to the level step (1, 0), and d_1..d_r to
the down steps (1, -j), 1 <= j <= r.  Paths move right one unit per
step and never dip below the x-axis.  A colored path additionally
carries, on each step, a color between 1 and the weight of its step
type, so the number of colored paths equals the weighted count of the
underlying uncolored paths.

For rank 1 the colors of an up step and of its partner down step (the
first down step to its right at the same height) can be collapsed onto
the down step alone, which is why rank-1 counts depend on u and d only
through the product u*d.  ``recolor_bijection`` implements that map and
``recoloring_report`` checks it exhaustively on small path sets.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from heapq import merge
from itertools import groupby, product
from math import prod
from operator import itemgetter

from . import backend
from .errors import (
    GuardExceeded,
    InvalidPath,
    InvalidSpec,
    NotRankOne,
    UnbalancedPath,
)

DEFAULT_MAX_ENUM = 10**6
DEFAULT_MAX_LENGTH = 12
ENUM_GUARD_ENV = "MOTZKIN_MAX_ENUM"


def _enum_limit(explicit):
    if explicit is not None:
        return explicit
    raw = os.environ.get(ENUM_GUARD_ENV)
    if raw is None:
        return DEFAULT_MAX_ENUM
    try:
        return int(raw)
    except ValueError:
        raise InvalidSpec(f"{ENUM_GUARD_ENV} must be an integer, got {raw!r}") from None


def _guard_length(n, max_length):
    if n > max_length:
        raise GuardExceeded(f"length {n} exceeds the enumeration length guard {max_length}")


@dataclass(frozen=True)
class WeightSpec:
    """Step weights (u_1..u_r; l; d_1..d_r) for rank-r colored paths."""

    up: tuple[int, ...]
    level: int
    down: tuple[int, ...]

    def __post_init__(self):
        up = tuple(self.up)
        down = tuple(self.down)
        for v in (*up, self.level, *down):
            if not isinstance(v, int) or isinstance(v, bool):
                raise InvalidSpec(f"weights must be integers, got {v!r}")
            if v < 0:
                raise InvalidSpec(f"weights must be nonnegative, got {v}")
        if len(up) < 1:
            raise InvalidSpec("rank must be at least 1")
        if len(up) != len(down):
            raise InvalidSpec(
                f"need as many down-weights as up-weights, got {len(up)} up and {len(down)} down"
            )
        object.__setattr__(self, "up", up)
        object.__setattr__(self, "down", down)

    @property
    def rank(self) -> int:
        return len(self.up)

    @property
    def is_all_ones(self) -> bool:
        return self.level == 1 and set(self.up) == {1} and set(self.down) == {1}

    @classmethod
    def all_ones(cls, rank: int) -> "WeightSpec":
        if not isinstance(rank, int) or rank < 1:
            raise InvalidSpec(f"rank must be a positive integer, got {rank!r}")
        return cls((1,) * rank, 1, (1,) * rank)

    @classmethod
    def rank1(cls, u: int, level: int, d: int) -> "WeightSpec":
        return cls((u,), level, (d,))

    @classmethod
    def parse(cls, text: str) -> "WeightSpec":
        """Parse the text form ``u_1,..,u_r;l;d_1,..,d_r``."""
        parts = text.split(";")
        if len(parts) != 3:
            raise InvalidSpec(
                f"weight text must have three ';'-separated groups, got {text!r}"
            )

        def group(chunk):
            items = [s.strip() for s in chunk.split(",")]
            try:
                return tuple(int(s) for s in items)
            except ValueError:
                raise InvalidSpec(f"bad weight group {chunk!r} in {text!r}") from None

        up, lev, down = (group(p) for p in parts)
        if len(lev) != 1:
            raise InvalidSpec(f"exactly one level weight expected in {text!r}")
        return cls(up, lev[0], down)

    def format(self) -> str:
        """Inverse of :meth:`parse`."""
        return "{};{};{}".format(
            ",".join(map(str, self.up)), self.level, ",".join(map(str, self.down))
        )

    def step_types(self) -> tuple[tuple[int, int], ...]:
        """All (displacement, weight) pairs, ascending displacement."""
        r = self.rank
        out = [(-j, self.down[j - 1]) for j in range(r, 0, -1)]
        out.append((0, self.level))
        out.extend((j, self.up[j - 1]) for j in range(1, r + 1))
        return tuple(out)

    def weight_of(self, displacement: int) -> int:
        if displacement == 0:
            return self.level
        j = abs(displacement)
        if j > self.rank:
            raise InvalidPath(f"displacement {displacement} outside rank {self.rank}")
        return self.up[j - 1] if displacement > 0 else self.down[j - 1]


@dataclass(frozen=True)
class Step:
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
        if self.start_height < 0:
            raise InvalidPath(f"start height {self.start_height} is negative")
        h = self.start_height
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

    def step_pairs(self) -> tuple[tuple[int, int], ...]:
        """Steps as raw (displacement, color) pairs."""
        return tuple((s.displacement, s.color) for s in self.steps)

    @classmethod
    def from_step_pairs(cls, spec, pairs, start_height=0) -> "ColoredPath":
        return cls(spec, tuple(Step(d, c) for d, c in pairs), start_height)


def capped_dp_rows(spec, n, start, end, colored=True):
    """Rows 0..n of the capped counting DP from height ``start``.

    Row i is capped at min(start + r*i, end + r*(n - i)), the highest a
    length-n path from ``start`` to ``end`` can be after i steps, and is
    returned cut at heights <= min(start + r*n, end).  Entry h of row i
    is the number of colored length-i paths from ``start`` to h, or of
    uncolored ones with ``colored`` unset.  ``counting`` and the
    enumeration guards below share this one DP.
    """
    r = spec.rank
    types = [(d, w if colored else 1) for d, w in spec.step_types() if w > 0]
    caps = [min(start + r * i, end + r * (n - i)) for i in range(n + 1)]
    return backend.dp_rows(
        [d for d, _ in types], [w for _, w in types], n, start, caps
    )


def _predicted_count(spec, n, start, end, colored):
    last = capped_dp_rows(spec, n, start, end, colored)[n]
    return last[end] if end < len(last) else 0


def _iter_step_vectors(spec, n, start, end, colored):
    """Yield step vectors as tuples of (displacement, color) pairs, in
    lexicographic order by (displacement, color).

    A prefix is cut as soon as ``end`` lies farther away than the
    remaining steps can climb or drop with the largest up and down
    displacements of positive weight.
    """
    types = [(d, w) for d, w in spec.step_types() if w > 0]
    rise = max([d for d, _ in types if d > 0], default=0)
    fall = max([-d for d, _ in types if d < 0], default=0)
    buf = []

    def walk(h, i):
        if i == n:
            if h == end:
                yield tuple(buf)
            return
        rem = n - i - 1
        for d, w in types:
            nh = h + d
            if nh < 0 or nh - end > fall * rem or end - nh > rise * rem:
                continue
            if colored:
                for c in range(1, w + 1):
                    buf.append((d, c))
                    yield from walk(nh, i + 1)
                    buf.pop()
            else:
                buf.append((d, 1))
                yield from walk(nh, i + 1)
                buf.pop()

    return walk(start, 0)


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
    if n < 0 or start < 0 or end < 0:
        raise InvalidSpec("n, start, end must be nonnegative")
    _guard_length(n, max_length)
    limit = _enum_limit(max_paths)
    predicted = _predicted_count(spec, n, start, end, colored)
    if predicted > limit:
        raise GuardExceeded(f"predicted {predicted} paths exceed the guard {limit}")
    return [
        ColoredPath.from_step_pairs(spec, vec, start)
        for vec in _iter_step_vectors(spec, n, start, end, colored)
    ]


@dataclass(frozen=True)
class PairMatching:
    """Each up step paired with the first down step to its right at the
    same height; pairs are (up index, down index) sorted by up index."""

    path: ColoredPath
    pairs: tuple[tuple[int, int], ...]


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


def find_pairs(path: ColoredPath) -> PairMatching:
    """Pair matching of a rank-1 path from height 0 back to height 0.

    On such paths the matching is total: when a down step arrives, the
    current height equals the number of unmatched up steps, so the stack
    is never empty, and the final height 0 means nothing stays open.
    """
    if path.spec.rank != 1:
        raise NotRankOne(f"pair matching needs rank 1, got rank {path.spec.rank}")
    path.validate()
    if path.start_height != 0 or path.end_height != 0:
        raise UnbalancedPath("pair matching needs a path from height 0 to height 0")
    pairs = _match_pairs([s.displacement for s in path.steps])
    return PairMatching(path, tuple(pairs))


def _pair_color(a, b, d):
    """The pair map: up color a and down color b (of d) of a matched pair
    become the down color (a-1)*d + b of the collapsed pair."""
    return (a - 1) * d + b


def _split_color(c, d):
    """Inverse of :func:`_pair_color`: down color c -> (a, b)."""
    a = (c + d - 1) // d
    return a, c - (a - 1) * d


def _recolor_vec(vec, pairs, d):
    out = list(vec)
    for iu, idn in pairs:
        out[iu] = (1, 1)
        out[idn] = (-1, _pair_color(vec[iu][1], vec[idn][1], d))
    return out


def _recolor_vec_inverse(vec, pairs, d):
    out = list(vec)
    for iu, idn in pairs:
        a, b = _split_color(vec[idn][1], d)
        out[iu] = (1, a)
        out[idn] = (-1, b)
    return out


def recolor_bijection(path: ColoredPath) -> ColoredPath:
    """Collapse up/down colors of a rank-1 path onto the down steps.

    A matched pair with up color a (of u choices) and down color b (of
    d choices) becomes an up step of color 1 and a down step of color
    (a-1)*d + b; level steps are untouched.  The result is a colored
    path under the spec (1; l; u*d), and the map is a bijection between
    the two colored path sets, which is why counts depend on u and d
    only through u*d.
    """
    matching = find_pairs(path)
    u = path.spec.up[0]
    d = path.spec.down[0]
    target = WeightSpec((1,), path.spec.level, (u * d,))
    vec = _recolor_vec(path.step_pairs(), matching.pairs, d)
    return ColoredPath.from_step_pairs(target, vec)


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
    matching = find_pairs(path)
    vec = _recolor_vec_inverse(path.step_pairs(), matching.pairs, d)
    return ColoredPath.from_step_pairs(WeightSpec((u,), spec.level, (d,)), vec)


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
        yield tuple(dd for dd, _ in vec)


def _step_colors(spec, skeleton):
    """The color range of each step of ``skeleton`` under ``spec``."""
    return [range(1, spec.weight_of(dd) + 1) for dd in skeleton]


def recoloring_report(u, level, d, n, max_paths=None) -> RecoloringReport:
    """Exhaustively verify the recoloring on all length-n colored paths.

    Enumerates the full colored path set of (u; l; d), maps every path
    through the recoloring, and checks that the image lies in the
    colored path set of (1; l; u*d), is hit injectively and completely,
    and that the inverse returns the original path.  ``n`` is held to
    the enumeration length guard of :func:`enumerate_paths` and both
    path counts to ``max_paths``, before anything is enumerated.

    The sweep is one pass over the uncolored skeletons.  The recoloring
    keeps every displacement, so a colored path is a skeleton plus one
    color per step, its image has the same skeleton, and its pair
    matching depends on the skeleton alone.  Both sides enumerate their
    skeletons in ascending order, and the two streams are merged, so
    each skeleton is met once with the sides that have it.  Within a
    skeleton a path is keyed by the integer sum(c_i * m**i) over its
    step colors c_i < m.  The codomain's keys are one
    ``itertools.product`` over the color digits of each step.

    The pair map acts on each matched pair alone, so the image of a
    domain skeleton is built the same way, as a product over its color
    pairs: up steps add their fixed color 1 to the base key, each level
    step contributes one digit per color, and each pair's down step one
    digit per color pair (a, b), its collapsed color under
    :func:`_pair_color`.  The domain size is the product of the digit
    counts.  Round-trip is checked once per color pair, by splitting
    each collapsed color back with :func:`_split_color`; every skeleton
    with a pair meets every (a, b), so this equals checking each path.

    Only one skeleton's keys are held at a time.  A path and its image
    share a skeleton, and paths on different skeletons differ, so the
    whole image is the disjoint union of the skeletons' image sets: its
    size is the sum of theirs, and it lies in the codomain exactly when
    each skeleton's image set lies in the codomain set of the same
    skeleton.  A domain skeleton the codomain lacks has an empty
    codomain set, so any image there is reported outside the codomain;
    a codomain skeleton the domain lacks still counts toward the
    codomain size.
    """
    src = WeightSpec((u,), level, (d,))
    tgt = WeightSpec((1,), level, (u * d,))
    if n < 0:
        raise InvalidSpec("n must be nonnegative")
    _guard_length(n, DEFAULT_MAX_LENGTH)
    limit = _enum_limit(max_paths)
    for s in (src, tgt):
        c = _predicted_count(s, n, 0, 0, True)
        if c > limit:
            raise GuardExceeded(f"predicted {c} paths exceed the guard {limit}")

    # The pair map on every (a, b) that occurs, tabulated once.
    pair_map = {
        (a, b): _pair_color(a, b, d) for a in range(1, u + 1) for b in range(1, d + 1)
    }
    collapsed = list(pair_map.values())
    # Key digits must stay below m even for colors a faulty pair map yields.
    m = max(level, u * d, *collapsed, 1) + 1
    place = [m**i for i in range(n)]

    domain_size = codomain_size = image_size = 0
    image_in_codomain = True
    paired = False
    skeletons = merge(
        ((skel, "codomain") for skel in _skeletons(tgt, n)),
        ((skel, "domain") for skel in _skeletons(src, n)),
    )
    for skel, group in groupby(skeletons, key=itemgetter(0)):
        sides = {side for _, side in group}
        codomain = set()
        if "codomain" in sides:
            digits = [[c * p for c in colors] for colors, p in zip(_step_colors(tgt, skel), place)]
            codomain = set(map(sum, product(*digits)))
            codomain_size += len(codomain)
        if "domain" in sides:
            pairs = _match_pairs(skel)
            paired = paired or bool(pairs)
            base = sum(place[iu] for iu, _ in pairs)
            digits = [[c * p for c in range(1, level + 1)] for dd, p in zip(skel, place) if dd == 0]
            digits += [[c * place[idn] for c in collapsed] for _, idn in pairs]
            domain_size += prod(map(len, digits))
            image = set(map(sum, product([base], *digits)))
            image_size += len(image)
            image_in_codomain = image_in_codomain and image <= codomain
    # A skeleton with a pair meets every (a, b) on it, so checking the table
    # once equals checking every path, as long as some skeleton has a pair.
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
