"""Toggles and rowmotion: one birational toggle over three value types, and
combinatorial rowmotion on order ideals held as plain tuples of column
heights, checked only where ``ideal_from_points`` reads a user's points.

A labeling assigns a value to every grid point and carries the labels of
the adjoined bottom and top (Grinberg-Roby).  With Fraction or Factored
values both are 1 (a reduced labeling).  With MaxPlus values, the max-plus
semifield, the same toggle is the piecewise-linear toggle (Einstein-Propp):
bottom 0 and top 1 give max(lower) + min(upper) - x.

The toggle's parallel sum over the upper covers is taken through
reciprocals, 1/(1/a + 1/b), as Einstein-Propp write it: a Fraction ** -1
swaps numerator and denominator and costs no gcd, so an interior toggle
normalises four Fractions (the lower sum, the reciprocal sum, the product
and the quotient) where ab/(a + b) took six.  By convention a ∥ 0 = 0.

``toggle_birational`` is the one toggle for every value type and the
reference for the integer sweep, ``_toggle_pairs``: on (numerator,
denominator) int pairs it gives the same values, forming the lower sum L
and the reciprocal sum S of the upper covers unreduced.  Before the
covers' factors are multiplied, the denominator of each lower cover w and
the numerator of the upper cover w + (1, 1) across from it, which share
most of their bits, are divided by their gcd; then six pairs of a
numerator and a denominator factor of the new label are, each once.
Dividing by a gcd never changes a value, so the sweep is exact, but a
label may keep a small common factor until it is read (a lookup builds
its Fraction with one gcd).
Rowmotion never subtracts, so a positive labeling stays positive along its
orbit.  One runner, ``_toggle_runs``, toggles slices of
linear_extension_desc and decides once per labeling which of the two runs
them: the sweep on a "rational" labeling with a positive bottom, top and
labels, composed ``toggle_birational`` otherwise (Factored, MaxPlus, or a
Fraction labeling with a zero or negative label).  Each orbit reader
takes one pass: ``iterates`` and ``pair_iterates`` run the whole order, or
the reversed order for rho^-1, n times, and build a Labeling, or bare int
pairs, only for a step that is asked for; ``iterate_birational`` runs it k
times and builds one Labeling, from the last lookup; and ``light_cone``
runs one prefix per step, yielding rank m-1 of rho^m f for m = 1, ...,
r+s+1.

Each value type is one row of ``_KINDS``: its JSON mode, "rational",
"symbolic" or "pl" (MaxPlus, written as its rational), its label parser,
and its default bottom and top labels, which ``Labeling.to_json`` writes
only where a labeling differs and ``from_json`` reads back.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple, Union

from .errors import BudgetExceeded, OutOfRangeValue, ParseError, PoleEncountered
from .exactnum import Factored, parallel, parse_factored, parse_rational, xvar
from .grid_poset import GridPoint, RectPoset, parse_point_key, point_key


@dataclass(frozen=True)
class MaxPlus:
    """A value of the max-plus semifield: + is max, * is +, / is -, and
    ** e is multiplication by e, so the reciprocal ** -1 is negation and
    parallel's (1/a + 1/b) ** -1 is min(a, b).

    It has no zero, so every value is true under bool, and MaxPlus(0), the
    max-plus one, is taken neither for parallel's zero operand nor a pole."""
    v: Fraction

    def __add__(self, other: "MaxPlus") -> "MaxPlus":
        return MaxPlus(max(self.v, other.v))

    def __mul__(self, other: "MaxPlus") -> "MaxPlus":
        return MaxPlus(self.v + other.v)

    def __truediv__(self, other: "MaxPlus") -> "MaxPlus":
        return MaxPlus(self.v - other.v)

    def __pow__(self, e: int) -> "MaxPlus":
        return MaxPlus(self.v * e)

    def __str__(self) -> str:
        return str(self.v)


Value = Union[Factored, Fraction, MaxPlus]


# One row per value type: its JSON mode and label parser, and the texts of
# its default bottom and top labels, which to_json leaves out.
_KINDS = {
    Fraction: ("rational", parse_rational, "1", "1"),
    Factored: ("symbolic", parse_factored, "1", "1"),
    MaxPlus: ("pl", lambda text: MaxPlus(parse_rational(text)), "0", "1"),
}


@dataclass(frozen=True)
class Labeling:
    """Values at the grid points, with the labels of the adjoined bottom
    and top."""
    poset: RectPoset
    values: Dict[GridPoint, Value]
    bottom: Value
    top: Value

    @property
    def mode(self) -> str:
        return _KINDS[type(self.bottom)][0]

    def value(self, p: GridPoint) -> Value:
        return self.values[p]

    def with_value(self, p: GridPoint, v: Value) -> "Labeling":
        vals = dict(self.values)
        vals[p] = v
        return Labeling(self.poset, vals, self.bottom, self.top)

    def to_json(self) -> dict:
        """The grid, the mode, each label by str(), and the bottom and top
        labels where they differ from the mode's defaults (1 and 1, or 0
        and 1 for "pl", whose labels are the MaxPlus values' rationals)."""
        mode, parse, bottom, top = _KINDS[type(self.bottom)]
        data = {
            "r": self.poset.r,
            "s": self.poset.s,
            "mode": mode,
            "labels": {point_key(p): str(v) for p, v in sorted(self.values.items())},
        }
        for key, x, default in (("bottom", self.bottom, bottom), ("top", self.top, top)):
            if x != parse(default):
                data[key] = str(x)
        return data

    @staticmethod
    def from_json(data: dict) -> "Labeling":
        """The labeling to_json wrote.  A missing mode reads as "rational";
        a mode other than "rational", "symbolic" or "pl" is a ParseError."""
        r, s = data["r"], data["s"]
        if not all(isinstance(n, int) and not isinstance(n, bool) for n in (r, s)):
            raise ParseError(f"grid size r={r!r}, s={s!r}: both must be integers")
        poset = RectPoset(r, s)
        mode = data.get("mode", "rational")
        rows = {row[0]: row for row in _KINDS.values()}
        if mode not in rows:
            raise ParseError(f"mode {mode!r}: must be one of {', '.join(map(repr, rows))}")
        _, parse, bottom, top = rows[mode]
        values = {parse_point_key(k): parse(v) for k, v in data["labels"].items()}
        # Two spellings of one point ("0,0", "00,0") parse to one key.
        if len(values) != len(data["labels"]) or not poset.members_are(values):
            raise ParseError(f"labels must name each point of the {poset.r}x{poset.s} "
                             "grid exactly once")
        return Labeling(poset, values, parse(data.get("bottom", bottom)),
                        parse(data.get("top", top)))


def generic_labeling(poset: RectPoset) -> Labeling:
    """Symbolic labeling with the generic label x_{ij} at (i, j)."""
    one = Factored.const(1)
    return Labeling(poset, {(i, j): Factored.var(xvar(i, j)) for i, j in poset.members()},
                    one, one)


def random_labeling(poset: RectPoset, rng: random.Random) -> Labeling:
    """Evaluation-mode labeling at a random positive rational point.
    Positivity keeps every toggle denominator nonzero."""
    return Labeling(poset, {p: Fraction(rng.randint(1, 2 ** 16), rng.randint(1, 2 ** 8))
                            for p in poset.members()}, Fraction(1), Fraction(1))


def starts(poset: RectPoset, mode: str, trials: int, seed: int) -> List[Labeling]:
    """The start points of a check or an iteration: the generic labeling in
    symbolic mode, otherwise trials random points drawn from Random(seed)."""
    if mode == "symbolic":
        return [generic_labeling(poset)]
    rng = random.Random(seed)
    return [random_labeling(poset, rng) for _ in range(trials)]


def pl_labeling(poset: RectPoset, values: Dict[GridPoint, Fraction]) -> Labeling:
    """Piecewise-linear labeling: the given values, a point of the order
    polytope (each in [0,1] and order-preserving), as max-plus values, with
    bottom label 0 and top label 1."""
    if not poset.members_are(values):
        raise OutOfRangeValue(f"values must name each point of the {poset.r}x{poset.s} "
                              "grid exactly once")
    for p, v in values.items():
        if not 0 <= v <= 1:
            raise OutOfRangeValue(f"value {v} at {p} outside [0,1]")
    for p, v in values.items():
        for w in poset.covers(p)[0]:
            if v > values[w]:
                raise OutOfRangeValue(f"value {v} at {p} exceeds {values[w]} at {w}, "
                                      "which covers it")
    return Labeling(poset, {p: MaxPlus(v) for p, v in values.items()},
                    MaxPlus(Fraction(0)), MaxPlus(Fraction(1)))


def lower_sum(f: Labeling, v: GridPoint) -> Value:
    """Sum of the labels of the elements v covers, the adjoined bottom's
    included."""
    downs, bottom = f.poset.covered_by(v)
    lower = [f.value(w) for w in downs] + ([f.bottom] if bottom else [])
    return sum(lower[1:], lower[0])


def toggle_birational(f: Labeling, v: GridPoint) -> Labeling:
    """f with the label x at v replaced by L * S / x, where L is the lower
    sum at v and S the parallel sum of the labels of the elements covering
    v, the adjoined top's included; a zero division is a pole."""
    ups, top = f.poset.covers(v)
    upper = [f.value(z) for z in ups] + ([f.top] if top else [])
    low_sum = lower_sum(f, v)
    up_par = functools.reduce(parallel, upper)
    try:
        new = low_sum * up_par / f.value(v)
    except ZeroDivisionError:
        raise PoleEncountered(f"pole while toggling at {v}")
    return f.with_value(v, new)


def rowmotion_birational(f: Labeling) -> Labeling:
    """The toggles composed from top to bottom."""
    return iterate_birational(f, 1)


@functools.lru_cache(maxsize=None)
def _sweep_plan(poset: RectPoset) -> Tuple[tuple, ...]:
    """One entry per point in linear_extension_desc order: its slot, the
    slots of the elements it covers, the slots of the elements covering it,
    and its diagonal pairs, (w, z) for each lower cover w whose w + (1, 1)
    is an upper cover z.  A member's slot is ``poset.index``, its position
    in ``members()``; slot len(members) stands for the adjoined bottom and
    the next for the top; neither is ever paired."""
    order, slot = poset.linear_extension_desc(), poset.index
    bottom, top = len(order), len(order) + 1
    plan = []
    for v in order:
        downs, at_bottom = poset.covered_by(v)
        ups, at_top = poset.covers(v)
        lower = tuple(slot(w) for w in sorted(downs)) + ((bottom,) if at_bottom else ())
        upper = tuple(slot(z) for z in sorted(ups)) + ((top,) if at_top else ())
        pairs = tuple((slot((i, j)), slot((i + 1, j + 1))) for i, j in sorted(downs)
                      if (i + 1, j + 1) in ups)
        plan.append((slot(v), lower, upper, pairs))
    return tuple(plan)


def _cancel(x: int, y: int) -> Tuple[int, int]:
    """x and y divided by their gcd."""
    g = math.gcd(x, y)
    return (x // g, y // g) if g > 1 else (x, y)


def _toggle_pairs(num: List[int], den: List[int], plan: Tuple[tuple, ...]) -> None:
    """The toggles of plan's entries in order, on positive labels held as
    int pairs in num and den, not always in lowest terms.

    At a point labelled n/d, the lower covers w sum to a/b, a = sum n_w
    prod d_other and b = prod d_w, and the reciprocals of the upper covers
    z to P/Q, P = sum d_z prod n_other and Q = prod n_z, both unreduced;
    the new label is a d Q / (b n P).  Before b and Q are multiplied out,
    each diagonal pair of _sweep_plan, a lower cover w and the upper cover
    z = w + (1, 1), divides n_z and d_w by their gcd.  Between w and z lie
    the point toggled and one other, u, and the last toggles of w and of
    z, in either direction of the sweep, read the same labels of those
    two: w took their reciprocal sum d n_u + d_u n into d_w, and z their
    lower sum n d_u + n_u d into n_z.  Over 16 rowmotions of a random
    15x15 start, forward or backward, n_z and d_w share ~1300 of their
    ~1450 bits, where the other pairs of a lower and an upper cover share
    ~2.  So two gcds of single factors, with narrow quotients, replace one
    gcd of the products Q and b.  Then (a, n), (d, P), (a, b), (Q, P),
    (d, b) and (Q, n) are each divided by their gcd once.  An interior
    point, with two lower and two upper covers, takes one straight-line
    branch; an edge point, with at most one diagonal pair, the loop.

    The pair (a, P) is left, and so is (d, n), and so are the covers'
    non-diagonal pairs: over those rowmotions a and P, once cancelled
    against the rest, share ~2 bits and are coprime 69% of the time.  So
    a label may keep a small common factor, which the neighbours' (a, b)
    and (Q, P) gcds cancel where it is summed: from
    random_labeling(Random(1)) it stayed within 73 bits over 16 rowmotions
    of 15x15 and 98 bits over 22 of 20x20.  Dividing by a gcd never
    changes a value, and a lookup still reduces each label with one gcd,
    so every label read is exact and in lowest terms."""
    for k, lower, upper, pairs in plan:
        if len(pairs) == 2:
            (w, z), (x, y) = pairs
            dw, dx, nz, ny = den[w], den[x], num[z], num[y]
            a = num[w] * dx + num[x] * dw
            P = den[z] * ny + den[y] * nz
            nz, dw = _cancel(nz, dw)
            ny, dx = _cancel(ny, dx)
            b, Q = dw * dx, nz * ny
        else:
            a, b, P, Q = 0, 1, 0, 1
            for w in lower:
                a, b = a * den[w] + num[w] * b, b * den[w]
            for z in upper:
                P, Q = P * num[z] + den[z] * Q, Q * num[z]
            for w, z in pairs:
                g = math.gcd(num[z], den[w])
                b, Q = b // g, Q // g
        a, n = _cancel(a, num[k])
        d, P = _cancel(den[k], P)
        a, b = _cancel(a, b)
        Q, P = _cancel(Q, P)
        d, b = _cancel(d, b)
        Q, n = _cancel(Q, n)
        num[k], den[k] = a * d * Q, b * n * P


Pairs = Tuple[List[int], List[int]]  # numerators and denominators of labels


def _toggle_runs(f: Labeling, parts: Iterable[slice]
                 ) -> Iterator[Tuple[Callable[[GridPoint], Value], Optional[Pairs]]]:
    """For each slice of linear_extension_desc in turn, toggle its points in
    order and yield a lookup of the current labels and, where the sweep
    runs, its (numerator, denominator) lists in ``poset.index`` order
    (else None), both valid until the next slice is toggled.

    This is the one place that picks the toggle kernel.  When the labeling
    is rational and the bottom, the top and every label are positive, each
    slice runs _toggle_pairs over the labels held once as (numerator,
    denominator) lists, and the lookup builds the Fraction of one label,
    reduced by its one gcd; otherwise each slice composes toggle_birational."""
    plan, index = _sweep_plan(f.poset), f.poset.index
    xs = [f.values[p] for p in f.poset.members()] + [f.bottom, f.top]
    # x.numerator > 0 skips Fraction's rich comparison with 0.
    if f.mode == "rational" and all(x.numerator > 0 for x in xs):
        num, den = _pairs(xs)
        for part in parts:
            _toggle_pairs(num, den, plan[part])
            yield (lambda p: Fraction(num[index(p)], den[index(p)])), (num, den)
        return
    order = f.poset.linear_extension_desc()
    for part in parts:
        for v in order[part]:
            f = toggle_birational(f, v)
        yield f.value, None


def _pairs(xs: List[Fraction]) -> Pairs:
    return [x.numerator for x in xs], [x.denominator for x in xs]


def pair_iterates(f: Labeling, n: int, step: int = 1) -> Iterator[Pairs]:
    """Yield the labels of f, rho^step f, ..., rho^(n step) f, for step 1
    or -1 and a rational f, as new lists of numerators and denominators in
    members() order, with no Labeling built.  The sweep's pairs may share
    a small factor (see _toggle_pairs), so compare by cross-multiplying."""
    members = f.poset.members()
    for label, pairs in _toggle_runs(f, [slice(0)] + [slice(None, None, step)] * n):
        num, den = pairs or _pairs([label(p) for p in members])
        yield num[:len(members)], den[:len(members)]


def light_cone(f: Labeling) -> Iterator[Dict[GridPoint, Value]]:
    """For m = 1, ..., r+s+1, yield the labels of rho^m f on rank m-1, the
    points (i, j) with i + j = m-1, toggling only what they depend on.

    Rowmotion toggles from the top rank down, so the toggle at a point of
    rank k reads its upper covers already toggled and its lower covers not
    yet: rho^m f on rank k depends on rho^m f on rank k+1 and rho^(m-1) f on
    ranks k and k-1.  So rho^m f on the ranks >= m-1 depends only on
    rho^(m-1) f on the ranks >= m-2, and step m toggles only the points of
    rank >= m-1, a prefix of linear_extension_desc.  The ranks below keep
    labels that no later step reads.  Over all steps a point of rank k is
    toggled k+1 times, where r+s+1 full rowmotions toggle it r+s+1 times,
    and every label yielded is exactly that of rho^m f.

    A toggle that is skipped is never evaluated, so a pole there is not
    raised.  The prefixes run through _toggle_runs, as rowmotion does, and
    only the labels of the rank yielded are looked up."""
    r, s = f.poset.r, f.poset.s
    order = f.poset.linear_extension_desc()
    # ends[k]: the number of points of rank >= k, the length of the prefix.
    ends = [sum(i + j >= k for i, j in order) for k in range(r + s + 2)]
    runs = _toggle_runs(f, [slice(ends[m - 1]) for m in range(1, r + s + 2)])
    for m, (label, _) in enumerate(runs, 1):
        yield {p: label(p) for p in order[ends[m]:ends[m - 1]]}


def iterates(f: Labeling, n: int, step: int = 1) -> Iterator[Labeling]:
    """Yield f, rho^step f, ..., rho^(n step) f, for step 1 or -1, from one
    _toggle_runs pass that toggles each step only when it is asked for.

    Step -1 composes the toggles from bottom to top, which is exactly
    rho^-1: each toggle is an involution, since the new label at v is
    L S / x_v and neither the lower sum L nor the parallel sum S of the
    upper covers depends on x_v, so rowmotion's toggles taken in reverse
    order undo it."""
    for label, _ in _toggle_runs(f, [slice(0)] + [slice(None, None, step)] * n):
        yield Labeling(f.poset, {p: label(p) for p in f.values}, f.bottom, f.top)


def iterate_birational(f: Labeling, k: int) -> Labeling:
    """rho^k f, k >= 0, from one _toggle_runs pass of k rowmotions, with
    only the last labeling built."""
    for label, _ in _toggle_runs(f, [slice(0)] + [slice(None)] * k):
        pass
    return Labeling(f.poset, {p: label(p) for p in f.values}, f.bottom, f.top)


Heights = Tuple[int, ...]  # weakly decreasing in [0, s+1], one per column
IDEAL_BUDGET = 2 ** 24  # the most ideals ``orbits`` marks; 12x12 has 10 400 600


def ideal_from_points(poset: RectPoset, points) -> Heights:
    """The column heights of the ideal with the given points; they must lie
    in the grid and be downward closed."""
    members = frozenset(points)
    for (i, j) in members:
        if not poset.contains((i, j)):
            raise OutOfRangeValue(f"({i},{j}) outside the grid")
        for w in ((i - 1, j), (i, j - 1)):
            if poset.contains(w) and w not in members:
                raise OutOfRangeValue(f"not downward closed at {w}")
    heights = [0] * (poset.r + 1)
    for (i, _) in members:
        heights[i] += 1
    return tuple(heights)


def ideal_points(heights: Heights) -> List[List[int]]:
    """The points (i, j), j < heights[i], as [i, j] lists in (i, j) order."""
    return [[i, j] for i, h in enumerate(heights) for j in range(h)]


def rowmotion_combinatorial(poset: RectPoset, heights: Heights) -> Heights:
    """The ideal generated by the minimal elements of the complement, in one
    right-to-left pass over the column heights.

    The point (i, h_i) is minimal in the complement exactly when h_i <= s
    and either i == 0 or h_{i-1} > h_i.  Column i of the new ideal reaches the
    highest such point in a column a >= i; since the heights decrease, that
    is the nearest one."""
    h, s = heights, poset.s
    new = [0] * len(h)
    top = 0
    for i in range(len(h) - 1, -1, -1):
        if h[i] <= s and (i == 0 or h[i - 1] > h[i]):
            top = h[i] + 1
        new[i] = top
    return tuple(new)


def orbit(poset: RectPoset, heights: Heights) -> List[Heights]:
    """The rowmotion cycle through an ideal; closed at the first repetition."""
    out = [heights]
    while (cur := rowmotion_combinatorial(poset, out[-1])) != heights:
        out.append(cur)
    return out


def _lex_rank(poset: RectPoset) -> Callable[[Heights], int]:
    """The index of column heights h in all_order_ideals' order: the sum over
    i of skip[i][h_i], the C(r-i+h_i, h_i-1) weakly decreasing tails from
    column i that start below h_i (hockey stick), with skip[i][0] = 0."""
    r, s = poset.r, poset.s
    skip = [[math.comb(r - i + h, h - 1) if h else 0 for h in range(s + 2)]
            for i in range(r + 1)]
    return lambda heights: sum(map(list.__getitem__, skip, heights))


def _ideal_count(poset: RectPoset) -> int:
    """C(r+s+2, k), k = min(r, s) + 1, the number of order ideals, from a
    product of rising C(n, 1), ..., C(n, k) that stops once past the budget."""
    n, count = poset.r + poset.s + 2, 1
    for k in range(1, min(poset.r, poset.s) + 2):
        count = count * (n + 1 - k) // k
        if count > IDEAL_BUDGET:
            raise BudgetExceeded(f"the {poset.r}x{poset.s} grid has more order ideals than "
                                 f"IDEAL_BUDGET = {IDEAL_BUDGET}, the most the orbit walk marks")
    return count


def orbits(poset: RectPoset) -> Iterator[List[Heights]]:
    """Each rowmotion orbit once, in order of its least ideal in height
    order, starting at that ideal.  Only the orbit being walked is held; the
    ideals seen are marked by rank in a bytearray, one byte per ideal,
    allocated once _ideal_count has held the grid to IDEAL_BUDGET."""
    seen = bytearray(_ideal_count(poset))
    rank = _lex_rank(poset)
    for heights in all_order_ideals(poset):
        if not seen[rank(heights)]:
            orb = orbit(poset, heights)
            for o in orb:
                seen[rank(o)] = 1
            yield orb


def all_order_ideals(poset: RectPoset) -> Iterator[Heights]:
    """Every order ideal, generated one at a time, as weakly decreasing
    column heights in lexicographic order."""
    h = [poset.s + 1] + [0] * (poset.r + 1)  # h[0] caps the first column
    while True:
        yield tuple(h[1:])
        i = poset.r + 1
        while i and h[i] == h[i - 1]:
            i -= 1
        if i == 0:
            return
        h[i] += 1
        h[i + 1:] = [0] * (poset.r + 1 - i)
