"""Toggles and rowmotion: one birational toggle over three value types, and
combinatorial rowmotion on order ideals held as column heights.

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
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, FrozenSet, Iterator, List, Tuple, Union

from .errors import OutOfRangeValue, ParseError, PoleEncountered
from .exactnum import Factored, parallel, parse_factored, parse_rational, xvar
from .grid_poset import GridPoint, RectPoset, parse_point_key, point_key


@dataclass(frozen=True)
class MaxPlus:
    """A value of the max-plus semifield: + is max, * is +, / is -, and
    ** e is multiplication by e, so the reciprocal ** -1 is negation and
    parallel's (1/a + 1/b) ** -1 is min(a, b).

    It equals only max-plus values, so MaxPlus(0), the max-plus one, is
    taken neither for parallel's zero operand nor for a pole."""
    v: Fraction

    def __add__(self, other: "MaxPlus") -> "MaxPlus":
        return MaxPlus(max(self.v, other.v))

    def __mul__(self, other: "MaxPlus") -> "MaxPlus":
        return MaxPlus(self.v + other.v)

    def __truediv__(self, other: "MaxPlus") -> "MaxPlus":
        return MaxPlus(self.v - other.v)

    def __pow__(self, e: int) -> "MaxPlus":
        return MaxPlus(self.v * e)


Value = Union[Factored, Fraction, MaxPlus]


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
        v = next(iter(self.values.values()), None)
        return "symbolic" if isinstance(v, Factored) else "rational"

    def value(self, p: GridPoint) -> Value:
        return self.values[p]

    def with_value(self, p: GridPoint, v: Value) -> "Labeling":
        vals = dict(self.values)
        vals[p] = v
        return Labeling(self.poset, vals, self.bottom, self.top)

    def to_json(self) -> dict:
        return {
            "r": self.poset.r,
            "s": self.poset.s,
            "mode": self.mode,
            "labels": {point_key(p): str(v) for p, v in sorted(self.values.items())},
        }

    @staticmethod
    def from_json(data: dict) -> "Labeling":
        r, s = data["r"], data["s"]
        if not all(isinstance(n, int) and not isinstance(n, bool) for n in (r, s)):
            raise ParseError(f"grid size r={r!r}, s={s!r}: both must be integers")
        poset = RectPoset(r, s)
        parse = parse_factored if data.get("mode") == "symbolic" else parse_rational
        values = {parse_point_key(k): parse(v) for k, v in data["labels"].items()}
        # Two spellings of one point ("0,0", "00,0") parse to one key.
        if len(values) != len(data["labels"]) or not poset.members_are(values):
            raise ParseError(f"labels must name each point of the {poset.r}x{poset.s} "
                             "grid exactly once")
        one = parse("1")
        return Labeling(poset, values, one, one)


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
    for v in f.poset.linear_extension_desc():
        f = toggle_birational(f, v)
    return f


def iterates(f: Labeling, n: int) -> Iterator[Labeling]:
    """Yield f, rho f, ..., rho^n f: n rowmotions, each run on demand."""
    yield f
    for _ in range(n):
        f = rowmotion_birational(f)
        yield f


def iterate_birational(f: Labeling, k: int) -> Labeling:
    for f in iterates(f, k):
        pass
    return f


@dataclass(frozen=True)
class OrderIdeal:
    """An order ideal held as its column heights: a weakly decreasing tuple,
    where column i holds the points (i, j) with j < heights[i]."""
    poset: RectPoset
    heights: Tuple[int, ...]

    def __post_init__(self):
        h, r, s = self.heights, self.poset.r, self.poset.s
        if (len(h) != r + 1 or h[0] > s + 1 or h[-1] < 0
                or any(a < b for a, b in zip(h, h[1:]))):
            raise OutOfRangeValue(f"column heights {h} are not weakly decreasing "
                                  f"in [0, {s + 1}] over {r + 1} columns")

    @staticmethod
    def from_points(poset: RectPoset, points) -> "OrderIdeal":
        """The ideal with the given points; they must lie in the grid and
        be downward closed."""
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
        return OrderIdeal(poset, tuple(heights))

    @property
    def members(self) -> FrozenSet[GridPoint]:
        """The points of the ideal."""
        return frozenset((i, j) for i, h in enumerate(self.heights) for j in range(h))

    def size(self) -> int:
        return sum(self.heights)


def rowmotion_combinatorial(ideal: OrderIdeal) -> OrderIdeal:
    """The ideal generated by the minimal elements of the complement, in one
    right-to-left pass over the column heights.

    The point (i, h_i) is minimal in the complement exactly when h_i <= s
    and either i == 0 or h_{i-1} > h_i.  Column i of the new ideal reaches the
    highest such point in a column a >= i; since the heights decrease, that
    is the nearest one."""
    h, s = ideal.heights, ideal.poset.s
    new = [0] * len(h)
    top = 0
    for i in range(len(h) - 1, -1, -1):
        if h[i] <= s and (i == 0 or h[i - 1] > h[i]):
            top = h[i] + 1
        new[i] = top
    return OrderIdeal(ideal.poset, tuple(new))


def orbit(ideal: OrderIdeal) -> List[OrderIdeal]:
    """The rowmotion cycle through ideal; closed at the first repetition."""
    out = [ideal]
    cur = rowmotion_combinatorial(ideal)
    while cur.heights != ideal.heights:
        out.append(cur)
        cur = rowmotion_combinatorial(cur)
    return out


def orbit_partition(ideals: List[OrderIdeal]) -> List[List[OrderIdeal]]:
    """The rowmotion orbits through the given ideals, in order of each
    orbit's first ideal in the list; each orbit starts at that ideal."""
    orbits: List[List[OrderIdeal]] = []
    seen = set()
    for ideal in ideals:
        if ideal.heights in seen:
            continue
        orb = orbit(ideal)
        orbits.append(orb)
        seen.update(o.heights for o in orb)
    return orbits


def all_order_ideals(poset: RectPoset) -> List[OrderIdeal]:
    """Every order ideal, as weakly decreasing column heights in
    lexicographic order."""
    r, s = poset.r, poset.s
    out: List[OrderIdeal] = []

    def extend(heights: Tuple[int, ...]):
        if len(heights) == r + 1:
            out.append(OrderIdeal(poset, heights))
            return
        cap = heights[-1] if heights else s + 1
        for h in range(cap + 1):
            extend(heights + (h,))

    extend(())
    return out
