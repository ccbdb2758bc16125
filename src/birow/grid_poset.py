"""The poset [0,r] x [0,s] (componentwise order), its files, and hexagonal
regions used for lattice path enumeration.

A grid point is a plain (i, j) tuple.  The rectangle may have negative
lower bounds (same maximal corner) for the enlarged-grid arguments; files
and most consumers only use the standard rectangle.

A point's number, its sweep slot and its bit in every path mask, is its
position in ``members()``: ``RectPoset.index``, computed from the bounds.
``RectPoset.points`` is the inverse of ``RectPoset.mask``; a hexagonal
region is its mask, one bit run per column.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import List, Set, Tuple

from .errors import HypothesisViolated, OutOfRange

GridPoint = Tuple[int, int]


def point_key(p: GridPoint) -> str:
    return f"{p[0]},{p[1]}"


def parse_point_key(key: str) -> GridPoint:
    i, j = key.split(",")
    return (int(i), int(j))


@dataclass(frozen=True)
class FileInfo:
    """One file (diagonal j - i = offset) with its case classification.

    case "a": top element of the form (r, d) with d < s, up to transposing
    so that s <= r; case "b": top (d, s) with d < s; case "c": top (d, s)
    with s <= d <= r.
    """

    offset: int
    points: Tuple[GridPoint, ...]  # decreasing rank
    case: str
    d: int


@dataclass(frozen=True)
class RectPoset:
    r: int
    s: int
    imin: int = 0
    jmin: int = 0

    def __post_init__(self):
        if self.r < self.imin or self.s < self.jmin or self.imin > 0 or self.jmin > 0:
            raise OutOfRange(f"bad rectangle bounds ({self.imin}..{self.r}, {self.jmin}..{self.s})")

    def members(self) -> List[GridPoint]:
        return [(i, j) for i in range(self.imin, self.r + 1) for j in range(self.jmin, self.s + 1)]

    @property
    def width(self) -> int:
        """The points of one column, one value of i."""
        return self.s - self.jmin + 1

    def index(self, p: GridPoint) -> int:
        """The point's position in ``members()``."""
        return (p[0] - self.imin) * self.width + p[1] - self.jmin

    def point(self, index: int) -> GridPoint:
        """The member at this position of ``members()``."""
        i, j = divmod(index, self.width)
        return (i + self.imin, j + self.jmin)

    def mask(self, points) -> int:
        """One bit per distinct point, bit ``index(p)``.  The east neighbour
        of bit b is bit b + width and the north neighbour bit b + 1."""
        return sum(1 << self.index(p) for p in points)

    def points(self, mask: int) -> List[GridPoint]:
        """The members whose bits the mask sets, in ``members()`` order."""
        return [self.point(b) for b, bit in enumerate(bin(mask)[:1:-1]) if bit == "1"]

    def contains(self, p: GridPoint) -> bool:
        return self.imin <= p[0] <= self.r and self.jmin <= p[1] <= self.s

    def members_are(self, points) -> bool:
        """Whether the distinct points are exactly the members: as many as
        there are members, each inside the rectangle.  No member list is
        built, so a huge rectangle costs only the points given."""
        points = set(points)
        return (len(points) == (self.r - self.imin + 1) * self.width
                and all(map(self.contains, points)))

    def _check(self, p: GridPoint):
        if not self.contains(p):
            raise OutOfRange(f"{p} outside rectangle")

    def covers(self, p: GridPoint) -> Tuple[Set[GridPoint], bool]:
        """Elements covering p inside the rectangle, plus a flag that is true
        exactly when p is the maximum (so the adjoined top covers it)."""
        self._check(p)
        ups = set()
        if p[0] + 1 <= self.r:
            ups.add((p[0] + 1, p[1]))
        if p[1] + 1 <= self.s:
            ups.add((p[0], p[1] + 1))
        return ups, p == (self.r, self.s)

    def covered_by(self, p: GridPoint) -> Tuple[Set[GridPoint], bool]:
        """Elements covered by p, plus a flag for the adjoined bottom."""
        self._check(p)
        downs = set()
        if p[0] - 1 >= self.imin:
            downs.add((p[0] - 1, p[1]))
        if p[1] - 1 >= self.jmin:
            downs.add((p[0], p[1] - 1))
        return downs, p == (self.imin, self.jmin)

    def linear_extension_desc(self) -> List[GridPoint]:
        """Members from top to bottom: decreasing rank, ties by decreasing i."""
        return sorted(self.members(), key=lambda p: (-(p[0] + p[1]), -p[0]))

    def file_by_offset(self, t: int) -> FileInfo:
        if self.imin != 0 or self.jmin != 0:
            raise OutOfRange("files are defined on the standard rectangle")
        if not (-self.r <= t <= self.s):
            raise OutOfRange(f"file offset {t} outside [{-self.r}, {self.s}]")
        pts = sorted((p for p in self.members() if p[1] - p[0] == t),
                     key=lambda p: -(p[0] + p[1]))
        r, s = self.r, self.s
        if s <= r:
            if t < s - r:
                case, d = "a", r + t
            elif t > 0:
                case, d = "b", s - t
            else:
                case, d = "c", s - t
        else:
            if t > s - r:
                case, d = "a", s - t
            elif t < 0:
                case, d = "b", r + t
            else:
                case, d = "c", r + t
        return FileInfo(t, tuple(pts), case, d)

    def hexagon(self, m: int, n: int, k: int) -> "Region":
        return Region.build(self, m, n, k)


@dataclass(frozen=True)
class Region:
    """Hexagonal region: points >= (m, n) with rank between m+n+k-1 and
    r+s-k+1, carrying the k sources and sinks for path families.

    k = 0 gives the full order filter of (m, n) with no endpoints.
    """

    poset: RectPoset
    m: int
    n: int
    k: int
    mask: int  # the members on the poset's ``RectPoset.mask`` layout
    sources: Tuple[GridPoint, ...]
    sinks: Tuple[GridPoint, ...]

    @functools.cached_property
    def _hash(self) -> int:
        return hash((self.poset, self.m, self.n, self.k))

    def __hash__(self) -> int:
        # Regions key the caches that swap and unswap look up once per
        # overlay; the base and order determine the other fields.
        return self._hash

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def build(poset: RectPoset, m: int, n: int, k: int) -> "Region":
        """Regions are frozen, so one is built per (poset, m, n, k) and
        shared by every caller."""
        r, s = poset.r, poset.s
        if not poset.contains((m, n)):
            raise OutOfRange(f"hexagon base ({m},{n}) outside rectangle")
        if k < 0 or k > min(r - m, s - n) + 1:
            raise HypothesisViolated(
                f"hexagon order k={k} exceeds min(r-m, s-n)+1 = {min(r - m, s - n) + 1}")
        lo = m + n + k - 1
        hi = r + s - k + 1
        # The filter of (m, n), each column cut to the rank window: one run
        # of bits per column, none empty under the order bound.
        mask = 0
        for i in range(m, r + 1):
            lo_j, hi_j = max(n, lo - i), min(s, hi - i)
            mask |= ((1 << hi_j - lo_j + 1) - 1) << poset.index((i, lo_j))
        sources = tuple((m + k - l, n + l - 1) for l in range(1, k + 1))
        sinks = tuple((r - l + 1, s - k + l) for l in range(1, k + 1))
        return Region(poset, m, n, k, mask, sources, sinks)
