"""Lattice paths, non-intersecting families, and the polynomials phi.

phi of a region sums, over all vertex-disjoint path families from the
region's sources to its sinks, the product of A-variables over the region
members not covered by any path.  Order 0 regions contribute the full
product over the filter.  A region is its mask, ``Region.mask``, on the
grid's ``RectPoset.mask`` layout, bit ``index(p)`` for the point p.  From
enumeration onwards a path, and a family, is its masks too: the three ints
``(cover, east, north)`` of the points it covers and of the lower vertex of
each of its east and north edges.
The east neighbour of bit b is b << width and the north neighbour b << 1.
Disjointness and the uncovered members are int operations, and ``paths``
walks a family back to its vertices only for output.

phi is its terms: the sorted ``(mask, count)`` pairs of the distinct
uncovered masks, each mask the monomial of the points it holds.  Two
readers take them through per-byte tables made for one call and filled on
first read: ``render`` writes their text in pieces, and ``decode`` builds a
``Polynomial`` only where one is used.  A region of more than
``FAMILY_BUDGET`` families is refused before one is listed.

phi_at evaluates phi at a point through the Lindstrom-Gessel-Viennot
determinant instead, sharing no code with the enumeration.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from itertools import chain, groupby
from operator import or_
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

from .errors import BudgetExceeded, PoleEncountered, UnboundVariable
from .exactnum import _PAIR_TEXT, Monomial, Polynomial, _render_terms, avar
from .grid_poset import GridPoint, RectPoset, Region

Masks = Tuple[int, int, int]  # a path's or a family's (cover, east, north) masks
Term = Tuple[int, int]  # a monomial's mask and its coefficient
FAMILY_BUDGET = 2 ** 22  # the most families enum_nilp lists; 7x7 k=3 has 731 808
TEXT_BATCH = 4096  # the most terms in one piece of render's text


def enum_paths(region: Region, frm: GridPoint, to: GridPoint) -> List[Masks]:
    """The masks of all monotone paths from frm to to inside the region,
    ordered lexicographically by step string (east before north).  An
    endpoint outside the grid is no member, though it can have a member's
    bit: (0, s+1) has that of (1, jmin)."""
    g = region.poset
    w = g.width
    start, end = (1 << g.index(p) if g.contains(p) else 0 for p in (frm, to))
    if not (start & region.mask and end & region.mask):
        return []
    # The bottom row of the columns up to to's, one bit every w (the digits
    # of 11...1 in base 2^w), repeated up to to's row.
    bottom = ((1 << w * (to[0] - g.imin + 1)) - 1) // ((1 << w) - 1)
    east_ok = region.mask & bottom * ((1 << to[1] - g.jmin + 1) - 1)
    # A north step never lands on the bottom row: that bit is the next
    # column's, reached from the top of this one.
    north_ok = east_ok & ~bottom
    out: List[Masks] = []

    def walk(v: int, cover: int, east: int, north: int):
        if v == end:
            out.append((cover, east, north))
            return
        if v << w & east_ok:
            walk(v << w, cover | v << w, east | v, north)
        if v << 1 & north_ok:
            walk(v << 1, cover | v << 1, east, north | v)

    walk(start, start, 0, 0)
    return out


def _disjoint_families(options: List[List[Masks]]) -> List[Masks]:
    """The masks of all vertex-disjoint families whose path l is one of
    options[l], ordered as the options are."""
    k = len(options)
    out: List[Masks] = []

    def extend(l: int, cover: int, east: int, north: int):
        if l == k:
            out.append((cover, east, north))
            return
        for c, e, n in options[l]:
            if not c & cover:
                extend(l + 1, cover | c, east | e, north | n)

    extend(0, 0, 0, 0)
    # extend's closure holds extend itself and out: break that cycle, so the
    # list is freed when its caller drops it, not at a later gc pass.
    del extend
    return out


def enum_nilp(region: Region) -> List[Masks]:
    """The masks of all vertex-disjoint families, path l from source l to
    sink l; ordered lexicographically by concatenated step strings.  A
    region of more than FAMILY_BUDGET families is refused before any is
    listed.  Their number is phi_at with unit weights, taken only when
    comb(di + dj, di)^k exceeds the budget: every path from a source to its
    sink stays in the hexagon and takes di = r-m-k+1 east and dj = s-n-k+1
    north steps, so no path is listed to count them."""
    g = region.poset
    di, dj = g.r - region.m - region.k + 1, g.s - region.n - region.k + 1
    if math.comb(di + dj, di) ** region.k > FAMILY_BUDGET:
        count = phi_at(region, dict.fromkeys(g.points(region.mask), Fraction(1)))
        if count > FAMILY_BUDGET:
            raise BudgetExceeded(
                f"the hexagon m={region.m} n={region.n} k={region.k} of the {g.r}x{g.s} grid "
                f"has {count} path families, more than FAMILY_BUDGET = {FAMILY_BUDGET}, "
                "the most enum_nilp lists")
    return _disjoint_families([enum_paths(region, f, t)
                               for f, t in zip(region.sources, region.sinks)])


def paths(region: Region, masks: Masks) -> List[List[GridPoint]]:
    """The vertices of each path of the region's family with these masks,
    walked from its source along the edge bits, the point and its bit
    stepping east or north together."""
    g = region.poset
    w = g.width
    _, east, north = masks
    out = []
    for src in region.sources:
        v, (i, j), verts = 1 << g.index(src), src, [src]
        while v & (east | north):
            v, i, j = (v << w, i + 1, j) if v & east else (v << 1, i, j + 1)
            verts.append((i, j))
        out.append(verts)
    return out


def family_json(region: Region, masks: Masks) -> list:
    """Each path of the family as its source and its step string (R east,
    U north)."""
    return [{"from": list(verts[0]),
             "steps": "".join("R" if b[0] > a[0] else "U" for a, b in zip(verts, verts[1:]))}
            for verts in paths(region, masks)]


# Each byte value with its bits in reverse order.
_REVERSED_BITS = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def uncovered_sum(families: Sequence[Masks], full: int) -> List[Term]:
    """Sum over the families of the product of A-variables over the points
    of the mask full that each family leaves uncovered, as the terms
    ``(mask, count)`` of the distinct uncovered masks, in descending graded
    lexicographic order."""
    return _count_runs(*_uncovered_keys(families, full))


def _uncovered_keys(families: Sequence[Masks], full: int) -> Tuple[List[int], int]:
    """Each family's uncovered mask, full less its cover, as one int key,
    sorted descending, and the masks' width in bytes.
    Every exponent is 1, so descending graded lexicographic order is
    descending popcount, then, at the lowest bit where two masks differ
    (the earliest grid point), the mask that has that bit set first.  That
    bit is the highest differing bit of the two masks with their bits
    reversed, so the key is the popcount above the reversed mask."""
    width = (full.bit_length() + 7) // 8
    shift = 8 * width

    def key(cover: int) -> int:
        mask = full & ~cover
        chunks = mask.to_bytes(width, "little").translate(_REVERSED_BITS)
        return mask.bit_count() << shift | int.from_bytes(chunks, "big")

    keys = [key(cover) for cover, _, _ in families]
    keys.sort(reverse=True)
    return keys, width


def _count_runs(keys: List[int], width: int) -> List[Term]:
    """The sorted keys' runs of equal keys as terms, each key turned back
    into its mask of width bytes."""
    low = (1 << 8 * width) - 1
    def mask(key: int) -> int:
        chunks = (key & low).to_bytes(width, "big").translate(_REVERSED_BITS)
        return int.from_bytes(chunks, "little")

    return [(mask(key), len(list(run))) for key, run in groupby(keys)]


@functools.lru_cache(maxsize=None)
def _point_pair(p: GridPoint) -> Monomial:
    """The monomial of the point, built once per process."""
    return ((avar(*p), 1),)


class _Pieces(dict):
    """The piece of each byte value at one byte position of a grid's masks,
    built the first time it is read: the piece of the value without its
    top bit followed by the item of the top bit's point."""

    def __init__(self, item: Callable, poset: RectPoset, first: int, empty):
        super().__init__({0: empty})
        self.item, self.poset, self.first = item, poset, first

    def __missing__(self, byte: int):
        top = byte.bit_length() - 1
        piece = self[byte] = self[byte ^ 1 << top] + self.item(self.poset.point(self.first + top))
        return piece


def _mask_pieces(poset: RectPoset, terms: Sequence[Term], item: Callable,
                 empty) -> Callable[[int], Iterator]:
    """A function giving a mask's pieces, one per byte in order, from one
    table per byte position that some of the terms set; no table outlives
    the call."""
    union = functools.reduce(or_, (mask for mask, _ in terms), 0)
    width = (union.bit_length() + 7) // 8
    unset = {0: empty}  # the table of every byte position that no term sets
    tables = [_Pieces(item, poset, 8 * c, empty) if byte else unset
              for c, byte in enumerate(union.to_bytes(width, "little"))]
    return lambda mask: map(dict.__getitem__, tables, mask.to_bytes(width, "little"))


def decode(poset: RectPoset, terms: Sequence[Term]) -> Polynomial:
    """The polynomial of terms on the poset's masks, each distinct mask
    decoded once from its bytes' pieces of (Var, 1) pairs, in (i, j) order."""
    pieces = _mask_pieces(poset, terms, _point_pair, ())
    return Polynomial(tuple((tuple(chain.from_iterable(pieces(mask))), c) for mask, c in terms))


def render(poset: RectPoset, terms: Sequence[Term]) -> Iterator[str]:
    """The text of ``decode(poset, terms).render()`` in pieces of at most
    TEXT_BATCH terms by ``Polynomial.render``'s rule and variable texts,
    each monomial joined from its bytes' pieces, such as
    ``"*A[0,1]*A[0,3]"``, less its first ``*``."""
    pieces = _mask_pieces(poset, terms, lambda p: "*" + _PAIR_TEXT[_point_pair(p)[0]], "")
    for start in range(0, max(len(terms), 1), TEXT_BATCH):
        yield (" + " if start else "") + _render_terms(
            ("".join(pieces(mask))[1:], c) for mask, c in terms[start:start + TEXT_BATCH])


def phi(region: Region) -> List[Term]:
    """phi of the region as its terms on ``region.poset``'s masks; the
    family list is dropped once keyed, before the terms are built."""
    keys = _uncovered_keys(enum_nilp(region), region.mask)
    return _count_runs(*keys)


def det(mat: List[List[Fraction]]) -> Fraction:
    """Determinant by Bareiss fraction-free elimination (Bareiss 1968): after
    step c every entry below and right of the pivot is a minor of order
    c + 2, so each division by the previous pivot is exact.  A zero pivot is
    replaced by swapping in a lower row, flipping the sign."""
    a = [list(row) for row in mat]
    n = len(a)
    sign, prev = 1, Fraction(1)
    for c in range(n - 1):
        if a[c][c] == 0:
            swap = next((r for r in range(c + 1, n) if a[r][c] != 0), None)
            if swap is None:
                return Fraction(0)
            a[c], a[swap] = a[swap], a[c]
            sign = -sign
        piv, top = a[c][c], a[c]
        for row in a[c + 1:]:
            lead = row[c]
            for col in range(c + 1, n):
                row[col] = (row[col] * piv - lead * top[col]) / prev
        prev = piv
    return sign * a[-1][-1] if n else Fraction(1)


def phi_at(region: Region, A: Dict[GridPoint, Fraction]) -> Fraction:
    """phi(region) at the point A (grid point -> value), without enumerating
    a family.  By Lindstrom-Gessel-Viennot (Gessel-Viennot 1985) it is the
    product of A over the members times the k x k determinant whose entry
    (a, b) sums, over the paths from source a to sink b, the product of 1/A
    along the path; a DP over the members in rank order computes each row."""
    members = sorted(region.poset.points(region.mask), key=lambda p: (p[0] + p[1], p[0]))
    full = Fraction(1)
    for p in members:
        if p not in A:
            raise UnboundVariable(f"no value bound for {avar(*p).render()}")
        full *= A[p]
    if region.k == 0:
        return full
    inv = {}
    for (i, j) in members:
        if A[(i, j)] == 0:
            raise PoleEncountered(f"zero weight at A[{i},{j}]")
        inv[(i, j)] = 1 / Fraction(A[(i, j)])
    mat: List[List[Fraction]] = []
    for src in region.sources:
        w: Dict[GridPoint, Fraction] = {}
        for (i, j) in members:
            if (i, j) == src:
                w[src] = inv[src]
                continue
            into = w.get((i - 1, j), 0) + w.get((i, j - 1), 0)
            if into:
                w[(i, j)] = into * inv[(i, j)]
        mat.append([w.get(t, Fraction(0)) for t in region.sinks])
    return full * det(mat)
