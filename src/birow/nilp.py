"""Lattice paths, non-intersecting families, and the polynomials phi.

phi of a region sums, over all vertex-disjoint path families from the
region's sources to its sinks, the product of A-variables over the region
members not covered by any path.  Order 0 regions contribute the full
product over the filter.  From enumeration onwards a path, and a family, is
its masks: the three ints ``(cover, east, north)`` on the grid's
``point_bits`` layout, one bit per grid point, of the points it covers and
of the lower vertex of each of its east and north edges.  With
W = s - jmin + 1 the east neighbour of bit b is b << W and the north
neighbour b << 1.  Disjointness and the uncovered members are int
operations, and ``paths`` walks a family back to its vertices only for
output.  phi_at evaluates phi at a point through the
Lindstrom-Gessel-Viennot determinant instead, sharing no code with the
enumeration.
"""

from __future__ import annotations

import functools
from collections import Counter
from fractions import Fraction
from itertools import chain
from typing import Dict, List, Sequence, Tuple

from .errors import PoleEncountered, UnboundVariable
from .exactnum import Monomial, Polynomial, avar
from .grid_poset import GridPoint, RectPoset, Region

Masks = Tuple[int, int, int]  # a path's or a family's (cover, east, north) point_bits masks


@functools.lru_cache(maxsize=None)
def point_bits(poset: RectPoset) -> Dict[GridPoint, int]:
    """One bit per point of the poset, in (i, j) order."""
    return {p: 1 << b for b, p in enumerate(poset.members())}


@functools.lru_cache(maxsize=None)
def _points(poset: RectPoset) -> List[GridPoint]:
    """The poset's points in bit order."""
    return poset.members()


@functools.lru_cache(maxsize=None)
def _chunk_pairs(poset: RectPoset) -> List[List[Monomial]]:
    """For each 8-bit chunk of ``point_bits(poset)``, from the lowest, the
    (Var, 1) pairs of the chunk's set bits for each byte value, in (i, j)
    order."""
    points = poset.members()
    tables = []
    for c in range(0, len(points), 8):
        table: List[Monomial] = [()]
        for p in points[c:c + 8]:
            table += [t + ((avar(*p), 1),) for t in table]
        tables.append(table)
    return tables


def enum_paths(region: Region, frm: GridPoint, to: GridPoint) -> List[Masks]:
    """The masks of all monotone paths from frm to to inside the region,
    ordered lexicographically by step string (east before north)."""
    if frm not in region.members or to not in region.members:
        return []
    g = region.poset
    bits, w = point_bits(g), g.s - g.jmin + 1
    east_ok = sum(bits[p] for p in region.members if p[0] <= to[0] and p[1] <= to[1])
    # A north step never lands on the bottom row: that bit is the next
    # column's, reached from the top of this one.
    north_ok = east_ok & ~sum(bits[(i, g.jmin)] for i in range(g.imin, g.r + 1))
    end = bits[to]
    out: List[Masks] = []

    def walk(v: int, cover: int, east: int, north: int):
        if v == end:
            out.append((cover, east, north))
            return
        if v << w & east_ok:
            walk(v << w, cover | v << w, east | v, north)
        if v << 1 & north_ok:
            walk(v << 1, cover | v << 1, east, north | v)

    walk(bits[frm], bits[frm], 0, 0)
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
    return out


def enum_nilp(region: Region) -> List[Masks]:
    """The masks of all vertex-disjoint families, path l from source l to
    sink l; ordered lexicographically by concatenated step strings."""
    return _disjoint_families([enum_paths(region, region.sources[l], region.sinks[l])
                               for l in range(region.k)])


def paths(region: Region, masks: Masks) -> List[List[GridPoint]]:
    """The vertices of each path of the region's family with these masks,
    walked from its source along the edge bits."""
    g = region.poset
    bits, points, w = point_bits(g), _points(g), g.s - g.jmin + 1
    _, east, north = masks
    out = []
    for src in region.sources:
        v, verts = bits[src], [src]
        while v & (east | north):
            v = v << w if v & east else v << 1
            verts.append(points[v.bit_length() - 1])
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


def uncovered_sum(poset: RectPoset, families: Sequence[Masks], members) -> Polynomial:
    """Sum over the families, on the poset's ``point_bits``, of the product
    of A-variables over the members that each family leaves uncovered.  The
    uncovered masks are counted in one Counter, and each distinct mask is
    decoded once through the chunk tables.

    The terms are sorted on the masks themselves.  Every exponent is 1, so
    descending graded lexicographic order is descending popcount, then, at
    the lowest bit where two masks differ (the earliest grid point), the
    mask that has that bit set first.  That bit is the highest differing
    bit of the two masks with their bits reversed."""
    if not families:
        return Polynomial(())
    full = sum(map(point_bits(poset).__getitem__, members))
    counts = Counter(full & ~cover for cover, _, _ in families)
    tables = _chunk_pairs(poset)
    width = len(tables)

    def key(mask: int) -> Tuple[int, int]:
        chunks = mask.to_bytes(width, "little").translate(_REVERSED_BITS)
        return mask.bit_count(), int.from_bytes(chunks, "big")

    def decode(mask: int) -> Monomial:
        chunks = mask.to_bytes(width, "little")
        return tuple(chain.from_iterable(map(list.__getitem__, tables, chunks)))

    return Polynomial(tuple((decode(mask), counts[mask])
                            for mask in sorted(counts, key=key, reverse=True)))


def phi(region: Region) -> Polynomial:
    return uncovered_sum(region.poset, enum_nilp(region), region.members)


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
    members = sorted(region.members, key=lambda p: (p[0] + p[1], p[0]))
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
