"""Lattice paths, non-intersecting families, and the polynomials phi.

phi of a region sums, over all vertex-disjoint path families from the
region's sources to its sinks, the product of A-variables over the region
members not covered by any path.  Order 0 regions contribute the full
product over the filter.  A family carries the bitmask of the points its
paths cover, one bit per grid point (``point_bits``), so disjointness and
the uncovered members are int operations.  phi_at evaluates phi at a point
through the Lindstrom-Gessel-Viennot determinant instead, sharing no code
with the enumeration.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Dict, List, Sequence, Tuple

from .errors import PoleEncountered, UnboundVariable
from .exactnum import Monomial, Polynomial, avar
from .grid_poset import GridPoint, RectPoset, Region


@dataclass(frozen=True)
class LatticePath:
    vertices: Tuple[GridPoint, ...]

    def steps(self) -> str:
        out = []
        for a, b in zip(self.vertices, self.vertices[1:]):
            out.append("R" if (b[0] - a[0], b[1] - a[1]) == (1, 0) else "U")
        return "".join(out)

    def edges(self) -> List[Tuple[GridPoint, GridPoint]]:
        return list(zip(self.vertices, self.vertices[1:]))


@functools.lru_cache(maxsize=None)
def point_bits(poset: RectPoset) -> Dict[GridPoint, int]:
    """One bit per point of the poset, in (i, j) order."""
    return {p: 1 << b for b, p in enumerate(poset.members())}


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


@dataclass(frozen=True)
class NilpFamily:
    region: Region
    paths: Tuple[LatticePath, ...]
    mask: int  # the point_bits of the points the paths cover

    def to_json(self) -> list:
        return [{"from": list(p.vertices[0]), "steps": p.steps()} for p in self.paths]


def enum_paths(region: Region, frm: GridPoint, to: GridPoint) -> List[LatticePath]:
    """All monotone paths from frm to to inside the region, ordered
    lexicographically by step string (R before U)."""
    if frm not in region.members or to not in region.members:
        return []
    out: List[LatticePath] = []

    def walk(v: GridPoint, acc: List[GridPoint]):
        if v == to:
            out.append(LatticePath(tuple(acc)))
            return
        for step in ((1, 0), (0, 1)):
            w = (v[0] + step[0], v[1] + step[1])
            if w[0] <= to[0] and w[1] <= to[1] and w in region.members:
                acc.append(w)
                walk(w, acc)
                acc.pop()

    walk(frm, [frm])
    return out


def _disjoint_families(region: Region, options: List[List[LatticePath]]
                       ) -> List[NilpFamily]:
    """All vertex-disjoint families whose path l is one of options[l],
    ordered as the options are."""
    k = len(options)
    bits = point_bits(region.poset)
    choices = [[(path, sum(map(bits.__getitem__, path.vertices))) for path in opts]
               for opts in options]
    out: List[NilpFamily] = []

    def extend(l: int, chosen: List[LatticePath], occupied: int):
        if l == k:
            out.append(NilpFamily(region, tuple(chosen), occupied))
            return
        for path, mask in choices[l]:
            if mask & occupied:
                continue
            chosen.append(path)
            extend(l + 1, chosen, occupied | mask)
            chosen.pop()

    extend(0, [], 0)
    return out


def enum_nilp(region: Region) -> List[NilpFamily]:
    """All vertex-disjoint families, path l from source l to sink l;
    ordered lexicographically by concatenated step strings."""
    return _disjoint_families(region, [enum_paths(region, region.sources[l], region.sinks[l])
                                       for l in range(region.k)])


# Each byte value with its bits in reverse order.
_REVERSED_BITS = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def uncovered_sum(families: Sequence[NilpFamily], members) -> Polynomial:
    """Sum over the families of the product of A-variables over the members
    that each family leaves uncovered.  The uncovered masks are counted in
    one Counter, and each distinct mask is decoded once through the chunk
    tables.

    The terms are sorted on the masks themselves.  Every exponent is 1, so
    descending graded lexicographic order is descending popcount, then, at
    the lowest bit where two masks differ (the earliest grid point), the
    mask that has that bit set first.  That bit is the highest differing
    bit of the two masks with their bits reversed."""
    if not families:
        return Polynomial(())
    poset = families[0].region.poset
    bits = point_bits(poset)
    full = sum(map(bits.__getitem__, members))
    counts = Counter(full & ~fam.mask for fam in families)
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
    return uncovered_sum(enum_nilp(region), region.members)


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
