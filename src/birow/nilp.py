"""Lattice paths, non-intersecting families, and the polynomials phi.

phi of a region sums, over all vertex-disjoint path families from the
region's sources to its sinks, the product of A-variables over the region
members not covered by any path.  Order 0 regions contribute the full
product over the filter.  The determinant oracle gives an independent check
via the Lindstrom-Gessel-Viennot lemma.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, FrozenSet, Iterable, List, Tuple

from .errors import PoleEncountered
from .exactnum import Polynomial, Var, avar
from .grid_poset import GridPoint, Region


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


@dataclass(frozen=True)
class NilpFamily:
    region: Region
    paths: Tuple[LatticePath, ...]

    def covered(self) -> FrozenSet[GridPoint]:
        return frozenset(v for p in self.paths for v in p.vertices)

    def key(self) -> Tuple[Tuple[GridPoint, ...], ...]:
        return tuple(p.vertices for p in self.paths)

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
    choices = [[(path, frozenset(path.vertices)) for path in opts] for opts in options]
    out: List[NilpFamily] = []

    def extend(l: int, chosen: List[LatticePath], occupied: FrozenSet[GridPoint]):
        if l == k:
            out.append(NilpFamily(region, tuple(chosen)))
            return
        for path, verts in choices[l]:
            if not verts.isdisjoint(occupied):
                continue
            chosen.append(path)
            extend(l + 1, chosen, occupied | verts)
            chosen.pop()

    extend(0, [], frozenset())
    return out


def enum_nilp(region: Region) -> List[NilpFamily]:
    """All vertex-disjoint families, path l from source l to sink l;
    ordered lexicographically by concatenated step strings."""
    return _disjoint_families(region, [enum_paths(region, region.sources[l], region.sinks[l])
                                       for l in range(region.k)])


def uncovered_sum(families: Iterable[NilpFamily], members) -> Polynomial:
    """Sum over the families of the product of A-variables over the members
    that each family leaves uncovered.  The monomials are counted in one
    dict and sorted once, not added one polynomial at a time."""
    # Members sorted by (i, j) give their A-variables in canonical order.
    pairs = [(p, (avar(*p), 1)) for p in sorted(members)]
    counts: Counter = Counter()
    for fam in families:
        covered = fam.covered()
        counts[tuple([pair for p, pair in pairs if p not in covered])] += 1
    return Polynomial.from_dict(counts)


@dataclass(frozen=True)
class PhiPolynomial:
    region: Region
    value: Polynomial


def phi(region: Region) -> PhiPolynomial:
    return PhiPolynomial(region, uncovered_sum(enum_nilp(region), region.members))


def _det(mat: List[List[Fraction]]) -> Fraction:
    n = len(mat)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return mat[0][0]
    total = Fraction(0)
    for col in range(n):
        minor = [row[:col] + row[col + 1:] for row in mat[1:]]
        term = mat[0][col] * _det(minor)
        total += term if col % 2 == 0 else -term
    return total


def lgv_ratio_oracle(region: Region, point: Dict[Var, Fraction]) -> Fraction:
    """det of the single-path generating matrix with weights 1/A at each
    vertex; equals phi(region)/ (product over all region members) at point."""
    k = region.k
    mat: List[List[Fraction]] = []
    for a in range(k):
        row = []
        for b in range(k):
            total = Fraction(0)
            for path in enum_paths(region, region.sources[a], region.sinks[b]):
                w = Fraction(1)
                for (i, j) in path.vertices:
                    v = point[avar(i, j)]
                    if v == 0:
                        raise PoleEncountered(f"zero weight at A[{i},{j}]")
                    w /= v
                total += w
            row.append(total)
        mat.append(row)
    return _det(mat)
