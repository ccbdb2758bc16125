"""Lattice paths, non-intersecting families, phi polynomials, and phi at a
point through the Lindstrom-Gessel-Viennot determinant."""

import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from typing import Dict, List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from birow import bounce, nilp
from birow.avar import a_to_x
from birow.bounce import _CORNERS, hugging_families
from birow.closed_form import corner
from birow.errors import BudgetExceeded, PoleEncountered
from birow.exactnum import Factored, Polynomial, avar, monomial, xvar
from birow.grid_poset import GridPoint, RectPoset, Region
from birow.nilp import (Masks, decode, det, enum_nilp, enum_paths, paths, phi, phi_at, render,
                        uncovered_sum)
from test_exactnum import evaluate_poly, grlex_key

Path = Tuple[GridPoint, ...]  # a path as its vertices


def phi_poly(region: Region) -> Polynomial:
    """phi of the region decoded into a Polynomial."""
    return decode(region.poset, phi(region))


# The reference enumeration: paths as vertex tuples, walked point by point,
# and families checked disjoint as sets.  enum_nilp and hugging_families,
# which build masks, must give the same families in the same order.

def reference_paths(region: Region, frm: GridPoint, to: GridPoint) -> List[Path]:
    """All monotone paths from frm to to inside the region, ordered
    lexicographically by step string (R before U)."""
    members = set(region.poset.points(region.mask))
    if frm not in members or to not in members:
        return []
    out: List[Path] = []

    def walk_from(v: GridPoint, acc: List[GridPoint]):
        if v == to:
            out.append(tuple(acc))
            return
        for step in ((1, 0), (0, 1)):
            w = (v[0] + step[0], v[1] + step[1])
            if w[0] <= to[0] and w[1] <= to[1] and w in members:
                acc.append(w)
                walk_from(w, acc)
                acc.pop()

    walk_from(frm, [frm])
    return out


def reference_families(options: List[List[Path]]) -> List[Tuple[Path, ...]]:
    """All vertex-disjoint families whose path l is one of options[l],
    ordered as the options are."""
    out: List[Tuple[Path, ...]] = []

    def extend(l: int, chosen: Tuple[Path, ...], occupied: frozenset):
        if l == len(options):
            out.append(chosen)
            return
        for path in options[l]:
            if occupied.isdisjoint(path):
                extend(l + 1, chosen + (path,), occupied | frozenset(path))

    extend(0, (), frozenset())
    return out


def reference_nilp(region: Region) -> List[Tuple[Path, ...]]:
    return reference_families([reference_paths(region, region.sources[l], region.sinks[l])
                               for l in range(region.k)])


def reference_forced_path(region: Region, l: int, leftmost: bool) -> Path:
    """Path l of the region along its leftmost route (east, then north) or
    its rightmost (north, then east)."""
    src, snk = region.sources[l], region.sinks[l]
    verts = [src]
    for d in (0, 1) if leftmost else (1, 0):
        while verts[-1][d] < snk[d]:
            verts.append((verts[-1][0] + 1 - d, verts[-1][1] + d))
    assert set(verts) <= set(region.poset.points(region.mask))
    return tuple(verts)


def reference_hugging(region: Region, c: int, d: int) -> List[Tuple[Path, ...]]:
    k = region.k
    return reference_families([
        [reference_forced_path(region, l, l < c)] if l < c or l >= k - d
        else reference_paths(region, region.sources[l], region.sinks[l]) for l in range(k)])


def member_bits(poset: RectPoset) -> Dict[GridPoint, int]:
    """The reference layout: bit b for the b-th point of members()."""
    return {p: 1 << b for b, p in enumerate(poset.members())}


def to_masks(region: Region, family: Tuple[Path, ...]) -> Masks:
    """The (cover, east, north) masks of a family given by its vertices."""
    bits = member_bits(region.poset)
    cover = east = north = 0
    for path in family:
        for v in path:
            cover |= bits[v]
        for a, b in zip(path, path[1:]):
            if b == (a[0] + 1, a[1]):
                east |= bits[a]
            else:
                assert b == (a[0], a[1] + 1), (a, b)
                north |= bits[a]
    return cover, east, north


def walk(region: Region, masks: Masks) -> Tuple[Path, ...]:
    """Each path of the region's family with these masks as its vertices,
    walked from its source along the edge bits."""
    bits = member_bits(region.poset)
    _, east, north = masks
    out = []
    for src in region.sources:
        verts = [src]
        while bits[verts[-1]] & (east | north):
            i, j = verts[-1]
            verts.append((i + 1, j) if bits[(i, j)] & east else (i, j + 1))
        out.append(tuple(verts))
    return tuple(out)


def regions(poset: RectPoset):
    """Every hexagon region of the poset."""
    for m in range(poset.imin, poset.r + 1):
        for n in range(poset.jmin, poset.s + 1):
            for k in range(min(poset.r - m, poset.s - n) + 2):
                yield poset.hexagon(m, n, k)


def covered(poset: RectPoset, cover: int) -> List[GridPoint]:
    """The points of a cover mask, in (i, j) order."""
    return [p for p, b in member_bits(poset).items() if b & cover]


def _mono(*pairs):
    return Polynomial.from_dict({monomial([(avar(i, j), 1) for (i, j) in pairs]): 1})


def _poly(*term_lists):
    total = Polynomial(())
    for pairs in term_lists:
        total = total + _mono(*pairs)
    return total


def _random_point(region, rng):
    return {p: Fraction(rng.randint(1, 40), rng.randint(1, 8))
            for p in region.poset.points(region.mask)}


def _in_avars(point):
    return {avar(*p): v for p, v in point.items()}


def _cofactor_det(mat):
    """Determinant by cofactor expansion along the first row: the oracle of
    the Bareiss elimination in nilp.det."""
    n = len(mat)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return mat[0][0]
    total = Fraction(0)
    for col in range(n):
        minor = [row[:col] + row[col + 1:] for row in mat[1:]]
        term = mat[0][col] * _cofactor_det(minor)
        total += term if col % 2 == 0 else -term
    return total


def test_path_enumeration_counts():
    p = RectPoset(3, 2)
    region = p.hexagon(1, 0, 1)
    assert len(enum_paths(region, (1, 0), (3, 2))) == 6
    region2 = p.hexagon(1, 0, 2)
    assert len(enum_nilp(region2)) == 3


def test_path_steps_and_edges():
    p = RectPoset(2, 2)
    region = p.hexagon(0, 0, 1)
    found = enum_paths(region, (0, 0), (2, 2))
    # Four unit steps, each edge east or north, over five points.
    assert all(east & north == 0 and (east | north).bit_count() == 4 and cover.bit_count() == 5
               for cover, east, north in found)
    assert len(set(found)) == len(found) == 6
    assert [walk(region, q) for q in found] == [(q,) for q in reference_paths(region, (0, 0),
                                                                              (2, 2))]


@pytest.mark.parametrize("g", [RectPoset(2, 2), RectPoset(2, 1, -4, -4), RectPoset(3, 2, -2, -1)],
                         ids=repr)
def test_an_endpoint_outside_the_grid_is_no_member(g):
    # (imin, s+1) is outside the grid but has the bit of (imin+1, jmin), a
    # member of the order 1 hexagon on the grid's lowest point.
    region = g.hexagon(g.imin, g.jmin, 1)
    alias, member = (g.imin, g.s + 1), (g.imin + 1, g.jmin)
    assert not g.contains(alias) and g.index(alias) == g.index(member)
    assert 1 << g.index(member) & region.mask
    (src,), (snk,) = region.sources, region.sinks
    assert enum_paths(region, member, snk) and enum_paths(region, src, member)
    assert enum_paths(region, alias, snk) == [] and enum_paths(region, src, alias) == []


def _valid_queries(poset):
    r, s = poset.r, poset.s
    for i in range(r + 1):
        for j in range(s + 1):
            for k in range(1, r + s + 2):
                if max(k - i, 0) + max(k - j, 0) <= k:
                    yield (i, j, k)


def test_enum_nilp_matches_the_vertex_list_reference():
    """On every hexagon of every grid up to 4x4, and on the hugging families
    of every corner of every 3x3 Plucker query, the masks are the reference
    families' masks in the reference order.  Each family's path l walks from
    source l to sink l inside the region, no point is the lower vertex of
    an east and a north edge, and the cover is exactly the walked points."""
    cases = []
    for r in range(5):
        for s in range(5):
            for region in regions(RectPoset(r, s)):
                cases.append((region, enum_nilp(region), reference_nilp(region)))
    hugging = 0
    for (i, j, k) in _valid_queries(RectPoset(3, 3)):
        grid = RectPoset(3, 3, min(0, i - k), min(0, j - k))
        for (m, n, order, a, b) in (corner(i, j, k, *c) for c in _CORNERS):
            base = (m - a - b, n - a - b, order + a + b, a, b)
            if order < 0:
                assert hugging_families(grid, *base) == []
                continue
            region = grid.hexagon(*base[:3])
            cases.append((region, hugging_families(grid, *base), reference_hugging(region, a, b)))
            hugging += a + b > 0
    assert hugging > 0
    families = 0
    for region, fams, ref in cases:
        assert fams == [to_masks(region, f) for f in ref], region
        for masks in fams:
            cover, east, north = masks
            walked = walk(region, masks)
            assert [p[0] for p in walked] == list(region.sources)
            assert [p[-1] for p in walked] == list(region.sinks)
            points = [v for p in walked for v in p]
            assert set(points) <= set(region.poset.points(region.mask))
            assert len(set(points)) == len(points)
            assert east & north == 0
            assert cover == region.poset.mask(points)
            assert to_masks(region, walked) == masks
            assert paths(region, masks) == list(map(list, walked))
        families += len(fams)
    assert families > 10 ** 3


def test_phi_order_zero_is_the_filter_product():
    p = RectPoset(3, 2)
    assert phi_poly(p.hexagon(2, 1, 0)) == _mono((2, 1), (2, 2), (3, 1), (3, 2))


def test_phi_one_six_terms():
    p = RectPoset(3, 2)
    want = _poly([(1, 1), (1, 2), (2, 1), (2, 2)],
                 [(1, 1), (1, 2), (2, 2), (3, 0)],
                 [(1, 1), (1, 2), (3, 0), (3, 1)],
                 [(1, 2), (2, 0), (2, 2), (3, 0)],
                 [(1, 2), (2, 0), (3, 0), (3, 1)],
                 [(2, 0), (2, 1), (3, 0), (3, 1)])
    assert phi_poly(p.hexagon(1, 0, 1)) == want


def test_phi_two_three_terms():
    p = RectPoset(3, 2)
    want = _poly([(1, 2)], [(2, 1)], [(3, 0)])
    assert phi_poly(p.hexagon(1, 0, 2)) == want


def test_phi_at_unit_weights_counts_families():
    p = RectPoset(3, 2)
    ones = {avar(i, j): Fraction(1) for (i, j) in p.members()}
    assert evaluate_poly(phi_poly(p.hexagon(1, 0, 1)), ones) == 6
    assert evaluate_poly(phi_poly(p.hexagon(1, 0, 2)), ones) == 3


@given(st.integers(0, 3), st.integers(0, 2), st.integers(0, 100))
@settings(max_examples=40, deadline=None)
def test_lgv_oracle_matches_phi(m, n, seed):
    """phi equals the product over region members times the path-matrix
    determinant with reciprocal vertex weights, for every hexagon over the
    base (m, n)."""
    p = RectPoset(3, 2)
    rng = random.Random(seed)
    for k in range(min(3 - m, 2 - n) + 2):
        region = p.hexagon(m, n, k)
        pt = _random_point(region, rng)
        assert evaluate_poly(phi_poly(region), _in_avars(pt)) == phi_at(region, pt)


def test_phi_at_matches_enumeration_on_every_region():
    """The determinant route and the family enumeration agree on every
    hexagon region of every grid up to 5x5, at a random positive point."""
    rng = random.Random(11)
    for r in range(6):
        for s in range(6):
            poset = RectPoset(r, s)
            for (m, n) in poset.members():
                for k in range(min(r - m, s - n) + 2):
                    region = poset.hexagon(m, n, k)
                    pt = _random_point(region, rng)
                    assert evaluate_poly(phi_poly(region), _in_avars(pt)) == phi_at(region, pt), \
                        (r, s, m, n, k)


def _uncovered_oracle(poset, families, members):
    """The terms of uncovered_sum on the members' mask: each family's
    uncovered members as a tuple of (Var, 1) pairs, counted, and sorted by
    descending grlex_key."""
    counts = Counter()
    for cover, _, _ in families:
        points = set(covered(poset, cover))
        counts[tuple((avar(*q), 1) for q in sorted(members) if q not in points)] += 1
    return tuple(sorted(counts.items(), key=lambda t: grlex_key(t[0]), reverse=True))


def test_uncovered_sum_matches_the_tuple_oracle(monkeypatch):
    """On every hexagon of every grid up to 4x4, and on the hugging families
    that every 3x3 Plucker query with M > 0 sums on its grid lowered to
    (i - k, j - k), whose paths also cover points outside the summed
    members."""
    cases = []
    for r in range(5):
        for s in range(5):
            poset = RectPoset(r, s)
            for (m, n) in poset.members():
                for k in range(min(r - m, s - n) + 2):
                    region = poset.hexagon(m, n, k)
                    cases.append((poset, enum_nilp(region), poset.points(region.mask)))
    summed, hugging = [], []

    def spy(families, full):
        summed.append((families, full))
        return uncovered_sum(families, full)

    monkeypatch.setattr(bounce, "uncovered_sum", spy)
    grid = RectPoset(3, 3)
    for i in range(4):
        for j in range(4):
            for k in range(1, 8):
                if 0 < max(k - i, 0) + max(k - j, 0) <= k:
                    seen = len(summed)
                    assert bounce.plucker_check(grid, i, j, k).passed
                    low = RectPoset(3, 3, min(0, i - k), min(0, j - k))
                    hugging += [(low, families, low.points(full))
                                for families, full in summed[seen:]]
    assert all(set(members) <= set(grid.members()) for _, _, members in hugging)
    assert any(not set(covered(poset, cover)) <= set(members)
               for poset, families, members in hugging for cover, _, _ in families)
    for poset, families, members in cases + hugging:
        assert decode(poset, uncovered_sum(families, poset.mask(members))).terms == \
            _uncovered_oracle(poset, families, members)


def test_uncovered_sum_sorts_covers_of_every_size():
    """The families of one region leave equally many members uncovered, so
    only covers of different sizes reach the popcount in the sort key:
    random covers of a 3x3 grid (two chunks), each drawn twice, summed over
    every point and over some points."""
    rng = random.Random(5)
    poset = RectPoset(3, 3)
    families = [(rng.getrandbits(16), 0, 0) for _ in range(300)] * 2
    for members in (poset.members(), poset.members()[3:12]):
        terms = uncovered_sum(families, poset.mask(members))
        assert len({mask.bit_count() for mask, _ in terms}) > 3
        assert decode(poset, terms).terms == _uncovered_oracle(poset, families, members)


@pytest.mark.parametrize("r, k", [(4, 2), (5, 1), (5, 3), (6, 2), (6, 3)])
def test_uncovered_sum_sorts_as_from_dict(r, k):
    """uncovered_sum orders its terms on the masks; from_dict sorts the same
    counts by their packed graded lexicographic keys.  (The counts are
    checked against the tuple oracle above.)"""
    region = RectPoset(r, r).hexagon(0, 0, k)
    families = enum_nilp(region)
    terms = decode(region.poset, uncovered_sum(families, region.mask)).terms
    assert sum(c for _, c in terms) == len(families)
    assert terms == Polynomial.from_dict(dict(terms)).terms


def _rendered(poset: RectPoset, terms) -> str:
    pieces = list(render(poset, terms))
    assert all(pieces) and len(pieces) == max(1, -(-len(terms) // nilp.TEXT_BATCH))
    return "".join(pieces)


def test_render_matches_the_decoded_polynomial(monkeypatch):
    """The text written from the masks' text tables is the decoded
    Polynomial's render(), on every hexagon of every grid up to 4x4 and on
    three larger ones, in one piece per batch of terms, whatever the batch."""
    regions = [RectPoset(r, s).hexagon(m, n, k) for r in range(5) for s in range(5)
               for (m, n) in RectPoset(r, s).members() for k in range(min(r - m, s - n) + 2)]
    regions += [RectPoset(5, 5).hexagon(0, 0, 3), RectPoset(6, 5).hexagon(0, 0, 2),
                RectPoset(6, 6).hexagon(0, 0, 3)]
    for batch in (nilp.TEXT_BATCH, 7):
        monkeypatch.setattr(nilp, "TEXT_BATCH", batch)
        for region in regions:
            terms = phi(region)
            assert _rendered(region.poset, terms) == decode(region.poset, terms).render()


def test_render_writes_counts_the_empty_monomial_and_zero():
    """The rules of Polynomial.render: a count other than 1 is a prefix, the
    empty monomial is its count, and no term at all is 0.  Masks above the
    first byte read the later chunks' tables."""
    poset = RectPoset(3, 3)
    bits = member_bits(poset)
    high = bits[(3, 3)] | bits[(2, 1)] | bits[(0, 0)]
    for terms in ([], [(0, 1)], [(0, 5)], [(high, 1)], [(high, 3), (bits[(1, 2)], 1), (0, 2)]):
        assert _rendered(poset, terms) == decode(poset, terms).render()
    assert _rendered(poset, [(high, 3), (0, 2)]) == "3*A[0,0]*A[2,1]*A[3,3] + 2"
    assert _rendered(poset, []) == "0"


def test_family_budget_admits_the_ladder_and_refuses_8x8_k3():
    """The family counts, by phi_at with unit weights, of the largest
    regions phi lists and of the first one it refuses."""
    def count(r, k):
        region = RectPoset(r, r).hexagon(0, 0, k)
        return phi_at(region, dict.fromkeys(region.poset.points(region.mask), Fraction(1)))

    assert count(7, 3) == 731808 <= nilp.FAMILY_BUDGET
    assert count(8, 2) == 2760615 <= nilp.FAMILY_BUDGET
    assert count(8, 3) == 24293412 > nilp.FAMILY_BUDGET
    with pytest.raises(BudgetExceeded, match=f"24293412 path families, more than "
                                             f"FAMILY_BUDGET = {nilp.FAMILY_BUDGET}"):
        enum_nilp(RectPoset(8, 8).hexagon(0, 0, 3))


def test_family_budget_is_checked_before_listing(monkeypatch):
    """5x5 k=3 has 980 families: a budget of 980 lists them and one of 979
    refuses before a family is listed.  Under the default budget the product
    of its path counts is small, so no family count is taken."""
    region = RectPoset(5, 5).hexagon(0, 0, 3)
    monkeypatch.setattr(nilp, "phi_at", lambda *a: pytest.fail("counted a small region"))
    assert len(enum_nilp(region)) == 980
    monkeypatch.undo()
    monkeypatch.setattr(nilp, "FAMILY_BUDGET", 980)
    assert len(enum_nilp(region)) == 980
    monkeypatch.setattr(nilp, "FAMILY_BUDGET", 979)
    monkeypatch.setattr(nilp, "_disjoint_families", lambda *a: pytest.fail("listed families"))
    monkeypatch.setattr(nilp, "enum_paths", lambda *a: pytest.fail("listed paths"))
    with pytest.raises(BudgetExceeded,
                       match="has 980 path families, more than FAMILY_BUDGET = 979"):
        enum_nilp(region)


def test_path_counts_match_the_listed_paths():
    """The budget counts each source's paths as comb(di + dj, di), with
    di = r-m-k+1 and dj = s-n-k+1, before any is listed: that is the number
    enum_paths lists, on every hexagon up to 5x5."""
    for r in range(6):
        for s in range(6):
            poset = RectPoset(r, s)
            for (m, n) in poset.members():
                for k in range(1, min(r - m, s - n) + 2):
                    region = poset.hexagon(m, n, k)
                    di, dj = r - m - k + 1, s - n - k + 1
                    for f, t in zip(region.sources, region.sinks):
                        assert len(enum_paths(region, f, t)) == math.comb(di + dj, di), region


def test_corner_phi_of_a_large_grid_costs_its_region():
    """The 4-point corner hexagon of the 200x200 grid: its two families leave
    A[199,200] or A[200,199] uncovered.  No per-point table of the grid is
    built, so the peak stays far below the 114 MB a table of one int per
    grid point takes (Python 3.11)."""
    tracemalloc.start()
    try:
        g = RectPoset(200, 200)
        terms = phi(g.hexagon(199, 199, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10_000_000, peak
    assert terms == [(g.mask([(199, 200)]), 1), (g.mask([(200, 199)]), 1)]


def test_phi_at_order_zero_and_poles():
    p = RectPoset(3, 2)
    filt = p.hexagon(2, 1, 0)
    pt = {q: Fraction(q[0] + 1, q[1] + 2) for q in p.members()}
    want = Fraction(1)
    for q in p.points(filt.mask):
        want *= pt[q]
    assert phi_at(filt, pt) == want
    # A zero weight is a pole of the path weights once paths exist.
    pt[(2, 2)] = Fraction(0)
    assert phi_at(filt, pt) == 0
    with pytest.raises(PoleEncountered):
        phi_at(p.hexagon(1, 0, 1), pt)


def _random_matrix(rng, n):
    return [[Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)]
            for _ in range(n)]


def test_det_matches_cofactor_expansion():
    rng = random.Random(5)
    for n in range(7):
        for _ in range(6):
            mat = _random_matrix(rng, n)
            assert det(mat) == _cofactor_det(mat), mat


def test_det_zero_pivots_and_singular_matrices():
    rng = random.Random(6)
    for n in range(2, 7):
        for _ in range(5):
            mat = _random_matrix(rng, n)
            # Zero leading pivot, and a zero pivot that appears mid-elimination.
            mat[0][0] = Fraction(0)
            assert det(mat) == _cofactor_det(mat), mat
            mid = _random_matrix(rng, n)
            mid[1] = [mid[0][0] * 2, mid[0][1] * 2] + mid[1][2:]
            assert det(mid) == _cofactor_det(mid), mid
            # Singular: one row is a combination of two others.
            sing = _random_matrix(rng, n)
            sing[-1] = [a + 3 * b for a, b in zip(sing[0], sing[-2])]
            assert det(sing) == 0 == _cofactor_det(sing)
    assert det([[Fraction(0), Fraction(1)], [Fraction(0), Fraction(2)]]) == 0
    assert det([]) == 1


def test_telescoping():
    """The sum over monotone paths (0,0) -> (r,s) of 1/(product of A along
    the path) is x_{r,s} after the A -> x substitution."""
    for poset in (RectPoset(2, 0), RectPoset(1, 1), RectPoset(2, 2)):
        region = poset.hexagon(0, 0, 1)
        total = Factored.const(0)
        for cover, _, _ in enum_paths(region, (0, 0), (poset.r, poset.s)):
            total = total + Factored.ratio(Polynomial.const(1), _mono(*covered(poset, cover)))
        assert a_to_x(total, poset) == Factored.var(xvar(poset.r, poset.s))
