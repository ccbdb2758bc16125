"""Lattice paths, non-intersecting families, phi polynomials, and phi at a
point through the Lindstrom-Gessel-Viennot determinant."""

import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from birow import bounce
from birow.avar import a_to_x
from birow.errors import PoleEncountered
from birow.exactnum import Factored, Polynomial, avar, monomial, xvar
from birow.grid_poset import RectPoset
from birow.nilp import det, enum_nilp, enum_paths, phi, phi_at, uncovered_sum
from test_exactnum import evaluate_poly, grlex_key


def _mono(*pairs):
    return Polynomial.from_dict({monomial([(avar(i, j), 1) for (i, j) in pairs]): 1})


def _poly(*term_lists):
    total = Polynomial(())
    for pairs in term_lists:
        total = total + _mono(*pairs)
    return total


def _random_point(region, rng):
    return {p: Fraction(rng.randint(1, 40), rng.randint(1, 8)) for p in region.members}


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
    paths = enum_paths(region, (0, 0), (2, 2))
    assert all(set(q.steps()) <= {"R", "U"} for q in paths)
    assert all(len(q.edges()) == 4 for q in paths)
    assert len({q.vertices for q in paths}) == len(paths)


def test_phi_order_zero_is_the_filter_product():
    p = RectPoset(3, 2)
    assert phi(p.hexagon(2, 1, 0)) == _mono((2, 1), (2, 2), (3, 1), (3, 2))


def test_phi_one_six_terms():
    p = RectPoset(3, 2)
    want = _poly([(1, 1), (1, 2), (2, 1), (2, 2)],
                 [(1, 1), (1, 2), (2, 2), (3, 0)],
                 [(1, 1), (1, 2), (3, 0), (3, 1)],
                 [(1, 2), (2, 0), (2, 2), (3, 0)],
                 [(1, 2), (2, 0), (3, 0), (3, 1)],
                 [(2, 0), (2, 1), (3, 0), (3, 1)])
    assert phi(p.hexagon(1, 0, 1)) == want


def test_phi_two_three_terms():
    p = RectPoset(3, 2)
    want = _poly([(1, 2)], [(2, 1)], [(3, 0)])
    assert phi(p.hexagon(1, 0, 2)) == want


def test_phi_at_unit_weights_counts_families():
    p = RectPoset(3, 2)
    ones = {avar(i, j): Fraction(1) for (i, j) in p.members()}
    assert evaluate_poly(phi(p.hexagon(1, 0, 1)), ones) == 6
    assert evaluate_poly(phi(p.hexagon(1, 0, 2)), ones) == 3


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
        assert evaluate_poly(phi(region), _in_avars(pt)) == phi_at(region, pt)


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
                    assert evaluate_poly(phi(region), _in_avars(pt)) == phi_at(region, pt), \
                        (r, s, m, n, k)


def _uncovered_oracle(families, members):
    """The terms of uncovered_sum: each family's uncovered members as a tuple
    of (Var, 1) pairs, counted, and sorted by descending grlex_key."""
    counts = Counter()
    for fam in families:
        covered = {v for path in fam.paths for v in path.vertices}
        counts[tuple((avar(*q), 1) for q in sorted(members) if q not in covered)] += 1
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
                    cases.append((enum_nilp(region), region.members))
    hugging = []

    def spy(families, members):
        hugging.append((families, list(members)))
        return uncovered_sum(families, members)

    monkeypatch.setattr(bounce, "uncovered_sum", spy)
    grid = RectPoset(3, 3)
    for i in range(4):
        for j in range(4):
            for k in range(1, 8):
                if 0 < max(k - i, 0) + max(k - j, 0) <= k:
                    seen = len(hugging)
                    assert bounce.plucker_check(grid, i, j, k).passed
                    low = RectPoset(3, 3, min(0, i - k), min(0, j - k))
                    assert all(f.region.poset == low for fams, _ in hugging[seen:] for f in fams)
    assert any(not {v for path in f.paths for v in path.vertices} <= set(members)
               for families, members in hugging for f in families)
    for families, members in cases + hugging:
        assert uncovered_sum(families, members).terms == _uncovered_oracle(families, members)


@pytest.mark.parametrize("r, k", [(4, 2), (5, 1), (5, 3), (6, 2), (6, 3)])
def test_uncovered_sum_sorts_as_from_dict(r, k):
    """uncovered_sum orders its terms on the masks; from_dict sorts the same
    counts by their packed graded lexicographic keys.  (The counts are
    checked against the tuple oracle above.)"""
    region = RectPoset(r, r).hexagon(0, 0, k)
    families = enum_nilp(region)
    terms = uncovered_sum(families, region.members).terms
    assert sum(c for _, c in terms) == len(families)
    assert terms == Polynomial.from_dict(dict(terms)).terms


def test_phi_at_order_zero_and_poles():
    p = RectPoset(3, 2)
    filt = p.hexagon(2, 1, 0)
    pt = {q: Fraction(q[0] + 1, q[1] + 2) for q in p.members()}
    want = Fraction(1)
    for q in filt.members:
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
        for path in enum_paths(region, (0, 0), (poset.r, poset.s)):
            total = total + Factored.ratio(Polynomial.const(1), _mono(*path.vertices))
        assert a_to_x(total, poset) == Factored.var(xvar(poset.r, poset.s))
