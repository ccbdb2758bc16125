"""Lattice paths, non-intersecting families, phi polynomials, and the
determinant oracle."""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from birow.avar import a_to_x
from birow.exactnum import Factored, Polynomial, avar, monomial, xvar
from birow.grid_poset import RectPoset
from birow.nilp import enum_nilp, enum_paths, lgv_ratio_oracle, phi


def _mono(*pairs):
    return Polynomial.from_dict({monomial([(avar(i, j), 1) for (i, j) in pairs]): 1})


def _poly(*term_lists):
    total = Polynomial(())
    for pairs in term_lists:
        total = total + _mono(*pairs)
    return total


def _random_point(region, rng):
    return {avar(i, j): Fraction(rng.randint(1, 40), rng.randint(1, 8))
            for (i, j) in region.members}


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
    assert phi(p.hexagon(2, 1, 0)).value == _mono((2, 1), (2, 2), (3, 1), (3, 2))


def test_phi_one_six_terms():
    p = RectPoset(3, 2)
    want = _poly([(1, 1), (1, 2), (2, 1), (2, 2)],
                 [(1, 1), (1, 2), (2, 2), (3, 0)],
                 [(1, 1), (1, 2), (3, 0), (3, 1)],
                 [(1, 2), (2, 0), (2, 2), (3, 0)],
                 [(1, 2), (2, 0), (3, 0), (3, 1)],
                 [(2, 0), (2, 1), (3, 0), (3, 1)])
    assert phi(p.hexagon(1, 0, 1)).value == want


def test_phi_two_three_terms():
    p = RectPoset(3, 2)
    want = _poly([(1, 2)], [(2, 1)], [(3, 0)])
    assert phi(p.hexagon(1, 0, 2)).value == want


def test_phi_at_unit_weights_counts_families():
    p = RectPoset(3, 2)
    ones = {avar(i, j): Fraction(1) for (i, j) in p.members()}
    assert phi(p.hexagon(1, 0, 1)).value.evaluate(ones) == 6
    assert phi(p.hexagon(1, 0, 2)).value.evaluate(ones) == 3


@given(st.integers(0, 3), st.integers(0, 2), st.integers(0, 100))
@settings(max_examples=40, deadline=None)
def test_lgv_oracle_matches_phi(m, n, seed):
    """phi / (product over region members) equals the path-matrix determinant
    with reciprocal vertex weights, for every hexagon over the base (m, n)."""
    p = RectPoset(3, 2)
    rng = random.Random(seed)
    for k in range(min(3 - m, 2 - n) + 2):
        region = p.hexagon(m, n, k)
        pt = _random_point(region, rng)
        full = Fraction(1)
        for q in region.members:
            full *= pt[avar(*q)]
        assert phi(region).value.evaluate(pt) == lgv_ratio_oracle(region, pt) * full


def test_telescoping():
    """The sum over monotone paths (0,0) -> (r,s) of 1/(product of A along
    the path) is x_{r,s} after the A -> x substitution."""
    for poset in (RectPoset(2, 0), RectPoset(1, 1), RectPoset(2, 2)):
        region = poset.hexagon(0, 0, 1)
        total = Factored.const(0)
        for path in enum_paths(region, (0, 0), (poset.r, poset.s)):
            total = total + Factored.ratio(Polynomial.const(1), _mono(*path.vertices))
        assert a_to_x(total, poset) == Factored.var(xvar(poset.r, poset.s))
