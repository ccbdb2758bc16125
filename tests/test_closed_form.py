"""Closed-form rowmotion iterates on the [0,3]x[0,2] worked example, the
shift-free and collapsed special cases, and both evaluation routes against
honest toggling."""

import random

import pytest

from birow import verify
from birow.avar import a_to_x, x_to_A
from birow.bounce import _CORNERS
from birow.closed_form import (ClosedForm, IterateQuery, corner, m_value, mu_phi, rho_closed,
                               rho_closed_at, rho_closed_phi)
from birow.dynamics import generic_labeling, random_labeling, rowmotion_birational
from birow.errors import OutOfRange, ShiftOutOfRange
from birow.exactnum import Factored, Polynomial, avar, monomial, xvar
from birow.grid_poset import RectPoset
from test_exactnum import evaluate
from test_nilp import phi_poly

P32 = RectPoset(3, 2)


def _mono(*pairs):
    return Polynomial.from_dict({monomial([(avar(i, j), 1) for (i, j) in pairs]): 1})


def _poly(*term_lists):
    total = Polynomial(())
    for pairs in term_lists:
        total = total + _mono(*pairs)
    return total


def q21(k):
    return IterateQuery(P32, 2, 1, k)


def test_query_validation():
    with pytest.raises(OutOfRange):
        IterateQuery(P32, 4, 0, 0)
    with pytest.raises(OutOfRange):
        IterateQuery(P32, 0, 0, 7)


def test_m_value():
    assert [m_value(q21(k)) for k in range(7)] == [0, 0, 1, 3, 5, 7, 9]


def test_k0_filter_product_over_path_sum():
    num, den = rho_closed_phi(q21(0))
    assert num == _mono((2, 1), (2, 2), (3, 1), (3, 2))
    assert den == _poly([(2, 2)], [(3, 1)])


def test_k1_six_over_three():
    num, den = rho_closed_phi(q21(1))
    assert den == _poly([(1, 2)], [(2, 1)], [(3, 0)])
    assert num == _poly([(1, 1), (1, 2), (2, 1), (2, 2)],
                        [(1, 1), (1, 2), (2, 2), (3, 0)],
                        [(1, 1), (1, 2), (3, 0), (3, 1)],
                        [(1, 2), (2, 0), (2, 2), (3, 0)],
                        [(1, 2), (2, 0), (3, 0), (3, 1)],
                        [(2, 0), (2, 1), (3, 0), (3, 1)])


def test_k2_shifted_copy_of_k1():
    num, den = rho_closed_phi(q21(2))
    assert den == _poly([(0, 2)], [(1, 1)], [(2, 0)])
    assert num == _poly([(0, 1), (0, 2), (1, 1), (1, 2)],
                        [(0, 1), (0, 2), (1, 2), (2, 0)],
                        [(0, 1), (0, 2), (2, 0), (2, 1)],
                        [(0, 2), (1, 0), (1, 2), (2, 0)],
                        [(0, 2), (1, 0), (2, 0), (2, 1)],
                        [(1, 0), (1, 1), (2, 0), (2, 1)])


def test_k3_boundary_case_equals_reciprocal_x11():
    num, den = rho_closed_phi(q21(3))
    assert num == _mono((0, 0), (0, 1), (1, 0), (1, 1))
    assert den == _poly([(0, 1)], [(1, 0)])
    cf = rho_closed(q21(3))
    assert cf.frame == "A"
    assert a_to_x(cf.fn, P32) == Factored.var(xvar(1, 1)) ** -1


def test_k4_reciprocal_of_first_iterate_at_antipode():
    num, den = rho_closed_phi(q21(4))
    assert num == _poly([(1, 2), (2, 2)], [(1, 2), (3, 1)], [(2, 1), (3, 1)])
    assert den == _mono((1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2))
    assert rho_closed(q21(4)).frame == "x"


def test_k5_reciprocal_of_second_iterate_at_antipode():
    num, den = rho_closed_phi(q21(5))
    assert num == _poly([(0, 2), (1, 2)], [(0, 2), (2, 1)], [(1, 1), (2, 1)],
                        [(3, 0), (0, 2)], [(3, 0), (1, 1)], [(3, 0), (2, 0)])
    assert den == _poly(
        [(0, 1), (1, 1), (0, 2), (2, 1), (1, 2), (2, 2)],
        [(0, 1), (1, 1), (0, 2), (3, 0), (1, 2), (2, 2)],
        [(0, 1), (1, 1), (0, 2), (3, 0), (1, 2), (3, 1)],
        [(0, 1), (2, 0), (0, 2), (3, 0), (1, 2), (2, 2)],
        [(0, 1), (2, 0), (0, 2), (3, 0), (1, 2), (3, 1)],
        [(0, 1), (2, 0), (0, 2), (3, 0), (2, 1), (3, 1)],
        [(1, 0), (2, 0), (0, 2), (3, 0), (1, 2), (3, 1)],
        [(1, 0), (2, 0), (0, 2), (3, 0), (2, 1), (3, 1)],
        [(1, 0), (2, 0), (0, 2), (3, 0), (1, 2), (2, 2)],
        [(1, 0), (2, 0), (1, 1), (3, 0), (2, 1), (3, 1)])


def test_k6_collapses_to_x21():
    num, den = rho_closed_phi(q21(6))
    assert num == _poly([(0, 1), (1, 1)], [(0, 1), (2, 0)], [(1, 0), (2, 0)])
    assert den == _mono((0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1))
    cf = rho_closed(q21(6))
    assert cf.frame == "x"
    assert cf.fn == Factored.var(xvar(2, 1))


def test_rho_noshift_agrees_when_defined():
    """For k <= min(i, j) no shift is needed: the iterate is the ratio of phi
    over the unshifted hexagons of orders k and k+1 based at (i-k, j-k)."""
    for poset in (P32, RectPoset(2, 2)):
        for (i, j) in poset.members():
            for k in range(min(i, j) + 1):
                num = phi_poly(poset.hexagon(i - k, j - k, k))
                den = phi_poly(poset.hexagon(i - k, j - k, k + 1))
                cf = rho_closed(IterateQuery(poset, i, j, k))
                assert cf.frame == "A"
                assert cf.fn == Factored.ratio(num, den)


def test_claim_mk_collapse():
    """When i + j = k the iterate collapses to 1/x at the antipodal point."""
    for poset in (P32, RectPoset(2, 2)):
        for (i, j) in poset.members():
            cf = rho_closed(IterateQuery(poset, i, j, i + j))
            assert cf.frame == "A"
            anti = Factored.var(xvar(poset.r - i, poset.s - j))
            assert a_to_x(cf.fn, poset) == anti ** -1


def test_closed_form_is_tagged():
    assert isinstance(rho_closed(q21(0)), ClosedForm)
    assert rho_closed(q21(0)).frame == "A"


def _point(poset, seed):
    """A random labeling, its A-chart values, and one environment binding
    both the x- and the A-variables."""
    f = random_labeling(poset, random.Random(seed))
    env = {xvar(*p): f.value(p) for p in poset.members()}
    A = {p: evaluate(a, env) for p, a in x_to_A(generic_labeling(poset)).items()}
    env.update({avar(*p): v for p, v in A.items()})
    return f, A, env


def test_symbolic_closed_form_matches_toggling():
    """The enumerated closed form, evaluated in its own frame, equals honest
    toggling on every query of every grid up to 3x3.  check_main_formula
    goes through rho_closed_at, so this keeps the symbolic route checked
    against the dynamics directly."""
    for r in range(4):
        for s in range(4):
            poset = RectPoset(r, s)
            f, _, env = _point(poset, 4 * r + s)
            its = [f]
            for _ in range(r + s + 2):
                its.append(rowmotion_birational(its[-1]))
            for (i, j) in poset.members():
                for k in range(r + s + 2):
                    cf = rho_closed(IterateQuery(poset, i, j, k))
                    assert evaluate(cf.fn, env) == its[k + 1].value((i, j)), (r, s, i, j, k)


def test_rho_closed_at_matches_the_shifted_phi_ratio():
    """Shifting the point equals shifting the polynomials, in both cases of M."""
    for poset in (P32, RectPoset(2, 3)):
        _, A, env = _point(poset, 9)
        closed = rho_closed_at(poset, A)
        for (i, j) in poset.members():
            for k in range(poset.r + poset.s + 2):
                q = IterateQuery(poset, i, j, k)
                assert closed(q) == evaluate(Factored.ratio(*rho_closed_phi(q)), env)


def _renamed(p, a, b):
    """The reference shift mu^(a,b): each A[u,v] renamed A[u-a,v-b] and the
    terms sorted afresh."""
    return Polynomial.from_dict({monomial([(avar(v.i - a, v.j - b), e) for v, e in mon]): c
                                 for mon, c in p.terms})


def _check_mu_phi(poset, m, n, order, a, b):
    """mu_phi against the renamed phi, text included, when the base of a
    nonnegative order lies in the grid (elsewhere mu_phi is a constant)."""
    got = mu_phi(poset, m, n, order, a, b)
    if order >= 0 and poset.contains((m, n)):
        expect = _renamed(phi_poly(poset.hexagon(m, n, order)), a, b)
        assert got == expect and str(got) == str(expect), (poset, m, n, order, a, b)
    return got


def test_mu_phi_matches_the_renamed_phi_on_every_corner():
    """The Plucker-like identity's six corners and the closed form's
    denominator (delta = -1), of every query."""
    for r in range(6):
        for s in range(6):
            poset = RectPoset(r, s)
            corners = {corner(i, j, k, *c) for (i, j) in poset.members()
                       for k in range(r + s + 2) for c in _CORNERS + ((0, 0, -1),)}
            for c in corners:
                _check_mu_phi(poset, *c)


def test_mu_phi_matches_the_renamed_phi_on_the_ledger(monkeypatch):
    seen = []

    def spy(poset, *c):
        seen.append(c)
        return _check_mu_phi(poset, *c)

    monkeypatch.setattr(verify, "mu_phi", spy)
    for r in range(1, 6):
        for s in range(1, r + 1):
            for d in range(s):
                assert verify.check_file_ledger(r, s, d).passed
    assert any(a or b for _, _, _, a, b in seen)


def test_mu_phi_refuses_a_base_below_the_shift():
    p = RectPoset(2, 2)
    with pytest.raises(ShiftOutOfRange):
        mu_phi(p, 0, 1, 1, 1, 0)
    with pytest.raises(ShiftOutOfRange):
        mu_phi(p, 1, 0, 1, 0, 1)


def test_mu_phi_shifts_a_ratio_to_the_translated_grid():
    """mu^(a,b) moves the closed form's ratio phi_k'(m, n)/phi_(k'+1)(m, n)
    to the same ratio at the base (m-a, n-b) of the grid [0,r-a]x[0,s-b]."""
    for poset in (P32, RectPoset(3, 3)):
        for (i, j) in poset.members():
            for k in range(poset.r + poset.s + 2):
                if m_value(IterateQuery(poset, i, j, k)) > k:
                    continue
                m, n, order, a, b = corner(i, j, k)
                small = RectPoset(poset.r - a, poset.s - b).hexagon
                shifted = Factored.ratio(mu_phi(poset, *corner(i, j, k)),
                                         mu_phi(poset, *corner(i, j, k, delta=-1)))
                moved = Factored.ratio(phi_poly(small(m - a, n - b, order)),
                                       phi_poly(small(m - a, n - b, order + 1)))
                assert shifted == moved, (poset, i, j, k)
