"""The x -> A change of variables and its inverse substitution."""

import pytest

from birow.avar import a_to_x, x_to_A
from birow.dynamics import generic_labeling
from birow.errors import UnboundVariable
from birow.exactnum import Factored, avar, xvar
from birow.grid_poset import RectPoset


def test_chart_values_on_unit_square():
    chart = x_to_A(generic_labeling(RectPoset(1, 1)))
    w, x, y, z = (Factored.var(xvar(*p)) for p in [(0, 0), (1, 0), (0, 1), (1, 1)])
    assert chart[(0, 0)] == w ** -1
    assert chart[(1, 0)] == w / x
    assert chart[(0, 1)] == w / y
    assert chart[(1, 1)] == (x + y) / z


def test_chart_product_telescopes_along_a_path():
    # A00*A10*A11 on [0,1]x[0,1] collapses to (x10+x01)/(x10*x11)
    chart = x_to_A(generic_labeling(RectPoset(1, 1)))
    prod = chart[(0, 0)] * chart[(1, 0)] * chart[(1, 1)]
    x10, x01, x11 = (Factored.var(xvar(*p)) for p in [(1, 0), (0, 1), (1, 1)])
    assert prod == (x10 + x01) / (x10 * x11)


def test_a_to_x_identity_example():
    # A00*A01*A10*A11/(A01 + A10) = 1/x11 on [0,1]x[0,1]
    poset = RectPoset(1, 1)
    num = Factored.var(avar(0, 0)) * Factored.var(avar(0, 1)) \
        * Factored.var(avar(1, 0)) * Factored.var(avar(1, 1))
    den = Factored.var(avar(0, 1)) + Factored.var(avar(1, 0))
    assert a_to_x(num / den, poset) == Factored.var(xvar(1, 1)) ** -1


def test_a_to_x_does_not_cancel():
    # A00*A10 = (1/x00)*(x00/x10): the substituted pair keeps x00 on both sides
    f = Factored.var(avar(0, 0)) * Factored.var(avar(1, 0))
    assert a_to_x(f, RectPoset(1, 1)).render() == "(x[0,0])/(x[0,0]*x[1,0])"


def test_a_to_x_leaves_x_variables_alone():
    poset = RectPoset(1, 1)
    f = Factored.var(avar(0, 0)) * Factored.var(xvar(1, 1))
    assert a_to_x(f, poset) == Factored.var(xvar(1, 1)) / Factored.var(xvar(0, 0))


def test_a_to_x_rejects_foreign_points():
    with pytest.raises(UnboundVariable):
        a_to_x(Factored.var(avar(5, 5)), RectPoset(1, 1))
