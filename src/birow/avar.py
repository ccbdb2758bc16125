"""The change of variables x -> A and its inverse substitution.  The index
shift mu^(a,b) moves a hexagon onto a smaller grid, in
``closed_form.corner_key``."""

from __future__ import annotations

from typing import Dict, Tuple

from .dynamics import Labeling, Value, generic_labeling, lower_sum
from .errors import UnboundVariable
from .exactnum import Factored, Polynomial, Var
from .grid_poset import GridPoint, RectPoset


def x_to_A(f: Labeling) -> Dict[GridPoint, Value]:
    """The A-chart of a labeling, in the labeling's own value type.

    A_p = (sum of the labels p covers)/f(p), the adjoined bottom's label
    included.  For the generic labeling this is
    A_{ij} = (x_{i,j-1} + x_{i-1,j})/x_{ij} in the interior, with the
    boundary conventions A_{i0} = x_{i-1,0}/x_{i0}, A_{0j} = x_{0,j-1}/x_{0j}
    and A_{00} = 1/x_{00}.
    """
    return {p: lower_sum(f, p) / f.value(p) for p in f.poset.members()}


def a_to_x(f: Factored, poset: RectPoset) -> Factored:
    """Substitute the chart, turning an A-variable expression into x-variables.

    The numerator and the denominator of f are substituted apart.  Each sums
    its terms over the product of their denominators, and the two sums are
    divided, all without cancelling; that unreduced pair is the printed
    x-frame form.
    """
    chart = x_to_A(generic_labeling(poset))
    one = Polynomial.const(1)

    def bind(v: Var) -> Tuple[Polynomial, Polynomial]:
        if v.ns != "A":
            return Polynomial.var(v), one
        if not poset.contains((v.i, v.j)):
            raise UnboundVariable(f"{v.render()} outside the rectangle")
        return chart[(v.i, v.j)].expand()

    def in_x(p: Polynomial) -> Tuple[Polynomial, Polynomial]:
        num, den = Polynomial(()), one
        for m, c in p.terms:
            parts = [bind(v) for v, e in m for _ in range(e)]
            tnum = Polynomial.product(n for n, _ in parts)
            tden = Polynomial.product(d for _, d in parts)
            num, den = Polynomial.combine([(1, [num, tden]), (c, [tnum, den])]), den * tden
        return num, den

    fnum, fden = f.expand()
    nn, nd = in_x(fnum)
    dn, dd = in_x(fden)
    return Factored.ratio(nn * dd, nd * dn)
