"""Closed-form evaluation of rowmotion iterates.

For a query (i, j, k) the (k+1)-st rowmotion iterate at (i, j) is a ratio of
two phi polynomials with indices shifted by mu, when M = [k-i]+ + [k-j]+ is
at most k; otherwise it is the reciprocal of an earlier iterate at the
antipodal point, computed in x-variables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from .avar import a_to_x, shift_poly
from .errors import OutOfRange
from .exactnum import Factored, Polynomial
from .grid_poset import RectPoset
from .nilp import phi


@dataclass(frozen=True)
class IterateQuery:
    poset: RectPoset
    i: int
    j: int
    k: int

    def __post_init__(self):
        if not self.poset.contains((self.i, self.j)):
            raise OutOfRange(f"({self.i},{self.j}) outside rectangle")
        if not 0 <= self.k <= self.poset.r + self.poset.s + 1:
            raise OutOfRange(f"k={self.k} outside [0, {self.poset.r + self.poset.s + 1}]")


@dataclass(frozen=True)
class ClosedForm:
    """Tagged result: frame "A" (A-variables) or "x" (x-variables)."""
    frame: str
    fn: Factored


def m_value(q: IterateQuery) -> int:
    return max(q.k - q.i, 0) + max(q.k - q.j, 0)


def rho_closed_phi(q: IterateQuery) -> Tuple[Polynomial, Polynomial]:
    """The iterate as an unreduced (numerator, denominator) pair of shifted
    phi polynomials in A-variables.  Valid for every k in [0, r+s+1]: when
    M > k the pair is obtained from the antipodal query with numerator and
    denominator exchanged (the A-chart is shared, so the reciprocal stays a
    phi ratio)."""
    p, i, j, k = q.poset, q.i, q.j, q.k
    M = m_value(q)
    if M <= k:
        a, b = max(k - j, 0), max(k - i, 0)
        base = (i - k + M, j - k + M)
        num = phi(p.hexagon(base[0], base[1], k - M)).value
        den = phi(p.hexagon(base[0], base[1], k - M + 1)).value
        return shift_poly(num, a, b), shift_poly(den, a, b)
    inner = IterateQuery(p, p.r - i, p.s - j, k - 1 - i - j)
    num, den = rho_closed_phi(inner)
    return den, num


def rho_closed(q: IterateQuery) -> ClosedForm:
    """Tagged closed form: case M <= k stays in A-variables; case M > k is
    the reciprocal of the antipodal query, written in x-variables."""
    fn = Factored.ratio(*rho_closed_phi(q))
    if m_value(q) <= q.k:
        return ClosedForm("A", fn)
    return ClosedForm("x", a_to_x(fn, q.poset))
