"""Closed-form evaluation of rowmotion iterates.

For a query (i, j, k) the (k+1)-st rowmotion iterate at (i, j) is a ratio of
two phi polynomials with indices shifted by mu, when M = [k-i]+ + [k-j]+ is
at most k; otherwise it is the reciprocal of an earlier iterate at the
antipodal point, computed in x-variables.  rho_closed_at gives the same
value at a point through phi_at, with no polynomial built.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Tuple, TypeVar

from .avar import a_to_x, shift_poly
from .errors import OutOfRange
from .exactnum import Factored, Polynomial
from .grid_poset import GridPoint, RectPoset, Region
from .nilp import phi, phi_at

T = TypeVar("T")


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


def _phi_pair(q: IterateQuery, at: Callable[[Region, int, int], T]) -> Tuple[T, T]:
    """The iterate as an unreduced (numerator, denominator) pair, where
    at(region, a, b) gives phi(region) under the shift mu^(a,b).  Valid for
    every k in [0, r+s+1]: when M > k the pair is obtained from the antipodal
    query with numerator and denominator exchanged (the A-chart is shared,
    so the reciprocal stays a phi ratio)."""
    p, i, j, k = q.poset, q.i, q.j, q.k
    M = m_value(q)
    if M <= k:
        a, b = max(k - j, 0), max(k - i, 0)
        m, n = i - k + M, j - k + M
        return at(p.hexagon(m, n, k - M), a, b), at(p.hexagon(m, n, k - M + 1), a, b)
    num, den = _phi_pair(IterateQuery(p, p.r - i, p.s - j, k - 1 - i - j), at)
    return den, num


def rho_closed_phi(q: IterateQuery) -> Tuple[Polynomial, Polynomial]:
    """The iterate as a pair of shifted phi polynomials in A-variables."""
    return _phi_pair(q, lambda region, a, b: shift_poly(phi(region).value, a, b))


def rho_closed(q: IterateQuery) -> ClosedForm:
    """Tagged closed form: case M <= k stays in A-variables; case M > k is
    the reciprocal of the antipodal query, written in x-variables."""
    fn = Factored.ratio(*rho_closed_phi(q))
    if m_value(q) <= q.k:
        return ClosedForm("A", fn)
    return ClosedForm("x", a_to_x(fn, q.poset))


def rho_closed_at(q: IterateQuery, A: Dict[GridPoint, Fraction]) -> Fraction:
    """The closed form of the iterate at the point whose A-chart values are
    A (grid point -> value), in either case of M.  The shift mu^(a,b) moves
    the point, A'(u, v) = A(u-a, v-b), instead of a polynomial."""

    def at(region: Region, a: int, b: int) -> Fraction:
        return phi_at(region, {(u + a, v + b): val for (u, v), val in A.items()})

    num, den = _phi_pair(q, at)
    return num / den
