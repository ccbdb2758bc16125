"""Closed-form evaluation of rowmotion iterates.

For a query (i, j, k) the (k+1)-st rowmotion iterate at (i, j) is a ratio of
two phi polynomials with indices shifted by mu, when M = [k-i]+ + [k-j]+ is
at most k; otherwise it is the reciprocal of an earlier iterate at the
antipodal point, computed in x-variables.  Every shifted phi, those of the
Plucker-like check and the file ledger too, is phi of a hexagon of a smaller
grid, named by five ints, its ``corner_key``, so equal ones cancel before
any region is built; ``corner_region`` builds that region afresh, ``mu_phi``
decodes its phi, and rho_closed_at evaluates it through phi_at.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Tuple, TypeVar, Union

from .avar import a_to_x
from .errors import OutOfRange
from .exactnum import Factored, Polynomial
from .grid_poset import GridPoint, RectPoset, Region
from .nilp import decode, phi, phi_at

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


def corner(i: int, j: int, k: int, eps_i: int = 0, eps_j: int = 0,
           delta: int = 0) -> Tuple[int, int, int, int, int]:
    """The shifted phi mu^(a,b) phi_order(m, n) of the corner
    (eps_i, eps_j, delta) of the query (i, j, k), as (m, n, order, a, b).
    The closed form is corner(i, j, k) over corner(i, j, k, delta=-1)."""
    a, b = max(k - j - eps_j, 0), max(k - i - eps_i, 0)
    M = a + b
    return i - k + eps_i + M, j - k + eps_j + M, k - delta - M, a, b


def corner_key(poset: RectPoset, m: int, n: int, order: int, a: int,
               b: int) -> Union[Tuple[int, ...], int]:
    """The key of phi_order(m, n) under the shift mu^(a,b): (r-a, s-b, m-a,
    n-b, order), which names the hexagon (m-a, n-b, order) of the grid
    [0, r-a] x [0, s-b].  Every member of the hexagon lies at or above its
    base, so the shift (u, v) -> (u-a, v-b) moves it whole onto that grid,
    each point named by its shifted variable.  The conventions of the
    shifted identity give constant keys: 0 for a negative order, and for a
    base above the grid 1 at order 0 (empty filter) and 0 otherwise."""
    if order < 0:
        return 0
    if m > poset.r or n > poset.s:
        return int(order == 0)
    return (poset.r - a, poset.s - b, m - a, n - b, order)


def corner_region(key: Union[Tuple[int, ...], int]) -> Union[Region, int]:
    """The region a ``corner_key`` names, built afresh, or its constant.  A
    base below the shift raises OutOfRange."""
    if isinstance(key, int):
        return key
    r, s, m, n, order = key
    return RectPoset(r, s).hexagon(m, n, order)


def key_phi(key: Union[Tuple[int, ...], int]) -> Polynomial:
    """The phi of a key's ``corner_region``, decoded on its own grid; a
    constant is itself."""
    region = corner_region(key)
    if isinstance(region, int):
        return Polynomial.const(region)
    return decode(region.poset, phi(region))


def mu_phi(poset: RectPoset, m: int, n: int, order: int, a: int, b: int) -> Polynomial:
    """phi_order(m, n) under the shift mu^(a,b): the phi of its key."""
    return key_phi(corner_key(poset, m, n, order, a, b))


def _phi_pair(q: IterateQuery, at: Callable[[int, int, int, int, int], T]) -> Tuple[T, T]:
    """The iterate as an unreduced (numerator, denominator) pair, where
    at(m, n, order, a, b) gives a corner's shifted phi.  Valid for every k
    in [0, r+s+1]: when M > k the pair is obtained from the antipodal query
    with numerator and denominator exchanged (the A-chart is shared, so the
    reciprocal stays a phi ratio)."""
    p, i, j, k = q.poset, q.i, q.j, q.k
    if m_value(q) <= k:
        return at(*corner(i, j, k)), at(*corner(i, j, k, delta=-1))
    num, den = _phi_pair(IterateQuery(p, p.r - i, p.s - j, k - 1 - i - j), at)
    return den, num


def rho_closed_phi(q: IterateQuery) -> Tuple[Polynomial, Polynomial]:
    """The iterate as a pair of shifted phi polynomials in A-variables."""
    return _phi_pair(q, lambda *c: mu_phi(q.poset, *c))


def rho_closed(q: IterateQuery) -> ClosedForm:
    """Tagged closed form: case M <= k stays in A-variables; case M > k is
    the reciprocal of the antipodal query, written in x-variables."""
    fn = Factored.ratio(*rho_closed_phi(q))
    if m_value(q) <= q.k:
        return ClosedForm("A", fn)
    return ClosedForm("x", a_to_x(fn, q.poset))


def rho_closed_at(poset: RectPoset,
                  A: Dict[GridPoint, Fraction]) -> Callable[[IterateQuery], Fraction]:
    """The closed form at the point whose A-chart values are A (grid point
    -> value), as a function of the query, in either case of M.  Each
    corner's region carries its shifted variables, so phi_at reads A as it
    is.  Queries share corners, so each corner's shifted phi is evaluated
    once per point."""

    @functools.lru_cache(maxsize=None)
    def at(*c: int) -> Fraction:
        return phi_at(corner_region(corner_key(poset, *c)), A)

    def closed(q: IterateQuery) -> Fraction:
        num, den = _phi_pair(q, at)
        return num / den

    return closed
