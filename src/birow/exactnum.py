"""Exact arithmetic: rationals, sparse multivariate polynomials, and
factored symbolic values.

Rationals are stdlib ``fractions.Fraction``.  Polynomials have arbitrary
precision integer coefficients and variables indexed by a namespace
(``"A"`` or ``"x"``) and a grid position ``(i, j)``.  A symbolic value is a
``Factored``: a rational coefficient times a product of primitive
polynomials with integer exponents.

A value is anything with the operators the birational toggle uses:
``a + b``, ``a * b``, ``a / b``, ``a ** e`` with an ``int`` exponent, ``==``
with a value of its own type, ``bool(a)``, false exactly at zero, and
``str(a)``.  Birational rowmotion never subtracts, so the protocol has no
``-``, unary or binary, and neither ``Factored`` nor ``Polynomial`` defines
one.  A zero divisor, in ``/`` or in a non-positive power of zero, raises
``ZeroDivisionError``.  ``Fraction``, ``Factored`` and ``dynamics.MaxPlus``
are values, so the toggle runs unchanged on each (``dynamics`` says which
labelings take its integer sweep instead).

No multivariate gcd is ever computed: ``Factored`` division cancels equal
factors syntactically, and equality expands the quotient of the two values
and compares its numerator with its denominator, which is exact.

A value renders as its expanded numerator, or as ``(numerator)/(denominator)``
when the denominator is not 1; the pair carries no common integer content
and the denominator's leading coefficient is positive.  Terms are ordered
by graded lexicographic order with variables ranked by ``(namespace, i, j)``.

Every monomial order is taken on monomials packed into single ints by
``_packing``: the degree, then one exponent field per variable, earlier
variables higher.  Descending packed order is descending graded
lexicographic order, so ``Polynomial.from_dict`` sorts its terms by the
packed int.  Every product (``*``, ``Factored.expand`` and
``Factored.+``) runs in ``Polynomial.product`` on the same packing, with
one variable ``z`` made dense: a term's outer key is its packed key with
the exponent ``e`` of ``z`` moved into the field of a partner variable
``y``, and its coefficient ``c`` is ``c << W*e`` in the dense row, one
big int per outer key.  ``W`` is one more than the bit length of the
product of the operands' L1 norms, a bound on every result coefficient,
so the signed ``W``-bit fields of a row decode uniquely.  Multiplying two
terms is one int addition of outer keys and one int multiplication of
rows.  On homogeneous operands, which are all the toolkit builds,
``e_y + e_z`` is fixed by the other exponents, so a row gathers every term
that differs only in how it splits that sum.  Terms are stored as tuples of
``(Var, exponent)`` pairs.
"""

from __future__ import annotations

import gc
import math
import re
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, wraps
from itertools import chain
from typing import Dict, Iterable, List, NamedTuple, Set, Tuple

from .errors import ParseError, PoleEncountered


class Var(NamedTuple):
    ns: str  # "A" or "x"
    i: int
    j: int

    def render(self) -> str:
        return f"{self.ns}[{self.i},{self.j}]"


def avar(i: int, j: int) -> Var:
    return Var("A", i, j)


def xvar(i: int, j: int) -> Var:
    return Var("x", i, j)


# A monomial is a sorted tuple of (Var, positive exponent) pairs; () is 1.
Monomial = Tuple[Tuple[Var, int], ...]


def monomial(pairs: Iterable[Tuple[Var, int]]) -> Monomial:
    acc: Dict[Var, int] = {}
    for v, e in pairs:
        acc[v] = acc.get(v, 0) + e
    return tuple(sorted((v, e) for v, e in acc.items() if e != 0))


def _packing(pairs: Set[Tuple[Var, int]], bound: int
             ) -> Tuple[int, List[Var], Dict[Tuple[Var, int], int]]:
    """The packed-int key of monomials over the given (Var, exponent) pairs:
    the field width ``w``, the variables in ``Var`` order, and the weight of
    each pair.  A monomial packs to the sum of its pairs' weights: the
    degree in the top field, then one field of ``w`` bits per variable,
    earlier variables higher.  ``w`` is the bit length of ``bound``, which
    must bound every exponent the key is to hold, so no field carries and
    descending packed order is descending graded lexicographic order."""
    vs = sorted({v for v, _ in pairs})
    w = bound.bit_length()
    top = w * len(vs)
    shift = {v: w * k for k, v in enumerate(reversed(vs))}
    return w, vs, {(v, e): (e << top) + (e << shift[v]) for v, e in pairs}


def _without_cyclic_gc(fn):
    """fn with the cyclic garbage collector off during each call and left as
    it was found afterwards, so nested calls are safe.  A large product
    builds millions of term tuples, and each full collection would walk
    every live one again."""
    @wraps(fn)
    def call(*args):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return fn(*args)
        finally:
            if enabled:
                gc.enable()
    return call


class _PairText(dict):
    """The text of each (Var, exponent) pair, rendered on first use."""

    def __missing__(self, pair: Tuple[Var, int]) -> str:
        v, e = pair
        text = self[pair] = v.render() if e == 1 else f"{v.render()}^{e}"
        return text


_PAIR_TEXT = _PairText()


def _render_mon(m: Monomial, coeff: int) -> str:
    parts = [str(abs(coeff))] if abs(coeff) != 1 or not m else []
    parts += map(_PAIR_TEXT.__getitem__, m)
    return "*".join(parts)


@dataclass(frozen=True)
class Polynomial:
    """Sparse polynomial with integer coefficients.

    ``terms`` is a tuple of (monomial, coefficient) pairs sorted by
    descending graded lexicographic order, so ``terms[0]`` is the leading
    term.  The zero polynomial has an empty terms tuple.
    """

    terms: Tuple[Tuple[Monomial, int], ...]

    @cached_property
    def _hash(self) -> int:
        return hash(self.terms)

    def __hash__(self) -> int:
        # Factored looks its factors up in dicts, so each is hashed often.
        return self._hash

    def __getstate__(self) -> dict:
        # A str hash differs between interpreters: never pickle the cache.
        return {"terms": self.terms}

    @staticmethod
    def from_dict(d: Dict[Monomial, int]) -> "Polynomial":
        """The polynomial with the nonzero terms of d, sorted by their packed
        keys.  The fields are as wide as the sum of the variables' largest
        exponents, which bounds the degree and every exponent.  A
        non-positive exponent raises ValueError: it renders as nothing
        ``parse_factored`` reads, and its field would borrow from its
        neighbours in the packed key."""
        items = [(m, c) for m, c in d.items() if c != 0]
        pairs = set(chain.from_iterable(m for m, _ in items))
        largest: Dict[Var, int] = {}
        for v, e in pairs:
            if e <= 0:
                raise ValueError(f"non-positive exponent {e} of {v.render()}")
            largest[v] = max(largest.get(v, 0), e)
        weight = _packing(pairs, sum(largest.values()))[2].__getitem__
        items.sort(key=lambda t: sum(map(weight, t[0])), reverse=True)
        return Polynomial(tuple(items))

    @staticmethod
    def const(c: int) -> "Polynomial":
        return Polynomial.from_dict({(): int(c)})

    @staticmethod
    def var(v: Var, exp: int = 1) -> "Polynomial":
        return Polynomial.from_dict({monomial([(v, exp)]): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return self.terms == (((), 1),)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        d = dict(self.terms)
        for m, c in other.terms:
            d[m] = d.get(m, 0) + c
        return Polynomial.from_dict(d)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        return Polynomial.product((self, other))

    @staticmethod
    @_without_cyclic_gc
    def product(polys: Iterable["Polynomial"]) -> "Polynomial":
        """Product of the given polynomials; 1 for none.

        Every monomial is packed by ``_packing`` over the operands' pairs,
        with fields as wide as ``D``, the sum of the operands' degrees,
        which bounds every exponent of every partial product.  The dense
        variable ``z`` has the largest exponent among the operands' pairs
        and its partner ``y`` the next, ties going to the earlier ``Var``;
        outer keys, dense rows and ``W`` are as the module docstring says.
        With no partner the degree field goes with ``z`` instead, so a
        chain in one variable is a single row.  Each outer key is decoded
        once, each row field by field (a negative field borrows from the
        one above), and the terms are sorted by their full packed key."""
        # Largest operand first: `iterate --r 2 --s 2 --k 4` took 23-25 s this
        # way, 26-35 s with the operands as given and 41-44 s smallest first
        # (Python 3.11.7 on 2 CPUs).
        polys = sorted(polys, key=lambda p: len(p.terms), reverse=True)
        if len(polys) == 1:
            return polys[0]
        if any(p.is_zero() for p in polys):
            return Polynomial(())
        pairs = {pair for p in polys for m, _ in p.terms for pair in m}
        # terms[0] is the leading term, so it has the operand's degree.
        w, vs, weight = _packing(pairs, sum(sum(e for _, e in p.terms[0][0]) for p in polys))
        top, fmask = w * len(vs), (1 << w) - 1
        largest: Dict[Var, int] = {}
        for v, e in pairs:
            largest[v] = max(largest.get(v, 0), e)
        z, y = (sorted(largest, key=lambda v: (-largest[v], v)) + [None, None])[:2]
        sz = w * (len(vs) - 1 - vs.index(z)) if z else 0
        sy = w * (len(vs) - 1 - vs.index(y)) if y else 0
        # outer key + e * dz is the packed key of the term with z^e.
        dz = (1 << sz) - (1 << sy) if y else (1 << sz) + (1 << top) if z else 0
        zmask = fmask if z else 0
        W = 1 + math.prod(sum(abs(c) for _, c in p.terms) for p in polys).bit_length()
        acc = {0: 1}
        for p in polys:
            rows: Dict[int, int] = defaultdict(int)
            for m, c in p.terms:
                key = sum(map(weight.__getitem__, m))
                e = key >> sz & zmask
                rows[key - e * dz] += c << W * e
            out: Dict[int, int] = defaultdict(int)
            for a, ra in acc.items():
                for b, rb in rows.items():
                    out[a + b] += ra * rb
            acc = out
        low, mask, half, wrap = (1 << top) - 1, (1 << W) - 1, 1 << (W - 1), 1 << W
        fields: Dict[int, Tuple[Var, int]] = {}

        def decode(rest: int) -> List[Tuple[Var, int]]:
            mon = []
            while rest:  # nonzero fields, highest (earliest variable) first
                f = (rest.bit_length() - 1) // w * w
                field = rest >> f << f
                pair = fields.get(field)
                if pair is None:
                    pair = fields[field] = (vs[-1 - f // w], rest >> f)
                mon.append(pair)
                rest -= field
            return mon

        # One-pair tuples of z and y by exponent; () for exponent 0.
        ztup: Dict[int, tuple] = {0: ()}
        ytup: Dict[int, tuple] = {0: ()}
        # The earlier variable of z and y has the higher field.
        hi, lo = max(sz, sy), min(sz, sy)
        z_first = sz > sy
        found: Dict[int, Tuple[Monomial, int]] = {}
        for outer, row in acc.items():
            if not row:
                continue
            rest = outer & low
            s = rest >> sy & fmask if y else 0
            rest -= s << sy
            head = rest >> hi << hi
            tail = rest & ((1 << lo) - 1)
            head, mid, tail = decode(head), decode(rest - head - tail), decode(tail)
            e, full = 0, outer
            while row:
                c = row & mask
                if c >= half:
                    c -= wrap
                if c:
                    zt = ztup.get(e)
                    if zt is None:
                        zt = ztup[e] = ((z, e),)
                    yt = ytup.get(s - e)
                    if yt is None:
                        yt = ytup[s - e] = ((y, s - e),) if y else ()
                    if z_first:
                        mon = (*head, *zt, *mid, *yt, *tail)
                    else:
                        mon = (*head, *yt, *mid, *zt, *tail)
                    found[full] = (mon, c)
                    row -= c
                row >>= W
                e += 1
                full += dz
        return Polynomial(tuple(map(found.__getitem__, sorted(found, reverse=True))))

    def scale(self, c: int) -> "Polynomial":
        if c == 1:
            return self
        if c == 0:
            return Polynomial(())
        return Polynomial(tuple((m, k * c) for m, k in self.terms))

    def render(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for m, c in self.terms:
            parts += (" - " if c < 0 else " + ", _render_mon(m, c))
        parts[0] = "-" if self.terms[0][1] < 0 else ""
        return "".join(parts)

    def __str__(self) -> str:
        return self.render()


def _primitive(p: Polynomial) -> Tuple[Fraction, Polynomial]:
    """Split off the integer content and sign so the leading coefficient of
    the remaining polynomial is positive."""
    if p.is_zero():
        return Fraction(0), Polynomial.const(1)
    g = math.gcd(*(c for _, c in p.terms))
    if p.terms[0][1] < 0:
        g = -g
    return Fraction(g), Polynomial(tuple((m, c // g) for m, c in p.terms))


@dataclass(frozen=True, eq=False)
class Factored:
    """A rational coefficient times a product of primitive polynomials with
    integer exponents; every factor has a positive leading coefficient.

    Division cancels matching factors syntactically, which keeps iterated
    toggle dynamics from accumulating redundant factors; no polynomial gcd
    is ever computed.  Addition extracts the common factors, expands only
    the leftover parts, and stores their sum as a single new factor.
    ``==`` is mathematical equality with a ``Factored``, so it has no hash.
    """

    coeff: Fraction
    factors: Tuple[Tuple[Polynomial, int], ...]

    @staticmethod
    def make(coeff: Fraction, fdict: Dict[Polynomial, int]) -> "Factored":
        if coeff == 0:
            return Factored(Fraction(0), ())
        items = [(p, e) for p, e in fdict.items() if e != 0 and not p.is_one()]
        items.sort(key=lambda pe: pe[0].terms)
        return Factored(Fraction(coeff), tuple(items))

    @staticmethod
    def const(c) -> "Factored":
        return Factored.make(Fraction(c), {})

    @staticmethod
    def var(v: Var) -> "Factored":
        return Factored.make(Fraction(1), {Polynomial.var(v): 1})

    @staticmethod
    def ratio(num: Polynomial, den: Polynomial) -> "Factored":
        """num/den, with the content and sign of both moved into the
        coefficient."""
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        cn, pn = _primitive(num)
        cd, pd = _primitive(den)
        d = {pn: 1}
        d[pd] = d.get(pd, 0) - 1
        return Factored.make(cn / cd, d)

    def __bool__(self) -> bool:
        return self.coeff != 0

    def __mul__(self, other: "Factored") -> "Factored":
        d = dict(self.factors)
        for p, e in other.factors:
            d[p] = d.get(p, 0) + e
        return Factored.make(self.coeff * other.coeff, d)

    def __truediv__(self, other: "Factored") -> "Factored":
        return self * other ** -1

    def __pow__(self, exp: int) -> "Factored":
        if not self:
            if exp <= 0:
                raise ZeroDivisionError("zero to a nonpositive power")
            return self
        return Factored.make(self.coeff ** exp, {p: e * exp for p, e in self.factors})

    def __add__(self, other: "Factored") -> "Factored":
        if not self:
            return other
        if not other:
            return self
        fa, fb = dict(self.factors), dict(other.factors)
        keys = set(fa) | set(fb)
        common = {p: min(fa.get(p, 0), fb.get(p, 0)) for p in keys}
        ra = Polynomial.product(p for p in keys for _ in range(fa.get(p, 0) - common[p]))
        rb = Polynomial.product(p for p in keys for _ in range(fb.get(p, 0) - common[p]))
        lcm = (self.coeff.denominator * other.coeff.denominator
               // math.gcd(self.coeff.denominator, other.coeff.denominator))
        s = ra.scale(int(self.coeff * lcm)) + rb.scale(int(other.coeff * lcm))
        if s.is_zero():
            return Factored.const(0)
        g, prim = _primitive(s)
        common[prim] = common.get(prim, 0) + 1
        return Factored.make(g / lcm, common)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Factored):
            return NotImplemented
        if not self or not other:
            return not self and not other
        # Cancel shared factors first, then expand only the leftover ratio.
        num, den = (self / other).expand()
        return num == den

    def expand(self) -> Tuple[Polynomial, Polynomial]:
        """(numerator, denominator): the positive and the negative powers of
        the factors, scaled by the coefficient's numerator and denominator.
        The pair has no common integer content and a positive denominator."""
        num = Polynomial.product(p for p, e in self.factors for _ in range(e))
        den = Polynomial.product(p for p, e in self.factors for _ in range(-e))
        return num.scale(self.coeff.numerator), den.scale(self.coeff.denominator)

    def render(self) -> str:
        num, den = self.expand()
        if den.is_one():
            return num.render()
        return f"({num.render()})/({den.render()})"

    def __str__(self) -> str:
        return self.render()


def parallel(a, b):
    """Parallel sum a ∥ b = 1/(1/a + 1/b) = ab/(a + b) of two Fraction, two
    Factored or two MaxPlus values, computed through reciprocals as
    (a ** -1 + b ** -1) ** -1.  A ``Fraction ** -1`` swaps numerator and
    denominator and needs no gcd, and a ``Factored ** -1`` negates its
    exponents, so the one addition is the only exact operation that
    normalises.  ``Factored.+`` extracts the same common factors from
    1/a + 1/b as from a + b, so the result has the coefficient and factors
    of ab/(a + b).

    Zero, false under ``bool``, absorbs: a ∥ 0 = 0 ∥ a = 0, as ab/(a + b)
    gives.  The sum is a pole when a + b = 0, both operands zero included;
    for nonzero operands that is exactly when 1/a + 1/b = 0."""
    zero = not a or not b
    s = a + b if zero else a ** -1 + b ** -1
    if not s:
        raise PoleEncountered("parallel sum pole: a + b = 0")
    return a * b if zero else s ** -1


_TERM_FACTOR = re.compile(r"^([Ax])\[(-?\d+),(-?\d+)\](?:\^(\d+))?$")


def _parse_poly(text: str) -> Polynomial:
    text = text.strip()
    if not text:
        raise ParseError("empty polynomial")
    # split on top-level " + " / " - "; polynomials contain no parentheses
    pieces: list = []
    for chunk in text.replace(" - ", " + -").split(" + "):
        pieces.append(chunk.strip())
    d: Dict[Monomial, int] = {}
    for piece in pieces:
        neg = piece.startswith("-")
        if neg:
            piece = piece[1:]
        coeff = 1
        pairs = []
        for factor in piece.split("*"):
            factor = factor.strip()
            if re.fullmatch(r"\d+", factor):
                coeff *= int(factor)
                continue
            m = _TERM_FACTOR.match(factor)
            if not m:
                raise ParseError(f"bad factor {factor!r}")
            ns, i, j, e = m.group(1), int(m.group(2)), int(m.group(3)), m.group(4)
            pairs.append((Var(ns, i, j), int(e) if e else 1))
        mon = monomial(pairs)
        d[mon] = d.get(mon, 0) + (-coeff if neg else coeff)
    return Polynomial.from_dict(d)


def parse_factored(text: str) -> Factored:
    """Parse the output of Factored.render back into a Factored."""
    text = text.strip()
    if text.startswith("(") and text.endswith(")") and ")/(" in text:
        num_s, den_s = text[1:-1].split(")/(", 1)
        try:
            return Factored.ratio(_parse_poly(num_s), _parse_poly(den_s))
        except ZeroDivisionError as e:
            raise ParseError(f"{text}: {e}")
    return Factored.ratio(_parse_poly(text), Polynomial.const(1))


def parse_rational(text: str) -> Fraction:
    """A rational as str(Fraction) writes it, such as "7/3" or "-2".  An
    exponent ("1e999999999") is refused, since Fraction would expand it in
    full, and str(Fraction) never writes one."""
    if "e" in text or "E" in text:
        raise ParseError(f"{text!r}: exponent notation is not accepted")
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as e:
        raise ParseError(str(e))
