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
factors syntactically, and equality tests the quotient of the two values
by whether its numerator minus its denominator is zero, which is exact.

A value renders as its expanded numerator, or as ``(numerator)/(denominator)``
when the denominator is not 1; the pair carries no common integer content
and the denominator's leading coefficient is positive.  Terms are ordered
by graded lexicographic order with variables ranked by ``(namespace, i, j)``.

Every monomial order is taken on monomials packed into single ints by
``_packing``: the degree, then one exponent field per variable, earlier
variables higher.  Descending packed order is descending graded
lexicographic order, so ``Polynomial.from_dict`` sorts its terms by the
packed int.  A key is summed from small per-variable shifts (``_key``);
no full-width int is kept per variable or per pair, so a packing over
tens of thousands of variables costs no more than its keys.

Every sum of products Σ c_i·Π_j p_ij runs in one kernel, ``_Rows``, behind
``Polynomial.combine``: ``*``, ``Polynomial.product`` (its one-group case),
``Factored.expand``, ``Factored.+`` (one combine of the two leftover
products, its content and sign taken as it is decoded), ``Factored.==`` (a
zero test on the rows of numerator minus denominator, which decodes
nothing) and ``Factored.render`` (text written from the decoded rows, by
the one term-text rule ``Polynomial.render`` uses too, so a value that is
only printed builds no ``(Var, exponent)`` tuples).  One packing covers
every operand, with one variable ``z`` made dense: a term's outer key is
its packed key with the exponent ``e`` of ``z`` moved into the field of a
partner variable ``y``, and its coefficient ``c`` is ``c << W*e`` in the
dense row, one big int per outer key.  ``W`` is one more than the bit
length of Σ|c_i|·Π_j |p_ij|_1, a bound on every result coefficient, so the
signed ``W``-bit fields of a row decode uniquely.  Multiplying two terms
is one int addition of outer keys and one int multiplication of rows.  On
homogeneous operands, which are all the toolkit builds, ``e_y + e_z`` is
fixed by the other exponents, so a row gathers every term that differs
only in how it splits that sum.  Terms are stored as tuples of
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
from typing import Dict, Iterable, List, NamedTuple, Tuple

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


def _packing(vs: Iterable[Var], bound: int) -> Tuple[int, List[Var], Dict[Var, int]]:
    """The packed-int key of monomials over the given variables: the field
    width ``w``, the variables in ``Var`` order, and the shift of each
    variable's field.  A monomial packs to its degree in the top field, at
    ``w * len(vs)``, then one field of ``w`` bits per variable, earlier
    variables higher (``_key``).  ``w`` is the bit length of ``bound``,
    which must bound every exponent the key is to hold, so no field carries
    and descending packed order is descending graded lexicographic order.
    Only the small shifts are kept, never a full-width int per variable."""
    vs = sorted(set(vs))
    w = bound.bit_length()
    return w, vs, {v: w * k for k, v in enumerate(reversed(vs))}


def _key(m: Monomial, shift: Dict[Var, int], top: int) -> int:
    """The packed key of m, summed field by field from the shifts."""
    key = deg = 0
    for v, e in m:
        key += e << shift[v]
        deg += e
    return key + (deg << top)


def _without_cyclic_gc(fn):
    """fn with the cyclic garbage collector off during each call and left as
    it was found afterwards, so nested calls are safe.  A large product
    builds millions of term tuples, and each full collection would walk
    every live one again."""
    @wraps(fn)
    def call(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
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


def _render_terms(terms: Iterable[Tuple[str, int]]) -> str:
    """The text of a polynomial from its (monomial text, coefficient) terms
    in order: each term's sign (none before a positive first term), then
    its absolute coefficient unless that is 1 and the monomial is not
    empty, then the monomial; "0" for no terms."""
    parts = []
    for mon, c in terms:
        a = -c if c < 0 else c
        parts += (" - " if c < 0 else " + ",
                  mon if a == 1 and mon else f"{a}*{mon}" if mon else str(a))
    if not parts:
        return "0"
    parts[0] = "-" if parts[0] == " - " else ""
    return "".join(parts)


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
        w, vs, shift = _packing(largest, sum(largest.values()))
        top = w * len(vs)
        items.sort(key=lambda t: _key(t[0], shift, top), reverse=True)
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
    def combine(groups: Iterable[Tuple[int, Iterable["Polynomial"]]]) -> "Polynomial":
        """Σ c·Π p over the groups (c, [p, ...]): one ``_Rows`` over every
        operand, decoded once."""
        return Polynomial(tuple(_Rows(groups).terms(_pair)[1]))

    @staticmethod
    @_without_cyclic_gc
    def product(polys: Iterable["Polynomial"]) -> "Polynomial":
        """Product of the given polynomials; 1 for none: the one-group
        ``combine``."""
        polys = list(polys)
        if len(polys) == 1:
            return polys[0]
        return Polynomial.combine([(1, polys)])

    def scale(self, c: int) -> "Polynomial":
        if c == 1:
            return self
        if c == 0:
            return Polynomial(())
        return Polynomial(tuple((m, k * c) for m, k in self.terms))

    def render(self) -> str:
        return _render_terms(("*".join(map(_PAIR_TEXT.__getitem__, m)), c)
                             for m, c in self.terms)

    def __str__(self) -> str:
        return self.render()


def _pair(v: Var, e: int) -> Tuple[Var, int]:
    return v, e


def _pair_text(v: Var, e: int) -> str:
    return _PAIR_TEXT[v, e]


class _Rows:
    """Σ c_i·Π_j p_ij over groups (c_i, [p_i1, p_i2, ...]) as the dense rows
    of one packing over every operand (module docstring), with fields as
    wide as the largest sum of one group's operand degrees, which bounds
    every exponent of every partial product.  ``z`` has the largest
    exponent among the operands' pairs and ``y`` the next, ties going to
    the earlier ``Var``; with no partner the degree field goes with ``z``
    instead, so a chain in one variable is a single row.  A group with a
    zero operand or a zero ``c_i`` adds nothing, and one with no operands
    adds the constant ``c_i``."""

    @_without_cyclic_gc
    def __init__(self, groups: Iterable[Tuple[int, Iterable[Polynomial]]]):
        # Largest operand first: `iterate --r 2 --s 2 --k 4` took 23-25 s this
        # way, 26-35 s with the operands as given and 41-44 s smallest first
        # (Python 3.11.7 on 2 CPUs).
        groups = [(c, sorted(ps, key=lambda p: len(p.terms), reverse=True))
                  for c, ps in groups]
        groups = [(c, ps) for c, ps in groups if c and all(p.terms for p in ps)]
        largest: Dict[Var, int] = {}
        for v, e in {pair for _, ps in groups for p in ps for m, _ in p.terms for pair in m}:
            if e > largest.get(v, 0):
                largest[v] = e
        # terms[0] is the leading term, so it has the operand's degree.
        w, vs, shift = _packing(largest, max(
            (sum(sum(e for _, e in p.terms[0][0]) for p in ps) for _, ps in groups), default=0))
        top = w * len(vs)
        z, y = (sorted(largest, key=lambda v: (-largest[v], v)) + [None, None])[:2]
        sz = shift[z] if z else 0
        sy = shift[y] if y else 0
        # outer key + e * dz is the packed key of the term with z^e.
        dz = (1 << sz) - (1 << sy) if y else (1 << sz) + (1 << top) if z else 0
        zmask = (1 << w) - 1 if z else 0
        W = 1 + sum(abs(c) * math.prod(sum(abs(k) for _, k in p.terms) for p in ps)
                    for c, ps in groups).bit_length()
        self.layout = w, vs, top, z, y, sz, sy, dz, W
        self.rows: Dict[int, int] = defaultdict(int)
        for c, ps in groups:
            acc = {0: c}
            for p in ps:
                rows: Dict[int, int] = defaultdict(int)
                for m, k in p.terms:
                    key = _key(m, shift, top)
                    e = key >> sz & zmask
                    rows[key - e * dz] += k << W * e
                out: Dict[int, int] = defaultdict(int)
                for a, ra in acc.items():
                    for b, rb in rows.items():
                        out[a + b] += ra * rb
                acc = out
            for a, ra in acc.items():
                self.rows[a] += ra

    def __bool__(self) -> bool:
        """False exactly when the sum is zero: each row's signed fields are
        below 2**(W-1) in size, so a row is 0 only when every one is 0."""
        return any(self.rows.values())

    @_without_cyclic_gc
    def terms(self, item, primitive: bool = False) -> Tuple[int, list]:
        """(g, terms): the nonzero terms in descending packed order, each
        ``(monomial, c // g)`` with the monomial a tuple of ``item(v, e)``
        per variable in ``Var`` order.  ``g`` is 1, or with ``primitive``
        the integer content signed as the leading coefficient.

        Each outer key is decoded once, its fields cached by (field index,
        exponent), and each row field by field (a negative field borrows
        from the one above); the terms are then sorted by their full packed
        key."""
        w, vs, top, z, y, sz, sy, dz, W = self.layout
        fields: Dict[Tuple[int, int], object] = {}

        def decode(rest: int) -> tuple:
            mon = []
            while rest:  # nonzero fields, highest (earliest variable) first
                f = (rest.bit_length() - 1) // w
                e = rest >> f * w
                it = fields.get((f, e))
                if it is None:
                    it = fields[f, e] = item(vs[-1 - f], e)
                mon.append(it)
                rest ^= e << f * w
            return tuple(mon)

        low, fmask = (1 << top) - 1, (1 << w) - 1
        mask, half, wrap = (1 << W) - 1, 1 << (W - 1), 1 << W
        # One-item tuples of z and y by exponent; () for exponent 0.
        zitem: Dict[int, tuple] = {0: ()}
        yitem: Dict[int, tuple] = {0: ()}
        # The earlier variable of z and y has the higher field.
        hi, lo = max(sz, sy), min(sz, sy)
        z_first = sz > sy
        found: Dict[int, Tuple[tuple, int]] = {}
        for outer, row in self.rows.items():
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
                    zt = zitem.get(e)
                    if zt is None:
                        zt = zitem[e] = (item(z, e),)
                    yt = yitem.get(s - e)
                    if yt is None:
                        yt = yitem[s - e] = (item(y, s - e),) if y else ()
                    if z_first:
                        found[full] = ((*head, *zt, *mid, *yt, *tail), c)
                    else:
                        found[full] = ((*head, *yt, *mid, *zt, *tail), c)
                    row -= c
                row >>= W
                e += 1
                full += dz
        out = list(map(found.__getitem__, sorted(found, reverse=True)))
        g = 1
        if primitive and out:
            g = math.gcd(*(c for _, c in out))
            if out[0][1] < 0:
                g = -g
            if g != 1:
                out = [(m, c // g) for m, c in out]
        return g, out

    def text(self) -> str:
        """The sum's text, written from the decoded terms."""
        return _render_terms(("*".join(m), c) for m, c in self.terms(_pair_text)[1])


def _primitive(p: Polynomial) -> Tuple[Fraction, Polynomial]:
    """Split off the integer content and sign so the leading coefficient of
    the remaining polynomial is positive."""
    if p.is_zero():
        return Fraction(0), Polynomial.const(1)
    g = math.gcd(*(c for _, c in p.terms))
    if p.terms[0][1] < 0:
        g = -g
    return Fraction(g), Polynomial(tuple((m, c // g) for m, c in p.terms))


def _powers(factors: Iterable[Tuple[Polynomial, int]], sign: int = 1) -> List[Polynomial]:
    """Each factor p repeated sign * e times, none for a count below 1."""
    return [p for p, e in factors for _ in range(sign * e)]


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
        common = {p: min(fa.get(p, 0), fb.get(p, 0)) for p in fa.keys() | fb.keys()}
        ca, cb = self.coeff, other.coeff
        lcm = math.lcm(ca.denominator, cb.denominator)
        s = _Rows([(ca.numerator * (lcm // ca.denominator),
                    _powers((p, fa.get(p, 0) - e) for p, e in common.items())),
                   (cb.numerator * (lcm // cb.denominator),
                    _powers((p, fb.get(p, 0) - e) for p, e in common.items()))])
        if not s:
            return Factored.const(0)
        g, terms = s.terms(_pair, primitive=True)
        prim = Polynomial(tuple(terms))
        common[prim] = common.get(prim, 0) + 1
        return Factored.make(Fraction(g, lcm), common)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Factored):
            return NotImplemented
        if not self or not other:
            return not self and not other
        # Cancel shared factors first, then test the leftover ratio's
        # numerator minus denominator for zero, decoding nothing.
        d = dict(self.factors)
        for p, e in other.factors:
            d[p] = d.get(p, 0) - e
        q = self.coeff / other.coeff
        return not _Rows([(q.numerator, _powers(d.items())),
                          (-q.denominator, _powers(d.items(), -1))])

    def expand(self) -> Tuple[Polynomial, Polynomial]:
        """(numerator, denominator): the positive and the negative powers of
        the factors, scaled by the coefficient's numerator and denominator.
        The pair has no common integer content and a positive denominator."""
        num = Polynomial.product(p for p, e in self.factors for _ in range(e))
        den = Polynomial.product(p for p, e in self.factors for _ in range(-e))
        return num.scale(self.coeff.numerator), den.scale(self.coeff.denominator)

    def render(self) -> str:
        """The expanded numerator, or ``(numerator)/(denominator)``, each
        written from its decoded rows."""
        num = _Rows([(self.coeff.numerator, _powers(self.factors))]).text()
        neg = _powers(self.factors, -1)
        if not neg and self.coeff.denominator == 1:
            return num
        return f"({num})/({_Rows([(self.coeff.denominator, neg)]).text()})"

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
