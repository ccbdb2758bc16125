"""Exact arithmetic kernel: polynomials, factored symbolic values, parallel
sums, and parsing."""

import gc
import pickle
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from birow import exactnum
from birow.cli import _simple_x_form
from birow.dynamics import MaxPlus
from birow.errors import ParseError, PoleEncountered, UnboundVariable
from birow.exactnum import (Factored, Polynomial, Var, _primitive, avar, monomial,
                            parallel, parse_factored, parse_rational, xvar)
from birow.grid_poset import RectPoset

X = {p: Factored.var(xvar(*p)) for p in [(0, 0), (0, 1), (1, 0), (1, 1)]}
POINT = {xvar(0, 0): Fraction(7), xvar(0, 1): Fraction(3),
         xvar(1, 0): Fraction(2), xvar(1, 1): Fraction(5, 3)}

rationals = st.fractions(min_value=-50, max_value=50)
nonzero_rationals = rationals.filter(lambda q: q != 0)


def evaluate_poly(p, point):
    """Reference evaluation of a polynomial at a rational point, term by
    term.  Raises UnboundVariable for a missing variable."""
    total = Fraction(0)
    for m, c in p.terms:
        val = Fraction(c)
        for v, e in m:
            if v not in point:
                raise UnboundVariable(f"no value bound for {v.render()}")
            val *= Fraction(point[v]) ** e
        total += val
    return total


def evaluate(f, point):
    """Reference evaluation of a Factored value at a rational point, factor
    by factor.  Raises PoleEncountered on a vanishing denominator factor and
    UnboundVariable for a missing variable."""
    total = f.coeff
    for p, e in f.factors:
        v = evaluate_poly(p, point)
        if v == 0 and e < 0:
            raise PoleEncountered("denominator factor vanishes at evaluation point")
        total *= v ** e
    return total


def rand_pair(c):
    """Small dense (numerator, denominator) pair in two variables from a
    coefficient list."""
    num = (Polynomial.const(c[0]) + Polynomial.var(xvar(0, 0)).scale(c[1])
           + Polynomial.var(xvar(1, 1), 2).scale(c[2]))
    den = Polynomial.const(c[3]) + Polynomial.var(xvar(0, 0)).scale(c[4])
    if den.is_zero():
        den = Polynomial.const(1)
    return num, den


def rand_value(c):
    return Factored.ratio(*rand_pair(c))


coeff_lists = st.lists(st.integers(min_value=-9, max_value=9), min_size=5, max_size=5)

# Primitive polynomials with positive leading coefficients, shared between
# values so that addition finds common factors with mixed-sign exponents.
_px, _py, _pz = (Polynomial.var(xvar(*p)) for p in [(0, 0), (0, 1), (1, 1)])
FACTOR_POOL = [_px, _py, _pz, _px + _py, _px + _pz.scale(2), _py * _pz + _px.scale(3)]
factored_values = st.builds(
    lambda c, exps: Factored.make(c, dict(zip(FACTOR_POOL, exps))),
    nonzero_rationals,
    st.lists(st.integers(-2, 2), min_size=len(FACTOR_POOL), max_size=len(FACTOR_POOL)))

# Variables of both namespaces with negative indices, as on the lowered grids
# of the Plucker check; monomials are canonicalised by ``monomial``.
variables = st.builds(Var, st.sampled_from("Ax"), st.integers(-4, 3), st.integers(-4, 3))
monomials = st.lists(st.tuples(variables, st.integers(1, 4)), max_size=6).map(monomial)


def mon_cmp(m1, m2):
    """Reference graded lexicographic comparison, variables ordered by
    (ns, i, j): degree first, then the exponent of the smallest variable
    whose exponents differ."""
    d1, d2 = sum(e for _, e in m1), sum(e for _, e in m2)
    if d1 != d2:
        return -1 if d1 < d2 else 1
    e1, e2 = dict(m1), dict(m2)
    for v in sorted(set(e1) | set(e2)):
        a, b = e1.get(v, 0), e2.get(v, 0)
        if a != b:
            return 1 if a > b else -1
    return 0


def grlex_key(m):
    """Reference sort key for graded lexicographic order with variables
    ranked by (ns, i, j): the degree, then (-ord(ns), -i, -j, e) for each
    pair in ascending variable order.  A variable that comes earlier, or has
    a higher exponent, at the first pair where two monomials of one degree
    differ makes the larger key.  The oracle of the packed keys by which
    ``Polynomial.from_dict`` sorts."""
    key = [0]
    for (ns, i, j), e in m:
        key[0] += e
        key += (-ord(ns), -i, -j, e)
    return tuple(key)


def mon_mul(m1, m2):
    """Reference monomial product: one merge of the two sorted pair tuples.
    Exponents are positive, so no sum is 0 and no pair is dropped."""
    out = []
    i = j = 0
    while i < len(m1) and j < len(m2):
        (v1, e1), (v2, e2) = m1[i], m2[j]
        if v1 == v2:
            out.append((v1, e1 + e2))
            i += 1
            j += 1
        elif v1 < v2:
            out.append(m1[i])
            i += 1
        else:
            out.append(m2[j])
            j += 1
    return tuple(out) + m1[i:] + m2[j:]


def schoolbook_product(polys):
    """Reference product: every pair of terms through ``mon_mul``, one
    ``from_dict`` per operand."""
    out = Polynomial.const(1)
    for p in polys:
        d = {}
        for m1, c1 in out.terms:
            for m2, c2 in p.terms:
                m = mon_mul(m1, m2)
                d[m] = d.get(m, 0) + c1 * c2
        out = Polynomial.from_dict(d)
    return out


def schoolbook_combine(groups):
    """Reference sum of products: each group's ``schoolbook_product``
    scaled by its coefficient, summed term by term."""
    d = {}
    for c, ps in groups:
        for m, k in schoolbook_product(ps).terms:
            d[m] = d.get(m, 0) + c * k
    return Polynomial.from_dict(d)


def reference_text(p):
    """Reference polynomial text, written term by term: the sign (none
    before a positive first term), the absolute coefficient unless it is 1
    before a non-empty monomial, then each variable with its exponent."""
    out = []
    for n, (m, c) in enumerate(p.terms):
        sign = " - " if c < 0 else " + "
        out.append(sign.strip(" +") if n == 0 else sign)
        factors = [str(abs(c))] if abs(c) != 1 or not m else []
        factors += [f"{v.ns}[{v.i},{v.j}]" + (f"^{e}" if e > 1 else "") for v, e in m]
        out.append("*".join(factors))
    return "".join(out) or "0"


def reference_render(f):
    """Reference ``Factored.render``: the expanded pair through
    ``reference_text``, the denominator only when it is not 1."""
    num, den = f.expand()
    if den == Polynomial.const(1):
        return reference_text(num)
    return f"({reference_text(num)})/({reference_text(den)})"


# Small coefficients make cross terms cancel; coefficients up to 2**40 make
# the product kernel's dense fields wide.
coefficients = st.one_of(st.integers(-6, 6), st.integers(-2 ** 40, 2 ** 40))

# Sparse polynomials with exponents up to 20 over four variables of both
# namespaces, some with negative indices.  Operands share variables, so the
# exponents of a product of a few of them come near its field width.
few_variables = st.sampled_from([xvar(0, 0), xvar(-4, 3), avar(-1, -2), avar(3, 0)])
polynomials = st.dictionaries(
    st.lists(st.tuples(few_variables, st.integers(1, 20)), max_size=3).map(monomial),
    coefficients, max_size=4).map(Polynomial.from_dict)


@st.composite
def homogeneous_polynomials(draw):
    """A nonzero polynomial whose terms all have one degree, over three
    variables: the operands the product kernel packs most densely."""
    d = draw(st.integers(0, 8))
    a, b, c = xvar(0, 0), xvar(2, -1), avar(1, 1)
    terms = {}
    for _ in range(draw(st.integers(1, 6))):
        ea = draw(st.integers(0, d))
        eb = draw(st.integers(0, d - ea))
        terms[monomial([(a, ea), (b, eb), (c, d - ea - eb)])] = draw(
            coefficients.filter(bool))
    return Polynomial.from_dict(terms)


# Chains whose product has at most one variable: with no partner variable
# every term of a one-variable chain is in one dense row.
one_variable_chains = st.lists(st.dictionaries(
    st.integers(0, 12).map(lambda e: monomial([(avar(-2, 5), e)])),
    coefficients, max_size=5).map(Polynomial.from_dict), max_size=5)
constant_chains = st.lists(coefficients.map(Polynomial.const), max_size=5)


class TestPolynomial:
    def test_ring_basics(self):
        x, y = Polynomial.var(xvar(1, 0)), Polynomial.var(xvar(0, 1))
        assert (x + y) * (x + y.scale(-1)) == x * x + (y * y).scale(-1)
        assert Polynomial.product([x + y] * 2) == x * x + x * y.scale(2) + y * y
        assert (x + x.scale(-1)).is_zero()

    def test_render_sorted_graded(self):
        x, y = Polynomial.var(xvar(1, 0)), Polynomial.var(xvar(0, 1))
        p = Polynomial.const(1) + x * x + y
        assert str(p) == "x[1,0]^2 + x[0,1] + 1"

    def test_content_and_primitive_scale(self):
        x = Polynomial.var(xvar(1, 0))
        p = (x + Polynomial.const(2)).scale(6)
        assert _primitive(p) == (6, x + Polynomial.const(2))
        assert _primitive(p.scale(-1)) == (-6, x + Polynomial.const(2))

    def test_evaluate(self):
        x, y = Polynomial.var(xvar(1, 0)), Polynomial.var(xvar(0, 1))
        p = x * y + Polynomial.const(1)
        assert evaluate_poly(p, POINT) == 2 * 3 + 1

    @given(monomials, monomials)
    @settings(max_examples=200, deadline=None)
    def test_grlex_key_orders_as_mon_cmp(self, m1, m2):
        k1, k2 = grlex_key(m1), grlex_key(m2)
        assert ((k1 > k2) - (k1 < k2)) == mon_cmp(m1, m2)

    @given(st.dictionaries(
        st.lists(st.tuples(variables, st.integers(1, 20)), max_size=5).map(monomial),
        st.integers(-3, 3), max_size=8))
    # One variable carries every exponent, up to 15 = 2**4 - 1: the fields
    # are 4 bits wide and x[-4,3]'s field is full in the leading term.
    @example({((xvar(-4, 3), 15),): 1, ((xvar(-4, 3), 7),): -2, (): 3})
    @settings(max_examples=200, deadline=None)
    def test_from_dict_orders_as_grlex_key(self, d):
        want = sorted((m for m, c in d.items() if c), key=grlex_key, reverse=True)
        assert [m for m, _ in Polynomial.from_dict(d).terms] == want

    def test_from_dict_rejects_non_positive_exponents(self):
        with pytest.raises(ValueError, match="x\\[0,0\\]"):
            Polynomial.var(xvar(0, 0), -1)
        with pytest.raises(ValueError):
            Polynomial.from_dict({((avar(1, 2), 0),): 1})
        with pytest.raises(ValueError):
            Polynomial.from_dict({((avar(0, 0), 2),): 1, ((avar(0, 0), 1), (xvar(1, 1), -3)): 4})
        # A zero exponent drops out of a monomial before it can reach the guard.
        assert Polynomial.var(xvar(0, 0), 0) == Polynomial.const(1)

    @given(monomials, monomials)
    @settings(max_examples=100, deadline=None)
    def test_mon_mul_matches_monomial(self, m1, m2):
        assert mon_mul(m1, m2) == monomial(list(m1) + list(m2))

    @given(polynomials, polynomials, st.integers(-3, 3),
           st.lists(st.integers(0, 5), max_size=4))
    # Degrees summing to 63 = 2**6 - 1: every field is 6 bits wide, and the
    # exponent 63 of x[0,0] is the largest value a field holds.
    @example(Polynomial.var(xvar(0, 0), 21), Polynomial.var(avar(-4, 3), 20), 0, [0, 2, 0])
    # (x - y)^5 (x + y)^5 = (x^2 - y^2)^5: the signs alternate, so the
    # negative coefficients borrow from every higher slot of the dense row.
    @example(Polynomial.var(xvar(0, 0)), Polynomial.var(xvar(0, 1)), 0, [3] * 5 + [2] * 5)
    # (4x)^2 (-4): the L1 bound 64 = 2**6 is a power of two, and the
    # product's coefficient -64 reaches it.
    @example(Polynomial.var(xvar(0, 0)).scale(4), Polynomial(()), -4, [0, 0, 5])
    # (4x)^2: the positive coefficient 16 reaches the L1 bound 2**4.
    @example(Polynomial.var(xvar(0, 0)).scale(4), Polynomial(()), 0, [0, 0])
    @settings(max_examples=200, deadline=None)
    def test_product_matches_schoolbook(self, p, q, c, picks):
        # p + q and p - q (as p + q.scale(-1)) make cross terms cancel; 0 and
        # c are the zero and constant operands; picks may repeat an operand.
        pool = [p, q, p + q, p + q.scale(-1), Polynomial(()), Polynomial.const(c)]
        operands = [pool[i] for i in picks]
        assert Polynomial.product(operands) == schoolbook_product(operands)

    @given(st.one_of(st.lists(homogeneous_polynomials(), max_size=4),
                     one_variable_chains, constant_chains))
    @settings(max_examples=300, deadline=None)
    def test_chain_product_matches_schoolbook(self, operands):
        assert Polynomial.product(operands) == schoolbook_product(operands)

    def test_equal_polynomials_hash_equally(self):
        x, y = Polynomial.var(xvar(1, 0)), Polynomial.var(avar(0, 1))
        a = Polynomial.from_dict({((xvar(1, 0), 1),): 1, ((avar(0, 1), 1),): -1})
        b = (x + y) * (x + y.scale(-1)) + x * x.scale(-1) + y * y + x + y.scale(-1)
        assert a is not b and a == b
        assert hash(a) == hash(b)
        assert {a: 1}[b] == 1
        # The cached hash stays behind: another interpreter hashes str anew.
        c = pickle.loads(pickle.dumps(a))
        assert c == a and "_hash" not in vars(c) and hash(c) == hash(a)

    @pytest.mark.parametrize("enabled", [True, False])
    def test_product_leaves_the_garbage_collector_as_it_was(self, enabled):
        # Also through a nested product and one whose operands raise.
        x, y = Polynomial.var(xvar(1, 0)), Polynomial.var(avar(0, 1))
        seen = []

        def operands():
            seen.append(gc.isenabled())
            yield Polynomial.product([x + y, x])
            seen.append(gc.isenabled())
            yield x + y

        def failing():
            yield x
            raise RuntimeError("operand failure")

        was = gc.isenabled()
        try:
            (gc.enable if enabled else gc.disable)()
            assert Polynomial.product(operands()) == (x + y) * (x + y) * x
            assert seen == [False, False] and gc.isenabled() is enabled
            with pytest.raises(RuntimeError, match="operand failure"):
                Polynomial.product(failing())
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()

    @given(polynomials, polynomials,
           st.lists(st.tuples(coefficients, st.lists(st.integers(0, 5), max_size=3)),
                    max_size=4))
    # No groups; constant groups (no operands) that cancel.
    @example(Polynomial(()), Polynomial(()), [])
    @example(Polynomial(()), Polynomial(()), [(3, []), (-3, []), (5, [])])
    # (x + y) x - x x - y x = 0 with the groups' operands in other orders.
    @example(Polynomial.var(xvar(0, 0)), Polynomial.var(avar(3, 0)),
             [(1, [2, 0]), (-1, [0, 0]), (-1, [0, 1])])
    # A zero coefficient and a zero operand add nothing.
    @example(Polynomial.var(xvar(0, 0)), Polynomial.var(avar(3, 0)),
             [(0, [0]), (7, [1, 4]), (1, [1])])
    @settings(max_examples=200, deadline=None)
    def test_combine_matches_schoolbook(self, p, q, picks):
        pool = [p, q, p + q, p + q.scale(-1), Polynomial(()), Polynomial.const(3)]
        groups = [(c, [pool[i] for i in ps]) for c, ps in picks]
        want = schoolbook_combine(groups)
        assert Polynomial.combine(groups) == want
        # Each group against its own negation, operands reversed, is zero.
        assert Polynomial.combine(groups + [(-c, ps[::-1]) for c, ps in groups]).is_zero()
        assert Polynomial.combine(iter([(1, iter([want]))])) == want

    @given(polynomials)
    @settings(max_examples=100, deadline=None)
    def test_render_matches_reference(self, p):
        assert p.render() == reference_text(p)

    @given(polynomials, st.integers(0, 4))
    @settings(max_examples=100, deadline=None)
    def test_pow_is_repeated_product(self, p, e):
        want = Polynomial.const(1)
        for _ in range(e):
            want = want * p
        assert Polynomial.product([p] * e) == want == schoolbook_product([p] * e)
        assert Polynomial.product([p] * 0) == Polynomial.const(1)


class TestRatFn:
    """Factored values as rational functions: mathematical equality,
    powers, and evaluation."""

    def test_equality_cross_multiplication(self):
        x, y, minus = X[(1, 0)], X[(0, 1)], Factored.const(-1)
        a = (x * x + minus * y * y) / (x + y)
        assert a == x + minus * y
        assert a != x + y

    def test_inv_and_pow(self):
        x = X[(1, 0)]
        assert x ** -1 * x == Factored.const(1)
        assert x ** -2 * x ** 2 == Factored.const(1)
        with pytest.raises(ZeroDivisionError):
            Factored.const(0) ** -1

    @given(coeff_lists, coeff_lists)
    @settings(max_examples=50, deadline=None)
    def test_evaluate_is_a_homomorphism(self, ca, cb):
        (na, da), (nb, db) = rand_pair(ca), rand_pair(cb)
        pt = {xvar(0, 0): Fraction(3, 2), xvar(1, 1): Fraction(5)}
        assume(evaluate_poly(da, pt) != 0 and evaluate_poly(db, pt) != 0)
        a, b = Factored.ratio(na, da), Factored.ratio(nb, db)
        va, vb = evaluate(a, pt), evaluate(b, pt)
        assert evaluate(a + b, pt) == va + vb
        assert evaluate(a * b, pt) == va * vb

    @given(coeff_lists, coeff_lists, coeff_lists)
    @settings(max_examples=30, deadline=None)
    def test_ratfn_equal_is_an_equivalence(self, ca, cb, cc):
        a, b, c = rand_value(ca), rand_value(cb), rand_value(cc)
        assert a == a
        assert (a == b) == (b == a)
        if a == b and b == c:
            assert a == c

    def test_scalar_comparison_and_no_hash(self):
        zero = Factored.const(0)
        assert Factored.const(Fraction(2, 4)) == Factored.const(Fraction(1, 2))
        assert Factored.const(3) != Factored.const(2)
        assert X[(0, 0)] != zero and X[(0, 0)] + Factored.const(-1) * X[(0, 0)] == zero
        # A Factored equals only a Factored, as a MaxPlus equals only a MaxPlus.
        assert Factored.const(1) != 1 and Factored.const(1) != Fraction(1)
        with pytest.raises(TypeError):
            hash(X[(0, 0)])


class TestParallel:
    def test_single_step_formula(self):
        assert parallel(Fraction(1, 2), Fraction(1, 3)) == Fraction(1, 5)

    def test_symbolic_assoc_comm(self):
        a, b, c = X[(0, 0)], X[(0, 1)], X[(1, 0)]
        assert parallel(a, b) == parallel(b, a)
        assert parallel(parallel(a, b), c) == parallel(a, parallel(b, c))

    def test_self_parallel_halves(self):
        a = X[(1, 1)]
        assert parallel(a, a) == a / Factored.const(2)

    @given(nonzero_rationals, nonzero_rationals)
    @settings(max_examples=50)
    def test_rational_matches_definition(self, a, b):
        if a + b == 0:
            with pytest.raises(PoleEncountered):
                parallel(a, b)
        else:
            assert parallel(a, b) == 1 / (1 / a + 1 / b)

    def test_zero_absorbs(self):
        x = X[(0, 1)]
        zero = Factored.const(0)
        assert parallel(Fraction(0), Fraction(3, 2)) == 0
        assert parallel(Fraction(-2), Fraction(0)) == 0
        assert not parallel(zero, x) and not parallel(x, zero)

    def test_poles_keep_their_message(self):
        x, y, minus = X[(1, 0)], X[(0, 1)], Factored.const(-1)
        for a, b in [(Fraction(0), Fraction(0)), (Fraction(3, 2), Fraction(-3, 2)),
                     (Factored.const(0), Factored.const(0)), (x, minus * x),
                     (x / (x + y), minus * x / (y + x))]:
            with pytest.raises(PoleEncountered) as exc:
                parallel(a, b)
            assert str(exc.value) == "parallel sum pole: a + b = 0"

    @given(factored_values, factored_values)
    @settings(max_examples=100, deadline=None)
    def test_factored_representation_matches_quotient(self, a, b):
        """Through reciprocals, the parallel sum has the coefficient and the
        factors of ab/(a + b), so it renders the same."""
        if a + b == 0:
            with pytest.raises(PoleEncountered):
                parallel(a, b)
            return
        got, want = parallel(a, b), a * b / (a + b)
        assert (got.coeff, got.factors) == (want.coeff, want.factors)
        assert got.render() == want.render()

    def test_op_dispatch(self):
        # the same operator calls serve Fraction and Factored values alike
        x, y = X[(1, 0)], X[(0, 1)]
        qx, qy = POINT[xvar(1, 0)], POINT[xvar(0, 1)]
        ops = [lambda a, b: a + b, lambda a, b: a * b,
               lambda a, b: a / b, lambda a, b: a ** -2 * b, parallel]
        for op in ops:
            assert evaluate(op(x, y), POINT) == op(qx, qy)


# The value types of the protocol in the exactnum docstring: a strategy, the
# one, and the zero and minus one where the type has them (the max-plus
# semifield has neither).
VALUE_TYPES = {
    "Fraction": (rationals, Fraction(1), Fraction(0), Fraction(-1)),
    "Factored": (factored_values, Factored.const(1), Factored.const(0), Factored.const(-1)),
    "MaxPlus": (st.builds(MaxPlus, rationals), MaxPlus(Fraction(0)), None, None),
}


@pytest.mark.parametrize("kind", sorted(VALUE_TYPES))
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_value_protocol(kind, data):
    """Each value type is a commutative semifield under the toggle's
    operators, with ZeroDivisionError for a zero divisor, the parallel sum
    ab/(a + b) with a pole exactly where a + b == 0, and no subtraction."""
    values, one, zero, minus = VALUE_TYPES[kind]
    assert not zero and bool(one)  # MaxPlus has no zero (None), and its one is true
    if zero is not None:
        values = st.one_of(st.just(zero), values)
    a, b, c = (data.draw(values) for _ in range(3))
    if minus is not None and data.draw(st.booleans()):
        b = minus * a  # an opposite pair, a + b == 0
    assert a + b == b + a and a * b == b * a
    assert (a + b) + c == a + (b + c) and (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    if not b:
        with pytest.raises(ZeroDivisionError):
            a / b
        with pytest.raises(ZeroDivisionError):
            b ** -1
    else:
        assert (a / b) * b == a
        assert b ** -1 * b == one
    if not a + b:  # never for MaxPlus: it has no zero
        assert zero is not None
        for x, y in [(a, b), (b, a)]:
            with pytest.raises(PoleEncountered):
                parallel(x, y)
    else:
        assert parallel(a, b) == parallel(b, a)
        assert parallel(a, b) * (a + b) == a * b
    if zero is not None:
        assert a * zero == zero and zero * a == zero
        if a:
            assert parallel(a, zero) == zero and parallel(zero, a) == zero
    if kind != "Fraction":
        for x, y in [(a, b), (Polynomial.const(1), Polynomial.var(xvar(0, 0)))]:
            with pytest.raises(TypeError):
                x - y
            with pytest.raises(TypeError):
                -x


class TestFactored:
    def test_round_trip_through_pair(self):
        x, y = X[(1, 0)], X[(0, 1)]
        f = (x + y) / (x * y)
        num, den = f.expand()
        px, py = Polynomial.var(xvar(1, 0)), Polynomial.var(xvar(0, 1))
        assert (num, den) == (px + py, px * py)
        assert Factored.ratio(num, den) == f

    def test_division_cancels_syntactically(self):
        a = Factored.var(xvar(1, 0)) + Factored.var(xvar(0, 1))
        q = (a * Factored.var(xvar(0, 0))) / a
        assert q.factors == Factored.var(xvar(0, 0)).factors

    def test_addition_extracts_common_factors(self):
        x, y, z = (Factored.var(xvar(*p)) for p in [(1, 0), (0, 1), (1, 1)])
        s = x * z + y * z
        # z must survive as an intact factor, not get expanded into the sum
        polys = {p for p, _ in s.factors}
        assert Polynomial.var(xvar(1, 1)) in polys
        assert s == (X[(1, 0)] + X[(0, 1)]) * X[(1, 1)]

    def test_negative_exponents_in_common(self):
        x, y, z = (Factored.var(xvar(*p)) for p in [(1, 0), (0, 1), (1, 1)])
        s = x / z + y / z
        assert s == (X[(1, 0)] + X[(0, 1)]) / X[(1, 1)]

    @given(coeff_lists, coeff_lists)
    @settings(max_examples=50, deadline=None)
    def test_field_ops_match_polynomial_pair_oracle(self, ca, cb):
        """+, * and / against fractions of polynomial pairs combined here by
        cross multiplication, compared by cross multiplication."""
        (na, da), (nb, db) = rand_pair(ca), rand_pair(cb)
        fa, fb = Factored.ratio(na, da), Factored.ratio(nb, db)
        cases = [(fa + fb, na * db + nb * da, da * db),
                 (fa * fb, na * nb, da * db)]
        if not nb.is_zero():
            cases.append((fa / fb, na * db, da * nb))
        for got, num, den in cases:
            gn, gd = got.expand()
            assert gn * den == num * gd

    def test_zero_and_coefficients(self):
        x = Factored.var(xvar(0, 0))
        zero = x + Factored.const(-1) * x
        assert not zero
        half = Factored.const(Fraction(1, 2))
        assert half + half == Factored.const(1)
        with pytest.raises(ZeroDivisionError):
            zero ** -1

    def test_evaluate(self):
        x, y = Factored.var(xvar(1, 0)), Factored.var(xvar(0, 1))
        v = (x + y) / (x * y)
        assert evaluate(v, POINT) == Fraction(5, 6)

    def test_equality_up_to_content(self):
        px, py = Polynomial.var(xvar(1, 0)), Polynomial.var(xvar(0, 1))
        x, y = X[(1, 0)], X[(0, 1)]
        # The same value with its content in the coefficient and in the
        # expanded factors: (6x + 6y)/(4x) = 3/2 (x + y)/x.
        a = Factored.ratio((px + py).scale(6), px.scale(4))
        b = Factored.const(Fraction(3, 2)) * (x + y) / x
        assert a == b and b == a
        # (x^2 - y^2)/(x - y), expanded, is x + y, factored.
        c = Factored.ratio(px * px + (py * py).scale(-1), px + py.scale(-1))
        assert c == x + y
        # Equal up to content only: the polynomials agree, the values do not.
        for k in (2, -1, Fraction(1, 3)):
            assert not a == b * Factored.const(k)
            assert not c == (x + y) * Factored.const(k)
        assert not a == Factored.const(0) and not Factored.const(0) == a
        assert Factored.const(0) == x + Factored.const(-1) * x

    @given(factored_values, factored_values, nonzero_rationals)
    @settings(max_examples=100, deadline=None)
    def test_equality_matches_cross_multiplication(self, a, b, q):
        (na, da), (nb, db) = a.expand(), b.expand()
        assert (a == b) == (na * db == nb * da)
        assert (a == a * Factored.const(q)) == (q == 1)

    @given(st.one_of(factored_values, st.just(Factored.const(0)),
                     nonzero_rationals.map(Factored.const)))
    @example(Factored.make(Fraction(-3, 4), {FACTOR_POOL[3]: 2, FACTOR_POOL[5]: -1}))
    @settings(max_examples=200, deadline=None)
    def test_render_matches_reference(self, f):
        assert f.render() == reference_render(f)

    def test_sum_equality_and_render_stay_on_packed_rows(self, monkeypatch):
        x, y, z = X[(1, 0)], X[(0, 1)], X[(1, 1)]
        a = (x + y) * (x + z) / (y + z)
        b = Factored.const(Fraction(2, 3)) * (x + z) * (z + y) / x

        def refuse(*args):
            raise AssertionError("tuple path taken")

        monkeypatch.setattr(Polynomial, "__add__", refuse)
        monkeypatch.setattr(Polynomial, "scale", refuse)
        monkeypatch.setattr(Polynomial, "from_dict", staticmethod(refuse))
        monkeypatch.setattr(exactnum, "_primitive", refuse)
        s, t = a + b, b + a
        monkeypatch.undo()
        want = reference_render(s)
        # render and == build no (Var, exponent) pair.
        monkeypatch.setattr(exactnum, "_pair", refuse)
        assert s == t and not s == a and not a == b
        assert s.render() == want

    def test_simple_x_form_finds_a_variable_or_its_reciprocal(self):
        poset = RectPoset(1, 1)
        px, py = Polynomial.var(xvar(1, 0)), Polynomial.var(xvar(0, 1))
        s = px + py
        # x (x + y)/(x + y) and (x + y)/(x (x + y)), unreduced.
        bare = _simple_x_form(Factored.ratio(s * px, s), poset)
        assert bare.render() == "x[1,0]" and bare.factors == X[(1, 0)].factors
        recip = _simple_x_form(Factored.ratio(s, s * px), poset)
        assert recip.render() == "(1)/(x[1,0])" and recip == X[(1, 0)] ** -1
        # Equal term counts but no variable; 2x; unequal term counts.
        for fn in (Factored.ratio(s, px + py.scale(2)), Factored.ratio((s * px).scale(2), s),
                   Factored.ratio(s * s, s * px)):
            assert _simple_x_form(fn, poset) is fn


class TestParsing:
    def test_ratfn_round_trip(self):
        f = (X[(1, 0)] + X[(0, 1)]) / (X[(1, 1)] * X[(0, 0)])
        assert parse_factored(f.render()) == f

    def test_polynomial_and_avars(self):
        text = "A[1,2] + A[2,1] + A[3,0]"
        p = parse_factored(text)
        expect = Factored.var(avar(1, 2)) + Factored.var(avar(2, 1)) + Factored.var(avar(3, 0))
        assert p == expect
        assert p.render() == text

    def test_rational(self):
        assert parse_rational("7/3") == Fraction(7, 3)
        assert parse_rational(" -2 ") == Fraction(-2)
        for text in ("x", "1e999999999", "2E5", "1/1e9"):
            with pytest.raises(ParseError):
                parse_rational(text)
        with pytest.raises(ParseError):
            parse_factored("1 +")

    @given(coeff_lists)
    @settings(max_examples=30, deadline=None)
    def test_render_parse_round_trip(self, c):
        f = rand_value(c)
        assert parse_factored(f.render()) == f
