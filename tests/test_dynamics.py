"""Birational, piecewise-linear, and combinatorial toggle dynamics."""

import contextlib
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from birow.dynamics import (IDEAL_BUDGET, Labeling, MaxPlus, all_order_ideals,
                            generic_labeling, ideal_from_points, ideal_points,
                            iterate_birational, iterates, light_cone, orbit, orbits,
                            pair_iterates, pl_labeling, random_labeling, rowmotion_birational,
                            rowmotion_combinatorial, starts, toggle_birational, _ideal_count,
                            _lex_rank, _toggle_pairs, _toggle_runs)
from birow.errors import BudgetExceeded, OutOfRangeValue, ParseError, PoleEncountered
from birow.exactnum import Factored, parallel, xvar
from birow.grid_poset import RectPoset

W, X, Y, Z = (Factored.var(xvar(*p)) for p in [(0, 0), (1, 0), (0, 1), (1, 1)])
ONE = Factored.const(1)


def two_by_two_iterates():
    """The four symbolic rowmotion iterates on [0,1]x[0,1], written with
    w, x, y, z at bottom, left, right, top."""
    return [
        {(1, 1): (X + Y) / Z, (1, 0): (X + Y) * W / (X * Z),
         (0, 1): (X + Y) * W / (Y * Z), (0, 0): ONE / Z},
        {(1, 1): (X + Y) * W / (X * Y), (1, 0): ONE / Y,
         (0, 1): ONE / X, (0, 0): Z / (X + Y)},
        {(1, 1): ONE / W, (1, 0): Y * Z / ((X + Y) * W),
         (0, 1): X * Z / ((X + Y) * W), (0, 0): X * Y / ((X + Y) * W)},
        {(1, 1): Z, (1, 0): X, (0, 1): Y, (0, 0): W},
    ]


def _toggled(f):
    """Rowmotion as the composed toggles, the reference for every sweep."""
    for v in f.poset.linear_extension_desc():
        f = toggle_birational(f, v)
    return f


def _toggled_up(f):
    """The inverse of rowmotion as the toggles composed from bottom to top,
    the reference for the reversed sweep."""
    for v in reversed(f.poset.linear_extension_desc()):
        f = toggle_birational(f, v)
    return f


def _back(f):
    """The inverse of rowmotion, as the one step of iterates(f, 1, -1)."""
    return list(iterates(f, 1, -1))[1]


def _steps(step, f, n):
    """The values of n iterates of step from f, up to the first pole, and
    that pole's message (None if there is none)."""
    out = []
    try:
        for _ in range(n):
            f = step(f)
            out.append(f.values)
    except PoleEncountered as e:
        return out, str(e)
    return out, None


positive_fractions = st.builds(Fraction, st.integers(1, 10 ** 6), st.integers(1, 10 ** 6))


@st.composite
def positive_labelings(draw):
    poset = RectPoset(draw(st.integers(0, 4)), draw(st.integers(0, 4)))
    values = {p: draw(positive_fractions) for p in poset.members()}
    return Labeling(poset, values, draw(positive_fractions), draw(positive_fractions))


# Products of powers of 2, 3, 5 and 7: labels built from a few small primes
# share factors, so every cancel of the integer sweep divides on some start.
smooth_fractions = st.builds(
    lambda e: math.prod(Fraction(p) ** k for p, k in zip((2, 3, 5, 7), e)),
    st.tuples(*[st.integers(-4, 4)] * 4))


@st.composite
def smooth_labelings(draw):
    """A positive labeling on a grid up to 5x5 with smooth_fractions labels,
    its bottom and top labels other than 1."""
    poset = RectPoset(draw(st.integers(0, 5)), draw(st.integers(0, 5)))
    values = {p: draw(smooth_fractions) for p in poset.members()}
    ends = smooth_fractions.filter(lambda x: x != 1)
    return Labeling(poset, values, draw(ends), draw(ends))


class TestBirational:
    def test_two_by_two_symbolic_orbit(self):
        f = generic_labeling(RectPoset(1, 1))
        g = f
        for expected in two_by_two_iterates():
            g = rowmotion_birational(g)
            for p, want in expected.items():
                assert g.value(p) == want, p

    def test_two_by_two_at_a_rational_point(self):
        # x=2, y=3, z=5, w=7: one step gives 1 on top, 7/2 left, 7/3 right, 1/5 bottom
        poset = RectPoset(1, 1)
        f = Labeling(poset, {(0, 0): Fraction(7), (1, 0): Fraction(2),
                             (0, 1): Fraction(3), (1, 1): Fraction(5)},
                     Fraction(1), Fraction(1))
        g = rowmotion_birational(f)
        assert g.value((1, 1)) == 1
        assert g.value((1, 0)) == Fraction(7, 2)
        assert g.value((0, 1)) == Fraction(7, 3)
        assert g.value((0, 0)) == Fraction(1, 5)

    def test_single_element_period_two(self):
        f = generic_labeling(RectPoset(0, 0))
        g = rowmotion_birational(f)
        assert g.value((0, 0)) == Factored.var(xvar(0, 0)) ** -1
        assert rowmotion_birational(g).value((0, 0)) == Factored.var(xvar(0, 0))

    @given(st.tuples(st.integers(0, 2), st.integers(0, 2)), st.integers(0, 10))
    @settings(max_examples=20, deadline=None)
    def test_toggle_is_an_involution(self, rs, seed):
        poset = RectPoset(*rs)
        f = random_labeling(poset, random.Random(seed))
        for v in poset.members():
            g = toggle_birational(toggle_birational(f, v), v)
            assert g.values == f.values

    def test_iterate_composes(self):
        poset = RectPoset(2, 1)
        f = random_labeling(poset, random.Random(3))
        assert iterate_birational(f, 2).values == \
            rowmotion_birational(rowmotion_birational(f)).values

    def test_each_orbit_reader_takes_one_toggle_run(self, monkeypatch):
        runs, swept = [], []

        def counted_runs(f, parts):
            runs.append(f)
            return _toggle_runs(f, parts)

        def counted_pairs(num, den, plan):
            swept.append(len(plan))
            _toggle_pairs(num, den, plan)

        monkeypatch.setattr("birow.dynamics._toggle_runs", counted_runs)
        monkeypatch.setattr("birow.dynamics._toggle_pairs", counted_pairs)
        poset = RectPoset(2, 1)
        f = random_labeling(poset, random.Random(3))
        whole = len(poset.members())
        for step, toggle in ((1, _toggled), (-1, _toggled_up)):
            runs.clear()
            swept.clear()
            its = iterates(f, 5, step)
            got = [next(its)]
            assert got[0].values == f.values and len(runs) == 1 and swept == [0]
            for t in range(1, 6):
                got.append(next(its))
                # each next toggles the step it yields, and no further
                assert len(runs) == 1 and swept == [0] + [whole] * t
            assert list(its) == [] and len(runs) == 1
            assert [g.values for g in got[1:]] == [toggle(g).values for g in got[:-1]]
        for run in (lambda: iterate_birational(f, 5), lambda: list(pair_iterates(f, 5)),
                    lambda: list(pair_iterates(f, 5, -1))):
            runs.clear()
            swept.clear()
            run()
            assert len(runs) == 1 and swept == [0] + [whole] * 5

    @given(st.one_of(positive_labelings(), smooth_labelings()), st.data())
    @settings(max_examples=40, deadline=None)
    def test_one_run_of_k_rowmotions_is_the_composed_toggles_in_lowest_terms(self, f, data):
        # In one run a common factor may ride along for k steps; the last
        # lookup still reduces every label.
        k = data.draw(st.integers(0, 2 * (f.poset.r + f.poset.s + 2)))
        want = f
        for _ in range(k):
            want = _toggled(want)
        got = iterate_birational(f, k)
        assert (got.poset, got.bottom, got.top) == (f.poset, f.bottom, f.top)
        for p, x in got.values.items():
            assert type(x) is Fraction and x == want.value(p)
            assert math.gcd(x.numerator, x.denominator) == 1 and x.denominator > 0

    @given(positive_labelings(), st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_positive_sweep_matches_the_composed_toggles(self, f, n):
        got, _ = _steps(rowmotion_birational, f, n)
        want, _ = _steps(_toggled, f, n)
        assert got == want
        for g, h in zip(got, want):
            for p, x in g.items():
                assert type(x) is Fraction
                assert (x.numerator, x.denominator, hash(x)) == \
                    (h[p].numerator, h[p].denominator, hash(h[p]))

    @given(smooth_labelings())
    @settings(max_examples=40, deadline=None)
    def test_sweep_labels_are_the_toggles_in_lowest_terms(self, f):
        def check(got, want):
            for p, x in got.items():
                assert x == want[p]
                assert math.gcd(x.numerator, x.denominator) == 1 and x.denominator > 0

        period = f.poset.r + f.poset.s + 2
        ahead = [f]
        for _ in range(period):
            ahead.append(_toggled(ahead[-1]))
        g = f
        for want in ahead[1:]:
            g = rowmotion_birational(g)
            check(g.values, want.values)
        want = f
        for g in list(iterates(f, period, -1))[1:]:
            want = _toggled_up(want)
            check(g.values, want.values)
        steps = list(light_cone(f))
        assert len(steps) == period - 1
        for m, labels in enumerate(steps, 1):
            assert sorted(labels) == [p for p in sorted(f.values) if sum(p) == m - 1]
            check(labels, ahead[m].values)

    @given(st.one_of(positive_labelings(), smooth_labelings()), st.sampled_from([1, -1]),
           st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_sweep_pairs_are_the_toggles_by_cross_multiplying(self, f, step, periods):
        n = periods * (f.poset.r + f.poset.s + 2)
        toggle = _toggled if step > 0 else _toggled_up
        got = list(pair_iterates(f, n, step))
        assert len(got) == n + 1
        g = f
        for t, (num, den) in enumerate(got):
            if t:
                g = toggle(g)
            want = [g.value(p) for p in f.poset.members()]
            assert len(num) == len(den) == len(want)
            for x, d, y in zip(num, den, want):
                assert d > 0 and x * y.denominator == y.numerator * d

    def test_sweep_pairs_may_share_a_factor(self):
        # The sweep leaves (a, P) uncancelled: here rho f's label at (0, 1)
        # is 1486209490220 / 584280156383, both multiples of 7, and a read
        # label is in lowest terms again.
        f = random_labeling(RectPoset(1, 1), random.Random(1))
        num, den = list(pair_iterates(f, 1))[1]
        assert math.gcd(num[1], den[1]) == 7
        x = rowmotion_birational(f).value((0, 1))
        assert (x.numerator, x.denominator) == (num[1] // 7, den[1] // 7)

    def test_pairs_off_the_sweep_are_the_composed_toggles(self):
        # A negative label keeps the labeling off the sweep; its pairs are
        # those of the composed toggles' Fractions, forward and backward.
        poset = RectPoset(1, 1)
        f = Labeling(poset, {(0, 0): Fraction(-2), (0, 1): Fraction(3), (1, 0): Fraction(5, 7),
                             (1, 1): Fraction(1, 2)}, Fraction(1), Fraction(1))
        for step, toggle in [(1, _toggled), (-1, _toggled_up)]:
            g = f
            for t, pairs in enumerate(pair_iterates(f, 4, step)):
                if t:
                    g = toggle(g)
                xs = [g.value(p) for p in poset.members()]
                assert pairs == ([x.numerator for x in xs], [x.denominator for x in xs])

    def test_only_positive_fraction_labelings_skip_the_toggle(self, monkeypatch):
        toggles = []

        def counted(f, v):
            toggles.append(v)
            return toggle_birational(f, v)

        monkeypatch.setattr("birow.dynamics.toggle_birational", counted)
        poset = RectPoset(2, 1)
        f = random_labeling(poset, random.Random(3))
        down = poset.linear_extension_desc()
        for step, order in ((rowmotion_birational, down), (_back, down[::-1])):
            toggles.clear()
            step(f)
            assert toggles == []
            # a zero at the point toggled last is met only by the last toggle, a pole
            for g in (f.with_value((1, 0), Fraction(-2)), f.with_value(order[-1], Fraction(0)),
                      Labeling(poset, f.values, Fraction(1), Fraction(-1)),
                      Labeling(poset, {p: Factored.const(2) for p in poset.members()},
                               ONE, ONE),
                      pl_labeling(poset, {p: Fraction(1) for p in poset.members()})):
                toggles.clear()
                with contextlib.suppress(PoleEncountered):
                    step(g)
                assert toggles == order

    @given(positive_labelings(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_a_zero_or_negative_label_runs_the_composed_toggles(self, f, data):
        p = data.draw(st.sampled_from(sorted(f.values)))
        x = data.draw(st.sampled_from([Fraction(0), -f.values[p], Fraction(-1)]))
        g = f.with_value(p, x)
        n = data.draw(st.integers(1, 3))
        assert _steps(rowmotion_birational, g, n) == _steps(_toggled, g, n)

    @given(positive_labelings())
    @settings(max_examples=60, deadline=None)
    def test_inverse_sweep_undoes_rowmotion(self, f):
        back = _back(f)
        want = _toggled_up(f)
        assert (back.poset, back.bottom, back.top) == (f.poset, f.bottom, f.top)
        assert back.values == want.values
        for p, x in back.values.items():
            assert type(x) is Fraction
            assert (x.numerator, x.denominator) == \
                (want.values[p].numerator, want.values[p].denominator)
        assert _back(rowmotion_birational(f)).values == f.values
        assert rowmotion_birational(back).values == f.values

    def test_inverse_undoes_rowmotion_off_the_sweep(self):
        poset = RectPoset(2, 1)
        rng = random.Random(4)
        pl = pl_labeling(poset, {(i, j): Fraction(8 * (i + j) + rng.randint(0, 7), 32)
                                 for (i, j) in poset.members()})
        negative = random_labeling(poset, random.Random(3)).with_value((1, 0), Fraction(-2))
        for f in (generic_labeling(RectPoset(1, 1)), pl, negative):
            back = _back(f)
            assert back.values == _toggled_up(f).values
            assert _back(rowmotion_birational(f)).values == f.values
            assert rowmotion_birational(back).values == f.values
            # the inverse really moves f: rowmotion's period here is above 1
            assert back.values != f.values

    def test_max_plus_and_factored_run_the_composed_toggles(self):
        poset = RectPoset(2, 1)
        rng = random.Random(4)
        pl = pl_labeling(poset, {(i, j): Fraction(8 * (i + j) + rng.randint(0, 7), 32)
                                 for (i, j) in poset.members()})
        for f in (pl, generic_labeling(RectPoset(1, 1))):
            assert _steps(rowmotion_birational, f, 4) == _steps(_toggled, f, 4)

    def test_json_round_trip_both_modes(self):
        poset = RectPoset(1, 1)
        for f in (random_labeling(poset, random.Random(1)),
                  rowmotion_birational(generic_labeling(poset))):
            g = Labeling.from_json(f.to_json())
            assert g.poset == poset and g.mode == f.mode
            for p in poset.members():
                assert f.value(p) == g.value(p)


def _ranks_of_iterates(f):
    """For m = 1, ..., r+s+1, the labels of iterates(f, r+s+1)'s m-th
    labeling on rank m-1, up to the first pole, and that pole's message
    (None if there is none): the reference for light_cone."""
    out = []
    try:
        for m, g in enumerate(iterates(f, f.poset.r + f.poset.s + 1)):
            if m:
                out.append({p: x for p, x in g.values.items() if sum(p) == m - 1})
    except PoleEncountered as e:
        return out, str(e)
    return out, None


def _cone(f):
    """What light_cone yields, up to the first pole, and that pole's message."""
    out = []
    try:
        out.extend(light_cone(f))
    except PoleEncountered as e:
        return out, str(e)
    return out, None


def _cone_start(kind, r, s):
    """A start on the r x s grid of each kind that light_cone serves."""
    poset = RectPoset(r, s)
    f = random_labeling(poset, random.Random(10 * r + s))
    middle = (r // 2, s // 2)
    if kind == "positive":
        return f
    if kind == "zero":
        return f.with_value(middle, Fraction(0))
    if kind == "negative":
        return f.with_value(middle, -f.value(middle))
    if kind == "maxplus":
        rng = random.Random(r - s)
        return pl_labeling(poset, {(i, j): Fraction(4 * (i + j) + rng.randint(0, 3),
                                                    4 * (r + s + 1))
                                   for (i, j) in poset.members()})
    # Factored: the random constants, with the generic variable at the
    # bottom and top points.
    values = {p: Factored.const(x) for p, x in f.values.items()}
    for p in ((0, 0), (r, s)):
        values[p] = Factored.var(xvar(*p))
    return Labeling(poset, values, ONE, ONE)


class TestLightCone:
    @pytest.mark.parametrize("kind", ["positive", "zero", "negative", "maxplus", "factored"])
    @pytest.mark.parametrize("r, s", [(0, 0), (1, 0), (0, 3), (2, 1), (3, 3), (5, 2)])
    def test_each_step_yields_its_rank_of_the_iterates(self, kind, r, s):
        f = _cone_start(kind, r, s)
        want = _ranks_of_iterates(f)
        # A zero label is a pole at its first toggle, in the first step;
        # no other start meets a pole.
        if kind == "zero":
            assert want == ([], f"pole while toggling at {(r // 2, s // 2)}")
        else:
            assert want[1] is None and len(want[0]) == r + s + 1
        got = _cone(f)
        assert got == want
        for labels in got[0]:
            for p, x in labels.items():
                assert type(x) is type(f.value(p))

    def test_a_toggle_never_read_raises_no_pole(self):
        # With bottom label 0 the labels at (0, 0) and then at its upper
        # covers become 0, and toggling (0, 0) again is a pole: the parallel
        # sum 0 ∥ 0.  Rowmotion meets it in its second step; the light cone
        # never toggles (0, 0) again.
        poset = RectPoset(2, 1)
        f = random_labeling(poset, random.Random(3))
        f = Labeling(poset, f.values, Fraction(0), Fraction(1))
        want, pole = _ranks_of_iterates(f)
        assert len(want) == 1 and pole == "parallel sum pole: a + b = 0"
        got, none = _cone(f)
        assert none is None and got[:1] == want and len(got) == 4

    @pytest.mark.parametrize("r, s", [(2, 1), (0, 3)])
    def test_a_symbolic_start_toggles_each_point_rank_plus_one_times(self, monkeypatch, r, s):
        toggles = []

        def counted(f, v):
            toggles.append(v)
            return toggle_birational(f, v)

        monkeypatch.setattr("birow.dynamics.toggle_birational", counted)
        poset = RectPoset(r, s)
        steps = list(light_cone(generic_labeling(poset)))
        assert len(steps) == r + s + 1
        assert len(toggles) == sum(i + j + 1 for i, j in poset.members())

    def test_a_positive_start_sweeps_each_point_rank_plus_one_times(self, monkeypatch):
        swept = []

        def counted(num, den, plan):
            swept.extend(plan)
            _toggle_pairs(num, den, plan)

        monkeypatch.setattr("birow.dynamics._toggle_pairs", counted)
        monkeypatch.setattr("birow.dynamics.toggle_birational",
                            lambda f, v: pytest.fail("toggled"))
        poset = RectPoset(3, 2)
        assert len(list(light_cone(random_labeling(poset, random.Random(5))))) == 6
        assert len(swept) == sum(i + j + 1 for i, j in poset.members())


@st.composite
def any_labelings(draw):
    """A rational, max-plus or symbolic labeling with any bottom and top,
    the defaults among them."""
    poset = RectPoset(draw(st.integers(0, 3)), draw(st.integers(0, 3)))
    q = st.fractions(-20, 20, max_denominator=50)
    kind = draw(st.sampled_from(["rational", "pl", "symbolic"]))
    if kind == "symbolic":
        value = st.builds(lambda c, p, e: Factored.const(c) * Factored.var(xvar(*p)) ** e,
                          q.filter(bool), st.sampled_from(poset.members()),
                          st.integers(-2, 2))
        defaults = [ONE]
    elif kind == "pl":
        value = q.map(MaxPlus)
        defaults = [MaxPlus(Fraction(0)), MaxPlus(Fraction(1))]
    else:
        value, defaults = q, [Fraction(1)]
    values = {p: draw(value) for p in poset.members()}
    ends = st.one_of(st.sampled_from(defaults), value)
    return Labeling(poset, values, draw(ends), draw(ends))


def test_starts_draw_each_trial_from_one_seeded_stream():
    poset = RectPoset(2, 1)
    rng = random.Random(9)
    want = [random_labeling(poset, rng).values for _ in range(3)]
    assert [f.values for f in starts(poset, "rational", 3, 9)] == want
    assert want[0] != want[1]
    symbolic, = starts(poset, "symbolic", 3, 9)
    assert symbolic.values == generic_labeling(poset).values


class TestJson:
    @given(any_labelings())
    @settings(max_examples=150, deadline=None)
    def test_round_trip(self, f):
        data = f.to_json()
        g = Labeling.from_json(json.loads(json.dumps(data)))
        assert (g.poset, g.mode) == (f.poset, f.mode)
        for x, y in [(f.bottom, g.bottom), (f.top, g.top),
                     *((f.values[p], g.values[p]) for p in f.poset.members())]:
            assert type(x) is type(y) and x == y
        assert g.to_json() == data
        defaults = {"pl": (MaxPlus(Fraction(0)), MaxPlus(Fraction(1))),
                    "symbolic": (ONE, ONE)}.get(f.mode, (Fraction(1), Fraction(1)))
        for key, x, default in zip(("bottom", "top"), (f.bottom, f.top), defaults):
            assert (key in data) == (x != default)

    def test_defaults_are_left_out(self):
        poset = RectPoset(1, 1)
        f = pl_labeling(poset, {p: Fraction(1, 2) for p in poset.members()})
        assert f.to_json() == {"r": 1, "s": 1, "mode": "pl",
                               "labels": {k: "1/2" for k in ("0,0", "0,1", "1,0", "1,1")}}
        for f in (random_labeling(poset, random.Random(1)), generic_labeling(poset)):
            assert set(f.to_json()) == {"r", "s", "mode", "labels"}
        data = Labeling(poset, f.values, Factored.var(xvar(0, 0)), ONE).to_json()
        assert data["bottom"] == "x[0,0]" and "top" not in data

    @pytest.mark.parametrize("mode", ["rational", "pl"])
    @pytest.mark.parametrize("key", ["labels", "bottom", "top"])
    def test_an_exponent_is_refused_at_once(self, mode, key):
        # Fraction would expand 10^999999999 in full before any check.
        data = {"r": 0, "s": 0, "mode": mode, "labels": {"0,0": "1/2"}}
        data[key] = {"0,0": "1e999999999"} if key == "labels" else "1e999999999"
        with pytest.raises(ParseError, match="exponent notation"):
            Labeling.from_json(data)


class TestPiecewiseLinear:
    def test_rank_proportional_point_is_fixed(self):
        poset = RectPoset(2, 2)
        f = pl_labeling(poset, {(i, j): Fraction(i + j + 1, 6) for (i, j) in poset.members()})
        assert rowmotion_birational(f).values == f.values

    def test_rejects_out_of_range(self):
        poset = RectPoset(1, 1)
        with pytest.raises(OutOfRangeValue):
            pl_labeling(poset, {p: Fraction(2) for p in poset.members()})
        # in [0,1] but not order-preserving
        with pytest.raises(OutOfRangeValue):
            pl_labeling(poset, {(0, 0): Fraction(1), (0, 1): Fraction(0),
                                (1, 0): Fraction(0), (1, 1): Fraction(1)})
        # maps that miss points of the grid
        for partial in ({(0, 0): Fraction(1, 2)}, {(1, 1): Fraction(1, 2)}):
            with pytest.raises(OutOfRangeValue):
                pl_labeling(poset, partial)

    def test_toggle_involution_and_range(self):
        # order-preserving labelings stay order-preserving under PL toggles
        poset = RectPoset(2, 1)
        rng = random.Random(5)
        f = pl_labeling(poset, {(i, j): Fraction(8 * (i + j) + rng.randint(0, 7), 32)
                                for (i, j) in poset.members()})
        for v in poset.members():
            g = toggle_birational(f, v)
            assert 0 <= g.value(v).v <= 1
            assert toggle_birational(g, v).values == f.values

    def test_period_on_unit_square(self):
        poset = RectPoset(1, 1)
        f = pl_labeling(poset, {(0, 0): Fraction(1, 4), (1, 0): Fraction(1, 2),
                                (0, 1): Fraction(3, 4), (1, 1): Fraction(1)})
        g = f
        for _ in range(4):
            g = rowmotion_birational(g)
        assert g.values == f.values

    @given(st.fractions(-5, 5), st.fractions(-5, 5), st.integers(-3, 3))
    @settings(max_examples=50)
    def test_max_plus_power_and_parallel_sum(self, a, b, e):
        # MaxPlus(0) is the max-plus one, so it is neither a zero nor a pole
        assert MaxPlus(a) ** e == MaxPlus(a * e)
        assert parallel(MaxPlus(a), MaxPlus(b)) == MaxPlus(min(a, b))

    def test_max_plus_rowmotion_matches_a_plain_pl_toggle(self):
        rng = random.Random(2)
        for r in range(4):
            for s in range(4):
                poset = RectPoset(r, s)
                for _ in range(20):
                    x = _order_polytope_point(poset, rng)
                    g = rowmotion_birational(pl_labeling(poset, x))
                    assert {p: v.v for p, v in g.values.items()} == _pl_rowmotion(x), \
                        (r, s, x)


def _order_polytope_point(poset, rng):
    """An exact order-preserving labeling with values in [0,1], with ties
    and the ends 0 and 1 drawn often."""
    x = {}
    for (i, j) in sorted(poset.members(), key=sum):
        lo = max([x[w] for w in ((i - 1, j), (i, j - 1)) if w in x], default=Fraction(0))
        x[(i, j)] = lo + (1 - lo) * Fraction(rng.randint(0, 4), 4)
    return x


def _pl_rowmotion(x):
    """Piecewise-linear rowmotion written out directly: toggle each point
    from the top down to min(upper + [1]) + max(lower + [0]) - x."""
    x = dict(x)
    for (i, j) in sorted(x, key=sum, reverse=True):
        upper = [x[q] for q in ((i + 1, j), (i, j + 1)) if q in x] + [Fraction(1)]
        lower = [x[w] for w in ((i - 1, j), (i, j - 1)) if w in x] + [Fraction(0)]
        x[(i, j)] = min(upper) + max(lower) - x[(i, j)]
    return x


class TestCombinatorial:
    def test_ideal_validation(self):
        poset = RectPoset(2, 2)
        assert ideal_from_points(poset, frozenset({(0, 0), (1, 0), (0, 1)})) == (2, 1, 0)
        with pytest.raises(OutOfRangeValue):
            ideal_from_points(poset, frozenset({(1, 1)}))

    def test_ideal_counts_are_binomials(self):
        # ideals of [0,r]x[0,s] are counted by C(r+s+2, r+1)
        assert len(list(all_order_ideals(RectPoset(1, 1)))) == 6
        assert len(list(all_order_ideals(RectPoset(2, 2)))) == 20
        assert len(list(all_order_ideals(RectPoset(3, 2)))) == 35
        for r in range(8):
            for s in range(8):
                assert _ideal_count(RectPoset(r, s)) == math.comb(r + s + 2, r + 1), (r, s)

    def test_rowmotion_empty_ideal(self):
        # rowmotion of the empty ideal adds the minimal element
        poset = RectPoset(2, 2)
        empty = ideal_from_points(poset, frozenset())
        assert ideal_points(rowmotion_combinatorial(poset, empty)) == [[0, 0]]
        full = ideal_from_points(poset, frozenset(poset.members()))
        assert ideal_points(rowmotion_combinatorial(poset, full)) == []

    def test_orbit_structure_small_squares(self):
        for poset, want in [(RectPoset(1, 1), [2, 4]), (RectPoset(2, 2), [2, 6, 6, 6])]:
            assert sorted(len(orbit(poset, i)) for i in _orbit_reps(poset)) == want

    def test_orbits_partition_ideals(self):
        poset = RectPoset(2, 1)
        seen = set()
        for rep in _orbit_reps(poset):
            for ideal in orbit(poset, rep):
                assert ideal not in seen
                seen.add(ideal)
        assert len(seen) == len(list(all_order_ideals(poset)))

    def test_heights_match_pl_oracle_on_every_ideal(self):
        for r in range(5):
            for s in range(5):
                poset = RectPoset(r, s)
                for ideal in all_order_ideals(poset):
                    assert rowmotion_combinatorial(poset, ideal) == \
                        _rowmotion_via_pl(poset, ideal), (r, s, ideal)
                for orb in orbits(poset):
                    assert (r + s + 2) % len(orb) == 0, (r, s, orb[0])

    def test_orbits_match_the_set_based_partition(self):
        # Same orbits, in the same order, each from the same first ideal.
        for r in range(5):
            for s in range(5):
                poset = RectPoset(r, s)
                assert list(orbits(poset)) == _orbit_partition(poset), (r, s)

    def test_ranks_count_the_ideals_in_order(self):
        # The heights rise strictly in lexicographic order, and their ranks
        # run through 0, 1, ..., C(r+s+2, r+1) - 1 in turn.
        for r in range(6):
            for s in range(6):
                poset = RectPoset(r, s)
                heights = list(all_order_ideals(poset))
                assert heights == sorted(set(heights)), (r, s)
                rank = _lex_rank(poset)
                assert list(map(rank, heights)) == list(range(math.comb(r + s + 2, r + 1))), \
                    (r, s)

    def test_every_ideal_walked_is_weakly_decreasing_heights(self):
        # No ideal that all_order_ideals or rowmotion_combinatorial builds is
        # checked in the library, so the invariant is asserted here instead.
        def check(h, r, s):
            assert isinstance(h, tuple) and len(h) == r + 1, (r, s, h)
            assert all(0 <= x <= s + 1 for x in h), (r, s, h)
            assert all(a >= b for a, b in zip(h, h[1:])), (r, s, h)

        for r in range(6):
            for s in range(6):
                poset = RectPoset(r, s)
                for ideal in all_order_ideals(poset):
                    check(ideal, r, s)
                    check(rowmotion_combinatorial(poset, ideal), r, s)

    def test_points_and_heights_round_trip(self):
        poset = RectPoset(3, 2)
        for ideal in all_order_ideals(poset):
            points = ideal_points(ideal)
            assert points == sorted(points)
            assert ideal_from_points(poset, map(tuple, points)) == ideal
            assert sum(ideal) == len(points)

    def test_rejects_bad_points_with_messages(self):
        poset = RectPoset(2, 1)
        cases = [({(3, 0)}, r"^\(3,0\) outside the grid$"),
                 ({(0, 0), (0, -1)}, r"^\(0,-1\) outside the grid$"),
                 ({(1, 0)}, r"^not downward closed at \(0, 0\)$"),
                 ({(0, 0), (1, 0), (1, 1)}, r"^not downward closed at \(0, 1\)$")]
        for points, message in cases:
            with pytest.raises(OutOfRangeValue, match=message):
                ideal_from_points(poset, points)

    def test_ideal_budget_admits_12x12_and_counts_no_further(self):
        # 12x12's 10 400 600 ideals are admitted, counted with no walk; a
        # larger grid is refused before its marks are allocated, and the
        # count stops early, so a huge grid is refused at once.
        assert _ideal_count(RectPoset(12, 12)) == math.comb(26, 13) <= IDEAL_BUDGET
        for r, s in [(12, 13), (16, 16), (30, 30), (10 ** 6, 10 ** 6), (10 ** 6, 1)]:
            for refused in (_ideal_count, lambda poset: next(orbits(poset))):
                with pytest.raises(BudgetExceeded, match=f"IDEAL_BUDGET = {IDEAL_BUDGET}"):
                    refused(RectPoset(r, s))


def _orbit_partition(poset):
    """The rowmotion orbits through every ideal, found by a set of the
    heights seen, in order of each orbit's first ideal in all_order_ideals."""
    found, seen = [], set()
    for ideal in all_order_ideals(poset):
        if ideal not in seen:
            found.append(orbit(poset, ideal))
            seen.update(found[-1])
    return found


def _orbit_reps(poset):
    return [orb[0] for orb in _orbit_partition(poset)]


def _rowmotion_via_pl(poset, ideal):
    """Combinatorial rowmotion realized through the piecewise-linear map.

    The 0/1 labelings preserved by the piecewise-linear toggles are the
    order-preserving ones, i.e. indicators of order filters, so the ideal is
    carried through its complement."""
    members = {tuple(p) for p in ideal_points(ideal)}
    f = pl_labeling(poset, {p: Fraction(0 if p in members else 1) for p in poset.members()})
    g = rowmotion_birational(f)
    return ideal_from_points(poset, frozenset(p for p, v in g.values.items()
                                              if v == MaxPlus(Fraction(0))))
