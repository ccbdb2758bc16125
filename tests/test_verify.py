"""The verification layer: reports, mode selection, and each identity check
on grids small enough for fast runs."""

import io
import json
import math
import os
import subprocess
import sys
import textwrap
import time
import tracemalloc
from collections import Counter
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import birow
from birow import verify
from birow.avar import x_to_A
from birow.cli import main
from birow.closed_form import IterateQuery, m_value, rho_closed, rho_closed_phi
from birow.dynamics import Labeling, all_order_ideals, generic_labeling, ideal_points, starts
from birow.errors import PoleEncountered, PreconditionViolated
from birow.exactnum import Polynomial, avar, xvar
from birow.grid_poset import RectPoset
from birow.report import Report
from birow.verify import (_file_counts, _plain_tree_product, _tree_product, auto_mode,
                          check_antipodal_product, check_combinatorial_homomesy,
                          check_file_homomesy,
                          check_file_ledger, check_main_formula,
                          check_periodicity, check_reciprocity)
from test_exactnum import evaluate


def test_auto_mode_cutoff():
    assert auto_mode(1, 1) == "symbolic"
    assert auto_mode(2, 1) == "symbolic"
    assert auto_mode(2, 2) == "rational"
    assert auto_mode(5, 0) == "symbolic"


def test_report_json_shape():
    rep = check_periodicity(1, 1)
    data = rep.to_json()
    assert set(data) >= {"name", "passed", "seed", "trials", "witnesses"}
    assert data["passed"] is True and data["witnesses"] == []


class TestPeriodicity:
    def test_symbolic_small(self):
        rep = check_periodicity(1, 1)
        assert rep.passed
        assert rep.notes["observed_minimal_periods"] == [4]

    def test_symbolic_single_point(self):
        rep = check_periodicity(0, 0)
        assert rep.passed
        assert rep.notes["observed_minimal_periods"] == [2]

    def test_rational_larger(self):
        rep = check_periodicity(3, 2, mode="rational", trials=4, seed=7)
        assert rep.passed and rep.trials == 4
        assert rep.notes["observed_minimal_periods"] == [7, 7, 7, 7]


def _sequential_periodicity(r, s, mode, trials, seed):
    """check_periodicity as one forward loop over each orbit, the reference
    for the split into two half-orbits."""
    period = r + s + 2
    rep = Report(name=f"periodicity r={r} s={s} mode={mode}", seed=seed)
    rep.notes["expected_period"] = period
    minimal = []
    for f in starts(RectPoset(r, s), mode, trials, seed):
        first = next((step for step, g in enumerate(birow.verify.iterates(f, period))
                      if step and g.values == f.values), None)
        minimal.append(first)
        rep.trials += 1
        if first is None or period % first:
            rep.fail({"input": f.to_json(), "observed": first, "expected": period})
    rep.notes["observed_minimal_periods"] = minimal
    return rep


def _cycle(c, step):
    """A fake rowmotion (step 1) or its inverse (step -1) that moves the
    label x at (0, 0) around a cycle of length c: the cycle through x is
    x - k, ..., x - k + c - 1 with k = floor(x) mod c."""
    def move(f):
        x = f.value((0, 0))
        k = math.floor(x) % c
        return f.with_value((0, 0), x + step if 0 <= k + step < c else x - step * (c - 1))
    return move


def _cone(move):
    """light_cone for a fake rowmotion move: the labels of move^m f on rank
    m-1, for m = 1, ..., r+s+1."""
    def cone(f):
        for m in range(1, f.poset.r + f.poset.s + 2):
            f = move(f)
            yield {p: f.value(p) for p in f.poset.members() if sum(p) == m - 1}
    return cone


def _run(move, inverse):
    """iterates for a fake rowmotion move (step 1) and its inverse (step
    -1): f and the n labelings stepped from it."""
    def run(f, n, step=1):
        yield f
        for _ in range(n):
            f = (move if step > 0 else inverse)(f)
            yield f
    return run


def _pair_run(move, inverse):
    """pair_iterates for a fake rowmotion move (step 1) and its inverse
    (step -1): the labels of f and of n steps from it, as numerators and
    denominators in members() order."""
    def run(f, n, step=1):
        for g in _run(move, inverse)(f, n, step):
            xs = [g.value(p) for p in g.poset.members()]
            yield [x.numerator for x in xs], [x.denominator for x in xs]
    return run


def _fake_rowmotion(mp, move, inverse=None):
    """Replace rowmotion by move and its inverse by inverse (by move when
    none is given) in each orbit reader of verify, which the references
    read too: the labelings of iterates, the light cone that reciprocity
    reads, and the pairs that periodicity, the period products and the
    main formula read."""
    inverse = inverse or move
    mp.setattr("birow.verify.iterates", _run(move, inverse))
    mp.setattr("birow.verify.light_cone", _cone(move))
    mp.setattr("birow.verify.pair_iterates", _pair_run(move, inverse))


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _refuse_fork():
    raise OSError("fork refused")


# os.fork as it is, missing (as on Windows), and failing as it does when no
# process can be started.
_FORK_STATES = {"present": lambda mp: None,
                "missing": lambda mp: mp.delattr(os, "fork"),
                "raising": lambda mp: mp.setattr(os, "fork", _refuse_fork)}


def _matches_in_every_fork_state(monkeypatch, want, run):
    """run() returns want with os.fork present, missing and failing, and
    leaves no child behind."""
    for state, set_fork in _FORK_STATES.items():
        with monkeypatch.context() as mp:
            set_fork(mp)
            got = run()
        assert got == want, state
        _no_child_left()


def _json(reps):
    return [rep.to_json() for rep in reps]


class TestPeriodicitySplit:
    """P = r+s+2 and h = ceil(P/2): cycles of length 1, h, P, between h and
    P, and above P, with os.fork present, missing and failing."""

    @pytest.mark.parametrize("r, s, c", [(1, 1, 1), (1, 1, 2), (1, 1, 3), (1, 1, 4),
                                         (1, 1, 5), (1, 1, 8), (2, 1, 1), (2, 1, 3),
                                         (2, 1, 4), (2, 1, 5), (2, 1, 7), (3, 3, 6)])
    def test_fake_cycles_match_the_sequential_loop(self, monkeypatch, r, s, c):
        _fake_rowmotion(monkeypatch, _cycle(c, 1), _cycle(c, -1))
        want = _sequential_periodicity(r, s, "rational", 3, 4).to_json()
        period = r + s + 2
        assert want["notes"]["observed_minimal_periods"] == \
            [c if c <= period else None] * 3
        _matches_in_every_fork_state(
            monkeypatch, want,
            lambda: check_periodicity(r, s, mode="rational", trials=3, seed=4).to_json())

    @pytest.mark.parametrize("r, s, mode, trials", [(0, 0, "symbolic", 1),
                                                    (2, 1, "symbolic", 1),
                                                    (3, 2, "rational", 3),
                                                    (4, 4, "rational", 2)])
    def test_rowmotion_matches_the_sequential_loop(self, monkeypatch, r, s, mode, trials):
        want = _sequential_periodicity(r, s, mode, trials, 2).to_json()
        assert want["passed"]
        _matches_in_every_fork_state(
            monkeypatch, want,
            lambda: check_periodicity(r, s, mode=mode, trials=trials, seed=2).to_json())

    def test_a_child_that_stops_is_replaced_here(self, monkeypatch, capfd):
        # The child raises after the first start's half-orbit, silently; the
        # parent computes the other ends itself.
        parent, calls = os.getpid(), []

        def inverse(f):
            if os.getpid() != parent:
                calls.append(f)
                if len(calls) > 2:
                    raise RuntimeError("child failure")
            return _cycle(4, -1)(f)

        _fake_rowmotion(monkeypatch, _cycle(4, 1), inverse)
        rep = check_periodicity(1, 1, mode="rational", trials=3, seed=4)
        assert rep.to_json() == _sequential_periodicity(1, 1, "rational", 3, 4).to_json()
        assert rep.passed and capfd.readouterr() == ("", "")
        _no_child_left()


    def test_the_child_is_killed_when_this_half_raises(self, monkeypatch):
        def stuck(f):
            time.sleep(20)
            return f

        def pole(f):
            raise PoleEncountered("pole in the forward half")

        _fake_rowmotion(monkeypatch, pole, stuck)
        t0 = time.monotonic()
        with pytest.raises(PoleEncountered, match="forward half"):
            check_periodicity(3, 3, mode="rational", trials=2, seed=1)
        _no_child_left()
        assert time.monotonic() - t0 < 10

    def test_the_child_flushes_nothing_and_runs_no_exit_handler(self):
        # With stdout a block-buffered pipe, a child that unwound or exited
        # normally would print the buffered line and the handler's line again.
        code = textwrap.dedent("""
            import atexit
            from birow.verify import check_periodicity
            atexit.register(print, "exit handler")
            print("buffered")
            print(check_periodicity(2, 2, mode="rational", trials=2, seed=1).passed)
        """)
        env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
        env["PYTHONPATH"] = str(Path(birow.__file__).parents[1])
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=120)
        assert (out.returncode, out.stdout, out.stderr) == \
            (0, "buffered\nTrue\nexit handler\n", "")


def _window(f):
    """The iterates rho^-(P-h) f, ..., rho^(h-1) f of one full period, with
    P = r+s+2 and h = ceil(P/2), as one forward loop."""
    period = f.poset.r + f.poset.s + 2
    *_, f = birow.verify.iterates(f, period - (period + 1) // 2, -1)
    return birow.verify.iterates(f, period - 1)


def _sequential_antipodal(r, s, seed):
    """check_antipodal_product as one loop over its window, forming each
    pair's product."""
    poset = RectPoset(r, s)
    rep = Report(name=f"antipodal-product r={r} s={s}", seed=seed, trials=1)
    f, = starts(poset, "rational", 1, seed)
    prods = {p: Fraction(1) for p in poset.members()}
    for g in _window(f):
        for p in poset.members():
            prods[p] *= g.value(p)
    for (i, j) in poset.members():
        pair = prods[(i, j)] * prods[(r - i, s - j)]
        if pair != 1:
            rep.fail({"input": f.to_json(), "point": [i, j],
                      "observed": str(pair), "expected": "1"})
    return rep


def _sequential_file_homomesy(r, s, files, seed):
    """Rational check_file_homomesy as one loop over its window per file."""
    poset = RectPoset(r, s)
    f, = starts(poset, "rational", 1, seed)
    reps = []
    for t in files:
        info = poset.file_by_offset(t)
        rep = Report(name=f"file-homomesy r={r} s={s} file={t} mode=rational", seed=seed,
                     trials=1, notes={"case": info.case, "d": info.d,
                                      "points": [list(p) for p in info.points]})
        prod = math.prod((g.value(p) for g in _window(f) for p in info.points), start=Fraction(1))
        if prod != 1:
            rep.fail({"input": f.to_json(), "observed": str(prod), "expected": "1"})
        reps.append(rep)
    return reps


def _sequential_reciprocity(r, s, mode, trials, seed):
    """check_reciprocity as one loop over its starts in order."""
    poset = RectPoset(r, s)
    rep = Report(name=f"reciprocity r={r} s={s} mode={mode}", seed=seed)
    for f in starts(poset, mode, trials, seed):
        its = list(birow.verify.iterates(f, r + s + 1))
        rep.trials += 1
        for (i, j) in poset.members():
            got, want = its[i + j + 1].value((i, j)), f.value((r - i, s - j)) ** -1
            if got != want:
                rep.fail({"input": f.to_json(), "point": [i, j],
                          "observed": str(got), "expected": str(want)})
    return rep


# Each check that shares its work with a child, and its sequential reference,
# on an r x s grid from seed 4.
_SPLIT_CHECKS = {
    "antipodal": (lambda r, s: check_antipodal_product(r, s, seed=4).to_json(),
                  lambda r, s: _sequential_antipodal(r, s, 4).to_json()),
    "file-homomesy": (
        lambda r, s: _json(check_file_homomesy(r, s, range(-r, s + 1), mode="rational", seed=4)),
        lambda r, s: _json(_sequential_file_homomesy(r, s, range(-r, s + 1), 4))),
    "reciprocity": (
        lambda r, s: check_reciprocity(r, s, mode="rational", trials=5, seed=4).to_json(),
        lambda r, s: _sequential_reciprocity(r, s, "rational", 5, 4).to_json()),
}


class TestOrbitSplit:
    """The antipodal product and rational file homomesy over the window
    rho^-(P-h) f, ..., rho^(h-1) f, and reciprocity over its starts in
    order, each against one sequential loop, with os.fork present, missing
    and failing."""

    @pytest.mark.parametrize("check", list(_SPLIT_CHECKS))
    @pytest.mark.parametrize("r, s, c", [(1, 1, 3), (1, 1, 8), (2, 1, 3), (2, 1, 4),
                                         (2, 2, 4), (3, 2, 5), (3, 3, 3)])
    def test_fake_cycles_match_the_sequential_loop(self, monkeypatch, check, r, s, c):
        # No cycle length divides P, so every check fails, and each product
        # at (0, 0) depends on where its window starts.
        assert (r + s + 2) % c
        _fake_rowmotion(monkeypatch, _cycle(c, 1), _cycle(c, -1))
        run, sequential = _SPLIT_CHECKS[check]
        want = sequential(r, s)
        assert '"passed": true' not in json.dumps(want)
        _matches_in_every_fork_state(monkeypatch, want, lambda: run(r, s))

    @pytest.mark.parametrize("check", list(_SPLIT_CHECKS))
    @pytest.mark.parametrize("r, s", [(0, 0), (1, 0), (2, 1), (3, 3)])
    def test_rowmotion_matches_the_sequential_loop(self, monkeypatch, check, r, s):
        run, sequential = _SPLIT_CHECKS[check]
        want = sequential(r, s)
        assert '"passed": false' not in json.dumps(want)
        _matches_in_every_fork_state(monkeypatch, want, lambda: run(r, s))

    def test_witnesses_keep_the_start_order(self, monkeypatch):
        # With rowmotion the identity, every start fails at every point.
        _fake_rowmotion(monkeypatch, lambda f: f)
        want = _sequential_reciprocity(2, 1, "rational", 4, 3).to_json()
        assert [w["input"] for w in want["witnesses"][::6]] == \
            [f.to_json() for f in starts(RectPoset(2, 1), "rational", 4, 3)]
        _matches_in_every_fork_state(
            monkeypatch, want,
            lambda: check_reciprocity(2, 1, mode="rational", trials=4, seed=3).to_json())

    @pytest.mark.parametrize("run", [lambda: check_reciprocity(2, 1),
                                     lambda: check_reciprocity(3, 2, mode="rational", trials=1)])
    def test_a_single_start_forks_no_child(self, monkeypatch, run):
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
        assert run().passed

    # On 3x3 the child takes 4 backward steps for a product check, and 7
    # forward steps of the light cone for each of reciprocity's starts 4 and 5.
    @pytest.mark.parametrize("check, patched, steps", [
        ("antipodal", "birow.verify.pair_iterates", 2),
        ("file-homomesy", "birow.verify.pair_iterates", 2),
        ("reciprocity", "birow.verify.light_cone", 9)])
    def test_a_child_that_stops_is_replaced_here(self, monkeypatch, capfd, check, patched,
                                                 steps):
        # The child raises partway, silently; the parent does its work itself.
        parent, calls = os.getpid(), []
        step = _cycle(3, -1 if patched.endswith("pair_iterates") else 1)

        def move(f):
            if os.getpid() != parent:
                calls.append(f)
                if len(calls) > steps:
                    raise RuntimeError("child failure")
            return step(f)

        _fake_rowmotion(monkeypatch, _cycle(3, 1), _cycle(3, -1))
        monkeypatch.setattr(patched, _cone(move) if patched.endswith("light_cone")
                            else _pair_run(_cycle(3, 1), move))
        run, sequential = _SPLIT_CHECKS[check]
        assert run(3, 3) == sequential(3, 3)
        assert capfd.readouterr() == ("", "")
        _no_child_left()

    @pytest.mark.parametrize("check", list(_SPLIT_CHECKS))
    def test_the_child_is_killed_when_this_process_raises(self, monkeypatch, check):
        parent = os.getpid()

        def stuck_or_pole(f):
            if os.getpid() != parent:
                time.sleep(20)
                return f
            raise PoleEncountered("pole in this process")

        _fake_rowmotion(monkeypatch, stuck_or_pole)
        t0 = time.monotonic()
        with pytest.raises(PoleEncountered, match="this process"):
            _SPLIT_CHECKS[check][0](3, 3)
        _no_child_left()
        assert time.monotonic() - t0 < 10


# Products of powers of 2, 3, 5 and 7, so that the two ints of a pair, and
# of neighbouring pairs, share factors; a numerator may be 0.
_smooth_ints = st.builds(lambda e: math.prod(p ** k for p, k in zip((2, 3, 5, 7), e)),
                         st.tuples(*[st.integers(0, 5)] * 4))


@given(st.lists(st.tuples(st.one_of(st.just(0), _smooth_ints), _smooth_ints), max_size=40))
@settings(max_examples=200, deadline=None)
def test_pair_tree_product_is_the_product_of_the_fractions(pairs):
    n, d = _tree_product(pairs)
    assert d > 0
    assert Fraction(n, d) == math.prod((Fraction(*p) for p in pairs), start=Fraction(1))
    if all(math.gcd(*p) == 1 for p in pairs):
        assert math.gcd(n, d) == 1


@given(st.lists(st.tuples(st.one_of(st.just(0), _smooth_ints), _smooth_ints), max_size=40))
@settings(max_examples=200, deadline=None)
def test_both_pair_trees_give_the_same_fraction(pairs):
    """The antipodal products' tree takes no gcd; it must still give the
    fraction that the cross-cancelled tree of the file products gives."""
    n, d = _plain_tree_product(pairs)
    assert d > 0 and Fraction(n, d) == Fraction(*_tree_product(pairs))


class TestReciprocity:
    def test_symbolic(self):
        assert check_reciprocity(2, 1).passed
        rep = check_reciprocity(2, 2, mode="symbolic")
        assert rep.passed and rep.trials == 1

    def test_rational(self):
        rep = check_reciprocity(3, 2, mode="rational", trials=2, seed=1)
        assert rep.passed and rep.trials == 2

    def test_antipodal_product(self):
        assert check_antipodal_product(2, 2).passed
        assert check_antipodal_product(3, 2, seed=5).passed


def test_main_formula_agreement():
    assert check_main_formula(1, 1, points=2).passed
    assert check_main_formula(2, 1, points=2, seed=3).passed
    assert check_main_formula(4, 4, points=1, seed=1).passed


def test_main_formula_witnesses_match_the_symbolic_closed_form(monkeypatch):
    """With rowmotion replaced by the identity, each witness names its query
    in (i, j, k) order, its frame from m_value, and as observed value the
    symbolic closed form evaluated at the witness's point."""
    _fake_rowmotion(monkeypatch, lambda f: f)
    rep = check_main_formula(2, 1, points=1, seed=3)
    assert not rep.passed
    poset = RectPoset(2, 1)
    f = Labeling.from_json(rep.witnesses[0]["input"])
    env = {xvar(*p): f.value(p) for p in poset.members()}
    env.update({avar(*p): evaluate(a, env) for p, a in x_to_A(generic_labeling(poset)).items()})
    want = []
    for (i, j) in poset.members():
        for k in range(poset.r + poset.s + 2):
            q = IterateQuery(poset, i, j, k)
            got = evaluate(rho_closed(q).fn, env)
            if got != f.value((i, j)):
                want.append({"query": [i, j, k], "frame": "A" if m_value(q) <= k else "x",
                             "observed": str(got), "expected": str(f.value((i, j)))})
    assert {w["frame"] for w in want} == {"A", "x"}
    assert [{key: w[key] for key in ("query", "frame", "observed", "expected")}
            for w in rep.witnesses] == want


class TestFileHomomesy:
    def test_rational_every_file(self):
        reps = check_file_homomesy(3, 2, range(-3, 3), mode="rational", seed=2)
        assert [rep.name for rep in reps] == \
            [f"file-homomesy r=3 s=2 file={t} mode=rational" for t in range(-3, 3)]
        for t, rep in zip(range(-3, 3), reps):
            assert rep.passed, t
            assert rep.notes["case"] in "abc"

    def test_symbolic_factor_cancellation(self):
        reps = check_file_homomesy(2, 1, range(-2, 2), mode="symbolic")
        assert [rep.passed for rep in reps] == [True] * 4

    def test_symbolic_verdicts_match_counting_polynomials(self):
        """Counting the factors as regions gives the verdicts of counting
        them as polynomials, each file of every grid up to 5x5."""
        def by_polynomials(r, s, t):
            poset = RectPoset(r, s)
            nums, dens = Counter(), Counter()
            for k in range(r + s + 2):
                for (i, j) in poset.file_by_offset(t).points:
                    num, den = rho_closed_phi(IterateQuery(poset, i, j, k))
                    nums[num] += 1
                    dens[den] += 1
            return (Polynomial.product((nums - dens).elements())
                    == Polynomial.product((dens - nums).elements()))

        for r in range(6):
            for s in range(6):
                reps = check_file_homomesy(r, s, range(-r, s + 1), mode="symbolic")
                assert [rep.passed for rep in reps] == \
                    [by_polynomials(r, s, t) for t in range(-r, s + 1)], (r, s)

    def test_symbolic_flags_exactly_the_file_of_an_inverted_factor(self, monkeypatch):
        """With the numerator and denominator of the query (2, 2, 3) of 5x4
        exchanged, the file of (2, 2) fails and no other."""
        phi_pair = verify._phi_pair

        def inverted(q, at):
            num, den = phi_pair(q, at)
            return (den, num) if (q.i, q.j, q.k) == (2, 2, 3) else (num, den)

        monkeypatch.setattr(verify, "_phi_pair", inverted)
        reps = check_file_homomesy(5, 4, range(-5, 5), mode="symbolic")
        assert [t for t, rep in zip(range(-5, 5), reps) if not rep.passed] == [0]

    def test_all_three_cases_appear(self):
        cases = {rep.notes["case"]
                 for rep in check_file_homomesy(4, 3, range(-4, 4), mode="rational")}
        assert cases == {"a", "b", "c"}


class TestCombinatorialHomomesy:
    def test_small_squares(self):
        rep = check_combinatorial_homomesy(2, 2)
        assert rep.passed
        assert sorted(rep.notes["orbit_sizes"]) == [2, 6, 6, 6]

    def test_rectangle(self):
        assert check_combinatorial_homomesy(3, 1).passed

    def test_orbits_are_streamed(self):
        # 3432 ideals on 6x6, each a tuple of 7 heights: the check with a list
        # of every orbit peaks near 0.40 MB, and with a set of the ideals seen
        # near 0.32 MB, where the orbit being walked and a byte per ideal take
        # about 0.11 MB (Python 3.11).
        tracemalloc.start()
        try:
            assert check_combinatorial_homomesy(6, 6).passed
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 200_000, peak

    def test_witness_replays_as_an_ideal(self, monkeypatch):
        # Singleton orbits make most orbit averages wrong; each witness's
        # points must name the same ideal again on the command line.
        monkeypatch.setattr("birow.verify.orbits",
                            lambda poset: ([i] for i in all_order_ideals(poset)))
        rep = check_combinatorial_homomesy(3, 2)
        assert not rep.passed
        for w in rep.witnesses:
            pts = w["input"]["orbit"] if isinstance(w["input"], dict) else w["input"]
            out = io.StringIO()
            with redirect_stdout(out):
                code = main(["orbit", "--r", "3", "--s", "2",
                             "--ideal", ";".join(f"{i},{j}" for i, j in pts)])
            assert code == 0, pts
            assert json.loads(out.getvalue())["orbits"][0]["ideals"][0] == pts

    def test_witnesses_name_each_file_then_each_orbit_in_order(self, monkeypatch):
        # Two classes of orbits on 1x1, alternating: (2, 0), the points
        # (0, 0) and (0, 1), with totals 0, 1, 1 on files -1, 0, 1, and
        # (1, 1), the points (0, 0) and (1, 0), with totals 1, 1, 0.  Over the
        # 7 ideals the totals are 4, 7, 3: every orbit's average differs on
        # files -1 and 1, and none on file 0 or in cardinality.  Only a
        # differing orbit makes the check walk the orbits again.
        fake = [[(2, 0)], [(1, 1)], [(2, 0)] * 2, [(1, 1)] * 3]
        walks = []
        monkeypatch.setattr("birow.verify.orbits", lambda poset: walks.append(1) or iter(fake))
        rep = check_combinatorial_homomesy(1, 1)
        x, y = [[0, 0], [0, 1]], [[0, 0], [1, 0]]
        want = [(-1, x, "0", "4/7"), (-1, y, "1", "4/7"), (-1, x, "0", "4/7"),
                (-1, y, "1", "4/7"), (1, x, "1", "3/7"), (1, y, "0", "3/7"),
                (1, x, "1", "3/7"), (1, y, "0", "3/7")]
        assert rep.witnesses == [{"input": {"file": t, "orbit": orbit}, "observed": got,
                                  "expected": avg} for t, orbit, got, avg in want]
        assert rep.notes["orbit_sizes"] == [1, 1, 2, 3] and len(walks) == 2
        walks.clear()
        monkeypatch.setattr("birow.verify.orbits",
                            lambda poset: walks.append(1) or birow.dynamics.orbits(poset))
        assert check_combinatorial_homomesy(3, 3).passed and len(walks) == 1

    def test_file_counts_from_heights(self):
        for r, s in [(3, 1), (1, 3), (2, 2)]:
            poset = RectPoset(r, s)
            ideals = list(all_order_ideals(poset))
            total = [0] * (r + s + 1)
            for ideal in ideals:
                members = {tuple(p) for p in ideal_points(ideal)}
                want = [len(set(poset.file_by_offset(t).points) & members)
                        for t in range(-r, s + 1)]
                assert _file_counts(poset, [ideal]) == want, ideal
                total = [x + y for x, y in zip(total, want)]
            assert _file_counts(poset, ideals) == total


class TestFileLedger:
    def test_wide_example(self):
        rep = check_file_ledger(4, 3, 2)
        assert rep.passed and rep.trials == 4

    def test_square_example(self):
        assert check_file_ledger(2, 2, 1).passed

    def test_precondition(self):
        with pytest.raises(PreconditionViolated):
            check_file_ledger(2, 3, 1)  # needs s <= r
        with pytest.raises(PreconditionViolated):
            check_file_ledger(3, 2, 2)  # needs d < s


def test_failure_produces_witnesses():
    rep = Report(name="demo")
    rep.fail({"input": "demo", "observed": "1"})
    assert not rep.passed
    assert rep.witnesses[0]["observed"] == "1"


def test_failing_checks_build_their_witnesses(monkeypatch):
    # With rowmotion replaced by the identity, reciprocity and the antipodal
    # product fail at every point.
    _fake_rowmotion(monkeypatch, lambda f: f)
    rep = check_reciprocity(1, 1, mode="rational", trials=1, seed=2)
    assert not rep.passed and len(rep.witnesses) == 4
    w = rep.witnesses[0]
    f = Labeling.from_json(w["input"])
    assert w["point"] == [0, 0]
    assert w["observed"] == str(f.value((0, 0)))
    assert w["expected"] == str(f.value((1, 1)) ** -1)
    rep = check_antipodal_product(2, 2, seed=3)
    assert not rep.passed
    assert [tuple(w["point"]) for w in rep.witnesses] == RectPoset(2, 2).members()
    assert all(w["expected"] == "1" and w["observed"] != "1" for w in rep.witnesses)
