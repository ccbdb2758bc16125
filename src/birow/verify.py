"""Machine verification of the dynamical identities: periodicity,
reciprocity, closed-form equivalence, file homomesy (birational and
combinatorial), and the leftover-block ledger behind the homomesy proof.

Every check returns a Report; failures carry witnesses with enough inputs
to replay them.  Random points use explicit seeds.

Four checks share their work with one forked child process (``_in_child``)
where ``os.fork`` exists, so they run faster only with a second CPU free;
each report is that of one sequential loop in this process.  Periodicity
and the orbit products run the two halves of an orbit at once: with
P = r+s+2 and h = ceil(P/2), this process takes the forward iterates and
the child the backward ones.  The antipodal product and rational file
homomesy multiply over the window rho^-(P-h) f, ..., rho^(h-1) f, one full
period from the start rho^-(P-h) f (``_period_products``).  Reciprocity
runs its first ceil(T/2) starts here and the other starts in the child.

Rational periodicity, the orbit products and the main formula read the
integer sweep's pairs from ``dynamics.pair_iterates`` and build no
Labeling per step; they compare by cross-multiplying, and the products
fold each half in a pair tree: the file products cancel across at every
node (``_tree_product``), and the antipodal ones take no gcd
(``_plain_tree_product``).  Only
symbolic periodicity reads Labelings, from ``dynamics.iterates``.

Reciprocity reads iterate m only on rank m-1, and takes those labels from
``dynamics.light_cone``, whose docstring gives why they are exactly those of
the full iterates at about half the toggles.
"""

from __future__ import annotations

import contextlib
import math
import os
from collections import Counter, deque
from fractions import Fraction
from itertools import accumulate, chain, islice
from typing import Callable, Iterable, Iterator, List, Optional, Tuple

from .avar import x_to_A
from .closed_form import (IterateQuery, _phi_pair, corner_key, key_phi, m_value, mu_phi,
                          rho_closed_at)
from .dynamics import (Heights, Labeling, Pairs, ideal_points, iterates, light_cone, orbits,
                       pair_iterates, starts)
from .errors import PreconditionViolated
from .exactnum import Polynomial, avar, monomial
from .grid_poset import GridPoint, RectPoset
from .report import Report


def auto_mode(r: int, s: int) -> str:
    """Symbolic verification for tiny grids, exact rational evaluation
    otherwise."""
    return "symbolic" if (r + 1) * (s + 1) <= 6 else "rational"


@contextlib.contextmanager
def _in_child(fn: Callable, items: list) -> Iterator[Iterator]:
    """An iterator over fn(x) for each x in items, computed ahead in one
    forked child and sent back through a pipe, each result as it is ready.

    A result the child does not deliver, because it raised or died, is
    computed here instead; where items is empty, or os.fork does not exist
    or fails, no child runs, the pipe reads empty at once, and every result
    is computed here.
    The values are the same either way.  The child always leaves by
    os._exit, so it runs no exit handler and flushes none of this process's
    buffers.  On leaving the block the child is killed, if it still runs,
    and reaped, also when the block raises."""
    import pickle
    import signal
    r, w = os.pipe()
    pid = None
    try:
        if items:
            pid = os.fork()
    except (AttributeError, OSError):
        pass
    if pid == 0:
        try:
            os.close(r)
            with open(w, "wb") as out:
                for x in items:
                    pickle.dump(fn(x), out, pickle.HIGHEST_PROTOCOL)
                    out.flush()
        finally:
            os._exit(0)
    os.close(w)

    def results(inp):
        for n, x in enumerate(items):
            try:
                got = pickle.load(inp)
            except (EOFError, pickle.UnpicklingError):
                yield from map(fn, items[n:])
                return
            yield got

    try:
        with open(r, "rb") as inp:
            yield results(inp)
    finally:
        if pid:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _same(x: Pairs, y: Pairs) -> bool:
    """Whether two labelings held as (numerators, denominators) have equal
    labels, n/d == n'/d' exactly when n d' == n' d."""
    (xn, xd), (yn, yd) = x, y
    return all(n * e == m * d for n, d, m, e in zip(xn, xd, yn, yd))


def _pair_tree(pairs: List[Tuple[int, int]], times: Callable) -> Tuple[int, int]:
    """The product of the fractions n/d of pairs, as a pair, in a balanced
    tree whose every node is times of its two children."""
    while len(pairs) > 1:
        merged = list(map(times, pairs[::2], pairs[1::2]))
        pairs = merged + pairs[2 * len(merged):]
    return pairs[0] if pairs else (1, 1)


def _cancelled_times(x: Tuple[int, int], y: Tuple[int, int]) -> Tuple[int, int]:
    """n1/d1 * n2/d2 = (n1/g n2/h) / (d1/h d2/g), g = gcd(n1, d2),
    h = gcd(n2, d1)."""
    (n1, d1), (n2, d2) = x, y
    g, h = math.gcd(n1, d2), math.gcd(n2, d1)
    return n1 // g * (n2 // h), d1 // h * (d2 // g)


def _tree_product(pairs: List[Tuple[int, int]]) -> Tuple[int, int]:
    """The product of the fractions n/d, d > 0, of pairs, as a pair, in a
    balanced tree whose every node cancels across."""
    return _pair_tree(pairs, _cancelled_times)


def _plain_tree_product(pairs: List[Tuple[int, int]]) -> Tuple[int, int]:
    """The product of the fractions n/d, d > 0, of pairs, as a pair, in a
    balanced tree with no gcd.  The antipodal half-products barely cancel,
    so on 20x20 this takes about half the time of ``_tree_product``."""
    return _pair_tree(pairs, lambda x, y: (x[0] * y[0], x[1] * y[1]))


def _period_products(f: Labeling, groups: List[Tuple[GridPoint, ...]],
                     fold: Callable[[List[Tuple[int, int]]], Tuple[int, int]]
                     ) -> List[Optional[str]]:
    """For each group of points, None when the product of its labels over
    the P = r+s+2 iterates rho^-(P-h) f, ..., rho^(h-1) f, with h =
    ceil(P/2), is 1, and else that product as text; a point named twice
    counts twice.  These iterates are one full period of a rational f.

    This process takes the h forward iterates rho^0 f, ..., rho^(h-1) f as
    pairs from ``pair_iterates``, and one forked child (``_in_child``) the
    P-h backward ones; each half multiplies each group's labels in one
    pair tree, ``fold``.  A product is 1 when its halves n/d and n'/d'
    cross-multiply to n n' == d d', so a Fraction is formed only to print a
    product that is not 1."""
    period = f.poset.r + f.poset.s + 2
    half = (period + 1) // 2
    slots = [list(map(f.poset.index, points)) for points in groups]

    def products(its: Iterable[Pairs]) -> List[Tuple[int, int]]:
        its = list(its)
        return [fold([(num[k], den[k]) for num, den in its for k in ks]) for ks in slots]

    def behind(f: Labeling) -> List[Tuple[int, int]]:
        return products(islice(pair_iterates(f, period - half, -1), 1, None))

    with _in_child(behind, [f]) as back:
        ahead = products(pair_iterates(f, half - 1))
        return [None if n * m == d * e else str(Fraction(n * m, d * e))
                for (n, d), (m, e) in zip(ahead, next(back))]


def check_periodicity(r: int, s: int, mode: Optional[str] = None,
                      trials: int = 5, seed: int = 0) -> Report:
    """Rowmotion returns to the start after P = r+s+2 steps; the observed
    minimal period is recorded (not asserted).

    Each orbit is checked from both ends.  This process iterates rowmotion
    h = ceil(P/2) times, comparing each iterate with the start, while one
    forked child computes rho^-(P-h) f for every start (``_in_child``).  If
    no step up to h returned, rho^h f == rho^-(P-h) f means rho^P f == f:
    the minimal period divides P and exceeds h >= P/2, so it is P.  If the
    two ends differ, the forward orbit runs on to step P, as a single
    sequential loop would, so the periods and witnesses are the same.
    Rational labels are compared as pairs (``_same``)."""
    mode = mode or auto_mode(r, s)
    period = r + s + 2
    half = (period + 1) // 2
    rep = Report(name=f"periodicity r={r} s={s} mode={mode}", seed=seed)
    rep.notes["expected_period"] = period
    minimal: List[Optional[int]] = []
    fs = starts(RectPoset(r, s), mode, trials, seed)
    run, same = ((pair_iterates, _same) if mode == "rational"
                 else (iterates, lambda g, h: g.values == h.values))
    with _in_child(lambda f: deque(run(f, period - half, -1), maxlen=1).pop(), fs) as ends:
        for f in fs:
            orbit = enumerate(run(f, period))
            _, start = next(orbit)
            first = None
            for t, g in islice(orbit, half):
                if same(g, start):
                    first = t
                    break
            end = next(ends)
            if first is None:
                if same(g, end):
                    first = period
                else:
                    first = next((t for t, g in orbit if same(g, start)), None)
            minimal.append(first)
            rep.trials += 1
            if first is None or period % first:
                rep.fail({"input": f.to_json(), "observed": first, "expected": period})
    rep.notes["observed_minimal_periods"] = minimal
    return rep


def check_reciprocity(r: int, s: int, mode: Optional[str] = None,
                      trials: int = 3, seed: int = 0) -> Report:
    """Iterate i+j+1 at (i, j) is the reciprocal of the start label at the
    antipodal point (r-i, s-j).

    Each start's iterates are read from ``light_cone``, which yields rank
    m-1 of rho^m f for m = 1, ..., r+s+1 and toggles only what those labels
    depend on (its docstring gives why).  A toggle whose label is never read
    is skipped, so a pole there is not raised; the CLI's starts, positive
    rationals or the generic labeling, have no such pole.

    Of the T starts, the first ceil(T/2) run here and the others in one
    forked child (``_in_child``; none for a single start); the witnesses
    are kept in start order."""
    mode = mode or auto_mode(r, s)
    poset = RectPoset(r, s)
    rep = Report(name=f"reciprocity r={r} s={s} mode={mode}", seed=seed)

    def witnesses(f: Labeling) -> List[dict]:
        cone = {p: x for labels in light_cone(f) for p, x in labels.items()}
        found = []
        for (i, j) in poset.members():
            got = cone[(i, j)]
            want = f.value((r - i, s - j)) ** -1
            if got != want:
                found.append({"input": f.to_json(), "point": [i, j],
                              "observed": str(got), "expected": str(want)})
        return found

    fs = starts(poset, mode, trials, seed)
    here = (len(fs) + 1) // 2
    with _in_child(witnesses, fs[here:]) as rest:
        for found in chain(map(witnesses, fs[:here]), rest):
            rep.trials += 1
            for w in found:
                rep.fail(w)
    return rep


def check_antipodal_product(r: int, s: int, seed: int = 0) -> Report:
    """Product across a full period of the antipodal pair of point statistics
    equals 1 (periodicity and reciprocity combined).

    The period is the window rho^-(P-h) f, ..., rho^(h-1) f of
    ``_period_products``, and each antipodal pair of points is one group."""
    poset = RectPoset(r, s)
    rep = Report(name=f"antipodal-product r={r} s={s}", seed=seed, trials=1)
    f, = starts(poset, "rational", 1, seed)
    points = poset.members()
    pairs = sorted({min(p, (r - p[0], s - p[1])) for p in points})
    pair = dict(zip(pairs, _period_products(f, [(p, (r - p[0], s - p[1])) for p in pairs],
                                            _plain_tree_product)))
    for (i, j) in points:
        wrong = pair[min((i, j), (r - i, s - j))]
        if wrong:
            rep.fail({"input": f.to_json(), "point": [i, j],
                      "observed": wrong, "expected": "1"})
    return rep


def check_main_formula(r: int, s: int, points: int = 3, seed: int = 0) -> Report:
    """The closed form agrees with iterated dynamics at every (i, j) and
    every k in [0, r+s+1], at random positive rational points.  The closed
    form is evaluated at the point's A-chart values by rho_closed_at, with
    no polynomial built; the iterates are the sweep's pairs from
    ``pair_iterates``, compared with it by cross-multiplying."""
    poset = RectPoset(r, s)
    rep = Report(name=f"main-formula r={r} s={s}", seed=seed)
    queries = [(x, IterateQuery(poset, i, j, k))
               for x, (i, j) in enumerate(poset.members()) for k in range(r + s + 2)]
    for f in starts(poset, "rational", points, seed):
        rep.trials += 1
        closed = rho_closed_at(poset, x_to_A(f))
        its = list(pair_iterates(f, r + s + 2))
        for x, q in queries:
            got = closed(q)
            nums, dens = its[q.k + 1]
            n, d = nums[x], dens[x]
            if got.numerator * d != n * got.denominator:
                frame = "A" if m_value(q) <= q.k else "x"
                rep.fail({"input": f.to_json(), "query": [q.i, q.j, q.k], "frame": frame,
                          "observed": str(got), "expected": str(Fraction(n, d))})
    return rep


def check_file_homomesy(r: int, s: int, files: Iterable[int], mode: Optional[str] = None,
                        seed: int = 0) -> List[Report]:
    """For each file offset in files, a report that the double product of
    the file values over a full period equals 1.

    Rational mode multiplies honest iterates at a random positive point,
    one orbit for every file, over the window rho^-(P-h) f, ...,
    rho^(h-1) f of ``_period_products``.  Symbolic mode counts the
    closed-form factors by their ``corner_key``, cancels equal keys before
    any region or phi is built, and compares the products of the
    leftovers' phis, which avoids expanding the full product.
    """
    mode = mode or auto_mode(r, s)
    poset = RectPoset(r, s)
    infos = [poset.file_by_offset(t) for t in files]
    reps = [Report(name=f"file-homomesy r={r} s={s} file={info.offset} mode={mode}",
                   seed=seed, trials=1, notes={"case": info.case, "d": info.d,
                                               "points": [list(p) for p in info.points]})
            for info in infos]
    if mode == "rational":
        f, = starts(poset, mode, 1, seed)
        wrongs = _period_products(f, [info.points for info in infos], _tree_product)
        for rep, wrong in zip(reps, wrongs):
            if wrong:
                rep.fail({"input": f.to_json(), "observed": wrong, "expected": "1"})
        return reps
    for rep, info in zip(reps, infos):
        nums: Counter = Counter()
        dens: Counter = Counter()
        # The factor for iterate k+1 at each file point; over k = 0..r+s+1
        # this runs through one full period by periodicity.
        for k in range(r + s + 2):
            for (i, j) in info.points:
                num, den = _phi_pair(IterateQuery(poset, i, j, k),
                                     lambda *c: corner_key(poset, *c))
                nums[num] += 1
                dens[den] += 1
        pn = Polynomial.product(map(key_phi, (nums - dens).elements()))
        pd = Polynomial.product(map(key_phi, (dens - nums).elements()))
        if pn != pd:
            rep.fail({"input": "closed-form factors", "observed": str(pn), "expected": str(pd)})
    return reps


def _file_counts(poset: RectPoset, ideals: List[Heights]) -> List[int]:
    """Entry t + r counts the points (i, i+t) on file t, i + t < heights[i],
    over all the ideals of the grid.  Column i of height h adds 1 to files
    -i, ..., h-1-i: a difference array summed once, whose +1 at file -i,
    the same for every ideal, is set once for all."""
    r = poset.r
    diff = [len(ideals)] * (r + 1) + [0] * (poset.s + 1)
    for heights in ideals:
        for i, h in enumerate(heights):
            diff[r - i + h] -= 1
    return list(accumulate(diff[:-1]))


def check_combinatorial_homomesy(r: int, s: int) -> Report:
    """Every rowmotion orbit of order ideals has cardinality average
    (r+1)(s+1)/2, and file-count averages are orbit-independent.  Of each
    orbit of height tuples from ``orbits`` only its length and file totals
    are read, and averages are compared by cross-multiplying ints.

    The file totals are summed as the orbits stream, and each orbit's
    averages are compared with those of the orbits before it.  Only when
    one differs are the orbits walked again, to name, file by file, each
    orbit whose average is not the overall one."""
    rep = Report(name=f"combinatorial-homomesy r={r} s={s}")
    poset = RectPoset(r, s)
    cells = (r + 1) * (s + 1)
    sizes: List[int] = []
    overall = [0] * (r + s + 1)
    count, differs = 0, False
    for orb in orbits(poset):
        rep.trials += 1
        size = sum(map(sum, orb))
        if 2 * size != cells * len(orb):
            rep.fail({"input": ideal_points(orb[0]), "observed": str(Fraction(size, len(orb))),
                      "expected": str(Fraction(cells, 2))})
        tot = _file_counts(poset, orb)
        differs = differs or any(x * count != y * len(orb) for x, y in zip(tot, overall))
        overall = [x + y for x, y in zip(overall, tot)]
        count += len(orb)
        sizes.append(len(orb))
    rep.notes["orbit_count"] = len(sizes)
    rep.notes["orbit_sizes"] = sizes
    by_file: List[List[dict]] = [[] for _ in overall]
    for orb in orbits(poset) if differs else ():
        for t, (x, y, found) in enumerate(zip(_file_counts(poset, orb), overall, by_file)):
            if x * count != y * len(orb):
                found.append({"input": {"file": t - r, "orbit": ideal_points(orb[0])},
                              "observed": str(Fraction(x, len(orb))),
                              "expected": str(Fraction(y, count))})
    for w in chain.from_iterable(by_file):
        rep.fail(w)
    return rep


def _block_product(poset: RectPoset, factors) -> Polynomial:
    return Polynomial.product(mu_phi(poset, *f) for f in factors)


def check_file_ledger(r: int, s: int, d: int) -> Report:
    """The five leftover blocks of the file-product cancellation for a file
    with top (r, d), d < s <= r: the third block and the product of the
    fourth and fifth are identically 1, and the first two are reciprocal
    monomials with exponent min(r+1-i+j, s+1+i-j, d+1) on each A-variable."""
    if not (0 <= d < s <= r):
        raise PreconditionViolated(f"need 0 <= d < s <= r, got d={d}, r={r}, s={s}")
    poset = RectPoset(r, s)
    rep = Report(name=f"file-ledger r={r} s={s} d={d}")

    f1 = _block_product(poset, [(r - c, d - c, 0, 0, 0) for c in range(d)]
                        + [(r - c, d - c, 0, r - c, d - c) for c in range(d)]
                        + [(r - d, 0, 0, k, 0) for k in range(r - d + 1)])
    f2 = _block_product(poset, [(c, s - d + c, 0, 0, 0) for c in range(1, d + 1)]
                        + [(c, s - d + c, 0, c, s - d + c) for c in range(1, d + 1)]
                        + [(0, s - d, 0, 0, j) for j in range(s - d + 1)])
    f3 = _block_product(poset, [(r - k, d - k, k + 1, 0, 0) for k in range(d + 1)]
                        + [(r - d, 0, d + 1, k - d, 0) for k in range(d + 1, r + 1)]
                        + [(k - d, k - r, r + d + 1 - k, k - d, k - r)
                           for k in range(r + 1, r + d + 1)])
    f4 = _block_product(poset, [(r + 1 - k, r + s + 1 - k - d, k + d - r, 0, 0)
                                for k in range(r + 1 - d, r + 2)]
                        + [(0, s - d, d + 1, 0, k - r - 1)
                           for k in range(r + 2, r + s + 2 - d)])
    f5 = _block_product(poset, [(k + d - r - s - 1, k - r - 1, r + s + 2 - k,
                                 k + d - r - s - 1, k - r - 1)
                                for k in range(r + s + 2 - d, r + s + 2)])

    one = Polynomial.const(1)
    if f3 != one:
        rep.fail({"input": "third block", "observed": str(f3), "expected": "1"})
    f45 = f4 * f5
    if f45 != one:
        rep.fail({"input": "fourth*fifth block", "observed": str(f45), "expected": "1"})

    expect = Polynomial.from_dict({monomial(
        [(avar(i, j), min(r + 1 - i + j, s + 1 + i - j, d + 1))
         for (i, j) in poset.members()]): 1})
    if f1 != expect:
        rep.fail({"input": "first block", "observed": str(f1), "expected": str(expect)})
    # The second block carries inverted factors, so the product of the first
    # two blocks is 1 exactly when the uninverted products agree.
    if f1 != f2:
        rep.fail({"input": "first*second block", "observed": str(f2), "expected": str(f1)})
    rep.trials = 4
    return rep
