"""Acceptance gate: ten end-to-end criteria, each printing one pass/fail
line.  All arithmetic is exact; tolerance is identically zero."""

import random
import sys
import time
from fractions import Fraction

from birow.avar import a_to_x
from birow.bounce import plucker_check
from birow.closed_form import IterateQuery, rho_closed, rho_closed_phi
from birow.dynamics import generic_labeling, rowmotion_birational
from birow.exactnum import Factored, Polynomial, avar, monomial, xvar
from birow.grid_poset import RectPoset
from birow.nilp import phi_at
from birow.verify import (check_combinatorial_homomesy, check_file_homomesy,
                          check_file_ledger, check_main_formula,
                          check_periodicity, check_reciprocity)
from test_exactnum import evaluate_poly
from test_nilp import phi_poly


def report(number, label, passed, t0):
    line = f"criterion {number:2d} [{label}]: {'PASS' if passed else 'FAIL'} " \
           f"({time.time() - t0:.2f}s)"
    print(line, file=sys.stderr)
    print(line)
    assert passed, line


def _mono(*pairs):
    return Polynomial.from_dict({monomial([(avar(i, j), 1) for (i, j) in pairs]): 1})


def _poly(*term_lists):
    total = Polynomial(())
    for pairs in term_lists:
        total = total + _mono(*pairs)
    return total


def test_criterion_1_two_by_two_symbolic_orbit():
    t0 = time.time()
    W, X, Y, Z = (Factored.var(xvar(*p)) for p in [(0, 0), (1, 0), (0, 1), (1, 1)])
    ONE = Factored.const(1)
    displays = [
        {(1, 1): (X + Y) / Z, (1, 0): (X + Y) * W / (X * Z),
         (0, 1): (X + Y) * W / (Y * Z), (0, 0): ONE / Z},
        {(1, 1): (X + Y) * W / (X * Y), (1, 0): ONE / Y,
         (0, 1): ONE / X, (0, 0): Z / (X + Y)},
        {(1, 1): ONE / W, (1, 0): Y * Z / ((X + Y) * W),
         (0, 1): X * Z / ((X + Y) * W), (0, 0): X * Y / ((X + Y) * W)},
        {(1, 1): Z, (1, 0): X, (0, 1): Y, (0, 0): W},
    ]
    f = generic_labeling(RectPoset(1, 1))
    g, ok = f, True
    for expected in displays:
        g = rowmotion_birational(g)
        ok = ok and all(g.value(p) == want for p, want in expected.items())
    ok = ok and all(g.value(p) == f.value(p) for p in f.poset.members())
    report(1, "2x2 symbolic orbit", ok, t0)


def test_criterion_2_worked_example_closed_forms():
    t0 = time.time()
    poset = RectPoset(3, 2)
    displays = {
        0: (_mono((2, 1), (2, 2), (3, 1), (3, 2)),
            _poly([(2, 2)], [(3, 1)])),
        1: (_poly([(1, 1), (1, 2), (2, 1), (2, 2)], [(1, 1), (1, 2), (2, 2), (3, 0)],
                  [(1, 1), (1, 2), (3, 0), (3, 1)], [(1, 2), (2, 0), (2, 2), (3, 0)],
                  [(1, 2), (2, 0), (3, 0), (3, 1)], [(2, 0), (2, 1), (3, 0), (3, 1)]),
            _poly([(1, 2)], [(2, 1)], [(3, 0)])),
        2: (_poly([(0, 1), (0, 2), (1, 1), (1, 2)], [(0, 1), (0, 2), (1, 2), (2, 0)],
                  [(0, 1), (0, 2), (2, 0), (2, 1)], [(0, 2), (1, 0), (1, 2), (2, 0)],
                  [(0, 2), (1, 0), (2, 0), (2, 1)], [(1, 0), (1, 1), (2, 0), (2, 1)]),
            _poly([(0, 2)], [(1, 1)], [(2, 0)])),
        3: (_mono((0, 0), (0, 1), (1, 0), (1, 1)),
            _poly([(0, 1)], [(1, 0)])),
        4: (_poly([(1, 2), (2, 2)], [(1, 2), (3, 1)], [(2, 1), (3, 1)]),
            _mono((1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2))),
        5: (_poly([(0, 2), (1, 2)], [(0, 2), (2, 1)], [(1, 1), (2, 1)],
                  [(0, 2), (3, 0)], [(1, 1), (3, 0)], [(2, 0), (3, 0)]),
            _poly([(0, 1), (0, 2), (1, 1), (1, 2), (2, 1), (2, 2)],
                  [(0, 1), (0, 2), (1, 1), (1, 2), (2, 2), (3, 0)],
                  [(0, 1), (0, 2), (1, 1), (1, 2), (3, 0), (3, 1)],
                  [(0, 1), (0, 2), (1, 2), (2, 0), (2, 2), (3, 0)],
                  [(0, 1), (0, 2), (1, 2), (2, 0), (3, 0), (3, 1)],
                  [(0, 1), (0, 2), (2, 0), (2, 1), (3, 0), (3, 1)],
                  [(0, 2), (1, 0), (1, 2), (2, 0), (3, 0), (3, 1)],
                  [(0, 2), (1, 0), (2, 0), (2, 1), (3, 0), (3, 1)],
                  [(0, 2), (1, 0), (1, 2), (2, 0), (2, 2), (3, 0)],
                  [(1, 0), (1, 1), (2, 0), (2, 1), (3, 0), (3, 1)])),
        6: (_poly([(0, 1), (1, 1)], [(0, 1), (2, 0)], [(1, 0), (2, 0)]),
            _mono((0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1))),
    }
    ok = True
    for k, (num, den) in displays.items():
        got_num, got_den = rho_closed_phi(IterateQuery(poset, 2, 1, k))
        ok = ok and got_num == num and got_den == den
    cf3 = rho_closed(IterateQuery(poset, 2, 1, 3))
    ok = ok and a_to_x(cf3.fn, poset) == Factored.var(xvar(1, 1)) ** -1
    cf6 = rho_closed(IterateQuery(poset, 2, 1, 6))
    ok = ok and cf6.frame == "x" and cf6.fn == Factored.var(xvar(2, 1))
    report(2, "worked example k=0..6", ok, t0)


def test_criterion_3_periodicity_minimal():
    t0 = time.time()
    ok = True
    for r in range(7):
        for s in range(7 - r):
            rep = check_periodicity(r, s, mode="rational", trials=5, seed=0)
            ok = ok and rep.passed
            ok = ok and rep.notes["observed_minimal_periods"] == [r + s + 2] * 5
    report(3, "periodicity r+s<=6", ok, t0)


GRID_SET = [(1, 1), (2, 1), (2, 2), (3, 2)]


def test_criterion_4_main_formula():
    t0 = time.time()
    ok = all(check_main_formula(r, s, points=3, seed=0).passed for r, s in GRID_SET)
    report(4, "closed form vs dynamics", ok, t0)


def test_criterion_5_reciprocity():
    t0 = time.time()
    ok = all(check_reciprocity(r, s).passed for r, s in GRID_SET)
    report(5, "reciprocity", ok, t0)


def test_criterion_6_file_homomesy():
    t0 = time.time()
    ok, cases = True, set()
    for r, s in GRID_SET + [(4, 3)]:
        for rep in check_file_homomesy(r, s, range(-r, s + 1)):
            ok = ok and rep.passed
            cases.add(rep.notes["case"])
    ok = ok and cases == {"a", "b", "c"}
    report(6, "file homomesy", ok, t0)


def test_criterion_7_plucker():
    t0 = time.time()
    ok = True
    for r, s in [(2, 2), (3, 2)]:
        poset = RectPoset(r, s)
        for i in range(r + 1):
            for j in range(s + 1):
                for k in range(1, r + s + 2):
                    if max(k - i, 0) + max(k - j, 0) > k:
                        continue
                    ok = ok and plucker_check(poset, i, j, k).passed
    report(7, "three-term identity + bijection", ok, t0)


def test_criterion_8_lgv_oracle():
    t0 = time.time()
    poset = RectPoset(3, 2)
    rng = random.Random(0)
    ok = True
    for m in range(4):
        for n in range(3):
            for k in range(min(3 - m, 2 - n) + 2):
                region = poset.hexagon(m, n, k)
                for _ in range(5):
                    pt = {q: Fraction(rng.randint(1, 64), rng.randint(1, 16))
                          for q in poset.points(region.mask)}
                    at_pt = {avar(*q): v for q, v in pt.items()}
                    ok = ok and (evaluate_poly(phi_poly(region), at_pt)
                                 == phi_at(region, pt))
    ones = {avar(i, j): Fraction(1) for (i, j) in poset.members()}
    ok = ok and evaluate_poly(phi_poly(poset.hexagon(1, 0, 1)), ones) == 6
    ok = ok and evaluate_poly(phi_poly(poset.hexagon(1, 0, 2)), ones) == 3
    report(8, "determinant oracle", ok, t0)


def test_criterion_9_combinatorial_homomesy():
    t0 = time.time()
    ok = all(check_combinatorial_homomesy(r, s).passed
             for r in range(4) for s in range(4))
    report(9, "combinatorial homomesy", ok, t0)


def test_criterion_10_file_ledger():
    t0 = time.time()
    ok = check_file_ledger(4, 3, 2).passed
    report(10, "cancellation ledger (4,3,2)", ok, t0)
