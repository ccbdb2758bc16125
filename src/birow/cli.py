"""Command-line front end: iteration, closed-form evaluation, phi
polynomials, combinatorial orbits, and the verification suite.

Output is JSON by default; --plain renders human-readable text.  Exit
codes: 0 success, 1 verification failure, 2 usage error, 3 arithmetic
fault or a budget exceeded (``dynamics.IDEAL_BUDGET``,
``nilp.FAMILY_BUDGET``, or the process's memory: a ``MemoryError`` prints
one ``budget exceeded: out of memory`` line and no traceback).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Callable, Iterator, Union

from .avar import a_to_x
from .bounce import plucker_check
from .closed_form import IterateQuery, rho_closed
from .dynamics import (Heights, Labeling, ideal_from_points, ideal_points, iterate_birational,
                       orbit, orbits, starts)
from .errors import BirowError, BudgetExceeded, ParseError, PoleEncountered
from .exactnum import Factored, Polynomial, xvar
from .grid_poset import RectPoset, parse_point_key
from .nilp import enum_nilp, family_json, phi, render
from .verify import (check_antipodal_product, check_combinatorial_homomesy,
                     check_file_homomesy, check_file_ledger, check_main_formula,
                     check_periodicity, check_reciprocity)

USAGE_ERROR, ARITHMETIC_FAULT, BUDGET_EXCEEDED = 2, 3, 3
Text = Union[str, Iterator[str]]
_HOLE = "\0"  # marks a streamed text in the JSON; no other payload text holds it


def _emit(payload: dict, plain: bool, plain_text: Callable[[], Text]):
    """Print the payload as JSON, or under --plain the text that plain_text
    builds; the text is built only when it is printed.  A text that is an
    iterator of pieces, as phi's is, at the top level of the payload or as
    the plain text, is written piece by piece and never held whole.  Its
    pieces hold no character that JSON escapes, so the output is the same
    as if they were joined first."""
    if plain:
        parts = [plain_text(), "\n"]
    else:
        streamed = sorted(key for key, value in payload.items() if isinstance(value, Iterator))
        doc = json.dumps(dict(payload, **dict.fromkeys(streamed, _HOLE)), indent=2, sort_keys=True)
        cuts = doc.split(json.dumps(_HOLE)[1:-1])
        parts = [part for key, cut in zip(streamed, cuts) for part in (cut, payload[key])]
        parts.append(cuts[-1] + "\n")
    write = sys.stdout.write
    for part in parts:
        for piece in [part] if isinstance(part, str) else part:
            write(piece)


def _reduce_k(k: int, r: int, s: int, notices: list) -> int:
    period = r + s + 2
    if not 0 <= k < period:
        notices.append(f"k={k} reduced to {k % period} modulo the period {period}")
        return k % period
    return k


def _cmd_iterate(args) -> int:
    poset = RectPoset(args.r, args.s)
    notices: list = []
    k = _reduce_k(args.k, args.r, args.s, notices)
    if args.labels:
        try:
            with open(args.labels) as fh:
                f = Labeling.from_json(json.load(fh))
        except (OSError, ValueError, KeyError, TypeError, AttributeError,
                ParseError) as e:
            raise BirowError(f"cannot read --labels file {args.labels}: {e}")
        if (f.poset.r, f.poset.s) != (args.r, args.s):
            raise BirowError("--labels grid does not match --r/--s")
    else:
        f, = starts(poset, args.mode, 1, args.seed)
    g = iterate_birational(f, k)
    payload = g.to_json()
    if notices:
        payload["notices"] = notices
    _emit(payload, args.plain,
          lambda: "\n".join(f"({p}) = {v}" for p, v in sorted(payload["labels"].items())))
    return 0


def _simple_x_form(fn: Factored, poset: RectPoset) -> Factored:
    """Replace an unreduced x-frame result by a bare variable or reciprocal
    when it equals one (no general reduction is attempted).  fn is expanded
    once and cross-multiplied with each variable; multiplying by a monomial
    keeps the term count, so unequal counts rule out both forms."""
    num, den = fn.expand()
    if len(num.terms) != len(den.terms):
        return fn
    for p in poset.members():
        x = Polynomial.var(xvar(*p))
        if num == den * x:
            return Factored.var(xvar(*p))
        if den == num * x:
            return Factored.var(xvar(*p)) ** -1
    return fn


def _check_range(name: str, value: int, lo: int, hi: int):
    if not lo <= value <= hi:
        raise BirowError(f"--{name} value {value} outside [{lo}, {hi}]")


def _cmd_formula(args) -> int:
    poset = RectPoset(args.r, args.s)
    _check_range("i", args.i, 0, args.r)
    _check_range("j", args.j, 0, args.s)
    notices: list = []
    k = _reduce_k(args.k, args.r, args.s, notices)
    cf = rho_closed(IterateQuery(poset, args.i, args.j, k))
    fn, frame = cf.fn, cf.frame
    if args.frame == "x" and frame == "A":
        fn, frame = a_to_x(fn, poset), "x"
    elif args.frame == "a" and frame == "x":
        raise BirowError("no A-variable form exists for this query (M > k)")
    if frame == "x":
        fn = _simple_x_form(fn, poset)
    text = fn.render()
    payload = {"r": args.r, "s": args.s, "i": args.i, "j": args.j, "k": k,
               "frame": frame, "value": text}
    if notices:
        payload["notices"] = notices
    _emit(payload, args.plain, lambda: text)
    return 0


def _cmd_phi(args) -> int:
    poset = RectPoset(args.r, args.s)
    _check_range("m", args.m, 0, args.r)
    _check_range("n", args.n, 0, args.s)
    _check_range("k", args.k, 0, min(args.r - args.m, args.s - args.n) + 1)
    region = poset.hexagon(args.m, args.n, args.k)
    text = render(poset, phi(region))
    payload = {"r": args.r, "s": args.s, "m": args.m, "n": args.n, "k": args.k,
               "phi": text}
    if args.list_families:
        payload["families"] = [family_json(region, fam) for fam in enum_nilp(region)]
    _emit(payload, args.plain, lambda: text)
    return 0


def _parse_ideal(text: str, poset: RectPoset) -> Heights:
    pts = set()
    if text.strip():
        for part in text.split(";"):
            try:
                pts.add(parse_point_key(part))
            except ValueError:
                raise BirowError(f"--ideal point {part!r} is not of the form i,j")
    return ideal_from_points(poset, pts)


def _orbit_json(orb) -> dict:
    sizes = [sum(h) for h in orb]
    return {
        "length": len(orb),
        "ideals": [ideal_points(h) for h in orb],
        "sizes": sizes,
        "size_average": str(Fraction(sum(sizes), len(orb))),
    }


def _cmd_orbit(args) -> int:
    poset = RectPoset(args.r, args.s)
    if args.ideal is not None:
        walked = [orbit(poset, _parse_ideal(args.ideal, poset))]
    else:
        walked = orbits(poset)
    payload = {"r": args.r, "s": args.s, "orbits": [_orbit_json(o) for o in walked]}
    _emit(payload, args.plain, lambda: "\n".join(
        f"orbit of length {o['length']}, size average {o['size_average']}"
        for o in payload["orbits"]))
    return 0


def _ledger(a) -> list:
    if a.d is None:
        raise BirowError("--d is required for the ledger check")
    return [check_file_ledger(a.r, a.s, a.d)]


def _plucker(a) -> list:
    if a.i is None or a.j is None or a.k is None:
        raise BirowError("--i, --j and --k are required for the plucker check")
    _check_range("i", a.i, 0, a.r)
    _check_range("j", a.j, 0, a.s)
    return [plucker_check(RectPoset(a.r, a.s), a.i, a.j, a.k)]


# Each check: a runner from the parsed flags to its reports, and the optional
# flags it reads; giving any other is a usage error.  The runners look the
# check functions up when called, so one rebound after import (by a tracer or
# a test) is the one that runs.
_CHECKS = {
    "periodicity": (lambda a: [check_periodicity(a.r, a.s, a.mode, a.trials, a.seed)],
                    ("mode", "trials", "seed")),
    "reciprocity": (lambda a: [check_reciprocity(a.r, a.s, a.mode, a.trials, a.seed)],
                    ("mode", "trials", "seed")),
    "main-formula": (lambda a: [check_main_formula(a.r, a.s, a.trials, a.seed)],
                     ("trials", "seed")),
    "file-homomesy": (lambda a: check_file_homomesy(
        a.r, a.s, range(-a.r, a.s + 1) if a.d is None else [a.d], a.mode, a.seed),
                      ("d", "mode", "seed")),
    "plucker": (_plucker, ("i", "j", "k")),
    "ledger": (_ledger, ("d",)),
    "combinatorial": (lambda a: [check_combinatorial_homomesy(a.r, a.s)], ()),
    "antipodal": (lambda a: [check_antipodal_product(a.r, a.s, a.seed)], ("seed",)),
}


def _cmd_verify(args) -> int:
    run, reads = _CHECKS[args.check]
    for flag in ("d", "i", "j", "k", "mode", "trials", "seed"):
        if getattr(args, flag) is not None and flag not in reads:
            raise BirowError(f"--{flag} is not read by the {args.check} check")
    args.trials = 3 if args.trials is None else args.trials
    args.seed = 0 if args.seed is None else args.seed
    if args.trials < 1:
        raise BirowError(f"--trials value {args.trials} is below 1")
    return _emit_reports(run(args), args.plain)


def _emit_reports(reps, plain: bool) -> int:
    reps = sorted(reps, key=lambda rp: rp.name)
    payload = {"reports": [rp.to_json() for rp in reps]}
    _emit(payload, plain,
          lambda: "\n".join(f"{rp.name}: {'PASS' if rp.passed else 'FAIL'}" for rp in reps))
    return 0 if all(rp.passed for rp in reps) else 1


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="birow",
                                  description="Exact birational rowmotion toolkit")
    sub = top.add_subparsers(dest="command", required=True)

    def grid_flags(p):
        p.add_argument("--r", type=int, required=True)
        p.add_argument("--s", type=int, required=True)
        p.add_argument("--plain", action="store_true")

    p = sub.add_parser("iterate", help="apply rowmotion k times")
    grid_flags(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--mode", choices=["symbolic", "rational"], default="symbolic")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--labels", help="JSON labeling file (iterate output format)")
    p.set_defaults(fn=_cmd_iterate)

    p = sub.add_parser("formula", help="closed form for one iterate value")
    grid_flags(p)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--frame", choices=["a", "x"])
    p.set_defaults(fn=_cmd_formula)

    p = sub.add_parser("phi", help="path-family polynomial of a hexagon region")
    grid_flags(p)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--list-families", action="store_true")
    p.set_defaults(fn=_cmd_phi)

    p = sub.add_parser("orbit", help="combinatorial rowmotion orbits")
    grid_flags(p)
    p.add_argument("--ideal", help='order ideal as "i,j;i,j;..." (empty for the empty ideal)')
    p.set_defaults(fn=_cmd_orbit)

    p = sub.add_parser("verify", help="run a verification check")
    p.add_argument("check", choices=list(_CHECKS))
    grid_flags(p)
    p.add_argument("--d", type=int, help="file offset / ledger parameter")
    p.add_argument("--i", type=int)
    p.add_argument("--j", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--mode", choices=["symbolic", "rational"])
    p.add_argument("--trials", type=int, help="default 3")
    p.add_argument("--seed", type=int, help="default 0")
    p.set_defaults(fn=_cmd_verify)
    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (PoleEncountered, ZeroDivisionError) as e:
        print(f"arithmetic fault: {e}", file=sys.stderr)
        return ARITHMETIC_FAULT
    except BudgetExceeded as e:
        print(f"budget exceeded: {e}", file=sys.stderr)
        return BUDGET_EXCEEDED
    except MemoryError:
        print(f"budget exceeded: out of memory in birow {args.command}", file=sys.stderr)
        return BUDGET_EXCEEDED
    except BirowError as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
