"""Outside-in tracing of the ``birow`` package.

Every public function of every ``birow`` module, and every public method
(plus the arithmetic operators) of every public class defined there, is
replaced by a wrapper that counts calls and records inclusive time and self
time: the span's duration minus the spans of the wrapped calls it made.  A
function is rebound at every module attribute that refers to it, because
``from .nilp import phi`` copies the binding into the importing module.

A few counters are read from arguments and results (``OBSERVERS``); the time
spent reading them is charged to no span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time
from fractions import Fraction
from typing import Callable, Dict, List

OPERATORS = {"__add__", "__sub__", "__mul__", "__truediv__", "__pow__", "__neg__"}


def _decimal_digits(n: int) -> int:
    """Digits of a positive integer without converting it to a string
    (``str`` refuses integers beyond 4300 digits by default)."""
    d = max(1, int(n.bit_length() * 0.30102999566398))
    while 10 ** d <= n:
        d += 1
    while d > 1 and 10 ** (d - 1) > n:
        d -= 1
    return d


class Tracer:
    def __init__(self):
        # span key -> [calls, self seconds, inclusive seconds]
        self.spans: Dict[str, List[float]] = {}
        self.counters: Dict[str, int] = {
            "families": 0, "max_terms": 0, "max_coeff_bits": 0,
            "max_denominator_digits": 0}
        self.regions: set = set()
        self._stack: List[float] = []

    # -- observers: counters read from arguments and results -----------------

    def _enum_nilp(self, args, result):
        self.counters["families"] += len(result)

    def _phi(self, args, result):
        region = args[0]
        p = region.poset
        self.regions.add((p.r, p.s, p.imin, p.jmin, region.m, region.n, region.k))

    def _from_dict(self, args, result):
        c = self.counters
        c["max_terms"] = max(c["max_terms"], len(result.terms))
        bits = max((abs(k).bit_length() for _, k in result.terms), default=0)
        c["max_coeff_bits"] = max(c["max_coeff_bits"], bits)

    def _rowmotion(self, args, result):
        dens = [v.denominator for v in result.values.values() if isinstance(v, Fraction)]
        if dens:
            c = self.counters
            c["max_denominator_digits"] = max(c["max_denominator_digits"],
                                              _decimal_digits(max(dens)))

    OBSERVERS = {
        "nilp.enum_nilp": _enum_nilp,
        "nilp.phi": _phi,
        "exactnum.Polynomial.from_dict": _from_dict,
        "dynamics.rowmotion_birational": _rowmotion,
    }

    # -- wrapping -------------------------------------------------------------

    def wrap(self, fn: Callable, key: str) -> Callable:
        stat = self.spans.setdefault(key, [0, 0.0, 0.0])
        stack = self._stack
        observe = self.OBSERVERS.get(key)
        now = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = now()
            done = False
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                t1 = now()
                child = stack.pop()
                stat[0] += 1
                stat[1] += t1 - t0 - child
                stat[2] += t1 - t0
                if done and observe is not None:
                    observe(self, args, result)
                if stack:
                    stack[-1] += now() - t0

        return traced

    def install(self, package) -> None:
        """Wrap the public functions and methods of every module of
        ``package`` (an imported package object)."""
        modules = [importlib.import_module(f"{package.__name__}.{info.name}")
                   for info in pkgutil.iter_modules(package.__path__)]
        replaced = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[obj] = self.wrap(obj, f"{layer}.{name}")
                elif inspect.isclass(obj):
                    self._wrap_class(obj, f"{layer}.{name}")
        for mod in modules + [package]:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    setattr(mod, name, replaced[obj])

    def _wrap_class(self, cls, prefix: str) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in OPERATORS:
                continue
            key = f"{prefix}.{attr}"
            if isinstance(raw, staticmethod):
                setattr(cls, attr, staticmethod(self.wrap(raw.__func__, key)))
            elif inspect.isfunction(raw):
                setattr(cls, attr, self.wrap(raw, key))

    def snapshot(self) -> dict:
        return {"spans": self.spans, "counters": self.counters,
                "distinct_regions": len(self.regions)}
