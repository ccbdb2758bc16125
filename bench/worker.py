"""Run one workload's task list once, in this fresh interpreter, through
``birow.cli.main`` with stdout captured, and print one JSON line.

    python3 bench/worker.py --workload NAME --seed N [--trace] [--setup-only]

``setup_end`` is the CLOCK_MONOTONIC time at which ``birow`` is imported and
the task list is built; the parent subtracts its spawn time from it.  Each
task is checked: an unseeded one must reproduce its recorded stdout digest,
a seeded one (a ``verify`` command) must exit 0 with every report passed.
The set-up, and each task, is followed by a fixed spin loop timed as a
``ref_s``, so that the parent can cancel the host's drifting speed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from workloads import build_tasks, load_expected

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
SPIN_ITERATIONS = 600_000


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def spin() -> float:
    """Seconds taken by a fixed integer loop that shares no code with
    ``birow``, so a change to the program cannot speed it up."""
    t0 = clock()
    acc = 0
    for i in range(SPIN_ITERATIONS):
        acc += i * i
    return clock() - t0


def import_birow():
    """Import ``birow`` from the checkout's ``src``, never an installed copy."""
    if not (SRC / "birow" / "cli.py").is_file():
        raise SystemExit(f"worker: no birow sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import birow
    import birow.cli
    if not Path(birow.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"worker: imported birow from {birow.__file__}, not {SRC}")
    return birow


def task_ok(task, stdout: str, rc, expected: dict) -> bool:
    """The output check behind ``fail_ratio``."""
    if rc != 0:
        return False
    if not task.seeded:
        return hashlib.sha256(stdout.encode()).hexdigest() == expected.get(task.template)
    try:
        reports = json.loads(stdout)["reports"]
    except (ValueError, KeyError, TypeError):
        return False
    return bool(reports) and all(rep.get("passed") is True for rep in reports)


def run_tasks(main, tasks, expected: dict) -> list:
    """Run each task through ``main``; a task that raises has failed."""
    out = []
    ref = spin()
    for task in tasks:
        buf = io.StringIO()
        t0 = clock()
        try:
            with contextlib.redirect_stdout(buf):
                rc = main(list(task.argv))
        except Exception as e:  # a crash is a failed task, not a failed run
            traceback.print_exc()
            rc = f"{type(e).__name__}: {e}"
        except SystemExit as e:  # argparse rejects the command line
            rc = f"exit {e.code}"
        seconds = clock() - t0
        stdout = buf.getvalue()
        after = spin()
        out.append({"cmd": " ".join(task.argv), "s": seconds,
                    "ref_s": (ref + after) / 2, "rc": rc,
                    "ok": task_ok(task, stdout, rc, expected),
                    "digest": hashlib.sha256(stdout.encode()).hexdigest()})
        ref = after
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    birow = import_birow()
    tasks = build_tasks(args.workload, args.seed)
    expected = load_expected()
    setup_end = clock()
    record = {"setup_end": setup_end, "setup_ref_s": spin()}
    if not args.setup_only:
        tracer = None
        if args.trace:
            from tracer import Tracer
            tracer = Tracer()
            tracer.install(birow)
        results = run_tasks(birow.cli.main, tasks, expected)
        record.update(
            wall_s=sum(t["s"] for t in results),
            maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            tasks=results,
            trace=tracer.snapshot() if tracer else None)
    sys.__stdout__.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
