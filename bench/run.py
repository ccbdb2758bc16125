"""Benchmark of the ``birow`` command line.

    python3 bench/run.py --workload phi-large --seed 1 --seconds 40 --trace 0

Each repetition runs the workload's task list once in a fresh interpreter
(``worker.py``), so no cache outlives one ``birow`` command list.  A run
repeats the task list while another repetition fits in ``--seconds`` (at
least once); before each repetition it starts ``SETUPS_PER_REP``
interpreters that only import ``birow`` and build the task list, to sample
set-up time.  Times are reported in seconds at a fixed reference speed (see
``REF_SPIN_S``); the record keeps the raw seconds.  With ``--trace 1`` the
run starts with one repetition under the tracer and reports the per-layer
metrics instead of the end-to-end ones.  ``--workload all`` runs every
workload in turn.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Before it, each workload prints its record as
one JSON line (seed, commit, Python version, CPU count, every repetition)
and a table of its metrics.  See METRICS.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
from worker import clock  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUPS_PER_REP = 4
# The host's speed drifts by 20-50% over minutes, and most of the drift hits
# all code alike.  A task's (or set-up's) time is therefore divided by the time of the spin
# loop next to it (worker.spin) and multiplied by this nominal spin time,
# giving seconds at a fixed reference speed.
REF_SPIN_S = 0.05
# A run must end within 180 s; every worker it starts is killed at this limit.
RUN_LIMIT_S = 170
# A fixed hash seed makes set iteration order, and so the work done and the
# traced call counts, a function of the workload seed alone.
HASH_SEED = "0"

# Inclusive time of each verify check, by metric name.
CHECKS = {
    "periodicity": "verify.check_periodicity",
    "reciprocity": "verify.check_reciprocity",
    "antipodal": "verify.check_antipodal_product",
    "main_formula": "verify.check_main_formula",
    "file_homomesy": "verify.check_file_homomesy",
    "combinatorial": "verify.check_combinatorial_homomesy",
    "ledger": "verify.check_file_ledger",
    "plucker": "bounce.plucker_check",
}
LAYERS = ("exactnum", "nilp", "avar", "closed_form", "bounce", "dynamics",
          "grid_poset", "cli")


class WorkerFailed(RuntimeError):
    pass


def spawn(deadline: float, workload: str, seed: int, *flags: str) -> dict:
    """Run ``worker.py`` once and return its record, with ``setup_s`` (spawn
    to ``birow`` imported and task list built) added, raw and scaled to the
    reference speed.  The worker is killed at ``deadline`` (a ``clock()``
    time)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONHASHSEED"] = HASH_SEED
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), *flags]
    t0 = clock()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=max(deadline - t0, 0.001))
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"run exceeded {RUN_LIMIT_S} s in: {cmd}")
    if proc.returncode != 0:
        raise WorkerFailed(f"worker exited {proc.returncode}: {cmd}")
    try:
        rec = json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        raise WorkerFailed(f"worker printed no record: {cmd}")
    rec["setup_s"] = rec["setup_end"] - t0
    rec["scaled_setup_s"] = REF_SPIN_S * rec["setup_s"] / rec["setup_ref_s"]
    return rec


def layer_metrics(snap: dict, overhead_s: float) -> dict:
    """The per-layer metrics of one traced repetition (METRICS.md)."""
    spans, counters = snap["spans"], snap["counters"]
    missing = set()

    def span(key, field):
        if key not in spans:
            missing.add(key)
            return 0
        return spans[key][field]

    def calls(*keys):
        return sum(span(k, 0) for k in keys)

    def self_s(*keys):
        return sum(span(k, 1) for k in keys)

    m = {f"{layer}.self_s": (sum(v[1] for k, v in spans.items()
                                 if k.startswith(layer + ".")), "s")
         for layer in LAYERS}
    poly = "exactnum.Polynomial."
    m.update({
        "exactnum.from_dict.calls": (calls(poly + "from_dict"), "count"),
        "exactnum.from_dict.self_s": (self_s(poly + "from_dict"), "s"),
        "exactnum.poly_add.calls": (calls(poly + "__add__"), "count"),
        "exactnum.poly_add.self_s": (self_s(poly + "__add__"), "s"),
        "exactnum.poly_mul.calls": (calls(poly + "__mul__"), "count"),
        "exactnum.poly_mul.self_s": (self_s(poly + "__mul__"), "s"),
        "exactnum.render.self_s": (sum(v[1] for k, v in spans.items()
                                       if k.startswith("exactnum.")
                                       and k.endswith(".render")), "s"),
        "exactnum.factored_add.self_s": (self_s("exactnum.Factored.__add__"), "s"),
        "exactnum.to_ratfn.self_s": (self_s("exactnum.Factored.to_ratfn"), "s"),
        "exactnum.substitute.self_s": (self_s("exactnum.substitute"), "s"),
        "exactnum.evaluate.self_s": (self_s("exactnum.evaluate", poly + "evaluate"), "s"),
        "exactnum.ratfn_equal.self_s": (self_s("exactnum.ratfn_equal"), "s"),
        "exactnum.parallel.calls": (calls("exactnum.parallel"), "count"),
        "exactnum.max_terms": (counters["max_terms"], "count"),
        "exactnum.max_coeff_bits": (counters["max_coeff_bits"], "bits"),
        "nilp.enum_nilp.calls": (calls("nilp.enum_nilp"), "count"),
        "nilp.enum_nilp.self_s": (self_s("nilp.enum_nilp"), "s"),
        "nilp.families": (counters["families"], "count"),
        "nilp.phi.calls": (calls("nilp.phi"), "count"),
        "nilp.phi.distinct_ratio": (snap["distinct_regions"] / calls("nilp.phi")
                                    if calls("nilp.phi") else 0.0, "ratio"),
        "avar.a_to_x.calls": (calls("avar.a_to_x"), "count"),
        "avar.a_to_x.self_s": (self_s("avar.a_to_x"), "s"),
        "avar.shift_poly.self_s": (self_s("avar.shift_poly"), "s"),
        "closed_form.rho_closed.calls": (calls("closed_form.rho_closed"), "count"),
        "bounce.swap.calls": (calls("bounce.swap"), "count"),
        "bounce.hugging_families.self_s": (self_s("bounce.hugging_families"), "s"),
        "dynamics.rowmotion_birational.calls": (calls("dynamics.rowmotion_birational"), "count"),
        "dynamics.toggles": (calls("dynamics.toggle_birational", "dynamics.toggle_pl"), "count"),
        "dynamics.rowmotion_pl.self_s": (self_s("dynamics.rowmotion_pl"), "s"),
        "dynamics.all_order_ideals.calls": (calls("dynamics.all_order_ideals"), "count"),
        "dynamics.max_denominator_digits": (counters["max_denominator_digits"], "digits"),
        "grid_poset.hexagon.calls": (calls("grid_poset.RectPoset.hexagon"), "count"),
        "cli.main.calls": (calls("cli.main"), "count"),
        "trace.overhead_s": (overhead_s, "s"),
    })
    for name, key in CHECKS.items():
        m[f"verify.{name}.s"] = (span(key, 2), "s")
    if missing:
        print(f"warning: no span named {', '.join(sorted(missing))}", file=sys.stderr)
    return {k: {"value": v, "unit": u} for k, (v, u) in sorted(m.items())}


def commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def scaled_wall(reps: list) -> float:
    """Seconds at the reference speed to run the task list once: the sum
    over tasks of the task's median scaled time across repetitions.  Summing
    per-task medians also damps a slow spell that hits part of one
    repetition."""
    return REF_SPIN_S * sum(
        statistics.median(r["tasks"][i]["s"] / r["tasks"][i]["ref_s"] for r in reps)
        for i in range(len(reps[0]["tasks"])))


def run(workload: str, seed: int, seconds: int, trace: bool) -> tuple:
    """One run of one workload: returns (result, record)."""
    start = clock()
    deadline = start + RUN_LIMIT_S
    traced = spawn(deadline, workload, seed, "--trace") if trace else None
    setups, reps = [], []
    while not reps or clock() - start + reps[-1]["wall_s"] <= seconds:
        setups += [spawn(deadline, workload, seed, "--setup-only")
                   for _ in range(SETUPS_PER_REP)]
        reps.append(spawn(deadline, workload, seed))
    setups += reps

    every = reps + ([traced] if traced else [])
    tasks = [t for r in every for t in r["tasks"]]
    failed = sum(not t["ok"] for t in tasks)
    digests = {tuple(t["digest"] for t in r["tasks"]) for r in every}
    wall = scaled_wall(reps)
    if trace:
        metrics = layer_metrics(traced["trace"], scaled_wall([traced]) - wall)
    else:
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "setup_s": {"value": statistics.median(r["scaled_setup_s"] for r in setups),
                        "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["maxrss_kb"] for r in reps) / 1024,
                            "unit": "MB"},
            "pass_ratio": {"value": 1 - failed / len(tasks), "unit": "ratio"},
        }
    result = {"correct": failed == 0 and len(digests) == 1, "attempted": len(tasks),
              "failed": failed, "metrics": metrics}
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "commit": commit(), "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "fail_ratio": failed / len(tasks),
        "setup_s": [r["setup_s"] for r in setups],
        "setup_ref_s": [r["setup_ref_s"] for r in setups],
        "wall_s": [r["wall_s"] for r in reps],
        "traced_wall_s": traced["wall_s"] if traced else None,
        "tasks": [{"cmd": t["cmd"], "s": [r["tasks"][i]["s"] for r in every],
                   "ref_s": [r["tasks"][i]["ref_s"] for r in every],
                   "ok": all(r["tasks"][i]["ok"] for r in every)}
                  for i, t in enumerate(reps[0]["tasks"])],
    }
    return result, record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "birow" / "cli.py").is_file():
        print(f"error: no birow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name], record = run(name, args.seed, args.seconds, bool(args.trace))
            print(json.dumps({"record": record}), flush=True)
            for metric, mv in results[name]["metrics"].items():
                print(f"{name:15} {metric:36} {mv['value']:>14.6g} {mv['unit']}")
    except WorkerFailed as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    if len(names) == 1:
        out = results[names[0]]
    else:
        out = {"correct": all(r["correct"] for r in results.values()),
               "attempted": sum(r["attempted"] for r in results.values()),
               "failed": sum(r["failed"] for r in results.values()),
               "metrics": {f"{n}.{k}": v for n, r in results.items()
                           for k, v in r["metrics"].items()}}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
