"""Self-tests of the benchmark itself (not part of the package's test suite).

    python3 bench/selftest.py              # all, about two minutes
    python3 bench/selftest.py -k Output    # only the output check

The output check must count a wrong stdout as a failed task.  The tracer
must reach each layer named in METRICS.md, leave every output unchanged, and
give the same call counts on a second traced run.
"""

from __future__ import annotations

import json
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS, Task, build_tasks, load_expected  # noqa: E402

SEED = 1
# (workload, per-layer metric) pairs that must be non-zero in a traced run.
COVERAGE = [
    ("phi-large", "nilp.phi.calls"),
    ("phi-large", "exactnum.from_dict.calls"),
    ("symbolic-sweep", "avar.a_to_x.calls"),
    ("symbolic-sweep", "bounce.swap.calls"),
    ("exact-dynamics", "dynamics.toggles"),
]


def declared(kind: str) -> set:
    with open(BENCH.parent / "BENCHMARK.json") as fh:
        return {m["name"] for m in json.load(fh)[kind]}


class OutputCheck(unittest.TestCase):
    def setUp(self):
        self.main = worker.import_birow().cli.main

    def test_corrupted_digest_counts_as_failure(self):
        task = Task("phi --r 5 --s 5 --m 0 --n 0 --k 4",
                    tuple("phi --r 5 --s 5 --m 0 --n 0 --k 4".split()))
        expected = load_expected()
        [good] = worker.run_tasks(self.main, [task], expected)
        self.assertTrue(good["ok"])
        corrupted = dict(expected, **{task.template: "0" * 64})
        [bad] = worker.run_tasks(self.main, [task], corrupted)
        self.assertFalse(bad["ok"])
        self.assertEqual(good["digest"], bad["digest"])

    def test_seeded_task_needs_every_report_passed(self):
        [task] = [t for t in build_tasks("exact-dynamics", SEED)
                  if t.template.startswith("verify antipodal")]
        [rec] = worker.run_tasks(self.main, [task], {})
        self.assertTrue(rec["ok"])
        failing = json.dumps({"reports": [{"passed": True}, {"passed": False}]})
        self.assertFalse(worker.task_ok(task, failing, 0, {}))
        self.assertFalse(worker.task_ok(task, "", 0, {}))

    def test_only_generated_seeds_reach_the_program(self):
        for name in WORKLOADS:
            a, b = build_tasks(name, 7), build_tasks(name, 7)
            self.assertEqual(a, b)
            for task in a:
                if task.seeded:
                    self.assertNotIn("{seed}", task.argv)
        seeds = [t.argv for t in build_tasks("exact-dynamics", 7) if t.seeded]
        self.assertNotEqual(seeds, [t.argv for t in build_tasks("exact-dynamics", 8)
                                    if t.seeded])

    def test_unseeded_templates_have_digests(self):
        expected = load_expected()
        for templates in WORKLOADS.values():
            for t in templates:
                self.assertEqual("{seed}" in t, t not in expected, t)


class TracerCoverage(unittest.TestCase):
    def test_traced_runs(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                result, _ = run.run(name, SEED, seconds=1, trace=True)
                # correct also requires traced and untraced digests to agree
                self.assertTrue(result["correct"])
                self.assertEqual(set(result["metrics"]), declared("per_layer"))
                for workload, metric in COVERAGE:
                    if workload == name:
                        self.assertGreater(result["metrics"][metric]["value"], 0, metric)
                deadline = run.clock() + run.RUN_LIMIT_S
                first = run.spawn(deadline, name, SEED, "--trace")["trace"]
                second = run.spawn(deadline, name, SEED, "--trace")["trace"]
                self.assertEqual({k: v[0] for k, v in first["spans"].items()},
                                 {k: v[0] for k, v in second["spans"].items()})
                self.assertEqual(first["counters"], second["counters"])
                self.assertEqual(first["distinct_regions"], second["distinct_regions"])

    def test_untraced_run_reports_end_to_end_metrics(self):
        result, record = run.run("exact-dynamics", SEED, seconds=1, trace=False)
        self.assertTrue(result["correct"])
        self.assertEqual(set(result["metrics"]), declared("end_to_end"))
        for key in ("seed", "commit", "python", "nproc"):
            self.assertIn(key, record)


if __name__ == "__main__":
    unittest.main()
