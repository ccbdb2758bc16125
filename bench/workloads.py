"""The benchmark's workloads: fixed lists of ``birow`` command lines.

A ``{seed}`` in a template is replaced by a seed drawn from the workload
seed, so only generated seeds reach the program.  Why each workload was
chosen is written in METRICS.md.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

WORKLOADS: Dict[str, Tuple[str, ...]] = {
    "phi-large": (
        "phi --r 5 --s 5 --m 0 --n 0 --k 3",
        "phi --r 4 --s 4 --m 0 --n 0 --k 2 --list-families",
        "phi --r 5 --s 5 --m 0 --n 0 --k 4",
        "phi --r 5 --s 5 --m 0 --n 0 --k 1",
    ),
    "symbolic-sweep": (
        "verify main-formula --r 3 --s 3 --trials 1 --seed {seed}",
        "verify file-homomesy --r 4 --s 4 --d 0 --mode symbolic",
        "verify plucker --r 4 --s 4 --i 3 --j 3 --k 3",
        "verify ledger --r 5 --s 4 --d 3",
        "formula --r 3 --s 3 --i 2 --j 1 --k 6 --frame x",
        "iterate --r 3 --s 1 --k 4",
        "verify periodicity --r 2 --s 1",
    ),
    "exact-dynamics": (
        "verify periodicity --r 15 --s 15 --mode rational --trials 1 --seed {seed}",
        "verify reciprocity --r 8 --s 8 --mode rational --trials 3 --seed {seed}",
        "verify antipodal --r 8 --s 8 --seed {seed}",
        "verify file-homomesy --r 10 --s 10 --d 0 --mode rational --seed {seed}",
        "verify combinatorial --r 5 --s 5",
        "orbit --r 4 --s 4",
    ),
}

# sha256 of the stdout of every unseeded template, recorded at the commit
# that introduced the benchmark.  CLI output must stay byte-identical.
EXPECTED_PATH = Path(__file__).resolve().parent / "expected_digests.json"


@dataclass(frozen=True)
class Task:
    template: str
    argv: Tuple[str, ...]

    @property
    def seeded(self) -> bool:
        return "{seed}" in self.template


def build_tasks(workload: str, seed: int) -> List[Task]:
    """The workload's command lines, with every ``{seed}`` drawn from
    ``seed``; the same seed gives the same commands."""
    rng = random.Random(seed)
    out = []
    for template in WORKLOADS[workload]:
        line = template.replace("{seed}", str(rng.randrange(1, 10 ** 6)))
        out.append(Task(template, tuple(line.split())))
    return out


def load_expected() -> Dict[str, str]:
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)
