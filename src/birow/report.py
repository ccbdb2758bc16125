"""Structured pass/fail results for verification checks."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional


@dataclass
class Report:
    name: str
    passed: bool = True
    trials: int = 0
    seed: Optional[int] = None
    witnesses: List[dict] = field(default_factory=list)
    notes: dict = field(default_factory=dict)

    def fail(self, witness: dict):
        self.passed = False
        self.witnesses.append(witness)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "seed": self.seed,
            "trials": self.trials,
            "witnesses": self.witnesses,
            "notes": self.notes,
        }
