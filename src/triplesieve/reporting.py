"""Check records shared by the verification report and the Buchstab bound checks."""

from __future__ import annotations

import math
from dataclasses import dataclass

DIRECTIONS = ("lower", "upper", "two_sided")


@dataclass(frozen=True)
class ConstantCheck:
    """One computed-vs-published comparison.

    direction 'lower' means the published number is a lower bound that the
    recomputation must not undershoot by more than `tolerance` (relative);
    'upper' the mirror image; 'two_sided' a plain relative comparison.
    """

    label: str
    computed: float
    paper: float
    direction: str
    tolerance: float
    passed: bool
    note: str

    @property
    def rel_diff(self) -> float:
        if self.paper == 0.0:
            return math.inf if self.computed else 0.0
        return (self.computed - self.paper) / self.paper

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "flag"


def make_check(
    label: str,
    computed: float,
    paper: float,
    direction: str,
    tolerance: float,
    note: str,
) -> ConstantCheck:
    """Build a ConstantCheck with the direction-aware pass rule applied."""
    if direction not in DIRECTIONS:
        raise ValueError(f"unknown direction {direction!r}")
    if not math.isfinite(computed):
        passed = False
    elif direction == "lower":
        passed = computed >= paper - tolerance * abs(paper)
    elif direction == "upper":
        passed = computed <= paper + tolerance * abs(paper)
    else:
        passed = abs(computed - paper) <= tolerance * abs(paper)
    return ConstantCheck(label, computed, paper, direction, tolerance, passed, note)
