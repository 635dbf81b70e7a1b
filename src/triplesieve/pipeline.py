"""The sixteen weighted-sieve term coefficients, their combination, and the checks.

Every term scalarizes to

    coefficient = 4 / (delta1 * delta2) * extra_factor * brace_value

where delta1, delta2 are the two level-of-distribution exponents of the
table, 0.475 and 0.025 for every term (prefactor 6400/19 = 336.8421...), the
extra factor is 1, 0.475, a named 1-D integral, or one of the aggregated
constants (E, L, C0), and the brace combines the sieve curves:
lower-direction braces f1*F2 + F1*f2 - F1*F2, upper-direction braces F1*F2.
The rule reproduces the uniform two-sided bound exactly: with both uniform
exponents 0.2 and both curves at s = 2 it collapses to 4/(0.2*0.2) * 1 = 100.

A term's direction is the side of Lemma 3.1 its weight sits on: LOWER_WEIGHTS
or UPPER_WEIGHTS.  The rest of the term table is data (data/bound_terms.json),
not code: the two pairs of exponents, and per term its label, extra-factor
reference, brace slots and the published decimal string it is compared
against.  The package reads only that shipped file.  The checks against the
published numbers live here too: the verification report and the three tail
bounds of the Buchstab function w.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache
from importlib import resources

import numpy as np

from . import constants
from .errors import DomainError
from .quadrature import log_basic_integral, log_shift_integral, named_integral_value
from .sieve_functions import W_MAX, buchstab_w_many, lower_f0, upper_F0

TERM_LABELS = (
    "S11", "S12", "S21", "S22", "S31", "S32", "S41", "S42",
    "S51", "S52", "S61", "S62", "S71", "S72", "S73", "S74",
)
LOWER_WEIGHTS = {"S11": 3, "S12": 1, "S21": 1, "S22": 1}
UPPER_WEIGHTS = {
    "S31": 1, "S32": 1, "S41": 1, "S42": 1, "S51": 1, "S52": 1,
    "S61": 2, "S62": 2, "S71": 1, "S72": 1, "S73": 1, "S74": 1,
}

# The report's rows in order, each with the side its check takes: C0, E and L
# are published upper constants, and C3 and the five aggregates plain
# comparisons.
_REPORT_DIRECTIONS = {
    "C3": "two_sided", "C0": "upper", "E": "upper", "L": "upper",
    **{label: "lower" if label in LOWER_WEIGHTS else "upper" for label in TERM_LABELS},
    **dict.fromkeys(
        ("lower_sum", "upper_sum", "margin", "theorem_constant", "upper_uniform"), "two_sided"
    ),
}


@dataclass(frozen=True, eq=False)
class BoundTerm:
    label: str
    direction: str
    extra: dict
    brace: dict
    paper_value: str

    @property
    def paper(self) -> float:
        return float(self.paper_value)


@cache
def load_manifest() -> dict:
    """The term manifest shipped in the package, data/bound_terms.json."""
    # data/ is not a package (no __init__.py), so reach it from the package
    # root: a namespace package cannot be imported from a zipped install
    return json.loads(resources.files("triplesieve").joinpath("data/bound_terms.json").read_text())


@cache
def load_terms() -> dict[str, BoundTerm]:
    """The manifest's sixteen terms by label, each with its side of Lemma 3.1."""
    return {
        row["label"]: BoundTerm(
            label=row["label"],
            direction=_REPORT_DIRECTIONS[row["label"]],
            extra=row["extra"],
            brace=row["brace"],
            paper_value=row["paper_value"],
        )
        for row in load_manifest()["terms"]
    }


def prefactor(deltas: dict) -> Fraction:
    """4/(delta1 delta2) for a manifest pair of exponents, exact."""
    return 4 / (Fraction(deltas["delta1"]) * Fraction(deltas["delta2"]))


def _extra_value(extra: dict) -> float:
    kind = extra["kind"]
    if kind == "const":
        return float(Fraction(extra["value"]))
    if kind == "log_basic_integral":
        return log_basic_integral(extra["a"], extra["b"])
    if kind == "log_shift_integral":
        return log_shift_integral(extra["c"], extra["d"], extra["a"], extra["b"])
    return getattr(constants, extra["name"])()  # "op": a zero-argument function of constants


def _slot_curves(slot: dict) -> tuple[float, float | None]:
    """(upper, lower) value pair a brace slot contributes; a lone integral has no lower."""
    if "fn" in slot:
        s = float(slot["fn"])
        return upper_F0(s), lower_f0(s)
    if "pair" in slot:
        upper_name, lower_name = slot["pair"]
        return named_integral_value(upper_name), named_integral_value(lower_name)
    return named_integral_value(slot["integral"]), None


def brace_value(term: BoundTerm) -> float:
    big1, low1 = _slot_curves(term.brace["slot1"])
    big2, low2 = _slot_curves(term.brace["slot2"])
    if term.direction == "upper":
        return big1 * big2
    return low1 * big2 + big1 * low2 - big1 * big2


@lru_cache(maxsize=64)
def term_coefficient(label: str) -> float:
    """Scalar multiplying the common main-term normalization for one S term."""
    terms = load_terms()
    if label not in terms:
        raise DomainError(f"unknown term label {label!r}")
    term = terms[label]
    scale = float(prefactor(load_manifest()["deltas"]))
    return scale * _extra_value(term.extra) * brace_value(term)


@dataclass(frozen=True)
class CombinedBounds:
    lower_sum: float
    upper_sum: float
    margin: float
    theorem_constant: float
    flagged: bool


def _weighted_sums(values: dict[str, float]) -> tuple[float, float]:
    """Lemma 3.1's lower and upper weighted sums of the term values."""
    lower = sum(w * values[lbl] for lbl, w in LOWER_WEIGHTS.items())
    upper = sum(w * values[lbl] for lbl, w in UPPER_WEIGHTS.items())
    return lower, upper


def combine_lemma31() -> CombinedBounds:
    """Weighted recombination of all sixteen terms into the final margin."""
    lower, upper = _weighted_sums({label: term_coefficient(label) for label in TERM_LABELS})
    margin = lower - upper
    return CombinedBounds(lower, upper, margin, margin / 4.0, flagged=margin <= 0.0)


def upper_bound_constant() -> float:
    """The two-sided sifting constant: the manifest's uniform exponents 0.2/0.2,
    both curves at s = 2.

    The exact prefactor leaves the result the float 100.0 with no tunable input.
    """
    return float(prefactor(load_manifest()["uniform_deltas"])) * upper_F0(2.0) * upper_F0(2.0)


# ---------------------------------------------------------------------------
# Checks against the published numbers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstantCheck:
    """One computed-vs-published comparison.

    direction 'lower' means the published number is a lower bound that the
    recomputation must not undershoot by more than the tolerance (relative);
    'upper' the mirror image; 'two_sided' a plain relative comparison.
    """

    label: str
    computed: float
    paper: float
    direction: str
    passed: bool

    @property
    def rel_diff(self) -> float:
        if self.paper == 0.0:
            return math.inf if self.computed else 0.0
        return (self.computed - self.paper) / self.paper

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "flag"


def make_check(
    label: str, computed: float, paper: float, direction: str, tolerance: float
) -> ConstantCheck:
    """A ConstantCheck with the direction-aware pass rule at relative ``tolerance``."""
    if not math.isfinite(computed):
        passed = False
    elif direction == "lower":
        passed = computed >= paper - tolerance * abs(paper)
    elif direction == "upper":
        passed = computed <= paper + tolerance * abs(paper)
    else:
        passed = abs(computed - paper) <= tolerance * abs(paper)
    return ConstantCheck(label, computed, paper, direction, passed)


def report_labels() -> tuple[str, ...]:
    """The labels of the report's rows, in order."""
    return tuple(_REPORT_DIRECTIONS)


def verification_report(
    tolerance: float = 0.01,
    overrides: dict[str, float] | None = None,
    use_paper_values: bool = False,
) -> list[ConstantCheck]:
    """One direction-aware check per published constant.

    ``tolerance`` is the default relative slack; ``overrides`` maps labels to
    per-row slacks (unknown labels are rejected).  ``use_paper_values``
    substitutes the published numbers for the recomputation, which turns every
    row into an identity check of the report plumbing.
    """
    overrides = overrides or {}
    unknown = set(overrides) - set(report_labels())
    if unknown:
        raise DomainError(f"unknown labels in tolerance overrides: {sorted(unknown)}")
    doc = load_manifest()
    published = {
        label: float(text) for label, text in (doc["auxiliary"] | doc["aggregates"]).items()
    }
    published.update((term.label, term.paper) for term in load_terms().values())
    if use_paper_values:
        values = dict(published)
    else:
        values = {
            "C3": constants.constant_C3().value,
            "C0": constants.constant_C0(),
            "E": constants.coefficient_E(),
            "L": constants.coefficient_L(),
            **{label: term_coefficient(label) for label in TERM_LABELS},
        }
    values["lower_sum"], values["upper_sum"] = _weighted_sums(values)
    # identities on the published totals in both modes
    margin = published["lower_sum"] - published["upper_sum"]
    values.update(margin=margin, theorem_constant=margin / 4.0,
                  upper_uniform=upper_bound_constant())
    return [
        make_check(label, values[label], published[label], _REPORT_DIRECTIONS[label],
                   overrides.get(label, tolerance))
        for label in report_labels()
    ]


def verify_buchstab_bounds() -> list[ConstantCheck]:
    """Check the three tail bounds of w at every point of the 0.01 grid on [2, 64].

    Returns one ConstantCheck per bound; `computed` is the grid maximum of w
    from that bound's start to 64.
    """
    bounds = (
        ("w_max_from_2", 2.0, constants.W_BOUND_FROM_2),
        ("w_max_from_3", 3.0, constants.W_TAIL_BOUND_FROM_3),
        ("w_max_from_4", 4.0, constants.W_TAIL_BOUND_FROM_4),
    )
    checks = []
    for label, lo, bound in bounds:
        points = np.linspace(lo, W_MAX, round((W_MAX - lo) * 100) + 1)
        peak = float(buchstab_w_many(points).max())
        checks.append(make_check(label, peak, bound, "upper", 0.0))
    return checks
