"""Assembly of the sixteen weighted-sieve term coefficients and their combination.

Every term scalarizes to

    coefficient = 4 / (delta1 * delta2) * extra_factor * brace_value

where delta1, delta2 are the two level-of-distribution exponents of the
table, 0.475 and 0.025 for every term (prefactor 6400/19 = 336.8421...), the
extra factor is 1, 0.475, a named 1-D integral, or one of the aggregated
constants (E, L, C0), and the brace combines the sieve curves:
lower-direction braces f1*F2 + F1*f2 - F1*F2, upper-direction braces F1*F2.
The rule reproduces the uniform two-sided bound exactly: with both uniform
exponents 0.2 and both curves at s = 2 it collapses to 4/(0.2*0.2) * 1 = 100.

The term table is data (data/bound_terms.json), not code: the two pairs of
exponents, and per term its label, direction, extra-factor reference, brace
slots and the published decimal string it is compared against.  The package
reads only that shipped file.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache
from importlib import resources

from . import constants
from .errors import DomainError
from .quadrature import log_basic_integral, log_shift_integral, named_integral_value
from .reporting import ConstantCheck, make_check
from .sieve_functions import lower_f0, upper_F0

TERM_LABELS = (
    "S11", "S12", "S21", "S22", "S31", "S32", "S41", "S42",
    "S51", "S52", "S61", "S62", "S71", "S72", "S73", "S74",
)
LOWER_WEIGHTS = {"S11": 3, "S12": 1, "S21": 1, "S22": 1}
UPPER_WEIGHTS = {
    "S31": 1, "S32": 1, "S41": 1, "S42": 1, "S51": 1, "S52": 1,
    "S61": 2, "S62": 2, "S71": 1, "S72": 1, "S73": 1, "S74": 1,
}

_OPS = {
    "coefficient_E": lambda: constants.coefficient_E(),
    "coefficient_L": lambda: constants.coefficient_L(),
    "constant_C0": lambda: constants.constant_C0(),
}


class ManifestError(ValueError):
    """The term manifest is malformed."""


@dataclass(frozen=True, eq=False)
class BoundTerm:
    label: str
    direction: str
    delta1: Fraction
    delta2: Fraction
    extra: dict
    brace: dict
    paper_value: str

    @property
    def prefactor(self) -> Fraction:
        return 4 / (self.delta1 * self.delta2)

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
    """The manifest's sixteen terms by label, each with the table's exponents."""
    doc = load_manifest()
    delta1, delta2 = Fraction(doc["deltas"]["delta1"]), Fraction(doc["deltas"]["delta2"])
    return {
        row["label"]: BoundTerm(
            label=row["label"],
            direction=row["direction"],
            delta1=delta1,
            delta2=delta2,
            extra=row["extra"],
            brace=row["brace"],
            paper_value=row["paper_value"],
        )
        for row in doc["terms"]
    }


def _extra_value(extra: dict) -> float:
    kind = extra.get("kind")
    if kind == "const":
        return float(Fraction(extra["value"]))
    if kind == "log_basic_integral":
        return log_basic_integral(extra["a"], extra["b"])
    if kind == "log_shift_integral":
        return log_shift_integral(extra["c"], extra["d"], extra["a"], extra["b"])
    if kind == "op":
        try:
            return _OPS[extra["name"]]()
        except KeyError:
            raise ManifestError(f"unknown op {extra.get('name')!r}") from None
    raise ManifestError(f"unknown extra kind {kind!r}")


def _slot_curves(slot: dict) -> tuple[float, float | None]:
    """(upper, lower) value pair a brace slot contributes."""
    if "fn" in slot:
        s = float(slot["fn"])
        return upper_F0(s), lower_f0(s)
    if "pair" in slot:
        upper_name, lower_name = slot["pair"]
        return named_integral_value(upper_name), named_integral_value(lower_name)
    if "integral" in slot:
        return named_integral_value(slot["integral"]), None
    raise ManifestError(f"unknown brace slot {slot!r}")


def brace_value(term: BoundTerm) -> float:
    kind = term.brace.get("kind")
    big1, low1 = _slot_curves(term.brace["slot1"])
    big2, low2 = _slot_curves(term.brace["slot2"])
    if kind == "upper":
        return big1 * big2
    if kind == "lower":
        if low1 is None or low2 is None:
            raise ManifestError(f"{term.label}: lower brace needs both curve values")
        return low1 * big2 + big1 * low2 - big1 * big2
    raise ManifestError(f"unknown brace kind {kind!r}")


@lru_cache(maxsize=64)
def term_coefficient(label: str) -> float:
    """Scalar multiplying the common main-term normalization for one S term."""
    terms = load_terms()
    if label not in terms:
        raise DomainError(f"unknown term label {label!r}")
    term = terms[label]
    return float(term.prefactor) * _extra_value(term.extra) * brace_value(term)


@dataclass(frozen=True)
class CombinedBounds:
    lower_sum: float
    upper_sum: float
    margin: float
    theorem_constant: float
    flagged: bool


def combine_lemma31() -> CombinedBounds:
    """Weighted recombination of all sixteen terms into the final margin."""
    lower = sum(w * term_coefficient(lbl) for lbl, w in LOWER_WEIGHTS.items())
    upper = sum(w * term_coefficient(lbl) for lbl, w in UPPER_WEIGHTS.items())
    margin = lower - upper
    return CombinedBounds(lower, upper, margin, margin / 4.0, flagged=margin <= 0.0)


def upper_bound_constant() -> float:
    """The two-sided sifting constant: the manifest's uniform exponents 0.2/0.2,
    both curves at s = 2.

    Fraction arithmetic keeps the prefactor exact, so the result is the float
    100.0 with no tunable input.
    """
    deltas = load_manifest()["uniform_deltas"]
    prefactor = 4 / (Fraction(deltas["delta1"]) * Fraction(deltas["delta2"]))
    return float(prefactor) * upper_F0(2.0) * upper_F0(2.0)


def published_sums() -> dict[str, float]:
    """Aggregate targets parsed from their exact decimal strings."""
    return {k: float(v) for k, v in load_manifest()["aggregates"].items()}


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
    doc = load_manifest()
    terms = load_terms()
    aux = doc["auxiliary"]
    agg = doc["aggregates"]
    overrides = dict(overrides or {})
    known = set(report_labels())
    unknown = set(overrides) - known
    if unknown:
        raise DomainError(f"unknown labels in tolerance overrides: {sorted(unknown)}")

    def tol(label: str) -> float:
        return overrides.get(label, tolerance)

    checks: list[ConstantCheck] = []

    def add(label, computed, paper, direction, note):
        checks.append(make_check(label, computed, paper, direction, tol(label), note))

    c3 = float(aux["C3"]) if use_paper_values else constants.constant_C3().value
    add("C3", c3, float(aux["C3"]), "two_sided",
        "converged Euler product vs published decimal")
    c0 = float(aux["C0"]) if use_paper_values else constants.constant_C0()
    add("C0", c0, float(aux["C0"]), "upper", "chain-density sum, published upper estimate")
    e_val = float(aux["E"]) if use_paper_values else constants.coefficient_E()
    add("E", e_val, float(aux["E"]), "upper", "role-reversal coefficient")
    l_val = float(aux["L"]) if use_paper_values else constants.coefficient_L()
    add("L", l_val, float(aux["L"]), "upper", "four-fold role-reversal coefficient")

    for label in TERM_LABELS:
        term = terms[label]
        value = term.paper if use_paper_values else term_coefficient(label)
        note = ""
        if term.direction == "lower" and not use_paper_values:
            if brace_value(term) <= 0.0:
                note = "lower brace non-positive: term contributes nothing"
        add(label, value, term.paper, term.direction, note)

    if use_paper_values:
        lower = sum(w * terms[lbl].paper for lbl, w in LOWER_WEIGHTS.items())
        upper = sum(w * terms[lbl].paper for lbl, w in UPPER_WEIGHTS.items())
    else:
        combined = combine_lemma31()
        lower, upper = combined.lower_sum, combined.upper_sum
    add("lower_sum", lower, float(agg["lower_sum"]), "two_sided",
        "3*S11 + S12 + S21 + S22")
    add("upper_sum", upper, float(agg["upper_sum"]), "two_sided",
        "S31+S32+S41+S42+S51+S52+2*(S61+S62)+S71+S72+S73+S74")
    published_margin = float(agg["lower_sum"]) - float(agg["upper_sum"])
    add("margin", published_margin, float(agg["margin"]), "two_sided",
        "arithmetic identity on the published totals")
    add("theorem_constant", published_margin / 4.0, float(agg["theorem_constant"]),
        "two_sided", "published margin / 4")
    add("upper_uniform", upper_bound_constant(), float(agg["upper_uniform"]),
        "two_sided", "exact scalarization, no tunable input")
    return checks


def report_labels() -> tuple[str, ...]:
    return ("C3", "C0", "E", "L") + TERM_LABELS + (
        "lower_sum", "upper_sum", "margin", "theorem_constant", "upper_uniform",
    )
