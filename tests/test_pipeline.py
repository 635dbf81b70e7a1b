import inspect
from fractions import Fraction

import pytest

from triplesieve import constants
from triplesieve.errors import DomainError
from triplesieve.pipeline import (
    LOWER_WEIGHTS,
    TERM_LABELS,
    UPPER_WEIGHTS,
    BoundTerm,
    brace_value,
    combine_lemma31,
    load_manifest,
    load_terms,
    prefactor,
    report_labels,
    term_coefficient,
    upper_bound_constant,
    verification_report,
)
from triplesieve.quadrature import named_integral_specs
from triplesieve.sieve_functions import upper_F0


def test_manifest_has_all_sixteen_terms():
    terms = load_terms()
    assert tuple(sorted(terms)) == tuple(sorted(TERM_LABELS))
    assert set(LOWER_WEIGHTS) | set(UPPER_WEIGHTS) == set(TERM_LABELS)


def test_prefactor_is_exact_rational():
    assert prefactor(load_manifest()["deltas"]) == Fraction(6400, 19)


def test_unknown_label_rejected():
    with pytest.raises(DomainError):
        term_coefficient("S99")


@pytest.mark.parametrize("label", TERM_LABELS)
def test_terms_within_one_percent_direction_aware(label):
    term = load_terms()[label]
    value = term_coefficient(label)
    if term.direction == "lower":
        assert value >= term.paper * 0.99, f"{label} undershoots its published lower bound"
    else:
        assert value <= term.paper * 1.01, f"{label} overshoots its published upper bound"
    # every published decimal is also reproduced to within 5% two-sided
    assert value == pytest.approx(term.paper, rel=0.05)


def test_first_term_close_to_published_value():
    assert term_coefficient("S11") == pytest.approx(818.10189, rel=1e-3)


def test_chain_terms_scale_with_curve_ratios():
    #4-series terms share the C0 * F0(2) factor, so their ratios isolate F0
    s71, s72, s73, s74 = (term_coefficient(l) for l in ("S71", "S72", "S73", "S74"))
    assert s73 == s74
    assert s71 / s73 == pytest.approx(upper_F0(6.175), rel=1e-12)
    assert s72 / s73 == pytest.approx(upper_F0(3.99), rel=1e-12)
    # and the published decimals imply the same ratio to their own precision
    assert 2.38485 / 1.37432 == pytest.approx(upper_F0(6.175), rel=2e-3)
    assert 1.57643 / 1.37432 == pytest.approx(upper_F0(3.99), rel=3e-3)


def test_lower_braces_positive():
    terms = load_terms()
    for label in ("S11", "S12", "S21", "S22"):
        assert brace_value(terms[label]) > 0.0


def test_combination_against_published_totals():
    combined = combine_lemma31()
    sums = {k: float(v) for k, v in load_manifest()["aggregates"].items()}
    assert combined.lower_sum == pytest.approx(sums["lower_sum"], rel=5e-3)
    assert combined.upper_sum == pytest.approx(sums["upper_sum"], rel=5e-3)
    assert combined.margin > 0
    assert not combined.flagged
    assert combined.theorem_constant == pytest.approx(combined.margin / 4, rel=1e-15)


def test_published_margin_identity():
    sums = {k: float(v) for k, v in load_manifest()["aggregates"].items()}
    margin = sums["lower_sum"] - sums["upper_sum"]
    assert abs(margin - 13.05253) < 1e-9
    assert abs(margin / 4 - 3.26313) < 1e-5


def test_upper_bound_constant_exact():
    assert upper_bound_constant() == 100.0


def test_scalarization_rule_with_halved_exponents():
    # both distribution exponents at 2 * (1/20) = 0.1 quadruple the constant
    term = BoundTerm(
        label="toy", direction="upper",
        extra={"kind": "const", "value": "1"},
        brace={"slot1": {"fn": 2.0}, "slot2": {"fn": 2.0}},
        paper_value="400",
    )
    assert float(prefactor({"delta1": "0.1", "delta2": "0.1"})) * brace_value(term) == 400.0


# ---------------------------------------------------------------------------
# verification report
# ---------------------------------------------------------------------------


def test_report_covers_every_published_constant():
    checks = verification_report()
    assert tuple(c.label for c in checks) == report_labels()
    assert len(checks) == 25


def test_default_report_passes_at_one_percent():
    checks = verification_report()
    failed = [c.label for c in checks if not c.passed]
    assert failed == []


def test_report_margin_row_is_published_identity():
    margin = {c.label: c for c in verification_report()}["margin"]
    assert margin.computed == pytest.approx(13.05253, abs=1e-9)
    assert margin.passed


def test_paper_values_mode_is_identity():
    checks = verification_report(use_paper_values=True)
    assert all(c.passed for c in checks)
    # substituted rows are exact copies; aggregate rows are published arithmetic
    derived = {"lower_sum", "upper_sum", "margin", "theorem_constant", "upper_uniform"}
    assert all(abs(c.rel_diff) < 1e-12 for c in checks if c.label not in derived)
    by_label = {c.label: c for c in checks}
    # the published component decimals do not quite sum to the printed total
    assert abs(by_label["upper_sum"].rel_diff) < 1e-6
    assert abs(by_label["lower_sum"].rel_diff) < 1e-12


def test_tolerance_overrides():
    with pytest.raises(DomainError):
        verification_report(overrides={"S99": 0.5})
    checks = verification_report(overrides={"C3": 1e-5})
    by_label = {c.label: c for c in checks}
    assert not by_label["C3"].passed  # converged product sits ~0.15% off
    assert by_label["S11"].passed


# ---------------------------------------------------------------------------
# the shipped manifest
# ---------------------------------------------------------------------------


def test_shipped_manifest_is_well_formed():
    doc = load_manifest()
    assert doc["schema"] == 1
    assert [row["label"] for row in doc["terms"]] == list(TERM_LABELS)  # in order, each once
    for row in doc["terms"]:
        # no direction (the weights state it) and no exponents of its own (the
        # table's serve every term): a key the package does not read is an error
        assert set(row) == {"label", "extra", "brace", "paper_value"}, row
        extra = row["extra"]
        assert extra["kind"] in {"const", "log_basic_integral", "log_shift_integral", "op"}, row
        if extra["kind"] == "op":
            op = getattr(constants, extra["name"])
            assert callable(op) and not inspect.signature(op).parameters, row
        assert set(row["brace"]) == {"slot1", "slot2"}, row
        for slot in row["brace"].values():
            assert len(slot) == 1, row  # one of fn, pair and integral
            (source,) = slot
            assert source in {"fn", "pair", "integral"}, row
            # named_integral_specs raises DomainError for a name not in the catalogue
            if source == "integral":
                assert named_integral_specs(slot["integral"]), row
            if source == "pair":
                upper_name, lower_name = slot["pair"]
                assert named_integral_specs(upper_name) and named_integral_specs(lower_name), row
    for label in LOWER_WEIGHTS:
        # a lower brace needs each slot's lower curve, which a lone integral lacks
        brace = load_terms()[label].brace
        assert not any("integral" in slot for slot in brace.values()), label
