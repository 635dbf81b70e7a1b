"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the verdict lines.
Two criteria check the paper's constants against independent values rather
than against its roundings:

* C3: the published 2.86259 is the Euler product truncated at p <= 283, not
  its converged value.  Criterion 1 holds the converged product to the known
  Hardy-Littlewood value (OEIS A065418) within its own tail bound, and the
  p <= 283 truncation to the published decimal.
* C0: the published 0.00408 is the paper's upper constant for the
  chain-density sum, not a value of it; substituting it for C0 reproduces
  the published S73 and S74.  Criterion 6 keeps C0 below it and holds C0 to an
  independent chain recursion (``oracles.chain_density_sum``).
"""

import math
import time

import numpy as np
import pytest

import triplesieve as ts
from triplesieve.cli import main as cli_main
from triplesieve.constants import partial_product
from triplesieve.pipeline import TERM_LABELS, brace_value, load_manifest, load_terms, prefactor

import oracles


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"acceptance {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")


C3_A065418 = 2.85824859571922  # Hardy-Littlewood constant of (n, n+2, n+6)


def test_acceptance_01_triple_pattern_constant():
    start = time.perf_counter()
    res = ts.constant_C3()
    elapsed = time.perf_counter() - start
    # tail_bound bounds the log of the neglected factors: a relative error
    tol = res.value * res.tail_bound
    ok_value = abs(res.value - C3_A065418) <= tol
    published, truncated = 2.86259, partial_product(3, 283)
    ok_published = abs(truncated - published) <= 2e-5
    ok_time = elapsed < 5.0
    _verdict(
        1, ok_value and ok_published and ok_time,
        f"converged product {res.value:.7f} vs A065418 {C3_A065418} "
        f"(diff {res.value - C3_A065418:+.2e}, tol {tol:.1e}); p <= 283 truncation "
        f"{truncated:.7f} vs published {published} (diff {truncated - published:+.2e}, "
        f"tol 2e-5), {elapsed:.2f}s",
    )
    assert ok_time, f"runtime {elapsed:.2f}s exceeds the 5s budget"
    assert ok_value, (
        f"the Euler product converges to {res.value:.10f} (truncation prime "
        f"{res.truncation_prime}, relative tail bound {res.tail_bound:.2e}), "
        f"{abs(res.value - C3_A065418):.2e} from A065418 = {C3_A065418}, "
        f"beyond value * tail_bound = {tol:.2e}"
    )
    assert ok_published, (
        f"the published 2.86259 is the product truncated at p <= 283, but "
        f"partial_product(3, 283) = {truncated:.7f} is {truncated - published:+.2e} from it"
    )


def test_acceptance_02_sieve_curve_spot_values():
    ok = abs(ts.upper_F0(2.0) - 1.0) <= 1e-10
    ok &= abs(ts.lower_f0(3.0) - math.log(2)) <= 1e-10
    eps = 1e-6
    knots = []
    for knot in (3.0, 5.0):
        knots.append(abs(ts.upper_F0(knot - eps) - ts.upper_F0(knot + eps)))
    for knot in (4.0, 6.0):
        knots.append(abs(ts.lower_f0(knot - eps) - ts.lower_f0(knot + eps)))
    ok &= max(knots) <= 1e-5
    h = 1e-3
    worst = 0.0
    for s in np.linspace(3.1, 6.9, 20):
        s = float(s)
        d_upper = (ts.upper_F0(s + h) - ts.upper_F0(s - h)) / (2 * h)
        d_lower = (ts.lower_f0(s + h) - ts.lower_f0(s - h)) / (2 * h)
        worst = max(
            worst,
            abs(d_upper - ts.lower_f0(s - 1) / (s - 1)),
            abs(d_lower - ts.upper_F0(s - 1) / (s - 1)),
        )
    ok &= worst <= 1e-4
    _verdict(
        2, ok,
        f"F0(2)=1, f0(3)=log 2 at 1e-10; knot jumps <= {max(knots):.1e}; "
        f"delay-system finite differences off by <= {worst:.1e}",
    )
    assert ok


def test_acceptance_03_buchstab_bounds():
    checks = ts.verify_buchstab_bounds()
    bounds_ok = all(c.passed for c in checks)
    w3 = ts.buchstab_w(3.0)
    value_ok = abs(w3 - (1 + math.log(2)) / 3) <= 1e-6
    _verdict(
        3, bounds_ok and value_ok,
        f"three tail bounds hold on the 0.01 grid; w(3)={w3:.8f} vs (1+log 2)/3",
    )
    assert bounds_ok and value_ok


def test_acceptance_04_published_coefficient_table():
    start = time.perf_counter()
    values = {label: ts.term_coefficient(label) for label in TERM_LABELS}
    elapsed = time.perf_counter() - start
    terms = load_terms()
    misses = []
    for label, value in values.items():
        term = terms[label]
        if term.direction == "lower" and value < term.paper * 0.99:
            misses.append(label)
        if term.direction == "upper" and value > term.paper * 1.01:
            misses.append(label)
    # a miss must surface as a flagged report row, never silently
    report = {c.label: c for c in ts.verification_report()}
    flags_consistent = all(
        (label in misses) == (not report[label].passed) for label in TERM_LABELS
    )
    ok = not misses and flags_consistent and elapsed < 60.0
    _verdict(
        4, ok,
        f"16 coefficients direction-aware within 1% (misses: {misses or 'none'}), "
        f"report flags consistent, {elapsed:.1f}s",
    )
    assert elapsed < 60.0
    assert flags_consistent
    assert not misses


def test_acceptance_05_aggregate_sums():
    combined = ts.combine_lemma31()
    sums = {k: float(v) for k, v in load_manifest()["aggregates"].items()}
    lower_ok = abs(combined.lower_sum - sums["lower_sum"]) <= 0.005 * sums["lower_sum"]
    upper_ok = abs(combined.upper_sum - sums["upper_sum"]) <= 0.005 * sums["upper_sum"]
    identity = sums["lower_sum"] - sums["upper_sum"]
    identity_ok = abs(identity - 13.05253) <= 1e-5
    ok = lower_ok and upper_ok and identity_ok
    _verdict(
        5, ok,
        f"lower {combined.lower_sum:.5f} vs {sums['lower_sum']}, "
        f"upper {combined.upper_sum:.5f} vs {sums['upper_sum']} (0.5%); "
        f"published margin identity {identity:.6f}",
    )
    assert ok


def test_acceptance_06_auxiliary_constants():
    c0, e, l = ts.constant_C0(), ts.coefficient_E(), ts.coefficient_L()
    failures = []
    for label, value, bound in (("C0", c0, 0.00408), ("E", e, 0.00934), ("L", l, 0.04839)):
        if not value <= bound:
            failures.append(f"{label}={value:.6f} exceeds {bound}")
    for label, value, bound in (("E", e, 0.00934), ("L", l, 0.04839)):
        if not value >= 0.98 * bound:
            failures.append(f"{label}={value:.6f} sits more than 2% below {bound}")
    # 0.00408 is the paper's upper constant for C0, not a value of it: C0 is
    # held to an independent recursion, and the published S73 and S74 are
    # what 0.00408 gives in their place
    c0_oracle, _ = oracles.chain_density_sum(h=0.01)
    if not abs(c0 - c0_oracle) <= 1e-9:
        failures.append(
            f"C0={c0:.12f} differs from the independent chain recursion "
            f"{c0_oracle:.12f} by {c0 - c0_oracle:+.1e} (tol 1e-9)"
        )
    terms = load_terms()
    for label in ("S73", "S74"):
        term = terms[label]
        rebuilt = float(prefactor(load_manifest()["deltas"])) * 0.00408 * brace_value(term)
        if not abs(rebuilt - term.paper) <= 1e-5 * term.paper:
            failures.append(
                f"{label} with C0=0.00408 gives {rebuilt:.6f}, not the published "
                f"{term.paper_value} (tol 1e-5 relative)"
            )
    _verdict(
        6, not failures,
        f"C0={c0:.7f} (<=0.00408, oracle {c0_oracle:.7f}), E={e:.6f} (<=0.00934), "
        f"L={l:.6f} (<=0.04839); E, L within 2% below; S73, S74 from 0.00408: "
        f"{failures or 'all hold'}",
    )
    assert not failures, (
        f"{failures}; C0 is the chain-density sum of the quadrature and "
        "constant_C0 docstrings (the paper's abstract does not define it), "
        "and 0.00408 is its published upper constant"
    )


def test_acceptance_07_uniform_upper_constant():
    value = ts.upper_bound_constant()
    ok = value == 100.0
    _verdict(7, ok, f"scalarization with no tunable input returns {value!r}")
    assert ok


def test_acceptance_08_counting_oracle_equivalence():
    start = time.perf_counter()
    spot_ok = (
        ts.count_pi_1ab(100, 1, 1).count == 4
        and ts.count_pi_1ab(30, 2, 2).count == 9
        and ts.count_D_1ab(30, 2, 2).count == 7
        and ts.count_pi_1r(20, 1).count == 4
    )
    limit = 10_000
    table = oracles.omega_table(limit + 6)
    mismatched = []
    for a in (1, 2, 3):
        for b in (1, 2, 3):
            brute = oracles.brute_pi_1ab(limit, a, b, table)
            if oracles.hit_positions("pi_1ab", limit, a, b) != brute:
                mismatched.append((a, b))
    elapsed = time.perf_counter() - start
    ok = spot_ok and not mismatched and elapsed < 30.0
    _verdict(
        8, ok,
        f"spot counts 4/9/7/4; exhaustive match to trial division for all "
        f"x <= {limit}, (a,b) in {{1,2,3}}^2 (mismatches: {mismatched or 'none'}), "
        f"{elapsed:.1f}s",
    )
    assert spot_ok
    assert not mismatched
    assert elapsed < 30.0


def test_acceptance_09_empirical_order_check():
    start = time.perf_counter()
    results = ts.ratio_scan("pi_1ab", (1, 1), [10**6, 10**7, 10**8])
    elapsed = time.perf_counter() - start
    c3 = ts.constant_C3().value
    bounds_ok = all(
        r.count <= 100 * c3 * r.size / math.log(r.size) ** 3 for r in results
    )
    ratios = [r.ratio for r in results]
    drift_ok = all(
        abs(b / a - 1.0) < 0.5 for a, b in zip(ratios, ratios[1:])
    )
    time_ok = elapsed < 120.0
    ok = bounds_ok and drift_ok and time_ok
    _verdict(
        9, ok,
        f"counts {[r.count for r in results]}, ratios "
        f"{[f'{r:.3f}' for r in ratios]}, uniform bound holds, {elapsed:.1f}s",
    )
    assert bounds_ok
    assert drift_ok
    assert time_ok


def test_acceptance_10_deterministic_reports(capsys, monkeypatch):
    rc1 = cli_main(["verify", "--no-timestamp"])
    first = capsys.readouterr().out
    rc2 = cli_main(["verify", "--no-timestamp"])
    second = capsys.readouterr().out
    verify_ok = rc1 == rc2 == 0 and first == second

    monkeypatch.setenv("TRIPLESIEVE_THREADS", "1")
    cli_main(["count", "pi_1ab", "1000000", "2", "2", "--no-timestamp"])
    single = capsys.readouterr().out
    monkeypatch.setenv("TRIPLESIEVE_THREADS", "2")
    cli_main(["count", "pi_1ab", "1000000", "2", "2", "--no-timestamp"])
    threaded = capsys.readouterr().out
    count_ok = single == threaded
    ok = verify_ok and count_ok
    _verdict(
        10, ok,
        "verify byte-identical across runs; count byte-identical across thread counts",
    )
    assert verify_ok
    assert count_ok
