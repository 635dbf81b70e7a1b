import math

import mpmath
import numpy as np
import pytest

from triplesieve.errors import DomainError, EvaluationError
from triplesieve.quadrature import (
    CHAIN_STEP,
    ChainFamily,
    IntegralSpec,
    _A1,
    _li2,
    _tensor_value,
    chain_table,
    chain_value,
    integrate_nested,
    log_basic_integral,
    log_shift_integral,
    named_integral_specs,
    named_integral_value,
)

import oracles


def log_shift(t):
    return np.log(t - 1.0) / t


# ---------------------------------------------------------------------------
# the 1-D log integrals in closed form
# ---------------------------------------------------------------------------


def test_li2_matches_mpmath_polylog():
    # every branch: inversion below -1, the series on [-1, 1/2], reflection
    # above 1/2, and the points where they meet
    x = np.concatenate((np.linspace(-198.0, 1.0, 1991), np.linspace(-1.2, 1.0, 441),
                        [np.nextafter(-1.0, -2.0), -1.0, 0.0, 1e-12, -1e-300, 0.5,
                         np.nextafter(0.5, 1.0), 1.0]))
    with mpmath.workdps(30):
        exact = np.array([float(mpmath.polylog(2, float(v))) for v in x])
    assert np.all(np.abs(_li2(x) - exact) <= 1e-15 * np.abs(exact))


def test_A1_matches_mpmath_quadrature():
    for v in (2.0 + 1e-6, 2.001, 2.145, 2.81, 3.0, 7.4, 12.0, 50.5, 123.25, 199.0):
        assert abs(float(_A1(v)) - oracles.quad(lambda t: mpmath.log(t - 1) / t, 2, v)) < 1e-14, v
    assert _A1(2.0) == 0.0 and _A1(1.5) == 0.0


@pytest.mark.parametrize("c, d, a, b", [(2.145, 3.145, 2.145, 12.0), (2.81, 3.81, 2.81, 7.4)])
def test_shift_integrals_match_mpmath_quadrature(c, d, a, b):
    # the S41 and S42 integrals of the term manifest
    exact = oracles.quad(lambda t: mpmath.log(c - d / (t + 1)) / t, a, b)
    assert abs(log_shift_integral(c, d, a, b) - exact) < 1e-14


def test_empty_interval_is_zero():
    assert log_basic_integral(2.0, 2.0) == 0.0
    assert log_shift_integral(2.145, 3.145, 5.0, 5.0) == 0.0


def test_analytic_log_two():
    # int_1^2 log(e)/t dt: Li2(-1/t) + Li2(-t) = -pi^2/6 - log^2(t)/2 must cancel
    assert abs(log_shift_integral(math.e, 0.0, 1.0, 2.0) - math.log(2)) < 1e-15


def test_matches_simpson_oracle_on_log_kernel():
    val = log_basic_integral(2.0, 2.145)
    assert abs(val - oracles.simpson(log_shift, 2.0, 2.145, 200_000)) < 1e-13


def test_reversed_interval_rejected():
    with pytest.raises(DomainError):
        log_basic_integral(3.0, 2.0)
    with pytest.raises(DomainError):
        log_shift_integral(2.145, 3.145, 12.0, 2.145)


def test_nonfinite_kernel_raises():
    # log(c - d/(t+1)) is undefined where c(t+1) <= d, and log(t-1)/t is
    # integrated from 2 only
    with pytest.raises(DomainError):
        log_shift_integral(1.0, 3.0, 0.5, 4.0)
    with pytest.raises(DomainError):
        log_shift_integral(-1.0, -3.0, 0.5, 4.0)
    with pytest.raises(DomainError):
        log_basic_integral(1.5, 3.0)


def test_bad_limits_rejected():
    with pytest.raises(DomainError):
        log_basic_integral(2.0, math.inf)
    with pytest.raises(DomainError):
        log_shift_integral(2.145, 3.145, 2.145, math.nan)
    with pytest.raises(DomainError):
        log_shift_integral(2.145, 3.145, 0.0, 3.0)


@pytest.mark.parametrize("alpha", [0.0, 1.0, -2.0])
def test_linearity(alpha):
    # with d = 0 the kernel is log(c)/t, so the integral is log(c) log(b/a)
    val = log_shift_integral(math.exp(alpha), 0.0, 2.0, 6.0)
    assert abs(val - alpha * math.log(3.0)) < 1e-14


def test_interval_additivity():
    rng = np.random.default_rng(7)
    whole = log_basic_integral(2.0, 6.0)
    shifted = log_shift_integral(2.145, 3.145, 2.145, 12.0)
    for _ in range(5):
        c = float(rng.uniform(2.145, 6.0))
        assert abs(whole - log_basic_integral(2.0, c) - log_basic_integral(c, 6.0)) < 1e-14
        parts = (log_shift_integral(2.145, 3.145, 2.145, c)
                 + log_shift_integral(2.145, 3.145, c, 12.0))
        assert abs(shifted - parts) < 1e-14


# ---------------------------------------------------------------------------
# integrate_nested
# ---------------------------------------------------------------------------


def test_spec_validation():
    with pytest.raises(DomainError):
        IntegralSpec("bad", ((0.0, 1.0),) * 5, lambda *a: a[0])
    with pytest.raises(DomainError):
        IntegralSpec("bad", (), lambda: 0.0)
    with pytest.raises(DomainError):
        IntegralSpec("bad", ((lambda: 0.0, 1.0),), lambda t: t)


def test_identical_limits_give_zero():
    spec = IntegralSpec(
        "degenerate",
        ((0.0, 1.0), (lambda t1: t1, lambda t1: t1)),
        lambda t1, t2: np.exp(t2),
    )
    assert integrate_nested(spec) == 0.0


def test_partially_empty_inner_range():
    # inner range [t1, 0.5] empties for t1 > 0.5; value is int_0^0.5 (0.5 - t) dt.
    # The clamp puts a kink in the outer integrand, so only algebraic accuracy
    # is available here, short of the ladder's 1e-9: one rung is read on its
    # own.  The production integrals keep their collapse lines on the domain
    # boundary.
    spec = IntegralSpec(
        "clamp",
        ((0.0, 1.0), (lambda t1: t1, 0.5)),
        lambda t1, t2: np.ones_like(t2),
    )
    assert abs(_tensor_value(spec, 96) - 0.125) < 5e-4


def test_always_empty_inner_range_is_exact_zero():
    spec = IntegralSpec(
        "void",
        ((0.0, 1.0), (1.0, lambda t1: 0.5 - t1)),
        lambda t1, t2: np.exp(t2),
    )
    assert integrate_nested(spec) == 0.0


def test_singular_integrand_names_level():
    spec = IntegralSpec(
        "blows-up",
        ((0.0, 1.0), (0.0, 1.0)),
        lambda t1, t2: np.log(t2 - 0.5),  # NaN on half the inner range
    )
    with pytest.raises(EvaluationError, match="blows-up"):
        with np.errstate(invalid="ignore"):
            integrate_nested(spec)


@pytest.mark.parametrize("name", ["G", "H", "h", "E"])
def test_depth2_components_match_midpoint_cubature(name):
    spec = named_integral_specs(name)[0]
    assert spec.depth == 2
    lo1, hi1 = spec.limits[0]
    lo2, hi2 = spec.limits[1]
    oracle = oracles.midpoint_2d(lo1, hi1, lo2, hi2, spec.integrand, n=1200)
    assert abs(integrate_nested(spec) - oracle) < 1e-4


def test_depth3_component_matches_midpoint_cubature():
    # the three-fold part of G against a 10^6-point midpoint rule
    spec = named_integral_specs("G")[1]
    lo1, hi1 = spec.limits[0]
    lo2, hi2 = spec.limits[1]
    lo3, hi3 = spec.limits[2]
    oracle = oracles.midpoint_3d(lo1, hi1, lo2, hi2, lo3, hi3, spec.integrand, n=100)
    assert abs(integrate_nested(spec) - oracle) < 5e-4


@pytest.mark.parametrize("name, divisor", [("J", "3.145"), ("K", "3.81")])
def test_role_reversal_displays_match_the_swapped_order_oracle(name, divisor):
    # J and K share their double and triple; the oracle integrates each with
    # t1 innermost, in closed form, and the rest in mpmath
    single, double, triple = oracles.role_reversal_components(divisor)
    _, double_spec, triple_spec = named_integral_specs(name)
    assert abs(integrate_nested(double_spec) - double) < 1e-13
    assert abs(integrate_nested(triple_spec) - triple) < 1e-13
    assert abs(named_integral_value(name) - (single + double + triple)) < 1e-13


def test_unknown_named_integral():
    with pytest.raises(DomainError):
        named_integral_specs("Q")
    with pytest.raises(DomainError):
        named_integral_value("Q")


def test_random_affine_specs_match_midpoint_cubature():
    rng = np.random.default_rng(2026)
    for trial in range(5):
        a0 = float(rng.uniform(0.5, 1.0))
        b0 = a0 + float(rng.uniform(0.5, 1.5))
        slope = float(rng.uniform(-0.4, 0.4))
        shift = float(rng.uniform(0.1, 0.8))
        c2, c1 = float(rng.uniform(0.2, 2.0)), float(rng.uniform(-1.0, 1.0))

        def lower(t1, _s=slope):
            return _s * t1

        def upper(t1, _s=slope, _d=shift):
            return _s * t1 + _d

        def kernel(t1, t2, _c2=c2, _c1=c1):
            return _c2 * t1 * t2**2 + _c1 * t2 + np.exp(-t1)

        spec = IntegralSpec(f"random{trial}", ((a0, b0), (lower, upper)), kernel)
        oracle = oracles.midpoint_2d(a0, b0, lower, upper, kernel, n=1500)
        assert abs(integrate_nested(spec) - oracle) < 1e-4


# ---------------------------------------------------------------------------
# chain recursion
# ---------------------------------------------------------------------------


def test_chain_k_domain():
    fam = ChainFamily()
    with pytest.raises(DomainError):
        chain_value(fam, 14)
    with pytest.raises(DomainError):
        chain_value(fam, 200)


def _table_at(row, v):
    """Row ``row`` of the chain table (A_2, ..., A_13, T) at the node v."""
    return float(chain_table()[row, round((v - 1.0) / CHAIN_STEP)])


def test_chain_low_levels_match_nested_evaluator():
    # A_2 and A_3 recomputed by the independent tensor evaluator
    spec2 = IntegralSpec(
        "A2",
        ((3.0, 12.0), (2.0, lambda t: t - 1.0)),
        lambda t, u: np.log(u - 1.0) / (t * u),
    )
    assert abs(_table_at(0, 12.0) - integrate_nested(spec2)) < 1e-7

    spec3 = IntegralSpec(
        "A3",
        ((4.0, 25.0), (3.0, lambda t1: t1 - 1.0), (2.0, lambda t1, t2: t2 - 1.0)),
        lambda t1, t2, t3: np.log(t3 - 1.0) / (t1 * t2 * t3),
    )
    assert abs(_table_at(1, 25.0) - integrate_nested(spec3)) < 1e-7


def test_chain_levels_vanish_below_their_lower_limits():
    # A_j = 0 up to j + 1, and the tail T = sum_{j>=14} A_j up to 15
    table = chain_table()
    for row in range(13):
        start = round((min(row + 3, 15) - 1.0) / CHAIN_STEP)
        assert not table[row, : start + 1].any(), row
        assert table[row, start + round(1 / CHAIN_STEP)] > 0.0, row  # one unit in


def test_chain_monotone_decreasing_in_k():
    # c_k = A_{k-2}(199) peaks at k = 5 and falls from there to k = 15
    values = chain_table()[1:-1, -1]
    assert all(v > 0 for v in values)
    assert all(a > b for a, b in zip(values, values[1:]))


def test_c15_matches_the_oracle_chain():
    # the oracle is O(h^4) on its own grid; its Richardson value is O(h^6)
    coarse, fine = oracles.chain_density_sum(0.005)[1], oracles.chain_density_sum(0.0025)[1]
    c15 = chain_value(ChainFamily(), 15)
    assert abs(c15 - fine) < 1e-15
    assert abs(c15 - (16 * fine - coarse) / 15) < 1e-16
