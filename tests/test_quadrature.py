import math

import numpy as np
import pytest

from triplesieve.errors import DomainError, EvaluationError
from triplesieve.quadrature import (
    ChainFamily,
    IntegralSpec,
    chain_value,
    integrate_1d,
    integrate_nested,
    named_integral_specs,
    named_integral_value,
)

import oracles


def log_shift(t):
    return np.log(t - 1.0) / t


# ---------------------------------------------------------------------------
# integrate_1d
# ---------------------------------------------------------------------------


def test_empty_interval_is_zero():
    assert integrate_1d(log_shift, 2.0, 2.0) == 0.0


def test_analytic_log_two():
    val = integrate_1d(lambda t: 1.0 / t, 1.0, 2.0, 1e-12)
    assert abs(val - math.log(2)) < 1e-11


def test_matches_simpson_oracle_on_log_kernel():
    val = integrate_1d(log_shift, 2.0, 2.145, 1e-11)
    assert abs(val - oracles.simpson(log_shift, 2.0, 2.145, 200_000)) < 1e-9


def test_reversed_interval_rejected():
    with pytest.raises(DomainError):
        integrate_1d(log_shift, 3.0, 2.0)


def test_nonfinite_kernel_raises():
    with pytest.raises(EvaluationError):
        with np.errstate(divide="ignore"):
            integrate_1d(lambda t: 1.0 / (t - 0.5), 0.0, 1.0)


def test_bad_tolerance_and_limits():
    with pytest.raises(DomainError):
        integrate_1d(log_shift, 2.0, 3.0, 0.0)
    with pytest.raises(DomainError):
        integrate_1d(log_shift, 2.0, math.inf)


@pytest.mark.parametrize("alpha", [0.0, 1.0, -2.0])
def test_linearity(alpha):
    tol = 1e-9
    base = integrate_1d(log_shift, 2.0, 4.0, tol)
    scaled = integrate_1d(lambda t: alpha * log_shift(t), 2.0, 4.0, tol)
    assert abs(scaled - alpha * base) <= 2 * tol + 1e-12


def test_interval_additivity():
    rng = np.random.default_rng(7)
    tol = 1e-9
    whole = integrate_1d(log_shift, 2.0, 6.0, tol)
    for _ in range(5):
        c = float(rng.uniform(2.0, 6.0))
        left = integrate_1d(log_shift, 2.0, c, tol)
        right = integrate_1d(log_shift, c, 6.0, tol)
        assert abs(whole - (left + right)) <= 3 * tol


# ---------------------------------------------------------------------------
# integrate_nested
# ---------------------------------------------------------------------------


def test_spec_validation():
    with pytest.raises(DomainError):
        IntegralSpec("bad", 5, ((0.0, 1.0),) * 5, lambda *a: a[0])
    with pytest.raises(DomainError):
        IntegralSpec("bad", 2, ((0.0, 1.0),), lambda t1, t2: t1)
    with pytest.raises(DomainError):
        IntegralSpec("bad", 1, ((lambda: 0.0, 1.0),), lambda t: t)


def test_identical_limits_give_zero():
    spec = IntegralSpec(
        "degenerate", 2,
        ((0.0, 1.0), (lambda t1: t1, lambda t1: t1)),
        lambda t1, t2: np.exp(t2),
    )
    assert integrate_nested(spec) == 0.0


def test_partially_empty_inner_range():
    # inner range [t1, 0.5] empties for t1 > 0.5; value is int_0^0.5 (0.5 - t) dt.
    # The clamp puts a kink in the outer integrand, so only algebraic accuracy
    # is available here; the production integrals keep their collapse lines on
    # the domain boundary.
    spec = IntegralSpec(
        "clamp", 2,
        ((0.0, 1.0), (lambda t1: t1, 0.5)),
        lambda t1, t2: np.ones_like(t2),
        1e-4,
    )
    assert abs(integrate_nested(spec) - 0.125) < 5e-4


def test_always_empty_inner_range_is_exact_zero():
    spec = IntegralSpec(
        "void", 2,
        ((0.0, 1.0), (1.0, lambda t1: 0.5 - t1)),
        lambda t1, t2: np.exp(t2),
    )
    assert integrate_nested(spec) == 0.0


def test_singular_integrand_names_level():
    spec = IntegralSpec(
        "blows-up", 2,
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

        spec = IntegralSpec(f"random{trial}", 2, ((a0, b0), (lower, upper)), kernel, 1e-10)
        oracle = oracles.midpoint_2d(a0, b0, lower, upper, kernel, n=1500)
        assert abs(integrate_nested(spec) - oracle) < 1e-4


# ---------------------------------------------------------------------------
# chain recursion
# ---------------------------------------------------------------------------


def test_chain_family_validation():
    with pytest.raises(DomainError):
        ChainFamily(grid_step=0.03)  # does not divide 1
    with pytest.raises(DomainError):
        ChainFamily(top_limit=1.0)
    with pytest.raises(DomainError):
        ChainFamily(base_kernel="exp(t)")


def test_chain_k_domain():
    fam = ChainFamily()
    with pytest.raises(DomainError):
        chain_value(fam, 14)
    with pytest.raises(DomainError):
        chain_value(fam, 200)


def test_chain_guard_for_empty_outer_range():
    fam = ChainFamily(top_limit=100.0)
    assert chain_value(fam, 150) == 0.0


def test_chain_low_levels_match_nested_evaluator():
    # A_2 and A_3 recomputed by the independent tensor evaluator
    from triplesieve.quadrature import _chain_levels

    fam = ChainFamily()
    grid, levels = _chain_levels(fam)

    def at(j, v):
        return float(levels[j][int(round((v - 2.0) / fam.grid_step))])

    spec2 = IntegralSpec(
        "A2", 2,
        ((3.0, 12.0), (2.0, lambda t: t - 1.0)),
        lambda t, u: np.log(u - 1.0) / (t * u),
        1e-11,
    )
    assert abs(at(2, 12.0) - integrate_nested(spec2)) < 1e-7

    spec3 = IntegralSpec(
        "A3", 3,
        ((4.0, 25.0), (3.0, lambda t1: t1 - 1.0), (2.0, lambda t1, t2: t2 - 1.0)),
        lambda t1, t2, t3: np.log(t3 - 1.0) / (t1 * t2 * t3),
        1e-11,
    )
    assert abs(at(3, 25.0) - integrate_nested(spec3)) < 1e-7


def test_chain_monotone_decreasing_in_k():
    fam = ChainFamily()
    values = [chain_value(fam, k) for k in range(15, 31)]
    assert all(v > 0 for v in values)
    assert all(a > b for a, b in zip(values, values[1:]))


def test_chain_grid_refinement_stability():
    coarse = ChainFamily()
    fine = ChainFamily(grid_step=0.025)
    for k in (15, 20, 30):
        assert abs(chain_value(coarse, k) - chain_value(fine, k)) < 1e-8
