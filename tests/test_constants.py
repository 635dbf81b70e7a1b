import numpy as np
import pytest

from triplesieve.constants import (
    c2_partial,
    c3_partial,
    coefficient_E,
    coefficient_L,
    constant_C0,
    constant_C2,
    constant_C3,
    singular_series_CN,
)
from triplesieve.errors import CapacityError, DomainError
from triplesieve.pipeline import load_manifest
from triplesieve.quadrature import ChainFamily, chain_value

import oracles


# ---------------------------------------------------------------------------
# Euler products
# ---------------------------------------------------------------------------


def test_c3_single_factor_exact_rational():
    # only p = 5 contributes below 7: (9/2) (1 - 14/64) = 225/64
    assert c3_partial(6) == pytest.approx(225 / 64, abs=1e-12)


def test_c2_single_factor_exact_rational():
    # only p = 3 contributes below 5: 2 (1 - 1/4) = 3/2
    assert c2_partial(4) == pytest.approx(1.5, abs=1e-12)


def test_partial_products_decrease():
    values = [c3_partial(P) for P in (10, 100, 1000, 10_000)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_every_product_factor_in_unit_interval():
    from triplesieve.primes import primes_up_to

    p = primes_up_to(10_000).astype(float)
    triple = 1 - (3 * p[p > 3] - 1) / (p[p > 3] - 1) ** 3
    twin = 1 - 1 / (p[p > 2] - 1) ** 2
    for factors in (triple, twin):
        assert np.all(factors > 0) and np.all(factors <= 1)


def test_c3_truncation_levels_agree():
    assert abs(c3_partial(10**6) - c3_partial(10**7)) < 1e-6
    tight = constant_C3(1e-8)
    loose = constant_C3(1e-6)
    # tail estimates bound the log of the neglected factor product
    assert abs(tight.value - loose.value) < loose.value * loose.tail_bound
    assert tight.truncation_prime > loose.truncation_prime


def test_result_invariants():
    # the tail ceiling holds even when the requested tolerance is looser
    for res in (constant_C2(1e-6), constant_C3(1e-6), constant_C3(1e-4)):
        assert res.truncation_prime >= 100_000
        assert res.tail_bound < 1e-6


def test_twin_constant_value():
    # classical twin-pattern constant, frozen from two independent truncations
    assert constant_C2(1e-6).value == pytest.approx(1.3203236, abs=2e-6)


def test_tolerance_floor():
    with pytest.raises(DomainError):
        constant_C3(1e-9)


# ---------------------------------------------------------------------------
# singular series C(N)
# ---------------------------------------------------------------------------


def test_CN_without_odd_divisors_is_half_C2():
    base = constant_C2(1e-6).value / 2
    assert singular_series_CN(4) == pytest.approx(base, rel=1e-12)
    assert singular_series_CN(1024) == pytest.approx(singular_series_CN(4), rel=1e-12)


def test_CN_six_doubles_the_base():
    assert singular_series_CN(6) == pytest.approx(2 * singular_series_CN(4), rel=1e-12)


@pytest.mark.parametrize(
    "N, ratio",
    [(6, 2.0), (10, 4 / 3), (30, 8 / 3), (210, 16 / 5)],
)
def test_CN_ratio_is_exact_rational(N, ratio):
    assert singular_series_CN(N) / singular_series_CN(4) == pytest.approx(ratio, rel=1e-12)


def test_CN_with_large_prime_divisor():
    # 2 * 999983 with 999983 prime: one odd factor (p-1)/(p-2)
    p = 999_983
    expected = (p - 1) / (p - 2) * singular_series_CN(4)
    assert singular_series_CN(2 * p) == pytest.approx(expected, rel=1e-12)


def test_CN_domain_and_capacity():
    with pytest.raises(DomainError):
        singular_series_CN(7)
    with pytest.raises(DomainError):
        singular_series_CN(2)
    with pytest.raises(CapacityError):
        singular_series_CN(2 * 10**12)


# ---------------------------------------------------------------------------
# aggregated constants C0, E, L
# ---------------------------------------------------------------------------


def _published(label):
    """The paper's bound for C0, E or L, from the package's one copy of it."""
    return float(load_manifest()["auxiliary"][label])


def test_C0_under_published_bound_and_above_first_term():
    c0 = constant_C0()
    assert c0 < _published("C0")
    assert c0 > chain_value(ChainFamily(), 15)


def test_C0_matches_fine_oracle_to_1e12():
    # S73 = 1.30911652 sits 2.3e-8 above its six-decimal rounding boundary and
    # moves by ~337 per unit of C0, so its printed digit needs C0 this close
    assert abs(constant_C0() - oracles.chain_density_sum(0.005)) < 1e-12


def test_coefficient_E_bound_and_zero_mode():
    e = coefficient_E()
    assert 0 < e <= _published("E")
    assert coefficient_E(w_bound=0.0) == 0.0


def test_coefficient_E_matches_midpoint_cubature():
    lo, hi = 1 / 13, 1 / 8.4
    oracle = 0.5617 * oracles.midpoint_2d(
        lo, hi, lambda t1: t1, hi,
        lambda t1, t2: (1 / t1 - 1 / t2) * np.log(1 / (8.4 * t2)) / (t1 * t2),
        n=1000,
    )
    assert abs(coefficient_E() - oracle) < 1e-5


def test_coefficient_L_bound_and_exact_mode():
    bound_mode = coefficient_L()
    exact_mode = coefficient_L(w_mode="exact")
    assert 0 < bound_mode <= _published("L")
    # the true Buchstab factor is below its tail bound everywhere in range
    assert exact_mode < bound_mode
    assert exact_mode > 0.9 * bound_mode
    with pytest.raises(DomainError):
        coefficient_L(w_mode="typo")
