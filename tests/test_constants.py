import dataclasses
import math

import numpy as np
import pytest

from triplesieve.constants import (
    _odd_zeta_minus_one,
    coefficient_E,
    coefficient_L,
    constant_C0,
    constant_C2,
    constant_C3,
    partial_product,
    singular_series_CN,
)
from triplesieve.errors import CapacityError, DomainError
from triplesieve.pipeline import load_manifest
from triplesieve.primes import primes_up_to
from triplesieve.quadrature import (
    L_QUADRUPLE, ChainFamily, chain_value, integrate_nested,
)
from triplesieve.sieve_functions import buchstab_w_many

import oracles


# ---------------------------------------------------------------------------
# The prime table
# ---------------------------------------------------------------------------


def _full_width_primes(n):
    """The reference: Eratosthenes over every n, where primes_up_to sieves the odd n."""
    mask = np.ones(n + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return np.flatnonzero(mask)


@pytest.mark.parametrize("n", [100, 1000, 10**4, 10**5, 10**5 + 3, 4 * 10**5])
def test_prime_table_matches_a_full_width_sieve(n):
    table = primes_up_to(n)
    assert table.format == "q" and table.readonly
    assert np.array_equal(table, _full_width_primes(n))


def test_small_prime_tables_match_trial_division():
    for n in range(-1, 80):
        assert list(primes_up_to(n)) == oracles.primes_below(n), n


def test_prime_table_capacity():
    # 10^6 covers the factor sieve's sqrt(1e10 + 6)
    assert primes_up_to(10**6)[-1] == 999_983
    with pytest.raises(CapacityError):
        primes_up_to(10**6 + 1)


# ---------------------------------------------------------------------------
# Euler products
# ---------------------------------------------------------------------------


def test_c3_single_factor_exact_rational():
    # only p = 5 contributes below 7: (9/2) (1 - 14/64) = 225/64
    assert partial_product(3, 6) == pytest.approx(225 / 64, abs=1e-12)


def test_c2_single_factor_exact_rational():
    # only p = 3 contributes below 5: 2 (1 - 1/4) = 3/2
    assert partial_product(2, 4) == pytest.approx(1.5, abs=1e-12)


def test_partial_products_decrease():
    values = [partial_product(3, P) for P in (10, 100, 1000, 10_000)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_every_product_factor_in_unit_interval():
    p = np.array(primes_up_to(10_000), dtype=float)
    triple = 1 - (3 * p[p > 3] - 1) / (p[p > 3] - 1) ** 3
    twin = 1 - 1 / (p[p > 2] - 1) ** 2
    for factors in (triple, twin):
        assert np.all(factors > 0) and np.all(factors <= 1)


def test_c3_truncation_levels_agree():
    # the factors past P multiply to exp(-sum_{p>P} ~3/p^2), and
    # sum_{p>P} 1/p^2 is about 1/(P log P): the truncations approach C3 from above
    c3 = constant_C3().value
    for P in (10**4, 10**5, 10**6):
        gap = math.log(partial_product(3, P) / c3) * P * math.log(P)
        assert 2.0 < gap < 4.0, P


@pytest.mark.parametrize("c", [2, 3])
def test_products_match_the_mpmath_oracle_within_their_bound(c):
    res = (constant_C2 if c == 2 else constant_C3)()
    oracle = oracles.hardy_littlewood_constant(c)
    assert abs(res.value - oracle) <= res.value * res.tail_bound
    assert abs(res.value - oracle) <= math.ulp(oracle)  # the 40-digit oracle's float, or its neighbour
    assert 0 < res.tail_bound <= 1e-14


def test_result_invariants():
    # the exact product runs to Q = 1000, the zeta-value tail beyond it
    for res in (constant_C2(), constant_C3()):
        assert res.truncation_prime == 1000
        assert 0 < res.tail_bound <= 1e-14


def test_tolerance_argument_is_accepted_and_ignored():
    # the old tolerance signature still calls, with neither a floor nor an effect
    assert constant_C3(1e-9) is constant_C3(1e-4) is constant_C3()
    assert constant_C2(1e-6) is constant_C2()


def test_twin_constant_value():
    # 2 x OEIS A005597, and the mpmath oracle to 1e-14
    assert constant_C2().value == pytest.approx(oracles.hardy_littlewood_constant(2), abs=1e-14)
    assert f"{constant_C2().value:.15g}" == "1.32032363169374"


def test_odd_zeta_matches_mpmath_within_its_bound():
    for s in range(2, 13):
        v, e = _odd_zeta_minus_one(s)
        exact = oracles.odd_zeta_minus_one(s)
        assert abs(v - exact) <= e, s
        assert e <= 2e-15 * exact, s


# ---------------------------------------------------------------------------
# singular series C(N)
# ---------------------------------------------------------------------------


def test_CN_without_odd_divisors_is_half_C2():
    base = constant_C2().value / 2
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


@pytest.mark.parametrize("N, divisors", [
    (2 * 99991 * 1000003, (99991, 1000003)),
    (2 * 3**2 * 5 * 999999937, (3, 5, 999999937)),
    (4 * 7 * 1000033, (7, 1000033)),
])
def test_CN_with_a_prime_cofactor_above_the_table(N, divisors):
    # trial division stops once q^2 passes the cofactor left, here a prime above
    # 10^6, past any prime table
    assert all(oracles.omega_trial(q) == 1 for q in divisors)
    expected = math.prod((q - 1) / (q - 2) for q in divisors) * singular_series_CN(4)
    assert singular_series_CN(N) == pytest.approx(expected, rel=1e-12)


def test_CN_keeps_no_prime_table():
    # N = 2p with p a prime near 5e11: trial division runs to sqrt(p) ~ 7e5 by
    # 3 and the 6k -+ 1, and no table sized by N is built or cached
    p = 499_999_999_979
    constant_C2()
    primes_up_to.cache_clear()
    assert singular_series_CN(2 * p) == pytest.approx((p - 1) / (p - 2) * singular_series_CN(4),
                                                      rel=1e-12)
    assert primes_up_to.cache_info().misses == 0


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
    # moves by ~337 per unit of C0, so its printed digit needs C0 within 1e-12;
    # the closed-form A_1 and the O(h^6) delay integrator hold it within 1e-15
    # of the O(h^4) oracle at h = 0.0025 (7e-16 apart)
    assert abs(constant_C0() - oracles.chain_density_sum(0.0025)[0]) < 1e-15


def test_coefficient_E_bound_and_zero_mode():
    e = coefficient_E()
    assert 0 < e <= _published("E")


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
    # the same display with the true Buchstab factor w((1 - t1 - t2 - t3 - t4)/t2)
    exact_mode = integrate_nested(dataclasses.replace(
        L_QUADRUPLE,
        integrand=lambda t1, t2, t3, t4: (
            buchstab_w_many((1.0 - t1 - t2 - t3 - t4) / t2) / (t1 * t2**2 * t3 * t4)
        ),
    ))
    assert 0 < bound_mode <= _published("L")
    # the true Buchstab factor is below its tail bound everywhere in range
    assert exact_mode < bound_mode
    assert exact_mode > 0.9 * bound_mode
