import math

import numpy as np
import pytest

from triplesieve.errors import DomainError
from triplesieve.pipeline import verify_buchstab_bounds
from triplesieve.sieve_functions import (
    buchstab_w,
    buchstab_w_many,
    lower_f0,
    upper_F0,
)

import oracles


def log_shift(t):
    return np.log(t - 1.0) / t


# ---------------------------------------------------------------------------
# F0 / f0 spot values
# ---------------------------------------------------------------------------


def test_F0_flat_piece_is_exactly_one():
    for s in (0.5, 1.0, 2.0, 2.9, 3.0):
        assert upper_F0(s) == 1.0


def test_f0_zero_piece_is_exactly_zero():
    for s in (0.5, 1.5, 2.0):
        assert lower_f0(s) == 0.0


def test_f0_log_piece():
    assert abs(lower_f0(3.0) - math.log(2)) < 1e-10
    assert abs(lower_f0(3.99) - math.log(2.99)) < 1e-10


def test_F0_at_five_matches_simpson_oracle():
    oracle = 1.0 + oracles.simpson(log_shift, 2.0, 4.0, 200_000)
    assert abs(upper_F0(5.0) - oracle) < 1e-8


def test_F0_just_below_four_matches_simpson_oracle():
    oracle = 1.0 + oracles.simpson(log_shift, 2.0, 2.99, 200_000)
    assert abs(upper_F0(3.99) - oracle) < 1e-8


# points inside every piece, on and between the table's nodes
@pytest.mark.parametrize("s", [3.1416, 3.99, 4.7071, 5.0, 5.4142, 6.175, 6.9137, 7.0])
def test_F0_matches_closed_form(s):
    assert abs(upper_F0(s) - oracles.F0_closed(s)) < 1e-11


@pytest.mark.parametrize("s", [4.3219, 5.0, 5.7183, 6.3183, 7.0, 7.5432, 8.0])
def test_f0_matches_closed_form(s):
    assert abs(lower_f0(s) - oracles.f0_closed(s)) < 1e-11


def test_domain_errors():
    for bad in (0.0, -1.0, 7.0 + 1e-9):
        with pytest.raises(DomainError):
            upper_F0(bad)
    for bad in (0.0, 8.0 + 1e-9):
        with pytest.raises(DomainError):
            lower_f0(bad)


@pytest.mark.parametrize("knot", [3.0, 5.0])
def test_F0_continuity_at_knots(knot):
    eps = 1e-6
    assert abs(upper_F0(knot - eps) - upper_F0(knot + eps)) <= 10 * eps


@pytest.mark.parametrize("knot", [4.0, 6.0])
def test_f0_continuity_at_knots(knot):
    eps = 1e-6
    assert abs(lower_f0(knot - eps) - lower_f0(knot + eps)) <= 10 * eps


def test_delay_system_consistency():
    # closed forms vs the delay system: F0'(s) = f0(s-1)/(s-1) and
    # f0'(s) = F0(s-1)/(s-1), by central differences off the knots, over f0's
    # third piece too; the differences' own error is below 2e-9 here
    h = 1e-4
    points = np.linspace(3.1, 7.9, 25)
    for s in points:
        s = float(s)
        if s + h <= 7.0:  # F0's domain
            dF = (upper_F0(s + h) - upper_F0(s - h)) / (2 * h)
            assert abs(dF - lower_f0(s - 1) / (s - 1)) < 1e-7, s
        df = (lower_f0(s + h) - lower_f0(s - h)) / (2 * h)
        assert abs(df - upper_F0(s - 1) / (s - 1)) < 1e-7, s


def test_monotone_and_ordering_properties():
    grid = np.linspace(0.1, 7.0, 139)
    F0v = np.array([upper_F0(float(s)) for s in grid])
    f0v = np.array([lower_f0(float(s)) for s in grid])
    assert np.all(F0v >= 1.0 - 1e-12)
    assert np.all(f0v <= F0v + 1e-12)  # upper sieve dominates lower sieve
    assert np.all(np.diff(F0v) >= -1e-12)
    assert np.all(np.diff(f0v) >= -1e-12)


# ---------------------------------------------------------------------------
# Buchstab function
# ---------------------------------------------------------------------------


def test_w_reciprocal_piece():
    assert buchstab_w(1.5) == pytest.approx(2 / 3, abs=1e-15)
    assert buchstab_w(1.0) == 1.0
    assert buchstab_w(2.0) == 0.5


def test_w_at_three_one_analytic_step():
    # 3 w(3) = 1 + int_2^3 w(t-1) dt = 1 + log 2
    assert abs(buchstab_w(3.0) - (1 + math.log(2)) / 3) < 1e-11
    assert buchstab_w(3.0) < 0.5644


def test_w_closed_form_on_second_unit_interval():
    # u w(u) = 1 + log(u-1) exactly for 2 <= u <= 3
    for u in (2.0031, 2.2, 2.5, 2.8, 3.0):
        assert abs(buchstab_w(u) - (1 + math.log(u - 1)) / u) < 1e-11


def test_w_matches_simpson_oracle_on_third_unit_interval():
    # u w(u) = 1 + log 2 + int_2^{u-1} (1 + log(v-1))/v dv for 3 <= u <= 4
    for u in (3.3, 3.7, 4.0):
        tail = oracles.simpson(lambda v: (1 + np.log(v - 1.0)) / v, 2.0, u - 1.0, 20_000)
        assert abs(buchstab_w(u) - (1 + math.log(2) + tail) / u) < 1e-11


@pytest.mark.parametrize("u", [3.1416, 3.7183, 4.0, 4.4142, 4.8765, 5.0])
def test_w_matches_closed_form(u):
    assert abs(buchstab_w(u) - oracles.w_closed(u)) < 1e-11
    assert abs(buchstab_w_many(np.array([u]))[0] - oracles.w_closed(u)) < 1e-11


def test_w_at_64_is_the_limit():
    # w(u) -> e^-gamma, and by u = 64 the remaining oscillation is far below 1e-16
    assert abs(buchstab_w(64.0) - math.exp(-0.57721566490153286)) < 1e-15


def test_w_domain():
    for bad in (0.99, 64.01):
        with pytest.raises(DomainError):
            buchstab_w(bad)
    with pytest.raises(DomainError):
        buchstab_w_many(np.array([1.5, 70.0]))


def test_w_bounds_all_pass_at_centistep():
    checks = verify_buchstab_bounds()
    assert [c.label for c in checks] == ["w_max_from_2", "w_max_from_3", "w_max_from_4"]
    assert all(c.passed for c in checks)
    assert all(c.direction == "upper" for c in checks)


def test_w_late_range_stays_near_limit():
    # far out the oscillation settles strictly between the printed bounds
    vals = buchstab_w_many(np.linspace(10.0, 64.0, 500))
    assert vals.min() > 0.56
    assert vals.max() < 0.5644


# ---------------------------------------------------------------------------
# invariants on a fine grid
# ---------------------------------------------------------------------------


def test_curve_invariants_on_fine_grid():
    s = np.linspace(0.002, 8.0, 4000)
    upper = s <= 7.0
    F0v = np.array([upper_F0(float(v)) for v in s[upper]])
    f0v = np.array([lower_f0(float(v)) for v in s])
    assert np.all(F0v[s[upper] <= 3.0] == 1.0)
    assert np.all(f0v[s <= 2.0] == 0.0)
    assert np.all(F0v >= 1.0)
    assert np.all(f0v[upper] <= F0v)  # the lower sieve stays below the upper
    assert np.all(np.diff(f0v[s >= 2.0]) >= 0.0)
    u = np.linspace(1.0, 64.0, 12601)
    wv = buchstab_w_many(u)
    assert np.all(wv[u <= 2.0] == 1.0 / u[u <= 2.0])
    # adjacent entries: local slopes of all three curves stay below 10
    for grid, vals in ((s[upper], F0v), (s, f0v), (u, wv)):
        assert np.all(np.abs(np.diff(vals)) < 10.0 * np.diff(grid))
