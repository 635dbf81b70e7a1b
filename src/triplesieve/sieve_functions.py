"""Linear-sieve curves and the Buchstab function.

The upper and lower linear-sieve functions F, f satisfy F(s) = 2e^gamma/s and
f(s) = 0 for small s, continued by the delay system (sF(s))' = f(s-1),
(sf(s))' = F(s-1).  Everything here works with the normalized forms

    F0(s) = s F(s) / (2 e^gamma),    f0(s) = s f(s) / (2 e^gamma),

evaluated from the piecewise closed forms (the delay system itself is used
only as a consistency oracle in the tests):

    F0(s) = 1                                                   0 < s <= 3
    F0(s) = 1 + int_2^{s-1} log(t-1)/t dt                       3 <= s <= 5
    F0(s) = ... + int_2^{s-3} log(t-1)/t int_{t+2}^{s-1} log((u-1)/(t+1))/u du dt
                                                                5 <= s <= 7
    f0(s) = 0                                                   0 < s <= 2
    f0(s) = log(s-1)                                            2 <= s <= 4
    f0(s) = log(s-1) + int_3^{s-1} 1/t int_2^{t-1} log(u-1)/u du dt
                                                                4 <= s <= 6
    f0(s) = ... + int_2^{s-4} log(t-1)/t
                  int_{t+2}^{s-2} log((u-1)/(t+1)) log((s-1)/(u+1))/u du dt
                                                                6 <= s <= 8

The Buchstab function w is 1/u on [1, 2] and continues through
u w(u) = 1 + int_2^u w(t-1) dt, tabulated by trapezoid accumulation on a
1e-4 grid (the integrand is piecewise smooth with kinks only at integer u,
which land exactly on grid nodes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError
from .quadrature import IntegralSpec, integrate_1d, integrate_nested
from .reporting import ConstantCheck, make_check

F0_MAX = 7.0
F0_FLAT_END = 3.0  # F0 is exactly 1 up to here
F0_KNOTS = (3.0, 5.0)
F0_SINGLE_END = 5.0

f0_MAX = 8.0
f0_ZERO_END = 2.0
f0_KNOTS = (4.0, 6.0)
f0_LOG_END = 4.0
f0_ITERATED_END = 6.0

W_MAX = 64.0
W_BOUND_FROM_2 = 1 / 1.763
W_BOUND_FROM_3 = 0.5644
W_BOUND_FROM_4 = 0.5617


def _log_shift(t: np.ndarray) -> np.ndarray:
    return np.log(t - 1.0) / t


@lru_cache(maxsize=None)
def upper_F0(s: float, tol: float = 1e-9) -> float:
    """Normalized upper sieve curve F0(s) on (0, 7]."""
    s = float(s)
    if not 0.0 < s <= F0_MAX:
        raise DomainError(f"F0 is defined on 0 < s <= {F0_MAX}, got {s}")
    if s <= F0_FLAT_END:
        return 1.0
    value = 1.0 + integrate_1d(_log_shift, 2.0, s - 1.0, tol)
    if s > F0_SINGLE_END:
        wedge = IntegralSpec(
            "F0.wedge", 2,
            ((2.0, s - 3.0), (lambda t: t + 2.0, s - 1.0)),
            lambda t, u: np.log(t - 1.0) / t * np.log((u - 1.0) / (t + 1.0)) / u,
            tol,
        )
        value += integrate_nested(wedge)
    return value


@lru_cache(maxsize=None)
def lower_f0(s: float, tol: float = 1e-9) -> float:
    """Normalized lower sieve curve f0(s) on (0, 8]; identically 0 up to s = 2."""
    s = float(s)
    if not 0.0 < s <= f0_MAX:
        raise DomainError(f"f0 is defined on 0 < s <= {f0_MAX}, got {s}")
    if s <= f0_ZERO_END:
        return 0.0
    value = math.log(s - 1.0)
    if s > f0_LOG_END:
        iterated = IntegralSpec(
            "f0.iterated", 2,
            ((3.0, s - 1.0), (2.0, lambda t: t - 1.0)),
            lambda t, u: np.log(u - 1.0) / (t * u),
            tol,
        )
        value += integrate_nested(iterated)
    if s > f0_ITERATED_END:
        wedge = IntegralSpec(
            "f0.wedge", 2,
            ((2.0, s - 4.0), (lambda t: t + 2.0, s - 2.0)),
            lambda t, u: (
                np.log(t - 1.0) / t
                * np.log((u - 1.0) / (t + 1.0)) * np.log((s - 1.0) / (u + 1.0)) / u
            ),
            tol,
        )
        value += integrate_nested(wedge)
    return value


# ---------------------------------------------------------------------------
# Buchstab function
# ---------------------------------------------------------------------------


@lru_cache(maxsize=4)
def _buchstab_table(step: float = 1e-4, u_max: float = W_MAX) -> tuple[np.ndarray, np.ndarray]:
    """Grid of w(u) on [2, u_max] by blockwise trapezoid accumulation of W = u w(u).

    Each unit block [m, m+1] only reads w values from the previous block
    (the integrand is w(u-1)), so the recurrence vectorizes block by block.
    """
    per = int(round(1.0 / step))
    if abs(per * step - 1.0) > 1e-12:
        raise DomainError("step must divide 1 exactly")
    n = int(round((u_max - 2.0) / step)) + 1
    u = np.linspace(2.0, u_max, n)
    g = np.empty(n)  # g[i] = w(u[i] - 1)
    big_w = np.empty(n)  # big_w[i] = u[i] * w(u[i])
    first = min(per, n - 1)
    g[: first + 1] = 1.0 / (u[: first + 1] - 1.0)
    big_w[0] = 1.0
    for i_lo in range(0, n - 1, per):
        i_hi = min(i_lo + per, n - 1)
        if i_lo > 0:
            src = slice(i_lo + 1 - per, i_hi + 1 - per)
            g[i_lo + 1 : i_hi + 1] = big_w[src] / u[src]
        panel = 0.5 * (g[i_lo:i_hi] + g[i_lo + 1 : i_hi + 1]) * step
        big_w[i_lo + 1 : i_hi + 1] = big_w[i_lo] + np.cumsum(panel)
    return u, big_w / u


def buchstab_w(u: float) -> float:
    """Buchstab w(u) for 1 <= u <= 64 (exact 1/u on [1, 2], table-stepped above)."""
    u = float(u)
    if not 1.0 <= u <= W_MAX:
        raise DomainError(f"w is tabulated on 1 <= u <= {W_MAX}, got {u}")
    if u <= 2.0:
        return 1.0 / u
    grid, vals = _buchstab_table()
    return float(np.interp(u, grid, vals))


def buchstab_w_many(u: np.ndarray) -> np.ndarray:
    """Vectorized buchstab_w for kernel use; same domain rules."""
    u = np.asarray(u, dtype=float)
    if u.size and (u.min() < 1.0 or u.max() > W_MAX):
        raise DomainError(f"w arguments must lie in [1, {W_MAX}]")
    grid, vals = _buchstab_table()
    out = np.interp(u, grid, vals)
    small = u <= 2.0
    if np.any(small):
        out = np.where(small, 1.0 / np.maximum(u, 1.0), out)
    return out


def verify_buchstab_bounds(grid_step: float = 0.01, u_max: float = W_MAX) -> list[ConstantCheck]:
    """Check the three tail bounds of w on [2, u_max] at every grid point.

    Returns one ConstantCheck per bound whose start lies inside [2, u_max];
    `computed` is the grid maximum of w on that range.
    """
    if not 0.0 < grid_step <= 0.01:
        raise DomainError("grid_step must be positive and at most 0.01")
    if not 2.0 <= u_max <= W_MAX:
        raise DomainError(f"u_max must lie in [2, {W_MAX}]")
    bounds = (
        ("w_max_from_2", 2.0, W_BOUND_FROM_2, "w(u) <= 1/1.763 for u >= 2"),
        ("w_max_from_3", 3.0, W_BOUND_FROM_3, "w(u) < 0.5644 for u >= 3"),
        ("w_max_from_4", 4.0, W_BOUND_FROM_4, "w(u) < 0.5617 for u >= 4"),
    )
    checks = []
    for label, lo, bound, note in bounds:
        if lo > u_max:
            continue
        count = int(round((u_max - lo) / grid_step))
        points = np.linspace(lo, lo + count * grid_step, count + 1)
        points = points[points <= u_max + 1e-12]
        peak = float(buchstab_w_many(points).max())
        checks.append(make_check(label, peak, bound, "upper", 0.0, note))
    return checks


# ---------------------------------------------------------------------------
# Tabulated curves
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SieveCurveTable:
    """Sieve curves on uniform grids: F0/f0 over s, w over u.

    F0's closed forms stop at s = 7; entries of ``F0_values`` above 7 are NaN
    and skipped by the invariant checks.  ``tolerance`` is the absolute
    accuracy of each tabulated entry.
    """

    s_grid: np.ndarray
    F0_values: np.ndarray
    f0_values: np.ndarray
    u_grid: np.ndarray
    w_values: np.ndarray
    tolerance: float

    def F0_at(self, s: float) -> float:
        if not self.s_grid[0] <= s <= F0_MAX:
            raise DomainError(f"table lookup outside [{self.s_grid[0]}, {F0_MAX}]")
        return float(np.interp(s, self.s_grid, self.F0_values))

    def f0_at(self, s: float) -> float:
        if not self.s_grid[0] <= s <= self.s_grid[-1]:
            raise DomainError("table lookup outside the s grid")
        return float(np.interp(s, self.s_grid, self.f0_values))

    def w_at(self, u: float) -> float:
        if not self.u_grid[0] <= u <= self.u_grid[-1]:
            raise DomainError("table lookup outside the u grid")
        return float(np.interp(u, self.u_grid, self.w_values))

    def validate(self) -> list[str]:
        """Structural invariants; returns human-readable violations (empty = ok)."""
        bad: list[str] = []
        slack = 2.0 * self.tolerance
        s, F0v, f0v = self.s_grid, self.F0_values, self.f0_values
        if not np.all(np.diff(s) > 0):
            bad.append("s_grid not strictly ascending")
        if not np.all(np.diff(self.u_grid) > 0):
            bad.append("u_grid not strictly ascending")
        finite = np.isfinite(F0v)
        if np.any(~finite & (s <= F0_MAX + 1e-9)):
            bad.append("F0 has NaN entries at or below s = 7")
        flat = s <= F0_FLAT_END + 1e-12
        if not np.all(F0v[flat] == 1.0):
            bad.append("F0 != 1 somewhere on (0, 3]")
        zero = s <= f0_ZERO_END + 1e-12
        if not np.all(f0v[zero] == 0.0):
            bad.append("f0 != 0 somewhere on (0, 2]")
        if np.any(F0v[finite] < 1.0 - slack):
            bad.append("F0 < 1 somewhere")
        if np.any(f0v[finite] > F0v[finite] + slack):
            bad.append("f0 exceeds F0 (lower sieve above upper sieve)")
        on2 = s >= f0_ZERO_END - 1e-12
        if np.any(np.diff(f0v[on2]) < -slack):
            bad.append("f0 decreasing on [2, 8]")
        u12 = self.u_grid <= 2.0 + 1e-12
        if not np.allclose(self.w_values[u12], 1.0 / self.u_grid[u12], rtol=0, atol=1e-12):
            bad.append("w != 1/u on [1, 2]")
        # adjacent-entry continuity: local slopes of all three curves are < 10
        for name, grid, vals in (
            ("F0", s[finite], F0v[finite]),
            ("f0", s, f0v),
            ("w", self.u_grid, self.w_values),
        ):
            steps = np.diff(grid)
            if np.any(np.abs(np.diff(vals)) > 10.0 * steps + slack):
                bad.append(f"{name} jumps by more than 10x the grid step")
        return bad


def build_curve_table(
    s_step: float = 1e-3,
    u_step: float = 0.01,
    tolerance: float = 1e-6,
) -> SieveCurveTable:
    """Tabulate F0, f0, w at uniform resolution (defaults: 1e-3 in s, 1e-2 in u).

    The single-integral pieces ride on one cumulative grid; the double-integral
    pieces above s = 5 (F0) and s = 6 (f0) are evaluated pointwise, so the
    default resolution takes a couple of seconds to build.
    """
    n_s = int(round(f0_MAX / s_step))
    s_grid = np.linspace(s_step, f0_MAX, n_s)
    F0v = np.empty(n_s)
    f0v = np.empty(n_s)
    for i, s in enumerate(s_grid):
        sv = float(s)
        # grid points that should be exactly 7 can round a few ulp past it
        if sv <= F0_MAX + 1e-9:
            F0v[i] = upper_F0(min(sv, F0_MAX), tolerance / 10)
        else:
            F0v[i] = math.nan
        f0v[i] = lower_f0(min(sv, f0_MAX), tolerance / 10)
    n_u = int(round((W_MAX - 1.0) / u_step))
    u_grid = np.linspace(1.0, W_MAX, n_u + 1)
    w_vals = buchstab_w_many(u_grid)
    return SieveCurveTable(s_grid, F0v, f0v, u_grid, w_vals, tolerance)
