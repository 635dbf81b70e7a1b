"""Linear-sieve curves and the Buchstab function, from one unit-delay table.

The upper and lower linear-sieve functions F, f satisfy F(s) = 2e^gamma/s and
f(s) = 0 for small s, continued by the delay system (sF(s))' = f(s-1),
(sf(s))' = F(s-1).  Everything here works with the normalized forms

    F0(s) = s F(s) / (2 e^gamma),    f0(s) = s f(s) / (2 e^gamma),

which are F0 = 1 on (0, 3] and f0 = 0 on (0, 2], and above those pieces

    F0'(s) = f0(s-1)/(s-1),    f0'(s) = F0(s-1)/(s-1).

The Buchstab function w is 1/u on [1, 2]; above it W(u) = u w(u) solves
W'(u) = W(u-1)/(u-1).  Both systems run on one unit-delay table with step
h = 0.005 (F0, f0 on [1, 8]; W on [1, 64]): each unit block [m, m+1] is the
value at m plus the Euler–Maclaurin cumulative integral (O(h^6)) of the
previous block's samples over t - 1.  The curves are smooth inside every
block; their kinks fall on the integers, which are block ends.  Between nodes
a curve is the cubic Hermite interpolant whose node slopes come exactly from
the delay equations (the right-hand slope at u = 2, where they start).
"""

from __future__ import annotations

from functools import cache

import numpy as np

from .constants import W_TAIL_BOUND_FROM_3, W_TAIL_BOUND_FROM_4
from .errors import DomainError
from .quadrature import _cumulative_euler_maclaurin
from .reporting import ConstantCheck, make_check

STEP = 0.005
_PER_UNIT = round(1 / STEP)  # nodes per unit block

F0_MAX = 7.0
f0_MAX = 8.0
W_MAX = 64.0
W_BOUND_FROM_2 = 1 / 1.763


def _unit_delay(
    start: tuple[float, ...], source: list[int], top: int
) -> tuple[np.ndarray, np.ndarray]:
    """Values and slopes of curves y_i on the nodes of [1, top], step STEP.

    y_i = start[i] on [1, 2]; above 2, y_i'(t) = y_j(t-1)/(t-1) with
    j = source[i].  The slope at node 2 is the right-hand one.
    """
    n = (top - 1) * _PER_UNIT + 1
    t = 1.0 + STEP * np.arange(n)
    y = np.empty((len(start), n))
    y[:, : _PER_UNIT + 1] = np.array(start)[:, None]
    dy = np.zeros_like(y)
    for lo in range(_PER_UNIT, n - 1, _PER_UNIT):
        block = slice(lo, lo + _PER_UNIT + 1)
        prev = slice(lo - _PER_UNIT, lo + 1)
        dy[:, block] = y[source, prev] / t[prev]
        for i in range(len(start)):
            y[i, block] = y[i, lo] + _cumulative_euler_maclaurin(dy[i, block], STEP)
    return y, dy


@cache
def _table() -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """(F0 and f0 values, slopes) on [1, 8] and (W values, slopes) on [1, 64]."""
    return _unit_delay((1.0, 0.0), [1, 0], int(f0_MAX)), _unit_delay((1.0,), [0], int(W_MAX))


def _hermite(y: np.ndarray, dy: np.ndarray, x: np.ndarray | float) -> np.ndarray:
    """Cubic Hermite interpolant of node values y and slopes dy at x >= 1."""
    pos = (np.asarray(x, dtype=float) - 1.0) / STEP
    i = np.minimum(pos.astype(np.intp), len(y) - 2)
    th = pos - i
    rest = 1.0 - th
    return (
        rest * rest * ((1.0 + 2.0 * th) * y[i] + STEP * th * dy[i])
        + th * th * ((3.0 - 2.0 * th) * y[i + 1] - STEP * rest * dy[i + 1])
    )


def upper_F0(s: float) -> float:
    """Normalized upper sieve curve F0(s) on (0, 7]."""
    s = float(s)
    if not 0.0 < s <= F0_MAX:
        raise DomainError(f"F0 is defined on 0 < s <= {F0_MAX}, got {s}")
    if s <= 3.0:
        return 1.0
    (y, dy), _ = _table()
    return float(_hermite(y[0], dy[0], s))


def lower_f0(s: float) -> float:
    """Normalized lower sieve curve f0(s) on (0, 8]; identically 0 up to s = 2."""
    s = float(s)
    if not 0.0 < s <= f0_MAX:
        raise DomainError(f"f0 is defined on 0 < s <= {f0_MAX}, got {s}")
    if s <= 2.0:
        return 0.0
    (y, dy), _ = _table()
    return float(_hermite(y[1], dy[1], s))


# ---------------------------------------------------------------------------
# Buchstab function
# ---------------------------------------------------------------------------


def buchstab_w(u: float) -> float:
    """Buchstab w(u) for 1 <= u <= 64 (exact 1/u on [1, 2])."""
    u = float(u)
    if not 1.0 <= u <= W_MAX:
        raise DomainError(f"w is tabulated on 1 <= u <= {W_MAX}, got {u}")
    if u <= 2.0:
        return 1.0 / u
    _, (y, dy) = _table()
    return float(_hermite(y[0], dy[0], u)) / u


def buchstab_w_many(u: np.ndarray) -> np.ndarray:
    """Vectorized buchstab_w for kernel use; same domain rules."""
    u = np.asarray(u, dtype=float)
    if u.size and (u.min() < 1.0 or u.max() > W_MAX):
        raise DomainError(f"w arguments must lie in [1, {W_MAX}]")
    _, (y, dy) = _table()
    return np.where(u <= 2.0, 1.0, _hermite(y[0], dy[0], u)) / u


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
        ("w_max_from_3", 3.0, W_TAIL_BOUND_FROM_3, "w(u) < 0.5644 for u >= 3"),
        ("w_max_from_4", 4.0, W_TAIL_BOUND_FROM_4, "w(u) < 0.5617 for u >= 4"),
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
