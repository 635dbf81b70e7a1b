"""Linear-sieve curves and the Buchstab function, from one unit-delay table.

The upper and lower linear-sieve functions F, f satisfy F(s) = 2e^gamma/s and
f(s) = 0 for small s, continued by the delay system (sF(s))' = f(s-1),
(sf(s))' = F(s-1).  Everything here works with the normalized forms

    F0(s) = s F(s) / (2 e^gamma),    f0(s) = s f(s) / (2 e^gamma),

which are F0 = 1 on (0, 3] and f0 = 0 on (0, 2], and above those pieces

    F0'(s) = f0(s-1)/(s-1),    f0'(s) = F0(s-1)/(s-1).

The Buchstab function w is 1/u on [1, 2]; above it W(u) = u w(u) solves
W'(u) = W(u-1)/(u-1).  F0, f0 and W are one delay system for
``quadrature._unit_delay``, tabulated once on [1, 64] with step h = 0.005
(F0 and f0 are read up to 7 and 8): each unit block [m, m+1] is the value at
m plus the Euler–Maclaurin cumulative integral (O(h^6)) of its slopes, which
are the previous block's samples over t - 1.  The curves are smooth inside every
block; their kinks fall on the integers, which are block ends.  Between nodes
a curve is the cubic Hermite interpolant whose node slopes come exactly from
the delay equations (the right-hand slope at u = 2, where they start).
The published tail bounds of w are checked by ``pipeline.verify_buchstab_bounds``.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from .errors import DomainError
from .quadrature import _unit_delay

STEP = 0.005

F0_MAX = 7.0
f0_MAX = 8.0
W_MAX = 64.0


@cache
def _table() -> tuple[np.ndarray, np.ndarray]:
    """Values and slopes of F0, f0 and W (rows) on [1, 64]."""
    return _unit_delay((1.0, 0.0, 1.0), lambda u, y: y[[1, 0, 2]] / u, int(W_MAX), STEP)


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
    y, dy = _table()
    return float(_hermite(y[0], dy[0], s))


def lower_f0(s: float) -> float:
    """Normalized lower sieve curve f0(s) on (0, 8]; identically 0 up to s = 2."""
    s = float(s)
    if not 0.0 < s <= f0_MAX:
        raise DomainError(f"f0 is defined on 0 < s <= {f0_MAX}, got {s}")
    if s <= 2.0:
        return 0.0
    y, dy = _table()
    return float(_hermite(y[1], dy[1], s))


# ---------------------------------------------------------------------------
# Buchstab function
# ---------------------------------------------------------------------------


def buchstab_w(u: float) -> float:
    """Buchstab w(u) for 1 <= u <= 64 (exact 1/u on [1, 2])."""
    u = float(u)
    if not 1.0 <= u <= W_MAX:
        raise DomainError(f"w is tabulated on 1 <= u <= {W_MAX}, got {u}")
    return float(buchstab_w_many(u))


def buchstab_w_many(u: np.ndarray) -> np.ndarray:
    """Vectorized buchstab_w for kernel use; same domain rules."""
    u = np.asarray(u, dtype=float)
    if u.size and (u.min() < 1.0 or u.max() > W_MAX):
        raise DomainError(f"w arguments must lie in [1, {W_MAX}]")
    y, dy = _table()
    return np.where(u <= 2.0, 1.0, _hermite(y[2], dy[2], u)) / u

