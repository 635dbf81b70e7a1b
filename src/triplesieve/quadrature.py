"""Closed-form 1-D integrals, nested iterated integrals, and one unit-delay integrator.

Four layers live here:

* ``log_basic_integral`` and ``log_shift_integral`` — the 1-D log integrals in
  closed form over the real dilogarithm ``_li2``; in particular
  A_1(v) = int_2^v log(t-1)/t dt = log(v-1) log v + Li2(1-v) + pi^2/12.
* ``integrate_nested`` — iterated integrals of depth 1..4 whose limits are
  functions of the outer variables.  Evaluated as a tensor-product
  Gauss–Legendre rule, refined on a node ladder until two successive
  evaluations agree to 1e-9, the one tolerance every display uses.  Empty
  ranges (upper <= lower) contribute exactly 0.
* the display table — ``named_integral_specs`` gives the components of G, g,
  H, h, J, K and E, built from two outer (t1, t2) regions and three kernels
  stated once (J and K share all but their singles), and ``L_QUADRUPLE`` is
  L's four-fold display with its Buchstab factor at the tail bound 0.5644.
* ``_unit_delay`` — curves that are constant on [1, 2] and above it solve a
  delay system y'(t) = slope(t-1, y(t-1)), integrated one unit block at a time
  on a uniform grid: each block is its left-end value plus the Euler–Maclaurin
  cumulative integral (error O(h^6)) of its slopes, all curves in one step.
  The sieve curves of ``sieve_functions`` run on it, and so does the chain
  A_j(v) = int_{j+1}^v A_{j-1}(t-1)/t dt (j >= 2) behind the density
  coefficients c_k = A_{k-2}(199) of integers with exactly k large prime
  factors: ``chain_table`` carries A_2 .. A_13 and the tail
  T = sum_{j>=14} A_j, which solves T'(t) = (A_13(t-1) + T(t-1))/t, so that
  c_15 = A_13(199) and C0 = sum_{15<=k<=199} c_k = A_13(199) + T(199).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, lru_cache
from typing import Callable, Union

import numpy as np

from .constants import _B2K, W_TAIL_BOUND_FROM_3
from .errors import DomainError, EvaluationError

Kernel = Callable[..., np.ndarray]
Limit = Union[float, Callable[..., np.ndarray]]

# ---------------------------------------------------------------------------
# The 1-D log integrals in closed form
# ---------------------------------------------------------------------------

_PI2_6 = math.pi**2 / 6
# Li2(x) = u - u^2/4 + sum_k B_2k u^(2k+1) / (2k+1)! in u = -log(1-x); on
# [-1, 1/2], |u| <= log 2 and these nine terms reach 1e-17 (highest first)
_LI2_SERIES = [b / math.factorial(2 * k + 1) for k, b in enumerate(_B2K, 1)][::-1]


def _li2(x: np.ndarray | float) -> np.ndarray:
    """The dilogarithm Li2(x) = -int_0^x log(1-s)/s ds for real x <= 1.

    The series in u serves [-1, 1/2]; inversion below -1 and reflection above
    1/2 bring the rest there.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    if not x.size:
        return out
    inv, refl = x < -1.0, x > 0.5
    z = x[inv]
    out[inv] = -_PI2_6 - 0.5 * np.log(-z) ** 2 - _li2(1.0 / z)
    z = x[refl]
    # log(z) = 0 at z = 1, where log(1-z) would be -inf
    log1mz = np.log1p(-np.minimum(z, np.nextafter(1.0, 0.0)))
    out[refl] = _PI2_6 - np.log(z) * log1mz - _li2(1.0 - z)
    series = ~(inv | refl)
    u = -np.log1p(-x[series])
    u2 = u * u
    out[series] = u - 0.25 * u2 + u * u2 * np.polyval(_LI2_SERIES, u2)
    return out


def _A1(v: np.ndarray | float) -> np.ndarray:
    """A_1(v) = int_2^v log(t-1)/t dt, and 0 for v <= 2."""
    w = np.maximum(v, 2.0)
    return np.where(v > 2.0, np.log(w - 1.0) * np.log(w) + _li2(1.0 - w) + 0.5 * _PI2_6, 0.0)


def log_basic_integral(a: float, b: float) -> float:
    """int_a^b log(t-1)/t dt = A_1(b) - A_1(a), for 2 <= a <= b."""
    if not 2.0 <= a <= b < math.inf:
        raise DomainError(f"log_basic_integral needs finite 2 <= a <= b, got [{a}, {b}]")
    lo, hi = _A1(np.array([a, b]))
    return float(hi - lo)


def log_shift_integral(c: float, d: float, a: float, b: float) -> float:
    """int_a^b log(c - d/(t+1))/t dt, for 0 < a <= b, c > 0 and c(a+1) > d.

    Writing c - d/(t+1) = (ct + c - d)/(t+1), the antiderivative is
    log^2(ct)/2 + Li2((d-c)/(ct)) + Li2(-t).
    """
    if not (0.0 < a <= b < math.inf and 0.0 < c < math.inf and -math.inf < d < c * (a + 1.0)):
        raise DomainError(
            f"log_shift_integral needs finite 0 < a <= b, c > 0 and c(a+1) > d, "
            f"got c={c}, d={d} on [{a}, {b}]"
        )
    t = np.array([a, b])
    F = 0.5 * np.log(c * t) ** 2 + _li2((d - c) / (c * t)) + _li2(-t)
    return float(F[1] - F[0])


# ---------------------------------------------------------------------------
# Nested iterated integrals with variable limits
# ---------------------------------------------------------------------------

# node-count ladders per depth, 1 to 4; refinement stops at the first agreement
# within _TOLERANCE, the absolute target of every display
_TOLERANCE = 1e-9
_LADDERS = {
    1: (16, 24, 32, 48, 64, 96, 128),
    2: (16, 24, 32, 48, 64, 96),
    3: (12, 16, 24, 32, 48, 64),
    4: (8, 12, 16, 24, 32, 48),
}


@dataclass(frozen=True)
class IntegralSpec:
    """A named iterated integral: per-level (lower, upper) limits, innermost kernel.

    Level-i limits are scalars or callables of the i outer variables
    (vectorized over numpy arrays); the integrand takes all ``depth``
    variables, one per limit pair, 1 to 4 of them.
    """

    name: str
    limits: tuple[tuple[Limit, Limit], ...]
    integrand: Kernel

    def __post_init__(self) -> None:
        if self.depth not in _LADDERS:
            raise DomainError(f"{self.name!r}: depth must be 1..{len(_LADDERS)}, got {self.depth}")
        if callable(self.limits[0][0]) or callable(self.limits[0][1]):
            raise DomainError(f"{self.name!r}: outermost limits must be constants")

    @property
    def depth(self) -> int:
        return len(self.limits)


@lru_cache(maxsize=32)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(n)


def _tensor_value(spec: IntegralSpec, n: int) -> float:
    x, w = _leggauss(n)

    def level(i: int, outers: list[np.ndarray]) -> np.ndarray:
        lo, hi = spec.limits[i]
        base_shape = outers[-1].shape if outers else ()
        lov = np.broadcast_to(
            np.asarray(lo(*outers) if callable(lo) else lo, dtype=float), base_shape
        )
        hiv = np.broadcast_to(
            np.asarray(hi(*outers) if callable(hi) else hi, dtype=float), base_shape
        )
        if not (np.isfinite(lov).all() and np.isfinite(hiv).all()):
            raise EvaluationError(f"{spec.name!r}: non-finite limit at level {i + 1}")
        half = np.maximum(hiv - lov, 0.0) * 0.5
        t = lov[..., None] + half[..., None] * (x + 1.0)
        inner = [np.broadcast_to(o[..., None], t.shape) for o in outers]
        if i == spec.depth - 1:
            vals = np.asarray(spec.integrand(*inner, t), dtype=float)
            # points with a collapsed range carry zero weight; mask them before
            # the finiteness check so boundary kernels cannot poison the sum
            if half.ndim:
                vals = np.where(half[..., None] > 0.0, vals, 0.0)
            elif half == 0.0:
                vals = np.zeros_like(vals)
            if not np.isfinite(vals).all():
                raise EvaluationError(f"{spec.name!r}: integrand non-finite at level {spec.depth}")
        else:
            vals = level(i + 1, inner + [t])
        return (vals * w).sum(axis=-1) * half

    return float(np.squeeze(level(0, [])))


def integrate_nested(spec: IntegralSpec) -> float:
    """Evaluate a depth-1..4 iterated integral to an absolute 1e-9 (_TOLERANCE)."""
    prev: float | None = None
    for n in _LADDERS[spec.depth]:
        val = _tensor_value(spec, n)
        if prev is not None and abs(val - prev) <= max(_TOLERANCE, 1e-13 * abs(val)):
            return val
        prev = val
    raise EvaluationError(
        f"nested integral {spec.name!r} did not converge to {_TOLERANCE} "
        f"on the node ladder {_LADDERS[spec.depth]}"
    )


# ---------------------------------------------------------------------------
# The weighted-sieve integral catalogue (one- to four-fold displays)
# ---------------------------------------------------------------------------
# The recurring constants are the sieve exponent bookkeeping: 1/13 and 1/8.4
# are the two sifting levels, 0.475 the level-of-distribution exponent, and
# 6.175 = 13 * 0.475 its rescaling (5.175 = 6.175 - 1, 3.175 = 6.175 - 3,
# 2.175 = 6.175 - 4).

# the two outer (t1, t2) regions, t1 over [1/13, 1/8.4]: t2 over [t1, 1/8.4]
# below the upper sifting level, over [1/8.4, 0.475 - 2/13 - t1] above it
_BELOW = ((1 / 13, 1 / 8.4), (lambda t1: t1, 1 / 8.4))
_ABOVE = ((1 / 13, 1 / 8.4), (1 / 8.4, lambda t1: 0.475 - 2 / 13 - t1))

# L's four-fold display, its Buchstab factor w((1 - t1 - t2 - t3 - t4)/t2) at the
# tail bound 0.5644 (u > 3 on the domain); no named display, so not in the table
L_QUADRUPLE = IntegralSpec(
    "L.quadruple",
    _BELOW + ((lambda t1, t2: t2, 1 / 8.4), (1 / 8.4, lambda t1, t2, t3: 0.475 - 2 / 13 - t3)),
    lambda t1, t2, t3, t4: W_TAIL_BOUND_FROM_3 / (t1 * t2**2 * t3 * t4),
)


@cache
def _catalogue() -> dict[str, tuple[IntegralSpec, ...]]:
    def reach(t1, t2):  # the top of the t3 range
        return 5.175 - 13 * (t1 + t2)

    def wedge(t1, t2):
        return 1.0 / (t1 * t2 * (0.475 - t1 - t2))

    def log_wedge(t1, t2):
        return np.log(reach(t1, t2)) / (t1 * t2 * (0.475 - t1 - t2))

    def log_t3(t1, t2, t3):
        return np.log(t3 - 1.0) / (t1 * t2 * (0.475 - t1 - t2) * t3)

    def single(t):
        return 1.0 / (t * (0.475 - t))

    t3_range = ((2.0, reach),)
    # the printed t2 range of H.triple extends past the vanishing line of the
    # inner t3 integral; clipping at 3.175/13 - t1 drops only a zero
    # contribution and keeps the outer integrand smooth
    clipped = (_ABOVE[0], (1 / 8.4, lambda t1: np.minimum(0.475 - 2 / 13 - t1, 3.175 / 13 - t1)))
    # J and K differ only in their singles
    jk = (
        IntegralSpec(
            "JK.double",
            ((1 / 13, 0.475 - 3 / 13), (2.0, lambda t1: 5.175 - 13 * t1)),
            lambda t1, t2: np.log(t2 - 1.0) / (t1 * (0.475 - t1) * t2),
        ),
        IntegralSpec(
            "JK.triple",
            ((1 / 13, 0.475 - 5 / 13), (2.0, lambda t1: 3.175 - 13 * t1),
             (lambda t1, t2: t2 + 2.0, 5.175)),
            lambda t1, t2, t3: (
                np.log(t2 - 1.0) * np.log((t3 - 1.0) / (t2 + 1.0))
                / (t1 * (0.475 - t1) * t2 * t3)
            ),
        ),
    )
    return {
        "G": (IntegralSpec("G.double", _BELOW, wedge),
              IntegralSpec("G.triple", _BELOW + t3_range, log_t3)),
        "g": (
            IntegralSpec("g.double", _BELOW, log_wedge),
            IntegralSpec(
                "g.quadruple",
                ((1 / 13, 2.175 / 26), (lambda t1: t1, lambda t1: 2.175 / 13 - t1),
                 (3.0, reach), (2.0, lambda t1, t2, t3: t3 - 1.0)),
                lambda t1, t2, t3, t4: np.log(t4 - 1.0) / (t1 * t2 * (0.475 - t1 - t2) * t3 * t4),
            ),
        ),
        "H": (IntegralSpec("H.double", _ABOVE, wedge),
              IntegralSpec("H.triple", clipped + t3_range, log_t3)),
        "h": (IntegralSpec("h.double", _ABOVE, log_wedge),),
        "J": (IntegralSpec("J.single", ((1 / 13, 1 / 3.145),), single),) + jk,
        "K": (IntegralSpec("K.single", ((1 / 13, 1 / 3.81),), single),) + jk,
        "E": (IntegralSpec(
            "E.double",
            _BELOW,
            lambda t1, t2: (1.0 / t1 - 1.0 / t2) * np.log(1.0 / (8.4 * t2)) / (t1 * t2),
        ),),
    }


def named_integral_specs(name: str) -> tuple[IntegralSpec, ...]:
    """The component IntegralSpecs whose values sum to the named display."""
    try:
        return _catalogue()[name]
    except KeyError:
        raise DomainError(f"unknown integral {name!r}; have {sorted(_catalogue())}") from None


@lru_cache(maxsize=32)
def named_integral_value(name: str) -> float:
    return sum(integrate_nested(spec) for spec in named_integral_specs(name))


# ---------------------------------------------------------------------------
# The unit-delay integrator, and the chain of k-large-prime-factor densities
# ---------------------------------------------------------------------------

# finite-difference weights on equally spaced nodes: row i is the derivative at
# node i from the first len(row) nodes; the last row is the central stencil
_D1_STENCILS = np.array([  # h g' from 7 nodes
    [-147, 360, -450, 400, -225, 72, -10],
    [-10, -77, 150, -100, 50, -15, 2],
    [2, -24, -35, 80, -30, 8, -1],
    [-1, 9, -45, 0, 45, -9, 1],
]) / 60.0
_D3_STENCILS = np.array([  # h^3 g''' from 7 nodes
    [-49, 232, -461, 496, -307, 104, -15],
    [-15, 56, -83, 64, -29, 8, -1],
    [-1, -8, 35, -48, 29, -8, 1],
    [1, -8, 13, 0, -13, 8, -1],
]) / 8.0


def _odd_derivative(y: np.ndarray, stencils: np.ndarray) -> np.ndarray:
    """An odd-order derivative of the samples y (along the last axis), per unit
    node spacing.

    The central stencil serves the interior; the first and last nodes take
    one-sided stencils of the same size (mirrored at the top end, where the
    odd order flips the sign).
    """
    r = stencils.shape[0] - 1
    windows = np.lib.stride_tricks.sliding_window_view(y, stencils.shape[1], axis=-1)
    head = windows[..., 0, :] @ stencils[:r].T
    tail = windows[..., -1, ::-1] @ stencils[:r].T
    return np.concatenate((head, windows @ stencils[r], -tail[..., ::-1]), axis=-1)


def _cumulative_euler_maclaurin(g: np.ndarray, h: float) -> np.ndarray:
    """int_a^v g(t) dt at every node v of a uniform grid of step h from a, for
    each row of g (along the last axis).

    A(v) = T(v) - h^2/12 (g'(v) - g'(a)) + h^4/720 (g'''(v) - g'''(a)), with T
    the cumulative trapezoid: two Euler–Maclaurin terms, so the error is
    O(h^6), led by -h^6/30240 (g^(5)(v) - g^(5)(a)).  g' and g''' are 7-point
    differences on the nodes, whose errors (O(h^6) and O(h^4)) enter A at
    O(h^8).  Needs at least 7 nodes.
    """
    out = np.zeros_like(g)
    np.cumsum(0.5 * h * (g[..., :-1] + g[..., 1:]), axis=-1, out=out[..., 1:])
    # both terms from one stencil: h g' weighs -h/12 and h^3 g''' weighs h/720
    em = _odd_derivative(g, h / 720.0 * _D3_STENCILS - h / 12.0 * _D1_STENCILS)
    return out + (em - em[..., :1])


def _unit_delay(
    start: tuple[float, ...],
    slope: Callable[[np.ndarray, np.ndarray], np.ndarray],
    top: int,
    step: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Values and slopes of curves y (one row each) on the nodes of [1, top].

    y = start on [1, 2]; above 2, y'(t) = slope(t - 1, y(t - 1)), where slope
    maps one unit block's nodes and values to the slopes one unit later.  1/step
    must be an integer, so that t - 1 is a node.  The curves may have kinks at
    the integers only, which are block ends; the slope at an integer node is
    the right-hand one.
    """
    per_unit = round(1 / step)
    n = (top - 1) * per_unit + 1
    t = 1.0 + step * np.arange(n)
    y = np.outer(start, np.ones(n))  # the loop overwrites every block above 2
    dy = np.zeros_like(y)
    # the block integral is linear in the slopes: row i is the integral of the
    # i-th unit vector, so a block's integrals are its slopes times this matrix
    weights = _cumulative_euler_maclaurin(np.eye(per_unit + 1), step)
    for lo in range(per_unit, n - 1, per_unit):
        block, prev = slice(lo, lo + per_unit + 1), slice(lo - per_unit, lo + 1)
        dy[:, block] = slope(t[prev], y[:, prev])
        y[:, block] = y[:, lo, None] + dy[:, block] @ weights
    return y, dy


CHAIN_K_MIN = 15
CHAIN_TOP = 199
CHAIN_STEP = 0.01


class ChainFamily:
    """The chain A_1(v) = int_2^v log(t-1)/t dt, A_j(v) = int_{j+1}^v A_{j-1}(t-1)/t dt,
    read at v = 199: a name without parameters, which ``chain_value`` takes."""


@cache
def chain_table() -> np.ndarray:
    """A_2, ..., A_13 and T = sum_{j>=14} A_j (rows) on the nodes of [1, 199],
    step 0.01, fed by the closed-form A_1."""
    # A_1 on every unit block [m, m+1] (row m - 1) in one evaluation
    a1 = _A1(np.arange(1, CHAIN_TOP)[:, None] + CHAIN_STEP * np.arange(round(1 / CHAIN_STEP) + 1))
    return _unit_delay(
        (0.0,) * 13,
        lambda u, y: np.vstack((a1[round(u[0]) - 1], y[:-2], y[-2] + y[-1])) / (u + 1.0),
        CHAIN_TOP,
        CHAIN_STEP,
    )[0]


def chain_value(family: ChainFamily, k: int) -> float:
    """c_k = A_{k-2}(199) for k = 15, the one density the table keeps apart."""
    if k != CHAIN_K_MIN:
        raise DomainError(f"only c_{CHAIN_K_MIN} is tabulated, got k = {k}")
    return float(chain_table()[-2, -1])
