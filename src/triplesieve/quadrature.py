"""Adaptive 1-D quadrature, nested iterated integrals, and the 1-D chain recursion.

Three layers live here:

* ``integrate_1d`` — adaptive Gauss–Kronrod (G7/K15) bisection with an absolute
  error target.  Kernels must be numpy-vectorized over the node array.
* ``integrate_nested`` — iterated integrals of depth 1..4 whose limits are
  functions of the outer variables.  Evaluated as a tensor-product
  Gauss–Legendre rule, refined on a node ladder until two successive
  evaluations agree to the spec tolerance.  Empty ranges (upper <= lower)
  contribute exactly 0.
* ``chain_value`` — the recursive family A_1(v) = int_2^v log(t-1)/t dt,
  A_j(v) = int_{j+1}^v A_{j-1}(t-1)/t dt, memoized on a uniform grid; each
  level is a cumulative trapezoid with two Euler–Maclaurin end corrections
  (error O(h^6)).  ``chain_value(family, k)`` returns
  c_k = A_{k-2}(top), the density coefficient for integers with exactly k
  large prime factors.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Union

import numpy as np

from .errors import DomainError, EvaluationError

# ---------------------------------------------------------------------------
# Gauss–Kronrod 7/15 pair (nodes descending, standard tabulated values)
# ---------------------------------------------------------------------------

_XGK = np.array([
    0.9914553711208126, 0.9491079123427585, 0.8648644233597691,
    0.7415311855993944, 0.5860872354676911, 0.4058451513773972,
    0.2077849550078985, 0.0,
])
_WGK = np.array([
    0.0229353220105292, 0.0630920926299785, 0.1047900103222502,
    0.1406532597155259, 0.1690047266392679, 0.1903505780647854,
    0.2044329400752989, 0.2094821410847278,
])
_WG = np.array([
    0.1294849661688697, 0.2797053914892767, 0.3818300505051189,
    0.4179591836734694,
])

# ascending 15-node layout; the embedded 7-point Gauss rule sits at odd indices
_NODES = np.concatenate([-_XGK[:-1], [0.0], _XGK[-2::-1]])
_KRONROD_W = np.concatenate([_WGK[:-1], [_WGK[-1]], _WGK[-2::-1]])
_GAUSS_IDX = np.arange(1, 14, 2)
_GAUSS_W = np.concatenate([_WG[:-1], [_WG[-1]], _WG[-2::-1]])

Kernel = Callable[..., np.ndarray]
Limit = Union[float, Callable[..., np.ndarray]]


def _kernel_values(kernel: Kernel, x: np.ndarray) -> np.ndarray:
    y = np.asarray(kernel(x), dtype=float)
    if y.shape != x.shape:
        y = np.broadcast_to(y, x.shape)
    return y


def integrate_1d(
    kernel: Kernel,
    a: float,
    b: float,
    tol: float = 1e-9,
    *,
    allow_reversed: bool = False,
    max_intervals: int = 4096,
) -> float:
    """Integrate ``kernel`` over [a, b] to absolute accuracy ``tol``.

    Bisects the interval with the largest Kronrod-minus-Gauss error estimate
    until the summed estimate drops below ``tol``.  A reversed interval
    (a > b) is a domain error unless ``allow_reversed`` is set, in which case
    the sign-flipped value is returned.  Non-finite kernel values raise
    EvaluationError.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError(f"non-finite integration limits [{a}, {b}]")
    if tol <= 0:
        raise DomainError("tolerance must be positive")
    if a == b:
        return 0.0
    if a > b:
        if not allow_reversed:
            raise DomainError(f"reversed interval [{a}, {b}]; pass allow_reversed=True to negate")
        return -integrate_1d(kernel, b, a, tol, max_intervals=max_intervals)

    def rule(lo: float, hi: float) -> tuple[float, float]:
        half = 0.5 * (hi - lo)
        x = 0.5 * (lo + hi) + half * _NODES
        y = _kernel_values(kernel, x)
        if not np.isfinite(y).all():
            bad = x[~np.isfinite(y)][0]
            raise EvaluationError(f"kernel non-finite at t={bad!r} inside [{lo}, {hi}]")
        ik = half * float(y @ _KRONROD_W)
        ig = half * float(y[_GAUSS_IDX] @ _GAUSS_W)
        return ik, abs(ik - ig)

    val, err = rule(a, b)
    heap = [(-err, a, b, val, err)]
    total, total_err = val, err
    while total_err > tol:
        if len(heap) >= max_intervals:
            raise EvaluationError(
                f"integrate_1d failed to reach tol={tol} on [{a}, {b}] "
                f"after {len(heap)} subintervals"
            )
        _, lo, hi, v, e = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        v1, e1 = rule(lo, mid)
        v2, e2 = rule(mid, hi)
        total += v1 + v2 - v
        total_err += e1 + e2 - e
        heapq.heappush(heap, (-e1, lo, mid, v1, e1))
        heapq.heappush(heap, (-e2, mid, hi, v2, e2))
    return total


# ---------------------------------------------------------------------------
# Nested iterated integrals with variable limits
# ---------------------------------------------------------------------------

MAX_DEPTH = 4

# node-count ladders per depth; refinement stops at the first agreement
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
    variables.  ``tolerance`` is the absolute target for the whole integral.
    """

    name: str
    depth: int
    limits: tuple[tuple[Limit, Limit], ...]
    integrand: Kernel
    tolerance: float = 1e-9

    def __post_init__(self) -> None:
        if not 1 <= self.depth <= MAX_DEPTH:
            raise DomainError(f"depth must be 1..{MAX_DEPTH}, got {self.depth}")
        if len(self.limits) != self.depth:
            raise DomainError(f"{self.name!r}: {len(self.limits)} limit pairs for depth {self.depth}")
        if callable(self.limits[0][0]) or callable(self.limits[0][1]):
            raise DomainError(f"{self.name!r}: outermost limits must be constants")
        if self.tolerance <= 0:
            raise DomainError("tolerance must be positive")


@lru_cache(maxsize=32)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


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
    """Evaluate a depth-1..4 iterated integral to its spec tolerance."""
    prev: float | None = None
    for n in _LADDERS[spec.depth]:
        val = _tensor_value(spec, n)
        if prev is not None and abs(val - prev) <= max(spec.tolerance, 1e-13 * abs(val)):
            return val
        prev = val
    raise EvaluationError(
        f"nested integral {spec.name!r} did not converge to {spec.tolerance} "
        f"on the node ladder {_LADDERS[spec.depth]}"
    )


# ---------------------------------------------------------------------------
# The weighted-sieve integral catalogue (two- to four-fold displays)
# ---------------------------------------------------------------------------
# The recurring constants are the sieve exponent bookkeeping: 1/13 and 1/8.4
# are the two sifting levels, 0.475 the level-of-distribution exponent, and
# 6.175 = 13 * 0.475 its rescaling (5.175 = 6.175 - 1, 3.175 = 6.175 - 3,
# 2.175 = 6.175 - 4).


def _catalogue() -> dict[str, tuple[IntegralSpec, ...]]:
    lo13, hi84 = 1 / 13, 1 / 8.4

    def wedge(t1, t2):
        return 1.0 / (t1 * t2 * (0.475 - t1 - t2))

    G1 = IntegralSpec(
        "G.double", 2,
        ((lo13, hi84), (lambda t1: t1, hi84)),
        wedge,
    )
    G2 = IntegralSpec(
        "G.triple", 3,
        ((lo13, hi84), (lambda t1: t1, hi84),
         (2.0, lambda t1, t2: 5.175 - 13 * (t1 + t2))),
        lambda t1, t2, t3: np.log(t3 - 1.0) / (t1 * t2 * (0.475 - t1 - t2) * t3),
    )
    g1 = IntegralSpec(
        "g.double", 2,
        ((lo13, hi84), (lambda t1: t1, hi84)),
        lambda t1, t2: np.log(5.175 - 13 * (t1 + t2)) / (t1 * t2 * (0.475 - t1 - t2)),
    )
    g2 = IntegralSpec(
        "g.quadruple", 4,
        ((lo13, 2.175 / 26), (lambda t1: t1, lambda t1: 2.175 / 13 - t1),
         (3.0, lambda t1, t2: 5.175 - 13 * (t1 + t2)),
         (2.0, lambda t1, t2, t3: t3 - 1.0)),
        lambda t1, t2, t3, t4: np.log(t4 - 1.0) / (t1 * t2 * (0.475 - t1 - t2) * t3 * t4),
    )
    H1 = IntegralSpec(
        "H.double", 2,
        ((lo13, hi84), (hi84, lambda t1: 0.475 - 2 / 13 - t1)),
        wedge,
    )
    # the printed t2 range extends past the vanishing line of the inner
    # t3 integral; clipping at 3.175/13 - t1 drops only a zero contribution
    # and keeps the outer integrand smooth
    H2 = IntegralSpec(
        "H.triple", 3,
        ((lo13, hi84),
         (hi84, lambda t1: np.minimum(0.475 - 2 / 13 - t1, 3.175 / 13 - t1)),
         (2.0, lambda t1, t2: 5.175 - 13 * (t1 + t2))),
        lambda t1, t2, t3: np.log(t3 - 1.0) / (t1 * t2 * (0.475 - t1 - t2) * t3),
    )
    h1 = IntegralSpec(
        "h.double", 2,
        ((lo13, hi84), (hi84, lambda t1: 0.475 - 2 / 13 - t1)),
        lambda t1, t2: np.log(5.175 - 13 * (t1 + t2)) / (t1 * t2 * (0.475 - t1 - t2)),
    )

    def role_reversal(name: str, first_upper: float) -> tuple[IntegralSpec, ...]:
        single = IntegralSpec(
            f"{name}.single", 1,
            ((lo13, first_upper),),
            lambda t: 1.0 / (t * (0.475 - t)),
        )
        double = IntegralSpec(
            f"{name}.double", 2,
            ((lo13, 0.475 - 3 / 13), (2.0, lambda t1: 5.175 - 13 * t1)),
            lambda t1, t2: np.log(t2 - 1.0) / (t1 * (0.475 - t1) * t2),
        )
        triple = IntegralSpec(
            f"{name}.triple", 3,
            ((lo13, 0.475 - 5 / 13), (2.0, lambda t1: 3.175 - 13 * t1),
             (lambda t1, t2: t2 + 2.0, 5.175)),
            lambda t1, t2, t3: (
                np.log(t2 - 1.0) * np.log((t3 - 1.0) / (t2 + 1.0))
                / (t1 * (0.475 - t1) * t2 * t3)
            ),
        )
        return single, double, triple

    E = IntegralSpec(
        "E.double", 2,
        ((lo13, hi84), (lambda t1: t1, hi84)),
        lambda t1, t2: (1.0 / t1 - 1.0 / t2) * np.log(1.0 / (8.4 * t2)) / (t1 * t2),
    )

    return {
        "G": (G1, G2),
        "g": (g1, g2),
        "H": (H1, H2),
        "h": (h1,),
        "J": role_reversal("J", 1 / 3.145),
        "K": role_reversal("K", 1 / 3.81),
        "E": (E,),
    }


_CATALOGUE: dict[str, tuple[IntegralSpec, ...]] | None = None


def named_integral_specs(name: str) -> tuple[IntegralSpec, ...]:
    """The component IntegralSpecs whose values sum to the named display."""
    global _CATALOGUE
    if _CATALOGUE is None:
        _CATALOGUE = _catalogue()
    try:
        return _CATALOGUE[name]
    except KeyError:
        raise DomainError(f"unknown integral {name!r}; have {sorted(_CATALOGUE)}") from None


@lru_cache(maxsize=32)
def named_integral_value(name: str) -> float:
    return sum(integrate_nested(spec) for spec in named_integral_specs(name))


def fourfold_with_buchstab(w_of_u: Kernel, name: str = "L.quadruple") -> IntegralSpec:
    """The four-fold display whose kernel carries a Buchstab factor.

    ``w_of_u`` receives the composed argument (1 - t1 - t2 - t3 - t4)/t2
    (always > 3 on the domain) and may be a constant bound or the real
    Buchstab function, vectorized.
    """
    lo13, hi84 = 1 / 13, 1 / 8.4
    return IntegralSpec(
        name, 4,
        ((lo13, hi84), (lambda t1: t1, hi84), (lambda t1, t2: t2, hi84),
         (hi84, lambda t1, t2, t3: 0.475 - 2 / 13 - t3)),
        lambda t1, t2, t3, t4: (
            w_of_u((1.0 - t1 - t2 - t3 - t4) / t2) / (t1 * t2**2 * t3 * t4)
        ),
    )


# ---------------------------------------------------------------------------
# Chain recursion for the k-large-prime-factor densities c_k
# ---------------------------------------------------------------------------

_CHAIN_KERNELS: dict[str, Kernel] = {
    "log(t-1)/t": lambda t: np.log(t - 1.0) / t,
}

CHAIN_K_MIN, CHAIN_K_MAX = 15, 199


@dataclass(frozen=True)
class ChainFamily:
    """Defines the nested family A_j: base kernel, unit-stepped lower limits, cap.

    Level j integrates from ``first_lower + (j - 1)`` (i.e. 2, 3, 4, ... for
    the default), shifted-composed with the previous level:
    A_j(v) = int_{j+1}^v A_{j-1}(t - 1)/t dt.
    """

    base_kernel: str = "log(t-1)/t"
    first_lower: float = 2.0
    top_limit: float = 199.0
    grid_step: float = 0.05

    def __post_init__(self) -> None:
        if self.base_kernel not in _CHAIN_KERNELS:
            raise DomainError(f"unknown chain kernel {self.base_kernel!r}")
        if not self.top_limit > self.first_lower:
            raise DomainError("top_limit must exceed first_lower")
        per_unit = 1.0 / self.grid_step
        if abs(per_unit - round(per_unit)) > 1e-9:
            raise DomainError("grid_step must divide 1 exactly (the levels shift by 1)")
        span = (self.top_limit - self.first_lower) / self.grid_step
        if abs(span - round(span)) > 1e-9:
            raise DomainError("grid_step must divide top_limit - first_lower exactly")

    def level_lower(self, j: int) -> float:
        return self.first_lower + (j - 1)


def _cumulative_kernel(kernel: Kernel, grid: np.ndarray) -> np.ndarray:
    """Antiderivative of an analytic kernel at the grid nodes (per-interval GL5)."""
    x5, w5 = _leggauss(5)
    lo = grid[:-1]
    half = 0.5 * np.diff(grid)
    pts = lo[:, None] + half[:, None] * (x5 + 1.0)
    panel = (kernel(pts) * w5).sum(axis=1) * half
    out = np.empty_like(grid)
    out[0] = 0.0
    np.cumsum(panel, out=out[1:])
    return out


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
    """An odd-order derivative of the samples y, per unit node spacing.

    The central stencil serves the interior; the first and last nodes take
    one-sided stencils of the same size (mirrored at the top end, where the
    odd order flips the sign).
    """
    r, m = stencils.shape[0] - 1, stencils.shape[1]
    out = np.empty_like(y)
    out[r:-r] = np.correlate(y, stencils[r], "valid")
    for i, w in enumerate(stencils[:r]):
        out[i] = w @ y[:m]
        out[-1 - i] = -(w @ y[::-1][:m])
    return out


def _cumulative_euler_maclaurin(g: np.ndarray, h: float) -> np.ndarray:
    """int_a^v g(t) dt at every node v of a uniform grid of step h from a.

    A(v) = T(v) - h^2/12 (g'(v) - g'(a)) + h^4/720 (g'''(v) - g'''(a)), with T
    the cumulative trapezoid: two Euler–Maclaurin terms, so the error is
    O(h^6), led by -h^6/30240 (g^(5)(v) - g^(5)(a)).  g' and g''' are 7-point
    differences on the nodes, whose errors (O(h^6) and O(h^4)) enter A at
    O(h^8).  Fewer than 7 nodes take the plain trapezoid.
    """
    out = np.zeros_like(g)
    np.cumsum(0.5 * h * (g[:-1] + g[1:]), out=out[1:])
    if len(g) >= _D1_STENCILS.shape[1]:
        d1 = _odd_derivative(g, _D1_STENCILS) / h
        d3 = _odd_derivative(g, _D3_STENCILS) / h**3
        out += h**4 / 720.0 * (d3 - d3[0]) - h * h / 12.0 * (d1 - d1[0])
    return out


@lru_cache(maxsize=4)
def _chain_levels(family: ChainFamily) -> tuple[np.ndarray, dict[int, np.ndarray]]:
    """Grid and A_j values for every level the family supports."""
    step = family.grid_step
    n = int(round((family.top_limit - family.first_lower) / step)) + 1
    grid = np.linspace(family.first_lower, family.top_limit, n)
    shift = int(round(1.0 / step))
    kernel = _CHAIN_KERNELS[family.base_kernel]

    levels: dict[int, np.ndarray] = {1: _cumulative_kernel(kernel, grid)}
    j = 2
    while family.level_lower(j) < family.top_limit:
        prev = levels[j - 1]
        g = np.zeros(n)
        g[shift:] = prev[:-shift] / grid[shift:]
        i0 = int(round((family.level_lower(j) - family.first_lower) / step))
        vals = np.zeros(n)
        # the rule runs on the level's own nodes [i0, n), where g is smooth:
        # no stencil reaches the zeros below the lower limit
        vals[i0:] = _cumulative_euler_maclaurin(g[i0:], step)
        levels[j] = vals
        j += 1
    return grid, levels


def chain_value(family: ChainFamily, k: int) -> float:
    """c_k = A_{k-2}(top_limit) for k in [15, 199]."""
    if not CHAIN_K_MIN <= k <= CHAIN_K_MAX:
        raise DomainError(f"k must lie in [{CHAIN_K_MIN}, {CHAIN_K_MAX}], got {k}")
    if k - 1 > family.top_limit:
        return 0.0  # outer range [k-1, top] is empty
    _, levels = _chain_levels(family)
    level = levels.get(k - 2)
    if level is None:
        return 0.0
    return float(level[-1])
