"""Euler products, singular series, and the aggregated auxiliary constants.

The two classical products

    C2 = 2 prod_{p>2} (1 - 1/(p-1)^2)
    C3 = (9/2) prod_{p>3} (1 - (3p-1)/(p-1)^3)

are truncated at a prime P large enough that the elementary tail estimate
int_P^inf 4/(t^2 log t) dt <= 4/(P log P) drops below the requested
tolerance; the estimate is reported, not proven sharp.  It bounds the sum of
the logs of the neglected factors, so it is a relative error: the absolute
error of the value is at most about value * tail_bound.  C(N) rescales C2/2 by
the odd prime divisors of N.  The remaining constants aggregate quadrature
results: C0 sums the chain densities c_k, and the E/L coefficients evaluate
the two role-reversal error displays with the Buchstab factor replaced by its
numeric bound (an exact-w mode exists for L, whose display keeps w inside).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from .errors import CapacityError, DomainError
from .primes import primes_up_to

if TYPE_CHECKING:
    from .quadrature import ChainFamily

# quadrature and sieve_functions are imported inside C0, E and L: the counting
# engine needs only the Euler products and C(N)

MIN_TRUNCATION_PRIME = 100_000
MIN_TOLERANCE = 1e-8
TAIL_CEILING = 1e-6  # every result converges at least this far, whatever tol asks
MAX_FACTORABLE_N = 10**12

W_TAIL_BOUND_FROM_4 = 0.5617
W_TAIL_BOUND_FROM_3 = 0.5644


@dataclass(frozen=True)
class EulerProductResult:
    """A truncated Euler product: the product over p <= truncation_prime.

    ``tail_bound`` bounds |log(true / value)|, the log of the neglected
    factors, i.e. the relative error; the absolute error is at most about
    ``value * tail_bound``.
    """

    value: float
    truncation_prime: int
    tail_bound: float


def _tail_bound(P: int) -> float:
    return 4.0 / (P * math.log(P))


def _truncation_prime(tol: float) -> int:
    if tol < MIN_TOLERANCE:
        raise DomainError(f"tolerance must be >= {MIN_TOLERANCE}")
    target = min(tol, TAIL_CEILING)
    P = MIN_TRUNCATION_PRIME
    while _tail_bound(P) >= target:
        P *= 2
    return P


def _primes_above(q: int, P: int) -> np.ndarray:
    """The primes q < p <= P, as a view of the cached table."""
    p = primes_up_to(P)
    return p[np.searchsorted(p, q, side="right") :]


# The products work in place on one float64 array of the primes' size (C3 adds
# one int64 numerator): the table holds ~34k primes at the default truncation,
# and each array-sized temporary would add ~0.27 MB to a count's peak.


def c3_partial(P: int) -> float:
    """Partial triple-pattern product truncated at p <= P (diagnostic)."""
    p = _primes_above(3, P)
    terms = np.subtract(p, 1, dtype=np.float64)
    np.power(terms, 3, out=terms)  # (p - 1)^3
    numerator = -3 * p
    numerator += 1  # -(3p - 1), exact in int64 and as a float64
    np.divide(numerator, terms, out=terms)
    return float(4.5 * np.exp(np.log1p(terms, out=terms).sum()))


def c2_partial(P: int) -> float:
    """Partial twin-pattern product truncated at p <= P (diagnostic)."""
    terms = np.subtract(_primes_above(2, P), 1, dtype=np.float64)
    np.square(terms, out=terms)  # (p - 1)^2
    np.divide(-1.0, terms, out=terms)
    return float(2.0 * np.exp(np.log1p(terms, out=terms).sum()))


@lru_cache(maxsize=8)
def constant_C3(tol: float = 1e-6) -> EulerProductResult:
    """Density constant of the triple pattern (n, n+2, n+6), converged to ~tol."""
    P = _truncation_prime(tol)
    return EulerProductResult(c3_partial(P), P, _tail_bound(P))


@lru_cache(maxsize=8)
def constant_C2(tol: float = 1e-6) -> EulerProductResult:
    """Twin-pattern density constant, converged to ~tol."""
    P = _truncation_prime(tol)
    return EulerProductResult(c2_partial(P), P, _tail_bound(P))


def singular_series_CN(N: int, tol: float = 1e-6) -> float:
    """C(N) = prod_{p|N, p>2} (p-1)/(p-2) * prod_{p>2} (1 - 1/(p-1)^2)."""
    N = int(N)
    if N < 4 or N % 2:
        raise DomainError(f"N must be an even integer >= 4, got {N}")
    if N > MAX_FACTORABLE_N:
        raise CapacityError(f"N capped at {MAX_FACTORABLE_N} for trial division")
    remaining = N
    scale = 1.0
    while remaining % 2 == 0:
        remaining //= 2
    for p in primes_up_to(math.isqrt(remaining)):
        p = int(p)
        if p * p > remaining:
            break
        if remaining % p == 0:
            scale *= (p - 1) / (p - 2)
            while remaining % p == 0:
                remaining //= p
    if remaining > 1:  # leftover cofactor is prime
        scale *= (remaining - 1) / (remaining - 2)
    return scale * constant_C2(tol).value / 2.0


@lru_cache(maxsize=4)
def constant_C0(family: ChainFamily | None = None) -> float:
    """Sum of the chain densities c_k over 15 <= k <= 199 (bounded by 0.00408);
    the family defaults to ChainFamily()."""
    from .quadrature import CHAIN_K_MAX, CHAIN_K_MIN, ChainFamily, chain_value

    family = ChainFamily() if family is None else family
    return sum(chain_value(family, k) for k in range(CHAIN_K_MIN, CHAIN_K_MAX + 1))


@lru_cache(maxsize=8)
def coefficient_E(w_bound: float = W_TAIL_BOUND_FROM_4) -> float:
    """Role-reversal coefficient bounded by 0.00934.

    w_bound multiplies the double integral
    int_{1/13}^{1/8.4} dt1/t1 int_{t1}^{1/8.4} (1/t2)(1/t1 - 1/t2) log(1/(8.4 t2)) dt2;
    the display has the Buchstab-bearing variables already integrated out, so
    the bound constant is exposed as the replaceable factor.
    """
    from .quadrature import named_integral_value

    return w_bound * named_integral_value("E")


@lru_cache(maxsize=4)
def coefficient_L(w_mode: str = "bound", w_bound: float = W_TAIL_BOUND_FROM_3) -> float:
    """Four-fold role-reversal coefficient bounded by 0.04839.

    w_mode 'bound' replaces the Buchstab factor by ``w_bound`` (the composed
    argument always exceeds 3 on the domain, so the tail bound applies);
    'exact' integrates the tabulated w itself, for comparison.
    """
    from .quadrature import fourfold_with_buchstab, integrate_nested
    from .sieve_functions import buchstab_w_many

    if w_mode == "bound":
        spec = fourfold_with_buchstab(lambda u: np.full_like(u, w_bound))
    elif w_mode == "exact":
        spec = fourfold_with_buchstab(buchstab_w_many, name="L.quadruple.exact")
    else:
        raise DomainError(f"w_mode must be 'bound' or 'exact', got {w_mode!r}")
    return integrate_nested(spec)
