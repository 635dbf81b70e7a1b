"""Euler products, singular series, and the aggregated auxiliary constants.

The Hardy–Littlewood constants C2 = 2 prod_{p>2} (1 - 1/(p-1)^2) and
C3 = (9/2) prod_{p>3} (1 - (3p-1)/(p-1)^3) are a prefactor times
prod_{p>c} f_c(p), f_c(p) = (1 - c/p)(1 - 1/p)^-c, for c = 2 and 3.  The
product runs factor by factor over p <= Q = 1000; past Q it is
prod_{s>=2} zeta_Q(s)^-M(c,s) with zeta_Q(s) = zeta(s) prod_{p<=Q} (1 - p^-s),
where M(c, s) counts the aperiodic necklaces of s beads in c colours (by the
cyclotomic identity 1 - cx = prod_s (1 - x^s)^M(c,s)).  That is the prime-zeta
tail exp(-sum_k (c^k - c)/k P_Q(k)) of Cohen (1998) and Moree (2000) regrouped
by s = mk.  ``tail_bound`` is a proven bound on |log(true / value)|.  The
products are scalar math over the prime table: 167 primes and the five
exponents s = 2 .. 6 are too few for arrays to pay; math's log1p and ** leave
numpy's vector-math kernels (~0.6 MB) out of a forked count's caller, whose
peak is the count's; and C3 comes out correctly rounded, where numpy's SIMD
kernels left it an ulp low.  C(N) rescales C2/2 by the odd prime divisors of N,
found by trial division by 3 and the 6k -+ 1 that stops once q^2 exceeds the
cofactor left, so it keeps no table sized by N.  So C2, C3 and C(N) load no
numpy.  The remaining constants
aggregate quadrature results: C0 sums the chain densities c_k, and the E/L
coefficients evaluate the two role-reversal error displays with the Buchstab
factor replaced by its tail bound, 0.5617 for E and 0.5644 for L.
"""

from __future__ import annotations

import math
from functools import cache
from itertools import chain, count
from typing import NamedTuple

from .errors import CapacityError, DomainError
from .primes import primes_up_to

# quadrature and sieve_functions are imported inside C0, E and L: the counting
# engine needs only the Euler products and C(N)

MAX_FACTORABLE_N = 10**12

# the paper's bounds on the Buchstab function w: w(u) <= 1/1.763 for u >= 2,
# w(u) < 0.5644 for u >= 3 and w(u) < 0.5617 for u >= 4
W_BOUND_FROM_2 = 1 / 1.763
W_TAIL_BOUND_FROM_3 = 0.5644
W_TAIL_BOUND_FROM_4 = 0.5617

# B_2 .. B_18, for Euler–Maclaurin here and the dilogarithm series in quadrature
_B2K = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510, 43867 / 798)
_UNIT_ROUNDOFF = 2.0**-53
_PREFACTOR = {2: 2.0, 3: 4.5}


class EulerProductResult(NamedTuple):
    """C2 or C3: the product over p <= truncation_prime times its zeta-value tail.
    ``tail_bound`` bounds |log(true / value)|, the relative error, so the
    absolute error is at most about ``value * tail_bound``."""

    value: float
    truncation_prime: int
    tail_bound: float


def partial_product(c: int, P: int) -> float:
    """C2 (c = 2) or C3 (c = 3) truncated at p <= P, from the logs of the factors
    1 - 1/(p-1)^2 and 1 - (3p-1)/(p-1)^3: log(1 - c/p) - c log(1 - 1/p) would cancel.
    Each x is an integer quotient, so it is correctly rounded."""
    p = primes_up_to(P)[c - 1 :]  # the primes past c = 2 or 3
    x = [1 / (q - 1) ** 2 for q in p] if c == 2 else [(3 * q - 1) / (q - 1) ** 3 for q in p]
    return _PREFACTOR[c] * math.exp(math.fsum(math.log1p(-t) for t in x))


def _odd_zeta_minus_one(s: int) -> tuple[float, float]:
    """zeta(s) (1 - 2^-s) - 1, the sum of n^-s over odd n >= 3, and its error bound:
    past n = 21 by Euler–Maclaurin with step 2, where n^-s is completely monotone,
    so the last correction bounds the truncation.  Rounding adds at most 12 units
    of roundoff: one per power, eight in the head's sum, two in the tail and sum."""
    m = 21
    head = sum(n**-s for n in range(3, m, 2))
    tail = m ** (1 - s) / (2 * (s - 1)) + 0.5 * m**-s
    step = 2 * s * m ** (-s - 1)  # 2^(2j-1) (s)_(2j-1) m^(-s-2j+1)
    for j, b in enumerate(_B2K, 1):
        step *= 1 if j == 1 else 4 * (s + 2 * j - 3) * (s + 2 * j - 2) / m**2
        correction = b / math.factorial(2 * j) * step
        tail += correction
    value = head + tail
    return value, abs(correction) + 12 * _UNIT_ROUNDOFF * value


@cache
def _euler_product(c: int) -> EulerProductResult:
    Q = 1000  # the product runs factor by factor over p <= Q
    # zeta_Q(s) - 1 <= (Q+1)^-s (1 + (Q+1)/(s-1)) and M(c, s) <= c^s / s bound
    # the log of the factors s > S
    S, r, truncation = 1, c / (Q + 1), math.inf
    while truncation > _UNIT_ROUNDOFF:
        S += 1
        truncation = r ** (S + 1) / (1 - r) * (1 + (Q + 1) / S) / (S + 1)
    M = [0] * (S + 1)  # M(c, s), from c^s = sum_{d | s} d M(c, d)
    for k in range(1, S + 1):
        M[k] = (c**k - sum(d * M[d] for d in range(1, k) if k % d == 0)) // k
    M, powers = M[2:], range(2, S + 1)
    z, z_err = zip(*map(_odd_zeta_minus_one, powers))
    p = primes_up_to(Q)[1:]
    # each log zeta_Q(s) is log(1 + z) + sum_{2<p<=Q} log(1 - p^-s)
    tail = [-m * math.log1p(zs) for m, zs in zip(M, z)]
    tail += [-m * math.log1p(-(q**-s)) for m, s in zip(M, powers) for q in p]
    head = partial_product(c, Q)
    # rounding: past z_err each term is within 8 units of roundoff (an ulp for a
    # power or quotient and for log1p, one for M); the head's terms share a sign;
    # two fsums, two exps and three products add at most 12 more
    size = abs(math.log(head / _PREFACTOR[c])) + math.fsum(map(abs, tail))
    rounding = _UNIT_ROUNDOFF * (8 * size + 12)
    value = head * math.exp(math.fsum(tail))
    z_bound = math.fsum(m * e for m, e in zip(M, z_err))
    return EulerProductResult(value, Q, truncation + z_bound + rounding)


def constant_C3(tol: float | None = None) -> EulerProductResult:
    """C3, of the pattern (n, n+2, n+6).  ``tol`` is ignored: the benchmark trace passes it."""
    return _euler_product(3)


def constant_C2(tol: float | None = None) -> EulerProductResult:
    """C2, of the twin pattern (n, n+2).  ``tol`` is ignored, as in ``constant_C3``."""
    return _euler_product(2)


def singular_series_CN(N: int) -> float:
    """C(N) = prod_{p|N, p>2} (p-1)/(p-2) * prod_{p>2} (1 - 1/(p-1)^2)."""
    N = int(N)
    if N < 4 or N % 2:
        raise DomainError(f"N must be an even integer >= 4, got {N}")
    if N > MAX_FACTORABLE_N:
        raise CapacityError(f"N capped at {MAX_FACTORABLE_N} for trial division")
    odd = N // (N & -N)  # N without its factors 2
    factors = []
    # 3, then every q = 6k -+ 1 from 5: a composite q divides nothing, its primes being gone
    for q in chain((3,), chain.from_iterable(zip(count(5, 6), count(7, 6)))):
        if q * q > odd:
            break
        if odd % q == 0:
            factors.append(q)
            while odd % q == 0:
                odd //= q
    factors += [odd] if odd > 1 else []  # the cofactor left has no factor below its root: prime
    return math.prod((q - 1) / (q - 2) for q in factors) * _euler_product(2).value / 2.0


@cache
def constant_C0() -> float:
    """C0 = sum of the chain densities c_k over 15 <= k <= 199 (bounded by
    0.00408), read off the chain table as A_13(199) + T(199)."""
    from .quadrature import chain_table

    return float(chain_table()[-2:, -1].sum())


@cache
def coefficient_E() -> float:
    """Role-reversal coefficient bounded by 0.00934.

    The tail bound w < 0.5617 (u >= 4) multiplies the double integral
    int_{1/13}^{1/8.4} dt1/t1 int_{t1}^{1/8.4} (1/t2)(1/t1 - 1/t2) log(1/(8.4 t2)) dt2;
    the display has the Buchstab-bearing variables already integrated out.
    """
    from .quadrature import named_integral_value

    return W_TAIL_BOUND_FROM_4 * named_integral_value("E")


@cache
def coefficient_L() -> float:
    """Four-fold role-reversal coefficient bounded by 0.04839: the integral of
    ``quadrature.L_QUADRUPLE``, whose kernel holds the Buchstab factor
    w((1 - t1 - t2 - t3 - t4)/t2) at its tail bound w < 0.5644 (u >= 3), since
    that argument always exceeds 3 on the domain.
    """
    from .quadrature import L_QUADRUPLE, integrate_nested

    return integrate_nested(L_QUADRUPLE)
