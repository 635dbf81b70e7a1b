"""Independent brute-force oracles used across the test suite.

Everything here deliberately avoids the package's own numerical paths:
trial division instead of sieves, a residual-division Omega sieve instead of
the wheel and log-sum kernel, composite Simpson / midpoint cubature instead of
the tensor integrator, numerical quadrature in ``mpmath`` instead of the
closed forms over the dilogarithm, a chain recursion whose trapezoid
correction takes analytic derivatives (from the recursion itself) instead of
the package's differenced ones, on its own grid, and the piecewise closed
forms of the sieve curves in ``mpmath`` instead of the unit-delay table.  Three
helpers do call the package: ``mirrored_count`` takes Omega from
``sieve_omega`` but pairs n with N - n over one whole array, not over paired
segments, ``hit_positions`` reads the counted integers off the package's
own checkpoint counts, and ``almost_prime_count`` takes pi from the tuple
sieve's scan of primes, which shares nothing with the Omega kernel but the
prime table.
"""

from __future__ import annotations

import math
from functools import cache

import mpmath
import numpy as np


def omega_trial(n: int) -> int:
    """Prime factors with multiplicity, by trial division."""
    count = 0
    d = 2
    while d * d <= n:
        while n % d == 0:
            n //= d
            count += 1
        d += 1 if d == 2 else 2
    if n > 1:
        count += 1
    return count


def omega_block_residual(lo: int, hi: int, base_primes: np.ndarray) -> np.ndarray:
    """Omega(n) for n in [lo, hi) by dividing a residual copy of each n.

    Every prime power q of a prime p <= sqrt(hi - 1) adds one factor to its
    multiples and divides p out of their residual; a residual above 1 at the
    end is one leftover prime.  Exact integer arithmetic throughout.
    """
    n = hi - lo
    omega = np.zeros(n, dtype=np.uint8)
    if n == 0:
        return omega
    residual = np.arange(lo, hi, dtype=np.int64)
    limit = math.isqrt(hi - 1)
    for p in base_primes:
        p = int(p)
        if p > limit:
            break
        q = p
        while q < hi:
            start = ((lo + q - 1) // q) * q
            if start < hi:
                sl = slice(start - lo, None, q)
                omega[sl] += 1
                residual[sl] //= p
            q *= p
    omega[residual > 1] += 1
    return omega


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1 if d == 2 else 2
    return True


def omega_table(limit: int) -> list[int]:
    """Omega(n) for 0 <= n <= limit by per-integer trial division."""
    return [0, 0] + [omega_trial(n) for n in range(2, limit + 1)]


def primes_below(limit: int) -> list[int]:
    return [n for n in range(2, limit + 1) if is_prime(n)]


def almost_prime_count(y: int, k: int) -> int:
    """The n in [2, y] with Omega(n) <= k, for k = 2, by Landau's identity
    pi(y) + sum over p <= sqrt(y) of (pi(y / p) - pi(p) + 1): the primes, and
    the p q <= y with p <= q counted at their least prime p.  pi comes from one
    scan of the tuple sieve at bound 1, with a checkpoint at every y / p and p."""
    from triplesieve import engine

    if k != 2:
        raise ValueError(f"Landau's identity is taken here for k = 2, not {k}")
    primes = primes_below(math.isqrt(y))
    marks = sorted({y, *primes, *(y // p for p in primes)})
    pi = dict(zip(marks, engine._tuple_count(marks, 1, (), None)))
    return pi[y] + sum(pi[y // p] - pi[p] + 1 for p in primes)


def at_most_two_factors(limit: int) -> tuple[np.ndarray, np.ndarray]:
    """Masks over 0 .. limit of the n with Omega(n) == 1 and with
    1 <= Omega(n) <= 2, from a plain sieve of Eratosthenes over every integer
    that records each n's least prime factor f: n is prime when f = n, and has
    at most two prime factors when n / f is 1 or prime."""
    factor = np.zeros(limit + 1, dtype=np.int32)
    for p in range(2, math.isqrt(limit) + 1):
        if factor[p] == 0:
            multiples = factor[p * p :: p]
            multiples[multiples == 0] = p
    n = np.arange(limit + 1, dtype=np.int32)
    factor[factor == 0] = n[factor == 0]
    prime = factor == n
    prime[:2] = False
    n[2:] //= factor[2:]  # n / f
    return prime, prime | (prime[n] & (factor >= 2))


def eratosthenes_count(kind: str, size: int, *params: int) -> int:
    """pi_1ab, pi_1r, D_1ab or D_1r, with every bound 1 or 2, by whole-array
    masks over at_most_two_factors(size + 6)."""
    prime, two = at_most_two_factors(size + 6)
    within = {1: prime, 2: two}
    if kind == "pi_1ab":
        a, b = params
        hit = prime[: size + 1] & within[a][2 : size + 3] & within[b][6 : size + 7]
    elif kind == "pi_1r":
        (r,) = params
        hit = prime[: size + 1] & within[r][2 : size + 3]
    elif kind == "D_1ab":
        a, b = params  # p <= N - 2, with N - p read reversed
        hit = prime[: size - 1] & within[a][size : 1 : -1] & within[b][6 : size + 5]
    else:
        (r,) = params
        hit = prime[: size - 1] & within[r][size : 1 : -1]
    return int(np.count_nonzero(hit))


def brute_pi_1ab(x: int, a: int, b: int, table: list[int] | None = None) -> list[int]:
    """Qualifying primes p <= x with Omega(p+2) <= a, Omega(p+6) <= b."""
    if table is None:
        table = omega_table(x + 6)
    return [
        p for p in range(2, x + 1)
        if table[p] == 1 and table[p + 2] <= a and table[p + 6] <= b
    ]


def brute_pi_1r(x: int, r: int, table: list[int] | None = None) -> list[int]:
    if table is None:
        table = omega_table(x + 2)
    return [p for p in range(2, x + 1) if table[p] == 1 and table[p + 2] <= r]


def brute_D_1ab(N: int, a: int, b: int) -> int:
    table = omega_table(N + 6)
    return sum(
        1
        for p in range(2, N + 1)
        if table[p] == 1 and N - p >= 2 and table[N - p] <= a and table[p + 6] <= b
    )


def brute_D_1r(N: int, r: int) -> int:
    table = omega_table(N)
    return sum(
        1 for p in range(2, N + 1) if table[p] == 1 and N - p >= 2 and table[N - p] <= r
    )


def brute_D_sr(N: int, s: int, r: int) -> int:
    table = omega_table(N)
    return sum(
        1
        for n in range(2, N - 1)
        if table[n] <= s and table[N - n] <= r
    )


def mirrored_count(kind: str, N: int, *params: int) -> int:
    """D_1ab, D_1r or D_sr from one Omega array over [0, N + 6], concatenated
    from ``sieve_omega`` segments, by whole-array masks over n = 2 .. N-2."""
    from triplesieve.engine import SEGMENT_CAP, sieve_omega

    om = np.zeros(N + 7, dtype=np.uint8)
    for lo in range(2, N + 7, SEGMENT_CAP):
        hi = min(lo + SEGMENT_CAP, N + 7)
        om[lo:hi] = sieve_omega(lo, hi).omegas
    head = om[2 : N - 1]  # Omega(n)
    partner = om[N - 2 : 1 : -1]  # Omega(N - n) for the same n
    if kind == "D_1ab":
        a, b = params
        hit = (head == 1) & (partner <= a) & (om[8 : N + 5] <= b)
    elif kind == "D_1r":
        (r,) = params
        hit = (head == 1) & (partner <= r)
    else:
        s, r = params
        hit = (head <= s) & (partner <= r)
    return int(np.count_nonzero(hit))


def hit_positions(kind: str, x: int, *params: int) -> list[int]:
    """The n <= x that the package's forward count of ``kind`` includes: each n
    where its per-integer checkpoint count steps, repeated by the step size.
    Not an oracle; tests compare it with the brute-force lists above."""
    from triplesieve.engine import ratio_scan

    counts = [0] + [r.count for r in ratio_scan(kind, params, range(1, x + 1))]
    return [n for n in range(1, x + 1) for _ in range(counts[n] - counts[n - 1])]


def simpson(f, a: float, b: float, n: int = 4096) -> float:
    """Composite Simpson with n (even) panels."""
    if b <= a:
        return 0.0
    if n % 2:
        n += 1
    x = np.linspace(a, b, n + 1)
    y = f(x)
    h = (b - a) / n
    return float(h / 3 * (y[0] + y[-1] + 4 * y[1:-1:2].sum() + 2 * y[2:-1:2].sum()))


def midpoint_2d(lo1, hi1, lo2, hi2, kernel, n: int = 1000) -> float:
    """Midpoint cubature for a depth-2 iterated integral with callable limits."""
    t1 = lo1 + (np.arange(n) + 0.5) * (hi1 - lo1) / n
    total = 0.0
    for v in t1:
        lo = lo2(v) if callable(lo2) else lo2
        hi = hi2(v) if callable(hi2) else hi2
        if hi <= lo:
            continue
        t2 = lo + (np.arange(n) + 0.5) * (hi - lo) / n
        total += float(kernel(v, t2).sum()) * (hi - lo) / n
    return total * (hi1 - lo1) / n


def midpoint_3d(lo1, hi1, lo2, hi2, lo3, hi3, kernel, n: int = 100) -> float:
    """Midpoint cubature for a depth-3 iterated integral (n^3 sample points)."""
    t1 = lo1 + (np.arange(n) + 0.5) * (hi1 - lo1) / n
    total = 0.0
    for v1 in t1:
        l2 = lo2(v1) if callable(lo2) else lo2
        h2 = hi2(v1) if callable(hi2) else hi2
        if h2 <= l2:
            continue
        t2 = l2 + (np.arange(n) + 0.5) * (h2 - l2) / n
        inner = 0.0
        for v2 in t2:
            l3 = lo3(v1, v2) if callable(lo3) else lo3
            h3 = hi3(v1, v2) if callable(hi3) else hi3
            if h3 <= l3:
                continue
            t3 = l3 + (np.arange(n) + 0.5) * (h3 - l3) / n
            inner += float(kernel(v1, v2, t3).sum()) * (h3 - l3) / n
        total += inner * (h2 - l2) / n
    return total * (hi1 - lo1) / n


@cache
def chain_density_sum(h: float = 0.01) -> tuple[float, float]:
    """C0 = sum of c_k = A_{k-2}(199) over 15 <= k <= 199, and c_15 = A_13(199),
    without the package.

    A_1(v) = int_2^v log(t-1)/t dt and A_j(v) = int_{j+1}^v A_{j-1}(t-1)/t dt.
    Each level is a cumulative trapezoid on a uniform grid of step h (1/h an
    integer, so t-1 is a grid node) with the first Euler-Maclaurin correction
    -h^2/12 (g'(v) - g'(a)), which makes it O(h^4).  The kernel derivative
    needs no differencing: g_j'(t) = g_{j-1}(t-1)/t - A_{j-1}(t-1)/t^2, with
    g_1 and g_1' in closed form.
    """
    shift = int(round(1.0 / h))
    n = 197 * shift + 1
    t = 2.0 + h * np.arange(n)
    g = np.log(t - 1.0) / t
    dg = 1.0 / ((t - 1.0) * t) - np.log(t - 1.0) / t**2
    total = c15 = 0.0
    for j in range(1, 198):  # level j starts at j + 1 < 199
        i0 = (j - 1) * shift
        A = np.zeros(n)
        A[i0 + 1:] = np.cumsum(0.5 * h * (g[i0:-1] + g[i0 + 1:]))
        A[i0:] -= h * h / 12.0 * (dg[i0:] - dg[i0])
        if j + 2 >= 15:
            total += float(A[-1])
        if j + 2 == 15:
            c15 = float(A[-1])
        g_prev, A_prev = np.zeros(n), np.zeros(n)
        g_prev[shift:], A_prev[shift:] = g[:-shift], A[:-shift]
        dg = g_prev / t - A_prev / t**2
        g = A_prev / t
    return total, c15


# ---------------------------------------------------------------------------
# Sieve curves: the piecewise closed forms, in mpmath at 20 digits
# ---------------------------------------------------------------------------


def _A1(x):
    """int_2^x log(u-1)/u du = log(x-1) log x + Li2(1-x) + pi^2/12."""
    return mpmath.log(x - 1) * mpmath.log(x) + mpmath.polylog(2, 1 - x) + mpmath.pi**2 / 12


def F0_closed(s: float) -> float:
    """F0(s) on [3, 7]: 1 + A1(s-1), plus the wedge
    int_2^{s-3} log(t-1)/t int_{t+2}^{s-1} log((u-1)/(t+1))/u du dt above 5."""
    with mpmath.workdps(20):
        s = mpmath.mpf(s)
        value = 1 + _A1(s - 1)
        if s > 5:
            value += mpmath.quad(
                lambda t: mpmath.log(t - 1) / t * (
                    _A1(s - 1) - _A1(t + 2) - mpmath.log(t + 1) * mpmath.log((s - 1) / (t + 2))
                ),
                [2, s - 3],
            )
        return float(value)


def f0_closed(s: float) -> float:
    """f0(s) on [2, 8]: log(s-1), plus int_3^{s-1} A1(t-1)/t dt above 4, plus
    int_2^{s-4} log(t-1)/t int_{t+2}^{s-2} log((u-1)/(t+1)) log((s-1)/(u+1))/u du dt
    above 6."""
    with mpmath.workdps(20):
        s = mpmath.mpf(s)
        value = mpmath.log(s - 1)
        if s > 4:
            value += mpmath.quad(lambda t: _A1(t - 1) / t, [3, s - 1])
        if s > 6:
            value += mpmath.quad(
                lambda t: mpmath.log(t - 1) / t * mpmath.quad(
                    lambda u: mpmath.log((u - 1) / (t + 1)) * mpmath.log((s - 1) / (u + 1)) / u,
                    [t + 2, s - 2],
                ),
                [2, s - 4],
            )
        return float(value)


def _W3(x):
    """u w(u) on [3, 4]: 1 + log(x-1) + A1(x-1)."""
    return 1 + mpmath.log(x - 1) + _A1(x - 1)


def w_closed(u: float) -> float:
    """Buchstab w(u) on [3, 5]: W = u w(u) is W3 on [3, 4], continued by
    W(u) = W3(4) + int_4^u W3(t-1)/(t-1) dt on [4, 5]."""
    with mpmath.workdps(20):
        u = mpmath.mpf(u)
        if u <= 4:
            return float(_W3(u) / u)
        return float((_W3(4) + mpmath.quad(lambda t: _W3(t - 1) / (t - 1), [4, u])) / u)


@cache
def role_reversal_components(divisor: str) -> tuple[float, float, float]:
    """J (divisor "3.145") or K ("3.81") as its single, double and triple.

    The single is int_{1/13}^{1/divisor} dt/(t (0.475 - t)) = P(1/divisor) - P(1/13)
    with P(t) = log(t/(0.475 - t))/0.475.  The double and triple are taken with
    the order of integration swapped, t1 innermost, so that the t1 level is P
    and one mpmath quadrature over t2 is left:
    double = int_2^{4.175} log(t2-1)/t2 (P((5.175 - t2)/13) - P(1/13)) dt2 and
    triple = int_2^{2.175} log(t2-1)/t2 (P((3.175 - t2)/13) - P(1/13)) I(t2) dt2,
    where I(t2) = int_{t2+2}^{5.175} log((t3-1)/(t2+1))/t3 dt3
    = A1(5.175) - A1(t2+2) - log(t2+1) log(5.175/(t2+2)).
    """
    with mpmath.workdps(30):
        rate, top = mpmath.mpf("0.475"), mpmath.mpf("5.175")

        def P(t):
            return mpmath.log(t / (rate - t)) / rate

        low = P(mpmath.mpf(1) / 13)
        single = P(1 / mpmath.mpf(divisor)) - low
        double = mpmath.quad(
            lambda t: mpmath.log(t - 1) / t * (P((top - t) / 13) - low), [2, top - 1]
        )
        triple = mpmath.quad(
            lambda t: mpmath.log(t - 1) / t * (P((top - 2 - t) / 13) - low) * (
                _A1(top) - _A1(t + 2) - mpmath.log(t + 1) * mpmath.log(top / (t + 2))
            ),
            [2, top - 3],
        )
        return float(single), float(double), float(triple)


def quad(f, a: float, b: float) -> float:
    """int_a^b f(t) dt by mpmath's tanh-sinh quadrature at 30 digits (f takes mpf)."""
    with mpmath.workdps(30):
        return float(mpmath.quad(f, [a, b]))


# ---------------------------------------------------------------------------
# Hardy-Littlewood constants: prime zeta values in mpmath at 40 digits
# ---------------------------------------------------------------------------


@cache
def hardy_littlewood_constant(c: int, q: int = 100, k_max: int = 90) -> float:
    """C2 (c = 2) or C3 (c = 3) as prefactor * prod_{c<p<=q} f_c(p) times
    exp(-sum_{k=2}^{k_max} (c^k - c)/k * (P(k) - sum_{p<=q} p^-k)), with P the
    prime zeta function and f_c(p) = (1 - c/p)(1 - 1/p)^-c.  The terms past
    k_max are below (c/q)^k_max."""
    with mpmath.workdps(40):
        primes = primes_below(q)
        log_value = mpmath.log(mpmath.mpf(2) if c == 2 else mpmath.mpf(9) / 2)
        for p in primes:
            if p > c:
                log_value += mpmath.log(1 - mpmath.mpf(c) / p) - c * mpmath.log(1 - mpmath.mpf(1) / p)
        for k in range(2, k_max + 1):
            tail = mpmath.primezeta(k) - mpmath.fsum(mpmath.mpf(p) ** -k for p in primes)
            log_value -= (mpmath.mpf(c) ** k - c) / k * tail
        return float(mpmath.exp(log_value))


def odd_zeta_minus_one(s: float) -> float:
    """zeta(s) (1 - 2^-s) - 1, the sum of n^-s over the odd n >= 3, in mpmath."""
    with mpmath.workdps(30):
        return float(mpmath.zeta(s) * (1 - mpmath.mpf(2) ** -s) - 1)
