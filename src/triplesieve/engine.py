"""Segmented factor-counting sieve and the almost-prime pattern counters.

Omega(n) (prime factors with multiplicity) is sieved segment by segment.  Each
integer of a segment has one int32 word holding ``Omega << 20`` plus a
fixed-point sum of ``round(log p * 2**14)`` over the prime powers found so far.
A 360360-periodic wheel (2^3 3^2 5 7 11 13) is copied in first; then every
other prime power q = p^k < hi of a prime p <= sqrt(hi - 1) adds its word to the
multiples of q, by one strided add for the powers with many multiples per
segment and by one vectorised scatter for the rest.  Whatever part of n the
log sum misses is a single leftover prime, found by comparing the sum with
log n.  Segments are independent work units distributed over a thread pool;
every reduction is an integer sum, so results do not depend on scheduling or
thread count (TRIPLESIEVE_THREADS overrides the pool size).

The counters all reduce to masks over an Omega array: an integer is prime
exactly when Omega == 1, so the triple counter for primes p <= x with
Omega(p+2) <= a and Omega(p+6) <= b is three aligned slices of one segment.
The mirrored counters (N - p almost-prime) assemble the full array up to N.
"""

from __future__ import annotations

import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .constants import constant_C2, constant_C3, singular_series_CN
from .errors import CapacityError, DomainError
from .primes import primes_up_to

SEGMENT_SIZE = 1 << 20  # streaming segments: the fastest size measured near 1e8 and 1e10
SEGMENT_CAP = 1 << 24  # largest range sieve_omega hands out at once
MAX_SIEVE_BOUND = 10**10
MAX_MIRROR_N = 2 * 10**9  # full-array counters hold one byte per integer
MIRROR_KINDS = ("D_1ab", "D_1r", "D_sr")


@dataclass(frozen=True, eq=False)
class OmegaSegment:
    """Exact Omega values for the half-open integer range [base, base + len)."""

    base: int
    omegas: np.ndarray

    def omega(self, n: int) -> int:
        if not self.base <= n < self.base + len(self.omegas):
            raise DomainError(f"{n} outside segment [{self.base}, {self.base + len(self.omegas)})")
        return int(self.omegas[n - self.base])


@dataclass(frozen=True, eq=False)
class TripleCountResult:
    """One counting query with its main-term prediction."""

    kind: str
    size: int
    params: dict
    count: int
    predicted: float

    @property
    def ratio(self) -> float:
        return self.count / self.predicted if self.predicted > 0 else 0.0


def thread_count() -> int:
    env = os.environ.get("TRIPLESIEVE_THREADS", "").strip()
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


_OMEGA_SHIFT = 20  # Omega above, the fixed-point log sum below
_LOG_SCALE = 1 << 14
_WHEEL_PERIOD = 360360  # 2^3 3^2 5 7 11 13
_WHEEL_PRIMES = (2, 3, 5, 7, 11, 13)
_SCATTER_HITS = 256  # prime powers with fewer multiples per segment are scattered


def _log_words(p: np.ndarray) -> np.ndarray:
    """The word one factor p adds: 1 << 20 plus round(log p * 2**14)."""
    return (1 << _OMEGA_SHIFT) + np.rint(np.log(p) * _LOG_SCALE).astype(np.int64)


@functools.cache
def _wheel() -> np.ndarray:
    """Words of the wheel's prime powers for one period, n = 0 .. 360359."""
    wheel = np.zeros(_WHEEL_PERIOD, dtype=np.int32)
    for p, word in zip(_WHEEL_PRIMES, _log_words(np.array(_WHEEL_PRIMES)).tolist()):
        q = p
        while _WHEEL_PERIOD % q == 0:
            wheel[::q] += word
            q *= p
    wheel.flags.writeable = False
    return wheel


def _prime_powers(hi: int, base_primes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Prime powers q < hi of the primes p <= sqrt(hi - 1) that the wheel does
    not cover, with the word each adds."""
    primes = base_primes[: np.searchsorted(base_primes, math.isqrt(hi - 1), side="right")]
    primes = primes.astype(np.int64)
    powers, words = [primes], [_log_words(primes)]
    q = primes
    while len(q):  # q * p < hi holds for a prefix, since the primes ascend
        p = primes[: len(q)]
        q = (q * p)[q <= (hi - 1) // p]
        powers.append(q)
        words.append(words[0][: len(q)])
    powers, words = np.concatenate(powers), np.concatenate(words)
    live = _WHEEL_PERIOD % powers != 0
    return powers[live], words[live]


def _omega_block(lo: int, hi: int, base_primes: np.ndarray) -> np.ndarray:
    """Omega(n) for n in [lo, hi) given primes covering sqrt(hi - 1).

    Every prime power of a prime p <= sqrt(hi - 1) is counted (the wheel's
    primes above sqrt(hi - 1) have no square below hi), so n = m * c with m
    the part found and c either 1 or one prime above sqrt(hi - 1).  The low
    field of n's word is S = 2**14 * (log m + e): Omega(m) < 34 below 2**34,
    so the rounding error |e| <= 33 * 2**-15 < 0.0011 and the word stays below
    2**31, and log m < 24 keeps S below 2**20.  The range is cut into chunks
    [a, b) with b <= 1.5 a, and c is taken to be prime exactly when
    S < T = floor(2**14 (log a - 1/4)):
    if c = 1, S / 2**14 >= log a - 0.0011 > log a - 1/4; if c >= 2,
    S / 2**14 <= log n - log 2 + 0.0011 < log a + 0.406 - 0.693 + 0.0011,
    which is below log a - 1/4 - 2**-14.  So the test is exact.
    """
    n = hi - lo
    if n == 0:
        return np.zeros(0, dtype=np.uint8)
    wheel = _wheel()
    words = np.empty(n, dtype=np.int32)
    pos, phase = 0, lo % _WHEEL_PERIOD
    while pos < n:
        take = min(_WHEEL_PERIOD - phase, n - pos)
        words[pos : pos + take] = wheel[phase : phase + take]
        pos, phase = pos + take, 0

    powers, adds = _prime_powers(hi, base_primes)
    starts = (-lo) % powers
    many = powers * _SCATTER_HITS <= n
    for q, start, add in zip(powers[many].tolist(), starts[many].tolist(), adds[many].tolist()):
        words[start::q] += add
    few = ~many & (starts < n)
    powers, starts, adds = powers[few], starts[few], adds[few]
    if len(powers):
        # all multiples of the remaining powers at once; two powers may share one
        hits = (n - 1 - starts) // powers + 1
        first = np.cumsum(hits) - hits
        at = np.repeat(starts - first * powers, hits)
        at += np.repeat(powers, hits) * np.arange(int(first[-1] + hits[-1]))
        np.add.at(words, at, np.repeat(adds.astype(np.int32), hits))

    omega = (words >> _OMEGA_SHIFT).astype(np.uint8)
    log_sum = words & ((1 << _OMEGA_SHIFT) - 1)
    a = lo
    while a < hi:
        b = min(hi, a + max(a // 2, 1))
        omega[a - lo : b - lo] += log_sum[a - lo : b - lo] < math.floor(
            (math.log(a) - 0.25) * _LOG_SCALE
        )
        a = b
    return omega


def sieve_omega(lo: int, hi: int) -> OmegaSegment:
    """Exact Omega over [lo, hi); the range is capped at one segment."""
    lo, hi = int(lo), int(hi)
    if not 2 <= lo <= hi <= MAX_SIEVE_BOUND:
        raise DomainError(f"need 2 <= lo <= hi <= {MAX_SIEVE_BOUND}, got [{lo}, {hi})")
    if hi - lo > SEGMENT_CAP:
        raise CapacityError(f"segment of {hi - lo} exceeds cap {SEGMENT_CAP}")
    return OmegaSegment(lo, _omega_block(lo, hi, primes_up_to(math.isqrt(max(hi - 1, 2)))))


def _segments(limit: int, segment_size: int) -> Iterator[tuple[int, int]]:
    lo = 2
    while lo <= limit:
        yield lo, min(lo + segment_size, limit + 1)
        lo += segment_size


_VACUOUS_OMEGA = 40  # Omega(n) < 40 for every n within the sieve bound


def _scan(
    limit: int,
    conditions: tuple[tuple[int, int], ...],
    checkpoints: tuple[int, ...],
    segment_size: int = SEGMENT_SIZE,
    collect: bool = False,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Count primes p <= each checkpoint with Omega(p + off) <= bound per condition.

    Returns per-checkpoint counts (and the qualifying p themselves when
    ``collect`` is set).  Segment results are combined by integer addition and
    ordered concatenation, so the outcome is scheduling-independent.
    """
    if limit < 2:
        empty = np.zeros(len(checkpoints), dtype=np.int64)
        return empty, (np.empty(0, dtype=np.int64) if collect else None)
    pad = max((off for off, _ in conditions), default=0)
    base_primes = primes_up_to(math.isqrt(limit + pad))
    live = tuple((off, bound) for off, bound in conditions if bound < _VACUOUS_OMEGA)
    marks = np.asarray(checkpoints, dtype=np.int64)

    def work(seg: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
        lo, hi = seg
        om = _omega_block(lo, hi + pad, base_primes)
        span = hi - lo
        mask = om[:span] == 1
        for off, bound in live:
            mask &= om[off : span + off] <= bound
        hits = lo + np.nonzero(mask)[0].astype(np.int64)
        return np.searchsorted(hits, marks, side="right"), hits

    segs = list(_segments(limit, segment_size))
    workers = min(thread_count(), max(len(segs), 1))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(work, segs))
    else:
        parts = [work(s) for s in segs]
    counts = np.sum([c for c, _ in parts], axis=0, dtype=np.int64)
    positions = np.concatenate([h for _, h in parts]) if collect else None
    return counts, positions


def _mirror_array(limit: int, segment_size: int = SEGMENT_SIZE) -> np.ndarray:
    """Omega(n) for all 0 <= n <= limit (entries 0, 1 are 0) as one array."""
    if limit > MAX_MIRROR_N:
        raise CapacityError(f"mirrored counts need the full array; N capped at {MAX_MIRROR_N}")
    base_primes = primes_up_to(math.isqrt(limit))
    out = np.zeros(limit + 1, dtype=np.uint8)
    segs = list(_segments(limit, segment_size))

    def work(seg: tuple[int, int]) -> None:
        lo, hi = seg
        out[lo:hi] = _omega_block(lo, hi, base_primes)

    workers = min(thread_count(), max(len(segs), 1))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(work, segs))
    else:
        for s in segs:
            work(s)
    return out


# ---------------------------------------------------------------------------
# Predictors (main-term shapes; log log exponent floors at 0)
# ---------------------------------------------------------------------------


def _loglog_power(x: int, exponent: int) -> float:
    return math.log(math.log(x)) ** max(exponent, 0)


def _predict(kind: str, size: int, params: dict) -> float:
    if size < 5:
        return 0.0
    logx = math.log(size)
    if kind == "pi_1ab":
        return constant_C3(1e-6).value * size / logx**3 * _loglog_power(size, params["a"] - 2)
    if kind == "D_1ab":
        return size / logx**3 * _loglog_power(size, params["a"] - 2)
    if kind == "pi_1r":
        return constant_C2(1e-6).value * size / logx**2 * _loglog_power(size, params["r"] - 2)
    if kind == "D_1r":
        return singular_series_CN(size) * size / logx**2 * _loglog_power(size, params["r"] - 2)
    if kind == "D_sr":
        return (
            singular_series_CN(size) * size / logx**2
            * _loglog_power(size, params["s"] + params["r"] - 3)
        )
    raise DomainError(f"unknown kind {kind!r}")


def _result(kind: str, size: int, params: dict, count: int) -> TripleCountResult:
    return TripleCountResult(kind, size, params, count, _predict(kind, size, params))


# ---------------------------------------------------------------------------
# Counting operations
# ---------------------------------------------------------------------------


def _check_positive_int(value: int, name: str) -> int:
    value = int(value)
    if value < 1:
        raise DomainError(f"{name} must be >= 1, got {value}")
    return value


def count_pi_1ab(x: int, a: int, b: int, segment_size: int = SEGMENT_SIZE) -> TripleCountResult:
    """Primes p <= x with Omega(p+2) <= a and Omega(p+6) <= b."""
    x = int(x)
    if x < 0 or x > MAX_SIEVE_BOUND:
        raise DomainError(f"x must lie in [0, {MAX_SIEVE_BOUND}]")
    a, b = _check_positive_int(a, "a"), _check_positive_int(b, "b")
    counts, _ = _scan(x, ((2, a), (6, b)), (x,), segment_size)
    return _result("pi_1ab", x, {"a": a, "b": b}, int(counts[0]))


def pi_1ab_positions(x: int, a: int, b: int, segment_size: int = SEGMENT_SIZE) -> np.ndarray:
    """The qualifying primes themselves (ascending), for oracle comparisons."""
    _, hits = _scan(int(x), ((2, int(a)), (6, int(b))), (int(x),), segment_size, collect=True)
    return hits


def count_D_1ab(N: int, a: int, b: int, segment_size: int = SEGMENT_SIZE) -> TripleCountResult:
    """Primes p <= N with N - p >= 2, Omega(N-p) <= a, Omega(p+6) <= b."""
    N = int(N)
    if N % 2 or N < 8:
        raise DomainError(f"N must be an even integer >= 8, got {N}")
    a, b = _check_positive_int(a, "a"), _check_positive_int(b, "b")
    om = _mirror_array(N + 6, segment_size)
    hit = om[2 : N - 1] == 1  # p = 2 .. N-2 prime (N - p = 1 is no almost-prime)
    hit &= om[N - 2 : 1 : -1] <= a  # Omega(N - p) for the same p
    hit &= om[8 : N + 5] <= b  # Omega(p + 6)
    return _result("D_1ab", N, {"a": a, "b": b}, int(np.count_nonzero(hit)))


def count_chen_variants(
    kind: str,
    size: int,
    s: int | None = None,
    r: int | None = None,
    segment_size: int = SEGMENT_SIZE,
) -> TripleCountResult:
    """The two-element pattern counters: pi_1r, D_1r, D_sr."""
    size = int(size)
    if size < 4:
        raise DomainError(f"size must be >= 4, got {size}")
    if kind == "pi_1r":
        r = _check_positive_int(r, "r")
        if size > MAX_SIEVE_BOUND:
            raise DomainError(f"x capped at {MAX_SIEVE_BOUND}")
        counts, _ = _scan(size, ((2, r),), (size,), segment_size)
        return _result("pi_1r", size, {"r": r}, int(counts[0]))
    if kind not in ("D_1r", "D_sr"):
        raise DomainError(f"unknown kind {kind!r}; expected pi_1r, D_1r or D_sr")
    if size % 2:
        raise DomainError(f"{kind} needs even N, got {size}")
    r = _check_positive_int(r, "r")
    om = _mirror_array(size, segment_size)
    head = om[2 : size - 1]  # Omega(n) for n = 2 .. N-2
    if kind == "D_1r":
        params = {"r": r}
        hit = head == 1
    else:
        s = _check_positive_int(s, "s")
        params = {"s": s, "r": r}
        hit = head <= s
    hit &= head[::-1] <= r  # Omega(N-n) for the same n
    return _result(kind, size, params, int(np.count_nonzero(hit)))


def pi_1r_positions(x: int, r: int, segment_size: int = SEGMENT_SIZE) -> np.ndarray:
    _, hits = _scan(int(x), ((2, int(r)),), (int(x),), segment_size, collect=True)
    return hits


def ratio_scan(
    kind: str,
    a: int,
    b: int | None,
    checkpoints: list[int],
    segment_size: int = SEGMENT_SIZE,
) -> list[TripleCountResult]:
    """Counts and count/predictor ratios at each checkpoint (one sieve pass)."""
    marks = [int(c) for c in checkpoints]
    if not marks:
        return []
    if any(c2 <= c1 for c1, c2 in zip(marks, marks[1:])):
        raise DomainError("checkpoints must be strictly ascending")
    if marks[-1] > 10**9:
        raise DomainError("checkpoints capped at 1e9")
    if kind == "pi_1ab":
        params = {"a": int(a), "b": int(b)}
        conds = ((2, params["a"]), (6, params["b"]))
    elif kind == "pi_1r":
        params = {"r": int(a)}
        conds = ((2, params["r"]),)
    elif kind in MIRROR_KINDS:
        out = []
        for mark in marks:
            if kind == "D_1ab":
                out.append(count_D_1ab(mark, a, b, segment_size))
            elif kind == "D_1r":
                out.append(count_chen_variants("D_1r", mark, r=a, segment_size=segment_size))
            else:
                out.append(count_chen_variants("D_sr", mark, s=a, r=b, segment_size=segment_size))
        return out
    else:
        raise DomainError(f"unknown kind {kind!r}")
    counts, _ = _scan(marks[-1], conds, tuple(marks), segment_size)
    return [
        _result(kind, mark, params, int(count)) for mark, count in zip(marks, counts)
    ]
