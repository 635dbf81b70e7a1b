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

All five counting kinds are rows of one table, KINDS, and run on one streaming
kernel.  A count reduces to masks over a segment's Omega values: an integer is
prime exactly when Omega == 1, so the triple count of primes p <= x with
Omega(p+2) <= a and Omega(p+6) <= b is three aligned slices of one segment.
The four prime-headed kinds read only odd n (past p = 2, checked on its own),
so their segments hold one word per odd n (the kernel's step 2): half the
work for the same range.  D_sr, whose head is any n, and sieve_omega keep one
word per integer.  SEGMENT_SIZE counts words.  The mirrored kinds (N - p
almost-prime) pair each segment [lo, hi) below N/2 with its mirror
[N - hi + 1, N - lo + 1), so memory stays bounded by the segment size, not
by N.
"""

from __future__ import annotations

import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .constants import constant_C2, constant_C3, singular_series_CN
from .errors import CapacityError, DomainError
from .primes import primes_up_to

SEGMENT_SIZE = 1 << 19  # words per streaming segment, read at each count; fastest near 1e8, 1e10
SEGMENT_CAP = 1 << 24  # largest range sieve_omega hands out at once
MAX_SIEVE_BOUND = 10**10


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
    if hasattr(os, "sched_getaffinity"):  # the CPUs this process may run on
        return len(os.sched_getaffinity(0))
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
def _wheel(step: int = 1) -> np.ndarray:
    """Words of the wheel's prime powers for one period, n = 0 .. 360359; with
    step 2 only its odd n = 1, 3, .., 360359, a period of 180180 words."""
    if step == 2:
        wheel = _wheel()[1::2].copy()
    else:
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


def _omega_block(lo: int, hi: int, base_primes: np.ndarray, step: int = 1) -> np.ndarray:
    """Omega(n) for n in [lo, hi) given primes covering sqrt(hi - 1).

    With step 2, lo is odd and only the odd n of [lo, hi) are sieved: index i
    stands for n = lo + 2i.  The wheel is then its odd half, the powers of 2
    are dropped, and an odd q strikes every q-th index from the i with
    lo + 2i = 0 (mod q), that is ((-lo) % q) * ((q + 1) // 2) % q, computed as
    half the first even offset (-lo) % q or (-lo) % q + q, which stays in int64.

    Every prime power of a prime p <= sqrt(hi - 1) is counted (the wheel's
    primes above sqrt(hi - 1) have no square below hi), so n = m * c with m
    the part found and c either 1 or one prime above sqrt(hi - 1).  The low
    field of n's word is S = 2**14 * (log m + e): Omega(m) < 34 below 2**34,
    so the rounding error |e| <= 33 * 2**-15 < 0.0011 and the word stays below
    2**31, and log m < 24 keeps S below 2**20.  The indices are cut into chunks
    whose n lie in [a, b) with b <= 1.5 a, and c is taken to be prime exactly
    when S < T = floor(2**14 (log a - 1/4)):
    if c = 1, S / 2**14 >= log a - 0.0011 > log a - 1/4; if c >= 2,
    S / 2**14 <= log n - log 2 + 0.0011 < log a + 0.406 - 0.693 + 0.0011,
    which is below log a - 1/4 - 2**-14.  So the test is exact.
    """
    n = (hi - lo + step - 1) // step  # words
    if n == 0:
        return np.zeros(0, dtype=np.uint8)
    wheel, period = _wheel(step), _WHEEL_PERIOD // step
    words = np.empty(n, dtype=np.int32)
    pos, phase = 0, (lo % _WHEEL_PERIOD) // step
    while pos < n:
        take = min(period - phase, n - pos)
        words[pos : pos + take] = wheel[phase : phase + take]
        pos, phase = pos + take, 0

    powers, adds = _prime_powers(hi, base_primes if step == 1 else base_primes[base_primes > 2])
    starts = (-lo) % powers
    if step == 2:  # lo + starts is even when starts is odd; the next multiple is odd
        starts = (starts + powers * (starts & 1)) >> 1
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
    i = 0
    while i < n:
        a = lo + step * i
        j = min(n, i + max(a // (2 * step), 1))  # the chunk's n stay below 1.5 a
        omega[i:j] += log_sum[i:j] < math.floor((math.log(a) - 0.25) * _LOG_SCALE)
        i = j
    return omega


def sieve_omega(lo: int, hi: int) -> OmegaSegment:
    """Exact Omega over [lo, hi); the range is capped at one segment."""
    lo, hi = int(lo), int(hi)
    if not 2 <= lo <= hi <= MAX_SIEVE_BOUND:
        raise DomainError(f"need 2 <= lo <= hi <= {MAX_SIEVE_BOUND}, got [{lo}, {hi})")
    if hi - lo > SEGMENT_CAP:
        raise CapacityError(f"segment of {hi - lo} exceeds cap {SEGMENT_CAP}")
    return OmegaSegment(lo, _omega_block(lo, hi, primes_up_to(math.isqrt(max(hi - 1, 2)))))


# ---------------------------------------------------------------------------
# Counting kinds
# ---------------------------------------------------------------------------


def _loglog_power(x: int, exponent: int) -> float:
    return math.log(math.log(x)) ** max(exponent, 0)


@dataclass(frozen=True)
class CountKind:
    """What one counting kind counts, and its main-term predictor.

    An integer n >= 2 is counted when Omega(n) <= head (None: n is prime) and
    Omega(n + offset) <= bound for each forward (offset, bound); bounds name
    parameters.  A forward kind counts n <= x.  A mirrored kind counts
    n <= N - 2 that also have Omega(N - n) <= mirror, for even N >= min_size.
    """

    params: tuple[str, ...]
    min_size: int
    head: str | None
    forward: tuple[tuple[int, str], ...]
    mirror: str | None
    predict: Callable[[int, dict], float]  # main term, for sizes >= 5


KINDS = {
    "pi_1ab": CountKind(
        ("a", "b"), 0, None, ((2, "a"), (6, "b")), None,
        lambda x, p: constant_C3(1e-6).value * x / math.log(x) ** 3 * _loglog_power(x, p["a"] - 2),
    ),
    "D_1ab": CountKind(
        ("a", "b"), 8, None, ((6, "b"),), "a",
        lambda N, p: N / math.log(N) ** 3 * _loglog_power(N, p["a"] - 2),
    ),
    "pi_1r": CountKind(
        ("r",), 0, None, ((2, "r"),), None,
        lambda x, p: constant_C2(1e-6).value * x / math.log(x) ** 2 * _loglog_power(x, p["r"] - 2),
    ),
    "D_1r": CountKind(
        ("r",), 4, None, (), "r",
        lambda N, p: singular_series_CN(N) * N / math.log(N) ** 2 * _loglog_power(N, p["r"] - 2),
    ),
    "D_sr": CountKind(
        ("s", "r"), 4, "s", (), "r",
        lambda N, p: (
            singular_series_CN(N) * N / math.log(N) ** 2 * _loglog_power(N, p["s"] + p["r"] - 3)
        ),
    ),
}


def kind_params(kind: str, values: Sequence[int]) -> dict[str, int]:
    """The kind's named parameters from positional values, each at least 1."""
    if kind not in KINDS:
        raise DomainError(f"unknown kind {kind!r}; expected one of {', '.join(KINDS)}")
    names = KINDS[kind].params
    if len(values) != len(names):
        raise DomainError(f"{kind} takes parameters {' '.join(names)}")
    params = {name: int(value) for name, value in zip(names, values)}
    for name, value in params.items():
        if value < 1:
            raise DomainError(f"{name} must be >= 1, got {value}")
    return params


# ---------------------------------------------------------------------------
# The streaming kernel
# ---------------------------------------------------------------------------


def _hits(om: np.ndarray, span: int, head: int, forward: tuple[tuple[int, int], ...]):
    """Mask of om's first span integers n with Omega(n) <= head and the forward bounds."""
    mask = om[:span] <= head
    for off, bound in forward:
        mask &= om[off : off + span] <= bound
    return mask


def _sieve_count(
    marks: Sequence[int],
    head: int | None,
    forward: tuple[tuple[int, int], ...],
    mirror: int | None,
) -> np.ndarray:
    """Per mark, the n in [2, mark] with Omega(n) <= head (None: n is prime) and
    Omega(n + off) <= bound for each forward (off, bound); with a mirror bound, the
    one mark N counts the n in [2, N - 2] that also have Omega(N - n) <= mirror.

    Work units are segments of SEGMENT_SIZE words, each sieved with a pad for the
    offsets.  A prime head past 2 is odd, and so are n + 2, n + 6 and N - n, so
    those kinds sieve only odd n (step 2: index i is n = lo + 2i, the offsets 2
    and 6 are index offsets 1 and 3) and check p = 2 on its own.  Mirrored units
    walk only lo <= N/2: each also sieves [N - hi + 1, N - lo + 1), which read
    backwards is Omega(N - n) for the unit's n, and counts both the n and their
    partners N - n from the pair; the unit ends just past an n, so with step 2
    both segments start on an odd n.  So memory is O(segment) per thread for
    every kind.  Unit counts are added as integers, so the result does not
    depend on scheduling or thread count.
    """
    size = int(marks[-1])
    limit = size if mirror is None else size // 2
    pad = max((off for off, _ in forward), default=0)
    base_primes = primes_up_to(math.isqrt(size + pad))
    marks = np.asarray(marks, dtype=np.int64)
    step, head = (2, 1) if head is None else (1, head)
    strided = tuple((off // step, bound) for off, bound in forward)

    def work(unit: tuple[int, int]) -> np.ndarray:
        lo, span = unit
        hi = lo + step * (span - 1) + 1  # just past the unit's last n
        own = _omega_block(lo, hi + pad, base_primes, step)
        mask = _hits(own, span, head, strided)
        if mirror is None:
            return np.searchsorted(lo + step * np.nonzero(mask)[0], marks, side="right")
        partner = _omega_block(size - hi + 1, size - lo + 1 + pad, base_primes, step)
        mask &= partner[span - 1 :: -1] <= mirror
        upper = _hits(partner, span, head, strided)
        upper &= own[span - 1 :: -1] <= mirror
        if 2 * (hi - 1) == size:  # n = N/2 is its own partner: counted in the lower half only
            upper[0] = False
        return np.array([np.count_nonzero(mask) + np.count_nonzero(upper)])

    first = 2 if step == 1 else 3
    units = [(lo, min(SEGMENT_SIZE, (limit - lo) // step + 1))
             for lo in range(first, limit + 1, step * SEGMENT_SIZE)]
    workers = min(thread_count(), len(units))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(work, units))
    else:
        parts = [work(u) for u in units]
    counts = np.zeros(len(marks), dtype=np.int64)
    for part in parts:
        counts += part
    if step == 2:  # the even prime
        two = _hits(_omega_block(2, 3 + pad, base_primes), 1, head, forward)[0]
        if mirror is not None:
            two &= _omega_block(size - 2, size - 1, base_primes)[0] <= mirror
        counts += two & (marks >= 2)
    return counts


# ---------------------------------------------------------------------------
# Counting operations
# ---------------------------------------------------------------------------


def _results(kind: str, params: Sequence[int], sizes: list[int]) -> list[TripleCountResult]:
    named = kind_params(kind, params)
    spec = KINDS[kind]
    for size in sizes:
        if not spec.min_size <= size <= MAX_SIEVE_BOUND or (spec.mirror and size % 2):
            what = "an even N" if spec.mirror else "x"
            raise DomainError(
                f"{kind} needs {what} in [{spec.min_size}, {MAX_SIEVE_BOUND}], got {size}"
            )
    if not sizes:
        return []
    head = named[spec.head] if spec.head else None
    forward = tuple((off, named[name]) for off, name in spec.forward)
    if spec.mirror is None:
        counts = _sieve_count(sizes, head, forward, None)
    else:  # each N pairs different segments
        counts = [_sieve_count([N], head, forward, named[spec.mirror])[0] for N in sizes]
    return [
        TripleCountResult(kind, size, named, int(count),
                          spec.predict(size, named) if size >= 5 else 0.0)
        for size, count in zip(sizes, counts)
    ]


def count_pi_1ab(x: int, a: int, b: int) -> TripleCountResult:
    """Primes p <= x with Omega(p+2) <= a and Omega(p+6) <= b."""
    return _results("pi_1ab", (a, b), [int(x)])[0]


def count_D_1ab(N: int, a: int, b: int) -> TripleCountResult:
    """Primes p <= N with N - p >= 2, Omega(N-p) <= a, Omega(p+6) <= b."""
    return _results("D_1ab", (a, b), [int(N)])[0]


def count_pi_1r(x: int, r: int) -> TripleCountResult:
    """Primes p <= x with Omega(p+2) <= r."""
    return _results("pi_1r", (r,), [int(x)])[0]


def count_D_1r(N: int, r: int) -> TripleCountResult:
    """Primes p <= N with N - p >= 2 and Omega(N-p) <= r."""
    return _results("D_1r", (r,), [int(N)])[0]


def count_D_sr(N: int, s: int, r: int) -> TripleCountResult:
    """Integers 2 <= n <= N - 2 with Omega(n) <= s and Omega(N-n) <= r."""
    return _results("D_sr", (s, r), [int(N)])[0]


def ratio_scan(
    kind: str, params: Sequence[int], checkpoints: Iterable[int]
) -> list[TripleCountResult]:
    """Counts and count/predictor ratios at each checkpoint.

    A forward kind makes one sieve pass for all checkpoints; a mirrored kind
    makes one pass per checkpoint, since each N pairs different segments.
    """
    marks = [int(c) for c in checkpoints]
    if any(c2 <= c1 for c1, c2 in zip(marks, marks[1:])):
        raise DomainError("checkpoints must be strictly ascending")
    if marks and marks[-1] > 10**9:
        raise DomainError("checkpoints capped at 1e9")
    return _results(kind, params, marks)
