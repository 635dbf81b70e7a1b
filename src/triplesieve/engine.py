"""Segmented factor-counting sieve and the almost-prime pattern counters.

Omega(n) (prime factors with multiplicity) is sieved segment by segment.  Each
integer of a segment has one uint16 word holding ``Omega << 10`` less a
fixed-point log sum at scale 2**5 over the prime powers found so far; the
powers of one prime add telescoped steps, so p^e adds ``round(32 e log p)``.
A 360360-periodic wheel (2^3 3^2 5 7 11 13) is copied in first; then every
other prime power q = p^k < hi of a prime p <= sqrt(hi - 1) adds its word to the
multiples of q, by one strided add for the powers with many multiples per
segment and by one vectorised scatter for the rest.  Whatever part of n the
log sum misses is a single leftover prime, found by comparing the sum with
log n: one add per chunk carries it into the Omega field.  Segments are
independent work units shared out over forked worker processes (the kernel's
many short NumPy calls hold the GIL, so threads barely overlap); each worker
sends back an integer sum, so results do not depend on the worker count.
TRIPLESIEVE_THREADS sizes the workers.  With two or more, the calling process
only coordinates: it forks every worker and adds their sums, and sieves
nothing, so its own pages (numpy and the interpreter's code) never sit in one
process with a set of segment buffers.  With one worker, or where os.fork is
missing, a count runs serially in the calling process.  A count builds its
prime powers and the scatter's plan once (_Plan) and sieves every segment in
one set of buffers sized by its largest segment, so a segment allocates nothing
of its own size: each worker faults its buffers in once, not once per segment.

All five counting kinds are rows of one table, KINDS, and run on one streaming
kernel.  A count reduces to masks over a segment's Omega values: an integer is
prime exactly when Omega == 1, so the triple count of primes p <= x with
Omega(p+2) <= a and Omega(p+6) <= b is three aligned slices of one segment.
The four prime-headed kinds read only odd n (past p = 2, checked on its own by
trial division), so their segments hold one word per odd n (the kernel's
step 2) and copy in only the wheel's odd half: half the work for the same
range.  D_sr, whose head is any n, and sieve_omega keep one word per integer
and the full wheel.  SEGMENT_SIZE counts words.  The mirrored kinds (N - p
almost-prime) pair each segment [lo, hi) below N/2 with its mirror
[N - hi + 1, N - lo + 1), so memory stays bounded by the segment size, not
by N.  The mirror's Omega values are written reversed, so every mask of a
pair reads its arrays forwards (a negative-stride compare of 2^20 bytes runs
~13x slower).  At 2^19 words a worker's buffers take 1.5 MiB, 2 MiB for a
mirrored count: the plan's 1 MiB word block and a 0.5 MiB Omega array per
segment of a unit.

This module imports numpy and the Euler products of constants, but not the
quadrature, the sieve curves or the pipeline; ``import triplesieve`` itself
loads none of them until a public name is used.
"""

from __future__ import annotations

import functools
import math
import os
import signal
import traceback
import warnings
from dataclasses import dataclass
from typing import BinaryIO, Callable, Iterable, Sequence

import numpy as np

from .constants import constant_C2, constant_C3, singular_series_CN
from .errors import CapacityError, DomainError
from .primes import primes_up_to

# words per streaming segment, read at each count.  Swept over 2^18, 2^19 and
# 2^20 words with perfbench/run.py (2 vCPUs, six 20 s runs each, medians):
# peak_rss_mb 33.47 / 34.91 / 36.61 MB on count_mirror and 34.49 / 34.55 /
# 35.56 MB on count_forward, wall_s 136 / 134 / 135 ms and 146 / 130 / 133 ms.
# 2^19 halves a worker's buffers at no cost the harness can see; one worker's
# odd blocks near 1e10 run ~490 Mword/s against ~520 at 2^20 and 300-400 at 2^18.
# CHANGES.md has the sweep.
SEGMENT_SIZE = 1 << 19
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
    """Sieve workers for a count: TRIPLESIEVE_THREADS if set, else the CPUs this
    process may run on.  A count uses no more workers than os.cpu_count() or its
    segments.  Two or more are forked processes, while the caller only
    coordinates; one worker, or any count where os.fork is missing, is the
    calling process itself."""
    env = os.environ.get("TRIPLESIEVE_THREADS", "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(f"TRIPLESIEVE_THREADS must be an integer, got {env!r}") from None
    if hasattr(os, "sched_getaffinity"):  # the CPUs this process may run on
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


_OMEGA_SHIFT = 10  # Omega << 10, less the fixed-point log sum
_MAX_OMEGA = 33  # the largest Omega(n) for n < 2^34, a bound past MAX_SIEVE_BOUND
_LOG_SCALE = 1 << 5
_WHEEL_PERIOD = 360360  # 2^3 3^2 5 7 11 13
_WHEEL_PRIMES = (2, 3, 5, 7, 11, 13)
# prime powers with fewer multiples per block are scattered.  On 2^20-word
# blocks near 1e8, 1e9 and 1e10 (2 vCPUs) 128 and 256 run within noise of each
# other (2.58 / 3.04 / 3.69 ms against 2.64 / 3.14 / 3.86 for odd blocks), and
# 96 and 64 were no faster.  On 2^19-word blocks 256 read no faster on the
# harness (wall_s 128 / 145 ms against 130 / 134 ms on count_forward /
# count_mirror) and 64 was slower in process; 128 holds a count's scatter plan
# to 0.54 / 1.16 / 1.77 MiB near 1e8 / 1e9 / 1e10, not 0.99 / 1.61 / 2.22.
_SCATTER_HITS = 128


def _log_words(p: np.ndarray, k: int) -> np.ndarray:
    """The word the k-th power of each p adds: 1 << 10 minus the step
    round(32 k log p) - round(32 (k - 1) log p), so that p, p^2, .., p^e add
    round(32 e log p) to the log sum in all."""
    scaled = np.log(p) * _LOG_SCALE
    step = np.rint(k * scaled) - np.rint((k - 1) * scaled)
    return ((1 << _OMEGA_SHIFT) - step).astype(np.uint16)


@functools.cache
def _wheel(step: int = 1) -> np.ndarray:
    """Words of the wheel's prime powers for one period, n = 0 .. 360359; with
    step 2 only its odd n = 1, 3, .., 360359, a period of 180180 words, where
    an odd q strikes the odd multiples of q: index (q - 1) / 2, then every q-th."""
    wheel = np.zeros(_WHEEL_PERIOD // step, dtype=np.uint16)
    for p in _WHEEL_PRIMES[step - 1 :]:  # step 2 drops the powers of 2
        q, k = p, 1
        while _WHEEL_PERIOD % q == 0:
            wheel[(q - 1) // 2 if step == 2 else 0 :: q] += _log_words(np.array([p]), k)[0]
            q, k = q * p, k + 1
    wheel.flags.writeable = False
    return wheel


def _prime_powers(hi: int, base_primes: np.ndarray, step: int) -> tuple[np.ndarray, np.ndarray]:
    """Prime powers q < hi of the primes p <= sqrt(hi - 1) that the wheel does
    not cover, with the word each adds; at step 2 without the powers of 2."""
    primes = base_primes[: np.searchsorted(base_primes, math.isqrt(hi - 1), side="right")]
    primes = primes[primes > 2] if step == 2 else primes
    primes = primes.astype(np.int64)
    powers, words = [primes], [_log_words(primes, 1)]
    q = primes
    while len(q):  # q * p < hi holds for a prefix, since the primes ascend
        p = primes[: len(q)]
        q = (q * p)[q <= (hi - 1) // p]
        powers.append(q)
        words.append(_log_words(p[: len(q)], len(powers)))
    powers, words = np.concatenate(powers), np.concatenate(words)
    live = _WHEEL_PERIOD % powers != 0
    return powers[live], words[live]


class _Plan:
    """The prime powers of a count laid out for blocks of at most `words` words,
    with the buffers such a block is sieved in; built once per count.

    A power with at least _SCATTER_HITS multiples in `words` indices is struck by
    one strided add.  Every other power owns a run of entries, one per multiple
    it can have among `words` indices: adds holds the run's word, steps its q.
    A block writes each run's first index, less the previous run's last one, to
    the run's head (heads), and a cumulative sum in place then gives every index
    (np.take would need the run numbers as intp, a temporary of 8 bytes per
    entry).  Indices past the block's end are clamped to its slack word n.
    block (words + 1 uint16 words, slack included) and at are overwritten by
    every block, so one plan serves one process at a time: forked workers each
    write their own copy.
    """

    def __init__(self, powers: tuple[np.ndarray, np.ndarray], words: int):
        q, adds = powers
        many = q * _SCATTER_HITS <= words
        self.words = words
        self.powers = np.concatenate([q[many], q[~many]])  # strided first
        self.strided = list(zip(q[many].tolist(), adds[many]))
        q = q[~many]
        hits = (words - 1) // q + 1  # each q has at most this many multiples in `words`
        self.heads = np.cumsum(hits) - hits
        self.spans = (hits - 1) * q  # from a run's first index to its last
        # int32 throughout: indices stay below 2 words; the q above words sit only
        # at heads, which every block overwrites
        self.steps = np.repeat(np.minimum(q, words).astype(np.int32), hits)
        self.adds = np.repeat(adds[~many], hits)
        self.at = np.empty(len(self.steps), dtype=np.int32)
        self.block = np.empty(words + 1, dtype=np.uint16)


def _omega_block(
    lo: int, hi: int, base_primes: np.ndarray, step: int = 1,
    powers: tuple[np.ndarray, np.ndarray] | _Plan | None = None,
    *, out: np.ndarray | None = None,
) -> np.ndarray:
    """Omega(n) for n in [lo, hi) given primes covering sqrt(hi - 1).

    With step 2, lo is odd and only the odd n of [lo, hi) are sieved: index i
    stands for n = lo + 2i.  The wheel is then its odd half, the powers of 2
    are dropped, and an odd q strikes every q-th index from the i with
    lo + 2i = 0 (mod q), that is ((-lo) % q) * ((q + 1) // 2) % q, computed as
    half the first even offset (-lo) % q or (-lo) % q + q, which stays in int64.
    powers, if given, is _prime_powers(h, primes, step) for any h >= hi and
    primes covering sqrt(h - 1), built once for many blocks, or a _Plan of them
    for blocks of at least this one's length, whose buffers the block is then
    sieved in.  Its extra powers strike nothing below hi, or move a prime above
    sqrt(hi - 1) from c into m below, which leaves c 1 or one prime as the
    proof needs.  out, if given, receives the result: a uint8 array, or view
    (a reversed one, say), of one element per word.

    Each n has one uint16 word 1024 Omega(m) - S, for the part m of n found
    so far and its log sum S at scale 32.  The k-th power of p adds
    1024 - (round(32 k log p) - round(32 (k - 1) log p)), so p^e | m adds
    round(32 e log p) to S in all: the rounding error is at most 1/64 per
    distinct prime of m, not per factor.  Every prime power of a prime
    p <= sqrt(hi - 1) is counted (the wheel's primes above sqrt(hi - 1) have
    no square below hi), so n = m * c with c either 1 or one prime above
    sqrt(hi - 1).  Below 1e10 + 7 < 2**34, n has at most ten distinct primes
    (2 * 3 * .. * 31 > 2e11) and Omega(m) <= 33, so S / 32 = log m + e with
    |e| <= 10/64 < 0.157 and S <= 32 log n + 5 < 743 < 1024.  Each add lies in
    (0, 1024), so a word only grows, and it stays below
    33 * 1024 + 1023 + 729 < 2**16 through the test below.  The indices are
    cut into chunks whose n lie in [a, b) with b <= 1.25 a, and c is taken to
    be prime exactly when S < T = floor(32 (log a - 1/4)):
    if c = 1, S / 32 >= log a - 0.157 > log a - 1/4; if c >= 2,
    S / 32 <= log n - log 2 + 0.157 < log a + 0.224 - 0.693 + 0.157, which is
    below log a - 1/4 - 1/32.  So the test is exact.  Adding 1023 + T to a
    word carries into its Omega field exactly when S < T (14 <= T < 729), and
    the shift by 10 then leaves Omega(n).
    """
    n = (hi - lo + step - 1) // step  # words
    out = np.empty(n, dtype=np.uint8) if out is None else out
    if n == 0:
        return out
    plan = powers if isinstance(powers, _Plan) else _Plan(
        _prime_powers(hi, base_primes, step) if powers is None else powers, n)
    if n > plan.words:
        raise ValueError(f"a block of {n} words needs a plan for at least {n}, not {plan.words}")
    words = plan.block[: n + 1]  # words[n] is the slack word
    wheel, period = _wheel(step), _WHEEL_PERIOD // step
    pos, phase = 0, (lo % _WHEEL_PERIOD) // step
    while pos < n:
        take = min(period - phase, n - pos)
        words[pos : pos + take] = wheel[phase : phase + take]
        pos, phase = pos + take, 0

    starts = (-lo) % plan.powers
    if step == 2:  # lo + starts is even when starts is odd; the next multiple is odd
        starts = (starts + plan.powers * (starts & 1)) >> 1
    for (q, add), start in zip(plan.strided, starts[: len(plan.strided)].tolist()):
        strike = words[start::q]
        strike += add  # in place on the view, with a uint16 scalar: no copy back, no cast
    if len(plan.at):
        # every multiple first + k q of the scattered powers, in int32
        first = np.minimum(starts[len(plan.strided) :], n)
        at = plan.at
        at[:] = plan.steps
        at[plan.heads[1:]] = first[1:] - (first[:-1] + plan.spans[:-1])
        at[0] = first[0]
        np.cumsum(at, dtype=np.int32, out=at)
        np.minimum(at, n, out=at)
        np.add.at(words, at, plan.adds)  # two powers may share a multiple

    i = 0
    while i < n:
        a = lo + step * i
        j = min(n, i + max(a // (4 * step), 1))  # the chunk's n stay below 1.25 a
        words[i:j] += (1 << _OMEGA_SHIFT) - 1 + math.floor((math.log(a) - 0.25) * _LOG_SCALE)
        i = j
    return np.right_shift(words[:n], _OMEGA_SHIFT, out=out, casting="unsafe")  # Omega(n) <= 34


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
    """The kind's named parameters from positional values, each in [1, 33]:
    Omega(n) <= 33 for every n < 2^34, so a larger bound counts the same."""
    if kind not in KINDS:
        raise DomainError(f"unknown kind {kind!r}; expected one of {', '.join(KINDS)}")
    names = KINDS[kind].params
    if len(values) != len(names):
        raise DomainError(f"{kind} takes parameters {' '.join(names)}")
    params = {name: int(value) for name, value in zip(names, values)}
    for name, value in params.items():
        if value < 1:
            raise DomainError(f"{name} must be >= 1, got {value}")
        if value > _MAX_OMEGA:
            raise DomainError(f"{name} must be <= {_MAX_OMEGA}, got {value}")
    return params


# ---------------------------------------------------------------------------
# The streaming kernel
# ---------------------------------------------------------------------------


def _hits(mask: np.ndarray, tmp: np.ndarray, om: np.ndarray, at: int, head: int,
          offsets: tuple[tuple[int, int], ...]) -> np.ndarray:
    """mask[i] = om[at + i] <= head and om[at + i + off] <= bound for each
    (off, bound), over len(mask) indices, written in place with tmp as scratch."""
    span = len(mask)
    np.less_equal(om[at : at + span], head, out=mask)
    for off, bound in offsets:
        mask &= np.less_equal(om[at + off : at + off + span], bound, out=tmp)
    return mask


def _unit_sum(work: Callable[[tuple[int, int]], np.ndarray], units: Sequence[tuple[int, int]],
              length: int) -> np.ndarray:
    """The sum of work(unit) over units, each an int64 array of that length."""
    total = np.zeros(length, dtype=np.int64)
    for unit in units:
        total += work(unit)
    return total


def _fork_worker(work: Callable[[tuple[int, int]], np.ndarray],
                 units: Sequence[tuple[int, int]], length: int) -> tuple[int, BinaryIO]:
    """Fork a child that writes _unit_sum(work, units, length) to a pipe and
    leaves by os._exit, 0 only after a complete write; its pid and the pipe."""
    read, write = os.pipe()
    try:
        with warnings.catch_warnings():
            # NumPy's BLAS keeps idle threads from import, so Python 3.12+ warns at
            # every fork.  The child runs only kernel array code on its own buffers,
            # then writes its pipe and calls os._exit: no lock of another thread is
            # taken.
            warnings.filterwarnings(
                "ignore", r"This process .* is multi-threaded, use of fork\(\)", DeprecationWarning
            )
            pid = os.fork()
    except BaseException:
        os.close(read)
        os.close(write)
        raise
    if pid == 0:  # the child never returns into the caller's stack
        status = 1
        try:
            os.close(read)
            data = memoryview(_unit_sum(work, units, length)).cast("B")
            while data:
                data = data[os.write(write, data):]
            status = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(status)
    os.close(write)
    return pid, open(read, "rb")


def _forked_sum(work: Callable[[tuple[int, int]], np.ndarray],
                units: Sequence[tuple[int, int]], workers: int, length: int) -> np.ndarray:
    """_unit_sum over units on workers forked processes: worker k takes units[k::workers].

    The caller only coordinates: it forks every worker, then reads each one's
    partial sum and reaps it, and sieves nothing itself, so no set of segment
    buffers is faulted in beside the code pages only it has mapped.  A worker
    that exits non-zero, dies by a signal or sends short data raises
    RuntimeError; on any exception the workers left are killed and reaped.
    """
    children: dict[int, BinaryIO] = {}  # pid -> its pipe
    try:
        for k in range(workers):
            pid, pipe = _fork_worker(work, units[k::workers], length)
            children[pid] = pipe
        total = np.zeros(length, dtype=np.int64)
        for pid, pipe in list(children.items()):
            data = pipe.read()  # to the end: the worker has exited or closed its end
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[pid]
            pipe.close()
            if status != 0 or len(data) != total.nbytes:
                raise RuntimeError(
                    f"sieve worker {pid} exited with status {status} "
                    f"after sending {len(data)} of {total.nbytes} bytes"
                )
            total += np.frombuffer(data, dtype=np.int64)
        return total
    finally:
        for pid, pipe in children.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _trial_omega(n: int, primes: np.ndarray) -> int:
    """Omega(n) by trial division, for ascending primes covering sqrt(n)."""
    omega = 0
    for p in primes.tolist():
        if p * p > n:
            break
        while n % p == 0:
            n, omega = n // p, omega + 1
    return omega + (n > 1)


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
    and 6 are index offsets 1 and 3) and check p = 2 on its own by trial
    division.  Mirrored units walk only lo <= N/2: each also sieves
    [N - hi + 1, N - lo + 1) into a reversed buffer, which read forwards from
    the pad on is Omega(N - n) for the unit's n, and counts both the n and their
    partners N - n from the pair; the unit ends just past an n, so with step 2
    both segments start on an odd n.
    A count builds one _Plan and one set of buffers, sized by its longest unit,
    so memory is O(segment) per worker for every kind and a unit allocates
    nothing of that size.  Unit counts are added as integers, so the result does
    not depend on the worker count.
    """
    size = int(marks[-1])
    limit = size if mirror is None else size // 2
    pad = max((off for off, _ in forward), default=0)
    base_primes = primes_up_to(math.isqrt(size + pad))
    marks = np.asarray(marks, dtype=np.int64)
    step, head = (2, 1) if head is None else (1, head)
    strided = tuple((off // step, bound) for off, bound in forward)
    padw = pad // step  # words past a unit's span: its block has span + padw words
    first = 2 if step == 1 else 3
    units = [(lo, min(SEGMENT_SIZE, (limit - lo) // step + 1))
             for lo in range(first, limit + 1, step * SEGMENT_SIZE)]
    # one plan and one set of buffers serve every unit; only the workers write
    # them, after any fork, so each worker faults its own copy in once
    width = max((span for _, span in units), default=0) + padw
    plan = _Plan(_prime_powers(size + pad + 1, base_primes, step), width)
    own = np.empty(width, dtype=np.uint8)
    rev = np.empty(width, dtype=np.uint8) if mirror is not None else None
    # the masks live in the plan's word buffer, so they start only once every
    # block of a unit is sieved: 2 (width + 1) bytes hold two spans
    masks = plan.block.view(np.bool_)

    def work(unit: tuple[int, int]) -> np.ndarray:
        lo, span = unit
        hi = lo + step * (span - 1) + 1  # just past the unit's last n
        n = span + padw
        lower = _omega_block(lo, hi + pad, base_primes, step, plan, out=own[:n])
        if mirror is None:
            mask = _hits(masks[:span], masks[span : 2 * span], lower, 0, head, strided)
            if np.any((marks >= lo) & (marks < hi - 1)):  # a mark inside the unit
                return np.searchsorted(lo + step * np.nonzero(mask)[0], marks, side="right")
            return np.where(marks >= hi - 1, np.count_nonzero(mask), 0)
        # upper[k] is Omega(N - lo - step (k - padw)): upper[padw + i] pairs with lower[i]
        upper = _omega_block(size - hi + 1, size - lo + 1 + pad, base_primes, step, plan,
                             out=rev[:n][::-1])[::-1]
        mask, tmp = masks[:span], masks[span : 2 * span]
        _hits(mask, tmp, lower, 0, head, strided)
        mask &= np.less_equal(upper[padw : padw + span], mirror, out=tmp)
        count = np.count_nonzero(mask)
        # the partners N - n: their offsets n + off are N - n - off, padw - off words back
        _hits(mask, tmp, upper, padw, head, tuple((-off, bound) for off, bound in strided))
        mask &= np.less_equal(lower[:span], mirror, out=tmp)
        if 2 * (hi - 1) == size:  # n = N/2 is its own partner: counted in the lower half only
            mask[-1] = False
        return np.array([count + np.count_nonzero(mask)])

    workers = min(thread_count(), len(units), os.cpu_count() or 1)
    if workers > 1 and hasattr(os, "fork"):
        counts = _forked_sum(work, units, workers, len(marks))
    else:
        counts = _unit_sum(work, units, len(marks))
    if step == 2 and size >= 2:  # the even prime; base_primes covers sqrt(size + pad)
        two = all(_trial_omega(2 + off, base_primes) <= bound for off, bound in forward)
        if mirror is not None:
            two = two and _trial_omega(size - 2, base_primes) <= mirror
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
