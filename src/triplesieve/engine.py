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
only coordinates: it builds the count's prime table (pure Python, 8 bytes a
prime), forks every worker, which inherits it, and adds their sums as Python
ints.  It sieves nothing, so its own pages never sit in one process with a set
of segment buffers.  With one worker, or where os.fork is missing, a count runs
serially in the calling process.  Every process that sieves builds its count's
kernel once and sieves every segment it takes in one set of buffers sized by
the count's largest segment, so a segment allocates nothing of its own size:
each worker faults its buffers in once, not once per segment.  The process that
takes the first unit also checks the few heads no block holds by trial division.

All five counting kinds are rows of data in KINDS, bounds and main term alike,
and run on one of two block sieves, picked by the bounds.  A count with a bound
of 3 or more sieves Omega (_sieve_count, on a _Plan: int64 base primes, prime
powers and scatter plan) and reduces to masks over aligned reads of a segment:
the triple count of primes p <= x with Omega(p+2) <= a and Omega(p+6) <= b
reads three.  It sieves only the residue classes mod M, for a squarefree M in
{1, 2, 6, 30} dividing the wheel period, that its bounds admit.  A position
v = n + off (or N - n) in class c holds g = gcd(c, M), and v > g gives
Omega(v) >= omega(g) + 1, g being squarefree: so a class whose omega(g) reaches
a position's bound (1 for a prime head) holds no counted n past the small ones,
whose positions may equal g and are checked by trial division.  A block of step
M holds one class, one value per n = c + M i, and copies in that class's slice
of the wheel.  Every sieved class is coprime to M, so M's primes divide none of
its n and every other prime power q strikes every q-th index, and each block
computes its start indices from its own first n.  A modulus is a candidate only
when every class its bounds leave to sieve is coprime to it, which M = 1 always
is; of the candidates, the modulus of the least cost wins, counting each class
block's fixed cost as well as its words (_classes).  So the prime-headed counts
whose bounds exclude little stay odd-only (M = 2), and D_sr whose head is any
n keeps every integer (M = 1), as does sieve_omega.  The mirrored kinds (N - p
almost-prime) pair each unit below N/2 with its mirror above, class by class,
so memory stays bounded by the segment size, not by N.  The mirror's blocks run
descending, so every mask of a pair reads its blocks forwards (a
negative-stride compare of 2^20 bytes runs ~13x slower).  SEGMENT_SIZE counts
the values of a unit, shared by its k classes.  At 2^19 an Omega worker's
buffers take 0.5 MiB of Omega arrays, 1 MiB for a mirrored count, and the
plan's word block of one class, 1 MiB / k.  The scatter's entries in the plan
take 0.54 / 1.16 / 1.77 MiB near 1e8 / 1e9 / 1e10 at k = 1, 0.34 / 0.49 /
0.69 MiB at k = 5, and its per-power arrays 0.07 / 0.21 / 0.59 MiB more.

When every bound is 1 or 2 (pi_1ab, D_1ab and D_sr up to (2, 2), pi_1r and
D_1r up to 2) a count sieves tuples, as in the prime k-tuple sieve of Hardy and
Littlewood (_tuple_count, on a _TupleSieve; no numpy).  Its unit is one
bytearray block of up to SEGMENT_SIZE heads n = c (mod M) of one admitted class
c, a byte per head, in which each base prime p not dividing M strikes every
position of the pattern by slices: n, each n + off and, mirrored, N - n, a
descending row.  At bound 1 a position must be prime, and p zeroes the heads
whose value it divides, the value p itself spared.  At bound 2 a position owns
one bit of the byte and counts events, each translating the bytes it strikes
(bit clear -> set, set -> 0): p | v with p^2 <= v, p^2 | v with v != p^2, and
g | v and g^2 | v with v != g^2 for the prime g of M that divides the row's
class, if one does, the first preset in the byte.  Omega(v) <= 2 exactly when
v has at most one event (the proof is in _TupleSieve).  A class is admitted
when each of its positions has fewer primes of M than its bound, and the heads
of the others that can count, whose position equals a prime of M or, at bound
2, a product of two, are checked by trial division.  So a mirrored count walks
every head in [2, N - 2], or to N/2 when n and N - n trade places (D_sr s s,
D_1r 1), and pairs nothing, and the hits are the nonzero bytes between cuts.  A
block's fixed cost is its strikes, the positions times the base primes, so M is
the primorial dividing the wheel period (1 to 30030) of the least cost
(_tuple_classes): for a prime triple M = 30 near 1e6 and 210 near 1e8 (8
classes; 15 for the twins), and 2310 near 1e10; for D_1ab 2 2, M = 6 near 1e6,
210 near 1e8 (28 to 38 classes, by N mod 3, 5 and 7) and 2310 near 1e9.  A
tuple worker's traced memory is w + 2 ceil(w / p0) + 8 P bytes when every bound
is 1, for blocks of w heads, P base primes not dividing M and p0 the least of
them: the block, which fills itself by doubling copies, the zero run a strike
copies and that copy, and an int64 inverse of M per base prime (0.57 MB near
1e8).  With a bound of 2 it is w + 3 ceil(w / p0) + 8 (P + Q): a translate
strike holds the slice it gathers and its translation beside the zero run (g's
run in pieces of at most ceil(w / p0)), and the Q base primes up to the cube
root of the largest value keep an inverse of M mod their squares.

This module imports no numpy, nor the quadrature, the sieve curves or the
pipeline.  An Omega count imports numpy in the caller before its first fork,
so that every worker shares its pages, or in the one process that sieves; a
count whose bounds are all 1 or 2 never loads it.  The Euler products of
constants load with the first predictor that names one (D_1ab's names none), and
``import triplesieve`` itself loads none of them until a public name is used.
A forked count's peak RSS is its caller's: os.wait4 reports the largest
process of the tree, and a worker faults in only the file-backed pages it runs
on.  So every page the caller touches past its imports counts.  It loads the
modules a count needs and no more, and past them runs pure Python: the prime
table, the unit list, the fork, the int sums and the predictor, whose constants
are scalar math.  The failure paths import their own: traceback in a worker
that raises, and signal in the caller's kill of the workers left.
"""

from __future__ import annotations

import bisect
import functools
import math
import os
import warnings
from itertools import accumulate
from typing import BinaryIO, Callable, Iterable, NamedTuple, Sequence

from .errors import CapacityError, DomainError
from .primes import primes_up_to

# Omega words per streaming unit, split evenly over the classes it sieves, and
# the most heads of a tuple count's block, read at each count.  Swept, when
# every count ran on Omega, over 2^18, 2^19 and 2^20 words of one class with
# perfbench/run.py (2 vCPUs, six 20 s runs each, medians): peak_rss_mb 33.47 /
# 34.91 / 36.61 MB on count_mirror and 34.49 / 34.55 / 35.56 MB on
# count_forward, wall_s 136 / 134 / 135 ms and 146 / 130 / 133 ms.  2^19 halves
# a worker's buffers at no cost the harness can see; one worker's odd blocks
# near 1e10 run ~490 Mword/s against ~520 at 2^20 and 300-400 at 2^18.
# CHANGES.md has the sweep.
SEGMENT_SIZE = 1 << 19
SEGMENT_CAP = 1 << 24  # largest range sieve_omega hands out at once
MAX_SIEVE_BOUND = 10**10


class OmegaSegment:
    """Exact Omega values for the half-open integer range [base, base + len)."""

    __slots__ = ("base", "omegas")

    def __init__(self, base: int, omegas: np.ndarray):
        self.base, self.omegas = base, omegas

    def omega(self, n: int) -> int:
        if not self.base <= n < self.base + len(self.omegas):
            raise DomainError(f"{n} outside segment [{self.base}, {self.base + len(self.omegas)})")
        return int(self.omegas[n - self.base])


class TripleCountResult:
    """One counting query with its main-term prediction."""

    __slots__ = ("kind", "size", "params", "count", "predicted")

    def __init__(self, kind: str, size: int, params: dict, count: int, predicted: float):
        self.kind, self.size, self.params = kind, size, params
        self.count, self.predicted = count, predicted

    def __repr__(self) -> str:
        return (f"TripleCountResult({self.kind!r}, {self.size}, {self.params}, "
                f"{self.count}, {self.predicted!r})")

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
# what one Omega class block costs beyond its words, in words.  Fitted to
# 2-worker Omega counts near 1e8 (2 vCPUs), each forced onto M = 2, 6 and 30:
# pi_1ab (1,1), pi_1r 1, 2 and 33.  An Omega block's fixed cost (its powers'
# start indices, the strided calls and one scatter entry per power) is
# ~50-60 us near 1e8, against ~1.4 ns a word; near 1e10 it is ~3x that, so
# there the rule leans to more classes than it should.
_CLASS_BLOCK_COST = 36_000
_MODULI = (1, 2, 6, 30)  # the class moduli: squarefree, each dividing the next and the wheel period
# the moduli of a tuple count: the primorials that divide the wheel period
_TUPLE_MODULI = (1, 2, 6, 30, 210, 2310, 30030)
# what one base prime's strikes of a tuple block cost, in heads of the block.
# Fitted to one-worker pi_1ab 1 1 counts at 99750000 in process (2 vCPUs),
# forced onto M = 30, 210, 2310 and 30030: 50 / 30 / 89 / 624 ms, so ~0.76 us
# a base prime and block for its three rows, against ~5.2 ns a head
_STRIKE_COST = 150


def _log_words(p: np.ndarray, k: int) -> np.ndarray:
    """The word the k-th power of each p adds: 1 << 10 minus the step
    round(32 k log p) - round(32 (k - 1) log p), so that p, p^2, .., p^e add
    round(32 e log p) to the log sum in all."""
    import numpy as np

    scaled = np.log(p) * _LOG_SCALE
    step = np.rint(k * scaled) - np.rint((k - 1) * scaled)
    return ((1 << _OMEGA_SHIFT) - step).astype(np.uint16)


@functools.cache
def _wheel(modulus: int, residue: int) -> np.ndarray:
    """Words of the wheel's prime powers for one period of the class
    n = residue (mod modulus), residue coprime to a modulus dividing 360360:
    index j stands for n = residue + modulus j, a period of 360360 / modulus
    words.  The powers of the modulus' primes divide no n of the class, and
    every other power q strikes every q-th index from -residue / modulus
    (mod q), as in _omega_block."""
    import numpy as np

    wheel = np.zeros(_WHEEL_PERIOD // modulus, dtype=np.uint16)
    for p in [p for p in _WHEEL_PRIMES if modulus % p]:
        q, k = p, 1
        while _WHEEL_PERIOD % q == 0:
            wheel[-residue * pow(modulus, -1, q) % q :: q] += _log_words(np.array([p]), k)[0]
            q, k = q * p, k + 1
    wheel.flags.writeable = False
    return wheel


class _Plan:
    """The prime powers q < hi of the primes p <= sqrt(hi - 1) that neither the
    wheel nor M covers, each with its word, laid out for blocks of at most
    `words` words of one class n = lo (mod M), M the step and lo coprime to it,
    with the buffers such a block is sieved in; built once in each process that
    sieves a count, never in a caller that forks.  One plan serves every class
    of its step.  The powers of M's primes divide no n of such a class, so the
    plan drops M's primes before it builds powers.

    In a block of step M, index i stands for n = lo + M i.  Every power q left
    is coprime to M and strikes every q-th index from the first i with
    M i = -lo (mod q): i = (t + q j) / M for t = (-lo) mod q and the j < M with
    t + q j = 0 (mod M), that is j = t u mod M with u = -q^-1 (mod M) kept per
    power (inverse); each term stays below 30 q, so int64 holds it.

    A coprime power with at least _SCATTER_HITS multiples in `words` indices is
    struck by one strided add.  Every other power owns a run of entries, one per
    multiple it can have among `words` indices: adds holds the run's word, steps
    its q.  A block writes each run's first index, less the previous run's last
    one, to the run's head (heads), and a cumulative sum in place then gives
    every index (np.take would need the run numbers as intp, a temporary of 8
    bytes per entry).  Indices past the block's end are clamped to its slack
    word n.  block (words + 1 uint16 words, slack included) and at are
    overwritten by every block, so one plan serves one process at a time.
    """

    def __init__(self, hi: int, base_primes: Sequence[int], step: int, words: int):
        import numpy as np

        primes = np.array(base_primes[: bisect.bisect_right(base_primes, math.isqrt(hi - 1))],
                          dtype=np.int64)
        primes = primes[step % primes != 0]
        powers, adds = [primes], [_log_words(primes, 1)]
        q = primes
        while len(q):  # q * p < hi holds for a prefix, since the primes ascend
            p = primes[: len(q)]
            q = (q * p)[q <= (hi - 1) // p]
            powers.append(q)
            adds.append(_log_words(p[: len(q)], len(powers)))
        q, adds = np.concatenate(powers), np.concatenate(adds)
        live = _WHEEL_PERIOD % q != 0
        q, adds = q[live], adds[live]
        self.step, self.words = step, words
        many = q * _SCATTER_HITS <= words
        self.powers = np.concatenate([q[many], q[~many]])  # strided first
        self.inverse = np.array([-pow(r, -1, step) % step if math.gcd(r, step) == 1 else 0
                                 for r in range(step)])[self.powers % step]
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


def _omega_block(lo: int, hi: int, plan: _Plan, *, out: np.ndarray | None = None) -> np.ndarray:
    """Omega(n) for the n = lo (mod M) in [lo, hi), M the plan's step: index i
    stands for n = lo + M i.  lo must be coprime to M (ValueError otherwise):
    the plan holds no power of M's primes, so a class that shares one would
    read wrong values.  The block is sieved in the buffers of a plan built
    for some h >= hi, primes covering sqrt(h - 1), and at least its words.  The
    wheel is the class of lo's words of the full wheel, and each of the plan's
    powers strikes from its first index (see _Plan).  The plan's powers above hi
    strike nothing below hi, or move a prime above sqrt(hi - 1) from c into m
    below, which leaves c 1 or one prime as the proof needs.  out, if given,
    receives the result: a uint8 array, or view (a reversed one, say), of one
    element per word.

    Each n has one uint16 word 1024 Omega(m) - S, for the part m of n found
    so far and its log sum S at scale 32.  The k-th power of p adds
    1024 - (round(32 k log p) - round(32 (k - 1) log p)), so p^e | m adds
    round(32 e log p) to S in all: the rounding error is at most 1/64 per
    distinct prime of m, not per factor.  Every prime power of a prime
    p <= sqrt(hi - 1) is counted (the wheel's primes above sqrt(hi - 1) have
    no square below hi), so n = m * c with c either 1 or one prime above
    sqrt(hi - 1).  Below 1e10 + 67 < 2**34, n has at most ten distinct primes
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
    import numpy as np

    step = plan.step
    if math.gcd(lo, step) > 1:
        raise ValueError(f"a block of step {step} needs a class coprime to it, not {lo} mod {step}")
    n = (hi - lo + step - 1) // step  # words
    out = np.empty(n, dtype=np.uint8) if out is None else out
    if n == 0:
        return out
    if n > plan.words:
        raise ValueError(f"a block of {n} words needs a plan for at least {n}, not {plan.words}")
    words = plan.block[: n + 1]  # words[n] is the slack word
    wheel = _wheel(step, lo % step)
    pos, phase = 0, (lo % _WHEEL_PERIOD) // step
    while pos < n:
        take = min(len(wheel) - phase, n - pos)
        words[pos : pos + take] = wheel[phase : phase + take]
        pos, phase = pos + take, 0

    starts = t = (-lo) % plan.powers
    if step > 1:  # (t + q j) / M; at M = 1 it is t itself
        starts = t * plan.inverse
        starts -= starts // step * step  # j; % by a scalar runs ~3x slower than //
        starts *= plan.powers
        starts += t
        starts //= step
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
    plan = _Plan(hi, primes_up_to(math.isqrt(max(hi - 1, 2))), 1, hi - lo)
    return OmegaSegment(lo, _omega_block(lo, hi, plan))


# ---------------------------------------------------------------------------
# Counting kinds
# ---------------------------------------------------------------------------


class CountKind(NamedTuple):
    """What one counting kind counts, and its main term C x / log^h x (log log x)^e.

    An integer n >= 2 is counted when Omega(n) <= head (none: n is prime) and
    Omega(n + offset) <= bound for each forward (offset, bound); bounds name
    parameters.  A forward kind counts n <= x.  A mirrored kind counts
    n <= N - 2 that also have Omega(N - n) <= mirror, for even N >= min_size.
    """

    params: tuple[str, ...]
    min_size: int
    head: str | None
    forward: tuple[tuple[int, str], ...]
    mirror: str | None
    constant: str | None  # C: "C3", "C2", "CN" for C(N), or none for 1
    log_power: int  # h
    loglog: tuple[str, ...]  # e: the sum of these parameters less shift, floored at 0
    shift: int


KINDS = {
    "pi_1ab": CountKind(("a", "b"), 0, None, ((2, "a"), (6, "b")), None, "C3", 3, ("a",), 2),
    "D_1ab": CountKind(("a", "b"), 8, None, ((6, "b"),), "a", None, 3, ("a",), 2),
    "pi_1r": CountKind(("r",), 0, None, ((2, "r"),), None, "C2", 2, ("r",), 2),
    "D_1r": CountKind(("r",), 4, None, (), "r", "CN", 2, ("r",), 2),
    "D_sr": CountKind(("s", "r"), 4, "s", (), "r", "CN", 2, ("s", "r"), 3),
}


def _predicted(spec: CountKind, size: int, params: dict[str, int]) -> float:
    """The kind's main term at size, 0.0 below 5.  The constants module loads
    with the first predictor that names a constant: a D_1ab count never does."""
    if size < 5:
        return 0.0
    constant = 1.0
    if spec.constant:
        from . import constants

        constant = (constants.singular_series_CN(size) if spec.constant == "CN"
                    else getattr(constants, f"constant_{spec.constant}")().value)
    exponent = max(sum(params[name] for name in spec.loglog) - spec.shift, 0)
    return constant * size / math.log(size) ** spec.log_power * math.log(math.log(size)) ** exponent


def _integer(value, name: str) -> int:
    """value as the int it equals (1e6 passes); DomainError for 1000.7, inf or nan."""
    try:
        if int(value) == value:
            return int(value)
    except (OverflowError, ValueError):  # inf, nan
        pass
    raise DomainError(f"{name} must be an integer, got {value!r}")


def kind_params(kind: str, values: Sequence[int]) -> dict[str, int]:
    """The kind's named parameters from positional values, each an integer in
    [1, 33]: Omega(n) <= 33 for every n < 2^34, so a larger bound counts the same."""
    if kind not in KINDS:
        raise DomainError(f"unknown kind {kind!r}; expected one of {', '.join(KINDS)}")
    names = KINDS[kind].params
    if len(values) != len(names):
        raise DomainError(f"{kind} takes parameters {' '.join(names)}")
    params = {name: _integer(value, name) for name, value in zip(names, values)}
    for name, value in params.items():
        if value < 1:
            raise DomainError(f"{name} must be >= 1, got {value}")
        if value > _MAX_OMEGA:
            raise DomainError(f"{name} must be <= {_MAX_OMEGA}, got {value}")
    return params


# ---------------------------------------------------------------------------
# The streaming kernel
# ---------------------------------------------------------------------------


_Work = Callable[[tuple[int, int]], list[int]]  # a unit's counts


def _unit_sum(make_work: Callable[[], _Work], units: Sequence[tuple[int, int]],
              length: int) -> memoryview:
    """The sum of work(unit) over units, each a list of that length, as an int64
    memoryview (no numpy), for one work = make_work() built here: a forked
    worker builds its own."""
    work = make_work()
    total = memoryview(bytearray(8 * length)).cast("q")
    for unit in units:
        for i, count in enumerate(work(unit)):
            total[i] += count
    return total


def _fork_worker(make_work: Callable[[], _Work],
                 units: Sequence[tuple[int, int]], length: int) -> tuple[int, BinaryIO]:
    """Fork a child that writes _unit_sum(make_work, units, length) to a pipe and
    leaves by os._exit, 0 only after a complete write; its pid and the pipe."""
    read, write = os.pipe()
    try:
        with warnings.catch_warnings():
            # NumPy's BLAS keeps idle threads from import, so Python 3.12+ warns at
            # every fork of a caller that has loaded numpy (an Omega count's does,
            # a tuple count's does not).  The child runs only kernel code on its
            # own buffers, then writes its pipe and calls os._exit: no lock of
            # another thread is taken.
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
            data = _unit_sum(make_work, units, length).cast("B")
            while data:
                data = data[os.write(write, data):]
            status = 0
        except BaseException:
            import traceback  # only a failing worker loads it

            traceback.print_exc()
        finally:
            os._exit(status)
    os.close(write)
    return pid, open(read, "rb")


def _forked_sum(make_work: Callable[[], _Work],
                units: Sequence[tuple[int, int]], workers: int, length: int) -> list[int]:
    """_unit_sum over units on workers forked processes, as ints: worker k takes
    units[k::workers].

    The caller only coordinates: it forks every worker, then reads each one's
    partial sum and reaps it, and adds the sums as ints.  It never calls
    make_work, so no kernel, set of segment buffers or kernel code page is
    faulted in beside the pages only it has mapped.  A worker that
    exits non-zero, dies by a signal or sends short data raises RuntimeError; on
    any exception the workers left are killed and reaped.
    """
    children: dict[int, BinaryIO] = {}  # pid -> its pipe
    try:
        for k in range(workers):
            pid, pipe = _fork_worker(make_work, units[k::workers], length)
            children[pid] = pipe
        total, size = [0] * length, 8 * length  # the workers send int64
        for pid, pipe in list(children.items()):
            data = pipe.read()  # to the end: the worker has exited or closed its end
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[pid]
            pipe.close()
            if status != 0 or len(data) != size:
                raise RuntimeError(
                    f"sieve worker {pid} exited with status {status} "
                    f"after sending {len(data)} of {size} bytes"
                )
            total = [a + b for a, b in zip(total, memoryview(data).cast("q"))]
        return total
    finally:
        if children:  # workers are left only when the count failed
            import signal

            for pid, pipe in children.items():
                pipe.close()
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _trial_omega(n: int, primes: Sequence[int]) -> int:
    """Omega(n) by trial division, for ascending primes covering sqrt(n)."""
    omega = 0
    for p in primes:
        if p * p > n:
            break
        while n % p == 0:
            n, omega = n // p, omega + 1
    return omega + (n > 1)


class _Classes(NamedTuple):
    """The class layout of a count: its modulus M, the residues c in 1 .. M of
    the heads n it sieves, the residues of every position they read, and the
    words per unit of each sieved class."""

    modulus: int
    heads: list[int]
    needed: list[int]
    words: int


def _classes(head: int, forward: tuple[tuple[int, int], ...], mirror: int | None,
             size: int) -> _Classes:
    """The class layout of a count: its heads' classes are those the bounds
    admit, and it sieves theirs, their offsets' and (mirrored) their partners'
    N - n.  The unit's classes share SEGMENT_SIZE words.

    A position v = n + off (or N - n) in class c holds g = gcd(c, M), and M is
    squarefree, so v > g gives Omega(v) >= omega(g) + 1: a class is admitted
    when omega(g) is below the position's bound at every position (1 for a prime
    head).  The heads with a position at or below M are not sieved (see
    _sieve_count).  A modulus is a candidate only when every class it must
    sieve is coprime to it, so that both kernels sieve coprime classes alone;
    M = 1, one class of every integer, always is, and is taken when no modulus
    of _MODULI is.  M is the candidate of the least cost per integer, the
    smaller on a tie: k/M words for k sieved classes, each class block of w
    words costing w + _CLASS_BLOCK_COST.
    """
    best = None
    for modulus in _MODULI:
        def admits(value: int, bound: int) -> bool:  # omega(gcd(value, M)) < bound
            return sum(math.gcd(value, modulus) % p == 0 for p in (2, 3, 5)) < bound

        heads = [c for c in range(1, modulus + 1)
                 if admits(c, head) and all(admits(c + off, bound) for off, bound in forward)
                 and (mirror is None or admits(size - c, mirror))]
        needed = {(c + off - 1) % modulus + 1 for c in heads for off in (0, *(off for off, _ in forward))}
        if mirror is not None:
            needed |= {(size - c - 1) % modulus + 1 for c in heads}
        if any(math.gcd(c, modulus) > 1 for c in needed):
            continue
        words = max(1, SEGMENT_SIZE // max(len(needed), 1))
        cost = len(needed) * (words + _CLASS_BLOCK_COST), modulus * words  # a fraction
        if best is None or cost[0] * best[0][1] < best[0][0] * cost[1]:
            best = cost, _Classes(modulus, heads, sorted(needed), words)
    return best[1] if best else _Classes(1, [1], [1], SEGMENT_SIZE)


class _TupleLayout(NamedTuple):
    """The class layout of a tuple count: its modulus M, the residues c in
    1 .. M of the heads n it sieves, and the heads per block."""

    modulus: int
    heads: list[int]
    width: int


def _tuple_classes(head: int, forward: tuple[tuple[int, int], ...], mirror: int | None,
                   size: int, limit: int, base_primes: int) -> _TupleLayout:
    """The layout of a count whose every bound is 1 or 2: heads n <= limit
    whose positions are n, each n + off and, mirrored, N - n, sieved by that
    many base primes.

    A head class c is admitted when each position of its n has fewer primes of
    M dividing it than its bound: none at bound 1, at most one at bound 2.  The
    residues of M's primes q are independent (Chinese remainder theorem), but a
    bound of 2 ties them, so the admitted classes are counted prime by prime of
    M, keyed by the positions that one of the primes so far divides (as bits),
    and only the winner's are listed.  A class's heads fill blocks of at most
    SEGMENT_SIZE, split evenly.  M is the modulus of _TUPLE_MODULI of the least
    cost, the smaller on a tie: over every admitted class, _STRIKE_COST heads
    per block and base prime not dividing M, and one per head.
    """
    offsets = (0, *(off for off, _ in forward))
    # the positions of bound 1, as bits: one prime of M dividing them is too many
    ones = sum(1 << j for j, bound in enumerate((head, *(b for _, b in forward), mirror)) if bound == 1)
    # per prime q of the wheel and residue r, the positions that q divides at a
    # head n = r (mod q), as bits: N - n last
    hits = {q: [sum(1 << j for j, v in enumerate([r + off for off in offsets] + [size - r] * bool(mirror))
                    if v % q == 0) for r in range(q)] for q in _WHEEL_PRIMES}
    best = None
    for modulus in _TUPLE_MODULI:
        primes = [q for q in _WHEEL_PRIMES if modulus % q == 0]
        tallies = {0: 1}  # admitted classes so far, by the positions seen
        for q in primes:
            grow: dict[int, int] = {}
            for seen, number in tallies.items():
                for hit in hits[q]:
                    if not hit & (seen | ones):
                        grow[seen | hit] = grow.get(seen | hit, 0) + number
            tallies = grow
        heads = -(-limit // modulus)  # per class, at most
        blocks = -(-heads // SEGMENT_SIZE)
        strikes = blocks * max(base_primes - len(primes), 0)
        cost = sum(tallies.values()) * (strikes * _STRIKE_COST + heads)
        if best is None or cost < best[0]:
            best = cost, modulus, primes, -(-heads // max(blocks, 1))
    _, modulus, primes, width = best
    classes, step = [(0, 0)], 1
    for q in primes:  # the c < step q that are c0 mod step and admitted mod q
        classes = [(c, seen | hit) for c0, seen in classes for c in range(c0, step * q, step)
                   if not (hit := hits[q][c % q]) & (seen | ones)]
        step *= q
    return _TupleLayout(modulus, sorted((c - 1) % modulus + 1 for c, _ in classes), max(width, 1))


@functools.cache
def _events(bit: int) -> bytes:
    """The translation table of one more event at a bound-2 row's bit: a
    counting byte (bit 0 set) without the bit gains it, one with it drops to 0,
    the head out, and 0 stays 0.  Built once in each process that sieves."""
    return bytes(x | bit if x & 1 and not x & bit else 0 for x in range(256))


def _spared(first: int, step: int, span: int, i: int, d: int, value: int) -> tuple[int, int]:
    """The strike of every d-th index from i of span in a row of values
    first + step j, as (i, stop), less the index whose value is `value`, the
    least positive multiple that the strike's indices hold: it is a row's
    first multiple when the row ascends, its last when it descends."""
    j, r = divmod(value - first, step)
    if r == 0 and 0 <= j < span:
        return (i + d, span) if j == i else (i, j)
    return i, span


class _TupleSieve:
    """The block of one class of a tuple count's heads, and the buffers it is
    sieved in; built once in each process that sieves, no numpy.

    Index i of a block stands for the head n = n0 + M i.  Each position of n is
    a row of values v0 + s i, with s = M for n and each n + off and s = -M for
    N - n, and a bound of 1 or 2; every value is at least 2 (a head 1 is
    cleared after), and top is the largest value of a row of bound 2, or 0 when
    no row has bound 2.  M is a primorial, so the base primes not
    dividing it are the table past M's own.  A head's byte is nonzero while it
    counts: it starts at 1, and no strike makes a zero byte nonzero.

    A row of bound 1 holds values coprime to M, each prime exactly when no base
    prime but itself divides it.  Each base prime p strikes the indices whose
    value it divides, i = -v0 s^-1 (mod p) and every p-th one after, by one slice
    assignment of that many zero bytes.  A value equal to p is spared: in an
    ascending row it is the first multiple of p, in a descending one the last,
    so the slice starts p later or stops before it.  Only a prime at or above a
    row's least value can be one of its values, so the others skip the check.

    The j-th row of bound 2 owns bit j + 1 of every byte, and each event below
    translates the bytes it strikes by one table: bit clear -> set, bit set ->
    0, the head out.  The events of a value v are each base prime p | v with
    p^2 <= v (by slices that start or stop where the row passes p^2), each
    p^2 | v with v != p^2 for p up to the cube root of top, the prime g of M
    that divides every value of the row, if one does (preset in the byte every
    block starts from), and g^2 | v with v != g^2.  Omega(v) <= 2 exactly when
    v has at most one event.  A prime v has none, or only g's when v = g.  A
    v = p q with p <= q has one, p's or g's: q^2 > v when q > p, and q is then
    no prime of M, since the primes below a prime of M are M's too and a class
    has at most one; v = p^2 is spared its square's event.  A v with
    Omega(v) >= 3 and least prime p has two: p's, as v >= p^3, and p^2's when
    p^2 divides v (p^3 <= v puts p within the cube root), or else that of the
    least prime q of v / p, as q^2 <= v / p, q being no prime of M as above.
    """

    def __init__(self, base_primes: Sequence[int], modulus: int, width: int, top: int):
        def inverses(primes: Sequence[int], power: int) -> memoryview:
            held = memoryview(bytearray(8 * len(primes))).cast("q")
            for i, p in enumerate(primes):
                held[i] = pow(modulus, -1, p**power)
            return held

        self.modulus = modulus
        self.primes = base_primes[sum(modulus % q == 0 for q in _WHEEL_PRIMES) :]
        self.inverses = inverses(self.primes, 1)
        self.block = bytearray(width)
        self.view = memoryview(self.block)  # the fill copies through it: a bytearray slice copies
        # the longest strike: ceil(width / p) bytes for the least prime p
        self.zero = bytearray(-(-width // self.primes[0]) if len(self.primes) else 0)
        # for the rows of bound 2: the primes up to the cube root of top, M^-1
        # mod their squares, and per row's bit the table of its events
        self.squares = self.primes[: bisect.bisect_right(self.primes, top, key=lambda p: p**3)]
        self.square_inverses = inverses(self.squares, 2)
        self.events = {bit: _events(bit) for bit in (2, 4, 8)} if top else {}

    def sieve(self, rows: Sequence[tuple[int, int, int]], span: int) -> bytearray:
        """The block of span heads, nonzero where every row (v0, s, bound) holds
        a value with at most bound prime factors."""
        block, zero, primes, inverses = self.block, self.zero, self.primes, self.inverses
        twos = [(first, step, bit) for (first, step, _), bit
                in zip([row for row in rows if row[2] == 2], self.events)]
        block[0] = 1 | sum(bit for first, _, bit in twos if math.gcd(first, self.modulus) > 1)
        filled = 1
        while filled < span:  # each copy doubles the filled bytes, so the block needs no fill buffer
            self.view[filled : min(2 * filled, span)] = self.view[: min(filled, span - filled)]
            filled *= 2
        for first, step, bound in rows:
            if bound == 2:
                continue
            start = -first if step > 0 else first  # i = start M^-1 (mod p)
            # the primes below the row's least value and at most span strike at
            # least once and are none of its values
            plain = min(bisect.bisect_left(primes, min(first, first + step * (span - 1))),
                        bisect.bisect_right(primes, span))
            for p, inverse in zip(primes[:plain], inverses[:plain]):
                i = start * inverse % p
                block[i:span:p] = zero[: (span - 1 - i) // p + 1]
            for p, inverse in zip(primes[plain:], inverses[plain:]):
                i, stop = start * inverse % p, span
                j, r = divmod(p - first, step)  # the value at j is p
                if r == 0 and 0 <= j < span:
                    if j == i:
                        i += p
                    else:
                        stop = j
                if i < stop:
                    block[i:stop:p] = zero[: (stop - 1 - i) // p + 1]
        for first, step, bit in twos:
            event = self.events[bit]
            start = -first if step > 0 else first
            least, most = sorted((first, first + step * (span - 1)))
            # the primes at most span whose square is at most the row's least
            # value count at every multiple, and those whose square passes its
            # largest at none
            plain = min(bisect.bisect_right(primes, math.isqrt(least)),
                        bisect.bisect_right(primes, span))
            reach = max(bisect.bisect_right(primes, math.isqrt(most)), plain)
            for p, inverse in zip(primes[:plain], inverses[:plain]):
                i = start * inverse % p
                block[i:span:p] = block[i:span:p].translate(event)
            if step > 0:  # the multiples at or past p^2 start at index e
                for p, inverse in zip(primes[plain:reach], inverses[plain:reach]):
                    e = -((first - p * p) // step)
                    if e < 0:
                        e = 0
                    i = e + (start * inverse - e) % p
                    if i < span:  # an empty slice of a viewed bytearray cannot be assigned
                        block[i:span:p] = block[i:span:p].translate(event)
            else:  # and stop before index stop
                for p, inverse in zip(primes[plain:reach], inverses[plain:reach]):
                    i, stop = start * inverse % p, (p * p - first) // step + 1
                    if stop > span:
                        stop = span
                    if i < stop:
                        block[i:stop:p] = block[i:stop:p].translate(event)
            for p, inverse in zip(self.squares, self.square_inverses):
                d = p * p
                i, stop = _spared(first, step, span, start * inverse % d, d, value=d)
                if i < stop:
                    block[i:stop:d] = block[i:stop:d].translate(event)
            g = math.gcd(first, self.modulus)
            if g > 1:  # g^2 | v: g | v / g = first / g + (step / g) i
                i = -(first // g) * pow(step // g, -1, g) % g
                i, stop = _spared(first, step, span, i, g, value=g * g)
                run = g * (len(zero) or span)  # in runs no longer than a prime's strike
                for i in range(i, stop, run):
                    block[i : min(stop, i + run) : g] = block[i : min(stop, i + run) : g].translate(event)
        return block


def _counted(make_work: Callable[[], _Work], units: Sequence[tuple[int, int]],
             length: int) -> list[int]:
    """_unit_sum over units, on forked workers when a count has two or more
    (thread_count, at most the CPUs and the units) and os.fork exists, else in
    this process."""
    workers = min(thread_count(), len(units), os.cpu_count() or 1)
    if workers > 1 and hasattr(os, "fork"):
        return _forked_sum(make_work, units, workers, length)
    return _unit_sum(make_work, units, length).tolist()


def _tuple_count(
    marks: Sequence[int],
    head: int,
    forward: tuple[tuple[int, int], ...],
    mirror: int | None,
) -> list[int]:
    """_sieve_count's counts for bounds that are all 1 or 2, sieved as tuples
    of positions on a _TupleSieve.

    A unit is one block of up to width heads n = lo + c + M i of one class c
    that _tuple_classes admits, lo a multiple of M from 0: every head of the
    class up to the last mark, or to N - 2, and no pairing.  A count whose
    head's bound is the mirror's and which has no offsets (D_sr s s, D_1r 1) is
    the same count with n and N - n traded, so it walks the heads up to N/2 and
    counts those below N/2 twice.  Head 1, in the first block of class 1, is
    cleared.  A head of no admitted class has a position with as many primes of
    M as its bound, which counts only if it is one such prime q at bound 1, or a
    product g h of two at bound 2: so the n = q - off, or g h - off, and
    mirrored n = N - q, or N - g h, are the only such heads that can count, and
    the process that takes the first unit checks them by trial division, or the
    caller when a count has no units.
    """
    size = marks[-1]
    halved = mirror == head and not forward
    if halved:  # the heads below N/2, and N/2
        marks = [size // 2 - 1, size // 2]
    limit = marks[-1] if mirror is None or halved else size - 2
    offsets = (0, *(off for off, _ in forward))
    pattern = tuple(zip(offsets, (head, *(bound for _, bound in forward))))
    top = size + max(offsets)  # at or past every value
    base_primes = primes_up_to(math.isqrt(top))  # no numpy: built before any fork
    modulus, heads, width = _tuple_classes(head, forward, mirror, size, limit, len(base_primes))
    units = [(lo, c) for lo in range(0, limit, modulus * width) for c in heads if lo + c <= limit]

    def rows(n: int) -> list[tuple[int, int, int]]:
        """The rows of a block whose first head is n: each position's value at
        n, its step from head to head and its bound."""
        return ([(n + off, modulus, bound) for off, bound in pattern]
                + ([] if mirror is None else [(size - n, -modulus, mirror)]))

    def small_heads() -> list[int]:
        """Per mark, the hits among the heads of no admitted class."""
        primes = [q for q in _WHEEL_PRIMES if modulus % q == 0]
        values = {1: primes, 2: [g * h for i, g in enumerate(primes) for h in primes[i + 1 :]]}
        small = {v - off for off, bound in pattern for v in values[bound]}
        small |= {size - v for v in values[mirror]} if mirror else set()
        hits = [n for n in small if 2 <= n <= limit
                and all(_trial_omega(v, base_primes) <= bound for v, _, bound in rows(n))]
        return [sum(n <= mark for n in hits) for mark in marks]

    def make_work() -> _Work:
        """work(unit) over one _TupleSieve that serves every unit this process
        takes; built in that process."""
        twos = any(bound == 2 for bound in (mirror, *(bound for _, bound in pattern)))
        sieve = _TupleSieve(base_primes, modulus, width, top if twos else 0)

        def work(unit: tuple[int, int]) -> list[int]:
            n = sum(unit)  # the block's first head
            span = min(width, (limit - n) // modulus + 1)
            block = sieve.sieve(rows(n), span)
            if n == 1:
                block[0] = 0  # 1 is no head
            cuts = [min(span, max(0, (mark - n) // modulus + 1)) for mark in marks]
            total = list(accumulate(b - a - block.count(0, a, b) for a, b in zip([0, *cuts], cuts)))
            if unit == units[0]:  # its process also counts the heads of no admitted class
                total = [a + b for a, b in zip(total, small_heads())]
            return total

        return work

    counts = _counted(make_work, units, len(marks)) if units else small_heads()
    return [sum(counts)] if halved else counts


def _sieve_count(
    marks: Sequence[int],
    head: int,
    forward: tuple[tuple[int, int], ...],
    mirror: int | None,
) -> list[int]:
    """Per mark, the n in [2, mark] with Omega(n) <= head and
    Omega(n + off) <= bound for each forward (off, bound); with a mirror bound, the
    one mark N counts the n in [2, N - 2] that also have Omega(N - n) <= mirror.

    Only the classes mod M that _classes picks are sieved.  A work unit is the
    range (lo, lo + M words] of n, lo a multiple of M: each sieved class c has
    one block, padded for the offsets, whose index i is n = lo + c + M i, so
    n + off is in class c' = c + off - M s at index i + s.  Mirrored units walk
    only n <= N/2: each also sieves, per class c of n, the partners N - n into a
    descending block, which read forwards from the pad on holds the values of the
    N - n for the class's n, and counts both the n and their partners from the pair.  The
    heads n <= M, and the N - n with n <= M, are checked on their own by trial
    division, since a position of theirs may be g itself: by the process that
    takes the first unit (lo = M), which they sit just below, or by the caller
    when a count has no units.

    This loop serves the counts with a bound of 3 or more (bounds up to 2
    sieve tuples: _tuple_count).  Each process that sieves builds one _Plan and
    one set of rows, uint8 per class and a descending block written reversed,
    so that every mask reads its rows forwards.  They are sized by the longest
    unit, so memory is O(segment) per worker for every kind and a unit
    allocates nothing of that size.  A forking caller builds none of them: it
    builds the prime table, which its workers inherit, imports numpy so that
    they share its pages, forks, then adds the workers' sums as ints, so the
    result does not depend on the worker count.
    """
    size = marks[-1]
    limit = size if mirror is None else size // 2
    pad = max((off for off, _ in forward), default=0)
    modulus, heads, needed, words = _classes(head, forward, mirror, size)
    top = size + pad + 2 * modulus  # past every n a block sieves
    base_primes = primes_up_to(math.isqrt(top - 1))  # no numpy: built before any fork
    padw = (modulus - 1 + pad) // modulus  # the largest index shift s of an offset
    units = [(lo, min(words, (limit - lo - 1) // modulus + 1))
             for lo in range(modulus, limit, modulus * words)]
    width = max((span for _, span in units), default=0) + padw

    def residue(n: int) -> int:
        return (n - 1) % modulus + 1

    def small_heads() -> list[int]:
        """Per mark, the hits among the heads with a position at or below M."""
        small = set(range(2, min(modulus, size if mirror is None else size - 2) + 1))
        if mirror is not None:
            small |= set(range(max(size - modulus, 2), size - 1))
        hits = [n for n in small if _trial_omega(n, base_primes) <= head
                and all(_trial_omega(n + off, base_primes) <= bound for off, bound in forward)
                and (mirror is None or _trial_omega(size - n, base_primes) <= mirror)]
        return [sum(n <= mark for n in hits) for mark in marks]

    def make_work() -> _Work:
        """work(unit) over one _Plan and one set of rows that serve every unit
        this process takes; built in that process, so a worker faults in only
        its own, once."""
        import numpy as np

        plan = _Plan(top, base_primes, modulus, width)
        masks = plan.block.view(np.bool_)  # 2 (width + 1) bytes hold two spans
        # per sieved class, n ascending, and per class of n, N - n descending from the pad on
        lower = dict(zip(needed, np.empty((len(needed), width), dtype=np.uint8)))
        upper = {} if mirror is None else dict(zip([residue(size - c) for c in needed],
                                                   np.empty((len(needed), width), dtype=np.uint8)))

        def read(rows: dict[int, np.ndarray], c: int, off: int, start: int = 0) -> np.ndarray:
            """The values of n + off for the n of class c, from rows."""
            d = residue(c + off)
            return rows[d][start + (c + off - d) // modulus :]

        def tally(reads: list[tuple[np.ndarray, int]], cuts: list[int]) -> list[int]:
            """Per ascending cut, the j < cut whose values are <= bound for every
            (values, bound) in reads; the masks live in the plan's word buffer,
            which a tally reads only once every block of its unit is sieved."""
            k = cuts[-1]
            mask, tmp = masks[:k], masks[k : 2 * k]
            (values, bound), *rest = reads
            np.less_equal(values[:k], bound, out=mask)
            for values, bound in rest:
                mask &= np.less_equal(values[:k], bound, out=tmp)
            return list(accumulate(int(np.count_nonzero(mask[a:b])) for a, b in zip([0, *cuts], cuts)))

        def work(unit: tuple[int, int]) -> list[int]:
            lo, span = unit
            n = span + padw

            def inside(c: int, mark: int) -> int:
                """The n <= mark of class c in this unit, as a cut of its block."""
                return min(span, max(0, (mark - lo - c) // modulus + 1))

            for c, values in lower.items():
                _omega_block(lo + c, lo + c + modulus * (n - 1) + 1, plan, out=values[:n])
            for c, values in upper.items():  # N - n at index -padw, the block written reversed
                first = size - lo - c + modulus * padw
                _omega_block(first - modulus * (n - 1), first + 1, plan, out=values[:n][::-1])
            own = [[(read(lower, c, 0), head)] + [(read(lower, c, off), bound) for off, bound in forward]
                   for c in heads]
            if mirror is None:
                total = [0] * len(marks)
                for c, reads in zip(heads, own):
                    hits = tally(reads, [inside(c, mark) for mark in marks])
                    total = [a + b for a, b in zip(total, hits)]
            else:
                count = sum(tally(reads + [(read(upper, c, 0, padw), mirror)], [inside(c, limit)])[0]
                            for c, reads in zip(heads, own))
                # the partners N - n of the n in class c: their offsets N - n + off
                # are N - (n - off)
                for c in [residue(size - h) for h in heads]:
                    k = inside(c, limit)
                    if k and 2 * (lo + c + modulus * (k - 1)) == size:
                        k -= 1  # n = N/2 is its own partner: counted in the lower half only
                    count += tally([(read(upper, c, 0, padw), head), (read(lower, c, 0), mirror)]
                               + [(read(upper, c, -off, padw), bound) for off, bound in forward],
                               [k])[0]
                total = [count]
            if lo == modulus:  # the first unit's process also counts the heads below it
                total = [a + b for a, b in zip(total, small_heads())]
            return total

        return work

    if not units:
        return small_heads()
    import numpy  # noqa: F401  (before any fork, so that every worker shares its pages)

    return _counted(make_work, units, len(marks))


# ---------------------------------------------------------------------------
# Counting operations
# ---------------------------------------------------------------------------


def _results(kind: str, params: Sequence[int], sizes: Sequence[int]) -> list[TripleCountResult]:
    named = kind_params(kind, params)
    spec = KINDS[kind]
    sizes = [_integer(size, "N" if spec.mirror else "x") for size in sizes]
    for size in sizes:
        if not spec.min_size <= size <= MAX_SIEVE_BOUND or (spec.mirror and size % 2):
            what = "an even N" if spec.mirror else "x"
            raise DomainError(
                f"{kind} needs {what} in [{spec.min_size}, {MAX_SIEVE_BOUND}], got {size}"
            )
    if not sizes:
        return []
    head = named[spec.head] if spec.head else 1  # a prime head
    forward = tuple((off, named[name]) for off, name in spec.forward)
    mirror = named[spec.mirror] if spec.mirror else None
    tuples = max(head, mirror or 1, *(bound for _, bound in forward)) <= 2
    count = functools.partial(_tuple_count if tuples else _sieve_count,
                              head=head, forward=forward, mirror=mirror)
    # a mirrored kind counts each N on its own: its positions N - n differ
    counts = count(sizes) if mirror is None else [count([N])[0] for N in sizes]
    return [TripleCountResult(kind, size, named, count, _predicted(spec, size, named))
            for size, count in zip(sizes, counts)]


def count_pi_1ab(x: int, a: int, b: int) -> TripleCountResult:
    """Primes p <= x with Omega(p+2) <= a and Omega(p+6) <= b."""
    return _results("pi_1ab", (a, b), [x])[0]


def count_D_1ab(N: int, a: int, b: int) -> TripleCountResult:
    """Primes p <= N with N - p >= 2, Omega(N-p) <= a, Omega(p+6) <= b."""
    return _results("D_1ab", (a, b), [N])[0]


def count_pi_1r(x: int, r: int) -> TripleCountResult:
    """Primes p <= x with Omega(p+2) <= r."""
    return _results("pi_1r", (r,), [x])[0]


def count_D_1r(N: int, r: int) -> TripleCountResult:
    """Primes p <= N with N - p >= 2 and Omega(N-p) <= r."""
    return _results("D_1r", (r,), [N])[0]


def count_D_sr(N: int, s: int, r: int) -> TripleCountResult:
    """Integers 2 <= n <= N - 2 with Omega(n) <= s and Omega(N-n) <= r."""
    return _results("D_sr", (s, r), [N])[0]


def ratio_scan(
    kind: str, params: Sequence[int], checkpoints: Iterable[int]
) -> list[TripleCountResult]:
    """Counts and count/predictor ratios at each checkpoint.

    A forward kind makes one sieve pass for all checkpoints; a mirrored kind
    makes one pass per checkpoint, since each N pairs different segments.
    """
    marks = list(checkpoints)
    if any(c2 <= c1 for c1, c2 in zip(marks, marks[1:])):
        raise DomainError("checkpoints must be strictly ascending")
    return _results(kind, params, marks)
