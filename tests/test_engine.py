import contextlib
import functools
import itertools
import math
import os
import signal
import subprocess
import sys
import time
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest

from triplesieve import engine
from triplesieve.engine import (
    SEGMENT_CAP,
    SEGMENT_SIZE,
    _omega_block,
    _Plan,
    TripleCountResult,
    count_D_1ab,
    count_D_1r,
    count_D_sr,
    count_pi_1ab,
    count_pi_1r,
    ratio_scan,
    sieve_omega,
    thread_count,
)
from triplesieve.errors import CapacityError, DomainError
from triplesieve.primes import primes_up_to

import oracles


# ---------------------------------------------------------------------------
# factor-counting sieve
# ---------------------------------------------------------------------------


def test_omega_spot_values():
    seg = sieve_omega(2, 200)
    assert seg.omega(12) == 3  # 2*2*3
    assert seg.omega(97) == 1
    assert seg.omega(128) == 7
    assert seg.omega(2) == 1


def test_omega_exhaustive_against_trial_division():
    limit = 100_000
    seg = sieve_omega(2, limit + 1)
    table = oracles.omega_table(limit)
    mismatches = [n for n in range(2, limit + 1) if seg.omega(n) != table[n]]
    assert mismatches == []


def test_omega_multiplicative_on_random_pairs():
    rng = np.random.default_rng(11)
    seg = sieve_omega(2, 9_000_001)
    for _ in range(200):
        m = int(rng.integers(2, 3000))
        n = int(rng.integers(2, 3000))
        assert seg.omega(m * n) == seg.omega(m) + seg.omega(n)


@pytest.mark.parametrize("base", [10**7, 10**8 + 123_456, 10**9 + 7])
def test_omega_random_windows_at_large_bases(base):
    seg = sieve_omega(base, base + 512)
    rng = np.random.default_rng(base)
    for n in rng.integers(base, base + 512, size=40):
        assert seg.omega(int(n)) == oracles.omega_trial(int(n))


def _assert_kernel_matches_oracle(lo, hi, step=1):
    base_primes = primes_up_to(math.isqrt(max(hi - 1, 2)))
    got = _omega_block(lo, hi, _Plan(hi, base_primes, step, (hi - lo + step - 1) // step))
    want = oracles.omega_block_residual(lo, hi, base_primes)[::step]
    assert got.dtype == np.uint8 and len(got) == len(want)
    mismatches = np.nonzero(got != want)[0]
    assert mismatches.size == 0, f"first mismatch at n = {lo + step * int(mismatches[0])}"


def test_kernel_matches_residual_oracle_below_1e6():
    _assert_kernel_matches_oracle(2, 10**6)


@pytest.mark.parametrize("k", [1, 2, 277])
def test_kernel_matches_residual_oracle_across_wheel_period(k):
    period = 360360  # 2^3 3^2 5 7 11 13
    _assert_kernel_matches_oracle(k * period - 5000, k * period + 5000)


@pytest.mark.parametrize("lo, hi", [
    (10**10 - 2**20, 10**10),  # the largest logs, so the least room in the log field
    # many factors whose rounded log words all err one way: the sum drifts
    # from log n by +9.6e-4 at 2^33 and by -1.8e-4 at 17^2 31^5
    (2**33 - 500, 2**33 + 500),
    (17**2 * 31**5 - 500, 17**2 * 31**5 + 500),
])
def test_kernel_matches_residual_oracle_at_log_extremes(lo, hi):
    _assert_kernel_matches_oracle(lo, hi)


# the uint16 words at their limits, at both strides (each lo is odd): the most
# distinct odd primes (3 5 .. 29) and the most distinct primes (2 3 .. 29),
# which bound the log sum's rounding error; the odd and the even n below 1e10
# whose log sum S falls furthest below 32 log n (S = 32 log n - 2.49 at
# 3^3 7 11^2 59 71 83, and - 2.79 at 2^2 3^3 7 11^2 23 59 71); the largest Omega
# of an odd n (3^20); and the seam 500001 between the leftover test's chunks
@pytest.mark.parametrize("step", [1, 2])
@pytest.mark.parametrize("lo, hi", [
    (3234846615 - 5000, 3234846615 + 5001),
    (6469693230 - 4999, 6469693230 + 5001),
    (7951254003 - 500, 7951254003 + 501),
    (8813438172 - 501, 8813438172 + 501),
    (3**20 - 5000, 3**20 + 5001),
    (400_001, 505_001),
])
def test_kernel_matches_residual_oracle_at_word_limits(lo, hi, step):
    _assert_kernel_matches_oracle(lo, hi, step)


def test_kernel_takes_the_prime_powers_of_a_larger_bound():
    # a count builds one plan, for its largest n and its longest block, for every block
    primes = primes_up_to(10**5)
    for step in (1, 2):
        plan = _Plan(10**10, primes, step, 100_002)
        for lo, hi in ((3, 1001), (999_999, 1_100_001), (10**10 - 2001, 10**10)):
            want = oracles.omega_block_residual(lo, hi, primes_up_to(math.isqrt(hi - 1)))
            got = _omega_block(lo, hi, plan)
            assert np.array_equal(got, want[::step]), (lo, step)


@pytest.mark.parametrize("step", [1, 2])
def test_kernel_rejects_a_block_longer_than_its_plan(step):
    plan = _Plan(10**6, primes_up_to(1000), step, 1000)
    _omega_block(3, 3 + 1000 * step, plan)  # as long as the plan: sieved
    with pytest.raises(ValueError, match="needs a plan for at least 1001"):
        _omega_block(3, 3 + 1001 * step, plan)


@pytest.mark.parametrize("lo, hi", [(2, 2), (2, 3), (2, 4), (2, 50), (99, 100)])
def test_kernel_matches_residual_oracle_on_tiny_ranges(lo, hi):
    _assert_kernel_matches_oracle(lo, hi)


# SEGMENT_SIZE: one full-width segment (D_sr, sieve_omega) holds that many
# integers; 2^20, twice that, is a range sieve_omega still sieves as one block
@pytest.mark.parametrize("size", [997, 4096, SEGMENT_SIZE, 1 << 20])
def test_kernel_matches_residual_oracle_per_segment_size(size):
    for lo in (2, 10**8 - size // 2):
        _assert_kernel_matches_oracle(lo, lo + size)


# the odd-only layout (M = 2): index i is n = lo + 2i, lo odd
@pytest.mark.parametrize("lo, hi", [
    *((k * 360360 - 5001, k * 360360 + 5001) for k in (1, 2, 277)),  # wheel seams k 360360 +- 1
    (10**10 - 2**20 + 1, 10**10),
    (2**33 - 499, 2**33 + 500),
    (17**2 * 31**5 - 500, 17**2 * 31**5 + 500),
    (3, 3), (3, 4), (3, 6), (99, 100),
])
def test_odd_kernel_matches_residual_oracle(lo, hi):
    _assert_kernel_matches_oracle(lo, hi, step=2)


@pytest.mark.parametrize("words", [7, 64, 1001, SEGMENT_SIZE, 1 << 20])
def test_odd_kernel_matches_residual_oracle_per_segment_size(words):
    for lo in (3, 10**8 + 1 - 2 * words):  # the second window ends at 1e8
        _assert_kernel_matches_oracle(lo, lo + 2 * words, step=2)


# the class layouts of moduli 6 and 30: index i is n = lo + M i, for every
# residue of lo coprime to M (1 and 5 mod 6, the 8 of 30); a block of any other
# residue, whose n the powers of M's primes would divide, is refused
_CLASS_WINDOWS = [
    (2, 100_000),
    *((k * 360360 - 5000, k * 360360 + 5000) for k in (1, 277)),  # wheel seams
    (10**10 - 2**20, 10**10),
    (2**33 - 500, 2**33 + 500),
    (3**20 - 5000, 3**20 + 5001),
    (6469693230 - 4999, 6469693230 + 5001),  # 2 3 5 .. 29: the most distinct primes
]


@functools.cache
def _residual_window(lo, hi):
    return oracles.omega_block_residual(lo, hi, primes_up_to(math.isqrt(hi - 1)))


@pytest.mark.parametrize("modulus, residue", [(6, r) for r in range(6)] + [(30, r) for r in range(30)])
def test_class_kernel_matches_residual_oracle(modulus, residue):
    for lo, hi in _CLASS_WINDOWS:
        start = lo + (residue - lo) % modulus
        words = (hi - start + modulus - 1) // modulus
        plan = _Plan(hi, primes_up_to(math.isqrt(hi - 1)), modulus, words)
        if math.gcd(residue, modulus) > 1:
            with pytest.raises(ValueError, match="needs a class coprime to it"):
                _omega_block(start, hi, plan)
            continue
        got = _omega_block(start, hi, plan)
        want = _residual_window(lo, hi)[start - lo :: modulus]
        mismatches = np.nonzero(got != want)[0]
        assert len(got) == len(want) and mismatches.size == 0, (
            f"first mismatch at n = {start + modulus * int(mismatches[0])}" if mismatches.size
            else (lo, hi))


def test_omega_segment_accessor_bounds():
    seg = sieve_omega(10, 20)
    with pytest.raises(DomainError):
        seg.omega(20)
    with pytest.raises(DomainError):
        seg.omega(9)


def test_sieve_omega_preconditions():
    with pytest.raises(DomainError):
        sieve_omega(1, 10)
    with pytest.raises(DomainError):
        sieve_omega(10, 9)
    with pytest.raises(DomainError):
        sieve_omega(2, 10**10 + 1)
    with pytest.raises(CapacityError):
        sieve_omega(2, 2 + SEGMENT_CAP + 1)


# ---------------------------------------------------------------------------
# counting functions vs brute force
# ---------------------------------------------------------------------------


def test_triple_counts_match_examples():
    assert count_pi_1ab(100, 1, 1).count == 4  # p in {5, 11, 17, 41}
    assert count_pi_1ab(30, 2, 2).count == 9
    assert count_pi_1ab(4, 1, 1).count == 0
    assert count_D_1ab(30, 2, 2).count == 7  # p = 29 excluded: N - p = 1
    assert count_D_1ab(8, 1, 1).count == 1
    assert count_pi_1r(20, 1).count == 4  # 3, 5, 11, 17
    assert count_D_1r(10, 2).count == 3
    assert count_D_sr(10, 1, 2).count == 3


def test_pi_counts_match_brute_force_grid():
    x = 2000
    table = oracles.omega_table(x + 6)
    for a in (1, 2, 3):
        for b in (1, 2, 3):
            brute = oracles.brute_pi_1ab(x, a, b, table)
            assert oracles.hit_positions("pi_1ab", x, a, b) == brute
    for r in (1, 2, 3):
        assert oracles.hit_positions("pi_1r", x, r) == oracles.brute_pi_1r(x, r, table)


def test_pi_1r_small_sizes_match_brute_force():
    # every head with a position at or below 30, checked apart from the classes
    table = oracles.omega_table(102)
    for r in (1, 2, 3):
        for x in range(101):
            assert count_pi_1r(x, r).count == len(oracles.brute_pi_1r(x, r, table)), (x, r)


def test_pi_1ab_small_sizes_match_brute_force():
    # the heads with a position at or below the modulus are checked apart from
    # the classes: p = 2 with Omega(4) = 2 and Omega(8) = 3, or p = 13 with
    # Omega(15) = 2, whose class 13 mod 30 a = 2 excludes
    table = oracles.omega_table(106)
    for a in (1, 2, 3):
        for b in (1, 2, 3):
            for x in range(101):
                want = len(oracles.brute_pi_1ab(x, a, b, table))
                assert count_pi_1ab(x, a, b).count == want, (x, a, b)


def test_mirrored_counts_match_brute_force():
    for N in range(8, 301, 2):
        assert count_D_1ab(N, 2, 2).count == oracles.brute_D_1ab(N, 2, 2)
    for N in (100, 222, 1000):
        assert count_D_1r(N, 2).count == oracles.brute_D_1r(N, 2)
        assert count_D_sr(N, 2, 3).count == oracles.brute_D_sr(N, 2, 3)


def test_mirrored_counts_reach_the_even_prime():
    # p = 2 is checked apart from the classes, on Omega(N - 2) and Omega(8) = 3
    for N in range(8, 301, 2):
        for a in (1, 2, 3):
            assert count_D_1ab(N, a, 3).count == oracles.brute_D_1ab(N, a, 3), (N, a)
    for N in range(4, 301, 2):
        for r in (1, 2, 3):
            assert count_D_1r(N, r).count == oracles.brute_D_1r(N, r), (N, r)


def _mirror_edge_sizes(step):
    """Even N whose N/2 is one before, on and one after the fourth segment's start:
    2 + 3 step for D_sr on every integer (M = 1), 3 + 6 step for the odd-only
    kinds (M = 2)."""
    return [2 * (edge + d) for edge in (2 + 3 * step, 3 + 6 * step) for d in (-1, 0, 1)]


@pytest.mark.parametrize("step", [7, 64, 1001])
def test_mirrored_counts_match_full_array_reference(monkeypatch, step):
    monkeypatch.setattr(engine, "SEGMENT_SIZE", step)
    sizes = _mirror_edge_sizes(step) + [8, 10]
    if step == 1001:
        sizes.append(2 * (2 + 999 * step))  # N ~ 2e6, N/2 on a segment start
    for N in sizes:
        assert count_D_1ab(N, 2, 3).count == oracles.mirrored_count("D_1ab", N, 2, 3), N
        assert count_D_1r(N, 2).count == oracles.mirrored_count("D_1r", N, 2), N
        assert count_D_sr(N, 2, 3).count == oracles.mirrored_count("D_sr", N, 2, 3), N
        assert count_D_sr(N, 3, 1).count == oracles.mirrored_count("D_sr", N, 3, 1), N


def test_bound_one_counts_match_a_sieve_of_eratosthenes():
    # the three layouts of the forward counts at 1e7: M = 30 for (1, 1) and the
    # twin primes (OEIS A007508), and (1, 2)'s
    x = 10**7
    assert count_pi_1r(x, 1).count == oracles.eratosthenes_count("pi_1r", x, 1) == 58980
    assert count_pi_1ab(x, 1, 1).count == oracles.eratosthenes_count("pi_1ab", x, 1, 1)
    assert count_pi_1ab(x, 1, 2).count == oracles.eratosthenes_count("pi_1ab", x, 1, 2)


def test_almost_prime_oracle_counts_small_sizes():
    # Landau's identity against trial division, through sizes on either side of
    # the squares of primes
    table = oracles.omega_table(1000)
    for y in (2, 3, 4, 5, 8, 9, 10, 24, 25, 26, 48, 49, 50, 120, 121, 122, 1000):
        assert oracles.almost_prime_count(y, 2) == sum(t <= 2 for t in table[2 : y + 1]), y


@pytest.mark.parametrize("N", [10**6, 10**7])
def test_almost_primes_match_landau_through_both_kernels(monkeypatch, N):
    # a lone bound-2 row sieves tuples; D_sr N 2 33 counts the same n <= N - 2 on
    # the Omega kernel, its mirror bound vacuous
    monkeypatch.setenv("TRIPLESIEVE_THREADS", "1")
    want = oracles.almost_prime_count(N - 2, 2)
    assert engine._tuple_count([N - 2], 2, (), None) == [want]
    assert count_D_sr(N, 2, 33).count == want


@pytest.mark.parametrize("N", [3 * 10**6 + d for d in (0, 2, 4, 10, 20)])
def test_mirrored_bound_one_counts_match_a_sieve_of_eratosthenes(N):
    # every residue of N mod 30 that moves the classes: D_1r 1 and D_1ab (2, 2)
    # sieve tuples on M = 30 for N = 2 or 4 (mod 30), on M = 6 for the others
    assert count_D_1r(N, 1).count == oracles.eratosthenes_count("D_1r", N, 1)
    assert count_D_1ab(N, 1, 1).count == oracles.eratosthenes_count("D_1ab", N, 1, 1)
    assert count_D_1ab(N, 2, 2).count == oracles.eratosthenes_count("D_1ab", N, 2, 2)


@functools.cache
def _shared_residues(kind, params, size):
    """The residues mod 30 of the positions (n, each n + off and N - n) of every
    n the count includes, by brute force, that share a prime with 30; only the n
    whose positions all exceed 30.  A mirrored count's layout depends on N mod 30
    alone, so it is read at an N of that residue near 2e4, and a multiple of 4:
    else no even n = 2p has N - n = 2q."""
    spec = engine.KINDS[kind]
    named = dict(zip(spec.params, params))
    if spec.mirror:
        size = 19_980 + size % 30 + 30 * (size % 30 % 4 // 2)
    table = oracles.omega_table(size + 6)
    head = named[spec.head] if spec.head else 1
    shared = set()
    for n in range(31, size - 30 if spec.mirror else size + 1):
        positions = [(n, head)] + [(n + off, named[b]) for off, b in spec.forward]
        if spec.mirror:
            positions.append((size - n, named[spec.mirror]))
        if all(table[v] <= bound for v, bound in positions):
            shared |= {v % 30 for v, _ in positions if math.gcd(v, 30) > 1}
    return shared


@pytest.mark.parametrize("modulus", [1, 2, 6, 30])
@pytest.mark.parametrize("segment", [7, 1001])
def test_every_modulus_counts_the_same(monkeypatch, modulus, segment):
    # each count forced onto one modulus, across many units: the classes and their
    # seams, the offsets' index shifts, the partners' reversed blocks and the
    # heads checked by trial division.  A count takes the forced M unless one of
    # the n it includes has a position that shares a prime with M, a class no
    # kernel sieves; then it takes M = 1
    monkeypatch.setattr(engine, "_MODULI", (modulus,))
    monkeypatch.setattr(engine, "SEGMENT_SIZE", segment)
    taken = []
    classes = engine._classes
    monkeypatch.setattr(engine, "_classes", lambda *args: taken.append(classes(*args)) or taken[-1])

    def check(kind, params, size, got, want):
        assert got == want, (kind, size, params)
        if max(params) <= 2:  # bounds up to 2 sieve tuples and take no Omega layout
            assert not taken, (kind, size, params)
            return
        shared = any(math.gcd(v, modulus) > 1 for v in _shared_residues(kind, params, size))
        assert taken.pop().modulus == (1 if shared else modulus), (kind, size, params)

    for N in (8, 30, 32, 62, 64, 90, 2 * (1 + 30 * segment) + 4, 19_996, 20_000, 20_002, 20_006,
              20_010):
        for kind, params in (("D_1ab", (2, 3)), ("D_1ab", (1, 1)), ("D_1ab", (1, 3)), ("D_1r", (1,)),
                             ("D_1r", (3,)), ("D_sr", (2, 3)), ("D_sr", (3, 3)), ("D_sr", (1, 1))):
            got = getattr(engine, f"count_{kind}")(N, *params).count
            check(kind, params, N, got, oracles.mirrored_count(kind, N, *params))
    x, marks = 5000, [2, 5, 29, 30, 31, 97, 1000, 4999, 5000]
    table = oracles.omega_table(x + 6)
    for a, b in ((1, 1), (3, 1), (2, 3)):
        check("pi_1ab", (a, b), x, [r.count for r in ratio_scan("pi_1ab", (a, b), marks)],
              [len(oracles.brute_pi_1ab(m, a, b, table)) for m in marks])
    for r in (1, 3):
        check("pi_1r", (r,), x, [res.count for res in ratio_scan("pi_1r", (r,), marks)],
              [len(oracles.brute_pi_1r(m, r, table)) for m in marks])


_PRIME_PATTERNS = (("pi_1ab", (1, 1)), ("pi_1r", (1,)), ("D_1ab", (1, 1)), ("D_1r", (1,)),
                   ("D_sr", (1, 1)))


def _pattern(kind, params):
    """The head, forward and mirror bounds of a count of kind."""
    spec = engine.KINDS[kind]
    named = dict(zip(spec.params, params))
    return (named[spec.head] if spec.head else 1, tuple((off, named[b]) for off, b in spec.forward),
            named[spec.mirror] if spec.mirror else None)


def _tuple_layout(head, forward, mirror, size):
    """The tuple layout a count of size takes, and the last head it walks:
    _tuple_classes as _tuple_count calls it, which here sieves nothing."""
    with mock.patch.object(engine, "_tuple_classes", wraps=engine._tuple_classes) as classes, \
            mock.patch.object(engine, "_counted", return_value=[0, 0]):
        engine._tuple_count([size], head, forward, mirror)
    return engine._tuple_classes(*classes.call_args.args), classes.call_args.args[4]


def _unit_edges(kind, params, size):
    """The edges lo of the first few units of a tuple count at size, each with
    its neighbours, and size: marks for a forward scan, or the last heads of
    mirrored N that sit on or beside a unit edge."""
    layout, limit = _tuple_layout(*_pattern(kind, params), size)
    step = layout.modulus * layout.width
    return sorted({edge + d for edge in range(step, limit, step)[:4] for d in (-1, 0, 1)} | {size})


def _prime_pattern_counts(sizes, scans):
    """Every prime pattern: the mirrored kinds at each N in sizes, and the forward
    kinds as scans to the marks that scans holds for each."""
    mirrored = [getattr(engine, f"count_{kind}")(N, *params).count
                for kind, params in _PRIME_PATTERNS if engine.KINDS[kind].mirror
                for N in sizes if N >= engine.KINDS[kind].min_size]
    return mirrored, [[r.count for r in ratio_scan(kind, params, scans[kind])]
                      for kind, params in _PRIME_PATTERNS if not engine.KINDS[kind].mirror]


@pytest.mark.parametrize("modulus", engine._TUPLE_MODULI)
@pytest.mark.parametrize("segment", [7, 1001, 2**14])
def test_prime_patterns_count_the_same_through_both_kernels(monkeypatch, modulus, segment):
    # every bound 1 sieves tuples of primes; the Omega rows, given the same
    # counts, are the reference.  Each count forced onto one tuple modulus, over
    # many units: N of each residue mod 30 that moves the classes (0, 2, 10,
    # 20), N on and beside unit edges, the small N whose heads near N have N - n
    # a base prime (22 to 532: 5, 7, 11, 13, 17, 19 and 23) or a prime of M,
    # and forward scans with marks on unit edges
    monkeypatch.setattr(engine, "_TUPLE_MODULI", (modulus,))
    monkeypatch.setattr(engine, "SEGMENT_SIZE", segment)
    x = 2100 if segment == 7 else 300_000
    sizes = [4, 6, 8, 10, 22, 28, 30, 32, 44, 50, 62, 64, 90, 118, 124, 164, 170, 288, 294, 366,
             526, 532, *(x + d for d in (0, 2, 10, 20))]
    # last heads on an edge: N - 2, or N / 2 where n and N - n trade places
    sizes += [n + 2 for n in _unit_edges("D_1ab", (1, 1), x)[:-1] if n % 2 == 0]
    sizes += [2 * n for n in _unit_edges("D_1r", (1,), x)[:-1]]
    scans = {kind: _unit_edges(kind, params, x) for kind, params in _PRIME_PATTERNS
             if not engine.KINDS[kind].mirror}  # marks on unit edges
    counts = _prime_pattern_counts(sizes, scans)
    monkeypatch.setattr(engine, "_tuple_count", engine._sieve_count)
    assert counts == _prime_pattern_counts(sizes, scans)


# every count whose bounds are all 1 or 2
_TUPLE_PATTERNS = tuple((kind, params) for kind, spec in engine.KINDS.items()
                        for params in itertools.product((1, 2), repeat=len(spec.params)))
# values a position may hold that a bound of 2 treats apart: g and g h for
# primes g, h of a tuple modulus; g^2; p^2 and p^3 for base primes p not
# dividing it (17 and 19 at M = 30030)
_SPECIAL_VALUES = (2, 3, 5, 7, 11, 13, 6, 10, 15, 77, 143, 4, 9, 25, 49, 121, 169, 289, 361, 27,
                   125, 343, 1331, 2197, 4913, 6859)


def _tuple_sizes(segment):
    """The mirrored N and the forward scan's marks of the bound-2 comparison at
    one segment size, the same at every tuple modulus: the small N, the N and
    marks whose first heads have a position on a special value, N of each
    residue mod 30 that moves the classes, and N / 2 past the largest cube."""
    x = 2100 if segment == 7 else 7000
    specials = [v for v in _SPECIAL_VALUES if v <= x]
    sizes = {*range(4, 66, 2), *(v + d for v in specials for d in (2, 3) if (v + d) % 2 == 0),
             *(x + d for d in (0, 2, 10, 20)), 2 * max(specials) + 2}
    marks = {v - off for v in specials for off in (0, 2, 6)} | {x}
    return x, sorted(sizes), sorted(m for m in marks if 2 <= m <= x)


@functools.cache
def _omega_reference(segment, kind, params, sizes):
    """A count's values on the Omega rows at each size: a scan if the kind is
    forward, else one count per N."""
    with mock.patch.object(engine, "SEGMENT_SIZE", segment), \
            mock.patch.object(engine, "_tuple_count", engine._sieve_count):
        if not engine.KINDS[kind].mirror:
            return [r.count for r in ratio_scan(kind, params, sizes)]
        return [getattr(engine, f"count_{kind}")(N, *params).count for N in sizes]


@pytest.mark.parametrize("modulus", engine._TUPLE_MODULI)
@pytest.mark.parametrize("segment", [7, 1001, 2**14])
def test_bound_two_patterns_count_the_same_through_both_kernels(monkeypatch, modulus, segment):
    # every bound of 1 or 2 sieves tuples; the Omega rows are the reference,
    # computed once per segment.  Each count forced onto one tuple modulus, over
    # many units, at sizes whose positions reach g, g h, g^2, p^2 and p^3, and
    # N whose last heads sit on or beside a unit edge: N - 2, or N / 2 where n
    # and N - n trade places
    monkeypatch.setenv("TRIPLESIEVE_THREADS", "1")
    monkeypatch.setattr(engine, "_TUPLE_MODULI", (modulus,))
    monkeypatch.setattr(engine, "SEGMENT_SIZE", segment)
    x, sizes, marks = _tuple_sizes(segment)
    edges = ([n + 2 for n in _unit_edges("D_1ab", (2, 2), x)[:-1] if n % 2 == 0]
             + [2 * n for n in _unit_edges("D_sr", (2, 2), x)[:-1]])
    for kind, params in _TUPLE_PATTERNS:
        if engine.KINDS[kind].mirror:
            own = tuple(N for N in sizes if N >= engine.KINDS[kind].min_size)
            got = [getattr(engine, f"count_{kind}")(N, *params).count for N in own]
            assert got == _omega_reference(segment, kind, params, own), (kind, params)
            for N in edges:  # these move with the modulus
                got = getattr(engine, f"count_{kind}")(N, *params).count
                assert [got] == _omega_reference(segment, kind, params, (N,)), (kind, params, N)
        else:
            own = tuple(sorted(set(marks) | set(_unit_edges(kind, params, x))))
            got = [r.count for r in ratio_scan(kind, params, own)]
            assert got == _omega_reference(segment, kind, params, own), (kind, params)


@pytest.mark.parametrize("count, modulus, heads, needed", [
    # a prime triple's p, p + 2 and p + 6 are prime only in 8 of the 210 classes,
    # whose 22 position classes its rows run through
    ((1, ((2, 1), (6, 1)), None, 10**8), 210, [11, 17, 41, 101, 107, 137, 167, 191],
     [11, 13, 17, 19, 23, 41, 43, 47, 101, 103, 107, 109, 113, 137, 139, 143, 167, 169, 173, 191,
      193, 197]),
    ((1, ((2, 1),), None, 10**8), 210,
     [11, 17, 29, 41, 59, 71, 101, 107, 137, 149, 167, 179, 191, 197, 209],
     [1, 11, 13, 17, 19, 29, 31, 41, 43, 59, 61, 71, 73, 101, 103, 107, 109, 137, 139, 149, 151,
      167, 169, 179, 181, 191, 193, 197, 199, 209]),
    ((1, (), 1, 3 * 10**6 + 2), 30, [1, 13, 19], [1, 13, 19]),
    # at M = 30 some n + 6 are multiples of 5, and past 30 | N some N - n of 3
    ((1, ((6, 3),), 3, 99750000), 6, [1, 5], [1, 5]),
    ((1, ((6, 3),), 3, 99875000), 2, [1], [1]),
    # at M = 6 some n + 2 are multiples of 3
    ((1, ((2, 3), (6, 3)), None, 10**8), 2, [1], [1]),
    ((1, ((2, 3),), None, 10**8), 2, [1], [1]),
    ((1, ((2, 33),), None, 10**8), 2, [1], [1]),
    ((2, (), 3, 10**8), 1, [1], [1]),
])
def test_classes_follow_the_bounds(count, modulus, heads, needed):
    head, forward, mirror, size = count
    if max(head, mirror or 1, *(bound for _, bound in forward)) > 2:
        assert engine._classes(*count)[:3] == (modulus, heads, needed)
        return
    # a prime pattern sieves its heads' classes as tuples; needed are the classes
    # of every position of those heads, all coprime to M
    offsets = (0, *(off for off, _ in forward))
    layout, _ = _tuple_layout(head, forward, mirror, size)
    residues = {(c + off) % modulus for c in layout.heads for off in offsets}
    if mirror is not None:
        residues |= {(size - c) % modulus for c in layout.heads}
    assert (layout.modulus, layout.heads) == (modulus, heads)
    assert sorted((r - 1) % modulus + 1 for r in residues) == needed
    assert all(math.gcd(r, modulus) == 1 for r in needed)


def test_mirrored_count_memory_is_bounded_by_the_segment(monkeypatch):
    monkeypatch.setenv("TRIPLESIEVE_THREADS", "1")
    monkeypatch.setattr(engine, "SEGMENT_SIZE", 1 << 16)
    count_D_1ab(1000, 2, 3)  # the wheel and small prime tables are built once
    peaks = []
    for N in (4 * 10**6, 4 * 10**7):
        tracemalloc.start()
        try:
            count_D_1ab(N, 2, 3)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # a full array to N would be N bytes; two padded 2^16 segments need ~1.5 MB
    assert max(peaks) < 3 * 2**20, peaks


@pytest.mark.parametrize("kind, params, size", [
    ("pi_1ab", (1, 1), 10**6), ("pi_1ab", (1, 1), 10**8), ("D_1ab", (1, 1), 10**6),
    ("D_1r", (1,), 10**8 + 2), ("D_1ab", (2, 2), 10**6), ("pi_1r", (2,), 10**6),
    ("D_sr", (2, 2), 10**6),
    # one descending row of bound 2: traced, D_1ab 2 2 at 1e8 took 7.6 s, this 2.7 s
    ("D_1ab", (1, 2), 10**8),
])
def test_a_prime_pattern_peaks_at_one_block_and_its_strike_buffers(monkeypatch, kind, params, size):
    # the engine docstring's budget for blocks of w heads, P base primes not
    # dividing M and p0 the least of them: w + 2 ceil(w / p0) + 8 P when every
    # bound is 1, and with a bound of 2 w + 3 ceil(w / p0) + 8 (P + Q), for
    # the Q base primes whose cube is at most the largest value, against the
    # traced peak of a count sieved in this process
    monkeypatch.setenv("TRIPLESIEVE_THREADS", "1")
    count = getattr(engine, f"count_{kind}")
    count(size, *params)  # the prime table and the predictor's constant are built once
    tracemalloc.start()
    try:
        count(size, *params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    head, forward, mirror = _pattern(kind, params)
    top = size + max((off for off, _ in forward), default=0)
    base_primes = primes_up_to(math.isqrt(top))
    layout, _ = _tuple_layout(head, forward, mirror, size)
    own = sum(layout.modulus % q == 0 for q in engine._WHEEL_PRIMES)  # M's primes come first
    w, p0, primes = layout.width, base_primes[own], base_primes[own:]
    if max(params) == 1:
        budget = w + 2 * -(-w // p0) + 8 * len(primes)
    else:
        budget = w + 3 * -(-w // p0) + 8 * (len(primes) + sum(p**3 <= top for p in primes))
    assert 0 <= peak - budget < 8 * 1024, (peak, budget)


def test_class_wheels_are_slices_of_the_full_wheel():
    # word of n: the words of every wheel prime power p^k dividing n, added up
    n = np.arange(engine._WHEEL_PERIOD)
    wheel = np.zeros(engine._WHEEL_PERIOD, dtype=np.uint16)
    for p in (2, 3, 5, 7, 11, 13):
        for k in range(1, 4):
            if engine._WHEEL_PERIOD % p**k == 0:
                wheel[n % p**k == 0] += engine._log_words(np.array([p]), k)[0]
    assert np.array_equal(engine._wheel(1, 0), wheel)
    for modulus in (2, 6, 30):
        for residue in (r for r in range(modulus) if math.gcd(r, modulus) == 1):
            assert np.array_equal(engine._wheel(modulus, residue), wheel[residue::modulus]), (
                modulus, residue)


def test_prime_headed_counts_never_build_the_full_wheel(monkeypatch):
    # the full wheel is 720 KB; a prime head is odd, so its classes need at most half
    monkeypatch.setenv("TRIPLESIEVE_THREADS", "1")  # the wheels are built in this process
    engine._wheel.cache_clear()
    count_D_1ab(10**6, 2, 3)
    count_D_1r(10**6 + 2, 1)
    count_pi_1ab(10**6, 1, 1)
    count_pi_1r(10**6, 33)
    built = engine._wheel.cache_info()
    assert built.currsize > 0
    engine._wheel(1, 0)
    assert engine._wheel.cache_info().misses == built.misses + 1  # not built before


def test_trial_omega_matches_the_oracle():
    primes = primes_up_to(10**5)
    for n in [*range(2, 3000), 10**10 - 2, 10**10 - 4, 2 * 99991**2, 9999999967, 2**33]:
        assert engine._trial_omega(n, primes) == oracles.omega_trial(n), n


@pytest.mark.parametrize("b", [2, 3])
def test_even_prime_term_matches_full_array_reference(b):
    # p = 2 is counted by trial division: Omega(8) = 3 sits between b = 2 and 3
    for N in range(8, 201, 2):
        for a in (1, 2, 3):
            assert count_D_1ab(N, a, b).count == oracles.mirrored_count("D_1ab", N, a, b), N


def test_vacuous_conditions_count_all_primes():
    # with both factor budgets at their largest the triple condition is empty
    assert count_pi_1ab(10_000, 33, 33).count == len(oracles.primes_below(10_000))


def test_exact_counts_at_1e9_match_oeis():
    # pi(10^k), OEIS A006880, and the twin-prime pairs below 10^k, OEIS A007508,
    # for k = 3 .. 9: one sieve pass each
    marks = [10**k for k in range(3, 10)]
    assert [r.count for r in ratio_scan("pi_1r", (33,), marks)] == [
        168, 1229, 9592, 78498, 664579, 5761455, 50847534]
    assert [r.count for r in ratio_scan("pi_1r", (1,), marks)] == [
        35, 205, 1224, 8169, 58980, 440312, 3424506]


def test_vacuous_offset_condition_at_1e9():
    # b = 33 makes pi_1ab's p + 6 condition vacuous, leaving pi_1r's p + 2 one
    assert count_pi_1ab(10**9, 2, 33).count == count_pi_1r(10**9, 2).count == 14176573


def test_mirrored_kinds_agree_at_1e9():
    # s = 1 makes D_sr's head a prime, and b = 33 makes D_1ab's p + 6 condition
    # vacuous: three kinds' masks over one layout (M = 2); D_sr's full width
    # (M = 1) is pinned at 1e9 by the symmetry test below
    N = 10**9
    assert count_D_sr(N, 1, 2).count == count_D_1r(N, 2).count == 17511214
    assert count_D_1ab(N, 2, 33).count == 17511214


def test_mirror_symmetry_at_1e9():
    # n and N - n trade places, so the two bounds may be swapped
    assert count_D_sr(10**9, 2, 3).count == count_D_sr(10**9, 3, 2).count == 130805910


def test_factor_budgets_above_33_are_rejected():
    # Omega(n) <= 33 below 2^34, so a larger budget would count the same
    assert count_D_sr(1000, 33, 33).count == count_D_sr(1000, 10, 10).count
    with pytest.raises(DomainError, match="s must be <= 33"):
        count_D_sr(10**6, 10**20, 1)
    with pytest.raises(DomainError, match="b must be <= 33"):
        count_pi_1ab(1000, 1, 34)
    with pytest.raises(DomainError, match="r must be <= 33"):
        ratio_scan("pi_1r", (2000,), [100, 1000])


def test_count_monotonicity():
    base = count_pi_1ab(5000, 2, 2).count
    assert count_pi_1ab(5000, 3, 2).count >= base
    assert count_pi_1ab(5000, 2, 3).count >= base
    assert count_pi_1ab(6000, 2, 2).count >= base
    assert count_D_sr(500, 2, 2).count >= count_D_1r(500, 2).count


def test_segmentation_invariance(monkeypatch):
    x, n = 30_000, 9998
    expected = (count_pi_1ab(x, 2, 3).count, count_D_1ab(n, 2, 2).count)
    for size in (7, 64, 997, 1001, 4096, 2**14):
        monkeypatch.setattr(engine, "SEGMENT_SIZE", size)
        assert (count_pi_1ab(x, 2, 3).count, count_D_1ab(n, 2, 2).count) == expected


@pytest.fixture
def forks(monkeypatch):
    """The os.fork calls of a test, counted by a wrapper."""
    calls = []
    fork = os.fork

    def counted():
        calls.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return calls


def _every_kind(x):
    """Counts of all five kinds at x with a bound of 3, which sieve Omega, and a
    forward scan that sends several marks."""
    return (
        count_pi_1ab(x, 2, 3).count, count_D_1ab(x, 2, 3).count, count_pi_1r(x, 3).count,
        count_D_1r(x, 3).count, count_D_sr(x, 2, 3).count,
        [r.count for r in ratio_scan("pi_1ab", (2, 3), [10, 1000, 32771, 65537, 150001, x])],
    )


def _every_bound_two(x):
    """The five kinds at bound 2, which sieve tuples, and a forward scan that
    sends several marks."""
    return (
        count_pi_1ab(x, 2, 2).count, count_D_1ab(x, 2, 2).count, count_pi_1r(x, 2).count,
        count_D_1r(x, 2).count, count_D_sr(x, 2, 2).count,
        [r.count for r in ratio_scan("pi_1ab", (2, 2), [10, 1000, 32771, 65537, 150001, x])],
    )


def _every_prime_pattern(x):
    """The five kinds at bound 1, which sieve tuples, and a twin scan whose
    marks sit on and beside its unit edges at x = 1e6 in 2^14-head blocks (M = 30,
    blocks of 11112 heads)."""
    return (
        count_pi_1ab(x, 1, 1).count, count_D_1ab(x, 1, 1).count, count_pi_1r(x, 1).count,
        count_D_1r(x, 1).count, count_D_sr(x, 1, 1).count,
        [r.count for r in ratio_scan("pi_1r", (1,), [10, 1000, 333359, 333360, 333361, 500001,
                                                      666719, 666720, 666721, x])],
    )


def test_thread_count_invariance(monkeypatch, forks):
    _assert_thread_count_invariance(monkeypatch, forks, _every_kind, 200_000)


def test_thread_count_invariance_of_the_prime_patterns(monkeypatch, forks):
    _assert_thread_count_invariance(monkeypatch, forks, _every_prime_pattern, 10**6)


def test_thread_count_invariance_of_the_bound_two_counts(monkeypatch, forks):
    _assert_thread_count_invariance(monkeypatch, forks, _every_bound_two, 200_000)


def _assert_thread_count_invariance(monkeypatch, forks, every, x):
    # 2^14-word segments: at least 4 units for every count
    monkeypatch.setattr(engine, "SEGMENT_SIZE", 2**14)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)  # three workers on any host
    counts = {}
    for workers in (1, 2, 3):
        monkeypatch.setenv("TRIPLESIEVE_THREADS", str(workers))
        assert thread_count() == workers
        counts[workers] = every(x)
        assert len(forks) == (6 * workers if workers > 1 else 0)  # six counts, W workers each
        forks.clear()
    monkeypatch.delattr(os, "fork")  # platforms without fork count serially
    assert every(x) == counts[3] == counts[2] == counts[1]


def test_forks_never_exceed_the_cpu_count(monkeypatch, forks):
    # at most 7 units, so even a broken cap starts only a handful of processes
    monkeypatch.setenv("TRIPLESIEVE_THREADS", "10000")
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(engine, "SEGMENT_SIZE", 2**14)
    count_pi_1ab(200_000, 1, 1)
    assert len(forks) == 2


@contextlib.contextmanager
def _calls(monkeypatch, *names):
    """Every call of the named engine functions and classes, made in this process
    or in a forked worker, as (name, pid) pairs: each call writes its line to a
    pipe, read into the list yielded once the block ends."""
    read, write = os.pipe()
    for name in names:
        def recorded(*args, _name=name, _original=getattr(engine, name), **kwargs):
            os.write(write, f"{_name} {os.getpid()}\n".encode())
            return _original(*args, **kwargs)

        monkeypatch.setattr(engine, name, recorded)
    calls = []
    try:
        yield calls
    finally:
        os.close(write)
        with open(read, "rb") as pipe:
            calls += [(name, int(pid)) for name, pid in map(str.split, pipe.read().decode().splitlines())]


@pytest.mark.parametrize("workers", [2, 3])
def test_the_caller_sieves_nothing_when_it_forks(monkeypatch, workers):
    # the caller only forks and adds: every plan is built and every block is
    # sieved in a worker, which builds one plan per count
    monkeypatch.setattr(engine, "SEGMENT_SIZE", 2**14)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setenv("TRIPLESIEVE_THREADS", "1")
    serial = _every_kind(200_000)
    caller = os.getpid()
    monkeypatch.setenv("TRIPLESIEVE_THREADS", str(workers))
    with _calls(monkeypatch, "_Plan", "_omega_block") as calls:
        assert _every_kind(200_000) == serial
    planners = [pid for name, pid in calls if name == "_Plan"]
    sievers = {pid for name, pid in calls if name == "_omega_block"}
    assert sievers and caller not in sievers
    # six counts of at least 4 units each: every one forks all its workers
    assert len(planners) == len(set(planners)) == 6 * workers and caller not in planners
    assert set(planners) == sievers
    _no_child_left()


# a bound on a forking caller's tracemalloc peak over each count below, in
# bytes.  Those peaks read 20.5-21.2 kB (Python 3.11, numpy 2.4), most of it
# the two pipes' readers; a caller that also builds one plan and set of buffers
# peaks at 106-124 kB, and the same counts sieved in process at 150-167 kB
_FORKING_CALLER_PEAK = 32 * 1024


@pytest.mark.parametrize("kind, params", [("pi_1ab", (2, 3)), ("D_1ab", (2, 3)), ("pi_1r", (3,)),
                                          ("D_1r", (3,)), ("D_sr", (2, 3)), *_PRIME_PATTERNS,
                                          ("D_1ab", (2, 2)), ("D_sr", (2, 2))])
def test_a_forking_caller_runs_no_sieve_code(monkeypatch, forks, kind, params):
    # the caller builds the prime table, forks two workers, which inherit it,
    # adds their sums as ints and runs the predictor; the workers build the
    # kernels (a plan for Omega, a _TupleSieve for bounds up to 2) and check
    # the small heads
    size = 10**6 if max(params) == 1 else 200_000
    monkeypatch.setattr(engine, "SEGMENT_SIZE", 2**14)  # at least 4 units per count
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setenv("TRIPLESIEVE_THREADS", "1")
    serial = ratio_scan(kind, params, [size])  # warms the predictor's caches
    monkeypatch.setenv("TRIPLESIEVE_THREADS", "2")
    primes_up_to.cache_clear()  # the caller's table is built inside the peak's window
    caller = os.getpid()
    with _calls(monkeypatch, "primes_up_to", "_trial_omega", "_Plan", "_TupleSieve") as calls:
        tracemalloc.start()
        try:
            forked = ratio_scan(kind, params, [size])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert repr(forked) == repr(serial) and len(forks) == 2
    assert [pid for name, pid in calls if name == "primes_up_to"] == [caller]
    sievers = {pid for name, pid in calls if name != "primes_up_to"}
    assert len(sievers) == 2 and caller not in sievers, calls
    kernel = "_TupleSieve" if max(params) <= 2 else "_Plan"
    kernels = [call for call in calls if call[0] in ("_Plan", "_TupleSieve")]
    assert sorted(kernels) == sorted((kernel, pid) for pid in sievers), calls  # one per worker
    assert peak < _FORKING_CALLER_PEAK, peak
    _no_child_left()


# run in a fresh interpreter, which has loaded no numpy: whether numpy is loaded
# at each os.fork of a count forked over two workers
_FORK_PROBE = """
import os, sys
from triplesieve import engine
engine.SEGMENT_SIZE = 2**14
os.cpu_count = lambda: 2
fork, loaded = os.fork, []
def recorded():
    loaded.append("numpy" in sys.modules)
    return fork()
os.fork = recorded
engine.count_{kind}(10**6, *{params})
print(loaded)
"""


@pytest.mark.parametrize("kind, params", [("pi_1ab", (2, 3)), ("D_1ab", (2, 3)), *_PRIME_PATTERNS,
                                          ("D_1ab", (2, 2)), ("D_sr", (2, 2))])
def test_numpy_is_loaded_before_an_omega_count_forks_and_never_for_primality(kind, params):
    # an Omega count's workers share the caller's numpy pages; a count whose
    # bounds are all 1 or 2 never loads numpy at all
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(engine.__file__)),
           "TRIPLESIEVE_THREADS": "2"}
    run = subprocess.run([sys.executable, "-c", _FORK_PROBE.format(kind=kind, params=params)],
                         env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == repr([max(params) > 2] * 2)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize(
    "failure", ["child raises", "child is killed", "child is killed at exit", "caller is interrupted"]
)
def test_a_failed_worker_fails_the_count_and_leaves_no_child(monkeypatch, capfd, failure):
    monkeypatch.setenv("TRIPLESIEVE_THREADS", "2")
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(engine, "SEGMENT_SIZE", 2**14)
    # of the units at lo = 3, 3 + 2^15, .., the second worker sieves the odd-numbered ones
    caller, kernel, waitpid = os.getpid(), engine._omega_block, os.waitpid
    reaped = []  # exit codes of the workers the caller reaps once interrupted

    def failing(lo, *args, **kwargs):
        if lo == 3 + 2**15 and failure == "caller is interrupted":
            time.sleep(10)  # still sieving when the caller is interrupted: it must be killed
        elif lo == 3 + 2**15 and failure != "child is killed at exit":
            if failure == "child is killed" and os.getpid() != caller:
                os.kill(os.getpid(), signal.SIGKILL)
            raise ValueError("injected")
        return kernel(lo, *args, **kwargs)

    def killed_at_exit(status):  # only a worker leaves by os._exit, after its whole sum
        os.kill(os.getpid(), signal.SIGKILL)

    def recorded(pid, options):
        pid, status = waitpid(pid, options)
        reaped.append(os.waitstatus_to_exitcode(status))
        return pid, status

    def interrupted(pid, options):  # the caller, waiting on its first worker
        monkeypatch.setattr(os, "waitpid", recorded)
        raise KeyboardInterrupt

    monkeypatch.setattr(engine, "_omega_block", failing)
    if failure == "child is killed at exit":
        monkeypatch.setattr(os, "_exit", killed_at_exit)
    if failure == "caller is interrupted":
        monkeypatch.setattr(os, "waitpid", interrupted)
        with pytest.raises(KeyboardInterrupt):
            count_pi_1ab(200_000, 2, 3)
        assert reaped == [0, -signal.SIGKILL]  # the first worker had finished
    else:
        status = 1 if failure == "child raises" else -signal.SIGKILL
        sent = 8 if failure == "child is killed at exit" else 0
        with pytest.raises(RuntimeError, match=f"exited with status {status} after sending {sent} "):
            count_pi_1ab(200_000, 2, 3)
        if failure == "child raises":  # the worker imports traceback only to print this
            err = capfd.readouterr().err
            assert "Traceback (most recent call last)" in err and "ValueError: injected" in err, err
    _no_child_left()


_FORK_WARNING = ("This process (pid={}) is multi-threaded, use of fork() may lead to "
                 "deadlocks in the child.")


@pytest.mark.parametrize("message", [_FORK_WARNING, "another fork warning"], ids=["threaded", "other"])
def test_only_the_threaded_fork_warning_is_ignored(monkeypatch, message):
    # Python 3.12+ warns at every os.fork of a process with threads, as NumPy's are
    monkeypatch.setattr(engine, "SEGMENT_SIZE", 2**14)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setenv("TRIPLESIEVE_THREADS", "1")
    serial = count_pi_1ab(200_000, 2, 2).count
    fork, calls = os.fork, []

    def warning_fork():
        calls.append(os.getpid())
        warnings.warn(message.format(os.getpid()), DeprecationWarning, stacklevel=2)
        return fork()

    monkeypatch.setattr(os, "fork", warning_fork)
    monkeypatch.setenv("TRIPLESIEVE_THREADS", "2")
    if message == _FORK_WARNING:
        assert count_pi_1ab(200_000, 2, 2).count == serial
    else:  # under filterwarnings = error any other warning still fails
        with pytest.raises(DeprecationWarning, match=message):
            count_pi_1ab(200_000, 2, 2)
    assert len(calls) == (2 if message == _FORK_WARNING else 1)  # the other stops the first fork
    _no_child_left()


def test_thread_count_follows_the_affinity_mask(monkeypatch):
    monkeypatch.delenv("TRIPLESIEVE_THREADS", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert thread_count() == 1
    monkeypatch.setenv("TRIPLESIEVE_THREADS", "3")
    assert thread_count() == 3  # the variable still overrides
    monkeypatch.delenv("TRIPLESIEVE_THREADS")
    monkeypatch.delattr(os, "sched_getaffinity")
    assert thread_count() == 64  # platforms without affinity masks


def test_domain_errors():
    with pytest.raises(DomainError):
        count_D_1ab(31, 2, 2)  # odd N
    with pytest.raises(DomainError):
        count_D_1ab(6, 1, 1)  # below the minimum even size
    with pytest.raises(DomainError):
        count_D_1r(15, 2)  # odd N
    with pytest.raises(DomainError):
        count_pi_1ab(100, 0, 1)  # factor budget below 1
    with pytest.raises(DomainError):
        ratio_scan("pi_1ab", (1,), [100])  # wrong arity
    with pytest.raises(DomainError):
        ratio_scan("nonsense", (1,), [100])
    with pytest.raises(DomainError):
        ratio_scan("pi_1ab", (0, 1), [100])  # factor budget below 1
    with pytest.raises(DomainError):
        count_pi_1r(-1, 1)


@pytest.mark.parametrize("value", [1000.7, math.inf, math.nan])
def test_non_integral_sizes_and_checkpoints_are_domain_errors(value):
    with pytest.raises(DomainError, match="must be an integer"):
        count_pi_1r(value, 1)
    with pytest.raises(DomainError, match="must be an integer"):
        count_D_sr(value, 1, 1)
    with pytest.raises(DomainError):  # inf is also past the checkpoint cap
        ratio_scan("pi_1r", (1,), [100, value])
    with pytest.raises(DomainError, match="r must be an integer, got 1.5"):
        count_pi_1r(1000, 1.5)
    with pytest.raises(DomainError, match="r must be an integer, got 1.5"):
        ratio_scan("D_sr", (2, 1.5), [100])


def test_integral_floats_still_count():
    assert count_pi_1r(1e6, 1.0).count == 8169  # OEIS A007508
    assert count_pi_1r(1e6, 1).size == 1_000_000
    assert [r.count for r in ratio_scan("pi_1r", (1,), [1e3, 1e4])] == [35, 205]


# ---------------------------------------------------------------------------
# ratio scans and predictors
# ---------------------------------------------------------------------------


def test_ratio_scan_matches_individual_counts():
    results = ratio_scan("pi_1ab", (1, 1), [1000, 10_000, 50_000])
    assert [r.count for r in results] == [
        count_pi_1ab(x, 1, 1).count for x in (1000, 10_000, 50_000)
    ]
    assert all(r.predicted > 0 and r.ratio > 0 for r in results)


def test_ratio_scan_validation():
    assert ratio_scan("pi_1ab", (1, 1), []) == []
    with pytest.raises(DomainError):
        ratio_scan("pi_1ab", (1, 1), [100, 100])
    with pytest.raises(DomainError):
        ratio_scan("pi_1ab", (1, 1), [10**10 + 1])
    with pytest.raises(DomainError):
        ratio_scan("nonsense", (1, 1), [100])


def test_ratio_scan_mirror_kind():
    results = ratio_scan("D_1ab", (2, 2), [30, 100])
    assert [r.count for r in results] == [
        oracles.brute_D_1ab(30, 2, 2),
        oracles.brute_D_1ab(100, 2, 2),
    ]


def test_predictor_shapes():
    from triplesieve.constants import constant_C2, constant_C3, singular_series_CN

    def order(size, constant, log_power, exponent):
        return constant * size / math.log(size) ** log_power * math.log(math.log(size)) ** exponent

    x, N = 100_000, 10_000
    C3, C2, CN = constant_C3().value, constant_C2().value, singular_series_CN(N)
    cases = [
        (count_pi_1ab(x, 3, 3), order(x, C3, 3, 1)),
        (count_pi_1ab(x, 1, 1), order(x, C3, 3, 0)),  # log log exponent floors at zero
        (count_D_1ab(N, 3, 2), order(N, 1.0, 3, 1)),  # no constant
        (count_D_1ab(N, 1, 2), order(N, 1.0, 3, 0)),
        (count_pi_1r(x, 2), order(x, C2, 2, 0)),
        (count_pi_1r(x, 4), order(x, C2, 2, 2)),
        (count_D_1r(N, 3), order(N, CN, 2, 1)),
        (count_D_1r(N, 1), order(N, CN, 2, 0)),
        (count_D_sr(N, 2, 3), order(N, CN, 2, 2)),  # s + r - 3
        (count_D_sr(N, 1, 1), order(N, CN, 2, 0)),
    ]
    for result, expected in cases:
        assert result.predicted == pytest.approx(expected, rel=1e-12), result
    # below 5, log log x is not positive: every kind that admits such a size predicts 0
    for result in (count_pi_1ab(4, 1, 1), count_pi_1r(4, 2), count_D_1r(4, 1), count_D_sr(4, 2, 2)):
        assert result.predicted == 0.0 and result.ratio == 0.0


def test_predictor_bits():
    # the exact bits of one prediction per kind: each row must keep its
    # predictor's order of operations, C x, then / log^h x, then * (log log x)^e
    assert [float.hex(r.predicted) for r in (
        count_pi_1ab(100_000, 3, 3), count_D_1ab(10_000, 3, 2), count_pi_1r(100_000, 3),
        count_D_1r(10_000, 3), count_D_sr(10_000, 2, 3),
    )] == ["0x1.c9aadbd7874e6p+8", "0x1.c6af267c4b570p+4", "0x1.303f31ec0c19cp+11",
           "0x1.ccc5401c9b4b0p+7", "0x1.ff87d2944330ep+8"]


def test_result_ratio_guard():
    res = TripleCountResult("pi_1ab", 4, {"a": 1, "b": 1}, 0, 0.0)
    assert res.ratio == 0.0
