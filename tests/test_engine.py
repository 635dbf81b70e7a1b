import math
import os
import signal
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from triplesieve import engine
from triplesieve.engine import (
    SEGMENT_CAP,
    SEGMENT_SIZE,
    _omega_block,
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
    got = _omega_block(lo, hi, base_primes, step)
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
    # a count builds one table of prime powers, for its largest n, for every block
    primes = primes_up_to(10**5)
    for step in (1, 2):
        powers = engine._prime_powers(10**10, primes, step)
        for lo, hi in ((3, 1001), (999_999, 1_100_001), (10**10 - 2001, 10**10)):
            want = oracles.omega_block_residual(lo, hi, primes_up_to(math.isqrt(hi - 1)))
            got = _omega_block(lo, hi, primes, step, powers)
            assert np.array_equal(got, want[::step]), (lo, step)


@pytest.mark.parametrize("lo, hi", [(2, 2), (2, 3), (2, 4), (2, 50), (99, 100)])
def test_kernel_matches_residual_oracle_on_tiny_ranges(lo, hi):
    _assert_kernel_matches_oracle(lo, hi)


# SEGMENT_SIZE: one full-width segment (D_sr, sieve_omega) holds that many
# integers; 2^20, twice that, is a range sieve_omega still sieves as one block
@pytest.mark.parametrize("size", [997, 4096, SEGMENT_SIZE, 1 << 20])
def test_kernel_matches_residual_oracle_per_segment_size(size):
    for lo in (2, 10**8 - size // 2):
        _assert_kernel_matches_oracle(lo, lo + size)


# the odd-only layout of the prime-headed kinds: index i is n = lo + 2i, lo odd
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
    table = oracles.omega_table(52)
    for r in (1, 2, 3):
        for x in range(51):
            assert count_pi_1r(x, r).count == len(oracles.brute_pi_1r(x, r, table)), (x, r)


def test_pi_1ab_small_sizes_match_brute_force():
    # p = 2 is checked outside the odd-only segments: Omega(4) = 2, Omega(8) = 3
    table = oracles.omega_table(56)
    for a in (1, 2, 3):
        for b in (1, 2, 3):
            for x in range(51):
                want = len(oracles.brute_pi_1ab(x, a, b, table))
                assert count_pi_1ab(x, a, b).count == want, (x, a, b)


def test_mirrored_counts_match_brute_force():
    for N in range(8, 301, 2):
        assert count_D_1ab(N, 2, 2).count == oracles.brute_D_1ab(N, 2, 2)
    for N in (100, 222, 1000):
        assert count_D_1r(N, 2).count == oracles.brute_D_1r(N, 2)
        assert count_D_sr(N, 2, 3).count == oracles.brute_D_sr(N, 2, 3)


def test_mirrored_counts_reach_the_even_prime():
    # p = 2 is checked outside the odd-only segments, on Omega(N - 2) and Omega(8) = 3
    for N in range(8, 301, 2):
        for a in (1, 2, 3):
            assert count_D_1ab(N, a, 3).count == oracles.brute_D_1ab(N, a, 3), (N, a)
    for N in range(4, 301, 2):
        for r in (1, 2, 3):
            assert count_D_1r(N, r).count == oracles.brute_D_1r(N, r), (N, r)


def _mirror_edge_sizes(step):
    """Even N whose N/2 is one before, on and one after the fourth segment's start:
    2 + 3 step for the full-width D_sr, 3 + 6 step for the odd-only kinds."""
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


def test_mirrored_count_memory_is_bounded_by_the_segment(monkeypatch):
    monkeypatch.setenv("TRIPLESIEVE_THREADS", "1")
    monkeypatch.setattr(engine, "SEGMENT_SIZE", 1 << 16)
    count_D_1ab(1000, 2, 2)  # the wheel and small prime tables are built once
    peaks = []
    for N in (4 * 10**6, 4 * 10**7):
        tracemalloc.start()
        try:
            count_D_1ab(N, 2, 2)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # a full array to N would be N bytes; two padded 2^16 segments need ~1.5 MB
    assert max(peaks) < 3 * 2**20, peaks


def test_odd_wheel_is_the_odd_half_of_the_full_wheel():
    # word of n: the words of every wheel prime power p^k dividing n, added up
    n = np.arange(engine._WHEEL_PERIOD)
    wheel = np.zeros(engine._WHEEL_PERIOD, dtype=np.uint16)
    for p in (2, 3, 5, 7, 11, 13):
        for k in range(1, 4):
            if engine._WHEEL_PERIOD % p**k == 0:
                wheel[n % p**k == 0] += engine._log_words(np.array([p]), k)[0]
    assert np.array_equal(engine._wheel(), wheel)
    assert np.array_equal(engine._wheel(2), wheel[1::2])


def test_prime_headed_counts_cache_only_the_odd_wheel():
    engine._wheel.cache_clear()
    count_D_1ab(10**6, 2, 2)
    count_pi_1ab(10**6, 1, 1)
    assert engine._wheel.cache_info().currsize == 1
    engine._wheel(2)  # a hit: the one entry is the step-2 wheel
    assert engine._wheel.cache_info().currsize == 1


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
    """Counts of all five kinds at x, and a forward scan that sends several marks."""
    return (
        count_pi_1ab(x, 2, 2).count, count_D_1ab(x, 2, 3).count, count_pi_1r(x, 2).count,
        count_D_1r(x, 2).count, count_D_sr(x, 2, 3).count,
        [r.count for r in ratio_scan("pi_1ab", (2, 2), [10, 1000, 32771, 65537, 150001, x])],
    )


def test_thread_count_invariance(monkeypatch, forks):
    # 2^14-word segments: 4 units for the odd-only mirrored kinds, 7 for the others
    x = 200_000
    monkeypatch.setattr(engine, "SEGMENT_SIZE", 2**14)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)  # three workers on any host
    counts = {}
    for workers in (1, 2, 3):
        monkeypatch.setenv("TRIPLESIEVE_THREADS", str(workers))
        assert thread_count() == workers
        counts[workers] = _every_kind(x)
        assert len(forks) == (6 * workers if workers > 1 else 0)  # six counts, W workers each
        forks.clear()
    monkeypatch.delattr(os, "fork")  # platforms without fork count serially
    assert _every_kind(x) == counts[3] == counts[2] == counts[1]


def test_forks_never_exceed_the_cpu_count(monkeypatch, forks):
    # at most 7 units, so even a broken cap starts only a handful of processes
    monkeypatch.setenv("TRIPLESIEVE_THREADS", "10000")
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(engine, "SEGMENT_SIZE", 2**14)
    count_pi_1ab(200_000, 1, 1)
    assert len(forks) == 2


@pytest.mark.parametrize("workers", [2, 3])
def test_the_caller_sieves_nothing_when_it_forks(monkeypatch, workers):
    # the caller only forks and adds: every block is sieved in a worker
    monkeypatch.setattr(engine, "SEGMENT_SIZE", 2**14)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setenv("TRIPLESIEVE_THREADS", "1")
    serial = _every_kind(200_000)
    caller, kernel = os.getpid(), engine._omega_block
    read, write = os.pipe()

    def recorded(*args, **kwargs):  # each process that sieves writes its pid to the pipe
        os.write(write, f"{os.getpid()}\n".encode())
        return kernel(*args, **kwargs)

    monkeypatch.setattr(engine, "_omega_block", recorded)
    monkeypatch.setenv("TRIPLESIEVE_THREADS", str(workers))
    try:
        assert _every_kind(200_000) == serial
    finally:
        os.close(write)
        with open(read, "rb") as pipe:
            sievers = {int(pid) for pid in pipe.read().split()}
    assert sievers and caller not in sievers
    _no_child_left()


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize(
    "failure", ["child raises", "child is killed", "child is killed at exit", "caller is interrupted"]
)
def test_a_failed_worker_fails_the_count_and_leaves_no_child(monkeypatch, failure):
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
            count_pi_1ab(200_000, 2, 2)
        assert reaped == [0, -signal.SIGKILL]  # the first worker had finished
    else:
        status = 1 if failure == "child raises" else -signal.SIGKILL
        sent = 8 if failure == "child is killed at exit" else 0
        with pytest.raises(RuntimeError, match=f"exited with status {status} after sending {sent} "):
            count_pi_1ab(200_000, 2, 2)
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
        ratio_scan("pi_1ab", (1, 1), [10**9 + 1])
    with pytest.raises(DomainError):
        ratio_scan("nonsense", (1, 1), [100])


def test_ratio_scan_mirror_kind():
    results = ratio_scan("D_1ab", (2, 2), [30, 100])
    assert [r.count for r in results] == [
        oracles.brute_D_1ab(30, 2, 2),
        oracles.brute_D_1ab(100, 2, 2),
    ]


def test_predictor_shapes():
    import math

    from triplesieve.constants import constant_C2, constant_C3, singular_series_CN

    x = 100_000
    llx = math.log(math.log(x))
    r3 = count_pi_1ab(x, 3, 3)
    assert r3.predicted == pytest.approx(
        constant_C3(1e-6).value * x / math.log(x) ** 3 * llx, rel=1e-12
    )
    r1 = count_pi_1ab(x, 1, 1)  # log log exponent floors at zero
    assert r1.predicted == pytest.approx(
        constant_C3(1e-6).value * x / math.log(x) ** 3, rel=1e-12
    )
    c = count_pi_1r(x, 2)
    assert c.predicted == pytest.approx(
        constant_C2(1e-6).value * x / math.log(x) ** 2, rel=1e-12
    )
    d = count_D_sr(10_000, 2, 3)
    assert d.predicted == pytest.approx(
        singular_series_CN(10_000) * 10_000 / math.log(10_000) ** 2 * math.log(math.log(10_000)) ** 2,
        rel=1e-12,
    )


def test_result_ratio_guard():
    res = TripleCountResult("pi_1ab", 4, {"a": 1, "b": 1}, 0, 0.0)
    assert res.ratio == 0.0
