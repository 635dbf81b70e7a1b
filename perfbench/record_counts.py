"""Record the exact counts the benchmark checks every count op against.

Run from the repository root:

    python3 perfbench/record_counts.py

For every recorded size it runs the program's own ``count`` command and an
independent oracle built here from a plain Eratosthenes sieve (no Omega
sieve): ``pi_1ab(x, 1, 1)`` counts primes p <= x with p + 2 and p + 6 prime,
and ``D_1ab(N, 2, 2)`` counts primes p <= N - 2 with N - p and p + 6 each a
prime or a product of two primes.  The table is written to
``perfbench/recorded.json`` only when both sources agree on every size.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "recorded.json"

# Count sizes within 0.5% of 1e8 (all even, so D_1ab accepts them), and tiny
# sizes for the smoke mode.
FULL_SIZES = [100_000_000 + 125_000 * k for k in range(-4, 5)]
SMOKE_SIZES = [100_000, 150_000, 200_000]
# Even N with different odd-prime-divisor structure for `constants CN=<N>`.
CN_VALUES = [30, 210, 2310, 30030, 1_000_000, 1_048_576, 999_999_000, 123_456_788]
# Buchstab points with independent reference values (closed forms on [1, 3],
# a quadrature of the delay equation on [3, 4], e^-gamma from u = 10 on).
W_POINTS = [1.5, 1.8, 2.25, 2.5, 2.75, 3.0, 3.25, 3.5, 3.75, 4.0, 10.0, 16.0, 32.0, 64.0]


def cli_count(kind: str, size: int, a: int, b: int) -> int:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-m", "triplesieve", "count", kind, str(size), str(a), str(b),
         "--no-timestamp"],
        env=env, cwd=ROOT, check=True, capture_output=True, text=True,
    ).stdout
    header, row = out.strip().splitlines()
    return int(dict(zip(header.split(","), row.split(",")))["count"])


def prime_mask(limit: int) -> np.ndarray:
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, int(limit**0.5) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return mask


def almost_prime_mask(is_prime: np.ndarray) -> np.ndarray:
    """n is a prime or a product of two primes (Omega(n) <= 2, n >= 2)."""
    limit = len(is_prime) - 1
    primes = np.nonzero(is_prime)[0]
    mask = is_prime.copy()
    for p in primes[primes * primes <= limit]:
        q = primes[(primes >= p) & (primes <= limit // p)]
        mask[p * q] = True
    return mask


def oracle_counts(sizes: list[int]) -> tuple[dict[int, int], dict[int, int]]:
    top = max(sizes) + 6
    is_prime = prime_mask(top)
    le2 = almost_prime_mask(is_prime)
    primes = np.nonzero(is_prime)[0]
    pi, d = {}, {}
    for n in sizes:
        p = primes[primes <= n]
        pi[n] = int((is_prime[p + 2] & is_prime[p + 6]).sum())
        p = primes[primes <= n - 2]
        d[n] = int((le2[n - p] & le2[p + 6]).sum())
    return pi, d


def record(sizes: list[int]) -> dict:
    pi_oracle, d_oracle = oracle_counts(sizes)
    pi, d = {}, {}
    for n in sizes:
        pi[n] = cli_count("pi_1ab", n, 1, 1)
        d[n] = cli_count("D_1ab", n, 2, 2)
        if (pi[n], d[n]) != (pi_oracle[n], d_oracle[n]):
            sys.exit(f"mismatch at {n}: program {pi[n]}, {d[n]}; "
                     f"oracle {pi_oracle[n]}, {d_oracle[n]}")
        print(f"{n}: pi_1ab(1,1)={pi[n]} D_1ab(2,2)={d[n]}", flush=True)
    return {"sizes": sizes,
            "pi_1ab_1_1": {str(n): pi[n] for n in sizes},
            "D_1ab_2_2": {str(n): d[n] for n in sizes}}


def main() -> None:
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                            text=True).stdout.strip() or "unknown"
    doc = {
        "source": f"program `count` output at commit {commit}, each value equal to an "
                  "independent prime/semiprime-mask oracle (perfbench/record_counts.py)",
        "full": record(FULL_SIZES),
        "smoke": record(SMOKE_SIZES),
        "cn_values": CN_VALUES,
        "w_points": W_POINTS,
    }
    OUT.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
