"""Prime table used by the Euler products and the factor-counting sieve."""

import math
from functools import lru_cache

import numpy as np

from .errors import CapacityError

_SIEVE_CAP = 10**6  # covers sqrt of C(N)'s 1e12 and of the sieve's 1e10 + 6


@lru_cache(maxsize=8)
def primes_up_to(n: int) -> np.ndarray:
    """All primes <= n as an int64 array, by an Eratosthenes sieve of the odd numbers."""
    if n < 2:
        return np.empty(0, dtype=np.int64)
    if n > _SIEVE_CAP:
        raise CapacityError(f"prime table limited to {_SIEVE_CAP}, got {n}")
    mask = np.ones((n + 1) // 2, dtype=bool)  # mask[i] stands for 2i + 1
    for i in range(1, (math.isqrt(n) + 1) // 2):
        if mask[i]:
            p = 2 * i + 1
            mask[p * p // 2 :: p] = False  # the odd multiples of p from p^2
    primes = np.flatnonzero(mask)
    primes *= 2
    primes += 1
    primes[0] = 2  # the slot of 1, left set, holds the even prime
    return primes.astype(np.int64, copy=False)  # intp: no copy on 64-bit
