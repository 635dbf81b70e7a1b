"""Prime table used by the Euler products and the factor-counting sieve."""

from functools import lru_cache

import numpy as np

from .errors import CapacityError

_SIEVE_CAP = 200_000_000  # bool array of this size is ~200 MB; far above any current need


@lru_cache(maxsize=8)
def primes_up_to(n: int) -> np.ndarray:
    """All primes <= n as an int64 array, by a plain Eratosthenes sieve."""
    if n < 2:
        return np.empty(0, dtype=np.int64)
    if n > _SIEVE_CAP:
        raise CapacityError(f"prime table limited to {_SIEVE_CAP}, got {n}")
    mask = np.ones(n + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, int(n**0.5) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return np.nonzero(mask)[0].astype(np.int64, copy=False)  # intp: no copy on 64-bit
