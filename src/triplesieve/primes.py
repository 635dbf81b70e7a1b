"""Prime table used by the Euler products and the factor-counting sieve.

The table is a read-only int64 memoryview filled from a bytearray sieve, so
this module imports no numpy and a table costs 8 bytes a prime, as an int64
array would.  The Euler products run in scalar math over it; a counting
process views it as int64 without a conversion of each prime, and a forked
count's caller, whose peak is the count's, builds it without faulting numpy
code in.  Its workers inherit it with the fork.
"""

import math
from functools import lru_cache
from itertools import compress

from .errors import CapacityError

_SIEVE_CAP = 10**6  # covers sqrt of the sieve's 1e10 + 6


@lru_cache(maxsize=2)  # a count's table and the Euler products': a scan of N holds no more
def primes_up_to(n: int) -> memoryview:
    """All primes <= n, ascending, as a read-only int64 memoryview, by an
    Eratosthenes sieve of the odd numbers."""
    if n < 2:
        return memoryview(b"").cast("q")
    if n > _SIEVE_CAP:
        raise CapacityError(f"prime table limited to {_SIEVE_CAP}, got {n}")
    odd = bytearray([1]) * ((n + 1) // 2)  # odd[i] stands for 2i + 1
    for i in range(1, (math.isqrt(n) + 1) // 2):
        if odd[i]:
            p = 2 * i + 1
            multiples = range(p * p // 2, len(odd), p)  # the odd multiples of p from p^2
            odd[multiples.start :: p] = bytes(len(multiples))
    table = memoryview(bytearray(8 * odd.count(1))).cast("q")
    for i, p in enumerate(compress(range(1, n + 1, 2), odd)):
        table[i] = p
    table[0] = 2  # the slot of 1 holds the even prime
    return table.toreadonly()
