"""The prime table behind the prime monoid's phi.

The table is a module-level array("I") of 4-byte primes, about 4 MB at
MAX_INDEX (every prime up to nth_prime(MAX_INDEX) = 15,485,863 fits in
4 bytes), filled by one sieve of Eratosthenes over the odd numbers:
flag i stands for 2i + 1.  When an index n lies past the table, it is
replaced by every prime up to m (ln m + ln ln m), which exceeds the
m-th prime for m >= 6 (Rosser and Schoenfeld, Illinois J. Math. 6,
1962), where m is n or twice the table length, whichever is larger,
capped at MAX_INDEX; doubling keeps the sieving of a run of increasing
indices linear in the last limit.  Growth runs under a lock and swaps
in the new array in one assignment, never extending the live one, so a
concurrent reader always sees a complete table.  An index past
MAX_INDEX is a resource limit, not bad input.
"""

from __future__ import annotations

import threading
from array import array
from itertools import compress
from math import isqrt, log

from .errors import ResourceLimitError

MAX_INDEX = 10**6

_primes = array("I", [2, 3, 5, 7, 11, 13])
_lock = threading.Lock()


def nth_prime(n: int) -> int:
    """The n-th prime, 1-based (nth_prime(1) == 2).  Raises ValueError
    for n < 1 and ResourceLimitError for n > MAX_INDEX."""
    global _primes
    if n < 1:
        raise ValueError(f"prime index {n} outside 1..{MAX_INDEX}")
    if n > MAX_INDEX:
        raise ResourceLimitError(f"prime index {n} exceeds the table limit {MAX_INDEX}")
    if n > len(_primes):
        with _lock:
            if n > len(_primes):
                m = min(max(n, 2 * len(_primes)), MAX_INDEX)
                limit = int(m * (log(m) + log(log(m)))) + 1
                flags = bytearray([1]) * ((limit + 1) // 2)  # the odd numbers up to limit
                flags[0] = 0  # 1 is not a prime
                for p in range(3, isqrt(limit) + 1, 2):
                    if flags[p // 2]:
                        start = p * p // 2
                        flags[start::p] = bytes(len(range(start, len(flags), p)))
                table = array("I", [2])
                table.extend(compress(range(1, limit + 1, 2), flags))
                _primes = table
    return _primes[n - 1]
