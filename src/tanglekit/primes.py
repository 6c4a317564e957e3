"""The prime table behind the prime monoid's phi.

The table is a module-level list filled by one sieve of Eratosthenes.
When an index n lies past it, the list is replaced by every prime up to
m (ln m + ln ln m), which exceeds the m-th prime for m >= 6 (Rosser and
Schoenfeld, Illinois J. Math. 6, 1962), where m is n or twice the table
length, whichever is larger, capped at MAX_INDEX; doubling keeps the
sieving of a run of increasing indices linear in the last limit.  Growth
runs under a lock and swaps the list in one assignment, so a concurrent
reader always sees a complete table.  An index past MAX_INDEX is a
resource limit, not bad input.
"""

from __future__ import annotations

import threading
from itertools import compress
from math import isqrt, log

from .errors import ResourceLimitError

MAX_INDEX = 10**6

_primes = [2, 3, 5, 7, 11, 13]
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
                flags = bytearray([1]) * (limit + 1)
                flags[:2] = b"\0\0"
                for p in range(2, isqrt(limit) + 1):
                    if flags[p]:
                        flags[p * p::p] = bytes(len(range(p * p, limit + 1, p)))
                _primes = list(compress(range(limit + 1), flags))
    return _primes[n - 1]
