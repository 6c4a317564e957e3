"""The prime table behind the prime monoid's phi.

The table is a module-level array("I") of 4-byte primes, about 4 MB at
MAX_INDEX (every prime up to nth_prime(MAX_INDEX) = 15,485,863 fits in
4 bytes), filled by a sieve of Eratosthenes on a mod-30 wheel
(Pritchard, Acta Informatica 17, 1982): flags are kept only for the
numbers prime to 30, and candidate j stands for
30 (j >> 3) + _WHEEL[j & 7], 8 candidates in every 30 numbers.  The
table is read out a block of candidates at a time: compress picks the
offsets of the block's primes from a precomputed tuple, and one integer
sum adds the block's base to every 4-byte lane, so no int is made for a
composite.  When an index n lies past the table, it is replaced by
every prime up to m (ln m + ln ln m), which exceeds the m-th prime for
m >= 6 (Rosser and Schoenfeld, Illinois J. Math. 6, 1962), where m is n
or twice the table length, whichever is larger, capped at MAX_INDEX;
doubling keeps the sieving of a run of increasing indices linear in the
last limit.  Growth runs under a lock and swaps in the new array in one
assignment, never extending the live one, so a concurrent reader always
sees a complete table.  An index past MAX_INDEX is a resource limit,
not bad input.
"""

from __future__ import annotations

import sys
import threading
from array import array
from bisect import bisect_left
from itertools import compress
from math import isqrt, log

from .errors import ResourceLimitError

MAX_INDEX = 10**6

_WHEEL = (1, 7, 11, 13, 17, 19, 23, 29)  # the residues mod 30 prime to 30
_BLOCK = 4096  # candidates read out at a time, whole turns of the wheel

_primes = array("I", [2, 3, 5, 7, 11, 13])
_lock = threading.Lock()


def _candidate(j: int) -> int:
    """The number that candidate j stands for."""
    return 30 * (j >> 3) + _WHEEL[j & 7]


def _rank(v: int) -> int:
    """The number of candidates below v: v's index when v is one."""
    return 8 * (v // 30) + bisect_left(_WHEEL, v % 30)


def _sieve(limit: int) -> array:
    """A new array("I") of every prime up to limit, for limit >= 5."""
    n = _rank(limit + 1)
    flags = bytearray([1]) * n
    flags[0] = 0  # 1 is not a prime
    for i in range(1, _rank(isqrt(limit) + 1)):
        if flags[i]:
            p = _candidate(i)
            step = 8 * p  # p * m and p * (m + 30) lie 8p candidates apart
            for j in range(i, i + 8):  # m from p on, one class of m mod 30 each
                start = _rank(p * _candidate(j))
                flags[start::step] = bytes(len(range(start, n, step)))
    assert limit < 2**32  # so no lane's sum carries into the next
    table = array("I", [2, 3, 5])
    bits = 8 * table.itemsize
    block = min(_BLOCK, n)
    offsets = tuple(map(_candidate, range(block)))
    ones = int.from_bytes(array("I", [1]) * block, sys.byteorder)
    for s in range(0, n, block):
        lanes = array("I", compress(offsets, flags[s:s + block]))
        k = len(lanes)
        total = int.from_bytes(lanes, sys.byteorder) + 30 * (s >> 3) * (ones >> bits * (block - k))
        table.frombytes(total.to_bytes(k * table.itemsize, sys.byteorder))
    return table


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
                _primes = _sieve(limit)
    return _primes[n - 1]
