"""How fast this CPU runs the interpreter right now.

The benchmark runs on a shared host whose speed drifts by up to a
factor of two in plateaus of tens of seconds, so wall-clock query times
of two runs of the same code differ by more than a regression bound can
allow.  So the loop times, between chunks of queries, a fixed pure-Python
kernel that does the kinds of work tanglekit does (small-int bit
operations, tuple and list building, slicing, dict lookups, calls), and
reports each query's time in reference seconds: its wall time times
REF_KERNEL_MS over the kernel's median time around it.  The kernel does
not touch tanglekit, so a change to the library moves reference times as
it moves wall times.  A change of host speed mostly cancels out: it moves
the kernel as much as the queries or, in some stretches, up to twice as
much, so the scaling may over-correct a drift but cannot hide a change
of the library.
"""

from __future__ import annotations

import statistics
from time import perf_counter

# A typical median wall time of the kernel on the host the benchmark was
# tuned on (2 shared cores, Python 3.11; it ranged from 8 to 15 ms): a
# reference millisecond is a wall millisecond when the host runs at that
# speed.
REF_KERNEL_MS = 9.5
# Kernel samples on each side of a chunk whose median gives its speed.
NEIGHBOURS = 5


def _step(rows, i):
    return tuple((r << 1 | r >> 3) & 0xFFFF ^ i for r in rows[i & 7:] + rows[: i & 7])


def kernel() -> int:
    """A fixed amount of pure-Python work; returns a checksum."""
    rows = tuple(range(1, 17))
    seen = {}
    total = 0
    for i in range(1500):
        rows = _step(rows, i)
        key = rows[i % 16] & 255
        seen[key] = seen.get(key, 0) + 1
        total += sum(r & 7 for r in rows) + len([r for r in rows if r & 1])
    return total + len(seen)


def sample() -> float:
    """Wall seconds of one kernel run."""
    start = perf_counter()
    kernel()
    return perf_counter() - start


def scales(samples: list[float]) -> list[float]:
    """Scale of chunk i, which ran between samples[i] and samples[i + 1]:
    REF_KERNEL_MS over the median of the kernel times around it."""
    out = []
    for i in range(len(samples) - 1):
        near = samples[max(0, i + 1 - NEIGHBOURS): i + 1 + NEIGHBOURS]
        out.append(REF_KERNEL_MS / 1e3 / statistics.median(near))
    return out


class RefClock:
    """Splits a run of timed calls into chunks of at least `chunk_s` wall
    seconds with a kernel sample between each two, and converts the
    calls' wall times to reference seconds."""

    def __init__(self, chunk_s: float):
        kernel()  # the first run of a loop is slower; keep it out of the samples
        self.chunk_s = chunk_s
        self.samples = [sample()]
        self.bounds = [0]  # index of the first call of each chunk
        self.since = perf_counter()
        self.wall: list[float] = []

    def add(self, seconds: float) -> None:
        """Record one call's wall time; sample the kernel if the chunk is full."""
        self.wall.append(seconds)
        if perf_counter() - self.since >= self.chunk_s:
            self._close()

    def _close(self) -> None:
        self.samples.append(sample())
        self.bounds.append(len(self.wall))
        self.since = perf_counter()

    def reference(self) -> list[float]:
        """Every call's time in reference seconds, in the order added."""
        if self.bounds[-1] < len(self.wall):
            self._close()
        out = []
        for (lo, hi), scale in zip(zip(self.bounds, self.bounds[1:]), scales(self.samples)):
            out.extend(t * scale for t in self.wall[lo:hi])
        return out

    def kernel_ms(self) -> float:
        return statistics.median(self.samples) * 1e3
