"""Seeded words and their reference answers.

The words are generated here rather than with tanglekit's own
`words.random_word` or `iter_closed_words`, so that a change to the
library cannot change the traffic.  Reference answers come from routes
the timed queries do not take: the oracle sweep forest, canonicalised
by this module, and closed forms (a depth-d nest has d circles; prime
towers run 2, 3, 5, 11, ...).

Symbol words are tuples of (c, d) pairs, index 0 at the bottom of the
diagram; generators are (kind, n, k) triples in the same order.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import compress

# tanglekit refuses prime indices above this (its table is capped), so
# inputs that need a larger index are left out for now.
REFUSED_PRIME_INDEX = 10**6


class PrimeTable:
    """Reference n-th primes from a segmented sieve, independent of
    tanglekit.primes; an array keeps a million primes in 4 MB."""

    def __init__(self):
        self._primes = array("I", [2, 3])

    def nth(self, n: int) -> int:
        while len(self._primes) < n:
            self._extend()
        return self._primes[n - 1]

    def _extend(self) -> None:
        primes = self._primes
        lo = primes[-1] + 1
        hi = lo + min(lo, 1 << 20)  # hi <= 2*lo, so every sieving prime is known
        flags = bytearray([1]) * (hi - lo)
        for p in primes:
            if p * p >= hi:
                break
            start = max(p * p, -(-lo // p) * p)
            flags[start - lo::p] = bytes(len(range(start - lo, hi - lo, p)))
        primes.extend(compress(range(lo, hi), flags))

    def tower(self, depth: int) -> int:
        """Prime value of a chain of `depth` nested circles: 1, 2, 3, 5, 11, ..."""
        value = 1
        for _ in range(depth):
            value = self.nth(value)
        return value


# -- words ------------------------------------------------------------------

def random_word(rng, length: int) -> tuple:
    """A valid closed symbol word of exactly `length` (even) symbols: a
    random walk on the point count q, opening with (-2,d), |d| <= q, and
    closing with (2,d), |d| <= q-2, forced to land back on 0."""
    out = []
    q = 0
    for i in range(length):
        can_open = q + 2 <= length - i - 1
        if q >= 2 and (not can_open or rng.random() < 0.5):
            half = (q - 2) // 2
            out.append((2, 2 * rng.randint(-half, half)))
            q -= 2
        else:
            half = q // 2
            out.append((-2, 2 * rng.randint(-half, half)))
            q += 2
    return tuple(out)


def nest(depth: int) -> tuple:
    """Centered nest of `depth` concentric circles."""
    return ((-2, 0),) * depth + ((2, 0),) * depth


def tower_row(depths) -> tuple:
    """Towers (chains of nested circles) side by side, all open at once,
    so the peak width is 2*sum(depths)+1.  Built top-down as generators:
    each tower's caps go inside the previous cap, right of every earlier
    tower; then the towers close innermost-first, rightmost tower first."""
    top_down = []
    n = 1
    for depth in depths:
        inner = n  # outer region: the last interval
        for _ in range(depth):
            top_down.append(("cap", n, inner + 1))
            n += 2
            inner += 1
    for depth in reversed(depths):
        for level in range(depth):
            top_down.append(("cup", n - 2, n - depth + level))
            n -= 2
    return symbols(reversed(top_down))


def symbols(gens) -> tuple:
    return tuple((2 if kind == "cap" else -2, 2 * k - n - 3) for kind, n, k in gens)


def generators(sym) -> list:
    """The closed generator word with this symbol encoding."""
    out = []
    pre = 0
    for c, d in sym:
        post = -pre - c
        n = post + 1 if c == 2 else post - 1
        out.append(("cap" if c == 2 else "cup", n, (d + n + 3) // 2))
        pre += c
    return out


def mirror(sym) -> tuple:
    """Left-right reflection: the same nesting forest, siblings reversed."""
    return tuple((c, -d) for c, d in sym)


def sym_text(sym) -> str:
    return "".join(f"({c},{d})" for c, d in sym)


def gen_text(sym) -> str:
    return ";".join(f"{'H' if kind == 'cap' else 'U'}({n},{k})" for kind, n, k in generators(sym))


# -- forests ------------------------------------------------------------------

def sweep_forest(sym, tracer) -> tuple:
    """Nesting forest by the oracle's geometric sweep."""
    from tanglekit.operators import Generator
    from tanglekit.oracle import trace_diagram

    word = tuple(Generator(*g) for g in generators(sym))
    with tracer.span("oracle.sweep", work=len(word)):
        return trace_diagram(word)


def canon(forest) -> str:
    """Canonical parenthesis string (own sibling order: plain sort)."""
    return "".join(sorted("(" + canon(tree) + ")" for tree in forest))


def parse_parens(text: str) -> tuple:
    """Forest of a balanced parenthesis string; ValueError if unbalanced."""
    stack: list[list] = [[]]
    for ch in text:
        if ch == "(":
            stack.append([])
        elif ch == ")" and len(stack) > 1:
            children = stack.pop()
            stack[-1].append(tuple(children))
        else:
            raise ValueError(f"not a parenthesis string: {text[:40]!r}")
    if len(stack) != 1:
        raise ValueError(f"unbalanced parenthesis string: {text[:40]!r}")
    return tuple(stack[0])


def prime_value(forest, table: PrimeTable) -> tuple[int, int]:
    """(prime invariant, largest prime index it needs), by recursion on
    the forest: a forest is the product over its trees of p(value of the
    tree's children).  Index 0 means no prime is needed."""
    value, needed = 1, 0
    for tree in forest:
        inner, inner_needed = prime_value(tree, table)
        needed = max(needed, inner, inner_needed)
        if needed > REFUSED_PRIME_INDEX:
            return 0, needed
        value *= table.nth(inner)
    return value, needed


@dataclass(frozen=True)
class Shape:
    symbols: int
    peak_width: int
    depth: int
    circles: int
    prime_index: int


def shape(sym, forest, prime_index: int) -> Shape:
    q = peak = 0
    for c, _ in sym:
        q -= c
        peak = max(peak, q)

    def depth(f):
        return 1 + max(map(depth, f)) if f else 0

    def circles(f):
        return sum(1 + circles(t) for t in f)

    return Shape(len(sym), peak + 1, depth(forest), circles(forest), prime_index)
