"""Elementary operators on states.

`cap(state, k)` composes the diagram with a local maximum at slot k
(width n -> n+2); `cup(state, k)` composes with a local minimum (width
n+2 -> n).  Slots are 1-based with 2 <= k <= n+1, so the new or closed
region always has an interval on each side.

The paper's formulas are the specification; tests/operator_spec.py
keeps them, and the tests check these functions against them:

cap:  R' = M R M' + D,        v' = M * v
cup:  R' = (M' R M)^2,        v' = R' * [(M' * v) (+) (e_{k-1} * x)]

where M is the insertion map for slot k, D marks the new region's
diagonal entry, and x is the cup value: if the two intervals flanking
the cup already share a region, the region between them is being sealed
off and x = phi(value inside); otherwise two regions merge and
x = meet of their values (their join is already present, and
join (+) meet = (+) of both).

The code edits the region rows (one bitmask int per interval) directly,
at O(w) row operations per generator of width w, and relies on the
input being a valid state.  With 0-based intervals: a cap splits
interval k-2 into k-2, k-1 (the new region) and k, shifting every
row's higher bits up by two; a cup folds intervals k-2 and k into one,
drops k-1, and gives every row of the two merged regions their union
(regions are equivalence classes, so merging two needs no closure)
and the value join (+) x.

A word of generators is evaluated right-to-left: the rightmost factor
is the topmost piece of the diagram and is applied first.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import boolmat
from .boolmat import BitMatrix
from .lomonoid import MonoidSpec, Value, act
from .states import TangleState, ends_connected, trivial


@dataclass(frozen=True)
class Generator:
    """A cap or cup reference: kind, width parameter n, slot k.

    A cap with parameter n maps width n to n+2; a cup with parameter n
    maps width n+2 down to n.  Both require 2 <= k <= n+1.
    """

    kind: str
    n: int
    k: int

    def __post_init__(self):
        if self.kind not in ("cap", "cup"):
            raise ValueError(f"unknown generator kind {self.kind!r}")
        if self.n < 1:
            raise ValueError(f"generator width parameter {self.n} must be >= 1")
        if not 2 <= self.k <= self.n + 1:
            raise ValueError(
                f"slot k={self.k} outside 2..{self.n + 1} for width parameter {self.n}"
            )

    @property
    def in_width(self) -> int:
        return self.n if self.kind == "cap" else self.n + 2

    @property
    def out_width(self) -> int:
        return self.n + 2 if self.kind == "cap" else self.n

    def symbol(self) -> tuple[int, int]:
        """(+-2, d) code: d is strands-left minus strands-right."""
        c = 2 if self.kind == "cap" else -2
        return (c, 2 * self.k - self.n - 3)

    def text(self) -> str:
        letter = "H" if self.kind == "cap" else "U"
        return f"{letter}({self.n},{self.k})"


def cap(state: TangleState, k: int) -> TangleState:
    """Insert a new region at slot k: width n -> n+2."""
    n = state.n
    if not 2 <= k <= n + 1:
        raise ValueError(f"cap slot k={k} outside 2..{n + 1} for width {n}")
    lo = (1 << (k - 1)) - 1
    rows = tuple((x & lo) | ((x >> (k - 2)) << k) for x in state.region.bits)
    region = BitMatrix(n + 2, n + 2, rows[:k - 1] + (1 << (k - 1),) + rows[k - 2:])
    v = state.values
    values = v[:k - 1] + (state.spec.zero,) + v[k - 2:]
    return TangleState(n + 2, region, values, state.spec)


def cup_value(state: TangleState, k: int) -> Value:
    """The value injected at a cup at slot k of this state."""
    n = state.n
    if not (n >= 3 and 2 <= k <= n - 1):
        raise ValueError(f"cup slot k={k} outside 2..{n - 1} for width {n}")
    v = state.values
    if state.region.entry(k - 2, k):  # flanking intervals share a region
        return state.spec.phi(v[k - 1])
    return state.spec.meet(v[k - 2], v[k])


def cup(state: TangleState, k: int) -> TangleState:
    """Close the region at slot k: width n+2 -> n."""
    m_in = state.n
    if m_in < 3:
        raise ValueError(f"cup needs width >= 3, got {m_in}")
    n = m_in - 2
    if not 2 <= k <= n + 1:
        raise ValueError(f"cup slot k={k} outside 2..{n + 1} for width {m_in}")
    spec = state.spec
    v = state.values
    joined = spec.oplus(spec.join(v[k - 2], v[k]), cup_value(state, k))
    lo = (1 << (k - 1)) - 1
    rows = [(x & lo) | ((x >> k) << (k - 2)) for x in state.region.bits]
    merged = rows[k - 2] | rows[k]
    del rows[k - 1:k + 1]
    values = list(v[:k - 1] + v[k + 1:])
    bit = 1 << (k - 2)
    for i, x in enumerate(rows):
        if x & bit:
            rows[i] = merged
            values[i] = joined
    return TangleState(n, BitMatrix(n, n, tuple(rows)), tuple(values), spec)


def mirror(state: TangleState) -> TangleState:
    """Left-right reflection; an involution."""
    s = boolmat.reversal(state.n)
    region = s @ state.region @ s
    values = act(s, state.values, state.spec)
    return TangleState(state.n, region, values, state.spec)


def add_value(state: TangleState, m: Value) -> TangleState:
    """Add m into the region of the first interval (and therefore into
    every interval of that region)."""
    spec = state.spec
    bumped = (spec.oplus(m, state.values[0]),) + state.values[1:]
    values = act(state.region, bumped, spec)
    return TangleState(state.n, state.region, values, spec)


def encircle_state(state: TangleState) -> TangleState:
    """Surround the whole picture with one new curve: width n -> n+2.

    Requires the first and last intervals to share a region (true for
    everything reachable from trivial()); preserves that property.
    """
    if not ends_connected(state):
        raise ValueError("encircle_state needs the outer intervals connected")
    n = state.n
    e = boolmat.inner_embed(n)
    region = e @ state.region @ e.transpose() + boolmat.outer_corners(n + 2)
    values = act(e, state.values, state.spec)
    return TangleState(n + 2, region, values, state.spec)


def shift(gen: Generator) -> Generator:
    """Reindex a generator for evaluation inside one extra circle:
    (kind, n, k) -> (kind, n+2, k+1).  Its symbol code is unchanged."""
    return Generator(gen.kind, gen.n + 2, gen.k + 1)


def eval_steps(word, start: TangleState):
    """Yield (generator, state after it) along a composition-ordered
    word (leftmost = bottom of diagram), rightmost generator first.
    The arities are checked against start's width before any step."""
    from .words import width_profile  # deferred: words imports this module

    width_profile(word, start.n)
    state = start
    for gen in reversed(word):
        state = cap(state, gen.k) if gen.kind == "cap" else cup(state, gen.k)
        yield gen, state


def eval_word(word, start: TangleState) -> TangleState:
    """The state after the whole word; start itself for the empty word."""
    state = start
    for _, state in eval_steps(word, start):
        pass
    return state


def eval_closed(word, spec: MonoidSpec) -> Value:
    """Evaluate a closed word on the trivial state and return the one
    value of the resulting width-1 state."""
    final = eval_word(word, trivial(spec))
    if final.n != 1:
        raise ValueError(f"word is not closed: final width {final.n}")
    return final.values[0]
