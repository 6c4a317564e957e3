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

One loop, `_run`, edits in place a list of region labels (one per
interval) and a dict from label to value: one value per region, since
every interval of a region holds the same value.  Its cap and cup edits
are inline, with the monoid's operations bound to locals.  A cap or a
sealing cup costs an O(w) memmove of the label list and O(1) Python
steps; only a merging cup scans the list, with `index`, to relabel one
of the two regions.  It takes a valid state, since a TangleState checks
itself when it is built, and checked steps.  A cup reads x off the
labels: the flanking intervals share a region exactly when they carry
one label.  `eval_word` and `closed_values` take a word of either form
as the checked (is_cap, slot) steps of words.slots and
words.closed_slots and run them, so a word adds O(1) Python steps per
generator and a symbol word needs no Generator; `closed_values` checks
every word, closedness included, before it evaluates any.  The public
`cap` and `cup` check their slot and run one step, so each also pays a
copy and a new TangleState, which checks itself in O(w) Python steps.
`random_state` walks the public operators from the trivial state.  With
0-based intervals: a cap splits interval k-2 into k-2, k-1 (a fresh
label, the new region, valued zero) and k (the label of k-2 again); a
cup folds intervals k-2 and k into one and drops k-1.  If k-2 and k
carry one label, the region of k-1 is sealed off and leaves the dict.
Otherwise the two regions merge: the intervals labelled like k gain the
label of k-2, and the merged region holds the (+) of their values: the
paper's join (+) meet, by axiom P2, so no cup calls a lattice operation.

A word of generators is evaluated right-to-left: the rightmost factor
is the topmost piece of the diagram and is applied first.
"""

from __future__ import annotations

import random

from .lomonoid import MonoidSpec, Value
from .states import TangleState, trivial
from .words import Generator  # noqa: F401  (re-exported)
from .words import closed_slots, slots, width_profile


def cap(state: TangleState, k: int) -> TangleState:
    """Insert a new region at slot k: width n -> n+2."""
    if not 2 <= k <= state.n + 1:
        raise ValueError(f"cap slot k={k} outside 2..{state.n + 1} for width {state.n}")
    return _run(((True, k),), state)


def cup(state: TangleState, k: int) -> TangleState:
    """Close the region at slot k: width n+2 -> n."""
    n = state.n
    if n < 3:
        raise ValueError(f"cup needs width >= 3, got {n}")
    if not 2 <= k <= n - 1:
        raise ValueError(f"cup slot k={k} outside 2..{n - 1} for width {n}")
    return _run(((False, k),), state)


def mirror(state: TangleState) -> TangleState:
    """Left-right reflection; an involution."""
    return TangleState(state.n, state.labels[::-1], state.values[::-1], state.spec)


def add_value(state: TangleState, m: Value) -> TangleState:
    """Add m into the region of the first interval (and therefore into
    every interval of that region)."""
    first = state.labels[0]
    bumped = state.spec.oplus(m, state.values[0])
    values = tuple(
        bumped if label == first else value
        for label, value in zip(state.labels, state.values)
    )
    return TangleState(state.n, state.labels, values, state.spec)


def eval_steps(word, start: TangleState):
    """An iterator of (generator, state after it) along a composition-
    ordered word (leftmost = bottom of diagram), rightmost generator
    first.  The arities are checked against start's width on the call,
    so a bad word raises before any step is read."""
    width_profile(word, start.n)

    def steps():
        state = start
        for gen in reversed(word):
            state = cap(state, gen.k) if gen.kind == "cap" else cup(state, gen.k)
            yield gen, state

    return steps()


def _run(steps, start: TangleState) -> TangleState:
    """The state after the checked (is_cap, slot) steps, run on one
    label list and one region-value dict copied from start."""
    spec, fresh = start.spec, max(start.labels) + 1
    zero, oplus, phi = spec.zero, spec.oplus, spec.phi
    labels, value = list(start.labels), dict(zip(start.labels, start.values))
    for is_cap, k in steps:
        if is_cap:  # the fresh label k-1 is the new region; k repeats k-2's label
            labels[k - 1:k - 1] = (fresh, labels[k - 2])
            value[fresh] = zero
            fresh += 1
            continue
        a, inner, b = labels[k - 2:k + 1]
        del labels[k - 1:k + 1]
        if a == b:  # flanking intervals share a region: the one between is sealed
            value[a] = oplus(value[a], phi(value.pop(inner)))
            continue
        value[a] = oplus(value[a], value.pop(b))  # = join (+) meet, by P2
        i = -1  # b's intervals, on either side of a's, join a's region
        try:
            while True:
                i = labels.index(b, i + 1)
                labels[i] = a
        except ValueError:  # no interval labelled b is left
            pass
    return TangleState(len(labels), tuple(labels), tuple(map(value.__getitem__, labels)), spec)


def eval_word(word, start: TangleState) -> TangleState:
    """The state after the whole word; one equal to start for the empty word."""
    return _run(slots(word, start.n), start)


def closed_values(word_list, spec: MonoidSpec) -> list[Value]:
    """Evaluate closed words, generator or symbol form, on the trivial
    state and return each one's value.  Every word is checked before
    any is evaluated, so bad input wins over a resource limit."""
    checked = [closed_slots(word) for word in word_list]
    start = trivial(spec)
    return [_run(steps, start).values[0] for steps in checked]


def random_state(width: int, seed, spec: MonoidSpec) -> TangleState:
    """Seeded random state of the given width, built geometrically: a
    random walk of cap/cup applications from trivial(), sprinkled with
    random region-value additions.  Only widths 1 + 2k are reachable.

    `seed` may be an int or a random.Random.
    """
    if width < 1 or width % 2 == 0:
        raise ValueError(f"width {width} is not reachable (need odd width >= 1)")
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)

    state = trivial(spec)
    state = add_value(state, spec.sample(rng))
    drift = rng.randrange(0, 3)
    target_peak = width + 2 * drift
    # Climb with caps to a peak above the target, then randomly wander
    # back down, keeping the width legal for a cup at every descent.
    while state.n < target_peak:
        k = rng.randrange(2, state.n + 2)
        state = cap(state, k)
        if rng.randrange(4) == 0:
            state = add_value(state, spec.sample(rng))
    while state.n > width:
        if state.n + 2 <= target_peak and rng.randrange(3) == 0:
            state = cap(state, rng.randrange(2, state.n + 2))
        else:
            state = cup(state, rng.randrange(2, state.n))
        if rng.randrange(5) == 0:
            state = add_value(state, spec.sample(rng))
    return state
