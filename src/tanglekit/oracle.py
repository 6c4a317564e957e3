"""Independent ground truth: geometric strand tracing and exhaustive
forest enumeration.

`trace_diagram` never touches the matrix representation: it sweeps the
diagram top to bottom, a cap or cup at each slot that words.closed_slots
lists for a word of either form, maintaining the ordered list of live
strands and a union-find over them, and reads the nesting forest
straight off the geometry.  Containment is decided per closing row: the
curves enclosing the closing point are exactly those crossing the row
an odd number of times to its left, and the innermost such curve owns
the new circle.  Disagreement between this sweep and the rewriting
pipeline localizes a bug to one side or the other, which is the whole
point.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InternalInvariantError
from .lomonoid import count_monoid, prime_monoid
from .rewriting import Forest, canonical, forest_value, to_forest
from .words import closed_slots


class _UnionFind:
    def __init__(self):
        self.parent: dict[int, int] = {}

    def add(self, x: int) -> None:
        self.parent[x] = x

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> int:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra
        return ra


def trace_diagram(word) -> Forest:
    """Sweep a closed word of either form into its nesting forest, cap
    and cup at the slots of words.closed_slots, so an invalid or open
    word raises ValueError before the sweep starts.  A closed word
    leaves no live strand and no orphaned curve; either one is an
    InternalInvariantError.

    Two passes.  The sweep itself records, for each curve closure, a
    snapshot of the strand ids strictly left of the closing point; the
    union-find keeps merging arcs until the end, when every strand id
    knows which finished curve it belongs to.  Only then is containment
    decided: a curve crossing the closing row an odd number of times to
    the left of the closing point encloses it, and the enclosing curve
    owning the nearest such strand is the innermost, hence the parent.
    Parity must use final curves, not the open arcs at closing time:
    two arcs straddling the point may later merge into one curve whose
    crossings pair up.
    """
    strands: list[int] = []
    uf = _UnionFind()
    closures: list[tuple[int, tuple[int, ...]]] = []  # (own id, left snapshot)
    fresh = 0

    for is_cap, k in closed_slots(word):
        at = k - 2  # the generator's two points sit at slots k-1, k
        if is_cap:
            a, b = fresh, fresh + 1
            fresh += 2
            uf.add(a)
            uf.add(b)
            uf.union(a, b)
            strands[at:at] = [a, b]
        else:
            a, b = strands[at], strands[at + 1]
            if uf.find(a) == uf.find(b):
                # Same arc: its two loose ends meet, closing a curve.
                closures.append((a, tuple(strands[:at])))
            else:
                uf.union(a, b)
            del strands[at:at + 2]

    if strands:
        raise InternalInvariantError("sweep ended with live strands on a closed word")

    children: dict[int, list] = {}
    roots: list[tuple] = []
    for own, left in closures:  # chronological: children close before parents
        me = uf.find(own)
        tree = tuple(children.pop(me, []))
        owner = _innermost_enclosing(left, uf)
        if owner is None:
            roots.append(tree)
        else:
            children.setdefault(owner, []).append(tree)
    if children:
        raise InternalInvariantError("sweep left orphaned curves on a closed word")
    return tuple(roots)


def _innermost_enclosing(left_strands: tuple[int, ...], uf: _UnionFind) -> int | None:
    """Final curve enclosing the closing point most tightly: the curve
    of the nearest left strand among curves with an odd number of
    strands on the left (even counts do not straddle the point)."""
    counts: dict[int, int] = {}
    for s in left_strands:
        r = uf.find(s)
        counts[r] = counts.get(r, 0) + 1
    for s in reversed(left_strands):
        r = uf.find(s)
        if counts[r] % 2 == 1:
            return r
    return None


# -- exhaustive enumeration --------------------------------------------

def enumerate_forests(n_circles: int) -> list[Forest]:
    """Every unordered forest with exactly n circles, once each, in
    canonical-string order.  Collects the canonical strings of all
    balanced-parenthesis words of n pairs and reads each one back as a
    forest, siblings in canonical order."""
    if not 0 <= n_circles <= 8:
        raise ValueError(f"circle count {n_circles} outside 0..8")
    strings = {canonical(to_forest(word)) for word in _dyck_words(n_circles)}
    return [
        to_forest(tuple((-2, 0) if ch == "(" else (2, 0) for ch in s))
        for s in sorted(strings, key=lambda s: (len(s), s))
    ]


def _dyck_words(pairs: int):
    word: list = []

    def build(opens_left: int, depth: int):
        if opens_left == 0 and depth == 0:
            yield tuple(word)
            return
        if opens_left > 0:
            word.append((-2, 0))
            yield from build(opens_left - 1, depth + 1)
            word.pop()
        if depth > 0:
            word.append((2, 0))
            yield from build(opens_left, depth - 1)
            word.pop()

    yield from build(pairs, 0)


@dataclass(frozen=True)
class CompletenessRow:
    circles: int
    canon: str
    prime_value: int
    count_value: int


@dataclass(frozen=True)
class CompletenessReport:
    max_circles: int
    rows: tuple[CompletenessRow, ...]
    collisions: tuple[tuple[str, str, int], ...]

    @property
    def ok(self) -> bool:
        return not self.collisions

    def render(self) -> str:
        lines = []
        for row in self.rows:
            canon = row.canon if row.canon else "-"
            lines.append(f"{canon} {row.prime_value} {row.count_value}")
        for a, b, value in self.collisions:
            lines.append(f"COLLISION {a or '-'} {b or '-'} {value}")
        lines.append(
            f"total {len(self.rows)} forests up to {self.max_circles} circles, "
            f"{len(self.collisions)} collisions"
        )
        return "\n".join(lines)


def completeness_report(max_circles: int) -> CompletenessReport:
    """Prime invariant over every forest with at most max_circles
    circles.  A collision (two forests, one value) is reported as a
    failed check, not raised."""
    if not 0 <= max_circles <= 8:
        raise ValueError(f"circle count {max_circles} outside 0..8")
    prime = prime_monoid()
    count = count_monoid()
    rows = []
    by_value: dict[int, str] = {}
    collisions = []
    for n in range(max_circles + 1):
        for forest in enumerate_forests(n):
            canon = canonical(forest)
            pv = forest_value(forest, prime)
            cv = forest_value(forest, count)
            rows.append(CompletenessRow(n, canon, pv, cv))
            if pv in by_value:
                collisions.append((by_value[pv], canon, pv))
            else:
                by_value[pv] = canon
    return CompletenessReport(max_circles, tuple(rows), tuple(collisions))
