"""Independent ground truth: geometric strand tracing and exhaustive
forest enumeration.

`trace_diagram` never touches the matrix representation: it sweeps the
diagram top to bottom, a cap or cup at each slot that words.closed_slots
lists for a word of either form.  One pass joins strands into curves by
union-find; a second walks the caps alone, giving each strand the
innermost curve just to its right, so each cap reads its curve's parent
off the strand left of it.  Disagreement between this sweep and the
rewriting pipeline localizes a bug to one side or the other, which is
the whole point.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InternalInvariantError
from .lomonoid import count_monoid, prime_monoid
from .rewriting import Forest, canonical, forest_value, to_forest
from .words import closed_slots


def _find(parent: list[int], x: int) -> int:
    """Root of strand x, halving the path on the way up."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def trace_diagram(word) -> Forest:
    """Sweep a closed word of either form into its nesting forest, cap
    and cup at the slots of words.closed_slots, so an invalid or open
    word raises ValueError before the sweep starts.  A closed word
    leaves no live strand and no orphaned curve; either one is an
    InternalInvariantError.

    Pass 1 walks the slots, O(1) Python steps per generator: it joins
    strands into curves, one union-find node per cap (cap j's strands
    are 2j and 2j+1, node j), so a cup on two strands of one curve
    closes it and a cup on two curves joins them; and it records the
    strand left of each cap, None at slot 2.  Pass 2 walks the caps
    alone: caps and cups only insert and delete strands, and the region
    right of a cup's pair is the one left of it, so a strand's `right`,
    the innermost final curve just right of it, is fixed when its cap
    is read.  Left of the first strand lies outside every curve.  The
    region a cap of curve c opens in belongs to c or to c's parent, and
    at c's first cap to the parent, so that cap records it.  A cap in c
    itself bulges the outside in, so the region between its strands
    belongs to the parent; a cap in the parent bulges c's inside out.

    Why this holds: on any row each final curve's strands pair up like
    brackets, and the brackets of disjoint curves nest; a cap or a cup
    adds or removes two adjacent strands of one curve, so a strand
    keeps its opener or closer role as long as it lives; and the
    bracket just around a curve's bracket belongs to its parent.  The
    curves must be final, which is why containment waits for pass 2:
    two arcs straddling a point may later merge into one curve whose
    crossings pair up.
    """
    steps = closed_slots(word)
    parent: list[int] = []
    left: list[int | None] = []  # per cap, the strand just left of it
    strands: list[int] = []
    closing: list[int] = []  # curve roots, in the order the curves close
    for is_cap, k in steps:
        at = k - 2  # the generator's two points sit at slots k-1, k
        if is_cap:
            j = len(parent)  # cap j's strands are 2j and 2j+1, both on node j
            parent.append(j)
            left.append(strands[at - 1] if at else None)
            strands[at:at] = (2 * j, 2 * j + 1)
        else:
            a, b = _find(parent, strands[at] >> 1), _find(parent, strands[at + 1] >> 1)
            if a == b:
                closing.append(a)
            else:
                parent[b] = a
            del strands[at:at + 2]
    if strands:
        raise InternalInvariantError("sweep ended with live strands on a closed word")

    right: list[int | None] = []  # per strand, the innermost final curve just right of it
    up: dict[int, int | None] = {}  # curve -> its parent curve, None at the top
    for j, strand in enumerate(left):
        c = _find(parent, j)
        inner = None if strand is None else right[strand]
        outer = up.setdefault(c, inner)
        right += (outer, c) if inner == c else (c, inner)

    children: dict[int, list] = {}
    roots: list[tuple] = []
    for c in closing:  # children close before parents
        tree = tuple(children.pop(c, []))
        if up[c] is None:
            roots.append(tree)
        else:
            children.setdefault(up[c], []).append(tree)
    if children:
        raise InternalInvariantError("sweep left orphaned curves on a closed word")
    return tuple(roots)


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
