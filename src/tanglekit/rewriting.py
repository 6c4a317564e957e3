"""Normalization of symbol words and the bridge to nesting forests.

The rewriting algorithm turns any valid symbol word into a word of
(-2,0) and (2,0) symbols only, i.e. a balanced-parentheses description
of a nesting forest of circles:

  step 1  move every (-2,*) left of every (2,*): swap the LEFTMOST
          adjacent (2,a)(-2,b) pair forward (R3.2) when a <= b and
          backward (R3.1') when b <= a-2 (d's are even, so the two
          cases are exhaustive and overlap nowhere);
  step 2  sort each same-sign block to non-increasing d by rewriting
          the leftmost ascending adjacent pair with R2 / R4;
  step 3  delete the leftmost (-2,k)(2,k+2) pair (R1) and restart at
          step 1;
  step 4  rewrite the leftmost (-2,k)(2,l) pair with k <= l-4 via
          R3.1 forward, then retry step 3;
  step 5  stop when no (-2,k)(2,l) pair with k <= l-2 remains.

Rewrites happen in place on two int lists, the signs cs and the d's
ds, in one flat loop.  R1 deletes its pair from both, and each exchange
site writes its two new d's from the signs it knows, the swap of the
rule table in words (tests/reference_rewriting.py spells it as swap):

    step 1  R3.2   (2,a)(-2,b)   ->  (-2,b+2)(2,a-2)    a <= b
            R3.1'  (2,a)(-2,b)   ->  (-2,b-2)(2,a+2)    b <= a-2
    step 2  R2     (2,a)(2,b)    ->  (2,b+2)(2,a+2)     a < b
            R4     (-2,a)(-2,b)  ->  (-2,b-2)(-2,a-2)   a < b
    step 4  R3.1   (-2,a)(2,b)   ->  (2,b-2)(-2,a+2)    a <= b-4

Each rewrite changes two adjacent symbols, so every leftmost-match scan
resumes one place left of the last rewrite, and the validity condition
is checked exactly on the two new symbols alone: no other symbol's
pre/post sum can change (R1 deletes a pair of net sign zero, an
exchange keeps the pair's sign sum).  A valid word's c sum to 0, so
post = -pre - c and words' condition reads |d| <= -pre for a cup and
|d| <= -pre - 2 for a cap; for a pair at prefix sum p, the new |d|'s
are at most -p in step 1, -p - 2 in step 4, -p - 2 and -p - 4 in R2,
and -p and -p + 2 in R4, each checked as one chained comparison.
So a rewrite costs O(1) work, about 0.45 us in CPython 3.11 on a 2-core
VM.  The word is rescanned from the start only after an R1 deletion.
One generator runs the algorithm: normalize drains it and keeps only
the start word and the rewrite count, and a trace reruns it when read.
Each step carries the word after its rewrite, so a trace replays rule
by rule: tests/reference_rewriting.py does so with each rule written
out.

Termination is watched two ways: here by a global rewrite cap (a
resource limit, CLI-configurable, raising ResourceLimitError), and in
the tests by the reference, which measures the sort potential from the
word and checks that it strictly decreases between consecutive step-3
visits with no step-1 pass in between.

Every choice here is deterministic (leftmost match everywhere), so a
rerun gives the same trace and the trace is stable enough for golden
tests.

Forests are nested tuples: a tree is the tuple of its child trees, a
forest is a tuple of trees.  The one canonical form is a parenthesis
string that orders siblings by their own strings, shorter first then
lexicographic; it is chosen independently of the numeric invariants so
the two can cross-check each other.  `fold` is the one forest walker:
iterative, so any depth of nesting works.  canonical and the structural
invariant forest_value are folds, and to_forest reads a canonical
string back as the forest in canonical order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import accumulate

from .errors import InternalInvariantError, ResourceLimitError
from .lomonoid import MonoidSpec, Value
from .words import SymWord, format_sym, require_valid

DEFAULT_MAX_REWRITES = 10**6

Forest = tuple


# -- the algorithm --------------------------------------------------------

@dataclass(frozen=True)
class RewriteStep:
    step: int                 # algorithm step that fired (1..4)
    rule: str                 # R1 / R2 / R3.1 / R3.2 / R4
    forward: bool
    pos: int                  # 0-based left index of the rewritten pair
    word: SymWord             # word after the rewrite

    def describe(self) -> str:
        mark = "" if self.forward else "'"
        return f"step{self.step} {self.rule}{mark} @{self.pos + 1} {format_sym(self.word)}"


class Trace:
    """The RewriteSteps of one normalize call, read in order.

    A trace keeps the start word and the rewrite count, and each read
    reruns the algorithm once.
    """

    __slots__ = ("_start", "_len")

    def __init__(self, start: SymWord, length: int):
        self._start = start
        self._len = length

    def __len__(self) -> int:
        return self._len

    def __iter__(self):
        cs, ds = [c for c, _ in self._start], [d for _, d in self._start]
        for step, rule, forward, pos in _rewrites(cs, ds):
            yield RewriteStep(step, rule, forward, pos, tuple(zip(cs, ds)))


def normalize(sym, max_rewrites: int = DEFAULT_MAX_REWRITES) -> tuple[SymWord, Trace]:
    """Rewrite to a word of (+-2, 0) symbols; returns (word, trace).

    Keeps nothing per rewrite: the trace holds the start word and the
    count, and reruns the algorithm when read.  The rewrite after the
    max_rewrites-th raises ResourceLimitError; a negative max_rewrites
    is bad input and raises ValueError.
    """
    if max_rewrites < 0:
        raise ValueError(f"max_rewrites must be >= 0, got {max_rewrites}")
    require_valid(sym)
    start = tuple(sym)
    cs, ds = [c for c, _ in start], [d for _, d in start]
    count = 0
    for _ in _rewrites(cs, ds):
        if count >= max_rewrites:
            raise ResourceLimitError(f"rewrite watchdog tripped after {max_rewrites} rewrites")
        count += 1
    return tuple(zip(cs, ds)), Trace(start, count)


def _rewrites(cs: list, ds: list):
    """Run the five-step algorithm on a valid word given as its signs cs
    and its d's ds, rewriting both lists in place, and yield one flat
    tuple (step, rule, forward, pos) after each rewrite.  A full rescan
    happens only after an R1 deletion."""
    # pre[i] = sum of cs[:i]; -pre[i] points lie below symbol i
    pre = list(accumulate(cs, initial=0))
    while True:
        n = len(cs) - 1  # the pairs start at 0..n-1 until an R1 deletion
        i = 0  # step 1
        while i < n:
            if cs[i] == 2 and cs[i + 1] == -2:
                da, db = ds[i], ds[i + 1]
                if da <= db:
                    rule, forward, x, y = "R3.2", True, db + 2, da - 2
                else:
                    rule, forward, x, y = "R3.1", False, db - 2, da + 2
                bound = -pre[i]
                if not (-bound <= x <= bound and -bound <= y <= bound):
                    raise InternalInvariantError(f"rewrite {rule} broke the validity condition")
                cs[i], cs[i + 1], ds[i], ds[i + 1] = -2, 2, x, y
                pre[i + 1] -= 4
                yield 1, rule, forward, i
                i -= 1  # pairs left of i - 1 are untouched; pair 0 is never a cap then a cup
                continue
            i += 1
        i = 0  # step 2; a same-sign exchange leaves cs and pre as they are
        while i < n:
            da, db = ds[i], ds[i + 1]
            if da < db and cs[i] == cs[i + 1]:
                if cs[i] == 2:
                    x, y = db + 2, da + 2
                    bound = -pre[i] - 2
                    if not (-bound <= x <= bound and 2 - bound <= y <= bound - 2):
                        raise InternalInvariantError("rewrite R2 broke the validity condition")
                    ds[i], ds[i + 1] = x, y
                    yield 2, "R2", True, i
                else:
                    x, y = db - 2, da - 2
                    bound = -pre[i]
                    if not (-bound <= x <= bound and -2 - bound <= y <= bound + 2):
                        raise InternalInvariantError("rewrite R4 broke the validity condition")
                    ds[i], ds[i + 1] = x, y
                    yield 2, "R4", True, i
                i = i - 1 if i else 0  # R4 can rewrite (-2,0)(-2,2) at pair 0
                continue
            i += 1
        i, hi, i4 = 0, n, 0  # step 3 scans the pairs i..hi-1, step 4 resumes at i4
        while True:
            while i < hi:  # step 3
                if cs[i] == -2 and cs[i + 1] == 2 and ds[i + 1] == ds[i] + 2:
                    break
                i += 1
            else:
                while i4 < n:  # step 4
                    if cs[i4] == -2 and cs[i4 + 1] == 2 and ds[i4] <= ds[i4 + 1] - 4:
                        break
                    i4 += 1
                else:  # step 5
                    if not any(ds):
                        return
                    word = format_sym(tuple(zip(cs, ds)))
                    raise InternalInvariantError(f"normalization left a nonzero symbol in {word}")
                x, y = ds[i4 + 1] - 2, ds[i4] + 2
                bound = -pre[i4] - 2
                if not (-bound <= x <= bound and -bound <= y <= bound):
                    raise InternalInvariantError("rewrite R3.1 broke the validity condition")
                cs[i4], cs[i4 + 1], ds[i4], ds[i4 + 1] = 2, -2, x, y
                pre[i4 + 1] += 4
                yield 4, "R3.1", True, i4
                # No R1 existed before this rewrite and only the three pairs it
                # touched changed, so step 3 need look at those alone.
                hi = i4 + 2 if i4 + 2 < n else n
                i = i4 = i4 - 1  # pair 0 is (-2,0) then a cup or (2,0): never a step-4 pair
                continue
            break
        del cs[i:i + 2], ds[i:i + 2], pre[i:i + 2]  # step 3: R1 deletes the (-2,k)(2,k+2) pair at i
        yield 3, "R1", True, i  # then step 1 again


# -- forests ----------------------------------------------------------------

def to_forest(sym) -> Forest:
    """Parse a normal word as nesting structure: (-2,0) opens a circle,
    (2,0) closes it; nesting of the parentheses is containment.  A
    valid word of (+-2,0) symbols is balanced, so an unbalanced one is
    an InternalInvariantError."""
    require_valid(sym)
    if any(d != 0 for _, d in sym):
        raise ValueError("to_forest needs a normal word of (+-2,0) symbols")
    stack: list[list] = [[]]
    for c, _ in sym:
        if c == -2:
            stack.append([])
        else:
            children = stack.pop()
            if not stack:
                raise InternalInvariantError("unbalanced word")
            stack[-1].append(tuple(children))
    if len(stack) != 1:
        raise InternalInvariantError("unbalanced word")
    return tuple(stack[0])


def fold(forest: Forest, combine, wrap):
    """Fold a forest bottom-up, iteratively.  A node's result is
    combine(its children's wrapped results, left to right); wrap runs on
    each tree's result as soon as that tree is finished, before its next
    sibling is entered.  The forest's own result is returned unwrapped."""
    done: list[list] = [[]]  # wrapped results of finished children per open node
    stack = [iter(forest)]
    while True:
        child = next(stack[-1], None)
        if child is not None:
            stack.append(iter(child))
            done.append([])
            continue
        stack.pop()
        result = combine(done.pop())
        if not stack:
            return result
        done[-1].append(wrap(result))


def _sort_siblings(kids: list[str]) -> str:
    kids.sort(key=lambda kid: (len(kid), kid))
    return "".join(kids)


def canonical(forest: Forest) -> str:
    """Canonical parenthesis string: equal strings iff isotopic systems.
    Read back by to_forest, its (-2,0)/(2,0) symbols give the forest
    with its siblings in canonical order."""
    return fold(forest, _sort_siblings, lambda inner: "(" + inner + ")")


def forest_value(forest: Forest, spec: MonoidSpec) -> Value:
    """Invariant by structural recursion over the nesting forest: the
    oplus, left to right, of phi(value of each tree's children).  phi
    runs on each tree as soon as it is finished, so the first prime
    index past the table is met in walk order."""
    return fold(forest, lambda values: reduce(spec.oplus, values, spec.zero), spec.phi)
