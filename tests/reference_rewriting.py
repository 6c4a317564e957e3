"""Specifications that the library's fast code is tested against: the
five local rewrite rules applied one at a time, normalize's five-step
algorithm written as directly as possible, the paper's composition
structure of words (factors and encirclement), and the recursive
definition of the canonical forest string.

Every scan restarts at index 0, every rewrite goes through
apply_relation (which matches the rule's pattern and re-checks the
validity condition of the whole word), every step records a full copy
of the word, and the potential is recomputed from scratch.  That costs
O(n) work per rewrite, so it is fit only for tests:
tanglekit.rewriting.normalize must return exactly the same (word, trace).
"""

from __future__ import annotations

from tanglekit.errors import InternalInvariantError, ResourceLimitError
from tanglekit.rewriting import DEFAULT_MAX_REWRITES, Forest, RewriteStep, fold
from tanglekit.words import Symbol, SymWord, check_validity, format_sym, require_valid


# -- potential -----------------------------------------------------------

def rewrite_potential(sym) -> tuple[int, int]:
    """Lexicographic termination measure: (sum of 1-based positions of
    the (2,*) symbols, sum of cup d's minus sum of cap d's)."""
    pos_sum = 0
    d_balance = 0
    for i, (c, d) in enumerate(sym, start=1):
        if c == 2:
            pos_sum += i
            d_balance -= d
        else:
            d_balance += d
    return (pos_sum, d_balance)


# -- local rewrites ------------------------------------------------------

def _r1_match(a: Symbol, b: Symbol) -> bool:
    return a[0] == -2 and b[0] == 2 and b[1] in (a[1] + 2, a[1] - 2)


def swap(a: Symbol, b: Symbol, forward: bool = True) -> tuple[Symbol, Symbol]:
    """Exchange the adjacent symbols `a b`, the one formula of the rule
    table in the words docstring: each moves its d by the other's sign,
    up when forward and down when backward."""
    (ca, da), (cb, db) = a, b
    if forward:
        return (cb, db + ca), (ca, da + cb)
    return (cb, db - ca), (ca, da - cb)


# The signs (c_a, c_b) of the pair each exchange rule rewrites forward.
_SIGNS = {"R2": (2, 2), "R3.1": (-2, 2), "R3.2": (2, -2), "R4": (-2, -2)}
_RULES = ("R1", *_SIGNS)


def apply_relation(sym, rule: str, pos: int, forward: bool = True,
                   insert: tuple[Symbol, Symbol] | None = None) -> SymWord:
    """Rewrite at `pos` (0-based index of the pair's left symbol).

    R1 backward inserts a deletable pair at `pos`; pass it as `insert`,
    which every other rewrite refuses.  The rewritten word is checked
    against the validity condition: an invalid start word or insertion
    raises ValueError, and a rewrite that breaks a valid word raises
    InternalInvariantError.
    """
    if rule not in _RULES:
        raise ValueError(f"unknown rule {rule!r}")
    sym = tuple(sym)
    inserting = rule == "R1" and not forward
    if inserting:
        if insert is None or not _r1_match(*insert):
            raise ValueError("R1 backward needs insert=( (-2,k), (2,k+-2) )")
        if not 0 <= pos <= len(sym):
            raise ValueError(f"insert position {pos} outside word")
        out = sym[:pos] + tuple(insert) + sym[pos:]
    else:
        if insert is not None:
            raise ValueError(f"insert= is only for R1 backward, not {rule} "
                             f"{'forward' if forward else 'backward'}")
        if not 0 <= pos < len(sym) - 1:
            raise ValueError(f"position {pos} has no adjacent pair in word of length {len(sym)}")
        out = sym[:pos] + rewrite_pair(rule, sym[pos], sym[pos + 1], forward) + sym[pos + 2:]
    if check_validity(out) is not None:
        # Checked only now, so a rewrite that succeeds costs one pass.
        require_valid(sym)
        if inserting:
            raise ValueError(f"inserting {format_sym(insert)} breaks the validity condition")
        raise InternalInvariantError(f"rewrite {rule} broke the validity condition")
    return out


def rewrite_pair(rule: str, a: Symbol, b: Symbol, forward: bool = True) -> tuple[Symbol, ...]:
    """What the adjacent pair `a b` becomes under a rule: R1 forward
    deletes it, and the exchange rules swap it.  Raises ValueError when
    the pair does not match the rule's pattern, and for R1 backward,
    an insertion that only apply_relation's `insert` can give."""
    if rule not in _RULES:
        raise ValueError(f"unknown rule {rule!r}")
    if rule == "R1":
        if not forward:
            raise ValueError("R1 backward inserts a pair: use apply_relation(..., insert=...)")
        if not _r1_match(a, b):
            raise ValueError(f"R1 does not match {a}{b}")
        return ()
    new = swap(a, b, forward)
    (ca, k), (cb, l) = (a, b) if forward else new
    if (ca, cb) != _SIGNS[rule] or k > l - 2 + (ca - cb) // 2:
        direction = "forward" if forward else "backward"
        raise ValueError(f"{rule} {direction} does not match {a}{b}")
    return new


# -- the five-step algorithm ----------------------------------------------

def reference_normalize(sym, max_rewrites: int = DEFAULT_MAX_REWRITES) -> tuple[SymWord, list[RewriteStep]]:
    require_valid(sym)
    word = tuple(sym)
    trace: list[RewriteStep] = []

    def record(step: int, rule: str, forward: bool, pos: int, new_word: SymWord) -> SymWord:
        if len(trace) >= max_rewrites:
            raise ResourceLimitError(f"rewrite watchdog tripped after {max_rewrites} rewrites")
        trace.append(RewriteStep(step, rule, forward, pos, new_word))
        return new_word

    def step1(w: SymWord) -> SymWord:
        while True:
            for i in range(len(w) - 1):
                (c1, d1), (c2, d2) = w[i], w[i + 1]
                if c1 == 2 and c2 == -2:
                    if d1 <= d2:
                        w = record(1, "R3.2", True, i, apply_relation(w, "R3.2", i))
                    else:
                        w = record(1, "R3.1", False, i, apply_relation(w, "R3.1", i, forward=False))
                    break
            else:
                return w

    def step2(w: SymWord) -> SymWord:
        while True:
            for i in range(len(w) - 1):
                (c1, d1), (c2, d2) = w[i], w[i + 1]
                if c1 == c2 and d1 < d2:
                    rule = "R2" if c1 == 2 else "R4"
                    w = record(2, rule, True, i, apply_relation(w, rule, i))
                    break
            else:
                return w

    word = step2(step1(word))
    last_e3 = rewrite_potential(word)
    while True:
        deleted = False
        for i in range(len(word) - 1):
            (c1, d1), (c2, d2) = word[i], word[i + 1]
            if c1 == -2 and c2 == 2 and d2 == d1 + 2:
                word = record(3, "R1", True, i, apply_relation(word, "R1", i))
                word = step2(step1(word))
                last_e3 = rewrite_potential(word)
                deleted = True
                break
        if deleted:
            continue
        moved = False
        for i in range(len(word) - 1):
            (c1, d1), (c2, d2) = word[i], word[i + 1]
            if c1 == -2 and c2 == 2 and d1 <= d2 - 4:
                word = record(4, "R3.1", True, i, apply_relation(word, "R3.1", i))
                here = rewrite_potential(word)
                if here >= last_e3:
                    raise InternalInvariantError(
                        "sort potential failed to decrease between step-3 visits"
                    )
                last_e3 = here
                moved = True
                break
        if not moved:
            break

    for c, d in word:
        if d != 0:
            raise InternalInvariantError(
                f"normalization left a nonzero symbol in {format_sym(word)}"
            )
    return word, trace


def reference_forest_string(forest) -> str:
    """Canonical string by its recursive definition: each tree is its
    children's strings, sorted shorter first then lexicographically,
    in parentheses."""

    def tree(t) -> str:
        return "(" + "".join(sorted(map(tree, t), key=lambda s: (len(s), s))) + ")"

    return "".join(sorted(map(tree, forest), key=lambda s: (len(s), s)))


def forest_size(forest: Forest) -> int:
    """The number of circles in a forest."""
    return fold(forest, sum, lambda size: size + 1)


# -- composition structure -------------------------------------------------

def factorize(sym) -> list[SymWord]:
    """Maximal split of a normal word into indivisible factors: cut
    wherever the running symbol sum returns to zero."""
    require_valid(sym)
    if any(d != 0 for _, d in sym):
        raise ValueError("factorize needs a normal word of (+-2,0) symbols")
    out = []
    run = 0
    start = 0
    for i, (c, _) in enumerate(sym):
        run += c
        if run == 0:
            out.append(tuple(sym[start:i + 1]))
            start = i + 1
    return out


def encircle(sym) -> SymWord:
    """Surround the system with one new circle: prepend (-2,0), append
    (2,0).  Works on any valid word, normal or not."""
    require_valid(sym)
    return ((-2, 0),) + tuple(sym) + ((2, 0),)
