"""Specifications that the library's fast code is tested against:
normalize's five-step algorithm written as directly as possible, and the
recursive definition of the canonical forest string.

Every scan restarts at index 0, every rewrite goes through
words.apply_relation (which re-checks the validity condition of the
whole word), every step records a full copy of the word, and the
potential is recomputed from scratch.  That costs O(n) work per rewrite,
so it is fit only for tests: tanglekit.rewriting.normalize must return
exactly the same (word, trace).
"""

from __future__ import annotations

from tanglekit.errors import InternalInvariantError, ResourceLimitError
from tanglekit.rewriting import DEFAULT_MAX_REWRITES, RewriteStep, rewrite_potential
from tanglekit.words import SymWord, apply_relation, format_sym, require_valid


def reference_normalize(sym, max_rewrites: int = DEFAULT_MAX_REWRITES) -> tuple[SymWord, list[RewriteStep]]:
    require_valid(sym)
    word = tuple(sym)
    trace: list[RewriteStep] = []

    def record(step: int, rule: str, forward: bool, pos: int, new_word: SymWord) -> SymWord:
        if len(trace) >= max_rewrites:
            raise ResourceLimitError(f"rewrite watchdog tripped after {max_rewrites} rewrites")
        trace.append(
            RewriteStep(step, rule, forward, pos, new_word, rewrite_potential(new_word))
        )
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
