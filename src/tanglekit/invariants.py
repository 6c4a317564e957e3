"""Curve-system invariants, computed two independent ways.

A closed word evaluates on the trivial state to a width-1 state whose
single value is the invariant (`word_value`).  Independently, a nesting
forest has a value by structural recursion: a forest is the oplus over
its trees of phi(value of the tree's children) (`forest_value`).  The
two agree; the test suite pins that on exhaustive and random corpora.

Under the prime instance the invariant is a complete isotopy invariant
for systems of disjoint circles (equal values iff equal nesting
forests), so `equivalent` decides equivalence from the prime value
alone.  Under the count instance the invariant is the number of
circles.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import words
from .lomonoid import MonoidSpec, Value, count_monoid, prime_monoid
from .rewriting import Forest
from .operators import eval_closed
from .primes import nth_prime  # noqa: F401  (re-exported)


def word_value(word, spec: MonoidSpec) -> Value:
    """Invariant by full operator evaluation.  Accepts a generator word
    or a symbol word; the word must be closed."""
    gen_word = _as_gen_word(word)
    return eval_closed(gen_word, spec)


def forest_value(forest: Forest, spec: MonoidSpec) -> Value:
    """Invariant by structural recursion over the nesting forest: the
    oplus, left to right, of phi(value of each tree's children).  Walked
    iteratively, so no depth of nesting meets the recursion limit."""
    stack = [iter(forest)]
    sums = [spec.zero]  # oplus of the finished children per open node
    while True:
        child = next(stack[-1], None)
        if child is not None:
            stack.append(iter(child))
            sums.append(spec.zero)
            continue
        stack.pop()
        value = sums.pop()
        if not stack:
            return value
        sums[-1] = spec.oplus(sums[-1], spec.phi(value))


def _as_gen_word(word):
    if word and isinstance(word[0], tuple):
        return words.decode(word)
    return tuple(word)


@dataclass(frozen=True)
class InvariantReport:
    word: str
    monoid: str
    value: str
    method: str
    agreement: bool | None = None


def invariant_reports(word, spec: MonoidSpec) -> tuple[InvariantReport, InvariantReport, bool]:
    """Compute the invariant by both methods and compare.

    Disagreement would falsify the representation; it is reported (and
    mapped to exit code 2 by the CLI), never hidden.
    """
    from .rewriting import normalize, to_forest  # local: keep import graph flat

    gen_word = _as_gen_word(word)
    echo = words.format_gen(gen_word)
    direct = eval_closed(gen_word, spec)
    normal, _ = normalize(words.encode(gen_word))
    recursive = forest_value(to_forest(normal), spec)
    agree = direct == recursive
    return (
        InvariantReport(echo, spec.name, spec.render(direct), "operator", agree),
        InvariantReport(echo, spec.name, spec.render(recursive), "recursive", agree),
        agree,
    )


def equivalent(word_a, word_b) -> tuple[bool, tuple[InvariantReport, InvariantReport]]:
    """Decide isotopy equivalence of two closed words by comparing their
    prime invariants (a complete invariant for circle systems)."""
    spec = prime_monoid()
    gen_a = _as_gen_word(word_a)
    gen_b = _as_gen_word(word_b)
    va = eval_closed(gen_a, spec)
    vb = eval_closed(gen_b, spec)
    report_a = InvariantReport(words.format_gen(gen_a), spec.name, spec.render(va), "operator")
    report_b = InvariantReport(words.format_gen(gen_b), spec.name, spec.render(vb), "operator")
    return va == vb, (report_a, report_b)


def circle_count(word) -> int:
    """Number of circles in the system described by a closed word."""
    return word_value(word, count_monoid())
