"""Curve-system invariants, computed two independent ways.

A closed word evaluates on the trivial state to a width-1 state whose
single value is the invariant (`word_value`).  Independently, a nesting
forest has a value by structural recursion: a forest is the oplus over
its trees of phi(value of the tree's children) (`forest_value`, a
rewriting.fold re-exported here).  `invariant_reports` compares the two,
the second on the forest oracle.trace_diagram reads off the word.

Under the prime instance the invariant is a complete isotopy invariant
for systems of disjoint circles (equal values iff equal nesting
forests), so `equivalent` decides equivalence from the prime value
alone.  Under the count instance the invariant is the number of
circles.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lomonoid import MonoidSpec, Value, count_monoid, format_value, prime_monoid
from .operators import closed_values
from .oracle import trace_diagram
from .primes import nth_prime  # noqa: F401  (re-exported)
from .rewriting import forest_value


def word_value(word, spec: MonoidSpec) -> Value:
    """Invariant by full operator evaluation.  Accepts a generator word
    or a symbol word; the word must be closed."""
    (value,) = closed_values((word,), spec)
    return value


@dataclass(frozen=True)
class InvariantReport:
    monoid: str
    value: str
    method: str


def invariant_reports(word, spec: MonoidSpec) -> tuple[InvariantReport, InvariantReport, bool]:
    """Compute the invariant by both methods and compare.

    Disagreement would falsify the representation; it is reported (and
    mapped to exit code 2 by the CLI), never hidden.
    """
    direct = word_value(word, spec)  # checks the word first
    recursive = forest_value(trace_diagram(word), spec)
    return (
        InvariantReport(spec.name, format_value(direct), "operator"),
        InvariantReport(spec.name, format_value(recursive), "recursive"),
        direct == recursive,
    )


def equivalent(word_a, word_b) -> tuple[bool, tuple[InvariantReport, InvariantReport]]:
    """Decide isotopy equivalence of two closed words by comparing their
    prime invariants (a complete invariant for circle systems)."""
    spec = prime_monoid()
    va, vb = closed_values((word_a, word_b), spec)  # checks both words first
    report_a = InvariantReport(spec.name, format_value(va), "operator")
    report_b = InvariantReport(spec.name, format_value(vb), "operator")
    return va == vb, (report_a, report_b)


def circle_count(word) -> int:
    """Number of circles in the system described by a closed word."""
    return word_value(word, count_monoid())
