"""Geometric sweep oracle, enumeration, and the completeness report."""

import random
import tracemalloc

import pytest

from tanglekit import oracle, words
from tanglekit.errors import InternalInvariantError, ParseError
from tanglekit.invariants import circle_count, forest_value, word_value
from tanglekit.lomonoid import count_monoid, prime_monoid
from tanglekit.oracle import (
    canonical,
    completeness_report,
    enumerate_forests,
    trace_diagram,
)
from tanglekit.rewriting import normalize, to_forest

from conftest import dyck_corpus
from reference_rewriting import forest_size

PRIME = prime_monoid()
COUNT = count_monoid()


class TestTraceDiagram:
    def test_circle(self):
        word = words.decode(((-2, 0), (2, 0)))
        assert canonical(trace_diagram(word)) == "()"

    def test_hump_is_one_circle(self):
        word = words.parse_gen("U(1,2);U(3,3);H(3,4);H(1,2)")
        assert canonical(trace_diagram(word)) == "()"

    def test_nested(self):
        word = words.decode(((-2, 0), (-2, 0), (2, 0), (2, 0)))
        assert canonical(trace_diagram(word)) == "(())"

    def test_side_by_side(self):
        word = words.decode(((-2, 0), (2, 0), (-2, 0), (2, 0)))
        assert canonical(trace_diagram(word)) == "()()"

    def test_late_merge_is_not_containment(self):
        # two arcs straddle the early closure but later fuse into one
        # curve, so their crossings pair up and the small circle is a
        # sibling, not a child
        sym = words.parse_sym(
            "(-2,0)(-2,0)(2,-2)(-2,0)(-2,0)(-2,-4)(2,-2)(2,-4)(-2,0)(2,0)(2,0)(2,0)"
        )
        assert canonical(trace_diagram(words.decode(sym))) == "()()"

    def test_open_word_rejected(self):
        from tanglekit.operators import Generator

        with pytest.raises(ValueError):
            trace_diagram((Generator("cap", 1, 2),))

    def test_live_strands_are_internal(self, monkeypatch):
        # The closedness check comes first, so a sweep that ends with a
        # live strand is a bug, not bad input.
        from tanglekit.operators import Generator

        monkeypatch.setattr(oracle, "closed_slots", lambda word: words.slots(word, 1))
        with pytest.raises(InternalInvariantError, match="live strands"):
            trace_diagram((Generator("cap", 1, 2),))

    def test_orphaned_curves_are_internal(self, monkeypatch):
        # Pass 1's two cups on the nest make four finds.  After them,
        # roots 0 and 1, the two caps, trade places, so pass 2 files the
        # outer circle under the inner one, which has already closed.
        find, calls = oracle._find, []

        def swapped_find(parent, x):
            calls.append(x)
            root = find(parent, x)
            return {0: 1, 1: 0}.get(root, root) if len(calls) > 4 else root

        monkeypatch.setattr(oracle, "_find", swapped_find)
        with pytest.raises(InternalInvariantError, match="orphaned curves"):
            trace_diagram(((-2, 0), (-2, 0), (2, 0), (2, 0)))

    def test_symbol_words_are_decoded(self, word_corpus):
        exhaustive, randoms = word_corpus
        for sym in exhaustive + randoms:
            assert trace_diagram(sym) == trace_diagram(words.decode(sym)), sym
        with pytest.raises(ParseError, match="violates the validity condition"):
            trace_diagram(((2, 0), (-2, 0)))

    def test_matches_rewriting_on_random_words(self):
        rng = random.Random(0)
        for _ in range(500):
            sym = words.random_word(rng, 12)
            normal, _ = normalize(sym)
            assert canonical(to_forest(normal)) == canonical(trace_diagram(words.decode(sym)))

    def test_circle_count_matches(self):
        rng = random.Random(1)
        for _ in range(200):
            sym = words.random_word(rng, 12)
            assert forest_size(trace_diagram(words.decode(sym))) == circle_count(sym)


def nest(depth: int) -> tuple:
    return ((-2, 0),) * depth + ((2, 0),) * depth


class TestSweepSize:
    # Deep nests and wide rows, where a per-closure copy of the strand
    # list costs most.  Deep forests are compared as canonical strings:
    # tuple == recurses in C at their depth.
    def test_deep_nest(self):
        assert canonical(trace_diagram(nest(8000))) == "(" * 8000 + ")" * 8000

    def test_wide_row(self):
        assert trace_diagram(((-2, 0), (2, 0)) * 4000) == ((),) * 4000

    def test_one_around_a_wide_row(self):
        # each inner circle opens beside its closed siblings, inside the outer curve
        sym = ((-2, 0),) + ((-2, 0), (2, 0)) * 4000 + ((2, 0),)
        assert canonical(trace_diagram(sym)) == "(" + "()" * 4000 + ")"

    def test_one_curve_with_many_dents(self):
        # each cap opens inside its own curve and bulges the outside in
        dents = (words.Generator("cup", 3, 2), words.Generator("cap", 3, 3)) * 4000
        word = (words.Generator("cup", 1, 2),) + dents + (words.Generator("cap", 1, 2),)
        assert trace_diagram(word) == ((),)

    def test_deep_nest_memory(self):
        word = nest(4000)
        tracemalloc.start()
        try:
            trace_diagram(word)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20, peak


class TestCanonical:
    def test_strings(self):
        assert canonical(((),)) == "()"
        assert canonical((((),),)) == "(())"
        assert canonical(()) == ""

    def test_sibling_order_invariance(self):
        deep = ((), ((), ((),)))
        assert canonical((deep,)) == canonical(((deep[1], deep[0]),))


class TestEnumeration:
    def test_counts(self):
        expected = {0: 1, 1: 1, 2: 2, 3: 4, 4: 9, 5: 20, 6: 48, 7: 115}
        for n, want in expected.items():
            assert len(enumerate_forests(n)) == want

    def test_each_exactly_once(self):
        for n in range(6):
            forests = enumerate_forests(n)
            strings = [canonical(f) for f in forests]
            assert len(set(strings)) == len(strings)
            assert all(forest_size(f) == n for f in forests)

    def test_range(self):
        assert len(enumerate_forests(8)) == 286
        assert enumerate_forests(0) == [()]
        with pytest.raises(ValueError):
            enumerate_forests(9)
        with pytest.raises(ValueError):
            enumerate_forests(-1)

    def test_dyck_corpus_counts(self):
        catalan = [1, 1, 2, 5, 14, 42]
        got = {}
        for w in dyck_corpus(5):
            got[len(w) // 2] = got.get(len(w) // 2, 0) + 1
        assert got == {n: c for n, c in enumerate(catalan)}


class TestCompleteness:
    def test_small_values(self):
        report = completeness_report(2)
        values = sorted(row.prime_value for row in report.rows)
        assert values == [1, 2, 3, 4]
        assert report.ok

    def test_three_circles(self):
        report = completeness_report(3)
        values = sorted(row.prime_value for row in report.rows)
        assert values == [1, 2, 3, 4, 5, 6, 7, 8]

    def test_injective_to_seven(self):
        report = completeness_report(7)
        assert len(report.rows) == 200
        assert report.ok

    def test_range(self):
        empty = completeness_report(0)
        assert [row.canon for row in empty.rows] == [""] and empty.ok
        full = completeness_report(8)
        assert len(full.rows) == 486 and full.ok
        for bad in (-1, 9):
            with pytest.raises(ValueError, match=f"^circle count {bad} outside 0..8$"):
                completeness_report(bad)

    def test_count_column_is_size(self):
        for row in completeness_report(4).rows:
            assert row.count_value == row.circles

    def test_render_mentions_totals(self):
        text = completeness_report(1).render()
        assert text.splitlines()[-1] == "total 2 forests up to 1 circles, 0 collisions"
        assert text.splitlines()[0] == "- 1 0"
