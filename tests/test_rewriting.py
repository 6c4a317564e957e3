"""The normalization algorithm, potentials, factors, and forests."""

import inspect
import random
import re
import tracemalloc
from collections import Counter
from itertools import count, product

import pytest

from reference_rewriting import (
    apply_relation,
    encircle,
    factorize,
    forest_size,
    reference_forest_string,
    reference_normalize,
    rewrite_pair,
    rewrite_potential,
    swap,
)
from reference_words import out_of_bounds
from tanglekit import rewriting, words
from tanglekit.cli import build_parser
from tanglekit.errors import InternalInvariantError, ResourceLimitError
from tanglekit.oracle import canonical, trace_diagram
from tanglekit.rewriting import Forest, normalize, to_forest
from tanglekit.words import SymWord

CIRCLE = ((-2, 0), (2, 0))
NESTED = ((-2, 0), (-2, 0), (2, 0), (2, 0))
SIDE = ((-2, 0), (2, 0), (-2, 0), (2, 0))
HUMP = ((-2, 0), (-2, 0), (2, 2), (2, 0))
TRACED = ((-2, 0), (-2, 0), (-2, 2), (2, 2), (2, 2), (2, 0))


def from_forest(forest: Forest) -> SymWord:
    """Normal word of a forest, children emitted in canonical order:
    the canonical string read as (-2,0) for '(' and (2,0) for ')'."""
    return tuple((-2, 0) if ch == "(" else (2, 0) for ch in canonical(forest))


def seeded_word(seed: int, lo: int, hi: int):
    """The first random word of the seed with lo..hi symbols."""
    rng = random.Random(seed)
    while True:
        sym = words.random_word(rng, hi // 2)
        if lo <= len(sym) <= hi:
            return sym


def assert_same_as_reference(sym):
    out, trace = normalize(sym)
    ref_out, ref_trace = reference_normalize(sym)
    assert out == ref_out
    assert len(trace) == len(ref_trace)
    for step, ref_step in zip(trace, ref_trace):
        assert step == ref_step


class TestNormalize:
    def test_already_normal(self):
        out, trace = normalize(CIRCLE)
        assert out == CIRCLE and list(trace) == []

    def test_hump_single_deletion(self):
        out, trace = normalize(HUMP)
        assert out == CIRCLE
        assert len(trace) == 1
        [step] = trace
        assert (step.step, step.rule, step.pos) == (3, "R1", 1)

    def test_nonzero_symbol_left_is_internal(self, monkeypatch):
        # (-2,2)(2,0) matches no rule; only an invalid word can get there
        monkeypatch.setattr(rewriting, "require_valid", lambda sym: None)
        with pytest.raises(InternalInvariantError,
                           match=r"^normalization left a nonzero symbol in \(-2,2\)\(2,0\)$"):
            normalize(((-2, 2), (2, 0)))

    def test_nested_pair_untouched(self):
        out, trace = normalize(NESTED)
        assert out == NESTED and list(trace) == []

    def test_empty(self):
        out, trace = normalize(())
        assert out == () and list(trace) == []

    def test_only_zero_symbols(self):
        rng = random.Random(0)
        for _ in range(400):
            sym = words.random_word(rng, 12)
            out, _ = normalize(sym)
            assert all(d == 0 for _, d in out)
            assert words.check_validity(out) is None

    def test_trace_replays(self):
        rng = random.Random(1)
        for _ in range(200):
            sym = words.random_word(rng, 10)
            out, trace = normalize(sym)
            replay = sym
            for step in trace:
                replay = apply_relation(replay, step.rule, step.pos, forward=step.forward)
                assert replay == step.word
            assert replay == out

    def test_deterministic(self):
        rng = random.Random(2)
        for _ in range(50):
            sym = words.random_word(rng, 10)
            (out, trace), (again, retrace) = normalize(sym), normalize(sym)
            assert out == again and list(trace) == list(retrace)

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            normalize(((2, 0), (-2, 0)))

    def test_long_word_stress(self):
        # well beyond the acceptance corpus: still fast, still agrees
        # with the geometric sweep
        from tanglekit.oracle import canonical, trace_diagram

        rng = random.Random(7)
        sym = words.random_word(rng, 50)
        while len(sym) < 80:
            sym = words.random_word(rng, 50)
        out, trace = normalize(sym)
        assert all(d == 0 for _, d in out)
        assert canonical(to_forest(out)) == canonical(trace_diagram(words.decode(sym)))

    def test_watchdog_configurable(self):
        # 0 rewrites allowed: any word needing work must trip the cap
        with pytest.raises(ResourceLimitError, match="^rewrite watchdog tripped after 0 rewrites$"):
            normalize(HUMP, max_rewrites=0)

    def test_watchdog_is_a_limit_not_a_bug_or_bad_input(self):
        assert issubclass(ResourceLimitError, RuntimeError)
        assert not issubclass(ResourceLimitError, (InternalInvariantError, ValueError))
        # the cap counts rewrites: exactly enough is enough
        out, trace = normalize(TRACED)
        needed = len(trace)
        capped_out, capped_trace = normalize(TRACED, max_rewrites=needed)
        assert capped_out == out and list(capped_trace) == list(trace)
        with pytest.raises(ResourceLimitError, match=f"after {needed - 1} rewrites"):
            normalize(TRACED, max_rewrites=needed - 1)

    def test_default_watchdog_is_a_million_rewrites(self):
        # the documented default, of normalize and of normalize --max-steps
        assert inspect.signature(normalize).parameters["max_rewrites"].default == 10**6
        assert build_parser().parse_args(["normalize", "(-2,0)(2,0)"]).max_steps == 10**6

    def test_negative_cap_is_bad_input(self):
        # a word needing rewrites and a word needing none alike
        for sym in (HUMP, ((-2, 0), (2, 0))):
            with pytest.raises(ValueError, match="^max_rewrites must be >= 0, got -1$"):
                normalize(sym, max_rewrites=-1)

    def test_potential_recorded(self):
        _, trace = normalize(HUMP)
        [step] = trace
        assert rewrite_potential(step.word) == rewrite_potential(CIRCLE) == (2, 0)

    def test_describe_format(self):
        _, trace = normalize(HUMP)
        [step] = trace
        assert step.describe() == "step3 R1 @2 (-2,0)(2,0)"


class TestAgainstReference:
    """normalize returns exactly the (word, trace) of the direct
    specification in tests/reference_rewriting.py."""

    def test_exhaustive_corpus(self, word_corpus):
        exhaustive, _ = word_corpus
        for sym in exhaustive:
            assert_same_as_reference(sym)

    def test_random_corpus(self, word_corpus):
        _, randoms = word_corpus
        for sym in randoms:
            assert_same_as_reference(sym)

    @pytest.mark.parametrize("seed", [11, 12, 13, 14])
    def test_long_words(self, seed):
        sym = seeded_word(seed, 60, 100)
        assert_same_as_reference(sym)

    def test_long_word_regression(self):
        # 400 symbols: about 10^5 rewrites, far too many for the
        # reference; checked against the geometric sweep instead
        sym = seeded_word(400, 400, 400)
        out, trace = normalize(sym)
        assert len(trace) > 10**5
        assert canonical(to_forest(out)) == canonical(trace_diagram(words.decode(sym)))


class TestRewriteSites:
    """The loop's exchange sites: each checks its two new symbols
    against a bound of its own, and each writes the pair that the
    reference swap gives."""

    # (step, rule, forward) of each kind of exchange the loop makes
    KINDS = [(1, "R3.2", True), (1, "R3.1", False), (2, "R2", True), (2, "R4", True),
             (4, "R3.1", True)]
    SITE_WORD = seeded_word(4, 10, 16)  # 10 symbols; its 46 rewrites hold every kind
    LONG_WORD = seeded_word(400, 400, 400)  # the word of test_long_word_regression

    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("kind", KINDS, ids=lambda kind: f"step{kind[0]}-{kind[1]}-{kind[2]}")
    def test_each_site_refuses_the_first_invalid_d(self, kind, side):
        # At the first rewrite of this kind, the new symbol on `side` gets
        # the smallest even |d| that out_of_bounds refuses at its place:
        # the loop must stop there, so no site's bound is looser.
        self.refuse_at(kind, side, 0)

    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("kind", KINDS, ids=lambda kind: f"step{kind[0]}-{kind[1]}-{kind[2]}")
    def test_each_site_refuses_the_first_invalid_d_at_its_last_rewrite(self, kind, side):
        # By the last rewrite of a kind the prefix sums have moved many
        # times, so a prefix sum kept wrongly shows as a looser bound.
        self.refuse_at(kind, side, -1)

    def refuse_at(self, kind, side, which):
        # The loop runs to the rewrite before the target; then the old d
        # that the new symbol on `side` is made from is edited in place,
        # keeping the pair's match and direction.  At the refused d the
        # loop must raise the rule's message, and one step short of it
        # make the target rewrite, so no site's bound is stricter either.
        word, total = self.SITE_WORD, sum(c for c, _ in self.SITE_WORD)
        _, ref_trace = reference_normalize(word)
        at = [k for k, s in enumerate(ref_trace) if (s.step, s.rule, s.forward) == kind][which]
        target = ref_trace[at]
        before = ref_trace[at - 1].word if at else word
        pos, forward, j = target.pos, target.forward, 0 if side == "left" else 1
        a, b = before[pos], before[pos + 1]
        new = swap(a, b, forward)
        c, here = new[j][0], sum(c for c, _ in before[:pos]) + j * new[0][0]
        refused = next(d for d in count(0, 2) if out_of_bounds(c, d, here, total))
        shift = new[j][1] - before[pos + 1 - j][1]  # new d on side j = the other old d + shift

        def edited(d):
            """The pair whose rewrite gives d to the new symbol on side j."""
            pair = [a, b]
            pair[1 - j] = (pair[1 - j][0], d - shift)
            return pair

        def keeps_match(pair):
            try:
                rewrite_pair(target.rule, *pair, forward)
            except ValueError:
                return False
            return kind[0] != 1 or (pair[0][1] <= pair[1][1]) == forward

        sign = next(sign for sign in (1, -1)
                    if keeps_match(edited(sign * refused)) and keeps_match(edited(sign * (refused - 2))))
        message = f"^rewrite {re.escape(kind[1])} broke the validity condition$"
        for value in (sign * (refused - 2), sign * refused):
            cs, ds = [c for c, _ in word], [d for _, d in word]
            loop = rewriting._rewrites(cs, ds)
            done = [next(loop) for _ in range(at)]
            assert done == [(s.step, s.rule, s.forward, s.pos) for s in ref_trace[:at]]
            assert tuple(zip(cs, ds)) == before
            pair = edited(value)
            ds[pos + 1 - j] = pair[1 - j][1]
            if value == sign * refused:
                with pytest.raises(InternalInvariantError, match=message):
                    next(loop)
                assert tuple(zip(cs, ds))[pos:pos + 2] == tuple(pair)  # refused before writing
            else:
                assert next(loop) == (target.step, target.rule, forward, pos)
                assert tuple(zip(cs, ds))[pos:pos + 2] == swap(*pair, forward)

    def test_each_rewrite_is_the_reference_rewrite(self):
        # R1 deletes its pair, and every other rewrite replaces its pair
        # by the reference swap of it and leaves the rest of the word.
        _, trace = normalize(self.LONG_WORD)
        assert len(trace) == 130_264
        before, exchanges = self.LONG_WORD, 0
        for step in trace:
            pos = step.pos
            if step.rule == "R1":
                pair = ()
            else:
                pair = swap(before[pos], before[pos + 1], step.forward)
                exchanges += 1
            assert step.word == before[:pos] + pair + before[pos + 2:]
            before = step.word
        assert exchanges == 130_264 - 124

    def test_rule_counts_of_a_long_word(self):
        # too long for the reference; leftmost match everywhere fixes
        # how often each step fires each rule
        _, trace = normalize(self.LONG_WORD)
        assert Counter((s.step, s.rule) for s in trace) == {
            (1, "R3.1"): 18_128, (1, "R3.2"): 20_633,
            (2, "R2"): 23_543, (2, "R4"): 23_425,
            (3, "R1"): 124,
            (4, "R3.1"): 44_411,
        }


class TestTrace:
    def test_iterates_the_same_steps_twice(self):
        _, trace = normalize(seeded_word(21, 20, 30))
        first = list(trace)
        assert first and list(trace) == first
        assert len(trace) == len(first)

    def test_read_in_order_only(self):
        _, trace = normalize(TRACED)
        with pytest.raises(TypeError):
            trace[0]

    def test_memory_stays_flat(self):
        # nothing is kept per rewrite: neither normalize nor reading the
        # trace through to its last step holds more than the word and a
        # few steps
        sym = seeded_word(24, 90, 110)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            _, trace = normalize(sym)
            run_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            for last in trace:
                pass
            read_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(trace) > 5000 and last.word == normalize(sym)[0]
        assert run_peak < 2**20 and read_peak < 2**20


class TestPotentials:
    def test_rewrite_potential_values(self):
        assert rewrite_potential(CIRCLE) == (2, 0)
        assert rewrite_potential(NESTED) == (7, 0)
        assert rewrite_potential(HUMP) == (7, -2)


class TestFactorize:
    def test_split(self):
        assert factorize(SIDE) == [CIRCLE, CIRCLE]

    def test_nested_is_irreducible(self):
        assert factorize(NESTED) == [NESTED]

    def test_empty(self):
        assert factorize(()) == []

    def test_concatenation_recovers(self):
        rng = random.Random(4)
        for _ in range(200):
            sym, _ = normalize(words.random_word(rng, 10))
            factors = factorize(sym)
            joined = ()
            for f in factors:
                assert words.check_validity(f) is None
                joined += f
            assert joined == sym
            assert len(factors) == len(to_forest(sym))

    def test_non_normal_rejected(self):
        with pytest.raises(ValueError):
            factorize(HUMP)


class TestEncircle:
    def test_empty(self):
        assert encircle(()) == CIRCLE

    def test_circle(self):
        assert encircle(CIRCLE) == NESTED

    def test_preserves_validity(self):
        rng = random.Random(5)
        for _ in range(1000):
            sym = words.random_word(rng, 12)
            assert words.check_validity(encircle(sym)) is None


class TestForests:
    def test_parse(self):
        assert to_forest(CIRCLE) == ((),)
        assert to_forest(NESTED) == (((),),)
        assert to_forest(SIDE) == ((), ())
        assert to_forest(()) == ()

    def test_non_normal_rejected(self):
        with pytest.raises(ValueError):
            to_forest(HUMP)

    def test_valid_normal_words_are_balanced(self):
        # So the "unbalanced word" raises need a bug to be reached.
        valid = [
            sym
            for length in range(15)
            for sym in product(((-2, 0), (2, 0)), repeat=length)
            if words.check_validity(sym) is None
        ]
        assert len(valid) == 626  # Catalan numbers of 0..7 pairs
        assert all(len(to_forest(sym)) <= len(sym) for sym in valid)

    @pytest.mark.parametrize("sym", [((2, 0),), ((-2, 0),)])
    def test_unbalanced_word_is_internal(self, sym, monkeypatch):
        monkeypatch.setattr(rewriting, "require_valid", lambda sym: None)
        with pytest.raises(InternalInvariantError, match="unbalanced word"):
            to_forest(sym)

    def test_canonical_strings(self):
        assert canonical(((),)) == "()"
        assert canonical((((),),)) == "(())"
        assert canonical(((), ())) == "()()"
        # sibling order never matters
        a = (((), ((),)),)
        b = ((((),), ()),)
        assert canonical(a) == canonical(b)

    def test_roundtrip(self):
        rng = random.Random(6)
        for _ in range(300):
            sym, _ = normalize(words.random_word(rng, 10))
            forest = to_forest(from_forest(to_forest(sym)))
            assert to_forest(from_forest(forest)) == forest
            assert forest_size(forest) == len(sym) // 2

    def test_canonical_strings_match_the_recursive_definition(self):
        rng = random.Random(8)
        for _ in range(300):
            sym, _ = normalize(words.random_word(rng, 12))
            forest = to_forest(sym)
            assert canonical(forest) == reference_forest_string(forest)
            assert canonical(to_forest(from_forest(forest))) == canonical(forest)

    def test_deep_nest(self):
        # nested tuples this deep cannot be compared by ==, so compare
        # strings and flat words only
        depth = 5000
        nest = ((-2, 0),) * depth + ((2, 0),) * depth
        out, trace = normalize(nest)
        assert out == nest and len(trace) == 0
        forest = to_forest(out)
        assert canonical(forest) == "(" * depth + ")" * depth
        assert from_forest(forest) == nest
        assert from_forest(to_forest(from_forest(forest))) == nest
        assert forest_size(forest) == depth

    def test_wide_row(self):
        # Step 1 moves every (-2,*) left of every (2,*) even in a row of
        # side-by-side circles, so k of them take 2k(k-1) rewrites:
        # 10,000 would take 2*10^8, so they meet the rewrite limit.
        width = 10000
        row = ((-2, 0), (2, 0)) * width
        with pytest.raises(ResourceLimitError):
            normalize(row, max_rewrites=10**4)
        out, trace = normalize(row[:200])
        assert out == row[:200] and len(trace) == 2 * 100 * 99
        forest = to_forest(row)
        assert canonical(forest) == "()" * width
        assert from_forest(forest) == row
        assert forest_size(forest) == width

    def test_from_forest_emits_canonical_order(self):
        messy = ((((),), ()), ())
        tidy = to_forest(from_forest(messy))
        assert tidy == ((), ((), ((),)))
        assert from_forest(messy) == from_forest(tidy)
