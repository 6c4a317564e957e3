"""Symbol codec, validity condition, rewrites, and the text syntaxes."""

import random

import pytest

from tanglekit.errors import ParseError
from tanglekit.operators import Generator
from tanglekit.words import (
    apply_relation,
    check_validity,
    decode,
    encode,
    format_gen,
    format_sym,
    is_closed,
    iter_closed_words,
    parse_gen,
    parse_sym,
    parse_word,
    random_word,
    width_profile,
)

CIRCLE = (Generator("cup", 1, 2), Generator("cap", 1, 2))
HUMP = (
    Generator("cup", 1, 2),
    Generator("cup", 3, 3),
    Generator("cap", 3, 4),
    Generator("cap", 1, 2),
)


class TestEncode:
    def test_circle(self):
        assert encode(CIRCLE) == ((-2, 0), (2, 0))

    def test_hump(self):
        assert encode(HUMP) == ((-2, 0), (-2, 0), (2, 2), (2, 0))

    def test_empty(self):
        assert encode(()) == ()

    def test_open_word_rejected(self):
        with pytest.raises(ValueError):
            encode((Generator("cap", 1, 2),))


class TestDecode:
    def test_circle(self):
        assert decode(((-2, 0), (2, 0))) == CIRCLE

    def test_hump(self):
        assert decode(((-2, 0), (-2, 0), (2, 2), (2, 0))) == HUMP

    def test_invalid_rejected(self):
        with pytest.raises(ParseError) as excinfo:
            decode(((2, 0), (-2, 0)))
        assert excinfo.value.position == 1

    def test_roundtrip_random(self):
        rng = random.Random(0)
        for _ in range(1000):
            sym = random_word(rng, 15)
            assert encode(decode(sym)) == sym

    def test_roundtrip_exhaustive_small(self):
        for sym in iter_closed_words(6):
            if sym:
                assert encode(decode(sym)) == sym


class TestValidity:
    def test_circle_ok(self):
        assert check_validity(((-2, 0), (2, 0))) is None

    def test_wrong_order(self):
        assert check_validity(((2, 0), (-2, 0))) == 0

    def test_open_word_flagged(self):
        assert check_validity(((-2, 0),)) is not None
        assert check_validity(((-2, 0), (-2, 0), (2, 0))) is not None

    def test_every_valid_word_brackets_correctly(self):
        rng = random.Random(1)
        for _ in range(300):
            sym = random_word(rng, 10)
            assert sym[0] == (-2, 0)
            assert sym[-1] == (2, 0)
            assert sum(c for c, _ in sym) == 0
            assert sum(1 for c, _ in sym if c == 2) == sum(1 for c, _ in sym if c == -2)

    def test_profile_matches_definition(self):
        # -prefix-sum is the point count below each generator
        rng = random.Random(2)
        for _ in range(100):
            sym = random_word(rng, 8)
            word = decode(sym)
            profile = width_profile(word)  # top first
            below = list(reversed(profile[1:]))  # per generator, bottom width
            pre = 0
            for i, (c, d) in enumerate(sym):
                assert below[i] - 1 == -pre
                pre += c


class TestApplyRelation:
    def test_r1_forward(self):
        word = ((-2, 0), (-2, 0), (2, 2), (2, 0))
        assert apply_relation(word, "R1", 1) == ((-2, 0), (2, 0))

    def test_r1_both_mates(self):
        word = ((-2, 0), (-2, 2), (2, 0), (2, 0))
        assert apply_relation(word, "R1", 1) == ((-2, 0), (2, 0))

    def test_r1_backward_insert(self):
        word = ((-2, 0), (2, 0))
        out = apply_relation(word, "R1", 1, forward=False, insert=((-2, 0), (2, 2)))
        assert out == ((-2, 0), (-2, 0), (2, 2), (2, 0))

    def test_r32_forward(self):
        word = ((-2, 0), (-2, 2), (2, 0), (-2, 0), (2, 0), (2, 0))
        out = apply_relation(word, "R3.2", 2)
        assert out == ((-2, 0), (-2, 2), (-2, 2), (2, -2), (2, 0), (2, 0))

    def test_r2_forward(self):
        word = ((-2, 0), (-2, 0), (-2, 0), (2, -2), (2, 0), (2, 0))
        out = apply_relation(word, "R2", 3)
        assert out == ((-2, 0), (-2, 0), (-2, 0), (2, 2), (2, 0), (2, 0))

    def test_r4_forward(self):
        word = ((-2, 0), (-2, 2), (2, 0), (2, 0))
        out = apply_relation(word, "R4", 0)
        assert out == ((-2, 0), (-2, -2), (2, 0), (2, 0))

    def test_r31_roundtrip(self):
        word = ((-2, 0), (-2, 0), (-2, 0), (2, 4), (2, 0), (2, 0))
        out = apply_relation(word, "R3.1", 2)
        assert out == ((-2, 0), (-2, 0), (2, 2), (-2, 2), (2, 0), (2, 0))
        assert apply_relation(out, "R3.1", 2, forward=False) == word

    def test_forward_backward_inverse(self):
        rng = random.Random(3)
        tried = 0
        for _ in range(2000):
            sym = random_word(rng, 8)
            i = rng.randrange(len(sym) - 1) if len(sym) > 1 else 0
            for rule in ("R2", "R3.1", "R3.2", "R4"):
                try:
                    out = apply_relation(sym, rule, i)
                except ValueError:
                    continue
                assert apply_relation(out, rule, i, forward=False) == sym
                tried += 1
        assert tried > 200

    def test_every_rewrite_preserves_meaning(self):
        # validity, both invariants, and the traced forest survive any
        # single relation application, in either direction
        from tanglekit.invariants import word_value
        from tanglekit.lomonoid import count_monoid, prime_monoid
        from tanglekit.oracle import canonical, trace_diagram

        specs = (count_monoid(), prime_monoid())
        rng = random.Random(6)
        applied = 0
        for _ in range(400):
            sym = random_word(rng, 7)
            values = [word_value(sym, spec) for spec in specs]
            shape = canonical(trace_diagram(decode(sym)))
            i = rng.randrange(len(sym) - 1) if len(sym) > 1 else 0
            for rule in ("R1", "R2", "R3.1", "R3.2", "R4"):
                for forward in (True, False):
                    if rule == "R1" and not forward:
                        continue
                    try:
                        out = apply_relation(sym, rule, i, forward=forward)
                    except ValueError:
                        continue
                    assert check_validity(out) is None
                    assert [word_value(out, spec) for spec in specs] == values
                    assert canonical(trace_diagram(decode(out))) == shape
                    applied += 1
        assert applied > 200

    def test_pattern_mismatch(self):
        with pytest.raises(ValueError, match="does not match"):
            apply_relation(((-2, 0), (2, 0)), "R2", 0)

    def test_unknown_rule(self):
        with pytest.raises(ValueError, match="unknown rule"):
            apply_relation(((-2, 0), (2, 0)), "R9", 0)


class TestParsing:
    def test_symbol_form(self):
        assert parse_sym("(-2,0)(2,0)") == ((-2, 0), (2, 0))

    def test_generator_form(self):
        assert parse_gen("U(1,2);H(1,2)") == CIRCLE
        assert parse_gen(" U(1,2) ; H(1,2) ") == CIRCLE

    def test_autodetect(self):
        assert parse_word("(-2,0)(2,0)") == ("sym", ((-2, 0), (2, 0)))
        assert parse_word("U(1,2);H(1,2)") == ("gen", CIRCLE)
        assert parse_word("") == ("sym", ())

    def test_bad_symbol_token_position(self):
        with pytest.raises(ParseError) as excinfo:
            parse_sym("(-2,0)(3,0)")
        assert excinfo.value.position == 2

    def test_odd_d_rejected(self):
        with pytest.raises(ParseError):
            parse_sym("(-2,1)(2,-1)")

    def test_bad_generator_token_position(self):
        with pytest.raises(ParseError) as excinfo:
            parse_gen("U(1,2);X(1,2)")
        assert excinfo.value.position == 2

    def test_out_of_range_slot(self):
        with pytest.raises(ParseError) as excinfo:
            parse_gen("U(1,2);H(1,4)")
        assert excinfo.value.position == 2

    def test_garbage(self):
        with pytest.raises(ParseError):
            parse_word("hello")

    def test_format_roundtrip(self):
        rng = random.Random(4)
        for _ in range(100):
            sym = random_word(rng, 10)
            assert parse_sym(format_sym(sym)) == sym
            word = decode(sym)
            assert parse_gen(format_gen(word)) == word


class TestArities:
    def test_profile(self):
        assert width_profile(CIRCLE) == [1, 3, 1]
        assert width_profile(()) == [1]
        assert width_profile((), 5) == [5]
        assert width_profile(CIRCLE, 1) == [1, 3, 1]

    def test_closed(self):
        assert is_closed(CIRCLE)
        assert not is_closed((Generator("cap", 1, 2),))
        assert not is_closed((Generator("cup", 3, 2), Generator("cap", 3, 2)))

    def test_mismatch_position(self):
        with pytest.raises(ParseError) as excinfo:
            width_profile((Generator("cup", 3, 2), Generator("cap", 1, 2)))
        assert excinfo.value.position == 1

    def test_start_width_mismatch_position(self):
        with pytest.raises(ParseError, match="incoming width is 3") as excinfo:
            width_profile(CIRCLE, 3)
        assert excinfo.value.position == 2


class TestCorpora:
    def test_exhaustive_counts(self):
        words_by_len = {}
        for sym in iter_closed_words(8):
            words_by_len.setdefault(len(sym), 0)
            words_by_len[len(sym)] += 1
        assert words_by_len == {0: 1, 2: 1, 4: 10, 6: 325, 8: 22150}

    def test_random_words_valid(self):
        rng = random.Random(5)
        for _ in range(500):
            sym = random_word(rng, 15)
            assert check_validity(sym) is None
            assert len(sym) <= 30
