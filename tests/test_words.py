"""Symbol codec, validity condition, rewrites, and the text syntaxes."""

import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

import reference_rewriting
import reference_words
import tanglekit
from conftest import iter_closed_words
from reference_rewriting import apply_relation, rewrite_pair
from tanglekit import operators, words
from tanglekit.errors import InternalInvariantError, ParseError
from tanglekit.invariants import invariant_reports
from tanglekit.operators import Generator
from tanglekit.words import (
    check_validity,
    closed_slots,
    decode,
    encode,
    format_sym,
    parse_gen,
    parse_sym,
    parse_word,
    random_word,
    slots,
    swap,
    to_gen_word,
    to_sym_word,
    width_profile,
)


def format_gen(word) -> str:
    return ";".join(g.text() for g in word)


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

    def test_invalid_encoding_is_internal(self, monkeypatch):
        # encode checks the symbols it reads off a generator word
        monkeypatch.setattr(words, "check_validity", lambda sym: 0)
        with pytest.raises(InternalInvariantError, match="^closed word encoded to an invalid symbol word$"):
            encode(CIRCLE)

    def test_symbol_word_comes_back_unchecked(self):
        # normalize checks the symbols it reads, so encode does not
        assert encode([(-2, 0), (2, 0)]) == ((-2, 0), (2, 0))
        assert encode(((2, 1),)) == ((2, 1),)


class TestDecode:
    def test_circle(self):
        assert decode(((-2, 0), (2, 0))) == CIRCLE

    def test_hump(self):
        assert decode(((-2, 0), (-2, 0), (2, 2), (2, 0))) == HUMP

    def test_invalid_rejected(self):
        with pytest.raises(ParseError) as excinfo:
            decode(((2, 0), (-2, 0)))
        assert excinfo.value.position == 1

    def test_generator_word_rejected(self):
        with pytest.raises(ValueError, match="^decode takes a symbol word, not a generator word$"):
            decode(CIRCLE)

    def test_wrong_slot_is_internal(self, monkeypatch):
        # decode checks that each generator it builds encodes to its symbol
        plain = words.slots
        monkeypatch.setattr(words, "slots", lambda word, width: [
            (is_cap, 2) for is_cap, _ in plain(word, width)
        ])
        with pytest.raises(InternalInvariantError,
                           match=r"^decode built H\(3,2\) for the symbol \(2, 2\)$"):
            decode(((-2, 0), (-2, 0), (2, 2), (2, 0)))

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

    def test_bad_c_flagged(self):
        # no bound holds a symbol whose c is not +-2, even where |d| fits
        assert check_validity(((3, 0),)) == 0
        assert check_validity(((-2, 0), (0, 0), (2, 0))) == 1

    def test_bad_c_is_named_where_it_moves_floor(self):
        # The c of 1 makes the total odd, which moves floor below 0, so
        # the first symbol would read as out of bounds; check_validity
        # names the bad c instead, as require_valid does.
        assert check_validity(((-2, 0), (1, 0))) == 1
        with pytest.raises(ParseError, match="^symbol 2: first component must be"):
            tanglekit.normalize(((-2, 0), (1, 0)))
        # Ahead of an entry that is not an int, too.
        assert check_validity(((-2, 0), (2, 0.0), (-1, 0))) == 2
        with pytest.raises(ParseError, match="^symbol 3: first component must be"):
            tanglekit.normalize(((-2, 0), (2, 0.0), (-1, 0)))

    @pytest.mark.parametrize("sym, bad", [
        (((-2, 1), (1, 0)), 0),  # an odd d, then a bad c
        (((-2, 0), (-2, 2), (1, 0), (2, 1)), 2),  # an even d, a bad c, then an odd d
    ])
    def test_bad_c_and_odd_d_are_named_as_require_valid_names_them(self, sym, bad):
        assert check_validity(sym) == bad
        with pytest.raises(ParseError) as refused:
            words.require_valid(sym)
        assert refused.value.position == bad + 1

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

    def test_insert_only_for_r1_backward(self):
        # Without forward=False an R1 "insertion" would delete a pair.
        insert = ((-2, 0), (2, 2))
        with pytest.raises(ValueError, match="^insert= is only for R1 backward, not R2 forward$"):
            apply_relation(((-2, 0), (-2, 0), (-2, 0), (2, -2), (2, 0), (2, 0)), "R2", 3,
                           insert=insert)
        with pytest.raises(ValueError, match="^insert= is only for R1 backward, not R1 forward$"):
            apply_relation(((-2, 0), (-2, 0), (2, 2), (2, 0)), "R1", 1, insert=insert)
        with pytest.raises(ValueError, match="^insert= is only for R1 backward, not R4 backward$"):
            apply_relation(((-2, 0), (-2, -2), (2, 0), (2, 0)), "R4", 0, forward=False,
                           insert=insert)

    def test_pattern_mismatch(self):
        with pytest.raises(ValueError, match="does not match"):
            apply_relation(((-2, 0), (2, 0)), "R2", 0)

    def test_unknown_rule(self):
        with pytest.raises(ValueError, match="unknown rule"):
            apply_relation(((-2, 0), (2, 0)), "R9", 0)

    def test_invalidating_insertion_is_bad_input(self):
        # (-2,0)(2,2)(-2,0)(2,0): the inserted cap sits where no cap fits
        with pytest.raises(ValueError, match="^inserting .* breaks the validity condition$"):
            apply_relation(((-2, 0), (2, 0)), "R1", 0, forward=False,
                           insert=((-2, 0), (2, 2)))

    def test_invalid_start_word_is_bad_input(self):
        with pytest.raises(ValueError, match="violates the validity condition"):
            apply_relation(((2, 0), (-2, 0)), "R3.2", 0)

    def test_breaking_a_valid_word_is_internal(self, monkeypatch):
        # a wrong rewrite formula, not the caller, breaks a valid word
        monkeypatch.setattr(reference_rewriting, "rewrite_pair", lambda *args: ((2, 4), (2, 0)))
        with pytest.raises(InternalInvariantError, match="^rewrite R2 broke the validity"):
            apply_relation(((-2, 0), (-2, 0), (2, 0), (2, 0)), "R2", 2)


# The rule list of the words docstring, one formula per rule and
# direction: (signs of the pair a b, condition on their d's k l, result).
SPELLED_OUT = {
    ("R2", True): ((2, 2), lambda k, l: k <= l - 2, lambda k, l: ((2, l + 2), (2, k + 2))),
    ("R2", False): ((2, 2), lambda k, l: l <= k - 2, lambda k, l: ((2, l - 2), (2, k - 2))),
    ("R3.1", True): ((-2, 2), lambda k, l: k <= l - 4, lambda k, l: ((2, l - 2), (-2, k + 2))),
    ("R3.1", False): ((2, -2), lambda k, l: l <= k, lambda k, l: ((-2, l - 2), (2, k + 2))),
    ("R3.2", True): ((2, -2), lambda k, l: k <= l, lambda k, l: ((-2, l + 2), (2, k - 2))),
    ("R3.2", False): ((-2, 2), lambda k, l: l <= k - 4, lambda k, l: ((2, l + 2), (-2, k - 2))),
    ("R4", True): ((-2, -2), lambda k, l: k <= l - 2, lambda k, l: ((-2, l - 2), (-2, k - 2))),
    ("R4", False): ((-2, -2), lambda k, l: l <= k - 2, lambda k, l: ((-2, l + 2), (-2, k + 2))),
}

# Every symbol with c in -4..4 and d in -9..9, signs and parities that
# no valid word holds included.
GRID = [(c, d) for c in (-4, -2, 0, 2, 4) for d in range(-9, 10)]


def spelled_out_rewrite(rule, a, b, forward):
    """What rewrite_pair must give: the pair it rewrites to, or the
    message of the ValueError it raises."""
    if rule == "R1":
        if not forward:
            return "R1 backward inserts a pair: use apply_relation(..., insert=...)"
        if a[0] == -2 and b[0] == 2 and b[1] in (a[1] + 2, a[1] - 2):
            return ()
        return f"R1 does not match {a}{b}"
    if (rule, forward) not in SPELLED_OUT:
        return f"unknown rule {rule!r}"
    signs, applies, result = SPELLED_OUT[rule, forward]
    if (a[0], b[0]) == signs and applies(a[1], b[1]):
        return result(a[1], b[1])
    return f"{rule} {'forward' if forward else 'backward'} does not match {a}{b}"


class TestRewritePair:
    def test_matches_the_spelled_out_rules(self):
        checked = 0
        for rule in ("R1", "R2", "R3.1", "R3.2", "R4", "R9"):
            for forward in (True, False):
                for a in GRID:
                    for b in GRID:
                        want = spelled_out_rewrite(rule, a, b, forward)
                        try:
                            got = rewrite_pair(rule, a, b, forward)
                        except ValueError as exc:
                            got = str(exc)
                        assert got == want, (rule, forward, a, b)
                        checked += 1
        assert checked == 108_300

    def test_r1_backward_is_an_insertion(self):
        # only apply_relation's insert= can say which pair to insert
        with pytest.raises(ValueError, match="insert"):
            rewrite_pair("R1", (-2, 0), (2, 2), forward=False)

    def test_swap_backward_undoes_forward(self):
        for a in GRID:
            for b in GRID:
                assert swap(*swap(a, b), forward=False) == (a, b)
                assert swap(*swap(a, b, forward=False)) == (a, b)


class TestGenerator:
    def test_width_parameter_zero(self):
        with pytest.raises(ValueError, match="^generator width parameter 0 must be >= 1$"):
            Generator("cap", 0, 2)

    @pytest.mark.parametrize("k", [1, 4])
    def test_slot_outside(self, k):
        assert Generator("cup", 2, 3).k == 3
        with pytest.raises(ValueError, match=rf"^slot k={k} outside 2\.\.3 for width parameter 2$"):
            Generator("cup", 2, k)


class TestParsing:
    def test_symbol_form(self):
        assert parse_sym("(-2,0)(2,0)") == ((-2, 0), (2, 0))

    def test_generator_form(self):
        assert parse_gen("U(1,2);H(1,2)") == CIRCLE
        assert parse_gen(" U(1,2) ; H(1,2) ") == CIRCLE

    def test_empty_generator_text(self):
        assert parse_gen("") == parse_gen("  ") == ()

    def test_autodetect(self):
        assert parse_word("(-2,0)(2,0)") == ("sym", ((-2, 0), (2, 0)))
        assert parse_word("U(1,2);H(1,2)") == ("gen", CIRCLE)
        assert parse_word("") == ("sym", ())

    def test_unknown_start_position(self):
        with pytest.raises(ParseError, match="^word must start with") as excinfo:
            parse_word("x")
        assert excinfo.value.position == 1

    @pytest.mark.parametrize("text", ["(-2,0)(2,0)", "U(1,2);H(1,2)"])
    def test_parsed_word_in_either_form(self, text):
        parsed = parse_word(text)
        assert to_gen_word(parsed) == CIRCLE
        assert to_sym_word(parsed) == ((-2, 0), (2, 0))

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

    @pytest.mark.parametrize("text, position", [("H(1,N)", 1), ("U(1,2);H(N,2)", 2)])
    def test_over_long_generator_number_is_a_positioned_error(self, text, position):
        with pytest.raises(ParseError, match=f"^generator {position}: ") as excinfo:
            parse_gen(text.replace("N", "2" * 5000))
        assert excinfo.value.position == position

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


class TestSymbolParseErrors:
    """A symbol word is read in symbol order: the first symbol with a bad
    c, an odd d or a malformed token is the one reported."""

    @pytest.mark.parametrize("text, message, position", [
        # a bad c before a later bad token, and a bad token before a later bad c
        ("(-2,0)(3,0)(2,0)x", "symbol 2: first component must be +-2, got 3", 2),
        ("(-2,0)(2,0)x(3,0)", "symbol 3: bad token at 'x(3,0)'", 3),
        # an odd d; within one symbol c is checked first
        ("(-2,0)(2,1)", "symbol 2: d=1 must be even", 2),
        ("(3,1)", "symbol 1: first component must be +-2, got 3", 1),
        ("(2,1)(3,0)", "symbol 1: d=1 must be even", 1),
        # whitespace is stripped at the ends only
        ("(-2,0) (2,0)", "symbol 2: bad token at ' (2,0)'", 2),
        # a valid prefix followed by a tail that is no token
        ("(-2,0)(2,0)(", "symbol 3: bad token at '('", 3),
        ("(-2,0)(2,", "symbol 2: bad token at '(2,'", 2),
        ("(-2,0)(2,0)()", "symbol 3: bad token at '()'", 3),
        ("(-2,0)(+2,0)", "symbol 2: bad token at '(+2,0)'", 2),
    ])
    def test_first_error_in_symbol_order(self, text, message, position):
        with pytest.raises(ParseError) as excinfo:
            parse_sym(text)
        assert (str(excinfo.value), excinfo.value.position) == (message, position)

    @pytest.mark.parametrize("text, word", [
        ("(02,0)", ((2, 0),)),
        ("(-02,-00)", ((-2, 0),)),
        (" (-2,0)(2,0) \n", ((-2, 0), (2, 0))),
        ("", ()),
        ("   ", ()),
    ])
    def test_accepted_spellings(self, text, word):
        assert parse_sym(text) == word

    @pytest.mark.parametrize("text, position", [
        ("(N,0)(2,0)", 1),
        ("(-2,0)(2,N)", 2),
        # symbol order holds past a number no int() reads
        ("(-2,0)(N,0)(3,0)", 2),
        ("(-2,0)(3,0)(N,0)", 2),
    ])
    def test_over_long_number_is_a_positioned_error(self, text, position):
        # No valid word holds a number past int()'s digit limit.
        text = text.replace("N", "2" * 5000)
        with pytest.raises(ParseError, match=f"^symbol {position}: ") as excinfo:
            parse_sym(text)
        assert excinfo.value.position == position

    def test_long_word_roundtrips(self):
        sym = random_word(random.Random(15), 50_000)
        sym += ((-2, 0), (2, 0)) * ((100_000 - len(sym)) // 2)
        assert len(sym) == 100_000
        text = format_sym(sym)
        assert parse_sym(text) == sym
        assert format_sym(parse_sym(text)) == text


class TestArities:
    def test_profile(self):
        assert width_profile(CIRCLE) == [1, 3, 1]
        assert width_profile(()) == [1]
        assert width_profile((), 5) == [5]
        assert width_profile(CIRCLE, 1) == [1, 3, 1]

    def test_closed(self):
        assert closed_slots(CIRCLE) == [(True, 2), (False, 2)]
        assert closed_slots(((-2, 0), (2, 0))) == [(True, 2), (False, 2)]
        assert closed_slots(()) == []
        with pytest.raises(ValueError, match=r"^word is not closed: final width 3$"):
            closed_slots((Generator("cap", 1, 2),))
        with pytest.raises(ParseError, match="incoming width is 1") as excinfo:
            closed_slots((Generator("cup", 3, 2), Generator("cap", 3, 2)))
        assert excinfo.value.position == 2

    def test_mismatch_position(self):
        with pytest.raises(ParseError) as excinfo:
            width_profile((Generator("cup", 3, 2), Generator("cap", 1, 2)))
        assert excinfo.value.position == 1

    def test_start_width_mismatch_position(self):
        with pytest.raises(ParseError, match="incoming width is 3") as excinfo:
            width_profile(CIRCLE, 3)
        assert excinfo.value.position == 2


TEXT_CALLS = {
    "check_validity": tanglekit.check_validity,
    "circle_count": tanglekit.circle_count,
    "decode": tanglekit.decode,
    "encode": tanglekit.encode,
    "equivalent": lambda word: tanglekit.equivalent(word, word),
    "eval_word": lambda word: tanglekit.eval_word(word, tanglekit.trivial(tanglekit.count_monoid())),
    "normalize": tanglekit.normalize,
    "to_forest": tanglekit.to_forest,
    "trace_diagram": tanglekit.trace_diagram,
    "word_value": lambda word: tanglekit.word_value(word, tanglekit.count_monoid()),
}

_START = tanglekit.trivial(tanglekit.count_monoid())
CONTRACT_CALLS = dict(
    TEXT_CALLS,
    format_sym=format_sym,
    width_profile=width_profile,
    eval_steps=lambda word: list(operators.eval_steps(word, _START)),
)


@pytest.mark.parametrize("text", ["(-2,0)(2,0)", "U(1,2);H(1,2)", ""])
@pytest.mark.parametrize("name", sorted(CONTRACT_CALLS))
def test_word_text_is_refused(name, text):
    # Each export that takes a word takes its parsed form; text, the
    # empty string included, is refused as bad input, not misread.
    with pytest.raises(ParseError, match="^a word given as text must be read with parse_word first$"):
        CONTRACT_CALLS[name](text)


WRONG_FORMS = {
    "lists": [[-2, 0], [2, 0]],
    "ints": (1, 2),
    "bytes": b"(-2,0)(2,0)",
    "texts": ("H(1,2)",),
}


@pytest.mark.parametrize("form", sorted(WRONG_FORMS))
@pytest.mark.parametrize("name", sorted(TEXT_CALLS))
def test_wrong_word_form_is_refused(name, form):
    # A word is a tuple of symbols or of Generators; anything else is
    # bad input, not an AttributeError or an unpacking error from deep
    # inside, nor a "normal word" of lists.
    with pytest.raises(ParseError, match="^a word is a sequence of symbol tuples or of Generators$"):
        TEXT_CALLS[name](WRONG_FORMS[form])


MIXED_FORMS = {
    "symbol then generator": ((-2, 0), Generator("cap", 1, 2)),
    "generator then symbol": (Generator("cup", 1, 2), (2, 0)),
    "triple": ((-2, 0, 1), (2, 0)),
    "single": ((-2,), (2, 0)),
}


@pytest.mark.parametrize("form", sorted(MIXED_FORMS))
@pytest.mark.parametrize("name", sorted(set(TEXT_CALLS) - {"encode"}))
def test_mixed_or_non_pair_word_is_refused(name, form):
    # Every element of a word has its first element's form, and a symbol
    # is a pair; the check runs only where such a word fails.
    with pytest.raises(ParseError, match="^a word is a sequence of symbol tuples or of Generators$"):
        TEXT_CALLS[name](MIXED_FORMS[form])


BAD_ENTRIES = {
    "float d": ((-2, 0.0), (2, 0)),
    "float c": ((-2, 0), (2.0, 0)),
    "text d": ((2, "a"), (-2, 0)),
}


@pytest.mark.parametrize("form", sorted(BAD_ENTRIES))
@pytest.mark.parametrize("name", sorted(set(TEXT_CALLS) - {"encode"}))
def test_symbol_of_non_int_entries_is_refused(name, form):
    # A symbol is a pair of ints: a float or a text entry is bad input,
    # not a TypeError from deep inside nor a Generator with a float slot.
    with pytest.raises(ParseError, match="^a word is a sequence of symbol tuples or of Generators$"):
        TEXT_CALLS[name](BAD_ENTRIES[form])


@pytest.mark.parametrize("name", ["check_validity", "decode", "normalize", "to_forest"])
def test_list_pair_is_refused_where_symbols_are_read(name):
    # The readers of whole symbols refuse a list; the operators and the
    # sweep, which read only its entries, may answer for it.
    with pytest.raises(ParseError, match="^a word is a sequence of symbol tuples or of Generators$"):
        TEXT_CALLS[name](((-2, 0), [2, 0]))


def test_symbol_word_is_refused_where_generators_are_needed():
    start = tanglekit.trivial(tanglekit.count_monoid())
    for call in (width_profile, lambda word: operators.eval_steps(word, start)):
        with pytest.raises(ValueError, match="^a generator word is needed, not a symbol word$"):
            call(((-2, 0), (2, 0)))


_ENTRIES = st.one_of(
    st.integers(-4, 4),
    st.sampled_from((2.0, -2.0, 0.0, 0.5, float("inf"), float("nan"))),
    st.floats(),
    st.text(max_size=3),
    st.none(),
    st.booleans(),
)
_ELEMENTS = st.one_of(
    _ENTRIES,
    st.lists(_ENTRIES, max_size=3).map(tuple),
    st.tuples(st.sampled_from((2, -2)), st.integers(-3, 3).map(lambda d: 2 * d)),
    st.lists(st.integers(-4, 4), min_size=2, max_size=2),
    st.sampled_from(CIRCLE + HUMP),
)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.lists(_ELEMENTS, max_size=6).flatmap(lambda xs: st.sampled_from((tuple(xs), xs))))
def test_malformed_words_get_typed_refusals(word):
    # Whatever a malformed word holds, an export answers or refuses it as
    # bad input: a ParseError or a ValueError, never one from unpacking,
    # and never a TypeError, KeyError or AttributeError from deep inside.
    for name, call in CONTRACT_CALLS.items():
        try:
            call(word)
        except ValueError as exc:
            assert "unpack" not in str(exc), (name, word, exc)


@pytest.mark.parametrize("word", [
    ((2, 0), (2, None), (3, 0)),  # ahead of a bad c
    ((2, 0), (2, "a"), (3, 0)),
    ((2, 0), (2, None)),  # past a symbol out of bounds
])
@pytest.mark.parametrize("name", ["circle_count", "invariant_reports", "normalize", "trace_diagram"])
def test_non_int_d_past_where_check_validity_stops_is_refused(name, word):
    # check_validity names the first bad symbol without reading the
    # symbols past it, so require_valid meets such a d first.
    call = TEXT_CALLS.get(name, lambda word: invariant_reports(word, tanglekit.count_monoid()))
    with pytest.raises(ParseError, match="^a word is a sequence of symbol tuples or of Generators$"):
        call(word)


def test_encode_reads_only_a_generator_words_elements():
    # A symbol word comes back unchecked, for its reader to check.
    for form, word in MIXED_FORMS.items():
        if isinstance(word[0], Generator):
            with pytest.raises(ParseError, match="^a word is a sequence of symbol tuples or of Generators$"):
                encode(word)
        else:
            assert encode(word) == word, form


@pytest.mark.parametrize("name", ["check_validity", "format_sym", "normalize", "to_forest"])
def test_generator_word_is_refused_where_symbols_are_needed(name):
    with pytest.raises(ValueError, match="^a symbol word is needed, not a generator word$"):
        CONTRACT_CALLS[name](CIRCLE)


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

    def test_a_seed_draws_the_same_words(self):
        # Seeded suites, and the word a failed selftest names, reproduce
        # only while a seed draws the same words.
        rng = random.Random(4)
        assert [format_sym(random_word(rng, 12)) for _ in range(3)] == [
            "(-2,0)(-2,2)(2,0)(-2,-2)(-2,-4)(2,2)(2,2)(2,0)",
            "(-2,0)(2,0)",
            "(-2,0)(-2,0)(-2,-4)(2,0)(-2,-2)(2,0)(2,-2)(2,0)(-2,0)(2,0)",
        ]
        # Deeper walks, where the d ranges are wider than 3 values.
        text = "".join(format_sym(random_word(rng, 30)) for _ in range(50))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "395d6324b7e9bb1b2ccac966260c8f5a7aa7a2a2d6aa266b42ccab0dd28aafe7"
        )

    def test_random_word_of_one_pair_is_the_circle(self):
        for seed in range(20):
            assert random_word(random.Random(seed), 1) == ((-2, 0), (2, 0))
        with pytest.raises(ValueError, match="^max_pairs must be >= 1$"):
            random_word(random.Random(0), 0)


def outcome(read, *args):
    """What read(*args) returns, or the ParseError it raises, message
    and position included."""
    try:
        return read(*args)
    except ParseError as exc:
        return "ParseError", str(exc), exc.position


def spelled(draw, value: int) -> str:
    """value in decimal, with up to two leading zeros and, for 0, maybe a minus."""
    sign = "-" if value < 0 or (value == 0 and draw(st.booleans())) else ""
    return sign + "0" * draw(st.integers(0, 2)) + str(abs(value))


@st.composite
def symbol_texts(draw):
    """Symbol texts of well-formed (+-2, even d) tokens, in the spellings
    parse_sym accepts, with whitespace at the ends; a token may repeat."""
    tokens = draw(st.lists(st.tuples(st.sampled_from((2, -2)), st.integers(-6, 6)), max_size=12))
    body = "".join(f"({spelled(draw, c)},{spelled(draw, 2 * d)})" for c, d in tokens)
    return draw(st.sampled_from(("", " ", "\n "))) + body + draw(st.sampled_from(("", " ")))


@st.composite
def mutated_texts(draw):
    """A symbol text with one character inserted, deleted or replaced."""
    text = draw(symbol_texts())
    at = draw(st.integers(0, len(text)))
    char = draw(st.sampled_from("()-,0123 x"))
    kind = draw(st.sampled_from(("insert", "delete", "replace")))
    if kind == "insert":
        return text[:at] + char + text[at:]
    return text[:at] + (char if kind == "replace" else "") + text[at + 1:]


class TestOnePassReadersMatchTheReference:
    """parse_sym reads distinct tokens and slots checks a symbol word in
    one pass; each must return, or raise, exactly what the token-by-token
    and three-walk readers of tests/reference_words.py do."""

    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(symbol_texts())
    def test_parse_sym_on_valid_texts(self, text):
        assert outcome(parse_sym, text) == outcome(reference_words.parse_sym, text)

    @settings(derandomize=True, database=None, max_examples=400, deadline=None)
    @given(mutated_texts())
    def test_parse_sym_on_mutated_texts(self, text):
        assert outcome(parse_sym, text) == outcome(reference_words.parse_sym, text)

    def test_slots_refusal_that_require_valid_misses_is_internal(self, monkeypatch):
        monkeypatch.setattr(words, "require_valid", lambda sym: None)
        with pytest.raises(InternalInvariantError,
                           match="^slots refused a symbol word that require_valid accepts$"):
            slots(((2, 0), (-2, 0)), 1)

    def test_slots_on_every_closed_word(self):
        for sym in iter_closed_words(8):
            assert slots(sym, 1) == reference_words.slots(sym)

    @staticmethod
    def mutants(sym):
        """sym with one d moved by +-2 or made odd, or one c made bad or
        flipped, which leaves the word's sum nonzero."""
        for i, (c, d) in enumerate(sym):
            for symbol in ((c, d - 2), (c, d + 2), (c, d + 1), (0, d), (3, d), (-c, d)):
                yield sym[:i] + (symbol,) + sym[i + 1:]

    def test_slots_refuse_as_the_reference_does(self):
        corpus = [sym for i, sym in enumerate(iter_closed_words(8)) if len(sym) <= 6 or i % 25 == 0]
        refused = 0
        for sym in corpus:
            for bad in self.mutants(sym):
                expected = outcome(reference_words.slots, bad)
                assert outcome(slots, bad, 1) == expected, bad
                refused += expected[0] == "ParseError"
                if all(c in (2, -2) for c, _ in bad):
                    assert check_validity(bad) == reference_words.check_validity(bad), bad
        assert refused > 10_000, refused
