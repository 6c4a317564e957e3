"""Property tests across the routes, on words that hypothesis draws.

A word is drawn by the point-count walk of words.random_word, fed by a
random source that hypothesis records and shrinks, so a failure
shrinks to a short word and a small choice of d's.  The examples are
derandomized, so every run checks the same words.  Besides the routes,
the symbol codec, both text syntaxes and the canonical string must
round-trip.
"""

from hypothesis import given, settings, strategies as st

from reference_rewriting import reference_normalize
from tanglekit import words
from tanglekit.errors import ResourceLimitError
from tanglekit.invariants import forest_value, word_value
from tanglekit.lomonoid import count_monoid, prime_monoid
from tanglekit.oracle import canonical, trace_diagram
from tanglekit.rewriting import normalize, to_forest
from tanglekit.words import decode, encode, format_sym, parse_word

MAX_SYMBOLS = 20
PRIME = prime_monoid()
COUNT = count_monoid()


@st.composite
def symbol_words(draw, max_symbols: int = MAX_SYMBOLS):
    """Valid symbol words of 2..max_symbols symbols."""
    return words.random_word(draw(st.randoms(use_true_random=False)), max_symbols // 2)


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(symbol_words())
def test_normalize_is_the_reference_and_the_sweep_forest(sym):
    normal, trace = normalize(sym)
    ref_normal, ref_trace = reference_normalize(sym)
    assert normal == ref_normal
    assert list(trace) == ref_trace  # step for step, potentials included
    assert canonical(to_forest(normal)) == canonical(trace_diagram(sym))


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(symbol_words())
def test_codec_and_text_round_trip(sym):
    gens = decode(sym)
    assert encode(gens) == sym
    assert parse_word(format_sym(sym)) == ("sym", sym)
    assert parse_word(";".join(g.text() for g in gens)) == ("gen", gens)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(symbol_words())
def test_canonical_string_reads_back_as_its_forest(sym):
    # enumerate_forests builds its forests this way
    s = canonical(to_forest(normalize(sym)[0]))
    assert canonical(to_forest(tuple((-2, 0) if ch == "(" else (2, 0) for ch in s))) == s


@settings(derandomize=True, database=None, max_examples=140, deadline=None)
@given(symbol_words(400))
def test_long_words_sweep_alike_in_both_forms_and_match_the_operators(sym):
    # normalize stays on short words; the sweep and the operators are
    # linear in the word, so they take the long ones.
    forest = trace_diagram(sym)
    assert forest == trace_diagram(decode(sym))
    try:
        assert forest_value(forest, PRIME) == word_value(sym, PRIME)
    except ResourceLimitError:  # a prime index past the table
        assert forest_value(forest, COUNT) == word_value(sym, COUNT)
