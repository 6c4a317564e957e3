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
from tanglekit.oracle import canonical, trace_diagram
from tanglekit.rewriting import normalize, to_forest
from tanglekit.words import decode, encode, format_sym, parse_word

MAX_SYMBOLS = 20


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
