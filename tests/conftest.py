"""Shared fixtures for the acceptance suite: state pools and word corpora."""

import random

import pytest

from tanglekit.lomonoid import count_monoid, prime_monoid
from tanglekit.oracle import _dyck_words
from tanglekit.operators import random_state
from tanglekit.words import random_word

STATE_WIDTHS = (1, 3, 5, 7, 9)
STATES_PER_WIDTH = 200
MASTER_SEED = 20260810


def iter_closed_words(max_symbols: int):
    """Every valid symbol word with at most max_symbols symbols,
    including the empty word; exhaustive corpus for acceptance suites."""

    def extend(word: tuple, q: int, left: int):
        if left == 0:
            if q == 0:
                yield word
            return
        if q + 2 <= 2 * (left - 1):
            for d in range(-q, q + 1, 2):
                yield from extend(word + ((-2, d),), q + 2, left - 1)
        if q >= 2:
            for d in range(-(q - 2), q - 1, 2):
                yield from extend(word + ((2, d),), q - 2, left - 1)

    for length in range(0, max_symbols + 1, 2):
        yield from extend((), 0, length)


def dyck_corpus(max_pairs: int):
    """All balanced words with at most max_pairs pairs (the exhaustive
    word corpus used by the acceptance suites)."""
    for n in range(max_pairs + 1):
        yield from _dyck_words(n)


@pytest.fixture(scope="session")
def monoids():
    return (count_monoid(), prime_monoid())


@pytest.fixture(scope="session")
def state_pools(monoids):
    """200 seeded random states per (monoid, width); shared by every
    relation/intertwining criterion so generation cost is paid once."""
    pools = {}
    for spec in monoids:
        for width in STATE_WIDTHS:
            rng = random.Random(f"{MASTER_SEED}/{spec.name}/{width}")
            pools[(spec.name, width)] = [
                random_state(width, rng, spec) for _ in range(STATES_PER_WIDTH)
            ]
    return pools


@pytest.fixture(scope="session")
def word_corpus():
    """Exhaustive closed symbol words of <= 8 symbols plus 1000 seeded
    random words of <= 30 symbols."""
    exhaustive = list(iter_closed_words(8))
    rng = random.Random(MASTER_SEED)
    randoms = [random_word(rng, 15) for _ in range(1000)]
    return exhaustive, randoms
