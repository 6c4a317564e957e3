"""Invariant values, both computation methods, and equivalence."""

import random
import sys
import threading
import tracemalloc
from array import array
from bisect import bisect_right

import pytest

from tanglekit import primes, words
from tanglekit.errors import ParseError, ResourceLimitError
from tanglekit.invariants import (
    circle_count,
    equivalent,
    forest_value,
    invariant_reports,
    nth_prime,
    word_value,
)
from tanglekit.lomonoid import count_monoid, prime_monoid
from tanglekit.rewriting import normalize, to_forest
from tanglekit.words import Generator

from reference_rewriting import encircle, forest_size

COUNT = count_monoid()
PRIME = prime_monoid()

CIRCLE = ((-2, 0), (2, 0))
NESTED = ((-2, 0), (-2, 0), (2, 0), (2, 0))
SIDE = ((-2, 0), (2, 0), (-2, 0), (2, 0))
HUMP = ((-2, 0), (-2, 0), (2, 2), (2, 0))


class TestNthPrime:
    def test_small(self):
        assert [nth_prime(i) for i in range(1, 8)] == [2, 3, 5, 7, 11, 13, 17]

    def test_oracle_values(self):
        assert nth_prime(5) == 11
        assert nth_prime(127) == 709
        assert nth_prime(1000) == 7919

    def test_against_sieve(self):
        limit = 10000
        alive = [True] * limit
        alive[0] = alive[1] = False
        for p in range(2, limit):
            if alive[p]:
                for q in range(p * p, limit, p):
                    alive[q] = False
        primes = [p for p in range(limit) if alive[p]]
        for i, p in enumerate(primes, start=1):
            assert nth_prime(i) == p

    def test_range(self):
        with pytest.raises(ValueError, match=r"^prime index 0 outside 1\.\.1000000$"):
            nth_prime(0)

    def test_past_table_is_resource_limit(self):
        with pytest.raises(
            ResourceLimitError, match=r"^prime index 1000001 exceeds the table limit 1000000$"
        ):
            nth_prime(10**6 + 1)

    def test_concurrent_lookups_consistent(self):
        results = {}

        def worker(tag, lo, hi):
            results[tag] = [nth_prime(i) for i in range(lo, hi)]

        threads = [
            threading.Thread(target=worker, args=(t, 1, 3000)) for t in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(results[t] == results[0] for t in results)
        assert results[0][-1] == nth_prime(2999)


def independent_sieve(limit):
    """The primes below limit, by the textbook sieve over every number."""
    composite = bytearray(limit)
    found = []
    for p in range(2, limit):
        if not composite[p]:
            found.append(p)
            for q in range(p * p, limit, p):
                composite[q] = 1
    return found


class TestSieve:
    """The sieve from its seed table, each test on a fresh table."""

    @pytest.fixture(autouse=True)
    def fresh_table(self, monkeypatch):
        monkeypatch.setattr(primes, "_primes", array("I", [2, 3, 5, 7, 11, 13]))

    def test_every_regrowth_against_independent_sieve(self):
        expected = independent_sieve(230000)  # past the 20000th prime, 224737
        assert [nth_prime(i) for i in range(1, 20001)] == expected[:20000]

    def test_concurrent_regrowths_against_independent_sieve(self):
        # Four readers race through every regrowth from the seed table; a
        # thread switch at almost every bytecode gives each race a chance.
        expected = independent_sieve(230000)[:20000]
        start = threading.Barrier(4)
        results = [None] * 4

        def worker(tag):
            start.wait(timeout=60)
            results[tag] = [nth_prime(i) for i in range(1, 20001)]

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert all(result == expected for result in results)

    def test_table_holds_four_bytes_a_prime(self):
        tracemalloc.start()
        try:
            nth_prime(10**5)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert current / len(primes._primes) <= 6
        assert peak < 2 * 2**20

    @pytest.mark.parametrize("index, bound", [(64, 16 * 2**10), (648391, 6.5 * 2**20)])
    def test_fill_peaks_under_its_bound(self, index, bound):
        # 648,391 is the prime tower's index that eval-wide reaches; a fill
        # to 64 must not pay for the read-out's block tables in full.
        tracemalloc.start()
        try:
            nth_prime(index)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound

    def test_wheel_against_independent_sieve_at_every_small_limit(self):
        # Every limit % 30, and the first strikes at 49, 77 and 91.
        expected = independent_sieve(3001)
        for limit in range(41, 3001):
            assert list(primes._sieve(limit)) == expected[:bisect_right(expected, limit)], limit

    @pytest.mark.parametrize("limit", [1234567, 16441303])  # the second is MAX_INDEX's limit
    def test_wheel_against_independent_sieve_at_large_limits(self, limit):
        expected = array("I", independent_sieve(limit + 1))
        assert primes._sieve(limit) == expected
        assert primes._sieve(expected[-1]) == expected  # a limit that is a prime keeps it

    def test_pinned(self):
        assert nth_prime(10**4) == 104729
        assert nth_prime(10**5) == 1299709
        assert nth_prime(primes.MAX_INDEX) == 15485863

    def test_prime_tower(self):
        tower = [1]
        while len(tower) < 12:
            tower.append(nth_prime(tower[-1]))
        assert tower[1:] == [2, 3, 5, 11, 31, 127, 709, 5381, 52711, 648391, 9737333]


class TestWordValue:
    def test_pinned(self):
        assert word_value(CIRCLE, COUNT) == 1
        assert word_value(CIRCLE, PRIME) == 2
        assert word_value(NESTED, PRIME) == 3
        assert word_value(SIDE, PRIME) == 4
        assert word_value(HUMP, PRIME) == 2

    def test_empty_word(self):
        assert word_value((), COUNT) == 0
        assert word_value((), PRIME) == 1

    def test_nesting_chain(self):
        sym = ()
        expected = [2, 3, 5, 11, 31, 127, 709]
        for want in expected:
            sym = encircle(sym)
            assert word_value(sym, PRIME) == want

    def test_accepts_generator_words(self):
        assert word_value(words.decode(CIRCLE), COUNT) == 1

    def test_open_word_rejected(self):
        from tanglekit.operators import Generator

        with pytest.raises(ValueError):
            word_value((Generator("cap", 1, 2),), COUNT)


class TestForestValue:
    def test_pinned(self):
        assert forest_value(((),), PRIME) == 2
        assert forest_value((((),),), PRIME) == 3
        assert forest_value(((), ()), PRIME) == 4
        assert forest_value((((), ()),), PRIME) == 7  # phi(4)

    def test_count_is_size(self):
        rng = random.Random(0)
        for _ in range(200):
            sym, _ = normalize(words.random_word(rng, 10))
            forest = to_forest(sym)
            assert forest_value(forest, COUNT) == forest_size(forest)

    def test_deep_nest(self):
        depth = 5000
        forest = to_forest(((-2, 0),) * depth + ((2, 0),) * depth)
        assert forest_value(forest, COUNT) == depth

    def test_first_index_past_table_in_walk_order(self):
        # phi runs on each tree as soon as it is finished, so the tree
        # walked first names the refused prime index.
        around_21 = ((),) * 21  # one circle around 21 circles
        nest_12 = ()
        for _ in range(11):
            nest_12 = (nest_12,)  # twelve nested circles
        with pytest.raises(ResourceLimitError, match=r"^prime index 2097152 "):
            forest_value((around_21, nest_12), PRIME)
        with pytest.raises(ResourceLimitError, match=r"^prime index 9737333 "):
            forest_value((nest_12, around_21), PRIME)
        # nest_12 is refused when it is finished, before the next tree's
        # inner phi(2**21) runs.
        with pytest.raises(ResourceLimitError, match=r"^prime index 9737333 "):
            forest_value((nest_12, (around_21,)), PRIME)


class TestMethodAgreement:
    @pytest.mark.parametrize("make", [count_monoid, prime_monoid])
    def test_random_words(self, make):
        spec = make()
        rng = random.Random(1)
        for _ in range(300):
            sym = words.random_word(rng, 10)
            direct = word_value(sym, spec)
            normal, _ = normalize(sym)
            assert forest_value(to_forest(normal), spec) == direct

    def test_reports(self):
        op, rec, agree = invariant_reports(words.decode(CIRCLE), COUNT)
        assert (op.method, rec.method) == ("operator", "recursive")
        assert op.value == rec.value == "1"
        assert agree


class TestHomomorphism:
    @pytest.mark.parametrize("make", [count_monoid, prime_monoid])
    def test_concatenation_and_commutativity(self, make):
        spec = make()
        rng = random.Random(2)
        for _ in range(200):
            a = words.random_word(rng, 6)
            b = words.random_word(rng, 6)
            va, vb = word_value(a, spec), word_value(b, spec)
            assert word_value(a + b, spec) == spec.oplus(va, vb)
            assert word_value(b + a, spec) == spec.oplus(va, vb)

    @pytest.mark.parametrize("make", [count_monoid, prime_monoid])
    def test_encirclement_applies_phi(self, make):
        spec = make()
        rng = random.Random(3)
        for _ in range(200):
            a = words.random_word(rng, 6)
            assert word_value(encircle(a), spec) == spec.phi(word_value(a, spec))


class TestEquivalent:
    def test_hump_is_a_circle(self):
        same, (ra, rb) = equivalent(CIRCLE, HUMP)
        assert same
        assert ra.value == rb.value == "2"

    def test_nested_vs_side(self):
        same, (ra, rb) = equivalent(NESTED, SIDE)
        assert not same
        assert (ra.value, rb.value) == ("3", "4")

    def test_reflexive(self):
        rng = random.Random(4)
        for _ in range(50):
            sym = words.random_word(rng, 8)
            assert equivalent(sym, sym)[0]

    def test_bad_input_wins_over_resource_limit(self):
        # Both words are checked before either is evaluated: the first
        # alone would need the 2**21-th prime, past the table.
        around_21 = ((-2, 0),) + CIRCLE * 21 + ((2, 0),)
        with pytest.raises(ResourceLimitError):
            equivalent(around_21, CIRCLE)
        with pytest.raises(ParseError, match=r"^symbol 1: \(2,0\) violates the validity condition$"):
            equivalent(around_21, ((2, 0),))
        with pytest.raises(ParseError, match=r"^arity mismatch at position 1: U\(3,2\) expects"):
            equivalent(around_21, (Generator("cup", 3, 2), Generator("cap", 1, 2)))
        with pytest.raises(ValueError, match=r"^word is not closed: final width 3$"):
            equivalent(around_21, (Generator("cap", 1, 2),))

    def test_value_past_the_int_str_limit(self):
        # 2**15000 has 4,516 digits, past Python's int-to-str limit.
        row = CIRCLE * 15000
        same, (ra, rb) = equivalent(row, row)
        assert same and ra.value == rb.value == hex(2**15000)

    def test_circle_count(self):
        assert circle_count(HUMP) == 1
        assert circle_count(SIDE) == 2

    def test_circle_count_deep_nest(self):
        for depth in (400, 5000):
            assert circle_count(((-2, 0),) * depth + ((2, 0),) * depth) == depth
