"""Invariant values, both computation methods, and equivalence."""

import random

import pytest

from tanglekit import words
from tanglekit.invariants import (
    circle_count,
    equivalent,
    forest_value,
    invariant_reports,
    nth_prime,
    word_value,
)
from tanglekit.lomonoid import count_monoid, prime_monoid
from tanglekit.rewriting import encircle, normalize, to_forest

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
        with pytest.raises(ValueError):
            nth_prime(0)
        with pytest.raises(ValueError):
            nth_prime(10**6 + 1)

    def test_concurrent_lookups_consistent(self):
        import threading

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
        from tanglekit.rewriting import forest_size

        rng = random.Random(0)
        for _ in range(200):
            sym, _ = normalize(words.random_word(rng, 10))
            forest = to_forest(sym)
            assert forest_value(forest, COUNT) == forest_size(forest)

    def test_deep_nest(self):
        depth = 5000
        forest = to_forest(((-2, 0),) * depth + ((2, 0),) * depth)
        assert forest_value(forest, COUNT) == depth


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

    def test_circle_count(self):
        assert circle_count(HUMP) == 1
        assert circle_count(SIDE) == 2

    def test_circle_count_deep_nest(self):
        depth = 400
        assert circle_count(((-2, 0),) * depth + ((2, 0),) * depth) == depth
