"""State validation, the trivial state, and random generation."""

import random

import pytest

from tanglekit import boolmat as bm
from tanglekit.boolmat import BitMatrix
from tanglekit.lomonoid import count_monoid, prime_monoid
from tanglekit.states import (
    StateValidationError,
    random_state,
    trivial,
    validate,
)

from operator_spec import ends_connected, is_valid

COUNT = count_monoid()
PRIME = prime_monoid()


def failed_names(excinfo):
    return [name for name, _ in excinfo.value.failures]


class TestValidate:
    def test_trivial_object(self):
        st = validate(bm.identity(1), (0,), COUNT)
        assert st.n == 1 and st.values == (0,)

    def test_circle_cap_state(self):
        r = BitMatrix.from_rows([[1, 0, 1], [0, 1, 0], [1, 0, 1]])
        st = validate(r, (0, 0, 0), COUNT)
        assert ends_connected(st)

    def test_identity_any_values(self):
        st = validate(bm.identity(3), (4, 7, 1), COUNT)
        assert st.values == (4, 7, 1)

    def test_parity_violation(self):
        r = BitMatrix.from_rows([[1, 1], [1, 1]])
        with pytest.raises(StateValidationError) as excinfo:
            validate(r, (0, 0), COUNT)
        assert ("T1", (1, 2)) in excinfo.value.failures

    def test_reports_all_failures(self):
        # not reflexive, not symmetric, odd-parity entry, values unfixed
        r = BitMatrix.from_rows([[0, 1], [0, 1]])
        with pytest.raises(StateValidationError) as excinfo:
            validate(r, (3, 5), COUNT)
        names = failed_names(excinfo)
        assert "E1" in names and "E2" in names and "T1" in names

    def test_neighbour_rule(self):
        # 1~5 without 2~4 and without any closer partner for 1 breaks T3
        r = BitMatrix.from_rows(
            [
                [1, 0, 0, 0, 1],
                [0, 1, 0, 0, 0],
                [0, 0, 1, 0, 0],
                [0, 0, 0, 1, 0],
                [1, 0, 0, 0, 1],
            ]
        )
        with pytest.raises(StateValidationError) as excinfo:
            validate(r, (0,) * 5, COUNT)
        assert ("T3", (1, 5)) in excinfo.value.failures

    def test_interleaving_rule(self):
        # 1~3 and 2~4 interleave: T2 must flag it (T1 passes: gaps even)
        r = BitMatrix.from_rows(
            [
                [1, 0, 1, 0, 0],
                [0, 1, 0, 1, 0],
                [1, 0, 1, 0, 0],
                [0, 1, 0, 1, 0],
                [0, 0, 0, 0, 1],
            ]
        )
        with pytest.raises(StateValidationError) as excinfo:
            validate(r, (0,) * 5, COUNT)
        assert "T2" in failed_names(excinfo)

    def test_unfixed_values(self):
        r = BitMatrix.from_rows([[1, 0, 1], [0, 1, 0], [1, 0, 1]])
        with pytest.raises(StateValidationError) as excinfo:
            validate(r, (1, 0, 2), COUNT)
        names = failed_names(excinfo)
        assert "EC" in names and "VC" in names

    def test_shape_errors(self):
        with pytest.raises(ValueError):
            validate(bm.zero(2, 3), (0, 0), COUNT)
        with pytest.raises(ValueError):
            validate(bm.identity(2), (0,), COUNT)


class TestTrivial:
    def test_per_monoid_zero(self):
        assert trivial(COUNT).values == (0,)
        assert trivial(PRIME).values == (1,)

    def test_validates(self):
        st = trivial(PRIME)
        assert is_valid(st.region, st.values, PRIME)

    def test_ends_connected(self):
        assert ends_connected(trivial(COUNT))

    def test_even_width_never_connected(self):
        st = validate(bm.identity(2), (0, 0), COUNT)
        assert not ends_connected(st)


class TestRandomState:
    @pytest.mark.parametrize("width", [1, 3, 9])
    def test_validates_many_seeds(self, width):
        for seed in range(100):
            st = random_state(width, seed, COUNT)
            assert st.n == width
            assert is_valid(st.region, st.values, COUNT)

    def test_prime_values_stay_valid(self):
        for seed in range(40):
            st = random_state(5, seed, PRIME)
            assert is_valid(st.region, st.values, PRIME)

    def test_deterministic_per_seed(self):
        a = random_state(5, 123, COUNT)
        b = random_state(5, 123, COUNT)
        assert a == b

    def test_shared_rng_advances(self):
        rng = random.Random(0)
        a = random_state(3, rng, COUNT)
        b = random_state(3, rng, COUNT)
        assert a != b or a.values != b.values  # overwhelmingly distinct

    def test_unreachable_width(self):
        with pytest.raises(ValueError):
            random_state(2, 0, COUNT)
        with pytest.raises(ValueError):
            random_state(0, 0, COUNT)


class TestEndsConnectedClosure:
    def test_preserved_by_cap_and_cup(self):
        # every reachable state keeps its outer intervals linked, and
        # the operators never break that
        from tanglekit.operators import cap, cup

        rng = random.Random(99)
        for _ in range(300):
            spec = PRIME if rng.randrange(2) else COUNT
            n = rng.choice((1, 3, 5, 7))
            st = random_state(n, rng, spec)
            assert ends_connected(st)
            assert ends_connected(cap(st, rng.randrange(2, n + 2)))
            if n >= 3:
                assert ends_connected(cup(st, rng.randrange(2, n)))


class TestDump:
    def test_layout(self):
        r = BitMatrix.from_rows([[1, 0, 1], [0, 1, 0], [1, 0, 1]])
        st = validate(r, (0, 7, 0), COUNT)
        assert st.dump() == "101\n010\n101\n(0, 7, 0)"
        assert st.summary() == "width 3 values (0, 7, 0)"
