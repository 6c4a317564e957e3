"""Elementary operators: formulas pinned by hand, relations, intertwining."""

import random

import pytest

from tanglekit import boolmat as bm
from tanglekit.boolmat import BitMatrix
from tanglekit.lomonoid import count_monoid, prime_monoid
from tanglekit.operators import (
    Generator,
    add_value,
    cap,
    cup,
    cup_value,
    encircle_state,
    eval_steps,
    eval_word,
    mirror,
    shift,
)
from tanglekit.states import is_valid, random_state, trivial, validate

from operator_spec import cap_spec, cup_spec

COUNT = count_monoid()
PRIME = prime_monoid()

CIRCLE_CAP_ROWS = [[1, 0, 1], [0, 1, 0], [1, 0, 1]]


def circle_cap_state(spec, inner):
    return validate(BitMatrix.from_rows(CIRCLE_CAP_ROWS), (spec.zero, inner, spec.zero), spec)


class TestCap:
    def test_on_trivial(self):
        st = cap(trivial(COUNT), 2)
        assert st.region == BitMatrix.from_rows(CIRCLE_CAP_ROWS)
        assert st.values == (0, 0, 0)

    def test_on_identity_state(self):
        st = validate(bm.identity(3), (4, 7, 9), COUNT)
        up = cap(st, 2)
        ones = {(i, j) for i in range(5) for j in range(5) if up.region.entry(i, j)}
        assert ones == {(0, 0), (0, 2), (2, 0), (2, 2), (1, 1), (3, 3), (4, 4)}
        assert up.values == (4, 0, 4, 7, 9)

    def test_slot_range(self):
        st = trivial(COUNT)
        with pytest.raises(ValueError):
            cap(st, 1)
        with pytest.raises(ValueError):
            cap(st, 3)

    def test_outputs_validate(self):
        rng = random.Random(0)
        for _ in range(300):
            spec = PRIME if rng.randrange(2) else COUNT
            n = rng.choice((1, 3, 5, 7))
            st = random_state(n, rng, spec)
            out = cap(st, rng.randrange(2, n + 2))
            assert is_valid(out.region, out.values, spec)


class TestCupValue:
    def test_sealed_region(self):
        st = circle_cap_state(COUNT, 5)
        assert cup_value(st, 2) == 6  # phi(5) under count

    def test_merge_branch(self):
        st = validate(bm.identity(3), (4, 7, 9), COUNT)
        assert cup_value(st, 2) == 4  # min(4, 9)
        assert cup_value(validate(bm.identity(3), (4, 7, 9), PRIME), 2) == 1  # gcd

    def test_range(self):
        st = circle_cap_state(COUNT, 0)
        with pytest.raises(ValueError):
            cup_value(st, 1)
        with pytest.raises(ValueError):
            cup_value(st, 3)
        with pytest.raises(ValueError):
            cup_value(trivial(COUNT), 2)


class TestCup:
    def test_closes_circle(self):
        st = circle_cap_state(PRIME, 5)
        out = cup(st, 2)
        assert out.n == 1
        assert out.values == (11,)  # phi(5) = 5th prime

    def test_merges_regions(self):
        st = validate(bm.identity(3), (4, 7, 9), COUNT)
        out = cup(st, 2)
        assert out.n == 1
        assert out.values == (13,)  # 4 (+) 9

    def test_undoes_cap(self):
        rng = random.Random(1)
        for _ in range(300):
            spec = PRIME if rng.randrange(2) else COUNT
            n = rng.choice((1, 3, 5, 7))
            st = random_state(n, rng, spec)
            k = rng.randrange(2, n + 2)
            up = cap(st, k)
            if k <= n:
                assert cup(up, k + 1) == st
            if k >= 3:
                assert cup(up, k - 1) == st

    def test_outputs_validate(self):
        rng = random.Random(2)
        for _ in range(300):
            spec = PRIME if rng.randrange(2) else COUNT
            n = rng.choice((3, 5, 7, 9))
            st = random_state(n, rng, spec)
            out = cup(st, rng.randrange(2, n))
            assert is_valid(out.region, out.values, spec)

    def test_width_guard(self):
        with pytest.raises(ValueError):
            cup(trivial(COUNT), 2)


class TestMirror:
    def test_involution_and_trivial(self):
        assert mirror(trivial(COUNT)) == trivial(COUNT)
        rng = random.Random(3)
        for _ in range(100):
            st = random_state(rng.choice((1, 3, 5)), rng, COUNT)
            assert mirror(mirror(st)) == st

    def test_commutes_with_cap(self):
        rng = random.Random(4)
        for _ in range(200):
            spec = PRIME if rng.randrange(2) else COUNT
            n = rng.choice((1, 3, 5, 7))
            st = random_state(n, rng, spec)
            k = rng.randrange(2, n + 2)
            assert mirror(cap(st, k)) == cap(mirror(st), n + 3 - k)

    def test_commutes_with_cup(self):
        rng = random.Random(5)
        for _ in range(200):
            spec = PRIME if rng.randrange(2) else COUNT
            n = rng.choice((3, 5, 7))
            st = random_state(n, rng, spec)
            k = rng.randrange(2, n)
            assert mirror(cup(st, k)) == cup(mirror(st), n + 1 - k)


class TestAddValue:
    def test_on_trivial(self):
        assert add_value(trivial(COUNT), 9).values == (9,)
        assert add_value(trivial(PRIME), 6).values == (6,)

    def test_zero_is_identity(self):
        rng = random.Random(6)
        for _ in range(60):
            st = random_state(rng.choice((1, 3, 5)), rng, PRIME)
            assert add_value(st, 1) == st

    def test_commutes_with_operators(self):
        rng = random.Random(7)
        for _ in range(200):
            spec = PRIME if rng.randrange(2) else COUNT
            n = rng.choice((1, 3, 5, 7))
            st = random_state(n, rng, spec)
            m = spec.sample(rng)
            k = rng.randrange(2, n + 2)
            assert cap(add_value(st, m), k) == add_value(cap(st, k), m)
            if n >= 3:
                j = rng.randrange(2, n)
                assert cup(add_value(st, m), j) == add_value(cup(st, j), m)


class TestEncircleState:
    def test_trivial_empty(self):
        out = encircle_state(trivial(COUNT))
        assert out.region == BitMatrix.from_rows(CIRCLE_CAP_ROWS)
        assert out.values == (0, 0, 0)

    def test_trivial_with_value(self):
        out = encircle_state(add_value(trivial(COUNT), 3))
        assert out.region == BitMatrix.from_rows(CIRCLE_CAP_ROWS)
        assert out.values == (0, 3, 0)

    def test_well_defined(self):
        from tanglekit.states import ends_connected

        rng = random.Random(8)
        for _ in range(200):
            spec = PRIME if rng.randrange(2) else COUNT
            st = random_state(rng.choice((1, 3, 5, 7)), rng, spec)
            out = encircle_state(st)
            assert is_valid(out.region, out.values, spec)
            assert ends_connected(out)

    def test_intertwines_cap(self):
        rng = random.Random(9)
        for _ in range(200):
            spec = PRIME if rng.randrange(2) else COUNT
            n = rng.choice((1, 3, 5, 7))
            st = random_state(n, rng, spec)
            k = rng.randrange(2, n + 2)
            assert cap(encircle_state(st), k + 1) == encircle_state(cap(st, k))

    def test_intertwines_cup(self):
        rng = random.Random(10)
        for _ in range(200):
            spec = PRIME if rng.randrange(2) else COUNT
            n = rng.choice((3, 5, 7))
            st = random_state(n, rng, spec)
            k = rng.randrange(2, n)
            assert cup(encircle_state(st), k + 1) == encircle_state(cup(st, k))


class TestShift:
    def test_rule(self):
        assert shift(Generator("cap", 1, 2)) == Generator("cap", 3, 3)
        assert shift(Generator("cup", 3, 4)) == Generator("cup", 5, 5)

    def test_symbol_unchanged(self):
        rng = random.Random(11)
        for _ in range(100):
            n = rng.randrange(1, 9)
            k = rng.randrange(2, n + 2)
            g = Generator("cap" if rng.randrange(2) else "cup", n, k)
            assert shift(g).symbol() == g.symbol()


class TestEvalWord:
    def test_circle_count(self):
        word = (Generator("cup", 1, 2), Generator("cap", 1, 2))
        assert eval_word(word, trivial(COUNT)).values == (1,)

    def test_circle_prime(self):
        word = (Generator("cup", 1, 2), Generator("cap", 1, 2))
        assert eval_word(word, trivial(PRIME)).values == (2,)

    def test_empty_word(self):
        st = random_state(3, 0, COUNT)
        assert eval_word((), st) == st

    def test_arity_mismatch_reports_position(self):
        word = (Generator("cup", 3, 2), Generator("cap", 1, 2))
        with pytest.raises(ValueError, match="position 1"):
            eval_word(word, trivial(COUNT))

    def test_start_width_mismatch_reports_position(self):
        word = (Generator("cup", 1, 2), Generator("cap", 1, 2))
        with pytest.raises(ValueError, match="arity mismatch at position 2"):
            eval_word(word, random_state(3, 0, COUNT))

    def test_steps_end_at_eval_word(self):
        word = (Generator("cup", 1, 2), Generator("cup", 3, 3), Generator("cap", 3, 4),
                Generator("cap", 1, 2))
        steps = list(eval_steps(word, trivial(PRIME)))
        assert [gen for gen, _ in steps] == list(reversed(word))
        assert [st.n for _, st in steps] == [3, 5, 3, 1]
        assert steps[-1][1] == eval_word(word, trivial(PRIME))


class TestAgainstSpec:
    """cap and cup equal the paper's matrix formulas, R' = M R M' + D
    and R' = (M' R M)^2, at every legal slot."""

    @staticmethod
    def check_every_slot(st):
        for k in range(2, st.n + 2):
            assert cap(st, k) == cap_spec(st, k), (st.spec.name, st.n, k)
        for k in range(2, st.n):
            assert cup(st, k) == cup_spec(st, k), (st.spec.name, st.n, k)

    def test_state_pools(self, state_pools):
        for pool in state_pools.values():
            for st in pool:
                self.check_every_slot(st)

    @pytest.mark.parametrize("width", [11, 13])
    def test_wide_random_states(self, monoids, width):
        rng = random.Random(f"spec/{width}")
        for spec in monoids:
            for _ in range(30):
                self.check_every_slot(random_state(width, rng, spec))


class TestGenerator:
    def test_validation(self):
        with pytest.raises(ValueError):
            Generator("cap", 1, 1)
        with pytest.raises(ValueError):
            Generator("cup", 2, 4)
        with pytest.raises(ValueError):
            Generator("twist", 1, 2)

    def test_widths(self):
        g = Generator("cap", 3, 2)
        assert (g.in_width, g.out_width) == (3, 5)
        u = Generator("cup", 3, 2)
        assert (u.in_width, u.out_width) == (5, 3)

    def test_symbol_examples(self):
        assert Generator("cup", 1, 2).symbol() == (-2, 0)
        assert Generator("cap", 3, 4).symbol() == (2, 2)
        assert Generator("cap", 3, 2).symbol() == (2, -2)
