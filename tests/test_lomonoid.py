"""Monoid instances, axiom suite, and the Boolean action on arrays."""

import random

import pytest

from tanglekit import boolmat as bm
from tanglekit.boolmat import BitMatrix
from tanglekit.lomonoid import (
    act,
    axiom_failures,
    count_monoid,
    lattice_monoid,
    prime_monoid,
    scalar_act,
)

from operator_spec import array_leq, join_arrays, masked_transfer, oplus_arrays


def diamond():
    """The 4-element diamond: bot < a, b < top."""
    elems = ["bot", "a", "b", "top"]
    join = {}
    meet = {}
    order = {"bot": 0, "top": 3}
    for x in elems:
        for y in elems:
            if x == y:
                join[(x, y)] = x
                meet[(x, y)] = x
            elif "bot" in (x, y):
                other = y if x == "bot" else x
                join[(x, y)] = other
                meet[(x, y)] = "bot"
            elif "top" in (x, y):
                other = y if x == "top" else x
                join[(x, y)] = "top"
                meet[(x, y)] = other
            else:  # incomparable a, b
                join[(x, y)] = "top"
                meet[(x, y)] = "bot"
    return lattice_monoid(elems, join, meet, minimum="bot", name="diamond")


def random_bits(rng, r, c):
    return BitMatrix.from_rows([[rng.randrange(2) for _ in range(c)] for _ in range(r)])


def random_array(rng, spec, n):
    return tuple(spec.sample(rng) for _ in range(n))


class TestInstances:
    def test_count(self):
        c = count_monoid()
        assert (c.zero, c.oplus(2, 3), c.join(2, 3), c.meet(2, 3), c.phi(2)) == (0, 5, 3, 2, 3)

    def test_independent_builds_compare_equal(self):
        from tanglekit.states import trivial

        assert count_monoid() == count_monoid()
        assert prime_monoid() != count_monoid()
        assert trivial(prime_monoid()) == trivial(prime_monoid())
        # a phi override is a different representation, never equal
        assert count_monoid().with_phi(lambda n: n) != count_monoid()

    def test_prime(self):
        p = prime_monoid()
        assert (p.zero, p.oplus(4, 6), p.join(4, 6), p.meet(4, 6)) == (1, 24, 12, 2)
        assert [p.phi(n) for n in (1, 2, 3, 4, 5)] == [2, 3, 5, 7, 11]

    def test_two_chain(self):
        two = lattice_monoid(
            ["bot", "top"],
            {("bot", "bot"): "bot", ("bot", "top"): "top", ("top", "top"): "top"},
            {("bot", "bot"): "bot", ("bot", "top"): "bot", ("top", "top"): "top"},
            minimum="bot",
        )
        assert two.oplus("top", "top") == "top"
        assert two.leq("bot", "top")

    def test_diamond_is_valid(self):
        d = diamond()
        assert d.oplus("a", "b") == "top"
        assert d.meet("a", "b") == "bot"

    def test_bad_lattice_rejected(self):
        # break absorption: meet(a, join(a, b)) != a
        elems = ["bot", "a"]
        join = {("bot", "bot"): "bot", ("bot", "a"): "a", ("a", "a"): "a"}
        meet = {("bot", "bot"): "bot", ("bot", "a"): "bot", ("a", "a"): "bot"}
        with pytest.raises(ValueError, match="L1|L4"):
            lattice_monoid(elems, join, meet, minimum="bot")

    def test_missing_pair_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            lattice_monoid(["x", "y"], {("x", "x"): "x"}, {("x", "x"): "x"}, minimum="x")


class TestAxioms:
    @pytest.mark.parametrize("make", [count_monoid, prime_monoid])
    def test_random_triples(self, make):
        spec = make()
        rng = random.Random(42)
        triples = [tuple(spec.sample(rng) for _ in range(3)) for _ in range(2000)]
        assert axiom_failures(spec, triples) == []

    def test_diamond_exhaustive(self):
        d = diamond()
        triples = [(a, b, c) for a in d.elements for b in d.elements for c in d.elements]
        assert axiom_failures(d, triples) == []

    def test_derived_order(self):
        p = prime_monoid()
        assert p.leq(3, 12) and not p.leq(5, 12)
        c = count_monoid()
        assert c.leq(2, 7) and not c.leq(7, 2)


class TestScalarAction:
    def test_cases(self):
        c = count_monoid()
        assert scalar_act(1, 9, c) == 9
        assert scalar_act(0, 9, c) == 0
        with pytest.raises(ValueError):
            scalar_act(2, 9, c)

    @pytest.mark.parametrize("make", [count_monoid, prime_monoid])
    def test_scalar_laws(self, make):
        spec = make()
        rng = random.Random(9)
        for _ in range(200):
            v1, v2 = rng.randrange(2), rng.randrange(2)
            m = spec.sample(rng)
            m2 = spec.sample(rng)
            assert scalar_act(v1 * v2, m, spec) == scalar_act(v1, scalar_act(v2, m, spec), spec)
            assert scalar_act(min(v1 + v2, 1), m, spec) == spec.join(
                scalar_act(v1, m, spec), scalar_act(v2, m, spec)
            )
            assert scalar_act(v1, spec.join(m, m2), spec) == spec.join(
                scalar_act(v1, m, spec), scalar_act(v1, m2, spec)
            )
            assert scalar_act(v1, spec.oplus(m, m2), spec) == spec.oplus(
                scalar_act(v1, m, spec), scalar_act(v1, m2, spec)
            )


class TestMatrixAction:
    def test_examples(self):
        c = count_monoid()
        m = BitMatrix.from_rows([[1, 1], [0, 1]])
        assert act(m, (3, 5), c) == (5, 5)
        assert act(bm.identity(2), (3, 5), c) == (3, 5)
        assert act(bm.zero(2, 2), (3, 5), c) == (0, 0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            act(bm.identity(3), (1, 2), count_monoid())

    @pytest.mark.parametrize("make", [count_monoid, prime_monoid, diamond])
    def test_action_laws(self, make):
        spec = make()
        rng = random.Random(10)
        for _ in range(150):
            n, m, p = rng.randrange(1, 6), rng.randrange(1, 6), rng.randrange(1, 6)
            a = random_bits(rng, n, m)
            b = random_bits(rng, m, p)
            a2 = random_bits(rng, n, m)
            x = random_array(rng, spec, p)
            xm = random_array(rng, spec, m)
            ym = random_array(rng, spec, m)
            assert act(a @ b, x, spec) == act(a, act(b, x, spec), spec)
            assert act(a + a2, xm, spec) == join_arrays(act(a, xm, spec), act(a2, xm, spec), spec)
            assert act(bm.identity(m), xm, spec) == xm
            assert act(bm.zero(n, m), xm, spec) == (spec.zero,) * n
            assert act(a, join_arrays(xm, ym, spec), spec) == join_arrays(
                act(a, xm, spec), act(a, ym, spec), spec
            )
            # oplus only sub-distributes in general
            assert array_leq(
                act(a, oplus_arrays(xm, ym, spec), spec),
                oplus_arrays(act(a, xm, spec), act(a, ym, spec), spec),
                spec,
            )

    @pytest.mark.parametrize("make", [count_monoid, prime_monoid])
    def test_single_one_rows_distribute(self, make):
        # rows with at most one 1 make the action distribute over oplus
        spec = make()
        rng = random.Random(11)
        for _ in range(150):
            n, m = rng.randrange(1, 6), rng.randrange(1, 6)
            rows = []
            for _ in range(n):
                row = [0] * m
                if rng.randrange(3):
                    row[rng.randrange(m)] = 1
                rows.append(row)
            a = BitMatrix.from_rows(rows)
            x = random_array(rng, spec, m)
            y = random_array(rng, spec, m)
            assert act(a, oplus_arrays(x, y, spec), spec) == oplus_arrays(
                act(a, x, spec), act(a, y, spec), spec
            )

    @pytest.mark.parametrize("make", [count_monoid, prime_monoid])
    def test_annihilated_operand_distributes(self, make):
        # rows that zero out one operand also distribute
        spec = make()
        rng = random.Random(12)
        for _ in range(150):
            n, m = rng.randrange(1, 6), rng.randrange(1, 6)
            a = random_bits(rng, n, m)
            x = random_array(rng, spec, m)
            y = (spec.zero,) * m
            assert act(a, oplus_arrays(x, y, spec), spec) == oplus_arrays(
                act(a, x, spec), act(a, y, spec), spec
            )

    @pytest.mark.parametrize("make", [count_monoid, prime_monoid])
    def test_masked_transfer_agrees_when_right_below_left(self, make):
        # dropping the (k-1, k+1) entry changes nothing if the value it
        # would pull in is already below the one at k-1
        spec = make()
        rng = random.Random(14)
        for _ in range(200):
            n = rng.randrange(1, 6)
            k = rng.randrange(2, n + 2)
            v = list(random_array(rng, spec, n + 2))
            v[k - 2] = spec.join(v[k - 2], v[k])  # force v[k+1] <= v[k-1]
            full = bm.insert_map(n, k).transpose()
            masked = masked_transfer(n, k)
            assert act(full, v, spec) == act(masked, v, spec)

    @pytest.mark.parametrize("make", [count_monoid, prime_monoid])
    def test_symmetric_fixed_array_shifts_out(self, make):
        # R symmetric with act(R, v) = v lets v slide out of an oplus
        from tanglekit.lomonoid import MonoidSpec  # noqa: F401  (docs pointer)
        from tanglekit.states import random_state

        spec = make()
        rng = random.Random(13)
        for _ in range(100):
            width = rng.choice((1, 3, 5))
            st = random_state(width, rng, spec)
            u = random_array(rng, spec, width)
            left = act(st.region, oplus_arrays(u, st.values, spec), spec)
            right = oplus_arrays(act(st.region, u, spec), st.values, spec)
            assert left == right
