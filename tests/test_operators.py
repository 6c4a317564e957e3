"""Elementary operators: formulas pinned by hand, relations, intertwining."""

import dataclasses
import random
from collections import Counter

import pytest

from tanglekit import words
from tanglekit.invariants import circle_count, equivalent, word_value
from tanglekit.boolmat import BitMatrix
from tanglekit.lomonoid import count_monoid, lattice_monoid, prime_monoid
from tanglekit.operators import (
    Generator,
    add_value,
    cap,
    cup,
    eval_steps,
    eval_word,
    mirror,
    random_state,
)
from tanglekit.states import (
    TangleState,
    trivial,
    validate,
)

import boolean_algebra as bm
from operator_spec import (
    cap_spec,
    cup_spec,
    cup_value,
    encircle_state,
    ends_connected,
    from_region,
    is_valid,
)

COUNT = count_monoid()
PRIME = prime_monoid()

CIRCLE_CAP_ROWS = [[1, 0, 1], [0, 1, 0], [1, 0, 1]]


def chain_monoid():
    """The chain bot < mid < top with oplus = join and a phi that
    steps up, so a sealed region reads differently from a merged one."""
    elems = ("bot", "mid", "top")
    rank = elems.index
    join = {(a, b): max(a, b, key=rank) for a in elems for b in elems}
    meet = {(a, b): min(a, b, key=rank) for a in elems for b in elems}
    return lattice_monoid(elems, join, meet, minimum="bot", name="chain",
                          phi=lambda a: elems[min(rank(a) + 1, 2)])


CHAIN = chain_monoid()


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
        for k in (1, 3):
            with pytest.raises(ValueError, match=rf"^cap slot k={k} outside 2\.\.2 for width 1$"):
                cap(st, k)

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

    def test_width_two_is_refused(self):
        with pytest.raises(ValueError, match="^cup needs width >= 3, got 2$"):
            cup(TangleState(2, (0, 1), (0, 0), COUNT), 2)

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

    def test_slot_range(self):
        # checked before the state is read, not caught by an unpacking error
        st = cap(trivial(COUNT), 2)
        for k in (1, 3):
            with pytest.raises(ValueError, match=rf"^cup slot k={k} outside 2\.\.2 for width 3$"):
                cup(st, k)


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

    def test_bumps_only_the_first_intervals_region(self):
        # The ends of an identity state lie in different regions.
        st = validate(bm.identity(3), (4, 7, 9), COUNT)
        assert add_value(st, 1).values == (5, 7, 9)

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

    def test_symbol_word_starts_at_width_one(self):
        with pytest.raises(ValueError, match="^a symbol word starts at width 1, not 3$"):
            eval_word(((-2, 0), (2, 0)), random_state(3, 0, COUNT))

    def test_steps_end_at_eval_word(self):
        word = (Generator("cup", 1, 2), Generator("cup", 3, 3), Generator("cap", 3, 4),
                Generator("cap", 1, 2))
        steps = list(eval_steps(word, trivial(PRIME)))
        assert [gen for gen, _ in steps] == list(reversed(word))
        assert [st.n for _, st in steps] == [3, 5, 3, 1]
        assert steps[-1][1] == eval_word(word, trivial(PRIME))


def random_open_word(rng, width, length):
    """A composition-ordered word of `length` generators whose top
    expects `width`; each step is a cap or, from width 3 up, a cup."""
    gens = []
    for _ in range(length):
        if width >= 3 and rng.randrange(2):
            width -= 2
            gens.append(Generator("cup", width, rng.randrange(2, width + 2)))
        else:
            gens.append(Generator("cap", width, rng.randrange(2, width + 2)))
            width += 2
    return tuple(reversed(gens))


@pytest.mark.parametrize("width", [0, 2])
def test_random_state_refuses_unreachable_widths(width):
    with pytest.raises(ValueError, match=f"^width {width} is not reachable"):
        random_state(width, 0, COUNT)


def worn_state(rng, width, spec):
    """A state of the width whose labels run past it: the regions of a
    random count state after width + 5 cap-cup pairs at random slots,
    each region holding zero with phi applied 0-2 times."""
    st = random_state(width, rng, COUNT)
    for _ in range(width + 5):
        st = cup(cap(st, rng.randrange(2, st.n + 2)), rng.randrange(2, st.n + 2))
    value = {label: spec.zero for label in st.labels}
    for label in value:  # few phis: prime values stay far inside the table
        for _ in range(rng.randrange(3)):
            value[label] = spec.phi(value[label])
    return TangleState(st.n, st.labels, tuple(map(value.get, st.labels)), spec)


def fold_public(word, start):
    state = start
    for gen in reversed(word):
        state = cap(state, gen.k) if gen.kind == "cap" else cup(state, gen.k)
    return state


class TestEvalWordAgainstSteps:
    """eval_word runs the kernels on one pair of lists with its own
    fresh-label counter; it must land on the state that the public
    cap/cup reach one generator at a time."""

    @pytest.mark.parametrize("spec", [COUNT, PRIME, CHAIN], ids=lambda spec: spec.name)
    def test_random_starts_and_words(self, spec):
        rng = random.Random(f"eval-word/{spec.name}")
        past_width = 0
        for trial in range(150):
            st = worn_state(rng, rng.choice((1, 3, 5, 7, 9, 11)), spec)
            start = (st, from_region(st.region, st.values, spec), encircle_state(st))[trial % 3]
            past_width += max(start.labels) >= start.n
            word = random_open_word(rng, start.n, rng.randrange(0, 13))
            got = eval_word(word, start)
            steps = list(eval_steps(word, start))
            assert got == (steps[-1][1] if steps else start) == fold_public(word, start)
            assert is_valid(got.region, got.values, spec)
        assert past_width > 50  # many starts carry labels beyond their width


class TestLabels:
    def test_generator_orders_give_one_state(self):
        # Far-apart caps commute; the two orders name the new regions
        # with different labels but describe the same state.
        for spec in (COUNT, PRIME):
            st = cap(trivial(spec), 2)
            left = cap(cap(st, 2), 6)
            right = cap(cap(st, 4), 2)
            assert left.labels != right.labels
            assert left == right and hash(left) == hash(right)
            assert len({left, right}) == 1

    def test_eval_builds_no_matrix(self, monkeypatch):
        built = []
        plain_init = BitMatrix.__init__

        def counting_init(self, *args):
            built.append(args)
            plain_init(self, *args)

        monkeypatch.setattr(BitMatrix, "__init__", counting_init)
        depth = 500
        word = words.decode(((-2, 0),) * depth + ((2, 0),) * depth)
        assert word_value(word, COUNT) == depth
        assert built == []
        assert trivial(COUNT).region.rows == 1  # reading the property builds one
        assert len(built) == 1

    def test_eval_builds_one_state(self, monkeypatch):
        built = []
        plain_init = TangleState.__init__

        def counting_init(self, *args):
            built.append(args)
            plain_init(self, *args)

        monkeypatch.setattr(TangleState, "__init__", counting_init)
        depth = 500
        word = words.decode(((-2, 0),) * depth + ((2, 0),) * depth)
        assert word_value(word, COUNT) == depth
        assert len(built) == 2  # trivial() and the final state


class TestCupBranches:
    """No cup calls a lattice operation.  A cup that seals a region off
    calls phi and oplus once each; a cup that merges two regions calls
    oplus once, since join (+) meet = (+) by P2.  The calls are counted,
    so the pin does not hang on wall time."""

    @staticmethod
    def counting(spec, calls):
        def counted(name):
            op = getattr(spec, name)

            def call(*args):
                calls[name] += 1
                return op(*args)

            return call

        names = ("oplus", "join", "meet", "phi")
        return dataclasses.replace(spec, **{name: counted(name) for name in names})

    @pytest.mark.parametrize("depth", [1, 7, 300])
    def test_sealing_cups(self, depth):
        nest = ((-2, 0),) * depth + ((2, 0),) * depth
        row = ((-2, 0), (2, 0)) * depth
        for word in (nest, row):
            calls = Counter()
            assert word_value(word, self.counting(COUNT, calls)) == depth
            counts = [calls[name] for name in ("phi", "oplus", "join", "meet")]
            assert counts == [depth, depth, 0, 0], word[:4]

    def test_merging_cup(self):
        # One wavy circle: its cup U(3,3) merges the regions inside the
        # two humps, and U(1,2) then seals the merged region off.
        wavy = ((-2, 0), (-2, 0), (2, 2), (2, 0))
        for spec in (COUNT, PRIME, CHAIN):
            calls = Counter()
            value = word_value(wavy, self.counting(spec, calls))
            assert value == word_value(((-2, 0), (2, 0)), spec), spec.name
            counts = [calls[name] for name in ("phi", "oplus", "join", "meet")]
            assert counts == [1, 2, 0, 0], spec.name


class TestSymbolWords:
    """A symbol word is evaluated from its (c, d) pairs, each cap or cup
    at the slot its symbol fixes; it must reach the value of its decoded
    generator word."""

    def test_against_decoded_words(self, word_corpus):
        # The slots are pinned as well as the values: a circle system
        # and its mirror image have one value, so values cannot see a
        # mirrored slot.  decode is built on the walker, so each step is
        # checked against the forward code instead: the generator at
        # that slot and incoming width encodes to the step's symbol.
        exhaustive, randoms = word_corpus
        for sym in exhaustive + randoms:
            width = 1
            for (is_cap, k), symbol in zip(words.slots(sym, 1), reversed(sym), strict=True):
                gen = Generator("cap", width, k) if is_cap else Generator("cup", width - 2, k)
                assert gen.symbol() == symbol, sym
                width = gen.out_width
            gen_word = words.decode(sym)
            for spec in (COUNT, PRIME):
                decoded = eval_word(gen_word, trivial(spec)).values[0]
                assert word_value(sym, spec) == decoded, (spec.name, sym)

    def test_invariants_build_no_generator(self, monkeypatch):
        rng = random.Random("no-generator")
        cases = []
        for _ in range(20):
            a, b = words.random_word(rng, 8), words.random_word(rng, 8)
            count, value_a, value_b = (
                word_value(words.decode(word), spec)
                for word, spec in ((a, COUNT), (a, PRIME), (b, PRIME))
            )
            cases.append((a, b, count, value_a, value_b))
        built = []
        plain_post_init = Generator.__post_init__

        def counting_post_init(self):
            built.append(self)
            plain_post_init(self)

        monkeypatch.setattr(Generator, "__post_init__", counting_post_init)
        for a, b, count, value_a, value_b in cases:
            assert circle_count(a) == count
            assert word_value(a, PRIME) == value_a
            same, reports = equivalent(a, b)
            assert same == (value_a == value_b)
            assert [r.value for r in reports] == [str(value_a), str(value_b)]
        assert built == []
        words.decode(((-2, 0), (2, 0)))  # the counter does see a decode
        assert len(built) == 2


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
