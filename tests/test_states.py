"""State validation, the trivial state, and random generation."""

import itertools
import random

import pytest

from tanglekit import states
from tanglekit.boolmat import BitMatrix
from tanglekit.lomonoid import count_monoid, prime_monoid
from tanglekit.operators import cup, random_state
from tanglekit.states import (
    StateValidationError,
    TangleState,
    trivial,
    validate,
)

import boolean_algebra as bm
from operator_spec import ends_connected, is_valid, property_failures, t2_violated

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

    def test_reads_no_matrix_entries(self, monkeypatch):
        # A valid matrix is checked on its rows and then on its labels:
        # no entry is read and the O(n^2) witness search never runs,
        # which is what keeps the check linear in the rows.
        calls = []

        def counted(owner, name):
            method = getattr(owner, name)

            def call(*args):
                calls.append(name)
                return method(*args)

            monkeypatch.setattr(owner, name, call)

        counted(BitMatrix, "entry")
        counted(states, "_matrix_failures")
        for caps in (1000, 10000):  # caps side by side: widths 2,001 and 20,001
            labels = (0,) + tuple(label for i in range(1, caps + 1) for label in (i, 0))
            state = TangleState(len(labels), labels, (0,) * len(labels), COUNT)
            assert validate(state.region, state.values, COUNT) == state
        assert calls == []


def set_partitions(n):
    """Every partition of n intervals, as labels numbered in order of
    first occurrence."""
    def grow(prefix, top):
        if len(prefix) == n:
            yield prefix
            return
        for label in range(top + 2):
            yield from grow(prefix + (label,), max(top, label))
    return grow((0,), 0)


def validate_failures(region, values):
    try:
        validate(region, values, COUNT)
    except StateValidationError as exc:
        return exc.failures
    return []


class TestAgainstSpec:
    """`validate` checks E1-E3 on the rows and the rest on labels; the
    paper's checks on the matrix, `property_failures`, are its spec."""

    def test_every_partition_to_width_seven(self):
        rng = random.Random(17)
        cases = 0
        for n in range(1, 8):
            for labels in set_partitions(n):
                masks = {}
                for i, label in enumerate(labels):
                    masks[label] = masks.get(label, 0) | 1 << i
                region = BitMatrix(n, n, tuple(masks[label] for label in labels))
                for values in ((0,) * n, tuple(rng.randrange(2) for _ in range(n))):
                    want = property_failures(region, values, COUNT)
                    got = validate_failures(region, values)
                    assert [name for name, _ in got] == [name for name, _ in want], labels
                    for (name, at), (_, spec_at) in zip(got, want):
                        if name == "T2":
                            assert t2_violated(region, *(i - 1 for i in at)), (labels, at)
                        else:
                            assert at == spec_at, (labels, values, name)
                    cases += 1
        assert cases == 2 * 1155  # the Bell numbers 1, 2, 5, 15, 52, 203, 877

    def test_matrices_that_are_not_partitions(self):
        # Every 0/1 matrix to width 3, and a seeded sample at widths 4-6.
        rng = random.Random(29)
        matrices = [
            BitMatrix(n, n, rows)
            for n in range(1, 4)
            for rows in itertools.product(range(1 << n), repeat=n)
        ]
        matrices += [
            BitMatrix(n, n, tuple(rng.randrange(1 << n) for _ in range(n)))
            for n in range(4, 7) for _ in range(500)
        ]
        matrix_names = {"E1", "E2", "E3", "T1"}
        for region in matrices:
            n = region.rows
            for values in ((0,) * n, tuple(rng.randrange(2) for _ in range(n))):
                want = property_failures(region, values, COUNT)
                got = validate_failures(region, values)
                assert [f for f in got if f[0] in matrix_names] == [
                    f for f in want if f[0] in matrix_names
                ], region
                if any(name in ("E1", "E2", "E3") for name, _ in want):
                    assert {name for name, _ in got} <= matrix_names, region


class TestHandBuilt:
    """The constructor checks every state, so one built by hand is
    refused before an operator can meet it."""

    def test_interleaved_regions(self):
        with pytest.raises(StateValidationError) as excinfo:
            cup(TangleState(5, (0, 1, 0, 1, 0), (0,) * 5, COUNT), 3)
        assert failed_names(excinfo) == ["T2"]

    def test_shape(self):
        with pytest.raises(ValueError) as excinfo:
            TangleState(2, (0,), (0,), COUNT)
        assert not isinstance(excinfo.value, StateValidationError)

    def test_width_zero(self):
        with pytest.raises(ValueError, match="^a width-0 state needs n >= 1"):
            TangleState(0, (), (), COUNT)
        with pytest.raises(ValueError, match="^width must be >= 1$"):
            validate(BitMatrix(0, 0, ()), (), COUNT)


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
