"""Boolean matrix algebra: operations, laws, closure, builders."""

import random

import pytest

from tanglekit import boolmat

import boolean_algebra as bm
from boolean_algebra import Matrix as BitMatrix
from operator_spec import (
    boolean_power,
    checkerboard,
    flank_link,
    inner_embed,
    masked_transfer,
    outer_corners,
    scalar_bit,
    transitive_closure,
    unit_column,
    unit_entry,
)


def rows(m):
    return [[m.entry(i, j) for j in range(m.cols)] for i in range(m.rows)]


def random_matrix(rng, r, c):
    return BitMatrix.from_rows([[rng.randrange(2) for _ in range(c)] for _ in range(r)])


class TestOperations:
    def test_add_is_entrywise_or(self):
        a = BitMatrix.from_rows([[1, 0], [0, 0]])
        b = BitMatrix.from_rows([[0, 0], [0, 1]])
        assert rows(a + b) == [[1, 0], [0, 1]]

    def test_add_zero_and_idempotent(self):
        rng = random.Random(0)
        for _ in range(50):
            a = random_matrix(rng, 3, 4)
            assert a + bm.zero(3, 4) == a
            assert a + a == a

    def test_mul(self):
        a = BitMatrix.from_rows([[1, 1], [0, 1]])
        b = BitMatrix.from_rows([[1, 0], [1, 1]])
        assert rows(a @ b) == [[1, 1], [1, 1]]

    def test_mul_identity(self):
        rng = random.Random(1)
        a = random_matrix(rng, 4, 4)
        assert bm.identity(4) @ a == a
        assert a @ bm.identity(4) == a

    def test_insert_map_column_normalized(self):
        b = bm.insert_map(1, 2)
        assert b.transpose() @ b == bm.identity(1)

    def test_transpose(self):
        col = BitMatrix.from_rows([[1], [0], [1]])
        assert rows(col.transpose()) == [[1, 0, 1]]
        rng = random.Random(2)
        a = random_matrix(rng, 3, 5)
        assert a.transpose().transpose() == a

    def test_transpose_antihomomorphism(self):
        rng = random.Random(3)
        for _ in range(30):
            a = random_matrix(rng, 3, 4)
            b = random_matrix(rng, 4, 2)
            assert (a @ b).transpose() == b.transpose() @ a.transpose()

    def test_minus(self):
        assert bm.identity(3) - bm.single_diag(3, 2) == BitMatrix.from_rows(
            [[1, 0, 0], [0, 0, 0], [0, 0, 1]]
        )

    def test_minus_recovers(self):
        rng = random.Random(4)
        for _ in range(100):
            a = random_matrix(rng, 3, 3)
            b = random_matrix(rng, 3, 3)
            assert (a - b) + b >= a
            if b <= a:
                assert (a - b) + b == a

    def test_leq(self):
        a = BitMatrix.from_rows([[1, 0], [0, 1]])
        b = BitMatrix.from_rows([[1, 1], [0, 1]])
        assert a <= b
        assert not b <= a
        assert bm.zero(2, 2) <= a
        assert (a <= b) == (a + b == b)

    def test_shape_mismatch_rejected(self):
        a = bm.identity(2)
        b = bm.identity(3)
        with pytest.raises(ValueError):
            a + b
        with pytest.raises(ValueError):
            a - b
        with pytest.raises(ValueError):
            a @ bm.zero(2, 2) @ b
        with pytest.raises(ValueError):
            a <= b

    def test_entry_and_lines(self):
        a = BitMatrix.from_rows([[1, 0, 1], [0, 1, 0], [1, 0, 1]])
        assert a.entry(0, 2) == 1
        assert a.entry(1, 2) == 0
        assert a.to_lines() == ["101", "010", "101"]

    def test_immutability(self):
        a = bm.identity(2)
        with pytest.raises(AttributeError):
            a.rows = 5


class TestShapeChecks:
    """The library's BitMatrix checks its own shape, its bits against
    its columns, and the index of each entry it reads."""

    def test_empty_shapes(self):
        for r, c in ((0, 0), (0, 3), (3, 0)):
            m = boolmat.BitMatrix(r, c, (0,) * r)
            assert (m.rows, m.cols) == (r, c)
        m = boolmat.BitMatrix.from_rows([])
        assert (m.rows, m.cols) == (0, 0)

    @pytest.mark.parametrize("shape", [(-1, 0, ()), (2, -1, (0, 0))])
    def test_negative_shape(self, shape):
        with pytest.raises(ValueError, match="^inconsistent BitMatrix shape$"):
            boolmat.BitMatrix(*shape)

    def test_bit_at_column_cols(self):
        assert boolmat.BitMatrix(1, 2, (0b10,)).entry(0, 1) == 1
        with pytest.raises(ValueError, match="^row bits outside column range$"):
            boolmat.BitMatrix(1, 2, (0b100,))

    def test_from_rows_refuses_ragged_rows_and_non_bits(self):
        with pytest.raises(ValueError, match="^ragged rows$"):
            boolmat.BitMatrix.from_rows([[1, 0], [1]])
        with pytest.raises(ValueError, match="^entry 2 is not a bit$"):
            boolmat.BitMatrix.from_rows([[1, 0], [0, 2]])

    def test_hash_and_repr(self):
        m = boolmat.BitMatrix.from_rows([[1, 0], [0, 1]])
        assert hash(m) == hash(boolmat.BitMatrix(2, 2, (0b01, 0b10)))
        assert repr(m) == "BitMatrix(2x2: 10|01)"

    @pytest.mark.parametrize("i, j", [(-1, 0), (2, 0), (0, -1), (0, 2)])
    def test_entry_outside(self, i, j):
        with pytest.raises(IndexError, match=rf"^entry \({i},{j}\) outside 2x2$"):
            boolmat.BitMatrix(2, 2, (0b01, 0b10)).entry(i, j)


class TestSemiringLaws:
    """Sum/product laws on random matrices up to 12x12."""

    def test_laws(self):
        rng = random.Random(5)
        for _ in range(60):
            n = rng.randrange(1, 13)
            m = rng.randrange(1, 13)
            p = rng.randrange(1, 13)
            a = random_matrix(rng, n, m)
            a2 = random_matrix(rng, n, m)
            a3 = random_matrix(rng, n, m)
            b = random_matrix(rng, m, p)
            b2 = random_matrix(rng, m, p)
            c = random_matrix(rng, p, 3)
            assert a + a2 == a2 + a
            assert (a + a2) + a3 == a + (a2 + a3)
            assert (a @ b) @ c == a @ (b @ c)
            assert a @ (b + b2) == a @ b + a @ b2
            assert (a + a2) @ b == a @ b + a2 @ b
            assert a @ bm.zero(m, p) == bm.zero(n, p)
            if a <= a2:
                assert a + a3 <= a2 + a3
                assert a @ b <= a2 @ b
                assert a.transpose() <= a2.transpose()

    def test_order_compatibility_directed(self):
        rng = random.Random(6)
        for _ in range(40):
            n = rng.randrange(1, 8)
            a = random_matrix(rng, n, n)
            b = a + random_matrix(rng, n, n)  # force a <= b
            c = random_matrix(rng, n, n)
            assert a <= b
            assert a + c <= b + c
            assert c @ a <= c @ b
            assert a @ c <= b @ c


class TestTransitiveClosure:
    def test_identity_closed(self):
        assert transitive_closure(bm.identity(4)) == bm.identity(4)

    def test_chain(self):
        a = BitMatrix.from_rows([[1, 1, 0], [0, 1, 1], [0, 0, 1]])
        assert rows(transitive_closure(a)) == [[1, 1, 1], [0, 1, 1], [0, 0, 1]]

    def test_properties(self):
        rng = random.Random(7)
        for _ in range(60):
            n = rng.randrange(1, 9)
            a = random_matrix(rng, n, n)
            ca = transitive_closure(a)
            assert ca @ ca <= ca            # transitive
            assert a <= ca
            assert transitive_closure(ca) == ca  # idempotent
            b = ca + random_matrix(rng, n, n)
            assert ca <= transitive_closure(b)   # monotone
            # minimality: closure <= any transitive upper bound
            t = transitive_closure(a + bm.identity(n))
            assert t @ t <= t and a <= t
            assert ca <= t

    def test_reflexive_closure_is_a_power(self):
        rng = random.Random(8)
        for _ in range(40):
            n = rng.randrange(1, 9)
            a = random_matrix(rng, n, n) + bm.identity(n)
            ca = transitive_closure(a)
            assert any(boolean_power(a, p) == ca for p in range(1, n + 1))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            transitive_closure(bm.zero(2, 3))


class TestBuilders:
    def test_insert_map_small(self):
        assert bm.insert_map(1, 2).to_lines() == ["1", "0", "1"]
        b = bm.insert_map(3, 2)
        ones = {(i, j) for i in range(5) for j in range(3) if b.entry(i, j)}
        assert ones == {(0, 0), (2, 0), (3, 1), (4, 2)}

    def test_reversal(self):
        s = bm.reversal(3)
        assert s.to_lines() == ["001", "010", "100"]
        assert s @ s == bm.identity(3)

    def test_single_diag_and_unit(self):
        assert bm.single_diag(3, 2).to_lines() == ["000", "010", "000"]
        assert unit_column(3, 1).to_lines() == ["1", "0", "0"]
        assert unit_entry(3, 1, 3).to_lines() == ["001", "000", "000"]

    def test_inner_embed_and_corners(self):
        assert inner_embed(1).to_lines() == ["0", "1", "0"]
        assert outer_corners(3).to_lines() == ["101", "000", "101"]

    def test_checkerboard(self):
        assert checkerboard(3, 3).to_lines() == ["101", "010", "101"]
        assert checkerboard(2, 4).to_lines() == ["1010", "0101"]

    def test_scalar_extraction(self):
        r = checkerboard(3, 3)
        e1 = unit_column(3, 1)
        e3 = unit_column(3, 3)
        assert scalar_bit(e1.transpose() @ r @ e3) == 1
        with pytest.raises(ValueError):
            scalar_bit(bm.identity(2))

    def test_range_validation(self):
        with pytest.raises(ValueError):
            bm.insert_map(3, 1)
        with pytest.raises(ValueError):
            bm.insert_map(3, 5)
        with pytest.raises(ValueError):
            bm.single_diag(3, 0)
        with pytest.raises(ValueError):
            outer_corners(1)

    def test_masked_transfer_shape(self):
        x = masked_transfer(3, 2)
        assert (x.rows, x.cols) == (3, 5)
        # differs from the plain transpose only at (k-1, k+1)
        t = bm.insert_map(3, 2).transpose()
        assert t - x == unit_column(3, 1) @ unit_column(5, 3).transpose()

    def test_flank_link(self):
        a = flank_link(3, 2)
        ones = {(i, j) for i in range(5) for j in range(5) if a.entry(i, j)}
        assert ones == {(0, 0), (0, 2), (2, 0), (2, 2)}
