"""The Boolean matrix algebra of the paper, kept as the test
specification: sum, difference, product, transpose and order of 0/1
matrices over the two-element semiring (1+1=1), and the structured
matrices the operator formulas are written in.

`Matrix` is a `tanglekit.boolmat.BitMatrix` with these operations; the
library's BitMatrix is a value only.  `lift` turns a library matrix,
such as a state's `region`, into a Matrix.  The other operand of an
operation may be a library matrix, and a product with a Matrix on
either side is a Matrix.

Slot parameters of the builders are 1-based, as in the rest of the
library.  insert_map(n, k) is only defined for 2 <= k <= n+1: the
inserted pair always has an interval on each side.  All builders
validate eagerly and never clamp.
"""

from __future__ import annotations

from tanglekit.boolmat import BitMatrix


class Matrix(BitMatrix):
    """A BitMatrix with the semiring operations; each returns a new
    Matrix, and the other operand may be any BitMatrix."""

    __slots__ = ()

    def _require_same_shape(self, other: BitMatrix, op: str) -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError(
                f"{op}: shape mismatch {self.rows}x{self.cols} vs "
                f"{other.rows}x{other.cols}"
            )

    def __add__(self, other: BitMatrix) -> "Matrix":
        """Entrywise Boolean OR."""
        self._require_same_shape(other, "add")
        return Matrix(
            self.rows, self.cols,
            tuple(a | b for a, b in zip(self.bits, other.bits)),
        )

    def __sub__(self, other: BitMatrix) -> "Matrix":
        """Entrywise 'minus': 1 exactly where self has 1 and other has 0."""
        self._require_same_shape(other, "minus")
        return Matrix(
            self.rows, self.cols,
            tuple(a & ~b for a, b in zip(self.bits, other.bits)),
        )

    def __matmul__(self, other: BitMatrix) -> "Matrix":
        """Boolean matrix product (sum of products with 1+1=1)."""
        if self.cols != other.rows:
            raise ValueError(
                f"mul: inner dimension mismatch {self.rows}x{self.cols} @ "
                f"{other.rows}x{other.cols}"
            )
        out = []
        obits = other.bits
        for b in self.bits:
            acc = 0
            while b:
                low = b & -b
                acc |= obits[low.bit_length() - 1]
                b ^= low
            out.append(acc)
        return Matrix(self.rows, other.cols, tuple(out))

    def __rmatmul__(self, other: BitMatrix) -> "Matrix":
        return lift(other) @ self

    def transpose(self) -> "Matrix":
        cols = []
        for j in range(self.cols):
            acc = 0
            for i, b in enumerate(self.bits):
                acc |= ((b >> j) & 1) << i
            cols.append(acc)
        return Matrix(self.cols, self.rows, tuple(cols))

    def __le__(self, other: BitMatrix) -> bool:
        """Natural partial order: every entry of self <= entry of other."""
        self._require_same_shape(other, "leq")
        return all(a | b == b for a, b in zip(self.bits, other.bits))

    def __ge__(self, other: BitMatrix) -> bool:
        return lift(other).__le__(self)


def lift(m: BitMatrix) -> Matrix:
    """The same matrix with the algebra."""
    return m if isinstance(m, Matrix) else Matrix(m.rows, m.cols, m.bits)


def identity(n: int) -> Matrix:
    return Matrix(n, n, tuple(1 << i for i in range(n)))


def zero(rows: int, cols: int) -> Matrix:
    return Matrix(rows, cols, (0,) * rows)


def _check_slot(n: int, k: int) -> None:
    if n < 1:
        raise ValueError(f"width {n} must be >= 1")
    if not 2 <= k <= n + 1:
        raise ValueError(f"slot k={k} outside 2..{n + 1} for width {n}")


def insert_map(n: int, k: int) -> Matrix:
    """(n+2) x n map sending old interval j to its place after two new
    intervals are inserted so that the new region sits at slot k.

    Ones at (j, j) for j < k and at (j+2, j) for j >= k-1 (1-based).
    """
    _check_slot(n, k)
    bits = []
    for i in range(n + 2):
        if i < k - 1:
            bits.append(1 << i)
        elif i >= k:
            bits.append(1 << (i - 2))
        else:
            bits.append(0)
    return Matrix(n + 2, n, tuple(bits))


def single_diag(n: int, k: int) -> Matrix:
    """n x n matrix with a single 1 on the diagonal at (k, k), 1-based."""
    if not 1 <= k <= n:
        raise ValueError(f"diagonal position k={k} outside 1..{n}")
    return Matrix(n, n, tuple(1 << i if i == k - 1 else 0 for i in range(n)))


def reversal(n: int) -> Matrix:
    """Anti-diagonal n x n matrix; conjugating by it reverses interval
    order (its square is the identity)."""
    if n < 1:
        raise ValueError("reversal needs n >= 1")
    return Matrix(n, n, tuple(1 << (n - 1 - i) for i in range(n)))
