"""Dense matrices over the two-element Boolean semiring (1+1=1).

A BitMatrix stores each row as a Python int used as a bitmask, so the
whole module is pure arithmetic on small ints; matrices at the scales we
care about (side <= 256) stay fast without any numeric dependency.

Conventions:
  * entry(i, j) is 0-based;
  * the structured builders (insert_map, single_diag, ...) take the
    1-based slot parameters that the rest of the library uses, because a
    "slot k" with 2 <= k <= n+1 is domain vocabulary, not an array index.

All values are immutable after construction; operations return new
matrices and may run concurrently on shared inputs.
"""

from __future__ import annotations

from functools import lru_cache


class BitMatrix:
    """Immutable rows x cols matrix with entries in {0, 1}; bits[i] is
    row i as a bitmask (bit j is entry (i, j))."""

    __slots__ = ("rows", "cols", "bits")

    def __init__(self, rows: int, cols: int, bits: tuple[int, ...]):
        if rows < 0 or cols < 0 or len(bits) != rows:
            raise ValueError("inconsistent BitMatrix shape")
        mask = (1 << cols) - 1
        if any(b & ~mask for b in bits):
            raise ValueError("row bits outside column range")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "bits", bits)

    def __setattr__(self, name, value):
        raise AttributeError("BitMatrix is immutable")

    # -- construction ------------------------------------------------

    @staticmethod
    def from_rows(rows: list[list[int]]) -> "BitMatrix":
        n = len(rows)
        m = len(rows[0]) if rows else 0
        if any(len(r) != m for r in rows):
            raise ValueError("ragged rows")
        bits = []
        for r in rows:
            acc = 0
            for j, v in enumerate(r):
                if v not in (0, 1):
                    raise ValueError(f"entry {v!r} is not a bit")
                acc |= v << j
            bits.append(acc)
        return BitMatrix(n, m, tuple(bits))

    # -- basic queries -----------------------------------------------

    def entry(self, i: int, j: int) -> int:
        """0-based entry."""
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"entry ({i},{j}) outside {self.rows}x{self.cols}")
        return (self.bits[i] >> j) & 1

    def to_lines(self) -> list[str]:
        """Rows as strings of 0/1 characters (debug / --show-state)."""
        return [
            "".join("1" if (b >> j) & 1 else "0" for j in range(self.cols))
            for b in self.bits
        ]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BitMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.bits == other.bits
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.bits))

    def __repr__(self) -> str:
        return f"BitMatrix({self.rows}x{self.cols}: {'|'.join(self.to_lines())})"

    # -- semiring operations -----------------------------------------

    def _require_same_shape(self, other: "BitMatrix", op: str) -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError(
                f"{op}: shape mismatch {self.rows}x{self.cols} vs "
                f"{other.rows}x{other.cols}"
            )

    def __add__(self, other: "BitMatrix") -> "BitMatrix":
        """Entrywise Boolean OR."""
        self._require_same_shape(other, "add")
        return BitMatrix(
            self.rows, self.cols,
            tuple(a | b for a, b in zip(self.bits, other.bits)),
        )

    def __sub__(self, other: "BitMatrix") -> "BitMatrix":
        """Entrywise 'minus': 1 exactly where self has 1 and other has 0."""
        self._require_same_shape(other, "minus")
        return BitMatrix(
            self.rows, self.cols,
            tuple(a & ~b for a, b in zip(self.bits, other.bits)),
        )

    def __matmul__(self, other: "BitMatrix") -> "BitMatrix":
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
        return BitMatrix(self.rows, other.cols, tuple(out))

    def transpose(self) -> "BitMatrix":
        cols = []
        for j in range(self.cols):
            acc = 0
            for i, b in enumerate(self.bits):
                acc |= ((b >> j) & 1) << i
            cols.append(acc)
        return BitMatrix(self.cols, self.rows, tuple(cols))

    def __le__(self, other: "BitMatrix") -> bool:
        """Natural partial order: every entry of self <= entry of other."""
        self._require_same_shape(other, "leq")
        return all(a | b == b for a, b in zip(self.bits, other.bits))

    def __ge__(self, other: "BitMatrix") -> bool:
        return other.__le__(self)

    def is_square(self) -> bool:
        return self.rows == self.cols


# -- structured matrices ----------------------------------------------
#
# Slot parameters below are 1-based.  insert_map(n, k) is only defined
# for 2 <= k <= n+1: the inserted pair always has an interval on each
# side.  All builders validate eagerly and never clamp.


@lru_cache(maxsize=None)
def identity(n: int) -> BitMatrix:
    return BitMatrix(n, n, tuple(1 << i for i in range(n)))


@lru_cache(maxsize=None)
def zero(rows: int, cols: int) -> BitMatrix:
    return BitMatrix(rows, cols, (0,) * rows)


def _check_slot(n: int, k: int) -> None:
    if n < 1:
        raise ValueError(f"width {n} must be >= 1")
    if not 2 <= k <= n + 1:
        raise ValueError(f"slot k={k} outside 2..{n + 1} for width {n}")


@lru_cache(maxsize=None)
def insert_map(n: int, k: int) -> BitMatrix:
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
    return BitMatrix(n + 2, n, tuple(bits))


@lru_cache(maxsize=None)
def single_diag(n: int, k: int) -> BitMatrix:
    """n x n matrix with a single 1 on the diagonal at (k, k), 1-based."""
    if not 1 <= k <= n:
        raise ValueError(f"diagonal position k={k} outside 1..{n}")
    return BitMatrix(n, n, tuple(1 << i if i == k - 1 else 0 for i in range(n)))


@lru_cache(maxsize=None)
def reversal(n: int) -> BitMatrix:
    """Anti-diagonal n x n matrix; conjugating by it reverses interval
    order (its square is the identity)."""
    if n < 1:
        raise ValueError("reversal needs n >= 1")
    return BitMatrix(n, n, tuple(1 << (n - 1 - i) for i in range(n)))


@lru_cache(maxsize=None)
def inner_embed(n: int) -> BitMatrix:
    """(n+2) x n map placing old interval j at position j+1: the
    embedding used when a curve is drawn around the whole picture."""
    if n < 1:
        raise ValueError("inner_embed needs n >= 1")
    bits = [0]
    bits += [1 << j for j in range(n)]
    bits += [0]
    return BitMatrix(n + 2, n, tuple(bits))


@lru_cache(maxsize=None)
def outer_corners(n: int) -> BitMatrix:
    """n x n matrix with ones exactly on {1, n} x {1, n} (1-based):
    joins the outermost two intervals into one region."""
    if n < 2:
        raise ValueError("outer_corners needs n >= 2")
    corner = 1 | (1 << (n - 1))
    bits = [corner] + [0] * (n - 2) + [corner]
    return BitMatrix(n, n, tuple(bits))


@lru_cache(maxsize=None)
def checkerboard(rows: int, cols: int) -> BitMatrix:
    """Ones exactly where i-j is even (1-based), i.e. the parity mask
    that any region-connectivity matrix must respect."""
    if rows < 1 or cols < 1:
        raise ValueError("checkerboard needs positive dimensions")
    even = 0
    odd = 0
    for j in range(cols):
        if j % 2 == 0:
            even |= 1 << j
        else:
            odd |= 1 << j
    return BitMatrix(rows, cols, tuple(even if i % 2 == 0 else odd for i in range(rows)))
