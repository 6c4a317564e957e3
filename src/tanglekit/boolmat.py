"""Matrices with entries in {0, 1}, as values.

A BitMatrix stores each row as a Python int used as a bitmask (bit j of
row i is entry (i, j), 0-based).  The library builds one only as a view:
`TangleState.region` reads a state's labels as the paper's region
matrix, and `states.validate` takes one.  Nothing in the library
multiplies matrices; the Boolean algebra of the paper (sum, product,
transpose, order and the structured builders) is the test
specification, in tests/boolean_algebra.py.

A BitMatrix is immutable after construction, so it may be shared
between threads.
"""

from __future__ import annotations


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

    @classmethod
    def from_rows(cls, rows: list[list[int]]) -> "BitMatrix":
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
        return cls(n, m, tuple(bits))

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

    def is_square(self) -> bool:
        return self.rows == self.cols

