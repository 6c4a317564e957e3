"""States: one region label and one monoid value per interval, checked
on construction.

A TangleState of width n cuts a horizontal line into n intervals of a
curve diagram.  `labels[i]` names the plane region interval i lies in:
two intervals share a region exactly when their labels are equal.  The
label values themselves carry no meaning, so equality and hashing go
through the canonical partition (labels renumbered in order of first
occurrence).  The `region` property reads the same partition as the
n x n BitMatrix R of the paper, built on each read.  Validity of R
means:

  E1  R >= I                      (every interval is in its own region)
  E2  R symmetric
  E3  R idempotent                (same-region is an equivalence)
  T1  R[i,j] = 1 only when |i-j| is even
  T2  for a<=b<=c<=d: R[a,c] R[b,d] <= R[a,b] R[b,c] R[c,d]
                                  (regions cannot interleave)
  T3  a region reaching from i to j must be entered next to i
  EC  R acting on v by joins fixes v   (values constant on regions)

plus the derived constancy check VC: R[i,j] = 1 implies v_i == v_j.
Labels satisfy E1-E3 by construction, and the others are checked in
one pass over them: a label occurs only at even distances (T1), labels
nest like brackets (T2), consecutive intervals a < b of one region have
labels[a+1] == labels[b-1] (T3), and each value equals its region's
join (EC) and every other value of its region (VC).  The constructor
runs these checks, so an invalid state cannot be built and the
operators need no checks of their own.  `validate` takes a matrix:
it checks E1-E3 on the bitmask rows (row i must equal the set of rows
that share its lowest bit), then builds the state.  A matrix that is
not a partition reports E1-E3 and T1; the transpose and the Boolean
square they need are read off the bitmask rows too.  Every
violated property is reported with a witness, not just the first, so
shrinking diagnostics stay complete.  The paper's checks on the matrix
itself, `property_failures` in tests/operator_spec.py, are the
specification these are tested against.

Witness indices in failures are 1-based, matching slot conventions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import or_

from .boolmat import BitMatrix
from .lomonoid import MonoidSpec, ValueArray, format_value


class StateValidationError(ValueError):
    """Carries every failed property as (name, witness-tuple)."""

    def __init__(self, failures: list[tuple[str, tuple]]):
        self.failures = failures
        detail = "; ".join(f"{name} at {witness}" for name, witness in failures)
        super().__init__(f"invalid state: {detail}")


@dataclass(frozen=True, eq=False)
class TangleState:
    n: int
    labels: tuple
    values: ValueArray
    spec: MonoidSpec

    def __post_init__(self):
        n, labels, values = self.n, self.labels, self.values
        if n < 1 or len(labels) != n or len(values) != n:
            raise ValueError(
                f"a width-{n} state needs n >= 1 and n labels and values, got "
                f"{len(labels)} labels and {len(values)} values"
            )
        if n > 1:  # one interval has nothing to compare
            failures = _label_failures(labels, values, self.spec)
            if failures:
                raise StateValidationError(failures)

    def _key(self) -> tuple:
        first: dict = {}  # label -> its number in order of first occurrence
        partition = tuple(first.setdefault(label, len(first)) for label in self.labels)
        return (self.n, partition, self.values, self.spec)

    def __eq__(self, other) -> bool:
        return isinstance(other, TangleState) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    @property
    def region(self) -> BitMatrix:
        """The region-connectivity matrix: R[i,j] = 1 iff intervals i
        and j share a region."""
        masks: dict = {}
        for i, label in enumerate(self.labels):
            masks[label] = masks.get(label, 0) | (1 << i)
        return BitMatrix(self.n, self.n, tuple(masks[label] for label in self.labels))

    def dump(self) -> str:
        """Matrix rows as 0/1 lines, then the value tuple."""
        return "\n".join(self.region.to_lines() + [f"({self._rendered()})"])

    def summary(self) -> str:
        return f"width {self.n} values ({self._rendered()})"

    def _rendered(self) -> str:
        return ", ".join(map(format_value, self.values))


def _label_failures(labels, values, spec: MonoidSpec) -> list:
    """T1, T2, T3, EC and VC of a labelling, each with one witness.

    The values are taken to lie in the monoid, so by axiom C1 (zero is
    the least value) EC can fail only in a region whose values differ.
    The T1, T3, EC and VC witnesses are the first pair in row-major
    order of the region matrix, as the matrix checks find them.  T2's is
    the first crossing A..B..A..B the bracket scan meets: the stack holds
    the open regions, a repeated label closes every region opened after
    it, and a closed region that occurs again crosses the one that
    closed it."""
    first: dict = {}  # label -> its first interval
    last: dict = {}  # label -> its latest interval so far
    closed: dict = {}  # label -> (a, c): the region at a and c closed it
    stack: list = []
    t1 = t2 = t3 = vc = None
    for p, label in enumerate(labels):
        value = values[p]
        if label not in first:
            first[label] = last[label] = p
            stack.append(label)
            continue
        a, prev = first[label], last[label]
        if (p - a) % 2 and (t1 is None or a < t1[0]):
            t1 = (a, p)
        if value != values[a] and (vc is None or a < vc[0]):
            vc = (a, p)
        if labels[prev + 1] != labels[p - 1] and (t3 is None or prev < t3[0]):
            t3 = (prev, p)
        if t2 is None:
            if label in closed:
                a, c = closed[label]
                t2 = (a, prev, c, p)
            else:
                while stack[-1] != label:
                    closed[stack.pop()] = (prev, p)
        last[label] = p
    ec = None
    if vc is not None:  # by C1 a region of one value is its own join
        joined: dict = {}
        for label, value in zip(labels, values):
            joined[label] = spec.join(joined.get(label, spec.zero), value)
        ec = next(((i,) for i, label in enumerate(labels) if joined[label] != values[i]), None)
    found = [("T1", t1), ("T2", t2), ("T3", t3), ("EC", ec), ("VC", vc)]
    return [(name, tuple(i + 1 for i in at)) for name, at in found if at is not None]


def _matrix_failures(region: BitMatrix) -> list:
    """E1, E2, E3 and T1 of a square matrix, each at its first entry in
    row-major order, read off the rows: row j of the transpose gathers
    bit j of every row, and row i of the Boolean square joins the rows
    that row i selects."""
    bits, n = region.bits, region.rows
    odd_from = [sum(1 << j for j in range(p, n, 2)) for p in (1, 0)]  # by i % 2
    transpose = [sum((row >> j & 1) << i for i, row in enumerate(bits)) for j in range(n)]
    square = [reduce(or_, (bits[j] for j in range(n) if row >> j & 1), 0) for row in bits]
    bad_rows = [
        ("E1", [~row & (1 << i) for i, row in enumerate(bits)]),
        ("E2", [a ^ b for a, b in zip(bits, transpose)]),
        ("E3", [a ^ b for a, b in zip(bits, square)]),
        ("T1", [row & odd_from[i % 2] for i, row in enumerate(bits)]),
    ]
    failures = []
    for name, rows in bad_rows:
        i = next((i for i, row in enumerate(rows) if row), None)
        if i is not None:
            failures.append((name, (i + 1, (rows[i] & -rows[i]).bit_length())))
    return failures


def validate(region: BitMatrix, values, spec: MonoidSpec) -> TangleState:
    """Build a state from a region matrix and values, or raise naming
    every violated property."""
    if not region.is_square():
        raise ValueError(f"region matrix must be square, got {region.rows}x{region.cols}")
    if region.rows != len(values):
        raise ValueError(
            f"width mismatch: {region.rows}x{region.rows} matrix, {len(values)} values"
        )
    if region.rows < 1:
        raise ValueError("width must be >= 1")
    # E1-E3 hold exactly when each row is the set of rows that share its
    # lowest bit; that set holds the row's own index, so E1 comes free.
    # Each interval is then labelled by the first interval of its region.
    labels = tuple((row & -row).bit_length() - 1 for row in region.bits)
    members: dict = {}
    for i, label in enumerate(labels):
        members[label] = members.get(label, 0) | 1 << i
    if any(row != members[label] for row, label in zip(region.bits, labels)):
        raise StateValidationError(_matrix_failures(region))
    return TangleState(region.rows, labels, tuple(values), spec)


def trivial(spec: MonoidSpec) -> TangleState:
    """The width-1 state: one region holding the zero value."""
    return TangleState(1, (0,), (spec.zero,), spec)
