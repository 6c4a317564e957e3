"""States: one region label and one monoid value per interval;
`validate` is the checked constructor (cap and cup build TangleState
unchecked).

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
  EC  act(R, v) = v               (values constant on regions)

plus the derived constancy check VC: R[i,j] = 1 implies v_i == v_j.
Labels satisfy E1-E3 by construction; the checks run on the matrix a
caller hands to `validate`, which turns it into labels once they pass.
`validate` reports every violated property with a witness, not just the
first, so shrinking diagnostics stay complete.

Witness indices in failures are 1-based, matching slot conventions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import boolmat
from .boolmat import BitMatrix
from .lomonoid import MonoidSpec, ValueArray, act


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
        lines = self.region.to_lines()
        rendered = ", ".join(str(v) for v in self.values)
        return "\n".join(lines + [f"({rendered})"])

    def summary(self) -> str:
        rendered = ", ".join(str(v) for v in self.values)
        return f"width {self.n} values ({rendered})"


def _property_failures(region: BitMatrix, values, spec: MonoidSpec) -> list:
    n = region.rows
    failures: list[tuple[str, tuple]] = []

    ident = boolmat.identity(n)
    if not ident <= region:
        i = next(i for i in range(n) if region.entry(i, i) == 0)
        failures.append(("E1", (i + 1, i + 1)))

    rt = region.transpose()
    if rt != region:
        i, j = next(
            (i, j) for i in range(n) for j in range(n)
            if region.entry(i, j) != rt.entry(i, j)
        )
        failures.append(("E2", (i + 1, j + 1)))

    sq = region @ region
    if sq != region:
        i, j = next(
            (i, j) for i in range(n) for j in range(n)
            if region.entry(i, j) != sq.entry(i, j)
        )
        failures.append(("E3", (i + 1, j + 1)))

    if not region <= boolmat.checkerboard(n, n):
        i, j = next(
            (i, j) for i in range(n) for j in range(n)
            if region.entry(i, j) and (i - j) % 2
        )
        failures.append(("T1", (i + 1, j + 1)))

    # T2: quadruple loop, pruned on the two premise entries.
    done = False
    for a in range(n):
        if done:
            break
        for c in range(a, n):
            if not region.entry(a, c):
                continue
            for b in range(a, c + 1):
                for d in range(c, n):
                    if region.entry(b, d) and not (
                        region.entry(a, b) and region.entry(b, c) and region.entry(c, d)
                    ):
                        failures.append(("T2", (a + 1, b + 1, c + 1, d + 1)))
                        done = True
                        break
                if done:
                    break
            if done:
                break

    for a in range(n):
        for b in range(a + 1, n):
            if not region.entry(a, b):
                continue
            if region.entry(a + 1, b - 1):
                continue
            if any(region.entry(a, g) for g in range(a + 1, b)):
                continue
            failures.append(("T3", (a + 1, b + 1)))
            break
        else:
            continue
        break

    fixed = act(region, values, spec)
    if fixed != tuple(values):
        i = next(i for i in range(n) if fixed[i] != values[i])
        failures.append(("EC", (i + 1,)))

    for i in range(n):
        for j in range(i + 1, n):
            if region.entry(i, j) and values[i] != values[j]:
                failures.append(("VC", (i + 1, j + 1)))
                break
        else:
            continue
        break

    return failures


def validate(region: BitMatrix, values, spec: MonoidSpec) -> TangleState:
    """Build a state, or raise naming every violated property."""
    if not region.is_square():
        raise ValueError(f"region matrix must be square, got {region.rows}x{region.cols}")
    if region.rows != len(values):
        raise ValueError(
            f"width mismatch: {region.rows}x{region.rows} matrix, {len(values)} values"
        )
    if region.rows < 1:
        raise ValueError("width must be >= 1")
    failures = _property_failures(region, tuple(values), spec)
    if failures:
        raise StateValidationError(failures)
    return from_region(region, values, spec)


def from_region(region: BitMatrix, values, spec: MonoidSpec) -> TangleState:
    """The state of a valid region matrix, unchecked: each interval is
    labelled by the first interval of its region (its row's lowest bit)."""
    labels = tuple((row & -row).bit_length() - 1 for row in region.bits)
    return TangleState(region.rows, labels, tuple(values), spec)


def trivial(spec: MonoidSpec) -> TangleState:
    """The width-1 state: one region holding the zero value."""
    return TangleState(1, (0,), (spec.zero,), spec)


def random_state(width: int, seed, spec: MonoidSpec) -> TangleState:
    """Seeded random state of the given width, built geometrically: a
    random walk of cap/cup applications from trivial(), sprinkled with
    random region-value additions.  Only widths 1 + 2k are reachable.

    `seed` may be an int or a random.Random.
    """
    from . import operators  # deferred: operators imports this module

    if width < 1 or width % 2 == 0:
        raise ValueError(f"width {width} is not reachable (need odd width >= 1)")
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)

    state = trivial(spec)
    state = operators.add_value(state, spec.sample(rng))
    drift = rng.randrange(0, 3)
    target_peak = width + 2 * drift
    # Climb with caps to a peak above the target, then randomly wander
    # back down, keeping the width legal for a cup at every descent.
    while state.n < target_peak:
        k = rng.randrange(2, state.n + 2)
        state = operators.cap(state, k)
        if rng.randrange(4) == 0:
            state = operators.add_value(state, spec.sample(rng))
    while state.n > width:
        if state.n + 2 <= target_peak and rng.randrange(3) == 0:
            state = operators.cap(state, rng.randrange(2, state.n + 2))
        else:
            state = operators.cup(state, rng.randrange(2, state.n))
        if rng.randrange(5) == 0:
            state = operators.add_value(state, spec.sample(rng))
    return state
