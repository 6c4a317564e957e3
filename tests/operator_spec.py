"""The paper's matrix formulas for cap and cup, kept as the test
specification of `tanglekit.operators`, plus the matrix and value-array
helpers that only the tests use.

cap:  R' = M R M' + D,        v' = M * v
cup:  R' = (M' R M)^2,        v' = R' * [(M' * v) (+) (e_{k-1} * x)]

with M = insert_map(n, k), D = single_diag(n+2, k) and x = cup_value.
The library computes the same states by editing region rows directly;
the tests assert equality with these formulas.
"""

from __future__ import annotations

from typing import Sequence

from tanglekit.boolmat import BitMatrix, identity, insert_map, single_diag
from tanglekit.errors import InternalInvariantError
from tanglekit.lomonoid import MonoidSpec, Value, ValueArray, act
from tanglekit.operators import cup_value
from tanglekit.states import TangleState


def cap_spec(state: TangleState, k: int) -> TangleState:
    """cap by the paper's formula R' = M R M' + D, v' = M * v."""
    n = state.n
    m = insert_map(n, k)
    region = m @ state.region @ m.transpose() + single_diag(n + 2, k)
    return TangleState(n + 2, region, act(m, state.values, state.spec), state.spec)


def cup_spec(state: TangleState, k: int) -> TangleState:
    """cup by the paper's formula R' = (M' R M)^2,
    v' = R' * [(M' * v) (+) (e_{k-1} * x)]."""
    spec = state.spec
    n = state.n - 2
    m = insert_map(n, k)
    mt = m.transpose()
    folded = mt @ state.region @ m
    region = folded @ folded
    injected = list(act(mt, state.values, spec))
    injected[k - 2] = spec.oplus(injected[k - 2], cup_value(state, k))
    return TangleState(n, region, act(region, injected, spec), spec)


# -- matrix helpers ------------------------------------------------------

def transitive_closure(m: BitMatrix) -> BitMatrix:
    """Least transitive matrix >= m, by squaring to a fixpoint.

    Path lengths double per iteration, so ceil(log2(n))+1 rounds
    suffice; running out of the bound means the implementation is
    broken, not the input.
    """
    if not m.is_square():
        raise ValueError("transitive_closure requires a square matrix")
    n = m.rows
    bound = max(1, (max(n, 2) - 1).bit_length()) + 1
    t = m
    for _ in range(bound + 1):
        nxt = t + t @ t
        if nxt == t:
            return t
        t = nxt
    raise InternalInvariantError("transitive closure did not stabilize")


def scalar_bit(m: BitMatrix) -> int:
    """The single entry of a 1x1 matrix (e.g. column' @ R @ column)."""
    if m.rows != 1 or m.cols != 1:
        raise ValueError(f"expected 1x1 matrix, got {m.rows}x{m.cols}")
    return m.entry(0, 0)


def boolean_power(m: BitMatrix, p: int) -> BitMatrix:
    if not m.is_square():
        raise ValueError("power requires a square matrix")
    if p < 1:
        raise ValueError("power must be >= 1")
    out = m
    for _ in range(p - 1):
        out = out @ m
    return out


def unit_column(n: int, k: int) -> BitMatrix:
    """n x 1 column with a single 1 in row k, 1-based."""
    if not 1 <= k <= n:
        raise ValueError(f"unit position k={k} outside 1..{n}")
    return BitMatrix(n, 1, tuple(1 if i == k - 1 else 0 for i in range(n)))


def unit_entry(n: int, a: int, b: int) -> BitMatrix:
    """n x n matrix with a single 1 at (a, b), 1-based."""
    if not (1 <= a <= n and 1 <= b <= n):
        raise ValueError(f"entry ({a},{b}) outside 1..{n}")
    return BitMatrix(n, n, tuple((1 << (b - 1)) if i == a - 1 else 0 for i in range(n)))


def masked_transfer(n: int, k: int) -> BitMatrix:
    """insert_map(n, k) transposed with the (k-1, k+1) entry cleared:
    the transfer matrix that ignores the interval right of the cup."""
    return insert_map(n, k).transpose() @ (identity(n + 2) - single_diag(n + 2, k + 1))


def flank_link(n: int, k: int) -> BitMatrix:
    """(n+2) x (n+2) matrix linking the two intervals flanking slot k."""
    return insert_map(n, k) @ single_diag(n, k - 1) @ insert_map(n, k).transpose()


# -- value-array helpers ---------------------------------------------------

def oplus_arrays(xs: Sequence[Value], ys: Sequence[Value], spec: MonoidSpec) -> ValueArray:
    if len(xs) != len(ys):
        raise ValueError("oplus: length mismatch")
    return tuple(spec.oplus(a, b) for a, b in zip(xs, ys))


def join_arrays(xs: Sequence[Value], ys: Sequence[Value], spec: MonoidSpec) -> ValueArray:
    if len(xs) != len(ys):
        raise ValueError("join: length mismatch")
    return tuple(spec.join(a, b) for a, b in zip(xs, ys))


def array_leq(xs: Sequence[Value], ys: Sequence[Value], spec: MonoidSpec) -> bool:
    if len(xs) != len(ys):
        raise ValueError("leq: length mismatch")
    return all(spec.leq(a, b) for a, b in zip(xs, ys))
