"""The paper's matrix formulas for cap and cup and its validity
properties of a state, kept as the test specification of
`tanglekit.operators` and `tanglekit.states`, plus the state, matrix
and value-array helpers that only the tests use.

cap:  R' = M R M' + D,        v' = M * v
cup:  R' = (M' R M)^2,        v' = R' * [(M' * v) (+) (e_{k-1} * x)]

with M = insert_map(n, k), D = single_diag(n+2, k) and x = cup_value,
read off the region matrix; a matrix acts on a value array by `act`.
The library computes the same states by editing one region label per
interval, and checks a state's validity on its labels; the tests
assert equality with these formulas and with `property_failures`.
"""

from __future__ import annotations

from typing import Sequence

from tanglekit.errors import InternalInvariantError
from tanglekit.lomonoid import MonoidSpec, Value, ValueArray
from tanglekit.states import TangleState

from boolean_algebra import Matrix as BitMatrix, identity, insert_map, lift, single_diag


def act(matrix: BitMatrix, values: Sequence[Value], spec: MonoidSpec) -> ValueArray:
    """Coordinatewise join of selected entries: out[i] = join over j with
    matrix[i,j]=1 of values[j], zero when the row is empty."""
    if matrix.cols != len(values):
        raise ValueError(
            f"act: matrix has {matrix.cols} columns, array has {len(values)}"
        )
    join = spec.join
    out = []
    for b in matrix.bits:
        acc = spec.zero
        while b:
            low = b & -b
            acc = join(acc, values[low.bit_length() - 1])
            b ^= low
        out.append(acc)
    return tuple(out)


def cup_value(state: TangleState, k: int) -> Value:
    """The value x injected at a cup at slot k: phi(v_k) when
    e_{k-1}' R e_{k+1} = 1, i.e. the flanking intervals already share a
    region and the cup seals off the region between them, and
    v_{k-1} meet v_{k+1} when the cup merges two regions."""
    n = state.n
    if not (n >= 3 and 2 <= k <= n - 1):
        raise ValueError(f"cup slot k={k} outside 2..{n - 1} for width {n}")
    spec, v = state.spec, state.values
    if scalar_bit(unit_column(n, k - 1).transpose() @ state.region @ unit_column(n, k + 1)):
        return spec.phi(v[k - 1])
    return spec.meet(v[k - 2], v[k])


def cap_spec(state: TangleState, k: int) -> TangleState:
    """cap by the paper's formula R' = M R M' + D, v' = M * v."""
    n = state.n
    m = insert_map(n, k)
    region = m @ state.region @ m.transpose() + single_diag(n + 2, k)
    return from_region(region, act(m, state.values, state.spec), state.spec)


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
    return from_region(region, act(region, injected, spec), spec)


# -- state helpers -------------------------------------------------------

def from_region(region: BitMatrix, values, spec: MonoidSpec) -> TangleState:
    """The state of a region matrix that is a partition: each interval
    is labelled by the first interval of its region (its row's lowest
    bit)."""
    labels = tuple((row & -row).bit_length() - 1 for row in region.bits)
    return TangleState(region.rows, labels, tuple(values), spec)


def property_failures(region: BitMatrix, values, spec: MonoidSpec) -> list:
    """Every property of E1-E3, T1-T3, EC and VC that a square region
    matrix and its values violate, as (name, 1-based witness), each
    checked on the matrix as the paper states it."""
    region = lift(region)
    n = region.rows
    failures: list[tuple[str, tuple]] = []

    ident = identity(n)
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

    if not region <= checkerboard(n, n):
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
                    if t2_violated(region, a, b, c, d):
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


def t2_violated(region: BitMatrix, a: int, b: int, c: int, d: int) -> bool:
    """Whether 0-based a <= b <= c <= d break T2:
    R[a,c] R[b,d] <= R[a,b] R[b,c] R[c,d] fails."""
    return bool(region.entry(a, c) and region.entry(b, d)) and not (
        region.entry(a, b) and region.entry(b, c) and region.entry(c, d)
    )


def is_valid(region: BitMatrix, values, spec: MonoidSpec) -> bool:
    """Whether a region matrix and values form a state, by the paper's
    properties."""
    return (
        region.is_square() and region.rows == len(values) >= 1
        and not property_failures(region, tuple(values), spec)
    )


def ends_connected(state: TangleState) -> bool:
    """True iff the first and last intervals share a region.  Every
    state reached from trivial() by cap/cup has this (the outer region
    wraps around); width-even states never do, by parity."""
    return state.labels[0] == state.labels[-1]


def encircle_state(state: TangleState) -> TangleState:
    """Surround the whole picture with one new curve: width n -> n+2.

    Requires the first and last intervals to share a region (true for
    everything reachable from trivial()); preserves that property.
    """
    if not ends_connected(state):
        raise ValueError("encircle_state needs the outer intervals connected")
    outer = (max(state.labels) + 1,)
    zero = (state.spec.zero,)
    return TangleState(
        state.n + 2, outer + state.labels + outer, zero + state.values + zero, state.spec
    )


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


def masked_transfer(n: int, k: int) -> BitMatrix:
    """insert_map(n, k) transposed with the (k-1, k+1) entry cleared:
    the transfer matrix that ignores the interval right of the cup."""
    return insert_map(n, k).transpose() @ (identity(n + 2) - single_diag(n + 2, k + 1))


def inner_embed(n: int) -> BitMatrix:
    """(n+2) x n map placing old interval j at position j+1: the
    embedding used when a curve is drawn around the whole picture."""
    if n < 1:
        raise ValueError("inner_embed needs n >= 1")
    bits = [0]
    bits += [1 << j for j in range(n)]
    bits += [0]
    return BitMatrix(n + 2, n, tuple(bits))


def outer_corners(n: int) -> BitMatrix:
    """n x n matrix with ones exactly on {1, n} x {1, n} (1-based):
    joins the outermost two intervals into one region."""
    if n < 2:
        raise ValueError("outer_corners needs n >= 2")
    corner = 1 | (1 << (n - 1))
    bits = [corner] + [0] * (n - 2) + [corner]
    return BitMatrix(n, n, tuple(bits))


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
