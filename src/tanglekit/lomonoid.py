"""Lattice-ordered additive monoids and the Boolean action on value arrays.

A MonoidSpec packages the three binary operations (oplus, join, meet),
the zero element, and the region-closure function phi of one value
domain.  The partial order is derived (a <= b iff a | b == b under
join), so instances supply only the operations.

Three ready-made instances:
  * count_monoid  - non-negative integers, oplus=+, join=max, meet=min,
    phi(n) = n+1; the induced curve invariant counts circles.
  * prime_monoid  - positive integers, oplus=*, join=lcm, meet=gcd,
    phi(n) = n-th prime; the induced invariant is complete.
  * lattice_monoid - any finite distributive lattice with minimum,
    with oplus = join; the constructor checks every axiom exhaustively.

Values travel as plain Python objects in tuples ("value arrays"); a
BitMatrix acts on a value array coordinatewise by joining the selected
entries (`act`).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Sequence

from . import primes
from .boolmat import BitMatrix

Value = Any
ValueArray = tuple


@dataclass(frozen=True)
class MonoidSpec:
    """Equality is by (name, zero): operation fields hold fresh lambdas
    per construction, so comparing them would make independently built
    instances of the same monoid unequal."""

    name: str
    zero: Value
    oplus: Callable[[Value, Value], Value] = field(compare=False)
    join: Callable[[Value, Value], Value] = field(compare=False)
    meet: Callable[[Value, Value], Value] = field(compare=False)
    phi: Callable[[Value], Value] = field(compare=False)
    render: Callable[[Value], str] = field(compare=False)
    sample: Callable[[random.Random], Value] = field(compare=False)
    elements: tuple | None = field(default=None, compare=False)

    def leq(self, a: Value, b: Value) -> bool:
        return self.join(a, b) == b

    def with_phi(self, phi: Callable[[Value], Value]) -> "MonoidSpec":
        """Test-only variant with a different region-closure function;
        renamed so it never compares equal to the original."""
        return replace(self, name=f"{self.name}+phi", phi=phi)


def scalar_act(bit: int, m: Value, spec: MonoidSpec) -> Value:
    """Action of a Boolean scalar: keep the value on 1, zero it on 0."""
    if bit not in (0, 1):
        raise ValueError(f"scalar {bit!r} is not a bit")
    return m if bit else spec.zero


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


# -- axiom suite -------------------------------------------------------

_LAWS: list[tuple[str, Callable[[MonoidSpec, Value, Value, Value], bool]]] = [
    ("M1", lambda s, a, b, c: s.oplus(a, b) == s.oplus(b, a)),
    ("M2", lambda s, a, b, c: s.oplus(s.oplus(a, b), c) == s.oplus(a, s.oplus(b, c))),
    ("M3", lambda s, a, b, c: s.oplus(s.zero, a) == a),
    ("L1", lambda s, a, b, c: s.join(a, a) == a and s.meet(a, a) == a),
    ("L2", lambda s, a, b, c: s.join(a, b) == s.join(b, a) and s.meet(a, b) == s.meet(b, a)),
    ("L3", lambda s, a, b, c: s.join(s.join(a, b), c) == s.join(a, s.join(b, c))
        and s.meet(s.meet(a, b), c) == s.meet(a, s.meet(b, c))),
    ("L4", lambda s, a, b, c: s.meet(a, s.join(a, b)) == a and s.join(a, s.meet(a, b)) == a),
    ("L5", lambda s, a, b, c: s.meet(a, s.join(b, c)) == s.join(s.meet(a, b), s.meet(a, c))
        and s.join(a, s.meet(b, c)) == s.meet(s.join(a, b), s.join(a, c))),
    ("C1", lambda s, a, b, c: s.join(s.zero, a) == a and s.meet(s.zero, a) == s.zero),
    ("C2", lambda s, a, b, c: s.oplus(a, s.join(b, c)) == s.join(s.oplus(a, b), s.oplus(a, c))
        and s.oplus(a, s.meet(b, c)) == s.meet(s.oplus(a, b), s.oplus(a, c))),
    ("P1", lambda s, a, b, c: s.leq(a, s.oplus(a, b))),
    ("P2", lambda s, a, b, c: s.oplus(s.join(a, b), s.meet(a, b)) == s.oplus(a, b)),
]


def axiom_failures(spec: MonoidSpec, triples) -> list[tuple[str, tuple]]:
    """Run the full law suite over the given (a, b, c) triples; returns
    (law-name, triple) for every violation found."""
    bad = []
    for triple in triples:
        a, b, c = triple
        for name, law in _LAWS:
            if not law(spec, a, b, c):
                bad.append((name, triple))
    return bad


# -- concrete instances ------------------------------------------------

_COUNT_MAX_SAMPLE = 10**6
_SAMPLE_PRIMES = [primes.nth_prime(i) for i in range(1, 26)]  # the primes below 100


def _sample_count(rng: random.Random) -> int:
    return rng.randrange(0, _COUNT_MAX_SAMPLE + 1)


def _sample_prime_product(rng: random.Random) -> int:
    out = 1
    for _ in range(rng.randrange(0, 5)):
        out *= rng.choice(_SAMPLE_PRIMES)
    return out


def count_monoid() -> MonoidSpec:
    """Non-negative integers under +, ordered the usual way."""
    return MonoidSpec(
        name="count",
        zero=0,
        oplus=lambda a, b: a + b,
        join=max,
        meet=min,
        phi=lambda n: n + 1,
        render=str,
        sample=_sample_count,
    )


def prime_monoid() -> MonoidSpec:
    """Positive integers under *, ordered by divisibility; phi sends n
    to the n-th prime.  Values are exact arbitrary-precision ints:
    nested encirclement blows past 64 bits quickly."""
    return MonoidSpec(
        name="prime",
        zero=1,
        oplus=lambda a, b: a * b,
        join=math.lcm,
        meet=math.gcd,
        phi=primes.nth_prime,
        render=str,
        sample=_sample_prime_product,
    )


def lattice_monoid(
    elements: Sequence[Value],
    join_table: dict,
    meet_table: dict,
    minimum: Value,
    name: str = "lattice",
    phi: Callable[[Value], Value] | None = None,
) -> MonoidSpec:
    """Finite distributive lattice with oplus = join.

    join_table / meet_table map ordered pairs (a, b) to elements; both
    orders of each pair must be present or derivable by symmetry.  The
    constructor checks closure and the full axiom suite over all
    element triples and rejects anything that is not a distributive
    lattice with the given minimum.
    """
    elems = tuple(elements)
    if len(set(elems)) != len(elems):
        raise ValueError("duplicate lattice elements")
    if minimum not in elems:
        raise ValueError("minimum is not an element")

    def lookup(table, a, b, what):
        v = table.get((a, b), table.get((b, a)))
        if v is None:
            raise ValueError(f"{what} table missing pair ({a!r}, {b!r})")
        if v not in elems:
            raise ValueError(f"{what}({a!r}, {b!r}) = {v!r} is not an element")
        return v

    jn = {(a, b): lookup(join_table, a, b, "join") for a in elems for b in elems}
    mt = {(a, b): lookup(meet_table, a, b, "meet") for a in elems for b in elems}

    spec = MonoidSpec(
        name=name,
        zero=minimum,
        oplus=lambda a, b: jn[(a, b)],
        join=lambda a, b: jn[(a, b)],
        meet=lambda a, b: mt[(a, b)],
        phi=phi if phi is not None else (lambda a: a),
        render=str,
        sample=lambda rng: rng.choice(elems),
        elements=elems,
    )
    bad = axiom_failures(spec, ((a, b, c) for a in elems for b in elems for c in elems))
    if bad:
        law, triple = bad[0]
        raise ValueError(
            f"not a lattice-ordered monoid: {law} fails at {triple!r}"
            f" ({len(bad)} violations total)"
        )
    return spec
