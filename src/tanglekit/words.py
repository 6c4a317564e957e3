"""Tangle words and their (+-2, d) symbol encoding.

Word order convention (fixed globally) -------------------------------

A word lists generator factors in composition order: the LEFTMOST
factor is the BOTTOM-most piece of the diagram, and evaluation folds
right-to-left (the rightmost factor acts first).  Symbol index 1 of an
encoded word therefore belongs to the bottom-most generator, which is
why a closed word always starts with (-2,0) (the last cup, closing the
final two strands) and ends with (2,0) (the first cap, born from
nothing).  The validity condition's bounds are stated relative to this
orientation; nothing else in the library makes sense without it.

Encoding: cap(n,k) -> (2, 2k-n-3), cup(n,k) -> (-2, 2k-n-3); d counts
strands left of the generator minus strands right of it.  The encoding
is only defined for closed words, where it is bijective.

Validity condition for a symbol word (c_1,d_1)...(c_m,d_m): for each i,
with pre = sum of c_j over j < i and post = sum over j > i,

    c_i = +2:  |d_i| <= -pre - 2   and   |d_i| <= post
    c_i = -2:  |d_i| <= -pre       and   |d_i| <= post - 2

(-pre is the point count below generator i, post the count above it;
an empty word is valid).

Local rewrites (each an equality of diagrams, applied at a position):

    R1    (-2,k)(2,k+2)  <->  (deleted)   [also the (2,k-2) mate]
    R2    (2,k)(2,l)     <->  (2,l+2)(2,k+2)    for k <= l-2
    R3.1  (-2,k)(2,l)    <->  (2,l-2)(-2,k+2)   for k <= l-4
    R3.2  (2,k)(-2,l)    <->  (-2,l+2)(2,k-2)   for k <= l
    R4    (-2,k)(-2,l)   <->  (-2,l-2)(-2,k-2)  for k <= l-2

Rewrites assert that validity is preserved, so a normalization trace is
replayable step by step.
"""

from __future__ import annotations

import re

from .errors import InternalInvariantError, ParseError
from .operators import Generator

Symbol = tuple[int, int]
SymWord = tuple[Symbol, ...]
GenWord = tuple[Generator, ...]


# -- arities of generator words ----------------------------------------

def width_profile(word, start: int | None = None) -> list[int]:
    """Widths seen while evaluating, top first: [start, ..., out(g_1)].
    `start` is the width entering at the top; it defaults to what the
    top generator expects (1 for the empty word).  This is the one
    arity check: it raises on a mismatch, reporting the 1-based
    position."""
    if start is None:
        start = word[-1].in_width if word else 1
    widths = [start]
    for pos in range(len(word) - 1, -1, -1):
        gen = word[pos]
        if gen.in_width != widths[-1]:
            raise ParseError(
                f"arity mismatch at position {pos + 1}: {gen.text()} expects "
                f"width {gen.in_width}, incoming width is {widths[-1]}",
                position=pos + 1,
            )
        widths.append(gen.out_width)
    return widths


def is_closed(word) -> bool:
    """Closed means the diagram starts and ends on no points (width 1)."""
    try:
        profile = width_profile(word)
    except ParseError:
        return False
    return profile[0] == 1 and profile[-1] == 1


# -- symbol codec -------------------------------------------------------

def check_symbols(sym) -> None:
    for i, (c, d) in enumerate(sym):
        if c not in (2, -2):
            raise ParseError(f"symbol {i + 1}: first component must be +-2", i + 1)
        if d % 2:
            raise ParseError(f"symbol {i + 1}: d={d} must be even", i + 1)


def check_validity(sym) -> int | None:
    """None if the word satisfies the validity condition, else the
    0-based index of the first symbol violating either bound."""
    total = sum(c for c, _ in sym)
    pre = 0
    for i, (c, d) in enumerate(sym):
        if out_of_bounds(c, d, pre, total):
            return i
        pre += c
    return None


def out_of_bounds(c: int, d: int, pre: int, total: int) -> bool:
    """Whether symbol (c, d) breaks the validity condition, given the
    sum `pre` of c over the symbols before it and the word's sum `total`."""
    post = total - pre - c
    if c == 2:
        return abs(d) > -pre - 2 or abs(d) > post
    return abs(d) > -pre or abs(d) > post - 2


def require_valid(sym) -> None:
    check_symbols(sym)
    bad = check_validity(sym)
    if bad is not None:
        raise ParseError(
            f"symbol {bad + 1}: {format_sym(sym[bad:bad + 1])} violates the "
            "validity condition",
            position=bad + 1,
        )


def encode(word) -> SymWord:
    """Symbol word of a closed generator word."""
    if not is_closed(word):
        raise ValueError("encode is defined for closed words only")
    sym = tuple(g.symbol() for g in word)
    if check_validity(sym) is not None:
        raise InternalInvariantError("closed word encoded to an invalid symbol word")
    return sym


def decode(sym) -> GenWord:
    """The unique closed generator word with this symbol encoding."""
    require_valid(sym)
    total = sum(c for c, _ in sym)
    out = []
    pre = 0
    for c, d in sym:
        post = total - pre - c
        n = post + 1 if c == 2 else post - 1
        k2 = d + n + 3
        if k2 % 2:
            raise InternalInvariantError("odd slot arithmetic in decode")
        out.append(Generator("cap" if c == 2 else "cup", n, k2 // 2))
        pre += c
    return tuple(out)


# -- local rewrites ------------------------------------------------------

def _r1_match(a: Symbol, b: Symbol) -> bool:
    return a[0] == -2 and b[0] == 2 and b[1] in (a[1] + 2, a[1] - 2)


_RULES = ("R1", "R2", "R3.1", "R3.2", "R4")


def apply_relation(sym, rule: str, pos: int, forward: bool = True,
                   insert: tuple[Symbol, Symbol] | None = None) -> SymWord:
    """Rewrite at `pos` (0-based index of the pair's left symbol).

    R1 backward inserts a deletable pair at `pos`; pass it as `insert`.
    The rewritten word is checked against the validity condition.
    """
    if rule not in _RULES:
        raise ValueError(f"unknown rule {rule!r}")
    sym = tuple(sym)

    if rule == "R1" and not forward:
        if insert is None or not _r1_match(*insert):
            raise ValueError("R1 backward needs insert=( (-2,k), (2,k+-2) )")
        if not 0 <= pos <= len(sym):
            raise ValueError(f"insert position {pos} outside word")
        out = sym[:pos] + tuple(insert) + sym[pos:]
        _assert_still_valid(out, rule)
        return out

    if not 0 <= pos < len(sym) - 1:
        raise ValueError(f"position {pos} has no adjacent pair in word of length {len(sym)}")
    out = sym[:pos] + rewrite_pair(rule, sym[pos], sym[pos + 1], forward) + sym[pos + 2:]
    _assert_still_valid(out, rule)
    return out


def rewrite_pair(rule: str, a: Symbol, b: Symbol, forward: bool = True) -> tuple[Symbol, ...]:
    """What the adjacent pair `a b` becomes under a rule: the five
    replacement formulas, shared by apply_relation and the in-place
    rewriting of normalize.  R1 forward deletes the pair; raises
    ValueError when the pair does not match the rule's pattern."""
    if rule == "R1":
        if not _r1_match(a, b):
            raise ValueError(f"R1 does not match {a}{b}")
        return ()
    if rule == "R2":
        if forward:
            if not (a[0] == 2 and b[0] == 2 and a[1] <= b[1] - 2):
                raise ValueError(f"R2 forward does not match {a}{b}")
            return ((2, b[1] + 2), (2, a[1] + 2))
        if not (a[0] == 2 and b[0] == 2 and b[1] <= a[1] - 2):
            raise ValueError(f"R2 backward does not match {a}{b}")
        return ((2, b[1] - 2), (2, a[1] - 2))
    if rule == "R3.1":
        if forward:
            if not (a[0] == -2 and b[0] == 2 and a[1] <= b[1] - 4):
                raise ValueError(f"R3.1 forward does not match {a}{b}")
            return ((2, b[1] - 2), (-2, a[1] + 2))
        if not (a[0] == 2 and b[0] == -2 and b[1] <= a[1]):
            raise ValueError(f"R3.1 backward does not match {a}{b}")
        return ((-2, b[1] - 2), (2, a[1] + 2))
    if rule == "R3.2":
        if forward:
            if not (a[0] == 2 and b[0] == -2 and a[1] <= b[1]):
                raise ValueError(f"R3.2 forward does not match {a}{b}")
            return ((-2, b[1] + 2), (2, a[1] - 2))
        if not (a[0] == -2 and b[0] == 2 and b[1] <= a[1] - 4):
            raise ValueError(f"R3.2 backward does not match {a}{b}")
        return ((2, b[1] + 2), (-2, a[1] - 2))
    if rule == "R4":
        if forward:
            if not (a[0] == -2 and b[0] == -2 and a[1] <= b[1] - 2):
                raise ValueError(f"R4 forward does not match {a}{b}")
            return ((-2, b[1] - 2), (-2, a[1] - 2))
        if not (a[0] == -2 and b[0] == -2 and b[1] <= a[1] - 2):
            raise ValueError(f"R4 backward does not match {a}{b}")
        return ((-2, b[1] + 2), (-2, a[1] + 2))
    raise ValueError(f"unknown rule {rule!r}")


def _assert_still_valid(sym, rule: str) -> None:
    if check_validity(sym) is not None:
        raise InternalInvariantError(f"rewrite {rule} broke the validity condition")


# -- text syntaxes -------------------------------------------------------
#
# Generator form:  H(n,k) and U(n,k) joined by ';' in composition order
# (H = cap, U = cup).  Symbol form: (c,d)(c,d)... with no separators.
# Detection: first non-space character '(' means symbol form.

_SYM_TOKEN = re.compile(r"\((-?\d+),(-?\d+)\)")
_GEN_TOKEN = re.compile(r"([HU])\((\d+),(\d+)\)\Z")


def parse_sym(text: str) -> SymWord:
    text = text.strip()
    out = []
    pos = 0
    index = 0
    while pos < len(text):
        m = _SYM_TOKEN.match(text, pos)
        index += 1
        if not m:
            raise ParseError(f"symbol {index}: bad token at {text[pos:pos + 8]!r}", index)
        c, d = int(m.group(1)), int(m.group(2))
        if c not in (2, -2):
            raise ParseError(f"symbol {index}: first component must be +-2, got {c}", index)
        if d % 2:
            raise ParseError(f"symbol {index}: d={d} must be even", index)
        out.append((c, d))
        pos = m.end()
    return tuple(out)


def parse_gen(text: str) -> GenWord:
    text = text.strip()
    if not text:
        return ()
    out = []
    for index, token in enumerate(text.split(";"), start=1):
        m = _GEN_TOKEN.match(token.strip())
        if not m:
            raise ParseError(f"generator {index}: bad token {token.strip()!r}", index)
        kind = "cap" if m.group(1) == "H" else "cup"
        n, k = int(m.group(2)), int(m.group(3))
        try:
            out.append(Generator(kind, n, k))
        except ValueError as exc:
            raise ParseError(f"generator {index}: {exc}", index) from exc
    return tuple(out)


def parse_word(text: str):
    """Auto-detect syntax; returns ('sym', SymWord) or ('gen', GenWord)."""
    stripped = text.strip()
    if not stripped:
        return ("sym", ())
    if stripped[0] == "(":
        return ("sym", parse_sym(stripped))
    if stripped[0] in "HU":
        return ("gen", parse_gen(stripped))
    raise ParseError("word must start with '(' (symbol form) or H/U (generator form)", 1)


def format_sym(sym) -> str:
    return "".join(f"({c},{d})" for c, d in sym)


def format_gen(word) -> str:
    return ";".join(g.text() for g in word)


# -- corpora for property suites -----------------------------------------

def random_word(rng, max_pairs: int) -> SymWord:
    """Seeded random valid symbol word with 1..max_pairs symbol pairs.

    Walks the point-count profile: q is the running point count, an
    open (-2,d) raises it by 2 with |d| <= q, a close (2,d) lowers it
    with |d| <= q-2; closes are forced when needed to land back at 0.
    """
    if max_pairs < 1:
        raise ValueError("max_pairs must be >= 1")
    length = 2 * rng.randrange(1, max_pairs + 1)
    out = []
    q = 0
    for i in range(length):
        remaining = length - i - 1
        can_open = q + 2 <= 2 * remaining
        can_close = q >= 2
        if can_close and (not can_open or rng.randrange(2)):
            bound = q - 2
            out.append((2, rng.randrange(-bound // 2, bound // 2 + 1) * 2))
            q -= 2
        else:
            out.append((-2, rng.randrange(-q // 2, q // 2 + 1) * 2))
            q += 2
    return tuple(out)


def iter_closed_words(max_symbols: int):
    """Every valid symbol word with at most max_symbols symbols,
    including the empty word; exhaustive corpus for acceptance suites."""

    def extend(word: tuple, q: int, left: int):
        if left == 0:
            if q == 0:
                yield word
            return
        if q + 2 <= 2 * (left - 1):
            for d in range(-q, q + 1, 2):
                yield from extend(word + ((-2, d),), q + 2, left - 1)
        if q >= 2:
            for d in range(-(q - 2), q - 1, 2):
                yield from extend(word + ((2, d),), q - 2, left - 1)

    for length in range(0, max_symbols + 1, 2):
        yield from extend((), 0, length)


def to_gen_word(parsed) -> GenWord:
    """Normalize a parse_word result to a generator word."""
    form, word = parsed
    return decode(word) if form == "sym" else word


def to_sym_word(parsed) -> SymWord:
    """Normalize a parse_word result to a symbol word (closed words only)."""
    form, word = parsed
    return word if form == "sym" else encode(word)
