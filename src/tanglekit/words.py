"""Tangle words: the Generator, its H(n,k)/U(n,k) text and its (+-2, d)
symbol encoding, each both written and read back in this module.

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
is only defined for closed words, where it is bijective.  Its inverse,
given the incoming width w = 1 + (sum of c over the symbols to the
right): (2,d) is a cap at slot (d+w+3)/2 and (-2,d) a cup at slot
(d+w+1)/2, the k that solves symbol() for n = w (cap) or n = w-2 (cup).

`slots` checks a word of either form and lists its (is_cap, slot)
steps, by this inverse for symbols; `closed_slots` also checks that the
word ends at width 1.  The operators, the sweep and the codec read
words only through these two.  A symbol is a tuple of two ints, but
`slots` reads one only as far as its arithmetic needs, so the operators,
the sweep and invariants.invariant_reports, like circle_count, may
answer for a list pair, or a first c of -2.0, as for its ints.

Validity condition for a symbol word (c_1,d_1)...(c_m,d_m): for each i,
with pre = sum of c_j over j < i and post = sum over j > i,

    c_i = +2:  |d_i| <= -pre - 2   and   |d_i| <= post
    c_i = -2:  |d_i| <= -pre       and   |d_i| <= post - 2

(-pre is the point count below generator i, post the count above it;
an empty word is valid).  As post = total - pre - c_i, the two bounds
are one: |d_i| <= floor - pre - 2 for a cap and |d_i| <= floor - pre
for a cup, where floor = min(total, 0).  A valid nonempty word has
total 0, so at incoming width w = 1 + post they read |d| <= w - 1 and
|d| <= w - 3, which `slots` checks as it lists a symbol word's steps.

Local rewrites (each an equality of diagrams, applied at a position):

    R1    (-2,k)(2,k+2)  <->  (deleted)   [also the (2,k-2) mate]
    R2    (2,k)(2,l)     <->  (2,l+2)(2,k+2)    for k <= l-2
    R3.1  (-2,k)(2,l)    <->  (2,l-2)(-2,k+2)   for k <= l-4
    R3.2  (2,k)(-2,l)    <->  (-2,l+2)(2,k-2)   for k <= l
    R4    (-2,k)(-2,l)   <->  (-2,l-2)(-2,k-2)  for k <= l-2

R2, R3.1, R3.2 and R4 are one relation, the exchange of two adjacent
generators that do not overlap: swap((c_a,k), (c_b,l)) is
(c_b, l+c_a)(c_a, k+c_b) forward, each d moving by the other symbol's
sign, and (c_b, l-c_a)(c_a, k-c_b) backward, which undoes it.  A rule
applies forward to its signs (c_a, c_b) when k <= l - 2 + (c_a - c_b)/2,
and backward to a pair whose backward swap it applies to forward:

    R2   ( 2, 2)  k <= l-2        R3.2 ( 2,-2)  k <= l
    R3.1 (-2, 2)  k <= l-4        R4   (-2,-2)  k <= l-2

`swap` is the one rewrite formula here: rewriting.normalize applies it
and checks that each rewrite keeps the word valid, and
tests/reference_rewriting.py matches each rule's pattern from the table.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import InternalInvariantError, ParseError


# -- generators ----------------------------------------------------------

@dataclass(frozen=True)
class Generator:
    """A cap or cup reference: kind, width parameter n, slot k.

    A cap with parameter n maps width n to n+2; a cup with parameter n
    maps width n+2 down to n.  Both require 2 <= k <= n+1.
    """

    kind: str
    n: int
    k: int

    def __post_init__(self):
        if self.kind not in ("cap", "cup"):
            raise ValueError(f"unknown generator kind {self.kind!r}")
        if self.n < 1:
            raise ValueError(f"generator width parameter {self.n} must be >= 1")
        if not 2 <= self.k <= self.n + 1:
            raise ValueError(
                f"slot k={self.k} outside 2..{self.n + 1} for width parameter {self.n}"
            )

    @property
    def in_width(self) -> int:
        return self.n if self.kind == "cap" else self.n + 2

    @property
    def out_width(self) -> int:
        return self.n + 2 if self.kind == "cap" else self.n

    def symbol(self) -> tuple[int, int]:
        """(+-2, d) code: d is strands-left minus strands-right."""
        c = 2 if self.kind == "cap" else -2
        return (c, 2 * self.k - self.n - 3)

    def text(self) -> str:
        letter = "H" if self.kind == "cap" else "U"
        return f"{letter}({self.n},{self.k})"


Symbol = tuple[int, int]
SymWord = tuple[Symbol, ...]
GenWord = tuple[Generator, ...]
_WRONG_FORM = "a word is a sequence of symbol tuples or of Generators"


# -- the arity walker ----------------------------------------------------

def _refuse_text(word) -> None:
    if isinstance(word, str):
        raise ParseError("a word given as text must be read with parse_word first")


def width_profile(word, start: int | None = None) -> list[int]:
    """Widths seen while evaluating, top first: [start, ..., out(g_1)].
    `start` is the width entering at the top; it defaults to what the
    top generator expects (1 for the empty word).  This is the one
    arity check: it raises on a mismatch, reporting the 1-based
    position."""
    _refuse_text(word)
    try:
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
    except AttributeError:
        require_valid(word)  # a symbol among Generators is a ParseError there
        raise ValueError("a generator word is needed, not a symbol word") from None
    return widths


def slots(word, width: int) -> list[tuple[bool, int]]:
    """Check a word of either form against the incoming width, then list
    its generators as (is_cap, slot) pairs in the order they act,
    rightmost first.  A generator word is checked by width_profile; a
    symbol word, which is closed, by the validity condition in the same
    pass from the right, and it must start at width 1; require_valid
    reports any failure."""
    if not is_sym_word(word):
        width_profile(word, width)
        return [(gen.kind == "cap", gen.k) for gen in reversed(word)]
    if width != 1:
        raise ValueError(f"a symbol word starts at width 1, not {width}")
    steps = []
    try:
        for c, d in reversed(word):
            if d % 2:
                break
            if c == 2 and -width < d < width:
                steps.append((True, (d + width + 3) >> 1))
            elif c == -2 and 2 - width < d < width - 2:
                steps.append((False, (d + width + 1) >> 1))
            else:
                break
            width += c
    except (TypeError, ValueError) as exc:  # not a pair, or a float or text in one
        raise ParseError(_WRONG_FORM) from exc
    if len(steps) == len(word) and width == 1:
        return steps
    require_valid(word)
    raise InternalInvariantError("slots refused a symbol word that require_valid accepts")


def closed_slots(word) -> list[tuple[bool, int]]:
    """The slots of a word that starts and ends at width 1.  A symbol
    word ends there by the validity condition, a generator word that
    passed the arity check at its leftmost factor's output."""
    steps = slots(word, 1)
    if word and not is_sym_word(word) and word[0].out_width != 1:
        raise ValueError(f"word is not closed: final width {word[0].out_width}")
    return steps


def is_sym_word(word) -> bool:
    """Whether a nonempty word is in symbol form; the empty word is
    both, and reads as a generator word.  Text, and a word whose first
    element is neither a symbol tuple nor a Generator, is a ParseError."""
    _refuse_text(word)
    if not word or isinstance(word[0], Generator):
        return False
    if not isinstance(word[0], tuple):
        raise ParseError(_WRONG_FORM)
    return True


# -- symbol codec -------------------------------------------------------

def check_validity(sym) -> int | None:
    """None if the word satisfies the validity condition, else a 0-based
    index: in a word with a c that is not +-2, that of the first symbol
    whose c is not +-2 or whose d is odd, as require_valid names, or else
    that of the first symbol violating either bound.  A word that mixes the
    forms, or holds a symbol that is not a tuple of two ints, is a ParseError."""
    if not is_sym_word(sym) and sym:  # text is refused even when empty
        if not all(isinstance(gen, Generator) for gen in sym):
            raise ParseError(_WRONG_FORM)
        raise ValueError("a symbol word is needed, not a generator word")
    try:
        total = sum(c for c, _ in sym)
    except (TypeError, ValueError) as exc:  # an element that is not a pair
        raise ParseError(_WRONG_FORM) from exc
    floor = total if total < 0 else 0
    pre = 0
    for i, symbol in enumerate(sym):
        c, d = symbol
        if not (isinstance(symbol, tuple) and isinstance(c, int) and isinstance(d, int)):
            raise ParseError(_WRONG_FORM)
        bound = floor - pre - 2 if c == 2 else floor - pre
        if c not in (2, -2) or abs(d) > bound:
            if all(c_j in (2, -2) for c_j, _ in sym):
                return i
            # A bad c moves floor, so name what require_valid names first;
            # the entries past symbol i are not yet known to be ints.
            return next(j for j, (c_j, d_j) in enumerate(sym)
                        if c_j not in (2, -2) or isinstance(d_j, int) and d_j % 2)
        pre += c
    return None


def require_valid(sym) -> None:
    bad = check_validity(sym)  # refuses text and wrong forms before unpacking symbols
    for i, (c, d) in enumerate(sym):
        if c not in (2, -2):
            raise ParseError(f"symbol {i + 1}: first component must be +-2", i + 1)
        if not isinstance(d, (int, float)):  # check_validity stops at the first bad symbol
            raise ParseError(_WRONG_FORM)
        if d % 2:
            raise ParseError(f"symbol {i + 1}: d={d} must be even", i + 1)
    if bad is not None:
        raise ParseError(
            f"symbol {bad + 1}: {format_sym(sym[bad:bad + 1])} violates the "
            "validity condition",
            position=bad + 1,
        )


def encode(word) -> SymWord:
    """Symbol word of a closed word of either form.  A symbol word comes
    back as a tuple, unchecked: whoever reads its symbols checks them,
    as normalize does; closed_slots checks a generator word first."""
    if is_sym_word(word):
        return tuple(word)
    closed_slots(word)
    sym = tuple(gen.symbol() for gen in word)
    if check_validity(sym) is not None:
        raise InternalInvariantError("closed word encoded to an invalid symbol word")
    return sym


def decode(sym) -> GenWord:
    """The unique closed generator word with this symbol encoding."""
    steps = slots(sym, 1)
    if sym and not is_sym_word(sym):
        raise ValueError("decode takes a symbol word, not a generator word")
    out = []
    width = 1
    for (is_cap, k), symbol in zip(steps, reversed(sym)):
        gen = Generator("cap", width, k) if is_cap else Generator("cup", width - 2, k)
        if gen.symbol() != symbol:
            require_valid(sym)  # a list pair is a ParseError there
            raise InternalInvariantError(f"decode built {gen.text()} for the symbol {symbol}")
        out.append(gen)
        width = gen.out_width
    return tuple(reversed(out))


# -- local rewrites ------------------------------------------------------

def swap(a: Symbol, b: Symbol, forward: bool = True) -> tuple[Symbol, Symbol]:
    """Exchange the adjacent symbols `a b`: each moves its d by the
    other's sign, up when forward and down when backward."""
    (ca, da), (cb, db) = a, b
    if forward:
        return (cb, db + ca), (ca, da + cb)
    return (cb, db - ca), (ca, da - cb)


# -- text syntaxes -------------------------------------------------------
#
# Generator form:  H(n,k) and U(n,k) joined by ';' in composition order
# (H = cap, U = cup).  Symbol form: (c,d)(c,d)... with no separators.
# Detection: first non-space character '(' means symbol form.

_SYM_PAIR = re.compile(r"(-?[0-9]+),(-?[0-9]+)")
_SYM_TOKEN = re.compile(r"\((-?[0-9]+),(-?[0-9]+)\)")
_SYM_RUN = re.compile(r"(?:\(-?[0-9]+,-?[0-9]+\))*")
_GEN_TOKEN = re.compile(r"([HU])\(([0-9]+),([0-9]+)\)\Z")


def parse_sym(text: str) -> SymWord:
    """Split the text at ")(" and read each distinct token once, with
    one fullmatch and the c and d checks; the word maps its tokens
    through that table.  Only when this read fails does a token-by-token
    loop run, to report the first error in symbol order: one regex match
    finds the well-formed prefix and one findall reads its tokens, so a
    bad c or odd d in the prefix comes before the bad token that ends
    it.  Leading zeros and -0 are accepted: (02,0) reads as (2,0) and
    (-02,-00) as (-2,0).  format_sym writes the canonical spelling, so
    normalize echoes a word in that spelling."""
    text = text.strip()
    if not text:
        return ()
    if text[0] == "(" and text[-1] == ")":
        tokens = text[1:-1].split(")(")
        table = {}
        try:
            for token in dict.fromkeys(tokens):  # first appearance, so in symbol order
                m = _SYM_PAIR.fullmatch(token)
                if m is None:
                    break
                c, d = int(m[1]), int(m[2])
                if c not in (2, -2) or d % 2:
                    break
                table[token] = (c, d)
            else:
                return tuple(map(table.__getitem__, tokens))
        except ValueError:  # a number past int()'s digit limit, reported below
            pass
    end = _SYM_RUN.match(text).end()
    found = _SYM_TOKEN.findall(text, 0, end)
    for index, (c, d) in enumerate(found, start=1):
        try:
            c, d = int(c), int(d)
        except ValueError as exc:
            raise ParseError(f"symbol {index}: {exc}", index) from exc
        if c not in (2, -2):
            raise ParseError(f"symbol {index}: first component must be +-2, got {c}", index)
        if d % 2:
            raise ParseError(f"symbol {index}: d={d} must be even", index)
    index = len(found) + 1
    raise ParseError(f"symbol {index}: bad token at {text[end:end + 8]!r}", index)


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
        try:  # int() refuses a number past its digit limit, Generator a bad slot
            out.append(Generator(kind, int(m.group(2)), int(m.group(3))))
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
    _refuse_text(sym)
    try:
        return "".join(f"({c},{d})" for c, d in sym)
    except (TypeError, ValueError) as exc:  # an element that is not a pair
        check_validity(sym)  # a generator word is a ValueError there
        raise ParseError(_WRONG_FORM) from exc


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


def to_gen_word(parsed) -> GenWord:
    """Normalize a parse_word result to a generator word."""
    form, word = parsed
    return decode(word) if form == "sym" else word


def to_sym_word(parsed) -> SymWord:
    """Normalize a parse_word result to a symbol word (closed words only)."""
    return encode(parsed[1])
