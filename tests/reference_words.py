"""Specifications that the library's word reading is tested against:
the symbol-text and generator-text readers token by token, and the
validity check and slot listing of a symbol word in three walks, each
written as directly as the condition reads.

parse_sym here runs a regex over the text, a findall over its prefix
and two int() calls per token; parse_gen matches and builds one
Generator per token; slots checks the validity condition in two walks,
one out_of_bounds call per symbol with both of its bounds, and lists
the steps in a third.  tanglekit.words.parse_sym, parse_gen and slots
must return exactly what these return, and raise the same error,
message and position included.
"""

from __future__ import annotations

import re

from tanglekit.errors import ParseError
from tanglekit.words import Generator, format_sym

_GEN_TOKEN = re.compile(r"([HU])\(([0-9]+),([0-9]+)\)\Z")
_SYM_TOKEN = re.compile(r"\((-?[0-9]+),(-?[0-9]+)\)")
_SYM_RUN = re.compile(r"(?:\(-?[0-9]+,-?[0-9]+\))*")


def parse_sym(text: str):
    text = text.strip()
    end = _SYM_RUN.match(text).end()
    out = []
    for index, (c, d) in enumerate(_SYM_TOKEN.findall(text, 0, end), start=1):
        c, d = int(c), int(d)
        if c not in (2, -2):
            raise ParseError(f"symbol {index}: first component must be +-2, got {c}", index)
        if d % 2:
            raise ParseError(f"symbol {index}: d={d} must be even", index)
        out.append((c, d))
    if end < len(text):
        index = len(out) + 1
        raise ParseError(f"symbol {index}: bad token at {text[end:end + 8]!r}", index)
    return tuple(out)


def parse_gen(text: str):
    text = text.strip()
    if not text:
        return ()
    out = []
    for index, token in enumerate(text.split(";"), start=1):
        m = _GEN_TOKEN.match(token.strip())
        if not m:
            raise ParseError(f"generator {index}: bad token {token.strip()!r}", index)
        kind = "cap" if m.group(1) == "H" else "cup"
        try:
            out.append(Generator(kind, int(m.group(2)), int(m.group(3))))
        except ValueError as exc:
            raise ParseError(f"generator {index}: {exc}", index) from exc
    return tuple(out)


def out_of_bounds(c: int, d: int, pre: int, total: int) -> bool:
    """Whether symbol (c, d) breaks the validity condition, given the
    sum `pre` of c over the symbols before it and the word's sum `total`."""
    post = total - pre - c
    if c == 2:
        return abs(d) > -pre - 2 or abs(d) > post
    return abs(d) > -pre or abs(d) > post - 2


def check_validity(sym):
    total = sum(c for c, _ in sym)
    pre = 0
    for i, (c, d) in enumerate(sym):
        if out_of_bounds(c, d, pre, total):
            return i
        pre += c
    return None


def require_valid(sym) -> None:
    bad = check_validity(sym)
    for i, (c, d) in enumerate(sym):
        if c not in (2, -2):
            raise ParseError(f"symbol {i + 1}: first component must be +-2", i + 1)
        if d % 2:
            raise ParseError(f"symbol {i + 1}: d={d} must be even", i + 1)
    if bad is not None:
        raise ParseError(
            f"symbol {bad + 1}: {format_sym(sym[bad:bad + 1])} violates the "
            "validity condition",
            position=bad + 1,
        )


def slots(sym):
    """The (is_cap, slot) steps of a symbol word, which starts at width 1."""
    require_valid(sym)
    steps = []
    width = 1
    for c, d in reversed(sym):
        if c == 2:
            steps.append((True, (d + width + 3) // 2))
        else:
            steps.append((False, (d + width + 1) // 2))
        width += c
    return steps
