"""Complexity contracts, counted, not timed.

Line events inside the package under sys.settrace repeat exactly from
run to run, so their growth on a scaling family is a deterministic
measure of Python steps.  Nests, rows and random words of 250 to 2,000
circles must grow with a log-log slope of at most 1.1: O(1) Python
steps per generator, for the sweep, for the operators and for the
invariant command's two routes together.  Reading a symbol text costs
Python steps per distinct token only, so a nest's text costs the same
at every depth.  normalize's steps must grow with
its rewrite count at a slope of at most 1.1 on random words of 40 to
160 symbols: O(1) Python steps per rewrite.  Memory is not fitted
here: small ints and stepwise container growth bend its slope at these
sizes, so tests/test_oracle.py bounds the sweep's peak instead, and the
sweep's union-find must hold one node per cap.  The prime table is
refilled a number of times logarithmic in the largest index asked for.
"""

import math
import os
import random
import sys
from array import array

import pytest

import tanglekit
from tanglekit import oracle, primes
from tanglekit.invariants import invariant_reports
from tanglekit.lomonoid import count_monoid
from tanglekit.operators import closed_values
from tanglekit.oracle import trace_diagram
from tanglekit.words import format_sym, parse_sym, random_word

PACKAGE = os.path.dirname(tanglekit.__file__) + os.sep
SIZES = (250, 500, 1000, 2000)


def random_words(n):
    """Random words of up to n circles each, one after another, until
    they hold at least n circles."""
    rng, word = random.Random(n), ()
    while len(word) < 2 * n:
        word += random_word(rng, n)
    return word


FAMILIES = {
    "nest": lambda n: ((-2, 0),) * n + ((2, 0),) * n,
    "random": random_words,
    "row": lambda n: ((-2, 0), (2, 0)) * n,
}
ROUTES = {
    "sweep": trace_diagram,
    "operators": lambda word: closed_values((word,), count_monoid()),
    "invariant": lambda word: invariant_reports(word, count_monoid()),
}


def loglog_slope(points) -> float:
    """Least-squares slope of log(y) against log(x); 0.0 when the points
    span fewer than two distinct x (a copy of perfbench's, so that
    neither the package nor the benchmark changes for a test)."""
    pts = [(math.log(x), math.log(y)) for x, y in points if x > 0 and y > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    sxy = sum((x - mx) * (y - my) for x, y in pts)
    return sxy / sxx


def line_events(call, *args) -> int:
    """Line events inside the package while call(*args) runs."""
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
        return local

    def enter(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(PACKAGE) else None

    previous = sys.gettrace()
    sys.settrace(enter)
    try:
        call(*args)
    finally:
        sys.settrace(previous)
    return count


def test_counting_is_exact():
    word = FAMILIES["nest"](50)
    assert line_events(trace_diagram, word) == line_events(trace_diagram, word) > 0


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("route", sorted(ROUTES))
def test_python_steps_are_linear(route, family):
    words = [FAMILIES[family](n) for n in SIZES]
    points = [(len(word), line_events(ROUTES[route], word)) for word in words]
    assert loglog_slope(points) <= 1.1, points


def test_reading_a_nest_costs_the_same_at_every_depth():
    texts = [format_sym(FAMILIES["nest"](n)) for n in SIZES]
    counts = [line_events(parse_sym, text) for text in texts]
    assert len(set(counts)) == 1, counts


def random_word_of(n):
    """The first random word of exactly n symbols that a generator
    seeded with n draws."""
    rng = random.Random(n)
    while len(word := random_word(rng, n // 2)) != n:
        pass
    return word


def test_normalize_steps_per_rewrite_are_constant():
    # O(1) Python steps per rewrite: line events grow with the rewrite
    # count, not with the rewrite count times the word's length, as they
    # would if a scan restarted at 0 after each rewrite.
    points = []
    for n in (40, 80, 160):
        word = random_word_of(n)
        points.append((len(tanglekit.normalize(word)[1]), line_events(tanglekit.normalize, word)))
    assert loglog_slope(points) <= 1.1, points


def test_the_sweep_keeps_one_node_per_cap(monkeypatch):
    # A cap's two strands start on one curve, so pass 1 gives the cap
    # one union-find node; pass 2 finds the curve of every cap by it.
    find, seen = oracle._find, []

    def recording(parent, x):
        seen.append(x)
        return find(parent, x)

    monkeypatch.setattr(oracle, "_find", recording)
    for family in sorted(FAMILIES):
        word = FAMILIES[family](50)
        seen.clear()
        trace_diagram(word)
        assert max(seen) == len(word) // 2 - 1, family


def test_prime_table_fills_double(monkeypatch):
    # Each fill at least doubles the table, so asking for the indices
    # 1..n in turn fills it at most log2(n / 6) + 2 times from 6 primes.
    # The bound is checked at every call, so a table that grows by one
    # index per fill fails after a few sieves, not thousands.
    monkeypatch.setattr(primes, "_primes", array("I", [2, 3, 5, 7, 11, 13]))
    fills, table = 0, primes._primes
    for n in range(1, 10**5 + 1):
        primes.nth_prime(n)
        if primes._primes is not table:
            fills, table = fills + 1, primes._primes
            assert fills <= math.log2(n / 6) + 2, (n, fills)
    assert primes.nth_prime(10**5) == 1299709
