"""The benchmark's workloads: their queries, and how each query is run,
traced and checked.

Each query has two implementations.  `run_plain` makes the call a user
makes (`cli.main`, `normalize`, `circle_count`, `equivalent`) and is the
one the end-to-end numbers time.  `run_traced` decomposes the same
query into its calls into each layer (parse, codec, normalize,
to_forest, per-generator cap/cup, phi, forest_value), each under a span;
with a NullTracer it is the untraced baseline of the tracing overhead.
Both return the same answer, which `is_correct` compares with the
reference computed when the input was generated.
"""

from __future__ import annotations

import io
import random
import re
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from time import perf_counter

from tanglekit import (
    canonical,
    cap,
    check_validity,
    circle_count,
    count_monoid,
    cup,
    decode,
    encode,
    equivalent,
    forest_value,
    normalize,
    parse_word,
    prime_monoid,
    primes,
    to_forest,
    trivial,
)
from tanglekit import cli
from tanglekit.words import to_sym_word, width_profile

import inputs
from inputs import PrimeTable, Shape
from tracing import NullTracer

RULES = ("R1", "R2", "R3.1", "R3.2", "R4")


@dataclass(frozen=True)
class Query:
    kind: str  # "cli", "normal-form", "count" or "equiv"
    args: tuple  # argv for "cli", word texts otherwise
    expected: object
    shape: Shape


# -- running a query ------------------------------------------------------

def run_plain(q: Query):
    if q.kind == "cli":
        return _cli_main(q.args)
    if q.kind == "normal-form":
        normal, _ = normalize(to_sym_word(parse_word(q.args[0])))
        return canonical(to_forest(normal))
    if q.kind == "count":
        return circle_count(parse_word(q.args[0])[1])
    same, (ra, rb) = equivalent(parse_word(q.args[0])[1], parse_word(q.args[1])[1])
    return same, ra.value, rb.value


def run_traced(q: Query, tr):
    with tr.span("query"):
        if q.kind == "cli":
            with tr.span("query.cli_main"):
                answer = _cli_main(q.args)
            _decompose_cli(tr, q.args)
            return answer
        if q.kind == "normal-form":
            normal = _normalize(tr, _sym_word(tr, _parse(tr, q.args[0])))
            with tr.span("rewriting.to_forest", size=len(normal)):
                forest = to_forest(normal)
            with tr.span("rewriting.canonical"):
                return canonical(forest)
        if q.kind == "count":
            with tr.span("invariants.circle_count"):
                return _evaluate(tr, _gen_word(tr, _parse(tr, q.args[0])), count_monoid())
        with tr.span("invariants.equivalent"):
            spec = tr.timed_phi(prime_monoid())
            va, vb = (_evaluate(tr, _gen_word(tr, _parse(tr, text)), spec) for text in q.args)
            return va == vb, str(va), str(vb)


def attempt(run, q, *extra):
    """(seconds, error) of one query, error None for a correct answer.  A
    wrong answer, refusal or crash is recorded, never raised, so one failed
    query cannot end the run; the check is not timed."""
    start = perf_counter()
    try:
        answer = run(q, *extra)
    except Exception as exc:  # every failure is counted and reported
        return perf_counter() - start, f"{q.kind} {type(exc).__name__}: {exc}"
    elapsed = perf_counter() - start
    if not is_correct(q, answer):
        return elapsed, f"{q.kind} wrong answer for {str(q.args)[:80]}"
    return elapsed, None


def is_correct(q: Query, answer) -> bool:
    if q.kind == "cli" and q.expected[0] == "normal":
        code, out = answer
        return code == 0 and _normal_canon(out) == q.expected[1]
    if q.kind == "normal-form":
        try:
            return inputs.canon(inputs.parse_parens(answer)) == q.expected
        except ValueError:
            return False
    return answer == q.expected


_SYMBOL = re.compile(r"\((-?\d+),(-?\d+)\)")


def _normal_canon(text: str):
    """Canonical forest of a printed normal word, or None if the text is
    not a word of (-2,0)/(2,0) symbols."""
    text = text.strip()
    sym = [(int(c), int(d)) for c, d in _SYMBOL.findall(text)]
    if inputs.sym_text(sym) != text or any(d != 0 for _, d in sym):
        return None
    try:
        return inputs.canon(inputs.parse_parens("".join("(" if c == -2 else ")" for c, _ in sym)))
    except ValueError:
        return None


def _cli_main(argv):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, out.getvalue()


# -- the layer calls of a query --------------------------------------------

def _parse(tr, text):
    with tr.span("words.parse", size=len(text)):
        return parse_word(text)


def _gen_word(tr, parsed):
    form, word = parsed
    if form == "gen":
        return word
    with tr.span("words.codec", size=len(word)):
        return decode(word)


def _sym_word(tr, parsed):
    form, word = parsed
    if form == "sym":
        return word
    with tr.span("words.codec", size=len(word)):
        return encode(word)


def _normalize(tr, sym):
    with tr.span("rewriting.normalize", size=len(sym)):
        normal, history = normalize(sym)
        tr.note_work(len(history))
    if tr.counting:
        tr.count("rewriting.rewrites", len(history))
        for rule in RULES:
            tr.count("rewriting.rewrites." + rule, 0)
        for step in history:
            tr.count("rewriting.rewrites." + step.rule)
            tr.count("rewriting.trace_symbols", len(step.word))
    return normal


def _evaluate(tr, word, spec):
    """Value of a closed generator word, one cap or cup at a time, in the
    order eval_closed applies them (rightmost first)."""
    peak = max((max(g.in_width, g.out_width) for g in word), default=1)
    width_sum = sum(g.in_width for g in word)
    tr.count("operators.generators", len(word))
    tr.count("operators.width_sum", width_sum)
    tr.peak("operators.peak_width", peak)
    state = trivial(spec)
    with tr.span("operators.eval", size=peak, work=width_sum):
        for gen in reversed(word):
            if gen.kind == "cap":
                with tr.span("operators.cap", work=state.n):
                    state = cap(state, gen.k)
            else:
                with tr.span("operators.cup", work=state.n):
                    state = cup(state, gen.k)
    if state.n != 1:
        raise ValueError(f"word is not closed: final width {state.n}")
    value = state.values[0]
    tr.peak("invariants.value_bits", value.bit_length())
    return value


def _decompose_cli(tr, argv):
    """The layer calls cli.main makes for one command."""
    with tr.span("cli.parse_args"):
        args = cli.build_parser().parse_args(list(argv))
    if args.command == "validate":
        form, word = _parse(tr, args.word)
        with tr.span("words.validity", size=len(word)):
            check_validity(word) if form == "sym" else width_profile(word)
    elif args.command == "normalize":
        _normalize(tr, _sym_word(tr, _parse(tr, args.word)))
    elif args.command == "invariant":
        spec = tr.timed_phi(prime_monoid()) if args.monoid == "prime" else count_monoid()
        with tr.span("invariants.invariant_reports"):
            word = _gen_word(tr, _parse(tr, args.word))
            _evaluate(tr, word, spec)
            normal = _normalize(tr, _sym_word(tr, ("gen", word)))
            with tr.span("rewriting.to_forest", size=len(normal)):
                forest = to_forest(normal)
            with tr.span("invariants.forest_value"):
                value = forest_value(forest, spec)
            tr.peak("invariants.value_bits", value.bit_length())
    else:
        with tr.span("invariants.equivalent"):
            spec = tr.timed_phi(prime_monoid())
            for text in (args.word_a, args.word_b):
                _evaluate(tr, _gen_word(tr, _parse(tr, text)), spec)


# -- generating the queries -------------------------------------------------

def spread_order(n: int) -> list[int]:
    """0..n-1 in bit-reversed order, so that every prefix covers the
    range evenly; a run cut short by its deadline still sees every size."""
    bits = max(1, (n - 1).bit_length())
    return sorted(range(n), key=lambda i: int(format(i, f"0{bits}b")[::-1], 2))


def _reference(sym, tr, table=None):
    """Sweep forest, prime value and shape; without a prime table the
    query needs no prime, and value and index are None and 0."""
    forest = inputs.sweep_forest(sym, tr)
    value, index = inputs.prime_value(forest, table) if table else (None, 0)
    return forest, value, inputs.shape(sym, forest, index)


def cli_query(command, sym, syntax, tr, table, option=None, other=None):
    """One cli.main query and its expected (exit code, stdout)."""
    text = inputs.sym_text(sym) if syntax == "sym" else inputs.gen_text(sym)
    forest, value, shape = _reference(sym, tr, table)
    if command == "validate":
        argv = ("validate", text)
        noun = "symbols" if syntax == "sym" else "generators hom(0,0) closed"
        expected = (0, f"VALID {len(sym)} {noun}\n")
    elif command == "normalize":
        argv = ("normalize", text)
        expected = ("normal", inputs.canon(forest))
    elif command == "invariant":
        argv = ("invariant", text, "--monoid", option)
        v = value if option == "prime" else shape.circles
        expected = (0, f"{option} operator {v}\n{option} recursive {v}\nAGREE\n")
    else:
        other_forest, other_value, other_shape = _reference(other, tr, table)
        other_text = inputs.sym_text(other) if syntax == "sym" else inputs.gen_text(other)
        argv = ("equiv", text, other_text)
        verdict = "EQUIVALENT" if inputs.canon(forest) == inputs.canon(other_forest) else "DISTINCT"
        expected = (0, f"{verdict} {value} {other_value}\n")
        shape = max(shape, other_shape, key=lambda s: s.prime_index)
    return Query("cli", argv, expected, shape)


CLI_LENGTHS = tuple(range(2, 31, 2))
CLI_COMMANDS = ("validate", "normalize", "invariant", "equiv")
# The slowest 0.2 % of a pass, which query_ms_tail reads, are the few
# slowest words the seed drew; a pass of 7200 distinct queries, about 25 s,
# puts 14 of them there instead of 3 or 4 repeated ones, so the tail
# moves less from seed to seed.
CLI_QUERIES = 7200


def build_cli_short(seed: int, tr):
    """All four commands over both syntaxes and lengths 2..30; every 120
    consecutive queries hold each (command, length, syntax) equally."""
    rng = random.Random(seed)
    table = PrimeTable()
    order = spread_order(len(CLI_LENGTHS))
    queries = []
    for i in range(CLI_QUERIES):
        combo = i % 120
        command = CLI_COMMANDS[combo % 4]
        length = CLI_LENGTHS[order[combo % 15]]
        syntax = ("sym", "gen")[combo // 60]
        flip = (combo // 4) % 2
        needs_primes = command == "equiv" or (command == "invariant" and not flip)
        while True:
            sym = inputs.random_word(rng, length)
            other = None
            if command == "equiv":
                other = inputs.mirror(sym) if flip else inputs.random_word(rng, length)
            q = cli_query(command, sym, syntax, tr, table if needs_primes else None,
                          option=("prime", "count")[flip], other=other)
            if not needs_primes or q.shape.prime_index <= inputs.REFUSED_PRIME_INDEX:
                break
        queries.append(q)
    max_index = max(
        q.shape.prime_index for q in queries
        if q.args[0] == "equiv" or q.args[-1] == "prime"
    )
    return queries, max_index


NORMAL_LENGTHS = tuple(range(80, 121, 2))
# Words of one length differ up to threefold in rewrites, so the median of
# 21 words, one per length, moves from seed to seed by 8-15 %; three
# words per length steady it.  A pass then takes about 20 s.
NORMAL_ROUNDS = 3


def build_normalize_long(seed: int, tr):
    """NORMAL_ROUNDS random words of each length 80..120, alternately in
    each syntax."""
    rng = random.Random(seed)
    order = spread_order(len(NORMAL_LENGTHS))
    queries = []
    for i in range(NORMAL_ROUNDS * len(NORMAL_LENGTHS)):
        sym = inputs.random_word(rng, NORMAL_LENGTHS[order[i % len(order)]])
        text = inputs.sym_text(sym) if i % 2 == 0 else inputs.gen_text(sym)
        forest, _, shape = _reference(sym, tr)
        queries.append(Query("normal-form", (text,), inputs.canon(forest), shape))
    return queries, 0


EVAL_SIZES = tuple(range(40, 121, 10))
TOWER_MAX = 11  # a deeper tower needs a prime index tanglekit refuses


def _chain(depth):
    """A tree of `depth` nested circles (a tree is the tuple of its children)."""
    return () if depth == 1 else (_chain(depth - 1),)


def build_eval_wide(seed: int, tr):
    """Per size S in 40..120 circles (peak width 2S+1): circle_count of
    a centered nest of depth S, then equivalent of a row of towers of S
    circles in all against a partner that either permutes the towers
    (isotopic) or deepens one tower by a level.  Every row holds one
    tower of depth 11, so every run fills the same prime table."""
    rng = random.Random(seed)
    table = PrimeTable()
    queries = []
    max_index = 0
    for i, index in enumerate(spread_order(len(EVAL_SIZES))):
        size = EVAL_SIZES[index]
        sym = inputs.nest(size)
        forest, _, shape = _reference(sym, tr)
        _require(inputs.canon(forest) == inputs.canon((_chain(size),)), "nest", size)
        queries.append(Query("count", (inputs.sym_text(sym),), size, shape))

        depths = [TOWER_MAX]
        while sum(depths) < size:
            depths.append(min(rng.randint(1, TOWER_MAX), size - sum(depths)))
        rng.shuffle(depths)
        partner = list(depths)
        deepen = [j for j, d in enumerate(partner) if d < TOWER_MAX]
        if (i + seed) % 2 and deepen:
            partner[rng.choice(deepen)] += 1
        else:
            rng.shuffle(partner)
        rows = []
        for ds in (depths, partner):
            sym = inputs.tower_row(ds)
            forest, value, row_shape = _reference(sym, tr, table)
            closed_form = 1
            for d in ds:
                closed_form *= table.tower(d)
            _require(inputs.canon(forest) == inputs.canon(tuple(map(_chain, ds))), "row", ds)
            _require(value == closed_form, "row value", ds)
            rows.append((inputs.sym_text(sym), value, row_shape))
            max_index = max(max_index, row_shape.prime_index)
        (text, value, shape), (other_text, other_value, _) = rows
        expected = (sorted(depths) == sorted(partner), str(value), str(other_value))
        queries.append(Query("equiv", (text, other_text), expected, shape))
    return queries, max_index


def _require(ok, what, detail):
    if not ok:
        raise RuntimeError(f"oracle sweep disagrees with the closed form for {what} {detail}")


# -- warm-up ------------------------------------------------------------------

WARM_WORD = ((-2, 0), (-2, 0), (2, 2), (2, 0))  # one wavy circle: one R1 rewrite


def warm_up_queries():
    """One small query through every layer, so that first-call costs
    land in setup rather than in the first timed query."""
    table = PrimeTable()
    tr = NullTracer()
    out = []
    for syntax in ("sym", "gen"):
        out.append(cli_query("validate", WARM_WORD, syntax, tr, table))
        out.append(cli_query("normalize", WARM_WORD, syntax, tr, table))
        out.append(cli_query("invariant", WARM_WORD, syntax, tr, table, option="prime"))
        out.append(cli_query("invariant", WARM_WORD, syntax, tr, table, option="count"))
        out.append(cli_query("equiv", WARM_WORD, syntax, tr, table, other=inputs.mirror(WARM_WORD)))
    return out


def warm_up(tr, max_index, queries) -> list[str]:
    """Set-up after import: fill the prime table as far as the timed
    queries need, then run the warm-up queries.  Returns the errors of the
    warm-up queries that failed; like a timed query, a failed one is
    counted, never raised."""
    with tr.span("setup.primes_fill"):
        primes.nth_prime(max(1, max_index))
    failures = []
    for i, q in enumerate(queries):
        tr.query = -1 - i
        error = attempt(run_traced, q, tr)[1]
        if error:
            failures.append(f"warm-up {error}")
    tr.query = None
    return failures


@dataclass(frozen=True)
class Workload:
    build: object  # (seed, tracer) -> (queries, largest prime index needed)
    tail: float  # percentile reported as query_ms_tail
    trace_queries: int  # queries in one pass of the traced run
    setup_repeats: int  # fresh interpreters timed for setup_s


# query_ms_tail is the highest percentile that keeps at least 10 samples
# beyond it in a run of the fewest passes measured: 1 of cli-short (7200
# queries), 1 of normalize-long (63) and 3 of eval-wide (54).
WORKLOADS = {
    "cli-short": Workload(build_cli_short, tail=99.8, trace_queries=240, setup_repeats=25),
    "normalize-long": Workload(build_normalize_long, tail=84, trace_queries=11, setup_repeats=25),
    "eval-wide": Workload(build_eval_wide, tail=81, trace_queries=8, setup_repeats=5),
}
