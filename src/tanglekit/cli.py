"""Command-line front end.

Words are passed as single quoted arguments in either text syntax,
auto-detected by the first character: '(' starts a symbol word like
"(-2,0)(2,0)", a letter starts a generator word like "U(1,2);H(1,2)"
(composition order, leftmost = bottom of the diagram; H = cap, U =
cup).

Exit codes: 0 success, 1 invalid input (with 1-based position
diagnostics), 2 internal invariant violation (method disagreement,
selftest failure), 3 resource limit reached (the rewrite watchdog of
normalize --max-steps).  All randomness is seeded and the seed
is echoed, so any failure replays.
"""

from __future__ import annotations

import argparse
import random
import sys

from . import invariants, rewriting, oracle, states, words
from .errors import InternalInvariantError, ResourceLimitError
from .lomonoid import MonoidSpec, count_monoid, prime_monoid
from .operators import cap, cup, eval_steps, mirror
from .states import trivial
from .words import format_sym, parse_word, to_gen_word, to_sym_word

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_INTERNAL = 2
EXIT_LIMIT = 3


def _monoid(name: str) -> MonoidSpec:
    return prime_monoid() if name == "prime" else count_monoid()


def _cmd_validate(args) -> int:
    form, word = parse_word(args.word)
    if form == "sym":
        bad = words.check_validity(word)
        if bad is not None:
            print(
                f"INVALID symbol {bad + 1}: {format_sym(word[bad:bad + 1])} "
                "violates the validity condition"
            )
            return EXIT_INVALID
        print(f"VALID {len(word)} symbols")
        return EXIT_OK
    profile = words.width_profile(word)  # raises ParseError on mismatch
    top, bottom = profile[0] - 1, profile[-1] - 1
    closed = " closed" if top == 0 and bottom == 0 else ""
    print(f"VALID {len(word)} generators hom({top},{bottom}){closed}")
    return EXIT_OK


def _cmd_normalize(args) -> int:
    if args.max_steps < 0:
        raise ValueError(f"--max-steps must be >= 0, got {args.max_steps}")
    sym = to_sym_word(parse_word(args.word))
    normal, trace = rewriting.normalize(sym, max_rewrites=args.max_steps)
    if args.trace:
        for step in trace:
            print(step.describe())
    print(format_sym(normal))
    return EXIT_OK


def _cmd_invariant(args) -> int:
    spec = _monoid(args.monoid)
    gen_word = to_gen_word(parse_word(args.word))
    op_report, rec_report, agree = invariants.invariant_reports(gen_word, spec)
    print(f"{op_report.monoid} {op_report.method} {op_report.value}")
    print(f"{rec_report.monoid} {rec_report.method} {rec_report.value}")
    print("AGREE" if agree else "DISAGREE")
    return EXIT_OK if agree else EXIT_INTERNAL


def _cmd_equiv(args) -> int:
    word_a = to_gen_word(parse_word(args.word_a))
    word_b = to_gen_word(parse_word(args.word_b))
    same, (ra, rb) = invariants.equivalent(word_a, word_b)
    print(f"{'EQUIVALENT' if same else 'DISTINCT'} {ra.value} {rb.value}")
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    report = oracle.completeness_report(args.circles)
    print(report.render())
    return EXIT_OK if report.ok else EXIT_INTERNAL


def _cmd_eval(args) -> int:
    spec = _monoid(args.monoid)
    gen_word = to_gen_word(parse_word(args.word))
    state = trivial(spec)
    if args.steps:
        print(f"start {state.summary()}")
    for gen, state in eval_steps(gen_word, state):
        if args.steps:
            print(f"{gen.text()} {state.summary()}")
    if args.show_state:
        print(state.dump())
    print(state.summary())
    return EXIT_OK


def _cmd_selftest(args) -> int:
    return run_selftest(seed=args.seed, trials=args.trials)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tanglekit",
        description="normalize, evaluate and classify systems of disjoint planar curves",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a word's validity")
    p.add_argument("word")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("normalize", help="rewrite to a word of (+-2,0) symbols")
    p.add_argument("word")
    p.add_argument("--trace", action="store_true", help="print one line per rewrite")
    p.add_argument(
        "--max-steps", type=int, default=rewriting.DEFAULT_MAX_REWRITES,
        help="rewrites allowed before giving up with exit 3",
    )
    p.set_defaults(func=_cmd_normalize)

    p = sub.add_parser("invariant", help="compute the invariant both ways")
    p.add_argument("word")
    p.add_argument("--monoid", choices=("prime", "count"), default="prime")
    p.set_defaults(func=_cmd_invariant)

    p = sub.add_parser("equiv", help="decide isotopy equivalence of two closed words")
    p.add_argument("word_a")
    p.add_argument("word_b")
    p.set_defaults(func=_cmd_equiv)

    p = sub.add_parser("enumerate", help="all nesting forests up to a circle count")
    p.add_argument("--circles", type=int, required=True)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("eval", help="evaluate a word on the trivial state")
    p.add_argument("word")
    p.add_argument("--monoid", choices=("prime", "count"), default="prime")
    p.add_argument("--steps", action="store_true", help="print each intermediate state")
    p.add_argument("--show-state", action="store_true", help="dump the final state")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("selftest", help="seeded property sweep over every suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=200)
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; our contract reserves 2.
        return EXIT_OK if exc.code == 0 else EXIT_INVALID
    try:
        return args.func(args)
    except InternalInvariantError as exc:
        print(f"INTERNAL: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except ResourceLimitError as exc:
        print(f"LIMIT: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except ValueError as exc:
        print(f"ERROR: {exc}", file=sys.stderr)
        return EXIT_INVALID


def console_main() -> None:
    sys.exit(main())


# -- selftest ------------------------------------------------------------

def run_selftest(seed: int, trials: int) -> int:
    """Seeded sweep over the main property suites; deterministic output
    for a fixed seed.  Every suite prints one PASS/FAIL line."""
    failures = 0

    def suite(name: str, fn) -> None:
        nonlocal failures
        try:
            checks = fn()
        except Exception as exc:  # a suite crash is a failure, not an abort
            print(f"suite {name} FAIL ({exc})")
            failures += 1
            return
        print(f"suite {name} PASS checks={checks}")

    suite("boolean-identities", lambda: _selftest_identities())
    suite("monoid-axioms", lambda: _selftest_axioms(seed, trials))
    suite("operator-relations", lambda: _selftest_relations(seed, trials))
    suite("codec-roundtrip", lambda: _selftest_codec(seed, trials))
    suite("normalize-oracle", lambda: _selftest_normalize(seed, trials))
    suite("completeness", lambda: _selftest_completeness())
    verdict = "ALL PASS" if failures == 0 else f"{failures} FAILED"
    print(f"seed {seed} trials {trials}: {verdict}")
    return EXIT_OK if failures == 0 else EXIT_INTERNAL


def _selftest_identities() -> int:
    from . import boolmat

    checks = 0
    for n in range(1, 7):
        for k in range(2, n + 2):
            b = boolmat.insert_map(n, k)
            assert b.transpose() @ b == boolmat.identity(n)
            assert b.transpose() @ boolmat.single_diag(n + 2, k) == boolmat.zero(n, n + 2)
            assert boolmat.single_diag(n + 2, k) @ b == boolmat.zero(n + 2, n)
            assert b @ b.transpose() >= boolmat.identity(n + 2) - boolmat.single_diag(n + 2, k)
            checks += 4
        s_in, s_out = boolmat.reversal(n), boolmat.reversal(n + 2)
        for k in range(2, n + 2):
            assert s_out @ boolmat.insert_map(n, k) @ s_in == boolmat.insert_map(n, n + 3 - k)
            checks += 1
    return checks


def _selftest_axioms(seed: int, trials: int) -> int:
    from .lomonoid import axiom_failures

    checks = 0
    for spec in (count_monoid(), prime_monoid()):
        rng = random.Random(seed)
        triples = [
            (spec.sample(rng), spec.sample(rng), spec.sample(rng)) for _ in range(trials)
        ]
        bad = axiom_failures(spec, triples)
        assert not bad, f"{spec.name}: {bad[0]}"
        checks += len(triples)
    return checks


def _selftest_relations(seed: int, trials: int) -> int:
    rng = random.Random(seed)
    checks = 0
    for _ in range(trials):
        spec = prime_monoid() if rng.randrange(2) else count_monoid()
        n = rng.choice((1, 3, 5))
        state = states.random_state(n, rng, spec)
        k = rng.randrange(2, n + 2)
        up = cap(state, k)
        # the undoing cup must itself be a legal slot on width n+2
        if k <= n:
            assert cup(up, k + 1) == state
        if k >= 3:
            assert cup(up, k - 1) == state
        assert mirror(mirror(state)) == state
        if n + 4 <= 9:
            l = rng.randrange(k + 2, n + 4)
            left = cap(cap(state, k), l)
            right = cap(cap(state, l - 2), k)
            assert left == right
        checks += 1
    return checks


def _selftest_codec(seed: int, trials: int) -> int:
    rng = random.Random(seed)
    checks = 0
    for _ in range(trials):
        sym = words.random_word(rng, max_pairs=8)
        assert words.encode(words.decode(sym)) == sym
        checks += 1
    return checks


def _selftest_normalize(seed: int, trials: int) -> int:
    rng = random.Random(seed)
    checks = 0
    for _ in range(trials):
        sym = words.random_word(rng, max_pairs=8)
        normal, _ = rewriting.normalize(sym)
        geometric = oracle.canonical(oracle.trace_diagram(words.decode(sym)))
        rewritten = oracle.canonical(rewriting.to_forest(normal))
        assert geometric == rewritten, format_sym(sym)
        checks += 1
    return checks


def _selftest_completeness() -> int:
    report = oracle.completeness_report(5)
    assert report.ok
    return len(report.rows)
