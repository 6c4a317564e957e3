"""Byte-exact golden tests for every CLI command, plus error paths."""

import contextlib
import dataclasses
import io
import os
import pathlib
import subprocess
import sys

import pytest

from tanglekit import cli, lomonoid, oracle, rewriting, words
from tanglekit.cli import build_parser, main
from tanglekit.errors import InternalInvariantError, ResourceLimitError
from tanglekit.words import Generator

GOLDEN = pathlib.Path(__file__).parent / "golden"
SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

# One circle around 21 circles: its value needs the 2**21-th prime.
AROUND_21 = "(-2,0)" + "(-2,0)(2,0)" * 21 + "(2,0)"


def nest(depth):
    return "(-2,0)" * depth + "(2,0)" * depth

CASES = {
    "validate_sym_ok": ["validate", "(-2,0)(-2,0)(2,2)(2,0)"],
    "validate_sym_bad": ["validate", "(2,0)(-2,0)"],
    "validate_gen_ok": ["validate", "U(1,2);U(3,3);H(3,4);H(1,2)"],
    "normalize_hump": ["normalize", "(-2,0)(-2,0)(2,2)(2,0)"],
    "normalize_trace": ["normalize", "--trace", "(-2,0)(-2,0)(-2,2)(2,2)(2,2)(2,0)"],
    "normalize_limit": ["normalize", "--max-steps", "1", "(-2,0)(-2,0)(-2,2)(2,2)(2,2)(2,0)"],
    "invariant_circle_count": ["invariant", "(-2,0)(2,0)", "--monoid", "count"],
    "invariant_nested_prime": ["invariant", "(-2,0)(-2,0)(2,0)(2,0)"],
    "equiv_distinct": ["equiv", "(-2,0)(-2,0)(2,0)(2,0)", "(-2,0)(2,0)(-2,0)(2,0)"],
    "equiv_same": ["equiv", "(-2,0)(-2,0)(2,2)(2,0)", "U(1,2);H(1,2)"],
    "enumerate_three": ["enumerate", "--circles", "3"],
    "eval_circle_steps": ["eval", "U(1,2);H(1,2)", "--monoid", "prime", "--steps", "--show-state"],
    "eval_hump_count": ["eval", "U(1,2);U(3,3);H(3,4);H(1,2)", "--monoid", "count"],
    "eval_open_word": ["eval", "H(3,3);H(1,2)", "--monoid", "count", "--show-state"],
    "selftest_small": ["selftest", "--seed", "7", "--trials", "25"],
}


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name):
    code, out, err = run(CASES[name])
    blob = f"argv: {' '.join(CASES[name])}\nexit: {code}\n--- stdout ---\n{out}--- stderr ---\n{err}"
    expected = (GOLDEN / f"{name}.txt").read_text()
    assert blob == expected


def test_selftest_reproducible():
    first = run(["selftest", "--seed", "11", "--trials", "30"])
    second = run(["selftest", "--seed", "11", "--trials", "30"])
    assert first == second
    assert first[0] == 0


def test_selftest_seeds_differ():
    a = run(["selftest", "--seed", "1", "--trials", "10"])
    b = run(["selftest", "--seed", "2", "--trials", "10"])
    assert a[0] == b[0] == 0  # same verdict, different sampled checks


def test_selftest_checks_survive_optimize():
    # `python -O` strips assert statements; a broken codec must still
    # fail its suite there.
    script = (
        "import sys\n"
        "from tanglekit import cli, words\n"
        "words.encode = lambda word: ((2, 0),)\n"
        "sys.exit(cli.main(['selftest', '--seed', '3', '--trials', '20']))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2
    assert "suite codec-roundtrip FAIL ()\n" in proc.stdout
    assert proc.stdout.endswith("seed 3 trials 20: 1 FAILED\n")


def test_one_parser_keeps_no_options_between_calls():
    # Every main call parses with the same parser object, so an option
    # given to one call must not carry over to the next.
    assert build_parser() is build_parser()
    word = CASES["normalize_trace"][-1]
    code, traced, _ = run(["normalize", "--trace", word])
    assert code == 0 and traced.count("\n") > 1
    assert run(["normalize", word]) == (0, traced.splitlines(keepends=True)[-1], "")


def two_level_main(argv):
    """main as a two-level argparse parse runs a call: the top-level
    parser reads the command name and runs that command's parser on the
    rest, then args.func runs.  The specification of main's one parse."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return cli.EXIT_OK if exc.code == 0 else cli.EXIT_INVALID
    try:
        cli._read_stdin_words(args)
        return args.func(args)
    except InternalInvariantError as exc:
        print(f"INTERNAL: {exc}", file=sys.stderr)
        return cli.EXIT_INTERNAL
    except ResourceLimitError as exc:
        print(f"LIMIT: {exc}", file=sys.stderr)
        return cli.EXIT_LIMIT
    except ValueError as exc:
        print(f"ERROR: {exc}", file=sys.stderr)
        return cli.EXIT_INVALID


CIRCLE_TEXT = "(-2,0)(2,0)"
COMMANDS = ("validate", "normalize", "invariant", "equiv", "enumerate", "eval", "selftest")
# (argv, stdin) of calls that parse, fail to parse, or ask for help.
ARGV = {
    "no_arguments": ([], ""),
    "help": (["--help"], ""),
    "help_before_a_command": (["-h", "validate"], ""),
    "command_help": (["validate", "-h"], ""),
    "unknown_command": (["frobnicate", CIRCLE_TEXT], ""),
    "missing_positional": (["equiv", CIRCLE_TEXT], ""),
    "extra_positional": (["validate", CIRCLE_TEXT, "(2,0)", "x"], ""),
    "extra_option": (["validate", CIRCLE_TEXT, "--trace"], ""),
    "option_with_equals": (["normalize", "--max-steps=3", "(-2,0)(-2,0)(2,2)(2,0)"], ""),
    "abbreviated_option": (["normalize", "--max", "3", "(-2,0)(-2,0)(2,2)(2,0)"], ""),
    "abbreviated_choice_option": (["invariant", CIRCLE_TEXT, "--mon", "count"], ""),
    "bad_choice": (["invariant", CIRCLE_TEXT, "--monoid", "sum"], ""),
    "double_dash_before_a_word": (["validate", "--", CIRCLE_TEXT], ""),
    "option_before_the_positionals": (["normalize", "--trace", "(-2,0)(-2,0)(2,2)(2,0)"], ""),
    "option_before_the_command": (["--trace", "normalize", CIRCLE_TEXT], ""),
    "stdin_word": (["equiv", "-", "U(1,2);H(1,2)"], CIRCLE_TEXT + "\n"),
    "bad_word": (["validate", "(2,1)"], ""),
    "required_option_missing": (["enumerate"], ""),
}


def recorded_run(monkeypatch, call, argv, stdin):
    """(exit code, stdout, stderr, parsed namespace or None) of call(argv).
    The namespace leaves out args.command: only the top-level parser sets
    it, and nothing in tanglekit reads it."""
    seen = []
    read = cli._read_stdin_words

    def recording(args):
        read(args)
        seen.append({k: v for k, v in vars(args).items() if k != "command"})

    monkeypatch.setattr(cli, "_read_stdin_words", recording)
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = call(list(argv))
    return code, out.getvalue(), err.getvalue(), seen[0] if seen else None


@pytest.mark.parametrize("name", sorted(ARGV))
def test_one_parse_answers_as_the_two_level_parse(monkeypatch, name):
    argv, stdin = ARGV[name]
    expected = recorded_run(monkeypatch, two_level_main, argv, stdin)
    assert recorded_run(monkeypatch, main, argv, stdin) == expected


@pytest.mark.parametrize("name", sorted(ARGV))
def test_a_command_is_parsed_by_its_own_parser_alone(monkeypatch, name):
    # The top-level parser runs only for a call that does not start with
    # a command name; for one that does, the command's parser reads the
    # rest and the top-level parser only reports leftovers.
    argv, stdin = ARGV[name]

    def refuse(*_):
        raise RuntimeError("the top-level parser ran")

    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    monkeypatch.setattr(build_parser(), "parse_known_args", refuse)
    if argv and argv[0] in COMMANDS:
        run(argv)
    else:
        with pytest.raises(RuntimeError, match="^the top-level parser ran$"):
            run(argv)


def test_every_command_has_its_own_parser():
    build_parser()
    assert {name: parser.prog for name, parser in cli._COMMANDS.items()} == {
        name: f"tanglekit {name}" for name in COMMANDS}


def test_selftest_defaults():
    args = build_parser().parse_args(["selftest"])
    assert (args.seed, args.trials) == (0, 200)


def test_main_reads_the_process_arguments(monkeypatch):
    monkeypatch.setattr(sys, "argv", ["tanglekit", "validate", CIRCLE_TEXT])
    assert run(None) == (0, "VALID 2 symbols\n", "")


class TestExitCodes:
    def test_parse_error_is_one(self):
        code, _, err = run(["normalize", "(2,1)"])
        assert code == 1 and "symbol 1" in err

    @pytest.mark.parametrize("word, where", [
        ("(N,0)(2,0)", "symbol 1"), ("U(1,2);H(1,N)", "generator 2"),
    ])
    def test_over_long_number_is_a_parse_error(self, word, where):
        code, out, err = run(["validate", word.replace("N", "2" * 5000)])
        assert (code, out) == (1, "") and err.startswith(f"ERROR: {where}: ")

    def test_arity_error_is_one(self):
        code, _, err = run(["validate", "U(3,3);H(1,2)"])
        assert code == 1 and "position 1" in err

    def test_unknown_command_is_one(self):
        code, _, _ = run(["frobnicate"])
        assert code == 1

    def test_missing_args_is_one(self):
        code, _, _ = run(["equiv", "(-2,0)(2,0)"])
        assert code == 1

    def test_enumerate_range_is_one(self):
        code, _, err = run(["enumerate", "--circles", "9"])
        assert code == 1 and "0..8" in err

    def test_watchdog_is_three(self):
        code, out, err = run(
            ["normalize", "--max-steps", "0", "(-2,0)(-2,0)(2,2)(2,0)"]
        )
        assert code == 3 and out == ""
        assert err == "LIMIT: rewrite watchdog tripped after 0 rewrites\n"

    def test_negative_max_steps_is_one(self):
        code, _, err = run(["normalize", "--max-steps", "-1", "(-2,0)(2,0)"])
        assert code == 1 and err == "ERROR: --max-steps must be >= 0, got -1\n"

    def test_generator_word_prints_its_widths(self):
        assert run(["validate", "H(1,2)"]) == (0, "VALID 1 generators hom(0,2)\n", "")

    def test_zero_trials_is_zero(self):
        code, out, _ = run(["selftest", "--trials", "0"])
        assert code == 0 and out.endswith("seed 0 trials 0: ALL PASS\n")

    def test_negative_trials_is_one(self):
        code, out, err = run(["selftest", "--trials", "-1"])
        assert code == 1 and out == ""
        assert err == "ERROR: --trials must be >= 0, got -1\n"

    def test_non_ascii_digit_symbol_is_one(self):
        code, out, err = run(["validate", "(-2,\u0660)(2,\u0660)"])
        assert code == 1 and out == "" and "symbol 1: bad token" in err

    def test_non_ascii_digit_generator_is_one(self):
        code, out, err = run(["validate", "U(\u0661,\u0662);H(\u0661,\u0662)"])
        assert code == 1 and out == "" and "generator 1: bad token" in err

    def test_prime_index_past_table_is_three(self):
        code, out, err = run(["equiv", AROUND_21, AROUND_21])
        assert code == 3 and out == ""
        assert err == "LIMIT: prime index 2097152 exceeds the table limit 1000000\n"

    def test_bad_second_word_wins_over_prime_limit(self):
        code, out, err = run(["equiv", AROUND_21, "(2,0)"])
        assert code == 1 and out == ""
        assert err == "ERROR: symbol 1: (2,0) violates the validity condition\n"
        code, out, err = run(["equiv", AROUND_21, "U(3,2);H(1,2)"])
        assert code == 1 and out == ""
        assert err == ("ERROR: arity mismatch at position 1: U(3,2) expects width 5, "
                       "incoming width is 3\n")
        code, out, err = run(["equiv", nest(12), "H(1,2)"])
        assert code == 1 and out == ""
        assert err == "ERROR: word is not closed: final width 3\n"

    def test_depth_twelve_invariant_is_three(self):
        code, out, err = run(["invariant", nest(12)])
        assert code == 3 and out == ""
        assert err == "LIMIT: prime index 9737333 exceeds the table limit 1000000\n"

    def test_thousand_circles_side_by_side_answer(self):
        # Already normal, yet past normalize's 10**6 rewrites to find
        # out; invariant reads the forest off the sweep instead.
        code, out, err = run(["invariant", "--monoid", "count", "(-2,0)(2,0)" * 1000])
        assert (code, out, err) == (0, "count operator 1000\ncount recursive 1000\nAGREE\n", "")

    def test_depth_eleven_equiv_answers(self):
        code, out, _ = run(["equiv", nest(11), nest(11)])
        assert code == 0 and out == "EQUIVALENT 9737333 9737333\n"

    def test_value_past_the_int_str_limit_is_printed_in_hex(self):
        # 620 depth-11 towers side by side have the value 9737333**620,
        # 4,340 digits: past Python's int-to-str limit, not bad input.
        word = nest(11) * 620
        value = hex(9737333**620)
        code, out, err = run(["equiv", word, word])
        assert (code, out, err) == (0, f"EQUIVALENT {value} {value}\n", "")
        code, out, err = run(["eval", word, "--monoid", "prime"])
        assert (code, out, err) == (0, f"width 1 values ({value})\n", "")

    def test_broken_rewrite_is_two(self, monkeypatch):
        # normalize checks the new symbols of each rewrite; a rewrite that
        # breaks the validity condition is a bug, not bad input
        loop = rewriting._rewrites

        def bent(cs, ds):
            ds[2] = 100  # (-2,0)(-2,100) at pair 1: R4 writes (-2,98) where |d| <= 2
            return loop(cs, ds)

        monkeypatch.setattr(rewriting, "_rewrites", bent)
        code, out, err = run(["normalize", "(-2,0)(-2,0)(-2,2)(2,2)(2,2)(2,0)"])
        assert (code, out, err) == (2, "", "INTERNAL: rewrite R4 broke the validity condition\n")

    def test_live_strands_in_invariant_are_two(self, monkeypatch):
        # invariant reads its forest off the sweep; to_forest's own
        # "unbalanced word" raise is pinned in tests/test_rewriting.py.
        monkeypatch.setattr(oracle, "closed_slots", lambda word: words.slots(word, 1)[:-1])
        code, out, err = run(["invariant", "(-2,0)(2,0)"])
        assert (code, out, err) == (2, "", "INTERNAL: sweep ended with live strands on a closed word\n")

    def test_live_strands_fail_selftest_with_two(self, monkeypatch):
        # selftest reports a crashed suite itself, on stdout
        monkeypatch.setattr(oracle, "closed_slots", lambda word: words.slots(word, 1)[:-1])
        code, out, err = run(["selftest", "--seed", "3", "--trials", "5"])
        assert code == 2 and err == ""
        assert "suite normalize-oracle FAIL (sweep ended with live strands on a closed word)\n" in out

    def test_enumerate_collision_is_two(self, monkeypatch):
        # The count monoid gives (()) and ()() the same value 2: a
        # collision is reported as a failed check, not raised.
        monkeypatch.setattr(oracle, "prime_monoid", lomonoid.count_monoid)
        code, out, err = run(["enumerate", "--circles", "2"])
        assert (code, err) == (2, "")
        assert out == ("- 0 0\n() 1 1\n(()) 2 2\n()() 2 2\nCOLLISION (()) ()() 2\n"
                       "total 4 forests up to 2 circles, 1 collisions\n")
        code, out, _ = run(["selftest", "--seed", "3", "--trials", "5"])
        assert code == 2 and "suite completeness FAIL ()\n" in out

    def test_failed_axiom_fails_selftest_with_two(self, monkeypatch):
        count = lomonoid.count_monoid
        monkeypatch.setattr(cli, "count_monoid",
                            lambda: dataclasses.replace(count(), oplus=lambda a, b: a - b))
        code, out, _ = run(["selftest", "--seed", "3", "--trials", "5"])
        assert code == 2
        assert out.startswith("suite monoid-axioms FAIL (count: ('M1', (249523, 621429, 570665)))\n")

    def test_sweep_disagreement_fails_selftest_with_two(self, monkeypatch):
        monkeypatch.setattr(oracle, "trace_diagram", lambda word: ())
        code, out, _ = run(["selftest", "--seed", "3", "--trials", "5"])
        assert code == 2
        assert "suite normalize-oracle FAIL ((-2,0)(2,0)(-2,0)(-2,0)(2,2)(-2,-2)(2,2)(2,0))\n" in out

    def test_help_is_zero(self):
        code, _, _ = run(["--help"])
        assert code == 0


class TestEvalErrors:
    def test_open_word_needs_width_one_start(self):
        code, _, err = run(["eval", "U(3,3)", "--monoid", "count"])
        assert code == 1 and "arity mismatch" in err

    def test_steps_report_position(self):
        code, _, err = run(["eval", "U(3,3)", "--monoid", "count", "--steps"])
        assert code == 1 and "position 1" in err

    @pytest.mark.parametrize("word", ["U(1,2)", "(2,0)"])
    def test_steps_refuse_before_printing(self, word):
        code, out, err = run(["eval", word, "--steps"])
        assert code == 1 and out == "" and err.startswith("ERROR: ")


class TestEvalPath:
    def test_without_steps_runs_eval_word(self, monkeypatch):
        # only --steps walks the word one state per generator
        def walk(*_):
            raise AssertionError("eval_steps ran without --steps")

        monkeypatch.setattr(cli, "eval_steps", walk)
        code, out, _ = run(["eval", "U(1,2);U(3,3);H(3,4);H(1,2)", "--monoid", "count"])
        assert (code, out) == (0, "width 1 values (1)\n")

    def test_symbol_word_builds_no_generator(self, monkeypatch):
        # without --steps a symbol word is evaluated as it is, not decoded
        built = []
        plain_post_init = Generator.__post_init__

        def counting_post_init(self):
            built.append(self)
            plain_post_init(self)

        monkeypatch.setattr(Generator, "__post_init__", counting_post_init)
        code, _, _ = run(["eval", "(-2,0)(-2,0)(2,2)(2,0)", "--monoid", "count"])
        assert code == 0 and built == []

    def test_symbol_word_prints_its_generator_golden(self):
        # the hump written as symbols answers as eval_hump_count's generator word
        code, out, err = run(["eval", "(-2,0)(-2,0)(2,2)(2,0)", "--monoid", "count"])
        golden = (GOLDEN / "eval_hump_count.txt").read_text()
        assert f"exit: {code}\n--- stdout ---\n{out}--- stderr ---\n{err}" == golden.split("\n", 1)[1]


class TestStdinWords:
    """A word argument `-` reads the word from stdin, one line per `-`."""

    @staticmethod
    def run_with_stdin(monkeypatch, argv, text):
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        return run(argv)

    @pytest.mark.parametrize("name", [
        "validate_gen_ok", "normalize_trace", "invariant_nested_prime", "eval_circle_steps",
    ])
    def test_answers_as_the_argument(self, monkeypatch, name):
        argv = CASES[name]
        at = next(i for i, arg in enumerate(argv) if arg[0] in "(UH")
        piped = [*argv[:at], "-", *argv[at + 1:]]
        assert self.run_with_stdin(monkeypatch, piped, argv[at] + "\n") == run(argv)

    def test_equiv_takes_the_first_and_the_second_line(self, monkeypatch):
        _, word_a, word_b = CASES["equiv_same"]
        expected = run(CASES["equiv_same"])
        assert expected[1].startswith("EQUIVALENT")
        text = f"{word_a}\n{word_b}\n"
        assert self.run_with_stdin(monkeypatch, ["equiv", "-", "-"], text) == expected
        assert self.run_with_stdin(monkeypatch, ["equiv", word_a, "-"], word_b) == expected

    @pytest.mark.parametrize("argv, text, lines", [
        (["equiv", "-", "-"], "(-2,0)(2,0)\n", 1),
        (["normalize", "-"], "", 0),
        (["normalize", "-"], "(-2,0)(2,0)\n(-2,0)(2,0)\n", 2),
    ])
    def test_one_line_per_dash(self, monkeypatch, argv, text, lines):
        need = argv.count("-")
        assert self.run_with_stdin(monkeypatch, argv, text) == (
            1, "", f"ERROR: stdin holds {lines} line(s); the word arguments '-' need {need}\n")

    def test_a_word_past_the_argument_limit(self):
        # Linux refuses one argument of 131,072 bytes or more; stdin has
        # no such limit.
        word = nest(12_000)
        assert len(word) > 131_072
        proc = TestModuleEntryPoint().tanglekit(
            "invariant", "--monoid", "count", "-", stdin=word + "\n")
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            0, "count operator 12000\ncount recursive 12000\nAGREE\n", "")


class TestModuleEntryPoint:
    """`python -m tanglekit` runs cli.console_main in a fresh interpreter."""

    module = "tanglekit"

    def tanglekit(self, *argv, stdin=None):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        return subprocess.run([sys.executable, "-m", self.module, *argv], input=stdin,
                              capture_output=True, text=True, env=env, timeout=60)

    def test_validate(self):
        proc = self.tanglekit("validate", "(-2,0)(2,0)")
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "VALID 2 symbols\n", "")

    def test_limit_exit_code(self):
        proc = self.tanglekit("equiv", AROUND_21, AROUND_21)
        assert proc.returncode == 3 and proc.stdout == ""
        assert proc.stderr == "LIMIT: prime index 2097152 exceeds the table limit 1000000\n"


class TestCliModuleEntryPoint(TestModuleEntryPoint):
    """`python -m tanglekit.cli` runs the same entry point."""

    module = "tanglekit.cli"
