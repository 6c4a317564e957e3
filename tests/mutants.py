"""Mutation gauge: how many small faults in one module its own tests catch.

Run by hand from the repository root, one module at a time:

    python tests/mutants.py rewriting

The tool copies src/, tests/, perfbench/, README.md and pyproject.toml
into a temporary directory and never writes the checkout.  Each mutant
changes one token of src/tanglekit/<module>.py in that copy: it flips a
comparison (< and <=, > and >=, == and !=) or moves an int literal by
+1 or -1.  For each mutant the module's own test files run with
pytest -x -q; the mutant is killed when they fail or run past a time
limit, and it survives when they pass.  The report lists every mutant
by line, marks the survivors found in EQUIVALENT, which behave exactly
as the original, lists the module's EQUIVALENT entries that match no
mutant (their line was reworded, so their reason is stale), and ends
with the score: killed over mutants that are not equivalent.  Pytest
does not collect this file.
"""

from __future__ import annotations

import io
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time
import tokenize

ROOT = pathlib.Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "perfbench", "README.md", "pyproject.toml")

FLIPS = {"<": "<=", "<=": "<", ">": ">=", ">=": ">", "==": "!=", "!=": "=="}

# The test files that are a module's own; test_<module>.py by default.
TEST_FILES = {
    "errors": ("test_cli.py",),
    "primes": ("test_invariants.py", "test_complexity.py"),
    "rewriting": ("test_rewriting.py", "test_differential.py"),
}

# (module, source line stripped, mutation) -> why the mutant behaves as
# the original.  A mutation reads "old -> new", with " #k" when the same
# token occurs k > 1 times on its line.
_EVEN = "every d and every bound is even, so moving a bound by 1 changes no comparison"
_FIRST = ("a valid word starts with (-2,0) and then a cap with d == 0 or a cup, "
          "which no rewrite matches at pair 0")
_LAST = "pair (-1, 0) and pair n start at the last symbol, a cap, which steps 2 to 4 never match"
_RESCAN = "the scan resumes one pair further left, at a pair it already passed, which still does not match"
_LABEL = "labels only name regions, so fresh labels that start or step higher give equal states"
_WALK = "random_state's walk draws another valid state of the width for the seed"
_OPENS = "a branch with opens_left at -1 can never reach opens_left == 0, so it yields no word"
_PARITY = ("slots has refused an odd d, and a symbol word's width is odd at every step, so "
           "d never meets an odd bound and an even sum halves alike after +1")
_ROSSER = "the m-th prime is below m * (log m + log log m) for m >= 6 (Rosser), so the limit has room to spare"
_ONE = "at width 1 the checks' loop finds no pair of intervals to compare"
_DESCENDING = "a step-2 rewrite leaves its pair descending, so pair 0 need not be scanned again"
EQUIVALENT = {
    ("rewriting", "pre = list(accumulate(cs, initial=0))", "0 -> -1"): _EVEN,
    ("rewriting", "i = 0  # step 1", "0 -> 1"): _FIRST,
    ("rewriting", "i = 0  # step 2; a same-sign exchange leaves cs and pre as they are", "0 -> -1"): _LAST,
    ("rewriting", "bound = -pre[i] - 2", "2 -> 1"): _EVEN,
    ("rewriting", "if not (-bound <= x <= bound and 2 - bound <= y <= bound - 2):", "2 -> 1"): _EVEN,
    ("rewriting", "if not (-bound <= x <= bound and 2 - bound <= y <= bound - 2):", "2 -> 1 #2"): _EVEN,
    ("rewriting", "if not (-bound <= x <= bound and -2 - bound <= y <= bound + 2):", "2 -> 3"): _EVEN,
    ("rewriting", "if not (-bound <= x <= bound and -2 - bound <= y <= bound + 2):", "2 -> 3 #2"): _EVEN,
    ("rewriting", "i = i - 1 if i else 0  # R4 can rewrite (-2,0)(-2,2) at pair 0", "1 -> 2"):
        _RESCAN + "; " + _LAST,
    ("rewriting", "i = i - 1 if i else 0  # R4 can rewrite (-2,0)(-2,2) at pair 0", "0 -> 1"): _DESCENDING,
    ("rewriting", "i = i - 1 if i else 0  # R4 can rewrite (-2,0)(-2,2) at pair 0", "0 -> -1"): _LAST,
    ("rewriting", "i, hi, i4 = 0, n, 0  # step 3 scans the pairs i..hi-1, step 4 resumes at i4",
     "0 -> 1"): _FIRST,
    ("rewriting", "i, hi, i4 = 0, n, 0  # step 3 scans the pairs i..hi-1, step 4 resumes at i4",
     "0 -> 1 #2"): _FIRST,
    ("rewriting", "i, hi, i4 = 0, n, 0  # step 3 scans the pairs i..hi-1, step 4 resumes at i4",
     "0 -> -1"): _LAST,
    ("rewriting", "i, hi, i4 = 0, n, 0  # step 3 scans the pairs i..hi-1, step 4 resumes at i4",
     "0 -> -1 #2"): _LAST,
    ("rewriting", "while i < hi:  # step 3", "< -> <="):
        "the extra pair is pair n, or one the last step-4 rewrite left as it was, with no R1",
    ("rewriting", "while i4 < n:  # step 4", "< -> <="): _LAST,
    ("rewriting", "if cs[i4] == -2 and cs[i4 + 1] == 2 and ds[i4] <= ds[i4 + 1] - 4:", "4 -> 3"):
        "d's are even, so k <= l - 3 and k <= l - 4 agree",
    ("rewriting", "bound = -pre[i4] - 2", "2 -> 1"): _EVEN,
    ("rewriting", "hi = i4 + 2 if i4 + 2 < n else n", "2 -> 3"):
        "step 3 also scans the pair after the three a step-4 rewrite touches, which holds no R1",
    ("rewriting", "hi = i4 + 2 if i4 + 2 < n else n", "2 -> 3 #2"):
        "step 3 also scans the pair after the three a step-4 rewrite touches, which holds no R1",
    ("rewriting", "hi = i4 + 2 if i4 + 2 < n else n", "2 -> 1 #2"): "hi is n either way when i4 + 2 == n",
    ("rewriting", "hi = i4 + 2 if i4 + 2 < n else n", "< -> <="): "hi is n either way when i4 + 2 == n",
    ("rewriting", "i = i4 = i4 - 1  # pair 0 is (-2,0) then a cup or (2,0): never a step-4 pair", "1 -> 2"):
        _RESCAN + "; " + _LAST,
    ("rewriting", "return tuple(stack[0])", "0 -> -1"): "the stack holds one list here, so [-1] is [0]",
    ("operators", "spec, fresh = start.spec, max(start.labels) + 1", "1 -> 2"): _LABEL,
    ("operators", "labels[k - 1:k - 1] = (fresh, labels[k - 2])", "1 -> 2 #2"):
        "a slice whose stop is below its start is the empty slice at its start",
    ("operators", "fresh += 1", "1 -> 2"): _LABEL,
    ("operators", "return [_run(steps, start).values[0] for steps in checked]", "0 -> -1"):
        "a closed word ends at width 1, where values[0] is values[-1]",
    ("operators", "if width < 1 or width % 2 == 0:", "1 -> 0"): "width 0 is even, so it is refused either way",
    ("oracle", "if opens_left > 0:", "> -> >="): _OPENS,
    ("oracle", "if opens_left > 0:", "0 -> -1"): _OPENS,
    ("oracle", "if not 0 <= max_circles <= 8:", "8 -> 9"):
        "at 9, enumerate_forests(9) raises the same ValueError, after the rows up to 8",
    ("boolmat", "if rows < 0 or cols < 0 or len(bits) != rows:", "0 -> -1"):
        "no bits tuple has a negative length, so rows of -1 fails len(bits) != rows",
    ("boolmat", "m = len(rows[0]) if rows else 0", "0 -> -1"):
        "every row must have the first row's length, so the last row's gives the same shape or error",
    ("states", "if n > 1:  # one interval has nothing to compare", "> -> >="): _ONE,
    ("states", "if n > 1:  # one interval has nothing to compare", "1 -> 0"): _ONE,
    ("states", "if labels[prev + 1] != labels[p - 1] and (t3 is None or prev < t3[0]):", "< -> <="):
        "each candidate's prev is another position, so no two candidates tie",
    ("states", "labels = tuple((row & -row).bit_length() - 1 for row in region.bits)", "1 -> 2"): _LABEL,
    ("states", "labels = tuple((row & -row).bit_length() - 1 for row in region.bits)", "1 -> 0"): _LABEL,
    ("states", "return TangleState(1, (0,), (spec.zero,), spec)", "0 -> 1"): _LABEL,
    ("states", "return TangleState(1, (0,), (spec.zero,), spec)", "0 -> -1"): _LABEL,
    ("words", "if c == 2 and -width < d < width:", "< -> <="): _PARITY,
    ("words", "if c == 2 and -width < d < width:", "< -> <= #2"): _PARITY,
    ("words", "steps.append((True, (d + width + 3) >> 1))", "3 -> 4"): _PARITY,
    ("words", "elif c == -2 and 2 - width < d < width - 2:", "2 -> 1 #2"): _PARITY,
    ("words", "elif c == -2 and 2 - width < d < width - 2:", "< -> <="): _PARITY,
    ("words", "elif c == -2 and 2 - width < d < width - 2:", "< -> <= #2"): _PARITY,
    ("words", "elif c == -2 and 2 - width < d < width - 2:", "2 -> 1 #3"): _PARITY,
    ("words", "steps.append((False, (d + width + 1) >> 1))", "1 -> 2"): _PARITY,
    ("words", "floor = total if total < 0 else 0", "< -> <="): "floor is 0 at total 0 either way",
    ("words", "floor = total if total < 0 else 0", "0 -> 1"): "floor is 0 at total 0 either way",
    ("words", "floor = total if total < 0 else 0", "0 -> -1"):
        ("total is -1 only with a c that is not +-2, and then the index returned is the first "
         "bad c or odd d wherever the walk stops"),
    ("words", "for s in sym[i + 1:]):", "1 -> 0"):
        "symbol i passed the form check at the top of its own iteration",
    ("words", "found = _SYM_TOKEN.findall(text, 0, end)", "0 -> -1"): "re reads a negative pos as 0",
    ("words", "can_close = q >= 2", "2 -> 1"): "q moves by 2 from 0, so it is never 1",
    ("words", "remaining = length - i - 1", "1 -> 0"):
        "q // 2 has the parity of i and remaining the other one, so q + 2 is never 2 * remaining + 2",
    ("words", "can_open = q + 2 <= 2 * remaining", "2 -> 1"):
        "q and 2 * remaining are even, so q + 1 and q + 2 compare with it alike",
    ("primes", "if n > len(_primes):", "> -> >="):
        "a fill at n == len(_primes) builds a longer table of the same primes",
    ("primes", "m = min(max(n, 2 * len(_primes)), MAX_INDEX)", "2 -> 3"):
        "a fill that triples the table gives the same primes in fewer fills",
    ("primes", "limit = int(m * (log(m) + log(log(m)))) + 1", "1 -> 2"): _ROSSER,
    ("primes", "limit = int(m * (log(m) + log(log(m)))) + 1", "1 -> 0"): _ROSSER,
    ("primes", "flags = bytearray([1]) * n", "1 -> 2"):
        "compress and the strike loop read a flag of 2 as true, like 1",
    ("primes", "for i in range(1, _rank(isqrt(limit) + 1)):", "1 -> 0"):
        "flag 0, the number 1, is cleared, so candidate 0 strikes nothing",
    ("primes", "for i in range(1, _rank(isqrt(limit) + 1)):", "1 -> 2 #2"):
        "the extra p has p * p past limit, so it crosses nothing off",
    ("primes", "for j in range(i, i + 8):  # m from p on, one class of m mod 30 each", "8 -> 9"):
        "the ninth m is p + 30, in the class of p, whose strikes from p * p already cover it",
}
# nth_prime's largest limit, 16,441,303, lies below 2**31, so none of
# these four moves of the assert's bound makes it fire.
EQUIVALENT.update({
    ("primes", "assert limit < 2**32  # so no lane's sum carries into the next", mutation):
        "the assert never fires at any limit nth_prime asks for"
    for mutation in ("< -> <=", "2 -> 3", "32 -> 33", "32 -> 31")
})
# The package's import fills the table past its six seed primes, since
# lomonoid samples the first 25, so no caller reads a seed prime.
EQUIVALENT.update({
    ("primes", '_primes = array("I", [2, 3, 5, 7, 11, 13])', f"{p} -> {p + step}"):
        "the package's import replaces the seed table before any caller reads it"
    for p in (2, 3, 5, 7, 11, 13) for step in (1, -1)
})
# random_state's walk: each of these mutants changes only which state of
# the width a seed draws, and every state it draws is valid.
EQUIVALENT.update({
    ("operators", line, mutation): _WALK
    for line, mutations in {
        "drift = rng.randrange(0, 3)": ("0 -> 1", "3 -> 4", "3 -> 2"),
        "target_peak = width + 2 * drift": ("2 -> 3", "2 -> 1"),
        "while state.n < target_peak:": ("< -> <=",),
        "if rng.randrange(4) == 0:": ("4 -> 5", "4 -> 3", "== -> !=", "0 -> 1", "0 -> -1"),
        "if state.n + 2 <= target_peak and rng.randrange(3) == 0:":
            ("2 -> 3", "2 -> 1", "<= -> <", "3 -> 4", "3 -> 2", "== -> !=", "0 -> 1", "0 -> -1"),
        "state = cap(state, rng.randrange(2, state.n + 2))": ("2 -> 3", "2 -> 1 #2"),
        "if rng.randrange(5) == 0:": ("5 -> 6", "5 -> 4", "== -> !=", "0 -> 1", "0 -> -1"),
    }.items()
    for mutation in mutations
})


def mutants(source: str):
    """(line, mutation, mutated source) for every mutant of a module."""
    lines = source.splitlines(keepends=True)
    seen: dict[tuple[int, str], int] = {}
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.OP and tok.string in FLIPS:
            news = [FLIPS[tok.string]]
        elif tok.type == tokenize.NUMBER and tok.string.isdigit():
            value = int(tok.string)
            news = [str(value + 1), str(value - 1)]
        else:
            continue
        row, start = tok.start
        end = tok.end[1]
        for new in news:
            mutation = f"{tok.string} -> {new}"
            seen[row, mutation] = seen.get((row, mutation), 0) + 1
            if seen[row, mutation] > 1:
                mutation += f" #{seen[row, mutation]}"
            text = lines[row - 1]
            mutated = lines[:row - 1] + [text[:start] + new + text[end:]] + lines[row:]
            yield row, mutation, "".join(mutated)


def run_tests(root: pathlib.Path, files, timeout: float) -> tuple[bool, float]:
    """Whether the test files pass in the copy at root, and how long they took."""
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
               *(str(root / "tests" / name) for name in files)]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(root / "src"))
    started = time.perf_counter()
    try:
        done = subprocess.run(command, cwd=root, env=env, capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return False, time.perf_counter() - started
    return done.returncode == 0, time.perf_counter() - started


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python tests/mutants.py MODULE", file=sys.stderr)
        return 2
    (module,) = argv
    target = ROOT / "src" / "tanglekit" / f"{module}.py"
    files = TEST_FILES.get(module, (f"test_{module}.py",))
    original = target.read_text()
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        root = pathlib.Path(tmp)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, root / name, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy(source, root / name)
        copy = root / "src" / "tanglekit" / f"{module}.py"
        passed, seconds = run_tests(root, files, timeout=600)
        if not passed:
            print(f"{module}: the unmutated tests fail; no mutant was run", file=sys.stderr)
            return 1
        limit = 5 * seconds + 10
        killed = survived = equivalent = 0
        unmatched = {key for key in EQUIVALENT if key[0] == module}
        for row, mutation, mutated in mutants(original):
            copy.write_text(mutated)
            passed, _ = run_tests(root, files, timeout=limit)
            line = original.splitlines()[row - 1].strip()
            reason = EQUIVALENT.get((module, line, mutation))
            unmatched.discard((module, line, mutation))
            if not passed:
                killed += 1
                verdict = "killed" if reason is None else "killed, though listed as equivalent"
            elif reason is not None:
                equivalent += 1
                verdict = f"survived, equivalent: {reason}"
            else:
                survived += 1
                verdict = "SURVIVED"
            print(f"{module}:{row}: {mutation:12} {verdict}  | {line}", flush=True)
        copy.write_text(original)
    for _, line, mutation in sorted(unmatched):  # the source changed under them
        print(f"{module}: STALE equivalent entry, no such mutant: {mutation}  | {line}")
    total = killed + survived
    print(f"{module}: {killed} of {total} killed, {survived} survived, "
          f"{equivalent} equivalent not counted, {len(unmatched)} stale equivalent entries")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
