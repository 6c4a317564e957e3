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
    "rewriting": ("test_rewriting.py", "test_differential.py"),
}

# (module, source line stripped, mutation) -> why the mutant behaves as
# the original.  A mutation reads "old -> new", with " #k" when the same
# token occurs k > 1 times on its line.
_EVEN = "every d and every bound is even, so moving a bound by 1 changes no comparison"
_TOTAL = "a valid word's c sum to 0, so floor is 0 either way"
_FIRST = ("a valid word starts with (-2,0) and then a cap with d == 0 or a cup, "
          "which no rewrite matches at pair 0")
_LAST = "pair (-1, 0) and pair n start at the last symbol, a cap, which steps 2 to 4 never match"
_RESCAN = "the scan resumes one pair further left, at a pair it already passed, which still does not match"
EQUIVALENT = {
    ("rewriting", "pre = list(accumulate((c for c, _ in word), initial=0))", "0 -> -1"): _EVEN,
    ("rewriting", "floor = pre[-1] if pre[-1] < 0 else 0  # a cup at prefix sum p needs |d| <= floor - p",
     "1 -> 0"): _TOTAL,
    ("rewriting", "floor = pre[-1] if pre[-1] < 0 else 0  # a cup at prefix sum p needs |d| <= floor - p",
     "1 -> 2"): _TOTAL,
    ("rewriting", "floor = pre[-1] if pre[-1] < 0 else 0  # a cup at prefix sum p needs |d| <= floor - p",
     "1 -> 0 #2"): _TOTAL,
    ("rewriting", "floor = pre[-1] if pre[-1] < 0 else 0  # a cup at prefix sum p needs |d| <= floor - p",
     "< -> <="): _TOTAL,
    ("rewriting", "floor = pre[-1] if pre[-1] < 0 else 0  # a cup at prefix sum p needs |d| <= floor - p",
     "0 -> 1"): _TOTAL,
    ("rewriting", "floor = pre[-1] if pre[-1] < 0 else 0  # a cup at prefix sum p needs |d| <= floor - p",
     "0 -> -1"): _TOTAL,
    ("rewriting", "floor = pre[-1] if pre[-1] < 0 else 0  # a cup at prefix sum p needs |d| <= floor - p",
     "0 -> 1 #2"): _EVEN,
    ("rewriting", "i = 0  # step 1", "0 -> 1"): _FIRST,
    ("rewriting", "i = i - 1 if i else 0  # pairs left of i - 1 are untouched", "0 -> 1"):
        "step 1 never rewrites pair 0, so the else never runs: " + _FIRST,
    ("rewriting", "i = i - 1 if i else 0  # pairs left of i - 1 are untouched", "0 -> -1"):
        "step 1 never rewrites pair 0, so the else never runs: " + _FIRST,
    ("rewriting", "i = 0  # step 2; a same-sign swap leaves pre as it is", "0 -> -1"): _LAST,
    ("rewriting", "bound = floor - pre[i] - 2", "2 -> 1"): _EVEN,
    ("rewriting", "if abs(new_a[1]) > bound or abs(new_b[1]) > bound - 2:", "2 -> 1"): _EVEN,
    ("rewriting", "if abs(new_a[1]) > bound or abs(new_b[1]) > bound + 2:", "2 -> 3"): _EVEN,
    ("rewriting", "i = i - 1 if i else 0", "1 -> 2"): _RESCAN + "; " + _LAST,
    ("rewriting", "i = i - 1 if i else 0", "0 -> 1"):
        "a step-2 rewrite leaves its pair descending, so pair 0 need not be scanned again",
    ("rewriting", "i = i - 1 if i else 0", "0 -> -1"): _LAST,
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
    ("rewriting", "if b[0] == 2 and a[1] <= b[1] - 4:", "4 -> 3"):
        "d's are even, so k <= l - 3 and k <= l - 4 agree",
    ("rewriting", "bound = floor - pre[i4] - 2", "2 -> 1"): _EVEN,
    ("rewriting", "hi = i4 + 2 if i4 + 2 < n else n", "2 -> 3"):
        "step 3 also scans the pair after the three a step-4 rewrite touches, which holds no R1",
    ("rewriting", "hi = i4 + 2 if i4 + 2 < n else n", "2 -> 3 #2"):
        "step 3 also scans the pair after the three a step-4 rewrite touches, which holds no R1",
    ("rewriting", "hi = i4 + 2 if i4 + 2 < n else n", "2 -> 1 #2"): "hi is n either way when i4 + 2 == n",
    ("rewriting", "hi = i4 + 2 if i4 + 2 < n else n", "< -> <="): "hi is n either way when i4 + 2 == n",
    ("rewriting", "i = i4 = i4 - 1 if i4 else 0", "1 -> 2"): _RESCAN + "; " + _LAST,
    ("rewriting", "i = i4 = i4 - 1 if i4 else 0", "0 -> 1"):
        "step 4 never rewrites pair 0, so the else never runs: " + _FIRST,
    ("rewriting", "i = i4 = i4 - 1 if i4 else 0", "0 -> -1"):
        "step 4 never rewrites pair 0, so the else never runs: " + _FIRST,
    ("rewriting", "return tuple(stack[0])", "0 -> -1"): "the stack holds one list here, so [-1] is [0]",
}


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
