"""Time one set-up of the benchmark in this fresh interpreter.

    python3 perfbench/setup_probe.py MAX_PRIME_INDEX

Set-up is importing tanglekit (with its CLI) plus the warm-up: filling
the prime table up to MAX_PRIME_INDEX and one small query through every
layer.  Prints the seconds those two took; building the warm-up queries
is not counted.
"""

import sys
from pathlib import Path
from time import perf_counter


def main() -> None:
    max_index = int(sys.argv[1])
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    start = perf_counter()
    import tanglekit.cli  # noqa: F401

    imported = perf_counter() - start
    import workloads
    from tracing import NullTracer

    queries = workloads.warm_up_queries()
    start = perf_counter()
    workloads.warm_up(NullTracer(), max_index, queries)
    print(imported + perf_counter() - start)


if __name__ == "__main__":
    main()
