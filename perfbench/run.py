"""tanglekit benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py [--seed N] [--seconds S]   # every workload

One workload runs in this fresh interpreter as a closed loop with one
client: each query starts when the previous one has returned.  Inputs
and reference answers come from the seed; every answer is checked.
The loop makes whole passes over the workload's queries, so a run
times the same mix of queries however fast the machine is.
With --trace 0 the run times the queries as a user makes them and
prints the end-to-end metrics of BENCHMARK.json.  Their times are in
reference seconds (see calibrate.py): each query's wall time scaled by
the host's speed at that moment, measured by a fixed kernel between
chunks of queries, so that drift in the speed of the shared host does
not read as a change of tanglekit; the wall-clock figures are printed
above the result line.  With --trace 1 it
times the layer calls of a fixed prefix of the queries, traced and
untraced in turn, writes the spans to perfbench/out/ and prints the
per-layer metrics.  The last line of stdout is one JSON object.

Without --workload every workload runs in its own interpreter, one
after the other, and each metric is printed by name with its unit.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from calibrate import RefClock
from tracing import LAYERS, NullTracer, Recorder, loglog_slope

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"  # spans of the traced runs


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="tanglekit benchmark")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = load_spec()["run_seconds"]
    if not (SRC / "tanglekit" / "__init__.py").is_file():
        print(f"perfbench: no tanglekit sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args)
    sys.path.insert(0, str(SRC))
    import workloads  # needs tanglekit on the path

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}")
    result = run_workload(workloads, args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own interpreter; a table of its metrics."""
    status = 0
    for entry in load_spec()["workloads"]:
        name = entry["name"]
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                capture_output=True, text=True, cwd=ROOT,
            )
            lines = proc.stdout.strip().splitlines()
            if not lines or not lines[-1].startswith("{"):
                print(f"{name} trace={trace}: exit {proc.returncode}, no result\n{proc.stderr}",
                      file=sys.stderr)
                status = 1
                continue
            result = json.loads(lines[-1])
            print(f"{name} trace={trace}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for metric, value in result["metrics"].items():
                print(f"  {metric:40s} {value['value']:>16.6g} {value['unit']}")
            status |= proc.returncode or not result["correct"]
    return status


def run_workload(workloads, name: str, seed: int, seconds: float, trace: int) -> dict:
    workload = workloads.WORKLOADS[name]
    tracer = Recorder() if trace else NullTracer()
    queries, max_index = workload.build(seed, tracer)
    print_shapes(name, queries, max_index)
    setup = [] if trace else probe_setups(max_index, workload.setup_repeats)
    warm = workloads.warm_up_queries()
    warm_failures = workloads.warm_up(tracer, max_index, warm)
    # The queries and their references are the benchmark's, not the
    # library's: keep them out of the cyclic collector's full passes, whose
    # pauses they would lengthen inside timed queries.
    gc.collect()
    gc.freeze()
    if trace:
        outcome = traced_passes(workloads, queries[:workload.trace_queries], tracer, seconds)
        metrics = layer_metrics(tracer, outcome, len(warm), len(queries))
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{name}-{seed}.jsonl")
    else:
        outcome = closed_loop(workloads, queries, seconds)
        metrics = end_to_end(outcome, workload.tail, setup)
    gc.unfreeze()
    failures = warm_failures + outcome["failures"]
    for failure in failures[:5]:
        print(f"failed: {failure}")
    return {
        "correct": not failures,
        "attempted": len(warm) + outcome["attempted"],
        "failed": len(failures),
        "metrics": with_units(metrics, load_spec()["per_layer" if trace else "end_to_end"]),
    }


def passes_until(deadline: float):
    """Yield once per pass while the next pass, if as long as the last
    one, ends by the deadline; the first pass always runs."""
    while True:
        start = perf_counter()
        yield
        now = perf_counter()
        if now + (now - start) > deadline:
            return


# Wall seconds of queries between two samples of the calibration kernel.
CHUNK_S = 0.25


def closed_loop(workloads, queries, seconds: float) -> dict:
    clock = RefClock(CHUNK_S)
    failures = []
    passes = 0
    for _ in passes_until(perf_counter() + seconds):
        passes += 1
        for q in queries:
            elapsed, error = workloads.attempt(workloads.run_plain, q)
            clock.add(elapsed)
            if error:
                failures.append(error)
    latencies = clock.reference()
    print(f"wall: query_ms_p50 {statistics.median(clock.wall) * 1e3:.4f}, "
          f"queries_per_s {len(clock.wall) / sum(clock.wall):.2f}; "
          f"calibration kernel {clock.kernel_ms():.3f} ms over {len(clock.samples)} samples")
    return {"latencies": latencies, "passes": passes, "attempted": len(latencies),
            "failed": len(failures), "failures": failures}


def traced_passes(workloads, prefix, recorder, seconds: float) -> dict:
    """Passes over the same queries, each one untraced and then traced;
    counters come from the first traced pass only, so they repeat exactly
    for a seed."""
    null = NullTracer()
    totals = {"untraced": 0.0, "traced": 0.0}
    failures = []
    passes = 0
    for _ in passes_until(perf_counter() + seconds):
        for mode, tracer in (("untraced", null), ("traced", recorder)):
            for index, q in enumerate(prefix):
                tracer.query = index
                elapsed, error = workloads.attempt(workloads.run_traced, q, tracer)
                totals[mode] += elapsed
                if error:
                    failures.append(error)
        recorder.counting = False
        passes += 1
    return {
        "passes": passes,
        "queries": passes * len(prefix),
        "overhead": totals["traced"] - totals["untraced"],
        "attempted": 2 * passes * len(prefix),
        "failed": len(failures),
        "failures": failures,
    }


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def end_to_end(outcome, tail: float, setup) -> dict:
    lat = outcome["latencies"]
    correct = outcome["attempted"] - outcome["failed"]
    beyond = len(lat) - math.ceil(tail / 100 * len(lat))
    print(f"queries {len(lat)} in {outcome['passes']} passes: "
          f"query_ms_tail is p{tail}, {beyond} samples beyond it")
    print(f"setup_s samples (reference s): {' '.join(f'{s:.4f}' for s in setup)}")
    return {
        "queries_per_s": correct / sum(lat),
        "query_ms_p50": statistics.median(lat) * 1e3,
        "query_ms_tail": percentile(lat, tail) * 1e3,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "correct_ratio": correct / outcome["attempted"],
    }


def probe_setups(max_index: int, repeats: int) -> list[float]:
    """Reference seconds to import tanglekit and warm up, in each of
    `repeats` fresh interpreters, a calibration sample between each two."""
    clock = RefClock(chunk_s=0.0)
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(max_index)],
            capture_output=True, text=True, cwd=ROOT, check=True,
        )
        clock.add(float(proc.stdout.split()[-1]))
    return clock.reference()


def layer_metrics(rec, outcome, warm_queries: int, swept: int) -> dict:
    from workloads import RULES

    def mean_us(name):
        return rec.mean(name) * 1e6

    def per_work(names, scale):
        spans = [s for name in names for s in rec.durations(name)]
        work = sum(w for _, _, w in spans if w)
        return sum(d for d, _, _ in spans) / work * scale if work else 0.0

    counts = rec.counts
    normalize_q = rec.durations("rewriting.normalize", queries_only=True)
    eval_q = rec.durations("operators.eval", queries_only=True)
    self_s = rec.self_times()
    traced = outcome["queries"] + warm_queries
    m = {
        "words.parse_us": mean_us("words.parse"),
        "words.codec_us": mean_us("words.codec"),
        "rewriting.rewrites": counts["rewriting.rewrites"],
        **{f"rewriting.rewrites.{r}": counts[f"rewriting.rewrites.{r}"] for r in RULES},
        "rewriting.normalize_ms": rec.mean("rewriting.normalize") * 1e3,
        "rewriting.us_per_rewrite": per_work(["rewriting.normalize"], 1e6),
        "rewriting.forest_us": mean_us("rewriting.to_forest"),
        "rewriting.trace_symbols": counts["rewriting.trace_symbols"],
        "rewriting.growth_exponent": loglog_slope((s, d) for d, s, _ in normalize_q),
        "rewriting.rewrites_growth_exponent": loglog_slope((s, w) for _, s, w in normalize_q),
        "operators.generators": counts["operators.generators"],
        "operators.width_sum": counts["operators.width_sum"],
        "operators.peak_width": counts["operators.peak_width"],
        "operators.cap_us": mean_us("operators.cap"),
        "operators.cup_us": mean_us("operators.cup"),
        "operators.ns_per_width": per_work(["operators.cap", "operators.cup"], 1e9),
        "operators.growth_exponent": loglog_slope((s, d) for d, s, _ in eval_q),
        "primes.phi_calls": counts["primes.phi_calls"],
        "primes.phi_us": mean_us("primes.phi"),
        "primes.max_index": counts["primes.max_index"],
        "primes.fill_s": sum(d for d, _, _ in rec.durations("setup.primes_fill")),
        "invariants.value_bits": counts["invariants.value_bits"],
        "invariants.forest_value_us": mean_us("invariants.forest_value"),
        "oracle.sweep_us_per_generator": per_work(["oracle.sweep"], 1e6),
        "cli.main_us": mean_us("query.cli_main"),
    }
    for layer in LAYERS:
        # oracle sweeps run while the queries are generated, so its self time
        # is per generated query; every other layer's is per traced query
        m[f"{layer}.self_ms"] = self_s[layer] * 1e3 / (swept if layer == "oracle" else traced)
    m["trace.overhead_ms"] = outcome["overhead"] / outcome["queries"] * 1e3
    return m


def with_units(metrics: dict, declared: list) -> dict:
    """Metrics in the order and with the units BENCHMARK.json declares."""
    names = [m["name"] for m in declared]
    if sorted(names) != sorted(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(names)}")
    return {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared}


def print_shapes(name, queries, max_index) -> None:
    print(f"workload {name}: {len(queries)} queries, largest prime index needed {max_index}")
    for field in ("symbols", "peak_width", "depth", "circles", "prime_index"):
        values = sorted(getattr(q.shape, field) for q in queries)
        print(f"  {field:12s} min {values[0]:>8} median {values[len(values) // 2]:>8} max {values[-1]:>8}")


if __name__ == "__main__":
    sys.exit(main())
