"""Steadiness tests for the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import calibrate  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import NullTracer, Recorder  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _traced_pass(queries):
    rec = Recorder()
    answers = [workloads.run_traced(q, rec) for q in queries]
    return answers, dict(rec.counts)


def test_same_seed_gives_same_inputs_answers_and_counters(monkeypatch):
    monkeypatch.setattr(workloads, "CLI_QUERIES", 240)  # a full pass takes 1 s to build
    for name, workload in workloads.WORKLOADS.items():
        first, first_index = workload.build(7, NullTracer())
        second, second_index = workload.build(7, NullTracer())
        assert first == second and first_index == second_index, name
        assert workload.build(8, NullTracer())[0] != first, name
    # eval-wide's rows need a prime table filled for 3 s; its small nests do not
    cheap = {
        "cli-short": lambda qs: qs[:60],
        "normalize-long": lambda qs: qs[:1],
        "eval-wide": lambda qs: sorted((q for q in qs if q.kind == "count"),
                                       key=lambda q: q.shape.symbols)[:2],
    }
    for name, pick in cheap.items():
        queries = pick(workloads.WORKLOADS[name].build(7, NullTracer())[0])
        answers, counts = _traced_pass(queries)
        assert (answers, counts) == _traced_pass(queries), name
        assert all(workloads.is_correct(q, a) for q, a in zip(queries, answers)), name
        assert answers == [workloads.run_plain(q) for q in queries], name


def test_printed_metric_names_match_benchmark_json(monkeypatch, tmp_path, capsys):
    # cli-short cut to 60 queries and one set-up probe, spans to a temporary directory
    monkeypatch.setattr(workloads, "CLI_QUERIES", 120)
    workload = workloads.WORKLOADS["cli-short"]

    def build(seed, tr):
        queries, max_index = workload.build(seed, tr)
        return queries[:60], max_index

    short = replace(workload, build=build, trace_queries=20, setup_repeats=1)
    monkeypatch.setitem(workloads.WORKLOADS, "cli-short", short)
    monkeypatch.setattr(run, "OUT", tmp_path)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        args = ["--workload", "cli-short", "--seed", "3", "--seconds", "0.3", "--trace", str(trace)]
        assert run.main(args) == 0
        result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert list(result["metrics"]) == [m["name"] for m in SPEC[key]]
        for m in SPEC[key]:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_wrong_answers_and_refusals_are_counted_not_raised(monkeypatch):
    monkeypatch.setattr(workloads, "CLI_QUERIES", 120)
    good = workloads.WORKLOADS["cli-short"].build(1, NullTracer())[0][:3]
    wrong = workloads.Query(good[0].kind, good[0].args, (0, "VALID 0 symbols\n"), good[0].shape)
    refused = workloads.Query("count", ("(2,0)(-2,0)",), 1, good[0].shape)
    outcome = run.closed_loop(workloads, [wrong, refused, *good], seconds=0.2)
    assert outcome["attempted"] >= 5
    assert outcome["failed"] == sum(1 for i in range(outcome["attempted"]) if i % 5 < 2)
    assert any("ParseError" in f for f in outcome["failures"])
    metrics = run.end_to_end(outcome, tail=50, setup=[1.0])
    assert metrics["correct_ratio"] == (outcome["attempted"] - outcome["failed"]) / outcome["attempted"]
    assert len(workloads.warm_up(NullTracer(), 1, [wrong, refused, *good])) == 2


def test_reference_time_follows_host_speed():
    ref = calibrate.REF_KERNEL_MS / 1e3
    # a kernel twice as slow as the reference halves the scale of the
    # chunks it brackets; far from a change of speed only one speed counts
    assert calibrate.scales([ref] * 12) == [1.0] * 11
    assert calibrate.scales([2 * ref] * 12) == [0.5] * 11
    mixed = calibrate.scales([ref] * 12 + [2 * ref] * 12)
    assert mixed[:6] == [1.0] * 6 and mixed[-6:] == [0.5] * 6
    clock = calibrate.RefClock(chunk_s=0.0)
    for seconds in (0.1, 0.2, 0.3):
        clock.add(seconds)
    assert len(clock.samples) == 4 and len(clock.reference()) == 3


def test_closed_forms():
    table = inputs.PrimeTable()
    # OEIS A007097, the prime tower
    assert [table.tower(d) for d in range(1, 12)] == [
        2, 3, 5, 11, 31, 127, 709, 5381, 52711, 648391, 9737333]
    forest = ((), ((),), ((), ((),)))
    row = inputs.tower_row([1, 3, 2])
    assert inputs.canon(inputs.parse_parens("(((())))")) == "(((())))"
    assert inputs.shape(row, forest, 0).peak_width == 13
    assert inputs.symbols(inputs.generators(row)) == row
    assert inputs.prime_value(forest, table)[0] == 2 * 3 * table.nth(2 * 3)
