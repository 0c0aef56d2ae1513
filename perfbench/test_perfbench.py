"""Tests of the benchmark's own arithmetic, generators and tracer.

Run with ``python3 -m pytest perfbench``.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import hitomezashi as hz  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import (LAYER_METRICS, TRACER, Overhead, Tracer,  # noqa: E402
                    covered, self_times)


# --- self-time arithmetic ---

@pytest.mark.parametrize("intervals, expected", [
    ([], 0.0),
    ([(1, 2), (4, 6)], 3.0),          # disjoint
    ([(1, 4), (3, 6)], 5.0),          # overlapping
    ([(1, 6), (2, 3)], 5.0),          # nested
    ([(-2, 1), (9, 12)], 2.0),        # clipped to [0, 10]
    ([(3, 5), (3, 5)], 2.0),          # repeated
])
def test_covered_length(intervals, expected):
    assert covered(intervals, 0.0, 10.0) == pytest.approx(expected)


def test_self_time_subtracts_direct_children_only():
    spans = [
        ("job", 0.0, 10.0, -1, 0),
        ("a", 1.0, 4.0, 0, 0),
        ("b", 3.0, 6.0, 0, 0),       # overlaps its sibling
        ("c", 1.5, 2.0, 1, 0),       # grandchild of the job
        ("d", 8.0, 9.0, -1, 1),      # another job's root
    ]
    assert self_times(spans) == pytest.approx([5.0, 2.5, 3.0, 0.5, 1.0])


def test_self_time_takes_off_the_tracer_overhead():
    spans = [
        ("job", 0.0, 10.0, -1, 0),
        ("a", 1.0, 4.0, 0, 0),
        (TRACER, 4.0, 4.5, 0, 0),    # counting after "a" returned
        ("b", 2.0, 3.0, 1, 0),
    ]
    overhead = Overhead(inner=0.1, outer=0.2, counting=0.05)
    assert self_times(spans, overhead) == pytest.approx(
        [10 - 3.5 - 0.2 - 0.05 - 0.1, 3 - 1 - 0.2 - 0.1, 0.5, 1 - 0.1])


def test_calibration_leaves_no_spans_or_counts():
    tracer = Tracer()
    tracer.calibrate()
    assert tracer.spans == [] and dict(tracer.counts) == {}
    assert 0 < tracer.overhead.inner < 1e-4
    assert 0 < tracer.overhead.outer < 1e-4


def test_layer_metrics_are_self_times_per_job():
    tracer = Tracer()
    tracer.spans[:] = [("job", 0.0, 4.0, -1, 0),
                       ("loops.analyze_s", 0.0, 3.0, 0, 0),
                       ("loops.trace_s", 1.0, 2.0, 1, 0),
                       ("job", 5.0, 6.0, -1, 1)]
    tracer.jobs = 2
    tracer.counts.update({"loops.cycles": 4, "loops.canon_calls": 2})
    metrics = tracer.layer_metrics(overhead_ratio=1.25)
    assert metrics["loops.analyze_s"] == pytest.approx(1.0)
    assert metrics["loops.trace_s"] == pytest.approx(0.5)
    assert metrics["loops.cycles"] == 2
    assert metrics["loops.canon_per_cycle"] == 0.5
    assert metrics["trace.overhead_ratio"] == 1.25
    assert set(metrics) == {name for name, _ in LAYER_METRICS}


# --- tracer ---

def test_tracer_records_nested_spans_and_restores_originals():
    originals = (hz.loops.analyze_grid, hz.cli.analyze_grid,
                 hz.tiles.largest_loop, hz.registry.largest_loop,
                 hz.Polyomino.__dict__["canonical_form"],
                 hz.StitchGrid.__dict__["dual"])
    tracer = Tracer()
    grid = hz.build_grid(hz.PatternSpec("t", hz.WordProgram.parse("0110"),
                                        hz.WordProgram.parse("011"), 12, 12))
    tracer.begin_job()
    try:
        report = hz.cli.analyze_grid(grid)
        grid.dual()
    finally:
        tracer.end_job()
    assert (hz.loops.analyze_grid, hz.cli.analyze_grid,
            hz.tiles.largest_loop, hz.registry.largest_loop,
            hz.Polyomino.__dict__["canonical_form"],
            hz.StitchGrid.__dict__["dual"]) == originals

    names = [span[0] for span in tracer.spans]
    analyze = names.index("loops.analyze_s")
    for name in ("loops.trace_s", "loops.fill_s", "loops.canon_s",
                 "loops.color_s"):
        assert tracer.spans[names.index(name)][3] == analyze
    assert tracer.spans[analyze][3] == names.index("job")
    assert "grid.dual_s" in names
    assert tracer.counts["loops.cycles"] == len(report["loops"])
    assert tracer.counts["loops.canon_calls"] == len(report["loops"])
    assert tracer.counts["loops.color_cells"] == 144


def test_tracer_counts_calls_and_errors_by_layer():
    init = hz.words._Word.__dict__["__init__"]
    tracer = Tracer()
    tracer.begin_job()
    try:
        hz.BinaryWord("0110").reverse()
        with pytest.raises(ValueError):
            hz.words.pell(-1)
    finally:
        tracer.end_job()
    assert tracer.counts["words.calls"] == 2
    assert tracer.counts["words.errors"] == 1
    assert hz.words._Word.__dict__["__init__"] is init


# --- generators ---

@pytest.mark.parametrize("make", [workloads.census_inputs,
                                  workloads.render_inputs])
def test_generator_is_a_function_of_the_seed(make):
    assert make(7) == make(7)
    assert make(7) != make(8)


def test_census_inputs_cover_the_stated_mix():
    patterns = workloads.census_inputs(3)
    for start in range(0, len(patterns), 10):
        block = sorted(p.kind for p in patterns[start:start + 10])
        assert block == sorted(workloads.CENSUS_KINDS)
    for p in patterns:
        assert 16 <= p.width <= 128 and 16 <= p.height <= 128
        assert all(len(w) <= 12 for w in (p.row_word, p.col_word))
        if p.kind == "one-family":
            assert (p.rows == "") != (p.cols == "")
        if p.kind == "piecewise":
            assert ":" in p.rows


def test_render_inputs_stay_in_the_window_range():
    for p in workloads.render_inputs(3):
        assert 240 <= p.width <= 320 and 240 <= p.height <= 320


def test_self_dual_inputs_are_self_dual():
    for p in workloads.census_inputs(5):
        if p.kind == "self-dual":
            assert hz.is_self_dual(hz.BinaryWord(p.row_word),
                                   hz.BinaryWord(p.col_word)) is not None


# --- output checks agree with the library on correct outputs ---

def test_independent_arithmetic_matches_the_library():
    spec = workloads.WORKLOADS["render"].prepare
    for p in workloads.census_inputs(11)[:60]:
        grid = hz.build_grid(spec(p))
        row_bits = workloads.expand(p.rows, p.height + 1)
        col_bits = workloads.expand(p.cols, p.width + 1)
        assert row_bits == (None if grid.row_bits is None
                            else list(grid.row_bits))
        assert col_bits == (None if grid.col_bits is None
                            else list(grid.col_bits))
        assert workloads.segment_count(row_bits, col_bits, p.width,
                                       p.height) == grid.segment_count()
        coloring = hz.two_color(grid)
        matrix = [[coloring[(x, y)] for x in range(p.width)]
                  for y in range(p.height)]
        assert workloads.coloring_problems(row_bits, col_bits, p.width,
                                           p.height, matrix) == []
        matrix[1][1] ^= 1
        assert workloads.coloring_problems(row_bits, col_bits, p.width,
                                           p.height, matrix) != []


def test_checks_pass_on_real_jobs_and_catch_a_wrong_answer():
    census = workloads.WORKLOADS["census"]
    p = workloads.census_inputs(2)[0]
    results = census.job(census.prepare(p))
    assert census.check(p, results)[0] == []
    code, out, err = results[1]
    report = json.loads(out)
    report["theorems_all_hold"] = False
    broken = [results[0], (code, json.dumps(report), err), results[2]]
    assert census.check(p, broken)[0] == ["a loop congruence failed"]

    persimmon = workloads.WORKLOADS["persimmon"]
    reports = [hz.conjecture_report(n) for n in (1, 2, 3)]
    assert persimmon.check((1, 2, 3), reports)[0] == []
    reports[2]["match"] = False
    assert persimmon.check((1, 2, 3), reports)[0] != []

    render = workloads.WORKLOADS["render"]
    small = workloads.Pattern("plain", "0110", "011", "0110", "011", 20, 16)
    coloring, svg, art, dual = render.job(render.prepare(small))
    assert render.check(small, (coloring, svg, art, dual))[0] == []
    cut = svg.replace("<line ", "<!-- -->", 1)
    assert render.check(small, (coloring, cut, art, dual))[0] == \
        ["SVG stitch line count is wrong"]


# --- steadiness verdicts and the benchmark definition ---

def test_steadiness_verdicts():
    metric = [{"name": "job_s.p50", "better": "lower", "bound": 0.1}]
    steady = {"w": {"job_s.p50": [1.0, 1.01, 0.99, 1.0, 1.02]}}
    slower = {"w": {"job_s.p50": [1.2, 1.21, 1.19, 1.2, 1.22]}}
    noisy = {"w": {"job_s.p50": [0.8, 1.0, 1.2, 0.9, 1.1]}}
    assert run.steadiness(metric, steady, steady)[0]["ok"]
    assert not run.steadiness(metric, steady, slower)[0]["ok"]
    assert run.steadiness(metric, slower, steady)[0]["ok"]
    assert not run.steadiness(metric, steady, noisy)[0]["ok"]


def test_benchmark_json_lists_what_the_runs_report():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {(m["name"], m["unit"]) for m in bench["end_to_end"]} == \
        set(run.END_TO_END_UNITS.items())
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == \
        list(LAYER_METRICS)
    assert {w["name"] for w in bench["workloads"]} == \
        set(workloads.WORKLOADS)
