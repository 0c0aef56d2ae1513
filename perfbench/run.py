#!/usr/bin/env python3
"""Benchmark of the hitomezashi library.

Run it from anywhere; it imports the library from the ``src/`` directory
next to ``perfbench/`` and reads and writes only inside that checkout.

One run of one workload; the last line of stdout is the result, the line
before it the run's details (raw wall-clock figures, input properties,
output digest, ``fail_ratio`` and provenance)::

    python3 perfbench/run.py --workload census --seed 1 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics.  Job times are reported in
``ref`` units: each job's wall time divided by the time of a fixed reference
loop taken just before and just after it.  On a shared 2-vCPU Xeon VM
the speed of the host changed by up to 1.7x in phases of about ten seconds,
which moved wall-clock medians by 20-25% from run to run; the ratio cancels
most of that.  The raw ``job_s.p50``, ``job_s.p90`` (where at least 100
jobs ran) and ``cells_per_s`` are in the details line.

``--trace 1`` runs every job untraced and traced, reports the per-layer
metrics and writes the spans to
``.perfbench/spans-<workload>-seed<seed>.csv.gz``.

Every workload, untraced then traced, one fresh process after another,
printing every metric with its unit (``--baseline FILE`` also records them)::

    python3 perfbench/run.py all --seed 1 --baseline perfbench/baseline.json

Steadiness: two sets of ten untraced runs of this checkout on every
workload, seeds 1-10 and 11-20; reports per workload and end-to-end metric
whether each set's spread (quartile distance over median) and the second
set's median stay within the bounds in BENCHMARK.json.  Exits 1 if any does
not::

    python3 perfbench/run.py steady
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".perfbench"
# Seconds between set-up probes.  They are spread over the whole run and
# set-up time is their median, so that a slow phase of the host, which can
# last seconds, does not decide it.
PROBE_EVERY_S = 1.0
# Seeds of the two sets of runs that the steadiness check compares
STEADY_SEEDS = (range(1, 11), range(11, 21))
P90_MIN_JOBS = 100
END_TO_END_UNITS = {"setup_s": "s", "job_ref.p50": "ref",
                    "cells_per_ref": "cells/ref", "peak_rss_mb": "MB"}
# Raw wall-clock figures, reported in each run's details line
RAW_UNITS = {"job_s.p50": "s", "job_s.p90": "s", "cells_per_s": "cells/s",
             "ref_s.p50": "s"}
MAX_PROBLEMS = 5


def _benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def provenance() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "hitomezashi").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    """The checked-out commit, read from .git without running git; None
    outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def setup_once(workload: str, seed: int):
    """Make the workload's inputs and what the library receives from them."""
    import workloads

    wl = workloads.WORKLOADS[workload]
    inputs = wl.inputs(seed)
    return wl, inputs, [wl.prepare(item) for item in inputs]


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter until it has imported the
    library and made the inputs, i.e. until it could start the first job.
    The interpreter runs without ``site`` (``-S``): the library needs only
    the standard library, and the ``.pth`` files of whatever packages are
    installed are no part of its set-up."""
    command = [sys.executable, "-S", str(Path(__file__).resolve()), "probe",
               "--workload", workload, "--seed", str(seed)]
    start = time.perf_counter()
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe exited {proc.returncode}")
    return elapsed


def reference() -> int:
    """Fixed pure-Python work shaped like the library's own: tuples, sets,
    frozensets, dicts and formatted text.  Timed next to every job, it
    measures how fast the host runs Python at that moment.  Change it only
    in a change that redefines the benchmark."""
    seen, index, parts = set(), {}, []
    for i in range(1000):
        p = (i % 37, i // 37)
        index[p] = i
        seen.add(frozenset((p, (p[0] + 1, p[1]))))
        parts.append(f'<rect x="{p[0] * 20}" y="{p[1] * 20}" fill="#9db8d2"/>')
    return len(seen) + len(index) + len("\n".join(parts))


def time_reference() -> float:
    """Best of three timings of reference(), so that one interruption does
    not count."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        reference()
        best = min(best, time.perf_counter() - start)
    return best


def measure(wl, inputs, prepared, seconds: float, tracer=None,
            probe=None) -> dict:
    """Run jobs one after another until ``seconds`` have passed.

    Untraced, the reference is timed before every job and once at the end,
    and ``probe()`` is called between jobs, first before the first job and
    then once every ``PROBE_EVERY_S``.
    The untraced outputs of the first ``wl.digest_jobs`` inputs are hashed;
    every run runs at least that many.
    With a tracer, each input runs untraced and traced, in alternating
    order, and the two outputs must be identical.
    """
    times, traced_times, refs, problems, described = [], [], [], [], []
    probes = []
    next_probe = attempted = failed = 0
    digest = hashlib.sha256()
    deadline = time.perf_counter() + seconds
    i = 0
    # Past the deadline too until the digest has all its jobs, so that it
    # does not depend on speed.
    while i < wl.digest_jobs or time.perf_counter() < deadline:
        raw, item = inputs[i % len(inputs)], prepared[i % len(prepared)]
        described.append(wl.describe(raw))
        pair_output = None
        if tracer:
            modes = (False, True) if i % 2 == 0 else (True, False)
        else:
            modes = (False,)
            if probe and time.perf_counter() >= next_probe:
                probes.append(probe())
                next_probe = time.perf_counter() + PROBE_EVERY_S
            refs.append(time_reference())
        for traced in modes:
            attempted += 1
            if traced:
                tracer.begin_job()
            start = time.perf_counter()
            try:
                result, error = wl.job(item), None
            except Exception as exc:  # counted as a failed job
                result, error = None, f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
            if traced:
                tracer.end_job()
            (traced_times if traced else times).append(elapsed)
            if error is not None:
                job_problems, output = [error], b""
            else:
                job_problems, output = wl.check(raw, result)
                if traced and hasattr(wl, "cli_counts"):
                    for key, value in wl.cli_counts(result).items():
                        tracer.counts[key] += value
            if pair_output is not None and output != pair_output:
                job_problems.append("traced and untraced outputs differ")
            pair_output = output
            if job_problems:
                failed += 1
                problems.extend(job_problems[:MAX_PROBLEMS - len(problems)])
            if not traced and i < wl.digest_jobs:
                digest.update(output)
        i += 1
    if not tracer:
        refs.append(time_reference())

    kinds = Counter(kind for _, _, kind in described)
    sides = [side for _, item_sides, _ in described for side in item_sides]
    return {
        "times": times, "traced_times": traced_times, "refs": refs,
        "probes": probes,
        "attempted": attempted, "failed": failed, "problems": problems,
        "inputs": {
            "jobs": len(described),
            "cells": sum(cells for cells, _, _ in described),
            "side_min": min(sides), "side_max": max(sides),
            "share_piecewise": kinds["piecewise"] / len(described),
            "share_one_family": kinds["one-family"] / len(described),
            "share_self_dual": kinds["self-dual"] / len(described),
        },
        "outputs_sha256": digest.hexdigest(),
    }


def run_one(workload: str, seed: int, seconds: float, trace: int) -> int:
    import resource

    import workloads

    if workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {workload!r}", file=sys.stderr)
        return 2
    wl, inputs, prepared = setup_once(workload, seed)
    tracer = None
    if trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.calibrate()
    run = measure(wl, inputs, prepared, seconds, tracer,
                  None if trace else lambda: probe_setup(workload, seed))
    times, cells = run["times"], run["inputs"]["cells"]

    if tracer:
        overhead = (statistics.median(run["traced_times"])
                    / statistics.median(times))
        metrics = tracer.layer_metrics(overhead)
        units = dict(tracing.LAYER_METRICS)
        SPANS_DIR.mkdir(exist_ok=True)
        spans_file = SPANS_DIR / f"spans-{workload}-seed{seed}.csv.gz"
        tracer.write(spans_file)
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        refs = run["refs"]
        in_refs = [t / ((a + b) / 2)
                   for t, a, b in zip(times, refs, refs[1:])]
        metrics = {"setup_s": statistics.median(run["probes"]),
                   "job_ref.p50": statistics.median(in_refs),
                   "cells_per_ref": cells / sum(in_refs),
                   "peak_rss_mb": peak_kb / 1024}
        units = END_TO_END_UNITS
        spans_file = None

    details = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "jobs": len(times),
        "job_s.p50": statistics.median(times),
        "job_s.p90": (statistics.quantiles(times, n=10)[8]
                      if len(times) >= P90_MIN_JOBS else None),
        "cells_per_s": cells / sum(times),
        "ref_s.p50": statistics.median(run["refs"]) if run["refs"] else None,
        "setup_probes_s": run["probes"],
        "fail_ratio": run["failed"] / run["attempted"],
        "problems": run["problems"],
        "inputs": run["inputs"],
        "outputs_sha256": run["outputs_sha256"],
        "digest_jobs": wl.digest_jobs,
        "tracer_overhead_ns": ({k: v * 1e9 for k, v in
                                vars(tracer.overhead).items()}
                               if tracer else None),
        "spans": str(spans_file.relative_to(ROOT)) if spans_file else None,
        "provenance": provenance(),
    }
    result = {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(details, ensure_ascii=False))
    print(json.dumps(result))
    return 0


def run_child(workload: str, seed: int, seconds: float,
              trace: int) -> tuple[dict, dict]:
    """One run in a fresh process: (details, result)."""
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(command, capture_output=True, text=True,
                          timeout=600, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} trace {trace} exited "
                           f"{proc.returncode}:\n{proc.stderr}")
    details, result = proc.stdout.splitlines()[-2:]
    return json.loads(details), json.loads(result)


def run_all(seed: int, seconds: float, baseline) -> int:
    bench = _benchmark()
    recorded = {}
    print(f"{'workload':<10} {'metric':<24} {'value':>16}  unit")
    for entry in bench["workloads"]:
        name = entry["name"]
        details, untraced = run_child(name, seed, seconds, 0)
        traced_details, traced = run_child(name, seed, seconds, 1)
        if traced_details["outputs_sha256"] != details["outputs_sha256"]:
            details["problems"].append("traced run's output digest differs")
        end_to_end = dict(untraced["metrics"])
        for key, unit in RAW_UNITS.items():
            if details[key] is not None:
                end_to_end[key] = {"value": details[key], "unit": unit}
        end_to_end["fail_ratio"] = {
            "value": (untraced["failed"] + traced["failed"])
            / (untraced["attempted"] + traced["attempted"]),
            "unit": "ratio"}
        for group in (end_to_end, traced["metrics"]):
            for metric, value in group.items():
                print(f"{name:<10} {metric:<24} {value['value']:>16.6g}  "
                      f"{value['unit']}")
        print(f"{name:<10} {'(jobs)':<24} {details['jobs']:>16}  count")
        print(f"{name:<10} {'(outputs sha256)':<24} "
              f"{details['outputs_sha256'][:16]:>16}")
        for problem in details["problems"]:
            print(f"{name:<10} problem: {problem}")
        for run in (details, traced_details):
            run.pop("provenance")
        recorded[name] = {"end_to_end": end_to_end,
                          "per_layer": traced["metrics"], "run": details,
                          "traced_run": traced_details}
    if baseline:
        Path(baseline).write_text(json.dumps(
            {"provenance": provenance(), "seed": seed, "seconds": seconds,
             "workloads": recorded}, indent=2, ensure_ascii=False) + "\n")
    return 0


def spread(values) -> float:
    """Quartile distance as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def worsening(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of it."""
    change = (second - first) / first
    return change if better == "lower" else -change


def steadiness(metrics, first, second) -> list[dict]:
    """One verdict per (workload, metric).  ``first`` and ``second`` are
    {workload: {metric: [values]}}; each set's spread must stay within the
    bound and the second set's median must be no worse than the first's by
    more than the bound."""
    rows = []
    for workload in first:
        for m in metrics:
            samples = (first[workload][m["name"]],
                       second[workload][m["name"]])
            spreads = [spread(v) for v in samples]
            medians = [statistics.median(v) for v in samples]
            drift = worsening(*medians, m["better"])
            rows.append({"workload": workload, "metric": m["name"],
                         "medians": medians, "spreads": spreads,
                         "drift": drift, "bound": m["bound"],
                         "ok": max(spreads) <= m["bound"]
                         and drift <= m["bound"],
                         "tight": max(spreads) < m["bound"] / 3})
    return rows


def run_steady(seconds: float) -> int:
    bench = _benchmark()
    names = [w["name"] for w in bench["workloads"]]
    collected = [{n: defaultdict(list) for n in names} for _ in STEADY_SEEDS]
    failures = []
    for number, (seeds, values) in enumerate(zip(STEADY_SEEDS, collected),
                                             start=1):
        for seed in seeds:
            for name in names:
                _, result = run_child(name, seed, seconds, 0)
                if not result["correct"] or result["failed"]:
                    failures.append(f"{name} seed {seed}")
                for metric, value in result["metrics"].items():
                    values[name][metric].append(value["value"])
                print(f"set {number} seed {seed} {name}: " + ", ".join(
                    f"{m}={v['value']:.6g}"
                    for m, v in result["metrics"].items()),
                    file=sys.stderr, flush=True)
    rows = steadiness(bench["end_to_end"], *collected)
    print(f"{'workload':<10} {'metric':<12} {'bound':>6} "
          f"{'medians':>24} {'spreads':>16} {'drift':>7}  verdict")
    for r in rows:
        medians = " ".join(f"{v:.4g}" for v in r["medians"])
        spreads = " ".join(f"{v:.3f}" for v in r["spreads"])
        verdict = ("ok" if r["ok"] else "NOT STEADY") + \
            (", spread < bound/3" if r["tight"] else "")
        print(f"{r['workload']:<10} {r['metric']:<12} {r['bound']:>6} "
              f"{medians:>24} {spreads:>16} {r['drift']:>7.3f}  {verdict}")
    for failure in failures:
        print(f"failed run: {failure}")
    return 0 if all(r["ok"] for r in rows) and not failures else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("mode", nargs="?", default="run",
                        choices=("run", "all", "steady", "probe"))
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="measuring time per run (default: run_seconds "
                             "in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--baseline", help="all: write the results here")
    args = parser.parse_args(argv)

    if not (SRC / "hitomezashi" / "__init__.py").is_file():
        print(f"error: no hitomezashi sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.mode == "probe":
        setup_once(args.workload, args.seed)
        print("ready", flush=True)
        return 0
    seconds = args.seconds or _benchmark()["run_seconds"]
    if args.mode == "steady":
        return run_steady(seconds)
    if args.mode == "all":
        return run_all(args.seed, seconds, args.baseline)
    if not args.workload:
        parser.error("--workload is required")
    return run_one(args.workload, args.seed, seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
