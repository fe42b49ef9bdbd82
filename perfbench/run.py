"""Benchmark of vertexalg: time to reach its verdicts, end to end and per layer.

    python3 perfbench/run.py --workload verdicts --seed 1 --seconds 30 --trace 0

Generates the workload's cases from the seed, then runs passes over the whole
case list until --seconds have been used.  Each worker process sets up once,
as a CLI process does, and runs PASSES_PER_PROCESS passes, each in a child
forked after set-up.  Every case is checked against its known answer.  With
--trace 0 it reports the end-to-end metrics; with --trace 1 it alternates
untraced and traced workers and reports the per-layer metrics, the tracing
overhead, and checks that tracing changed no verdict and that the counts of
every traced pass are identical.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

Each case's time is its best over the passes of the run.  The host runs at
about half speed most of the time and at full speed in short stretches; the
best time per case is the one timed inside such a stretch, where a median
over passes moved by up to 40% between runs.  Set-up is timed in steps
(start-up and import, then each step of the workload's own set-up), and
set-up time is the sum of each step's best over the worker processes.  Peak
memory is the median over the passes.

The host also has slow phases of minutes, in which even the best times are
up to half again as long.  So each end-to-end time is scaled to a fixed host
speed: after every pass the worker times a fixed reference computation that
calls no vertexalg code, and the times are multiplied by REFERENCE_S over the
reference's best time in the run.  The times as measured are printed too.
"""

from __future__ import annotations

import argparse
import compileall
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER_TIMEOUT_S = 60
PASSES_PER_PROCESS = 5

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "case_p50_ms": "ms",
                    "case_tail_ms": "ms", "peak_rss_mb": "MB"}
# end-to-end times are reported at the host speed where the worker's
# `reference` takes this long at best (about its best on the 2-vCPU VM of
# DESIGN.md)
REFERENCE_S = 0.003


class BenchError(Exception):
    pass


def run_worker(job: dict) -> tuple[list[float], dict]:
    """Run one worker; return (seconds of each set-up step, its result)."""
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run([sys.executable, str(HERE / "worker.py")],
                          input=json.dumps(job), capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    marks = [spawned, *result["setup_marks"]]
    return [b - a for a, b in zip(marks, marks[1:])], result


def best_times(samples: list[list[float]]) -> list[float]:
    """Each step's shortest time over the samples."""
    return [min(times) for times in zip(*samples)]


def tail_rank(count: int) -> int:
    """Index in the sorted case times with TAIL_BEYOND cases beyond it."""
    return count - 1 - workloads.TAIL_BEYOND


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    cases = workloads.generate(workload, seed)
    spans_dir = ROOT / ".perfbench"
    spans_dir.mkdir(exist_ok=True)
    base = {"workload": workload, "cases": cases, "passes": PASSES_PER_PROCESS,
            "spans_path": str(spans_dir / f"{workload}-seed{seed}.spans.jsonl")}
    # cold bytecode compilation is not what a user pays on each run
    compileall.compile_dir(ROOT / "src", quiet=1)
    compileall.compile_dir(HERE, quiet=1)

    setups, passes, traced = [], [], []
    references = []
    started = time.perf_counter()
    while True:
        traced_worker = trace and len(passes) > len(traced)
        t0 = time.perf_counter()
        setup, result = run_worker({**base, "trace": traced_worker})
        (traced if traced_worker else passes).extend(result["passes"])
        references += result["reference_s"]
        if not traced_worker:
            setups.append(setup)
        spent = time.perf_counter() - started
        minimum = not passes or (trace and not traced)
        if not minimum and spent + (time.perf_counter() - t0) > seconds:
            break

    everything = passes + traced
    attempted = sum(len(p["case_s"]) for p in everything)
    failed = sum(len(p["failures"]) for p in everything)
    consistent = all(p["verdicts"] == everything[0]["verdicts"] for p in everything)
    for p in everything:
        for failure in p["failures"][:3]:
            print(f"FAILED: {json.dumps(failure)}", file=sys.stderr)
    if not consistent:
        print("FAILED: verdicts differ between passes", file=sys.stderr)

    rank = tail_rank(len(cases))
    best = best_times([p["case_s"] for p in passes])
    summary = {
        "passes": len(passes), "traced_passes": len(traced), "cases": len(cases),
        "tail_percentile": 100 * (rank + 1) / len(cases),
        "failed_ratio": failed / attempted,
        "median_pass_s": statistics.median(p["wall_s"] for p in passes),
        "reference_s": min(references),
        "measured_wall_s": sum(best),
    }
    if not trace:
        speed = REFERENCE_S / summary["reference_s"]
        values = {
            "setup_s": speed * sum(best_times(setups)),
            "wall_s": speed * sum(best),
            "case_p50_ms": speed * 1000 * statistics.median(best),
            "case_tail_ms": speed * 1000 * sorted(best)[rank],
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    else:
        first = traced[0]["layers"]
        repeat = all({k: p["layers"][k] for k in tracing.EXACT}
                     == {k: first[k] for k in tracing.EXACT} for p in traced)
        if not repeat:
            print("FAILED: counts differ between traced passes", file=sys.stderr)
        consistent = consistent and repeat
        metrics = {}
        for name, unit in tracing.PER_LAYER_UNITS.items():
            value = first[name] if name in tracing.EXACT else min(
                p["layers"][name] for p in traced)
            metrics[name] = {"value": value, "unit": unit}
        metrics["trace.overhead_s"] = {
            "value": sum(best_times([p["case_s"] for p in traced])) - sum(best), "unit": "s"}
    return {"summary": summary,
            "result": {"correct": failed == 0 and consistent, "attempted": attempted,
                       "failed": failed, "metrics": metrics}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "vertexalg" / "__init__.py").is_file():
        print(f"error: no vertexalg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    summary, result = out["summary"], out["result"]
    print(f"workload {args.workload}  seed {args.seed}  passes {summary['passes']}"
          f" untraced, {summary['traced_passes']} traced  cases/pass {summary['cases']}")
    for name, metric in result["metrics"].items():
        print(f"  {name:40s} {metric['value']:14.6f} {metric['unit']}")
    print(f"  {'failed_ratio':40s} {summary['failed_ratio']:14.6f} ratio"
          f"  ({result['failed']} of {result['attempted']} cases)")
    print(f"  {'median untraced pass':40s} {summary['median_pass_s']:14.6f} s")
    print(f"  {'reference, best':40s} {summary['reference_s']:14.6f} s")
    print(f"  {'wall_s as measured':40s} {summary['measured_wall_s']:14.6f} s")
    if not args.trace:
        print(f"  case_tail_ms is the {summary['tail_percentile']:.1f}th percentile of"
              f" {summary['cases']} cases per pass ({workloads.TAIL_BEYOND} beyond it)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
