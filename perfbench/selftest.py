"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks, on every workload, that:
  * an untraced run is correct and reports exactly the end-to-end metrics of
    BENCHMARK.json, each nonzero;
  * two traced runs with the same seed are correct, report exactly the
    per-layer metrics of BENCHMARK.json, and agree on every count and ratio;
and across workloads that every per-layer metric is nonzero on at least one
of them, so a wrapper that misses a binding shows up as a failure.  Last, it
copies BENCHMARK.json and the benchmark alone into a scratch directory and
checks that the benchmark fails there without printing a result.
Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7


def bench(args: list[str], cwd: Path = ROOT) -> tuple[int, str]:
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc.returncode, proc.stdout


def result_of(workload: str, trace: int) -> dict:
    code, out = bench(["--workload", workload, "--seed", str(SEED),
                       "--seconds", "1", "--trace", str(trace)])
    if code != 0:
        raise AssertionError(f"{workload} --trace {trace} exited with {code}")
    return json.loads(out.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    errors = []
    nonzero = set()
    for workload in workloads.WORKLOADS:
        plain = result_of(workload, 0)
        if not plain["correct"] or plain["failed"]:
            errors.append(f"{workload}: untraced run is not correct")
        if list(plain["metrics"]) != end_to_end:
            errors.append(f"{workload}: end-to-end metrics {list(plain['metrics'])}")
        errors += [f"{workload}: {name} is zero" for name, m in plain["metrics"].items()
                   if not m["value"]]
        first, second = result_of(workload, 1), result_of(workload, 1)
        for run in (first, second):
            if not run["correct"] or run["failed"]:
                errors.append(f"{workload}: traced run is not correct")
            if list(run["metrics"]) != per_layer:
                errors.append(f"{workload}: per-layer metrics {list(run['metrics'])}")
        for name in tracing.EXACT:
            a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
            if a != b:
                errors.append(f"{workload}: {name} differs between traced runs: {a} != {b}")
        nonzero |= {name for name, m in first["metrics"].items() if m["value"]}
        print(f"{workload}: checked", flush=True)
    errors += [f"{name} is zero on every workload" for name in per_layer
               if name not in nonzero]

    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    code, out = bench(["--workload", workloads.WORKLOADS[0], "--seed", "1",
                       "--seconds", "1", "--trace", "0"], cwd=bare)
    shutil.rmtree(bare)
    if code == 0 or out.strip():
        errors.append(f"without the sources the benchmark exited {code} and printed {out!r}")

    for error in errors:
        print(f"FAIL {error}")
    print("selftest", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
