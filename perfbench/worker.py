"""Set-up once in a fresh interpreter, then passes of a workload.

Reads a job (workload, cases, trace flag, number of passes) as JSON on stdin
and sets up, as a CLI process does before its first case.  Each pass then
runs every case once in a child forked from the set-up process, so every
pass starts from the state a fresh process has after set-up and no cache
survives from one pass to the next; set-up is paid once for all of them.
After each pass the worker times a fixed reference computation, which gives
the host's speed at that moment.  Prints one JSON line: the set-up marks, the
result of each pass and the reference times.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_REPEATS = 4


def reference() -> dict:
    """Fixed work of the kind vertexalg does: Fraction products summed into
    a dict keyed by exponent tuples.  It calls no vertexalg code."""
    a = {(i, j): Fraction(i + 1, j + 2) for i in range(6) for j in range(5)}
    b = {(i, j): Fraction(j + 1, i + 3) for i in range(5) for j in range(6)}
    out: dict = {}
    for (i, j), x in a.items():
        for (k, m), y in b.items():
            out[i + k, j + m] = out.get((i + k, j + m), 0) + x * y
    return out


def time_reference() -> list[float]:
    """Times of `reference`, with the collector off so that the size of the
    program's heap does not enter them."""
    times = []
    gc.disable()
    try:
        for _ in range(REFERENCE_REPEATS):
            t0 = time.perf_counter()
            reference()
            times.append(time.perf_counter() - t0)
    finally:
        gc.enable()
    return times


def run_pass(job: dict, state: dict, tracer) -> dict:
    """Every case once, in this process."""
    workload, cases = job["workload"], job["cases"]
    times, verdicts, failures = [], [], []
    start = time.perf_counter()
    for index, case in enumerate(cases):
        if tracer is not None:
            tracer.case = index
        t0 = time.perf_counter()
        try:
            verdict, ok = workloads.run_case(workload, state, index, case)
        except Exception as exc:  # a case that raises counts as failed
            verdict, ok = f"{type(exc).__name__}: {exc}", False
        times.append(time.perf_counter() - t0)
        verdicts.append(verdict)
        if not ok:
            failures.append({"case": case, "verdict": verdict})
    wall = time.perf_counter() - start
    result = {"wall_s": wall, "case_s": times, "verdicts": verdicts, "failures": failures,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer is not None:
        result["layers"] = tracer.metrics()
        tracer.dump(job["spans_path"])
    return result


def forked_pass(job: dict, state: dict, tracer) -> dict:
    """One pass in a forked child; waits for the child to end."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            with os.fdopen(write_fd, "w") as out:
                json.dump(run_pass(job, state, tracer), out)
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd) as pipe:
        text = pipe.read()
    _, status = os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        raise RuntimeError(f"pass exited with status {status}")
    return json.loads(text)


def main() -> int:
    job = json.load(sys.stdin)
    sys.path.insert(0, str(ROOT / "src"))
    import vertexalg.cli  # noqa: F401  (loads every layer before wrapping)
    # end of each set-up step; the last one is when the first case can run
    marks = [time.clock_gettime(time.CLOCK_MONOTONIC)]

    tracer = None
    if job["trace"]:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    state = workloads.setup(job["workload"], job["cases"],
                            lambda: marks.append(time.clock_gettime(time.CLOCK_MONOTONIC)))
    marks.append(time.clock_gettime(time.CLOCK_MONOTONIC))

    passes, references = [], []
    for _ in range(job["passes"]):
        passes.append(forked_pass(job, state, tracer))
        references += time_reference()
    print(json.dumps({"setup_marks": marks, "passes": passes,
                      "reference_s": references}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
