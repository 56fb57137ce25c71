"""DynaBench: host-time benchmark of the DynaCut reproduction.

Usage (from the repository root)::

    python3 dynabench/run.py --workload kv-serve --seed 1 --seconds 10 --trace 0

Workloads: ``kv-serve``, ``kv-rewrite``, ``spec-profile``,
``mesh-rollout`` (see ``dynabench/README.md`` for why each exists).

``--trace 0`` runs the workload in :data:`SETUP_SAMPLES` fresh
interpreters, each set up from scratch and measured for a third of
``--seconds``, and reports the end-to-end metrics over all three:
``setup_s`` is the median set-up, the rest pool the measured cycles.
``--trace 1`` runs the workload once untraced and once with every
layer's entry points wrapped, and reports the per-layer metrics plus
the tracing overhead; spans go to ``.dynabench/spans/``.  Either way
the last line of standard output is one JSON object ``{"correct",
"attempted", "failed", "metrics"}``.  Host times are scaled to a
reference machine speed (see ``worker.SpeedMeter``); unscaled figures
are printed beside them.

A run is correct when every oracle held (no failed operation), every
interpreter of the run reached the same virtual-time digest for the
same seed, and — in spec-profile — every ``result`` line matched its
pinned value.  The program runs from ``src/`` of the checkout; without
it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOAD_NAMES = ("kv-serve", "kv-rewrite", "spec-profile", "mesh-rollout")

#: fresh-interpreter set-ups per untraced run; ``setup_s`` is their median
SETUP_SAMPLES = 3
#: a run never outlives this many seconds (children are killed past it)
RUN_DEADLINE_S = 170

#: (metric, unit) reported by ``--trace 0``, in output order
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("guest_kips", "kinsn/s"),
    ("cycle_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


class RunFailed(RuntimeError):
    """A child interpreter died, hung or printed no result."""


def run_child(args, mode: str, seconds: float,
              deadline: float) -> tuple[float, float, dict]:
    """Run one worker interpreter.

    Returns its set-up time as measured here, that time scaled to the
    reference machine speed, and the worker's result.
    """
    command = [
        sys.executable, str(WORKER), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(seconds), "--mode", mode,
    ]
    # a fixed hash seed keeps dict/set layouts, and so host time, alike
    # from one interpreter to the next
    env = dict(os.environ, PYTHONHASHSEED="0")
    started = time.perf_counter()
    child = subprocess.Popen(command, cwd=ROOT, env=env, text=True,
                             stdout=subprocess.PIPE)
    watchdog = threading.Timer(max(deadline - started, 1.0), child.kill)
    watchdog.start()
    setup_s = scaled_setup_s = None
    result = None
    try:
        for line in child.stdout:
            if line.startswith("READY ") and setup_s is None:
                setup_s = time.perf_counter() - started
                sampling_s, scale = (float(word) for word in line.split()[1:])
                scaled_setup_s = (setup_s - sampling_s) * scale
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
        status = child.wait()
    finally:
        watchdog.cancel()
        child.stdout.close()
        if child.poll() is None:
            child.kill()
            child.wait()
    if status != 0 or setup_s is None or result is None:
        raise RunFailed(f"{mode} worker for {args.workload} exited {status} "
                        "without a result")
    return setup_s, scaled_setup_s, result


def nearest_rank(values: list[float], q: float) -> tuple[float, int]:
    """The nearest-rank ``q`` quantile and how many samples lie beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def pooled(results: list[dict], scaled: bool = True) -> dict[str, float]:
    """End-to-end figures over the measured cycles of ``results``."""
    def times(key: str) -> list[float]:
        return [value * (result["scale"] if scaled else 1.0)
                for result in results for value in result[key]]

    latencies = times("latencies_s")
    cycles = times("cycles_s")
    measured_s = sum(cycles)
    return {
        "ops_per_s": len(latencies) / measured_s,
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "guest_kips": sum(r["instructions"] for r in results) / measured_s / 1e3,
        "cycle_p50_ms": statistics.median(cycles) * 1e3,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
    }


def per_op_s(result: dict) -> float:
    """Scaled host seconds of measured cycles per operation."""
    return sum(result["cycles_s"]) * result["scale"] / len(result["latencies_s"])


def untraced(args, deadline: float) -> tuple[dict, list[dict]]:
    """Measure in :data:`SETUP_SAMPLES` fresh interpreters and pool them."""
    raw_setups = []
    setups = []
    results = []
    for __ in range(SETUP_SAMPLES):
        raw_setup_s, setup_s, result = run_child(
            args, "measure", args.seconds / SETUP_SAMPLES, deadline)
        raw_setups.append(raw_setup_s)
        setups.append(setup_s)
        results.append(result)
    values = dict(pooled(results), setup_s=statistics.median(setups))
    unscaled = pooled(results, scaled=False)
    print(f"  set-up host s: {', '.join(f'{s:.3f}' for s in raw_setups)}; "
          f"scaled: {', '.join(f'{s:.3f}' for s in setups)}")
    describe(results)
    for name, unit in END_TO_END:
        note = f"  (unscaled {unscaled[name]:.4f})" if name in unscaled else ""
        print(f"  {name:<14} {values[name]:>12.4f} {unit}{note}")
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END}, results


def traced(args, deadline: float) -> tuple[dict, list[dict]]:
    """One untraced and one traced interpreter; per-layer figures."""
    from layers import METRICS

    *__, reference = run_child(args, "measure", args.seconds, deadline)
    *__, result = run_child(args, "trace", args.seconds, deadline)
    values = dict(result["layers"])
    values["trace.overhead_ratio"] = per_op_s(result) / per_op_s(reference) - 1
    describe([result])
    print(f"  scaled host s/op untraced {per_op_s(reference):.5f}, "
          f"traced {per_op_s(result):.5f}")
    for name, unit, __ in METRICS:
        print(f"  {name:<32} {values[name]:>16.6g} {unit}")
    return {name: {"value": values[name], "unit": unit}
            for name, unit, __ in METRICS}, [reference, result]


def describe(results: list[dict]) -> None:
    """Print sample counts, workload extras and the virtual digest."""
    latencies = [value * result["scale"] for result in results
                 for value in result["latencies_s"]]
    p95, beyond = nearest_rank(latencies, 0.95)
    raw_s = sum(sum(result["cycles_s"]) for result in results)
    scaled_s = sum(sum(r["cycles_s"]) * r["scale"] for r in results)
    cycles = sum(len(result["cycles_s"]) for result in results)
    print(f"  measured {raw_s:.3f} host s ({scaled_s:.3f} scaled) in "
          f"{len(results)} interpreters: {cycles} cycles, {len(latencies)} ops")
    # a percentile is resolved only with at least ten samples beyond it
    print(f"  op_p95_ms {p95 * 1e3:.4f} ms (scaled), {beyond} samples beyond"
          + ("" if beyond >= 10 else ": fewer than 10, not resolved"))
    for name in sorted(results[0]["extra_s"]):
        values = [value * result["scale"] for result in results
                  for value in result["extra_s"][name]]
        print(f"  {name} (median, scaled) {statistics.median(values):.4f} s")
    print(f"  virtual digest {results[0]['digest']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"dynabench: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    # on SIGTERM, unwind so the running worker is killed and reaped
    signal.signal(signal.SIGTERM, lambda *__: sys.exit(143))
    deadline = time.perf_counter() + RUN_DEADLINE_S
    print(f"dynabench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} python={platform.python_version()} "
          f"nproc={os.cpu_count()}")
    try:
        metrics, results = (traced if args.trace else untraced)(args, deadline)
    except RunFailed as exc:
        print(f"dynabench: {exc}", file=sys.stderr)
        return 1

    digests = {(result["setup_digest"], result["digest"]) for result in results}
    attempted = sum(result["attempted"] for result in results)
    failed = sum(result["failed"] for result in results)
    for result in results:
        for failure in result["failures"]:
            print(f"  FAILED {failure}")
    if len(digests) != 1:
        print("  FAILED virtual digests differ between interpreters")
    correct = failed == 0 and len(digests) == 1
    print(f"  op_failure_ratio {failed / max(attempted, 1):.4f} "
          f"({failed} of {attempted} operations)")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
