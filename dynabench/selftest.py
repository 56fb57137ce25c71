"""Smoke-size self-test of DynaBench.

Usage (from the repository root)::

    python3 dynabench/selftest.py [--seed 7] [--seconds 1]

Runs all four workloads untraced in the listed order, then traced in
reverse order, each at minimal length, and checks that

* every run exits 0 and ends with ``{"correct", "attempted", "failed",
  "metrics"}``, correct and with no failed operation;
* the metrics are exactly the ``end_to_end`` (untraced) or
  ``per_layer`` (traced) metrics of ``BENCHMARK.json``, each a number
  with its declared unit;
* each workload's virtual digest is the same untraced and traced, and
  so also in either workload order: every workload runs in fresh
  interpreters, so no process-global cache carries over.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("kv-serve", "kv-rewrite", "spec-profile", "mesh-rollout")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, str]:
    """One benchmark run; returns its result object and virtual digest."""
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=False,
    )
    lines = completed.stdout.splitlines()
    if completed.returncode != 0 or not lines:
        raise AssertionError(
            f"{workload} trace={trace} exited {completed.returncode}: "
            f"{completed.stderr[-500:]}"
        )
    digests = [line.split()[-1] for line in lines
               if line.strip().startswith("virtual digest ")]
    return json.loads(lines[-1]), digests[-1] if digests else ""


def check(result: dict, declared: list[dict], label: str) -> list[str]:
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"{label}: result keys {sorted(result)}")
        return problems
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{label}: correct={result['correct']} "
                        f"failed={result['failed']} attempted={result['attempted']}")
    metrics = result["metrics"]
    expected = {metric["name"]: metric["unit"] for metric in declared}
    if set(metrics) != set(expected):
        problems.append(f"{label}: metrics differ from BENCHMARK.json: "
                        f"{sorted(set(metrics) ^ set(expected))}")
    for name, unit in expected.items():
        entry = metrics.get(name, {})
        if entry.get("unit") != unit or not isinstance(entry.get("value"), (int, float)):
            problems.append(f"{label}: {name} = {entry} (want a number in {unit})")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=1)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    problems: list[str] = []
    digests: dict[str, dict[int, str]] = {name: {} for name in WORKLOADS}
    for trace, order in ((0, WORKLOADS), (1, tuple(reversed(WORKLOADS)))):
        declared = spec["per_layer" if trace else "end_to_end"]
        for workload in order:
            label = f"{workload} trace={trace}"
            try:
                result, digest = run(workload, args.seed, args.seconds, trace)
            except (AssertionError, subprocess.TimeoutExpired) as exc:
                problems.append(f"{label}: {exc}")
                continue
            problems += check(result, declared, label)
            digests[workload][trace] = digest
            print(f"ok  {label}  digest {digest[:16]}", flush=True)
    for workload, by_trace in digests.items():
        if len(set(by_trace.values())) != 1 or len(by_trace) != 2:
            problems.append(f"{workload}: digests differ {by_trace}")
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest " + ("passed" if not problems else "FAILED"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
