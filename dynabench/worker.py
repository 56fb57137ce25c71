"""Run one DynaBench workload in a fresh interpreter.

Usage::

    python3 dynabench/worker.py --workload NAME --seed N --seconds S \\
        --mode measure|trace

Prints ``READY <sampling seconds> <scale>`` once set-up is done (the
parent times set-up from its own clock), runs measured cycles until
``S`` seconds of cycle time have passed (at least :data:`DIGEST_CYCLES`
of them), and prints ``RESULT <json>`` as its last line: the raw host
times of the measured cycles and operations, with the factor that
scales them to a reference machine speed (:class:`SpeedMeter`).
``trace`` mode wraps every layer's entry points first (see
:mod:`layers`), reports per-layer figures as well and writes its spans
to ``.dynabench/spans/<workload>-seed<N>.jsonl``.

Running each workload in its own interpreter keeps the process-global
caches (``_CFG_CACHE``, ``_FLOW_CACHE``, ``_PROFILE_CACHE``, the
toolchain's ``lru_cache``\\ s) from carrying warmth between workloads.
"""

from __future__ import annotations

import argparse
import gc
import json
import pathlib
import resource
import statistics
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
SOURCE = HERE.parent / "src"

#: the virtual-time digest covers set-up plus this many measured cycles,
#: so runs of different lengths (and the traced run) compare exactly
DIGEST_CYCLES = 1

#: seconds one calibration sample takes on the machine of record; host
#: times are reported scaled to this speed (see :class:`SpeedMeter`)
REFERENCE_SAMPLE_S = 0.010
#: calibration samples taken at each cycle boundary, and before and
#: after set-up
SAMPLES_PER_BOUNDARY = 5
SETUP_SPEED_SAMPLES = 5


class _Registers:
    __slots__ = ("a", "b")


def _calibration_kernel(rounds: int = 9000) -> int:
    """A fixed slice of interpreter work shaped like the simulator's.

    Dictionary lookups, bytearray slices, ``int.from_bytes`` and slot
    attribute updates, as in the CPU and memory layers; it allocates no
    garbage-collected object, so a large program heap cannot slow it.
    """
    memory = bytearray(4096)
    table = {index: (index * 40) & 0xFF8 for index in range(256)}
    lookup = table.get
    regs = _Registers()
    regs.a, regs.b = 1, 3
    for index in range(rounds):
        address = lookup(index & 0xFF)
        value = int.from_bytes(memory[address:address + 8], "little")
        regs.a = (value + regs.b + index) & 0xFFFFFFFF
        memory[address:address + 8] = regs.a.to_bytes(8, "little")
    return regs.a


class SpeedMeter:
    """Samples the host's current speed with :func:`_calibration_kernel`.

    The benchmark runs on shared machines whose speed drifts by tens of
    percent from one interpreter to the next.  A phase's host times are
    reported multiplied by :meth:`scale`, ``REFERENCE_SAMPLE_S / c``
    where ``c`` is the median sample taken during the phase: seconds on
    the reference machine.  The program never runs during a sample, and
    sampling time is kept out of every measurement.
    """

    def __init__(self) -> None:
        self.spent = 0.0
        self.samples: list[float] = []

    def sample(self, count: int = SAMPLES_PER_BOUNDARY) -> None:
        started = time.perf_counter()
        gc.disable()
        try:
            for __ in range(count):
                begin = time.perf_counter()
                _calibration_kernel()
                self.samples.append(time.perf_counter() - begin)
        finally:
            gc.enable()
        self.spent += time.perf_counter() - started

    def scale(self) -> float:
        """Reference seconds per host second over the samples so far."""
        return REFERENCE_SAMPLE_S / statistics.median(self.samples)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("measure", "trace"), required=True)
    args = parser.parse_args(argv)

    if not (SOURCE / "repro").is_dir():
        print(f"dynabench: no program source at {SOURCE}", file=sys.stderr)
        return 2
    speed = SpeedMeter()
    speed.sample(SETUP_SPEED_SAMPLES)
    sys.path.insert(0, str(SOURCE))
    sys.path.insert(0, str(HERE))

    layer_tracer = None
    if args.mode == "trace":
        from layers import LayerTracer

        # wrap before the workloads module binds any program function
        layer_tracer = LayerTracer()
        layer_tracer.install()

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    workload.setup()
    speed.sample(SETUP_SPEED_SAMPLES)
    setup_scale = speed.scale()
    # the parent times set-up up to this line and subtracts the sampling
    print(f"READY {speed.spent!r} {setup_scale!r}", flush=True)
    result: dict = {"setup_digest": workload.digest()}

    result.update(measure(workload, args.seconds, layer_tracer, speed))
    workload.close()

    ledger = workload.ledger
    result.update(attempted=ledger.attempted, failed=ledger.failed,
                  failures=ledger.failures)
    if layer_tracer is not None:
        spans = HERE.parent / ".dynabench" / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        layer_tracer.write_spans(spans / f"{args.workload}-seed{args.seed}.jsonl")
    print("RESULT " + json.dumps(result), flush=True)
    return 0


def measure(workload, seconds: float, layer_tracer, speed: SpeedMeter) -> dict:
    """Run measured cycles; return their raw host times and the digest.

    ``scale`` converts every host time of the measured phase to seconds
    on the reference machine; the parent applies it.
    """
    ledger = workload.ledger
    ledger.measuring = True
    instructions_at_start = workload.instructions()
    decodes_at_start = (
        layer_tracer.calls("isa/decode") if layer_tracer is not None else 0
    )
    extra_at_start = {name: len(values) for name, values in workload.extra().items()}
    cycles: list[float] = []
    digest = ""
    peak_rss_mb = 0.0
    speed.samples = []
    speed.sample()
    while len(cycles) < DIGEST_CYCLES or sum(cycles) < seconds:
        started = time.perf_counter()
        workload.cycle()
        cycles.append(time.perf_counter() - started)
        speed.sample()
        if len(cycles) == DIGEST_CYCLES:
            digest = workload.digest()
            # memory after a fixed amount of work, whatever the run length
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    instructions = workload.instructions()
    result = {
        "digest": digest,
        "scale": speed.scale(),
        "cycles_s": cycles,
        "latencies_s": ledger.latencies,
        "extra_s": {
            name: values[extra_at_start[name]:]
            for name, values in workload.extra().items()
        },
        "instructions": instructions - instructions_at_start,
        "peak_rss_mb": peak_rss_mb,
    }
    if layer_tracer is not None:
        result["layers"] = layer_tracer.metrics({
            "instructions": instructions,
            "measured_instructions": result["instructions"],
            "decode_calls_at_start": decodes_at_start,
            "ops": len(ledger.latencies),
        })
    return result


if __name__ == "__main__":
    sys.exit(main())
