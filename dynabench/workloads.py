"""The four DynaBench workloads.

Each workload is seeded, closed-loop and single-client: one host thread
issues an operation, waits for its outcome, checks it against an
oracle, and only then issues the next.  A workload has three parts:

* ``setup()`` — everything between a fresh interpreter and the first
  measured operation (toolchain builds, boots, profiling, preload and
  warm-up operations);
* ``cycle()`` — one repeating unit of measured work; the benchmark
  runs cycles until its time is up;
* ``facts()`` — the virtual-time state that goes into the digest.

Every operation goes through a :class:`Ledger`, which times it in host
time, checks its oracle, counts failures instead of raising them, and
folds its virtual outcome into the digest.
"""

from __future__ import annotations

import hashlib
import json
import time
import weakref
from contextlib import ExitStack
from random import Random

from repro import telemetry
from repro.apps import REDIS_PORT, get_benchmark, spec_image, stage_redis, stage_spec
from repro.apps.kvstore import READY_LINE as REDIS_READY
from repro.apps.kvstore import REDIS_BINARY
from repro.apps.spec import INIT_DONE_LINE
from repro.core import BlockMode, DynaCut, TraceDiff, TrapPolicy, init_only_blocks
from repro.core.verifier import read_verifier_log
from repro.fleet import FleetPolicy
from repro.kernel import Kernel
from repro.mesh import MeshController, MeshRollout
from repro.telemetry import RequestTracer, TelemetryHub, attribute_traces
from repro.tracing import BlockTracer
from repro.workloads import SECOND_NS, RedisClient

#: how many of its ``failures`` a ledger keeps verbatim
KEEP_FAILURES = 8


class Ledger:
    """Operations one workload attempted, their host latency and outcomes.

    ``kind`` separates client operations (the latency samples), DynaCut
    transactions, guest runs and per-cycle invariant checks; all of
    them count towards ``attempted`` and ``failed``.
    """

    def __init__(self, op_kind: str):
        self.op_kind = op_kind
        self.measuring = False
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        #: host seconds of each measured ``op_kind`` operation
        self.latencies: list[float] = []
        self._outcomes = hashlib.sha256()

    def op(self, kind: str, action) -> bool:
        """Run ``action() -> (outcome, ok)`` as one timed operation."""
        started = time.perf_counter()
        try:
            outcome, ok = action()
        except Exception as exc:  # noqa: BLE001 — a failed operation, counted
            outcome, ok = f"raised {type(exc).__name__}: {exc}", False
        elapsed = time.perf_counter() - started
        if self.measuring and kind == self.op_kind:
            self.latencies.append(elapsed)
        self._outcomes.update(f"{kind} {outcome}\n".encode())
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < KEEP_FAILURES:
                self.failures.append(f"{kind}: {outcome}")
        return ok

    def check(self, what: str, ok: bool) -> bool:
        """An invariant checked once per cycle, counted like an operation."""
        return self.op("check", lambda: (f"{what} {'ok' if ok else 'VIOLATED'}", ok))

    def outcomes_digest(self) -> str:
        return self._outcomes.hexdigest()


class Retired:
    """Guest instructions retired by every process a workload has run.

    A DynaCut restore replaces a process object, and its counter, so the
    last count seen of a process that has left its kernel is banked.
    """

    def __init__(self) -> None:
        self.banked = 0
        #: id(process) -> (weak reference, last count seen)
        self._live: dict[int, tuple] = {}

    def observe(self, kernels) -> None:
        seen = {
            id(proc): (weakref.ref(proc), proc.instructions_retired)
            for kernel in kernels for proc in kernel.processes.values()
        }
        for key, (ref, count) in self._live.items():
            current = seen.get(key)
            if current is None or current[0]() is not ref():
                self.banked += count
        self._live = seen

    def total(self) -> int:
        return self.banked + sum(count for __, count in self._live.values())


class Workload:
    """Shared plumbing; subclasses define setup, cycle and facts."""

    name = ""
    op_kind = "client"

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = Random(seed)
        self.ledger = Ledger(self.op_kind)
        self.retired = Retired()

    def kernels(self) -> list:
        return []

    def facts(self) -> dict:
        return {}

    def extra(self) -> dict:
        """Workload-specific host-time figures printed beside the metrics."""
        return {}

    def close(self) -> None:
        """Release what set-up opened (nothing, by default)."""

    def instructions(self) -> int:
        self.retired.observe(self.kernels())
        return self.retired.total()

    def digest(self) -> str:
        """Virtual-time digest of everything run so far."""
        payload = {
            "workload": self.name,
            "seed": self.seed,
            "clocks_ns": [kernel.clock_ns for kernel in self.kernels()],
            "instructions": self.instructions(),
            "outcomes": self.ledger.outcomes_digest(),
            "attempted": self.ledger.attempted,
            "failed": self.ledger.failed,
            "facts": self.facts(),
        }
        blob = json.dumps(payload, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


def _random_keys(rng: Random, count: int) -> list[str]:
    # fixed-width names keep the guest's strcmp cost independent of the seed
    return [f"key:{n:06d}" for n in rng.sample(range(1_000_000), count)]


def _random_value(rng: Random) -> str:
    return f"{rng.getrandbits(48):012x}"


class _RedisWorkload(Workload):
    """One miniredis on one kernel, one persistent client, a shadow map."""

    #: preloaded keys: ``db_find`` scans up to this many of its 64 slots
    KEYS = 24

    def kernels(self) -> list:
        return [self.kernel]

    def set(self, key: str) -> bool:
        value = _random_value(self.rng)

        def action():
            reply = self.client.command(f"SET {key} {value}")
            if reply == "+OK":
                self.shadow[key] = value
            return f"SET {key} {reply}", reply == "+OK"

        return self.ledger.op("client", action)

    def get(self, key: str) -> bool:
        def action():
            reply = self.client.command(f"GET {key}")
            return f"GET {key} {reply}", reply == "$" + self.shadow[key]

        return self.ledger.op("client", action)

    def preload(self) -> None:
        self.keys = _random_keys(self.rng, self.KEYS)
        self.shadow: dict[str, str] = {}
        for key in self.keys:
            self.set(key)


class KvServe(_RedisWorkload):
    """A 90/10 GET/SET mix against one uncustomized miniredis."""

    name = "kv-serve"
    SET_SHARE = 0.10
    WARMUP_OPS = 20
    OPS_PER_CYCLE = 50

    def setup(self) -> None:
        self.kernel = Kernel()
        stage_redis(self.kernel)
        self.client = RedisClient(self.kernel, REDIS_PORT)
        self.preload()
        for __ in range(self.WARMUP_OPS):
            self.mixed_op()

    def mixed_op(self) -> bool:
        key = self.rng.choice(self.keys)
        if self.rng.random() < self.SET_SHARE:
            return self.set(key)
        return self.get(key)

    def cycle(self) -> None:
        for __ in range(self.OPS_PER_CYCLE):
            self.mixed_op()


class KvRewrite(_RedisWorkload):
    """The Figure 8 pattern: SET removed and restored while serving GETs.

    One cycle is redirect-disable, enable, verify-disable, enable, each
    followed by a probe SET with a known expected outcome and a few
    GETs checked against the shadow map.
    """

    name = "kv-rewrite"
    REDIRECT_SYMBOL = "redis_unknown_cmd"
    REDIRECT_REPLY = "-ERR unknown command"
    GETS_PER_STEP = 8
    #: commands profiled as wanted behaviour (everything but SET)
    WANTED = ("PING", "GET a", "DEL a", "EXISTS a", "DBSIZE", "INCR n",
              "APPEND a x", "STRLEN a")

    def setup(self) -> None:
        self.kernel = kernel = Kernel()
        proc = stage_redis(kernel, run_to_ready=False)
        self.pid = proc.pid
        tracer = BlockTracer(kernel, proc).attach()
        kernel.run_until(lambda: REDIS_READY in proc.stdout_text(),
                         max_instructions=5_000_000)
        tracer.nudge_dump()
        self.client = RedisClient(kernel, REDIS_PORT)
        for command in self.WANTED:
            self.client.command(command)
        wanted = tracer.nudge_dump()
        self.client.command("SET probe v")
        undesired = tracer.finish()
        self.feature = TraceDiff(REDIS_BINARY).feature_blocks(
            "SET", [wanted], [undesired]
        )
        self.dynacut = DynaCut(kernel)
        self.reports: list[list[int]] = []
        self.preload()
        self.cycle()   # warm-up: pays the cold analysis cost in set-up

    def transaction(self, label: str, run) -> bool:
        def action():
            self.retired.observe(self.kernels())
            report = run()
            self.retired.observe(self.kernels())
            self.reports.append([
                report.total_ns, report.checkpoint_ns, report.restore_ns,
                report.patch_ns, report.inject_ns, report.image_bytes,
                report.image_pages, report.attempts,
            ])
            return f"{label} {report.outcome}", report.outcome == "committed"

        return self.ledger.op("txn", action)

    def probe(self, expected: str) -> bool:
        def action():
            reply = self.client.command(f"SET probe {_random_value(self.rng)}")
            return f"probe {reply}", reply == expected

        return self.ledger.op("client", action)

    def verify_probe(self) -> bool:
        """The first SET traps and heals; the second runs trap-free."""
        def traps() -> int:
            proc = self.kernel.processes[self.pid]
            return len(read_verifier_log(self.kernel, proc).trapped_addresses)

        def action():
            before = traps()
            first = self.client.command(f"SET probe {_random_value(self.rng)}")
            trapped = traps()
            second = self.client.command(f"SET probe {_random_value(self.rng)}")
            after = traps()
            ok = (first == second == "+OK" and trapped > before
                  and after == trapped)
            return f"verify-probe {first} {second} traps {before}/{trapped}/{after}", ok

        return self.ledger.op("client", action)

    def gets(self) -> None:
        for __ in range(self.GETS_PER_STEP):
            self.get(self.rng.choice(self.keys))

    def cycle(self) -> None:
        dynacut, pid, feature = self.dynacut, self.pid, self.feature
        self.transaction("disable-redirect", lambda: dynacut.disable_feature(
            pid, feature, policy=TrapPolicy.REDIRECT, mode=BlockMode.ENTRY,
            redirect_symbol=self.REDIRECT_SYMBOL,
        ))
        self.probe(self.REDIRECT_REPLY)
        self.gets()
        self.transaction("enable", lambda: dynacut.enable_feature(pid, feature))
        self.probe("+OK")
        self.gets()
        self.transaction("disable-verify", lambda: dynacut.disable_feature(
            pid, feature, policy=TrapPolicy.VERIFY, mode=BlockMode.ENTRY,
        ))
        self.verify_probe()
        self.gets()
        self.transaction("enable", lambda: dynacut.enable_feature(pid, feature))
        self.probe("+OK")
        self.gets()

    def facts(self) -> dict:
        return {"feature_blocks": len(self.feature.blocks),
                "rewrite_reports": self.reports}


class SpecProfile(Workload):
    """§3.1 init-phase identification on two SPEC-like guests.

    One operation is one guest run: boot with a block tracer attached,
    nudge at ``init complete``, run the compute phase to its ``result``
    line, then compute the init-only blocks.  One cycle profiles both
    guests, in a seeded order.
    """

    name = "spec-profile"
    op_kind = "run"
    #: iteration counts at which the two guests' runs take about as long,
    #: so the run latencies form one mode rather than two
    ITERATIONS = {"605.mcf_s": 10, "641.leela_s": 5}
    #: the guests' ``result`` lines at these iteration counts
    PINNED_RESULTS = {"605.mcf_s": "result 120000430", "641.leela_s": "result 333"}
    MAX_INSTRUCTIONS = 20_000_000

    def setup(self) -> None:
        # the only set-up work is building the two guest images
        for name in self.ITERATIONS:
            spec_image(name)
        self.runs: list[list] = []
        self.profile_times: list[float] = []

    def guest_run(self, name: str) -> bool:
        bench = get_benchmark(name)

        def action():
            kernel = Kernel()
            proc = stage_spec(kernel, name, iterations=self.ITERATIONS[name],
                              run_to_init=False)
            tracer = BlockTracer(kernel, proc).attach()
            kernel.run_until(lambda: INIT_DONE_LINE in proc.stdout_text(),
                             max_instructions=self.MAX_INSTRUCTIONS)
            init_trace = tracer.nudge_dump(quiesce=False)
            kernel.run_until(lambda: not proc.alive,
                             max_instructions=self.MAX_INSTRUCTIONS)
            serving = tracer.finish(quiesce=False)
            report = init_only_blocks(init_trace, serving, bench.binary)
            lines = proc.stdout_text().splitlines()
            result = lines[-1] if lines else ""
            self.retired.banked += proc.instructions_retired
            self.runs.append([name, result, proc.instructions_retired,
                              kernel.clock_ns, len(report.init_only),
                              report.removable_count, report.total_executed])
            ok = (result == self.PINNED_RESULTS[name] and not proc.alive
                  and report.removable_count > 0)
            return f"{name} {result} init-only {report.removable_count}", ok

        return self.ledger.op("run", action)

    def cycle(self) -> None:
        order = sorted(self.ITERATIONS)
        self.rng.shuffle(order)
        started = time.perf_counter()
        for name in order:
            self.guest_run(name)
        self.profile_times.append(time.perf_counter() - started)

    def facts(self) -> dict:
        return {"runs": self.runs}

    def extra(self) -> dict:
        return {"profile_s": self.profile_times}


class MeshRolloutWorkload(Workload):
    """Keyed traffic through a 2×2 mesh while SET removal rolls out.

    Telemetry recording and DynaTrace request tracing are on, as the
    mesh and trace campaigns run them.  One cycle rolls SET removal out
    shard by shard under the verify policy (forced supervisor tick after
    every step), then rolls it back on every instance, with keyed
    traffic after every control step.
    """

    name = "mesh-rollout"
    SHARDS = 2
    SIZE_PER_SHARD = 2
    KEYS = 24
    SET_EVERY = 8
    OPS_PER_STEP = 8
    WARMUP_OPS = 8

    def setup(self) -> None:
        self.hub = TelemetryHub()
        self._recording = ExitStack()
        self._recording.enter_context(telemetry.recording(self.hub))
        policy = FleetPolicy(
            features=("SET",), trap_policy="verify", strategy="canary",
            probe_requests=2, heartbeat_interval_ns=3 * SECOND_NS,
            shards=self.SHARDS, ring_replicas=32, host_failover_budget=2,
        )
        self.mesh = MeshController("redis", policy,
                                   size_per_shard=self.SIZE_PER_SHARD)
        self.hub.bind_clock(lambda: self.mesh.clock.clock_ns)
        self.mesh.spawn_mesh()
        self.tracer = RequestTracer()
        self.requests = 0
        self.rollouts: list[dict] = []
        self.rollout_times: list[float] = []
        self.keys = _random_keys(self.rng, self.KEYS)
        self.shadow: dict[str, str] = {}
        for key in self.keys:
            self.store(key)
        self.traffic(self.WARMUP_OPS)
        self.cycle()   # warm-up: pays the cold analysis cost in set-up

    def close(self) -> None:
        self._recording.close()

    def kernels(self) -> list:
        return [host.kernel for host in self.mesh.hosts]

    def store(self, key: str) -> bool:
        value = _random_value(self.rng)

        def action():
            ok = self.mesh.store(key, value)
            if ok:
                self.shadow[key] = value
            return f"SET {key} {ok}", ok

        return self.ledger.op("client", action)

    def fetch(self, key: str) -> bool:
        def action():
            value = self.mesh.fetch(key)
            return f"GET {key} {value}", value == self.shadow[key]

        return self.ledger.op("client", action)

    def request(self, control=None) -> bool:
        """One traced request; ``control`` runs first as its stall."""
        self.requests += 1
        context = self.tracer.begin(lambda: self.mesh.clock.clock_ns,
                                    index=self.requests)
        ok = False
        try:
            if control is not None:
                with context.stall("control"):
                    control()
            key = self.rng.choice(self.keys)
            with context.leg("dispatch"):
                if self.requests % self.SET_EVERY == 0:
                    ok = self.store(key)
                else:
                    ok = self.fetch(key)
        finally:
            self.tracer.finish(context, ok=ok)
        return ok

    def traffic(self, count: int, control=None) -> None:
        for index in range(count):
            self.request(control if index == 0 else None)

    def control(self, action) -> None:
        kernels = self.kernels()
        self.retired.observe(kernels)
        action()
        self.retired.observe(kernels)

    def rollback_all(self) -> None:
        for host in self.mesh.hosts:
            for instance in host.controller.instances:
                host.controller.rollback(instance)

    def cycle(self) -> None:
        mesh = self.mesh
        rollout = MeshRollout(mesh)

        def step() -> None:
            rollout.step()
            mesh.tick(force=True)
            if rollout.done:
                self.rollout_times.append(time.perf_counter() - started)

        started = time.perf_counter()
        while not rollout.done:
            self.traffic(self.OPS_PER_STEP,
                         control=lambda: self.control(step))
        report = rollout.report()
        self.rollouts.append(report)
        self.ledger.check("rollout completed", rollout.state == "completed")
        self.traffic(self.OPS_PER_STEP,
                     control=lambda: self.control(self.rollback_all))
        stats = mesh.frontend.stats()
        self.ledger.check(
            "issued == served + failed_over + shed",
            stats["accounted"] and stats["issued"]
            == stats["served"] + stats["failed_over"] + stats["shed"],
        )

    def facts(self) -> dict:
        summary = attribute_traces(self.tracer)["summary"]
        stats = self.mesh.frontend.stats()
        return {
            "frontend": {key: stats[key] for key in (
                "issued", "served", "failed_over", "shed", "dispatched")},
            "rollouts": self.rollouts,
            "trace_phase_totals_ns": summary["phase_totals_ns"],
            "trace_identity_violations": summary["identity_violations"],
            "telemetry_events": len(self.hub.events),
        }

    def extra(self) -> dict:
        return {"rollout_s": self.rollout_times}


WORKLOADS = {
    workload.name: workload
    for workload in (KvServe, KvRewrite, SpecProfile, MeshRolloutWorkload)
}
