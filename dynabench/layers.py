"""Per-layer host-time tracing for the traced DynaBench run.

The program is not instrumented: this module wraps public entry points
of each layer from the outside, before any workload object exists.
Every wrapped call is charged to a *key* ``"<layer>/<function>"``; a
layer's self time is its calls' duration minus the time of wrapped
calls nested inside them, so the self times of all layers plus
``unattributed_s`` add up to the traced run's wall time.

Hot entry points (memory accesses, CPU decode, block callbacks,
syscalls) only aggregate a call count and self time per key.  Coarse
ones (transactions, checkpoints, analyses, control-plane steps, client
operations) also record a span — ``(id, parent, key, start, end)`` —
kept in memory and written out when the run ends.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter

# (module, attribute path, key, span?) — ``attribute path`` is either a
# module-level function or ``Class.method``
ENTRY_POINTS = [
    # isa: CPU decodes (decode-cache misses) and analysis disassembly
    ("repro.kernel.cpu", "decode", "isa/decode", False),
    ("repro.isa.disassembler", "disassemble_one", "isa/disassemble", False),
    ("repro.isa.disassembler", "disassemble_range", "isa/disassemble", False),
    # kernel.cpu
    ("repro.kernel.cpu", "CPU.run_quantum", "kernel.cpu/run_quantum", False),
    ("repro.kernel.cpu", "CPU.step", "kernel.cpu/step", False),
    ("repro.kernel.cpu", "CPU._trap", "kernel.cpu/trap", False),
    # kernel.memory: guest accesses, kernel-privileged accesses and the
    # calls that can bump the code epoch
    ("repro.kernel.memory", "AddressSpace.read", "kernel.memory/read", False),
    ("repro.kernel.memory", "AddressSpace.write", "kernel.memory/write", False),
    ("repro.kernel.memory", "AddressSpace.fetch", "kernel.memory/fetch", False),
    ("repro.kernel.memory", "AddressSpace.read_raw", "kernel.memory/raw", False),
    ("repro.kernel.memory", "AddressSpace.write_raw", "kernel.memory/raw", False),
    ("repro.kernel.memory", "AddressSpace.mmap", "kernel.memory/map", False),
    ("repro.kernel.memory", "AddressSpace.munmap", "kernel.memory/map", False),
    ("repro.kernel.memory", "AddressSpace.mprotect", "kernel.memory/map", False),
    # kernel.syscalls / kernel.network / kernel scheduler
    ("repro.kernel.syscalls", "SyscallTable.dispatch", "kernel.syscalls/dispatch", False),
    ("repro.kernel.kernel", "HostSocket.send", "kernel.network/host_send", False),
    ("repro.kernel.kernel", "HostSocket.recv_until", "kernel.network/host_recv", False),
    ("repro.kernel.kernel", "HostSocket.recv_available", "kernel.network/host_recv", False),
    ("repro.kernel.kernel", "Kernel.connect", "kernel.network/connect", False),
    ("repro.kernel.network", "NetworkStack.connect", "kernel.network/stack", False),
    ("repro.kernel.network", "NetworkStack.accept", "kernel.network/stack", False),
    ("repro.kernel.network", "Endpoint.send", "kernel.network/endpoint", False),
    ("repro.kernel.network", "Endpoint.recv", "kernel.network/endpoint", False),
    ("repro.kernel.kernel", "Kernel.run", "kernel.sched/loop", False),
    ("repro.kernel.kernel", "Kernel.run_until", "kernel.sched/until", False),
    ("repro.kernel.kernel", "Kernel.run_until_quiescent", "kernel.sched/loop", False),
    # criu
    ("repro.criu.checkpoint", "checkpoint_tree", "criu.checkpoint/checkpoint_tree", True),
    ("repro.criu.restore", "restore_tree", "criu.restore/restore_tree", True),
    ("repro.criu.images", "CheckpointImage.save", "criu.save/save", True),
    # core
    ("repro.core.dynacut", "DynaCut.customize", "core.customize/customize", True),
    ("repro.core.dynacut", "DynaCut.disable_feature", "core.customize/disable_feature", True),
    ("repro.core.dynacut", "DynaCut.enable_feature", "core.customize/enable_feature", True),
    ("repro.core.rewriter", "ImageRewriter.block_entry_int3", "core.rewrite/patch", True),
    ("repro.core.rewriter", "ImageRewriter.wipe_blocks", "core.rewrite/patch", True),
    ("repro.core.rewriter", "ImageRewriter.restore_blocks", "core.rewrite/patch", True),
    ("repro.core.rewriter", "ImageRewriter.install_trap_handler", "core.rewrite/handler", True),
    ("repro.core.tracediff", "TraceDiff.feature_blocks", "core.tracediff/feature_blocks", True),
    ("repro.core.initphase", "init_only_blocks", "core.tracediff/init_only_blocks", True),
    # analysis
    ("repro.analysis.dataflow.liveness", "live_in_registers", "analysis.liveness/live_in", True),
    ("repro.analysis.lint", "lint_checkpoint", "analysis.lint/lint_checkpoint", True),
    ("repro.analysis.dataflow.valueset", "analyze_image_flow", "analysis.flow/analyze", True),
    ("repro.analysis.cfg", "build_cfg", "analysis.cfg/build", True),
    ("repro.analysis.cfg", "cached_cfg", "analysis.cfg/cached", True),
    # tracing
    ("repro.tracing.tracer", "BlockTracer.on_block", "tracing/on_block", False),
    ("repro.tracing.tracer", "BlockTracer.nudge_dump", "tracing/dump", False),
    ("repro.tracing.tracer", "BlockTracer.finish", "tracing/dump", False),
    # workloads: the host-side client
    ("repro.workloads.redis_client", "RedisClient.command_raw", "workloads.client/command", True),
    # fleet / mesh
    ("repro.fleet.controller", "FleetController.customize", "fleet.customize/customize", True),
    ("repro.fleet.controller", "FleetController.probe", "fleet.probe/probe", True),
    ("repro.fleet.supervisor", "FleetSupervisor.tick", "fleet.tick/tick", True),
    ("repro.fleet.rollout", "RolloutExecutor.step", "fleet.rollout/step", True),
    ("repro.mesh.frontend", "Frontend.dispatch", "mesh.route/dispatch", True),
    ("repro.mesh.controller", "MeshController.store", "mesh.route/store", True),
    ("repro.mesh.controller", "MeshController.fetch", "mesh.route/fetch", True),
    ("repro.mesh.controller", "MeshController.tick", "mesh.tick/tick", True),
    ("repro.mesh.rollout", "MeshRollout.step", "mesh.rollout/step", True),
    ("repro.kernel.balancer", "MemberPool.note_failover", "mesh.route/failover", False),
    # telemetry: the event hub, metrics and DynaTrace request tracing
    ("repro.telemetry.hub", "TelemetryHub.emit", "telemetry/emit", False),
    ("repro.telemetry.hub", "TelemetryHub.count", "telemetry/metric", False),
    ("repro.telemetry.hub", "TelemetryHub.gauge_set", "telemetry/metric", False),
    ("repro.telemetry.hub", "TelemetryHub.observe", "telemetry/metric", False),
    ("repro.telemetry.hub", "TelemetryHub.sample", "telemetry/metric", False),
    ("repro.telemetry.hub", "TelemetryHub.span", "telemetry/span", False),
    ("repro.telemetry.trace", "RequestTracer.begin", "telemetry/request", False),
    ("repro.telemetry.trace", "RequestTracer.finish", "telemetry/request_finish", False),
    # toolchain: compile (MiniC + assembler) and link
    ("repro.minic.codegen", "compile_source", "toolchain.compile/compile_source", True),
    ("repro.isa.assembler", "assemble", "toolchain.compile/assemble", True),
    ("repro.binfmt.linker", "link_executable", "toolchain.link/link", True),
    ("repro.binfmt.linker", "link_shared", "toolchain.link/link", True),
]

#: (metric, unit, better) for every per-layer metric the traced run reports
METRICS = [
    ("isa.decode_calls", "count", "lower"),
    ("isa.disassemble_calls", "count", "lower"),
    ("isa.busy_s", "s", "lower"),
    ("kernel.cpu.instructions", "count", "lower"),
    ("kernel.cpu.insn_per_op", "count", "lower"),
    ("kernel.cpu.decode_hit_ratio", "ratio", "higher"),
    ("kernel.cpu.traps", "count", "lower"),
    ("kernel.cpu.self_s", "s", "lower"),
    ("kernel.memory.accesses", "count", "lower"),
    ("kernel.memory.code_epoch_bumps", "count", "lower"),
    ("kernel.memory.busy_s", "s", "lower"),
    ("kernel.syscalls.calls", "count", "lower"),
    ("kernel.syscalls.blocked", "count", "lower"),
    ("kernel.syscalls.self_s", "s", "lower"),
    ("kernel.network.host_requests", "count", "lower"),
    ("kernel.network.self_s", "s", "lower"),
    ("kernel.run_calls", "count", "lower"),
    ("kernel.quanta", "count", "lower"),
    ("kernel.sched_self_s", "s", "lower"),
    ("criu.checkpoints", "count", "lower"),
    ("criu.checkpoint_s", "s", "lower"),
    ("criu.restores", "count", "lower"),
    ("criu.restore_s", "s", "lower"),
    ("criu.save_s", "s", "lower"),
    ("criu.image_bytes", "bytes", "lower"),
    ("core.transactions", "count", "lower"),
    ("core.attempts_per_commit", "ratio", "lower"),
    ("core.customize_self_s", "s", "lower"),
    ("core.rewrite_s", "s", "lower"),
    ("core.tracediff_s", "s", "lower"),
    ("analysis.liveness_s", "s", "lower"),
    ("analysis.lint_s", "s", "lower"),
    ("analysis.flow_s", "s", "lower"),
    ("analysis.cfg_builds", "count", "lower"),
    ("analysis.cfg_s", "s", "lower"),
    ("analysis.cfg_cache_hit_ratio", "ratio", "higher"),
    ("tracing.blocks", "count", "lower"),
    ("tracing.dumps", "count", "lower"),
    ("tracing.self_s", "s", "lower"),
    ("workloads.client_self_s", "s", "lower"),
    ("fleet.customize_s", "s", "lower"),
    ("fleet.probes", "count", "lower"),
    ("fleet.probe_s", "s", "lower"),
    ("fleet.tick_s", "s", "lower"),
    ("fleet.rollout_self_s", "s", "lower"),
    ("mesh.dispatches", "count", "lower"),
    ("mesh.failovers", "count", "lower"),
    ("mesh.route_self_s", "s", "lower"),
    ("mesh.tick_s", "s", "lower"),
    ("mesh.rollout_self_s", "s", "lower"),
    ("telemetry.events", "count", "lower"),
    ("telemetry.spans", "count", "lower"),
    ("telemetry.self_s", "s", "lower"),
    ("toolchain.builds", "count", "lower"),
    ("toolchain.compile_s", "s", "lower"),
    ("toolchain.link_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.unattributed_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]


class LayerTracer:
    """Wraps :data:`ENTRY_POINTS` and aggregates calls and self time."""

    def __init__(self) -> None:
        #: key -> [calls, self seconds]
        self.stats: dict[str, list] = {}
        self.counts: Counter = Counter()
        self.spans: list[tuple] = []
        self._children: list[float] = []   # child time of each open call
        self._open_spans: list[int] = []
        self.started = 0.0

    # ------------------------------------------------------------------
    # installation

    def install(self) -> None:
        """Patch every entry point, everywhere it has been imported."""
        for module_name, path, key, span in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            owner_name, __, attr = path.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = getattr(owner, attr)
            wrapped = self._wrap(original, key, span, _HOOKS.get(path))
            setattr(owner, attr, wrapped)
            if not owner_name and original.__module__ == module_name:
                # a function imported into another module (the CPU's
                # ``decode``) is wrapped for that importer only
                _rebind(original, wrapped)
        self.started = time.perf_counter()

    def _wrap(self, fn, key, span, hook):
        stat = self.stats.setdefault(key, [0, 0.0])
        children = self._children
        open_spans = self._open_spans
        spans = self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            token = hook[0](self, args) if hook else None
            if span:
                span_id = len(spans)
                spans.append(None)
                parent = open_spans[-1] if open_spans else -1
                open_spans.append(span_id)
            children.append(0.0)
            started = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ended = clock()
                elapsed = ended - started
                stat[0] += 1
                stat[1] += elapsed - children.pop()
                if children:
                    children[-1] += elapsed
                if span:
                    open_spans.pop()
                    spans[span_id] = (span_id, parent, key, started, ended)
            if hook:
                hook[1](self, args, result, token)
            return result

        return traced

    # ------------------------------------------------------------------
    # reporting

    def calls(self, prefix: str) -> int:
        return sum(s[0] for key, s in self.stats.items() if key.startswith(prefix))

    def self_s(self, prefix: str) -> float:
        return sum(s[1] for key, s in self.stats.items() if key.startswith(prefix))

    def metrics(self, measured: dict) -> dict[str, float]:
        """Every :data:`METRICS` value but ``trace.overhead_ratio``.

        ``measured`` holds the traced run's own figures: instructions,
        measured-phase instruction and operation counts, and decode
        calls at the start of the measured phase.  The overhead needs
        the untraced run, so the caller adds it.
        """
        c, s = self.calls, self.self_s
        counts = self.counts
        wall = time.perf_counter() - self.started
        attributed = sum(stat[1] for stat in self.stats.values())
        measured_insn = max(measured["measured_instructions"], 1)
        measured_decodes = c("isa/decode") - measured["decode_calls_at_start"]
        cached = c("analysis.cfg/cached")
        values = {
            "isa.decode_calls": c("isa/decode"),
            "isa.disassemble_calls": c("isa/disassemble"),
            "isa.busy_s": s("isa/"),
            "kernel.cpu.instructions": measured["instructions"],
            "kernel.cpu.insn_per_op": measured["measured_instructions"]
            / max(measured["ops"], 1),
            "kernel.cpu.decode_hit_ratio": 1 - measured_decodes / measured_insn,
            "kernel.cpu.traps": c("kernel.cpu/trap"),
            "kernel.cpu.self_s": s("kernel.cpu/"),
            "kernel.memory.accesses": c("kernel.memory/read")
            + c("kernel.memory/write") + c("kernel.memory/fetch"),
            "kernel.memory.code_epoch_bumps": counts["code_epoch_bumps"],
            "kernel.memory.busy_s": s("kernel.memory/"),
            "kernel.syscalls.calls": c("kernel.syscalls/"),
            "kernel.syscalls.blocked": counts["syscalls_blocked"],
            "kernel.syscalls.self_s": s("kernel.syscalls/"),
            "kernel.network.host_requests": c("kernel.network/host_send"),
            "kernel.network.self_s": s("kernel.network/"),
            "kernel.run_calls": c("kernel.sched/loop"),
            "kernel.quanta": c("kernel.cpu/run_quantum"),
            "kernel.sched_self_s": s("kernel.sched/"),
            "criu.checkpoints": c("criu.checkpoint/"),
            "criu.checkpoint_s": s("criu.checkpoint/"),
            "criu.restores": c("criu.restore/"),
            "criu.restore_s": s("criu.restore/"),
            "criu.save_s": s("criu.save/"),
            "criu.image_bytes": counts["image_bytes"],
            "core.transactions": c("core.customize/customize"),
            "core.attempts_per_commit": counts["attempts"]
            / max(counts["commits"], 1),
            "core.customize_self_s": s("core.customize/"),
            "core.rewrite_s": s("core.rewrite/"),
            "core.tracediff_s": s("core.tracediff/"),
            "analysis.liveness_s": s("analysis.liveness/"),
            "analysis.lint_s": s("analysis.lint/"),
            "analysis.flow_s": s("analysis.flow/"),
            "analysis.cfg_builds": c("analysis.cfg/build"),
            "analysis.cfg_s": s("analysis.cfg/"),
            "analysis.cfg_cache_hit_ratio": counts["cfg_cache_hits"] / cached
            if cached else 0.0,
            "tracing.blocks": c("tracing/on_block"),
            "tracing.dumps": c("tracing/dump"),
            "tracing.self_s": s("tracing/"),
            "workloads.client_self_s": s("workloads.client/"),
            "fleet.customize_s": s("fleet.customize/"),
            "fleet.probes": c("fleet.probe/"),
            "fleet.probe_s": s("fleet.probe/"),
            "fleet.tick_s": s("fleet.tick/"),
            "fleet.rollout_self_s": s("fleet.rollout/"),
            "mesh.dispatches": c("mesh.route/dispatch"),
            "mesh.failovers": counts["mesh_failovers"],
            "mesh.route_self_s": s("mesh.route/"),
            "mesh.tick_s": s("mesh.tick/"),
            "mesh.rollout_self_s": s("mesh.rollout/"),
            "telemetry.events": c("telemetry/emit"),
            "telemetry.spans": c("telemetry/span") + counts["request_spans"],
            "telemetry.self_s": s("telemetry/"),
            "toolchain.builds": c("toolchain.link/"),
            "toolchain.compile_s": s("toolchain.compile/"),
            "toolchain.link_s": s("toolchain.link/"),
            "trace.wall_s": wall,
            "trace.unattributed_s": wall - attributed,
        }
        return values

    def write_spans(self, path) -> None:
        """Write the recorded spans, one JSON object per line."""
        with open(path, "w") as handle:
            for span_id, parent, key, started, ended in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "parent": parent, "name": key,
                    "start_s": started - self.started,
                    "duration_s": ended - started,
                }) + "\n")


def _rebind(original, wrapped) -> None:
    """Point every ``from module import function`` copy at the wrapper."""
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if namespace is None or not module.__name__.startswith("repro"):
            continue
        for name, value in list(namespace.items()):
            if value is original:
                namespace[name] = wrapped


# ----------------------------------------------------------------------
# counting hooks: (before(tracer, args) -> token,
#                  after(tracer, args, result, token))


def _none(tracer, args):
    return None


def _epoch_before(tracer, args):
    return args[0].code_epoch


def _epoch_after(tracer, args, result, before):
    tracer.counts["code_epoch_bumps"] += args[0].code_epoch - before


def _syscall_after(tracer, args, result, token):
    if type(result).__name__ == "Block":
        tracer.counts["syscalls_blocked"] += 1


def _checkpoint_after(tracer, args, result, token):
    tracer.counts["image_bytes"] += result.total_bytes()


def _customize_after(tracer, args, result, token):
    tracer.counts["commits"] += 1
    tracer.counts["attempts"] += result.attempts


def _cached_before(tracer, args):
    return tracer.calls("analysis.cfg/build")


def _cached_after(tracer, args, result, builds_before):
    if tracer.calls("analysis.cfg/build") == builds_before:
        tracer.counts["cfg_cache_hits"] += 1


def _failover_after(tracer, args, result, token):
    # the frontend's pool is a plain MemberPool; per-host pools subclass it
    if type(args[0]).__name__ == "MemberPool":
        tracer.counts["mesh_failovers"] += 1


def _request_finish_after(tracer, args, result, token):
    tracer.counts["request_spans"] += len(result.spans)


_HOOKS = {
    "AddressSpace.write": (_epoch_before, _epoch_after),
    "AddressSpace.write_raw": (_epoch_before, _epoch_after),
    "AddressSpace.mmap": (_epoch_before, _epoch_after),
    "AddressSpace.munmap": (_epoch_before, _epoch_after),
    "AddressSpace.mprotect": (_epoch_before, _epoch_after),
    "SyscallTable.dispatch": (_none, _syscall_after),
    "checkpoint_tree": (_none, _checkpoint_after),
    "DynaCut.customize": (_none, _customize_after),
    "cached_cfg": (_cached_before, _cached_after),
    "MemberPool.note_failover": (_none, _failover_after),
    "RequestTracer.finish": (_none, _request_finish_after),
}
