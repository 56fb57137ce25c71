"""``mesh`` scenario — whole-host chaos against a sharded rollout.

Each seed builds a fresh mesh (``--shards`` kernels, each running its
own kvstore shard behind the consistent-hash frontend), seeds a
keyspace while SET still exists, then rolls the SET-removal policy
shard-by-shard under a closed-loop keyed GET workload — and kills one
whole host mid-its-own-rollout through the seeded ``mesh.host_crash``
site.  A campaign seed is **clean** when:

* the frontend accounting identity holds with nothing shed:
  ``issued == served + failed_over`` and zero driver errors — losing a
  whole machine cost retries, never requests;
* the rollout **aborted on the crashed shard only** and completed on
  every other shard (blast radius = one shard);
* the mesh settled: the crashed host's supervisor recovered its
  instances from their committed images and the host rejoined the
  frontend tier;
* the injection log matches the armed plan exactly.

Timing is what makes the scenario honest: rollout steps run at
``x.25`` offsets, supervision heartbeats fire as forced timeline
events on the 3 s marks, and the crash lands at ``2k+0.5`` — right
after shard *k*'s canary batch commits, and strictly before any
heartbeat can recover the host.  The frontend therefore serves from a stale view
(cross-host failover territory) until the shard's own abort gate sees
the dead host.

:class:`HostCrashWorld` builds that world — policy, keyspace, event
schedule and settle loop — for this scenario and for the traced
variant in :mod:`repro.tools.trace_cli`.  Run it with
``python -m repro.tools.campaign mesh``; ``--check`` runs one 2-shard
seed.
"""

from __future__ import annotations

import argparse
from itertools import count
from random import Random

from ..faults import FaultPlan
from ..fleet import FleetPolicy
from ..mesh import MeshController, MeshRollout, inject_host_chaos
from ..telemetry import RequestTracer, TelemetryHub
from ..workloads import (
    SECOND_NS,
    TimelineEvent,
    TimelineResult,
    run_request_timeline,
)
from .campaign import Scenario, seeds_report

#: bounded post-workload settling: mesh ticks until every shard is quiet
SETTLE_TICKS = 8
#: keys seeded before the rollout removes the write path
KEYSPACE = 32


def safe_targets(shards: int) -> list[int]:
    """Shards whose crash window fits between two heartbeats.

    Heartbeats are forced timeline events on offsets ``3m`` (the gated
    interval check would drift with per-request timing).  Shard *k*
    rolls at ``2k+0.25`` / ``2k+1.25`` and the crash lands at
    ``2k+0.5``; the only whole second inside the crash-to-gate window
    is ``2k+1``, which hosts a heartbeat iff ``2k+1 ≡ 0 (mod 3)`` —
    i.e. ``k % 3 == 1`` — and would recover the host before the abort
    gate sees it down.  Every other shard is a valid target.
    """
    return [k for k in range(shards) if k % 3 != 1]


class HostCrashWorld:
    """A spawned mesh with a seeded keyspace and a scheduled host crash.

    Shared by the ``mesh`` and ``trace`` scenarios.  The seeded rng
    picks the crashing shard among :func:`safe_targets`;
    ``policy_knobs`` (e.g. ``trap_policy``) refine the SET-removal
    policy.  The world owns the schedule: shard *k* rolls at
    ``2k+0.25`` / ``2k+1.25`` (last step at :attr:`last_step_s`) and
    its host crashes at :attr:`crash_s`.  Building ends with the
    baseline heartbeat: every instance probed once before traffic, and
    the serving epoch starts clock-aligned.
    """

    def __init__(self, args, seed: int, hub: TelemetryHub, **policy_knobs):
        self.target = target = Random(seed).choice(safe_targets(args.shards))
        self.last_step_s = 2 * (args.shards - 1) + 1.25
        self.crash_s = 2 * target + 0.5
        self.policy = FleetPolicy(
            features=("SET",),
            strategy="canary",
            probe_requests=2,
            heartbeat_interval_ns=3 * SECOND_NS,
            shards=args.shards,
            ring_replicas=32,
            host_failover_budget=2,
            **policy_knobs,
        )
        self.mesh = mesh = MeshController("redis", self.policy,
                                          size_per_shard=args.size)
        hub.bind_clock(lambda: mesh.clock.clock_ns)
        mesh.spawn_mesh()
        assert mesh.frontend is not None
        self.frontend = mesh.frontend
        self.keys = [f"key-{index}" for index in range(KEYSPACE)]
        for key in self.keys:
            mesh.store(key, f"value-of-{key}")

        self.rollout = rollout = MeshRollout(mesh)
        self.plan = FaultPlan(seed=seed).arm(
            "mesh.host_crash", "permanent", on_call=target + 1, times=1
        )
        self.steps = [
            TimelineEvent(
                at_ns=int((2 * step + offset) * SECOND_NS),
                label=f"rollout-step-{step}{suffix}",
                action=rollout.step,
            )
            for offset, suffix in ((0.25, ""), (1.25, "b"))
            for step in range(args.shards)
        ]
        mesh.tick(force=True)

    def run(
        self, request_once, duration_s: float,
        extra_events: tuple[TimelineEvent, ...] = (),
        tracer: RequestTracer | None = None,
    ) -> TimelineResult:
        """Serve ``duration_s`` under the schedule, then finish and settle."""
        mesh = self.mesh
        events = self.steps + [
            # heartbeats are driven *forced* on the 3 s marks: the gated
            # interval check drifts (every effective heartbeat overshoots
            # its nominal second by its own probe cost), which would make
            # "which tick recovers the crashed host" depend on millisecond
            # request timing instead of the safe_targets arithmetic
            TimelineEvent(
                at_ns=second * SECOND_NS, label=f"tick-{second}",
                action=lambda: mesh.tick(force=True),
            )
            for second in range(3, int(duration_s), 3)
        ] + [
            TimelineEvent(
                at_ns=int(self.crash_s * SECOND_NS), label="host-chaos",
                action=lambda: inject_host_chaos(mesh),
            ),
            *extra_events,
        ]
        with self.plan:
            timeline = run_request_timeline(
                mesh.clock,
                request_once,
                duration_ns=int(duration_s * SECOND_NS),
                events=events,
                failover_meter=lambda: self.frontend.pool.total_failovers,
                tracer=tracer,
            )
            while not self.rollout.done:
                self.rollout.step()
            for __ in range(SETTLE_TICKS):
                if mesh.settled:
                    break
                mesh.clock.clock_ns = (
                    mesh.clock.clock_ns + self.policy.heartbeat_interval_ns
                )
                mesh.tick()
        return timeline

    def sound(self, timeline: TimelineResult) -> bool:
        """The verdict terms both scenarios share."""
        return (
            self.frontend.stats()["accounted"]
            and not timeline.errors
            and self.mesh.settled
            and self.plan.fired == 1
            and self.plan.consistent_with_plan()
        )

    @staticmethod
    def workload(timeline: TimelineResult) -> dict:
        return {
            "total_requests": timeline.total_requests,
            "served": sum(point.completed for point in timeline.points),
            "failed_requests": timeline.failed_requests,
            "failed_over_requests": timeline.failed_over_requests,
            "errors": len(timeline.errors),
        }


def run_campaign(args, seed: int, hub: TelemetryHub) -> dict:
    world = HostCrashWorld(args, seed, hub)
    mesh, frontend, keys = world.mesh, world.frontend, world.keys
    seeded = frontend.issued
    requests = count(1)
    timeline = world.run(
        lambda: mesh.wanted_request(key=keys[next(requests) % len(keys)]),
        duration_s=2 * args.shards + 4,
    )

    stats = frontend.stats()
    report = world.rollout.report()
    crashed = f"host-{world.target}"
    blast_radius_ok = (
        report["state"] == "partial"
        and sorted(report["completed_shards"])
        == sorted(host.name for host in mesh.hosts if host.name != crashed)
        and list(report["aborted_shards"]) == [crashed]
    )
    ok = (
        world.sound(timeline)
        and stats["shed"] == 0
        and stats["issued"] == seeded + timeline.total_requests
        and blast_radius_ok
    )
    return {
        "seed": seed,
        "crashed_shard": crashed,
        "ok": ok,
        "accounted": stats["accounted"],
        "blast_radius_ok": blast_radius_ok,
        "settled": mesh.settled,
        "faults_fired": world.plan.fired,
        "frontend": stats,
        "rollout": {
            key: report[key]
            for key in ("state", "completed_shards", "aborted_shards")
        },
        "workload": world.workload(timeline),
        "clocks": {
            "mesh_ns": mesh.clock.clock_ns,
            "hosts_ns": {host.name: host.kernel.clock_ns for host in mesh.hosts},
        },
    }


def host_crash_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument("--size", type=int, default=2,
                        help="instances per shard")


def validate_host_crash(args: argparse.Namespace) -> str | None:
    if args.shards < 2:
        return "--shards must be >= 2 (a crash needs a survivor)"
    if args.size < 2:
        # one instance = one canary batch: the shard's rollout finishes
        # in a single step and the crash can never land mid-rollout
        return ("--size must be >= 2 (the crash lands between the canary "
                "batch and the rolling batch)")
    return None


def _describe(c: dict) -> str:
    w = c["workload"]
    return (f"seed {c['seed']} [crash {c['crashed_shard']}] "
            f"{'ok' if c['ok'] else 'VIOLATED'}: rollout "
            f"{c['rollout']['state']}, {w['total_requests']} reqs "
            f"({w['failed_over_requests']} failed over, {w['errors']} "
            f"errors), frontend shed {c['frontend']['shed']}")


SCENARIO = Scenario(
    name="mesh",
    body=run_campaign,
    summarize=lambda args, campaigns: seeds_report(
        campaigns, shards=args.shards, size_per_shard=args.size, routing="hash"
    ),
    describe=_describe,
    flags=host_crash_flags,
    seeds=3,
    seed_base=700,
    output="results/mesh_rollout.json",
    check={"shards": 2, "size": 2},
    validate=validate_host_crash,
)
