"""``trace`` scenario — tail-latency attribution for a rollout under chaos.

Runs the mesh chaos world (:class:`~repro.tools.mesh_cli.HostCrashWorld`:
shard-by-shard SET-removal rollout, one whole-host crash
mid-its-own-rollout) with **per-request tracing** on
and the ``verify`` trap policy, so post-rollout SET traffic traps into
the verifier and the traps land inside specific requests' span trees.
The committed report decomposes every request's wall time into the
phase vocabulary of :mod:`repro.telemetry.trace` and pins the
identities the observability layer promises:

* **per-request accounting** — for every trace, the structurally
  recomputed phase decomposition equals the live accounting and sums
  exactly to ``wall_ns`` (:func:`~repro.telemetry.attribute_traces`);
* **count identity** — traced requests == the frontend's ``issued``
  delta over the workload, and the traced outcome tags reproduce the
  ``served / failed_over / shed`` split exactly;
* **causality windows** — ``rewrite-stall`` time appears only in
  traces that actually carried a rollout step, ``trap`` time appears
  only between the first rollout step and the end-of-run heal sweep
  (which SETs through every replica so every shelved block heals at a
  known offset), and both are non-zero somewhere inside their windows;
* **tail latency** — p50/p95/p99 are exact nearest-rank percentiles
  over per-request ``wall_ns`` values, not bucket interpolations.

Run it with ``python -m repro.tools.campaign trace``; ``--check`` runs
one 2-shard seed.  The full span stream goes to the uncommitted
``.spans.jsonl`` sidecar, and the first seed's latency waterfall and
p99 timeline SVGs go next to the report.
"""

from __future__ import annotations

import pathlib
from itertools import count

from ..telemetry import (
    PHASES,
    RequestTracer,
    TelemetryHub,
    attribute_traces,
    percentile,
    to_trace_jsonl,
)
from ..workloads import SECOND_NS, TimelineEvent
from .campaign import Scenario, seeds_report
from .mesh_cli import HostCrashWorld, host_crash_flags, validate_host_crash
from .svgplot import LineChart, StackedBarChart

#: every Nth workload request is a SET (the post-rollout trap driver)
SET_EVERY = 8


def campaign_schedule(world: HostCrashWorld) -> dict[str, float]:
    """The virtual-time plan (seconds) for one traced campaign.

    Takes the host-crash world's rollout steps and crash, with
    supervision ticks forced on the 3 s marks, and appends a **heal
    sweep** strictly after both the last rollout step and the first
    tick that can recover the crashed host, so every trap (including
    re-heal traps against the recovered host's committed images) lands
    before the sweep.
    """
    last_step, crash = world.last_step_s, world.crash_s
    recovery_tick = (int(crash) // 3 + 1) * 3
    heal = max(last_step, float(recovery_tick)) + 1
    return {
        "last_step_s": last_step,
        "crash_s": crash,
        "recovery_tick_s": float(recovery_tick),
        "heal_s": heal,
        "duration_s": heal + 3,
    }


def window_checks(records: list[dict], spans_by_trace: dict[int, list]) -> dict:
    """Causality windows over the trace list, by trace index.

    Requests are traced in issue order, so "before the first rollout
    step" and "after the heal sweep" are index ranges: the stall spans
    carrying the rollout-step / heal-sweep labels pin the boundaries.
    """
    def stall_labels(trace_id: int) -> list[str]:
        return [
            str(span.attrs.get("label", ""))
            for span in spans_by_trace.get(trace_id, [])
            if span.name == "stall"
        ]

    step_indices = [
        index for index, record in enumerate(records)
        if any(
            label.startswith("rollout-step")
            for label in stall_labels(record["trace_id"])
        )
    ]
    heal_indices = [
        index for index, record in enumerate(records)
        if "heal-sweep" in stall_labels(record["trace_id"])
    ]
    if not step_indices or len(heal_indices) != 1:
        return {
            "ok": False,
            "reason": "rollout-step or heal-sweep stalls missing from traces",
        }
    first_step, last_step = step_indices[0], step_indices[-1]
    heal = heal_indices[0]

    def phase(record: dict, name: str) -> int:
        return int(record["phases"].get(name, 0))

    trap_before = sum(phase(r, "trap") for r in records[:first_step])
    trap_after = sum(phase(r, "trap") for r in records[heal + 1:])
    trap_inside = sum(phase(r, "trap") for r in records[first_step:heal + 1])
    stall_outside = sum(
        phase(r, "rewrite-stall")
        for i, r in enumerate(records)
        if not first_step <= i <= last_step
    )
    stall_inside = sum(
        phase(r, "rewrite-stall") for r in records[first_step:last_step + 1]
    )
    return {
        "ok": (
            trap_before == 0 and trap_after == 0 and trap_inside > 0
            and stall_outside == 0 and stall_inside > 0
        ),
        "first_step_index": first_step,
        "last_step_index": last_step,
        "heal_index": heal,
        "trap_ns": {
            "before_window": trap_before,
            "inside_window": trap_inside,
            "after_heal": trap_after,
        },
        "rewrite_stall_ns": {
            "inside_window": stall_inside,
            "outside_window": stall_outside,
        },
    }


def run_campaign(args, seed: int, hub: TelemetryHub) -> dict:
    world = HostCrashWorld(args, seed, hub, trap_policy="verify")
    schedule = campaign_schedule(world)
    mesh, frontend, keys = world.mesh, world.frontend, world.keys
    # one SET into every live replica, bypassing the frontend: every
    # still-shelved block heals here, so traps cannot outlive this
    # event (and issued-count accounting is untouched)
    heal_sweep = TimelineEvent(
        at_ns=int(schedule["heal_s"] * SECOND_NS), label="heal-sweep",
        action=lambda: mesh.probe_replicas("SET __heal__ 1"),
    )
    requests = count(1)

    def request_once() -> bool:
        index = next(requests)
        key = keys[index % len(keys)]
        if index % SET_EVERY == 0:
            # a write against the (eventually removed) SET path: after
            # the owning shard's rollout this traps into the verifier
            return mesh.store(key, f"update-{index}")
        return mesh.wanted_request(key=key)

    # after the baseline heartbeat, snapshot the accounting counters:
    # the workload's traced requests are exactly the issued delta
    outcomes = ("served", "failed_over", "shed")
    issued_before = frontend.issued
    counters_before = {outcome: getattr(frontend, outcome) for outcome in outcomes}
    tracer = RequestTracer()
    timeline = world.run(
        request_once, schedule["duration_s"], (heal_sweep,), tracer=tracer
    )

    stats = frontend.stats()
    attribution = attribute_traces(tracer)
    records = attribution["requests"]
    summary = attribution["summary"]

    # count identity: every issued request was traced, with the same
    # outcome split the frontend accounted
    issued_delta = stats["issued"] - issued_before
    outcome_deltas = {
        outcome: stats[outcome] - counters_before[outcome] for outcome in outcomes
    }
    traced_outcomes = {
        outcome: summary["outcomes"].get(outcome, 0) for outcome in outcomes
    }
    count_identity_ok = (
        len(records) == issued_delta == timeline.total_requests
        and traced_outcomes == outcome_deltas
    )

    spans_by_trace: dict[int, list] = {}
    for span in tracer.spans():
        spans_by_trace.setdefault(span.trace_id, []).append(span)
    windows = window_checks(records, spans_by_trace)

    walls = tracer.request_walls()
    ok = (
        world.sound(timeline)
        and summary["identity_violations"] == 0
        and count_identity_ok
        and windows["ok"]
        and summary["latency_ns"] is not None
        and summary["latency_ns"]["p99"] > 0
        and all(not ctx.unmatched_traps for ctx in tracer.traces)
    )
    return {
        "seed": seed,
        "crashed_shard": f"host-{world.target}",
        "schedule_s": schedule,
        "ok": ok,
        "accounted": stats["accounted"],
        "count_identity_ok": count_identity_ok,
        "identity_violations": summary["identity_violations"],
        "windows": windows,
        "settled": mesh.settled,
        "faults_fired": world.plan.fired,
        "traced": {
            "requests": len(records),
            "issued_delta": issued_delta,
            "outcomes": traced_outcomes,
            "frontend_outcome_deltas": outcome_deltas,
            "traps": sum(record["traps"] for record in records),
            "hops": sum(record["hops"] for record in records),
        },
        "latency_ns": summary["latency_ns"],
        "p99_timeline": p99_timeline(records, walls),
        "phase_totals_ns": summary["phase_totals_ns"],
        "frontend": stats,
        "workload": world.workload(timeline),
        "_tracer": tracer,
        "_records": records,
    }


def p99_timeline(records: list[dict], walls: list[int]) -> list[dict]:
    """Rolling per-second p99 over per-request walls (plot substrate)."""
    by_second: dict[int, list[int]] = {}
    for record, wall in zip(records, walls):
        by_second.setdefault(record["start_ns"] // SECOND_NS, []).append(wall)
    return [
        {
            "second": second,
            "requests": len(values),
            "p99_ns": percentile(values, 0.99),
        }
        for second, values in sorted(by_second.items())
    ]


def render_figures(
    output: pathlib.Path, campaigns: list[dict], hubs: list[TelemetryHub]
) -> list[pathlib.Path]:
    """The latency waterfall + p99 timeline SVGs for the first seed."""
    campaign = campaigns[0]
    waterfall = StackedBarChart(
        title=(
            f"Slowest requests by phase (seed {campaign['seed']}, "
            f"crash {campaign['crashed_shard']})"
        ),
        x_label="trace id",
        y_label="wall time (ms)",
        categories=list(PHASES),
    )
    slowest = sorted(
        campaign["_records"], key=lambda r: r["wall_ns"], reverse=True
    )[:12]
    for record in sorted(slowest, key=lambda r: r["trace_id"]):
        waterfall.add_bar(
            str(record["trace_id"]),
            {phase: ns / 1e6 for phase, ns in record["phases"].items()},
        )
    timeline = LineChart(
        title=f"Per-second p99 request wall time (seed {campaign['seed']})",
        x_label="virtual time (s)",
        y_label="p99 wall (ms)",
    )
    timeline.add_series("p99", [
        (point["second"], point["p99_ns"] / 1e6)
        for point in campaign["p99_timeline"]
    ])
    paths = [output.with_name(f"trace_{name}.svg")
             for name in ("latency_waterfall", "p99_timeline")]
    waterfall.save(paths[0])
    timeline.save(paths[1])
    return paths


def _describe(c: dict) -> str:
    t = c["traced"]
    return (f"seed {c['seed']} [crash {c['crashed_shard']}] "
            f"{'ok' if c['ok'] else 'VIOLATED'}: {t['requests']} traced "
            f"({t['traps']} traps, {t['hops']} hops), "
            f"{c['identity_violations']} identity violations, "
            f"p99 {c['latency_ns']['p99'] / 1e6:.2f} ms")


SCENARIO = Scenario(
    name="trace",
    body=run_campaign,
    summarize=lambda args, campaigns: seeds_report(
        campaigns, shards=args.shards, size_per_shard=args.size,
        routing="hash", trap_policy="verify",
    ),
    describe=_describe,
    flags=host_crash_flags,
    seeds=2,
    seed_base=900,
    output="results/trace_attribution.json",
    check={"shards": 2, "size": 2},
    validate=validate_host_crash,
    streams=lambda campaigns, hubs: {
        ".spans.jsonl": "".join(to_trace_jsonl(c["_tracer"]) for c in campaigns),
    },
    figures=render_figures,
)
