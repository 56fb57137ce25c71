"""``fleet-rollout`` / ``fleet-drift`` scenarios — DynaFleet evidence.

``fleet-rollout`` spawns N instances of a guest server behind the
balancer, then runs the policy's rollout (canary-gated or rolling) **while a
closed-loop workload keeps hammering the frontend port**: one rollout
batch executes between timeline buckets, so the emitted throughput
series shows the drains as dips, never as failures.  With ``--fault``
a seeded fault is armed during the canary's customization, and the
expected outcome flips: the rollout must abort and every instance must
end pristine.

``fleet-drift`` customizes the fleet, then shifts the workload onto the
removed feature; the drift detector attributes the resulting traps to
the active removal set and re-enables the feature fleet-wide.  The
run reports how much virtual time passed between first drifted trap
and fleet-wide re-enable.

Run them with ``python -m repro.tools.campaign fleet-rollout`` (report
in ``results/fleet_rollout.json``) and ``... fleet-drift --output FILE``.
"""

from __future__ import annotations

import argparse

from ..faults import KNOWN_SITES, FaultPlan
from ..fleet import (
    DriftDetector,
    FleetController,
    FleetPolicy,
    RolloutExecutor,
    get_app,
)
from ..kernel import Kernel
from ..telemetry import TelemetryHub
from ..workloads import SECOND_NS, TimelineEvent, run_request_timeline
from .campaign import Scenario, single_report


def _build_fleet(args, strategy: str, hub: TelemetryHub) -> FleetController:
    app = get_app(args.app)
    policy = FleetPolicy(
        features=tuple(args.feature or app.features),
        strategy=strategy,
        max_unavailable=args.max_unavailable,
        probe_requests=args.probe_requests,
    )
    controller = FleetController(Kernel(), app, policy, size=args.size)
    controller.spawn_fleet()
    hub.bind_clock(lambda: controller.kernel.clock_ns)
    return controller


def _pristine(controller: FleetController) -> bool:
    return not any(instance.customized for instance in controller.instances)


def run_rollout(args, seed: int, hub: TelemetryHub) -> dict:
    controller = _build_fleet(args, args.strategy, hub)
    app, kernel = controller.app, controller.kernel
    executor = RolloutExecutor(controller)

    plan = None
    if args.fault:
        site, __, kind = args.fault.partition(":")
        plan = FaultPlan(seed=seed).arm(
            site, kind or "permanent", on_call=1, times=args.fault_times
        )

    def step_rollout() -> None:
        if not executor.done:
            if plan is not None and executor.report.state == "pending":
                with plan:
                    executor.step()
            else:
                executor.step()

    events = [
        TimelineEvent(at_ns=(2 + 3 * i) * SECOND_NS, label=f"rollout-step-{i}",
                      action=step_rollout)
        for i in range(len(controller.instances) + 2)
    ]
    timeline = run_request_timeline(
        kernel,
        lambda: app.wanted_request(kernel, controller.frontend_port),
        duration_ns=args.duration * SECOND_NS,
        events=events,
    )
    while not executor.done and executor.step():
        pass

    report = executor.report
    if args.fault:
        clean = report.aborted and _pristine(controller)
    else:
        clean = (
            report.completed
            and timeline.failed_requests == 0
            and not timeline.errors
            and all(i.customized for i in controller.instances)
        )
    return {
        "mode": "rollout",
        "clean": clean,
        "fault": args.fault or None,
        "rollout": report.to_dict(),
        "workload": {
            "total_requests": timeline.total_requests,
            "failed_requests": timeline.failed_requests,
            "errors": len(timeline.errors),
            "throughput": timeline.throughput_series(SECOND_NS),
        },
        "fleet": controller.status(),
    }


def run_drift(args, seed: int, hub: TelemetryHub) -> dict:
    controller = _build_fleet(args, "rolling", hub)
    RolloutExecutor(controller).run()
    detector = DriftDetector(controller)
    app, kernel = controller.app, controller.kernel
    feature = controller.policy.features[0]

    def drifted_request() -> bool:
        # wanted traffic plus the formerly-cold feature: the drift
        app.wanted_request(kernel, controller.frontend_port)
        return app.feature_request(kernel, controller.frontend_port, feature)

    events = [
        TimelineEvent(at_ns=i * SECOND_NS, label=f"drift-check-{i}",
                      action=detector.check)
        for i in range(1, args.duration)
    ]
    timeline = run_request_timeline(
        kernel, drifted_request,
        duration_ns=args.duration * SECOND_NS, events=events,
    )
    detector.check()
    status = detector.status
    served_again = app.feature_request(kernel, controller.frontend_port, feature)
    clean = status.triggered and _pristine(controller) and served_again
    latency = (
        status.triggered_ns - status.first_drift_ns
        if status.triggered and status.first_drift_ns is not None else None
    )
    return {
        "mode": "drift",
        "clean": clean,
        "feature": feature,
        "drift": status.to_dict(),
        "reenable_latency_ns": latency,
        "feature_served_after_reenable": served_again,
        "workload": {
            "total_requests": timeline.total_requests,
            "failed_requests": timeline.failed_requests,
        },
        "fleet": controller.status(),
    }


def _flags(size: int, duration: int):
    def flags(parser: argparse.ArgumentParser) -> None:
        parser.add_argument("--app", default="lighttpd",
                            choices=("lighttpd", "nginx", "redis"))
        parser.add_argument("--size", type=int, default=size)
        parser.add_argument("--feature", action="append",
                            help="feature(s) to remove; default: all the app has")
        parser.add_argument("--max-unavailable", type=int, default=2)
        parser.add_argument("--probe-requests", type=int, default=4)
        parser.add_argument("--duration", type=int, default=duration,
                            help="workload duration in virtual seconds")
    return flags


def _rollout_flags(parser: argparse.ArgumentParser) -> None:
    _flags(size=8, duration=40)(parser)
    parser.add_argument("--strategy", default="canary",
                        choices=("canary", "rolling"))
    parser.add_argument("--fault", metavar="SITE[:KIND]",
                        help="arm a seeded fault during the canary; the "
                             "rollout is then expected to abort pristine")
    parser.add_argument("--fault-times", type=int, default=10)


def _validate_rollout(args: argparse.Namespace) -> str | None:
    site = (args.fault or "").partition(":")[0]
    if args.fault and site not in KNOWN_SITES:
        return f"unknown fault site {site!r}; known: {', '.join(sorted(KNOWN_SITES))}"
    return None


def _describe_rollout(p: dict) -> str:
    r, w = p["rollout"], p["workload"]
    return (f"{p['fleet']['app']} x{p['fleet']['size']} {r['strategy']}: "
            f"{r['state']} ({len(r['customized'])} customized, "
            f"{len(r['rolled_back'])} rolled back, max drained "
            f"{r['max_drained_seen']}); workload {w['total_requests']} reqs, "
            f"{w['failed_requests']} failed")


def _describe_drift(p: dict) -> str:
    d = p["drift"]
    return (f"{p['fleet']['app']} x{p['fleet']['size']} drift: "
            f"triggered={d['triggered']} after {d['checks']} checks, "
            f"reenabled={len(d['reenabled'])} instances, "
            f"latency={p['reenable_latency_ns']}ns")


SCENARIOS = (
    Scenario(
        name="fleet-rollout",
        body=run_rollout,
        summarize=single_report,
        describe=_describe_rollout,
        flags=_rollout_flags,
        seed_base=1234,
        output="results/fleet_rollout.json",
        check={"size": 2, "max_unavailable": 1, "duration": 20,
               "probe_requests": 2},
        validate=_validate_rollout,
    ),
    Scenario(
        name="fleet-drift",
        body=run_drift,
        summarize=single_report,
        describe=_describe_drift,
        flags=_flags(size=4, duration=12),
        check={"size": 2, "duration": 8, "probe_requests": 2},
    ),
)
