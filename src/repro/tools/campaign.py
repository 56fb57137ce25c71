"""The campaign runner: one entry point for every seeded campaign.

A :class:`Scenario` is a body that runs one recorded *unit* (one seed
by default, one ``(seed, action)`` for shelve, one app for chaos) plus
the hooks that turn unit records into its report.  The runner owns the
rest:

* every unit runs under its own fresh :class:`~repro.telemetry.TelemetryHub`
  (:func:`run_recorded`);
* ``--check`` runs one quick seed and writes only to an explicit
  ``--output``, never over a committed result;
* ``--check-determinism`` runs the campaign twice in this process and
  requires the report and every stream to be byte-identical;
* the report keeps summaries and digests; the full event streams go
  to the uncommitted ``<output>.jsonl`` sidecar (plus scenario streams
  such as ``.spans.jsonl`` or ``.prom``), from which
  :func:`~repro.telemetry.summarize_events` can rebuild the numbers.

Usage::

    python -m repro.tools.campaign SCENARIO [--seeds N] [--seed-base S]
        [--check] [--check-determinism] [--output FILE] [scenario flags]
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from dataclasses import dataclass, field
from typing import Any, Callable

from .. import telemetry
from ..telemetry import TelemetryHub, to_jsonl


@dataclass(frozen=True)
class Scenario:
    """One campaign the runner can drive.

    ``body(args, unit, hub)`` records one unit; ``summarize(args,
    records)`` builds the report from the records minus their ``_``
    keys; ``describe(record)`` is the progress line.  ``output`` is the
    committed report (``None`` writes only to an explicit ``--output``),
    ``check`` the quick sizes ``--check`` applies, ``validate(args)``
    explains invalid arguments, ``units(args)`` lists ``(label, unit)``
    pairs (default: one per seed), ``streams(records, hubs)`` adds
    ``{suffix: text}`` sidecars and ``figures(output, records, hubs)``
    writes figures.
    """

    name: str
    body: Callable[[argparse.Namespace, Any, TelemetryHub], dict]
    summarize: Callable[[argparse.Namespace, list[dict]], dict]
    describe: Callable[[dict], str]
    flags: Callable[[argparse.ArgumentParser], None]
    seeds: int = 1
    seed_base: int = 0
    output: str | None = None
    check: dict[str, Any] = field(default_factory=dict)
    validate: Callable[[argparse.Namespace], str | None] | None = None
    units: Callable[[argparse.Namespace], list[tuple[str, Any]]] | None = None
    streams: Callable[..., dict[str, str]] | None = None
    figures: Callable[..., list[pathlib.Path]] | None = None


def seed_range(args: argparse.Namespace) -> range:
    return range(args.seed_base, args.seed_base + args.seeds)


def seeds_report(campaigns: list[dict], **fields: Any) -> dict:
    """``fields``, then the verdict over records that carry ``ok``."""
    ok = sum(1 for campaign in campaigns if campaign["ok"])
    return {
        **fields,
        "clean": ok == len(campaigns),
        "campaigns_total": len(campaigns),
        "campaigns_ok": ok,
        "campaigns": campaigns,
    }


def single_report(args: argparse.Namespace, records: list[dict]) -> dict:
    """A one-unit scenario reports its record (a list for more seeds)."""
    if len(records) == 1:
        return records[0]
    return {"clean": all(r["clean"] for r in records), "campaigns": records}


def run_recorded(
    label: str, body: Callable[[TelemetryHub], dict]
) -> tuple[dict, TelemetryHub]:
    """Run one unit body under a fresh ambient telemetry hub.

    ``body`` receives the hub (bind its clock once the kernel exists)
    and returns the unit record; a ``campaign`` digest event and a
    per-record telemetry digest are attached before returning.
    """
    hub = TelemetryHub()
    with telemetry.recording(hub):
        record = body(hub)
    hub.emit(
        "campaign", label,
        events=len(hub.events),
        ok=bool(record.get("ok", record.get("clean", True))),
    )
    record["telemetry"] = {
        "events": len(hub.events),
        "counters": {
            "dispatch": hub.registry.sum_counters("dispatch_total"),
            "failover": hub.registry.sum_counters("failover_total"),
            "journal_phases": hub.registry.sum_counters("journal_phase_total"),
            "supervisor_events": hub.registry.sum_counters(
                "supervisor_events_total"
            ),
        },
    }
    return record, hub


def run_campaign(
    scenario: Scenario, args: argparse.Namespace
) -> tuple[dict[str, str], dict, list[dict], list[TelemetryHub]]:
    """Every unit once: ``(texts, report, records, hubs)``.

    ``texts`` maps ``"report"`` and each sidecar suffix to its bytes.
    """
    units = scenario.units(args) if scenario.units else [
        (str(seed), seed) for seed in seed_range(args)
    ]
    records, hubs = [], []
    for label, unit in units:
        record, hub = run_recorded(
            f"{scenario.name}-{label}",
            lambda hub, unit=unit: scenario.body(args, unit, hub),
        )
        print(scenario.describe(record))
        records.append(record)
        hubs.append(hub)
    public = [{k: v for k, v in r.items() if not k.startswith("_")} for r in records]
    report = scenario.summarize(args, public)
    texts = {
        "report": json.dumps(report, indent=2) + "\n",
        ".jsonl": "".join(to_jsonl(hub) for hub in hubs),
        **(scenario.streams(records, hubs) if scenario.streams else {}),
    }
    return texts, report, records, hubs


def prepare(scenario: Scenario, args: argparse.Namespace) -> str | None:
    """Apply --check sizing or the default output; validate the rest."""
    if args.check:
        args.seeds = 1
        for key, value in scenario.check.items():
            setattr(args, key, value)
    elif args.output is None and scenario.output:
        args.output = pathlib.Path(scenario.output)
    return scenario.validate(args) if scenario.validate else None


def run(scenario: Scenario, args: argparse.Namespace) -> int:
    """Drive ``scenario`` to a verdict; returns the process exit code."""
    problem = prepare(scenario, args)
    if problem:
        print(f"{scenario.name}: {problem}")
        return 2
    texts, report, records, hubs = run_campaign(scenario, args)
    if args.check_determinism:
        replay = run_campaign(scenario, args)[0]
        diverged = [key for key, text in texts.items() if replay[key] != text]
        if diverged:
            print(f"DETERMINISM VIOLATED: the re-run diverged in {diverged}")
            return 1
        print(f"determinism: byte-identical re-run ({', '.join(texts)})")
    verdict = "CLEAN" if report["clean"] else "VIOLATED"
    written = []
    if args.output is not None:
        args.output.parent.mkdir(parents=True, exist_ok=True)
        for key, text in texts.items():
            path = args.output if key == "report" else args.output.with_suffix(key)
            path.write_text(text)
            written.append(path)
        if scenario.figures:
            written += scenario.figures(args.output, records, hubs)
    print(f"{verdict} {scenario.name} ({len(records)} units) -> "
          f"{', '.join(map(str, written)) or 'nothing written'}")
    return 0 if report["clean"] else 1


def scenarios() -> dict[str, Scenario]:
    """Every registered scenario, by name."""
    from . import (
        chaos_cli,
        fleet_cli,
        mesh_cli,
        shelve_cli,
        supervisor_cli,
        telemetry_cli,
        trace_cli,
    )

    registered = [
        chaos_cli.SCENARIO, supervisor_cli.SCENARIO, *fleet_cli.SCENARIOS,
        mesh_cli.SCENARIO, shelve_cli.SCENARIO, telemetry_cli.SCENARIO,
        trace_cli.SCENARIO,
    ]
    return {scenario.name: scenario for scenario in registered}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m repro.tools.campaign")
    sub = parser.add_subparsers(dest="scenario", required=True)
    for scenario in scenarios().values():
        child = sub.add_parser(scenario.name)
        child.add_argument("--seeds", type=int, default=scenario.seeds,
                           help=f"seeds to record (default {scenario.seeds})")
        child.add_argument("--seed-base", type=int, default=scenario.seed_base,
                           help=f"the first seed (default {scenario.seed_base})")
        child.add_argument("--check", action="store_true",
                           help="one quick seed; writes only to --output")
        child.add_argument("--check-determinism", action="store_true",
                           help="run twice; require byte-identical exports")
        child.add_argument("--output", type=pathlib.Path,
                           help=f"report path (default {scenario.output})")
        scenario.flags(child)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return run(scenarios()[args.scenario], args)


if __name__ == "__main__":
    sys.exit(main())
