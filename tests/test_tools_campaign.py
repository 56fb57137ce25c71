"""The campaign runner: sizing, determinism, and the documented commands."""

from __future__ import annotations

import json
import pathlib
import re
import shlex

import pytest

from repro.analysis import cfg as analysis_cfg
from repro.fleet import apps as fleet_apps
from repro.tools import campaign

REPO = pathlib.Path(__file__).resolve().parent.parent
DOCS = [REPO / "README.md", *sorted((REPO / "docs").glob("*.md"))]


def _prepared(argv: list[str]):
    args = campaign.build_parser().parse_args(argv)
    problem = campaign.prepare(campaign.scenarios()[args.scenario], args)
    return args, problem


class TestCheckSizing:
    @pytest.mark.parametrize("name", ["mesh", "trace"])
    def test_host_crash_check_is_one_two_shard_seed(self, name):
        args, problem = _prepared([name, "--check", "--seeds", "4",
                                   "--shards", "6", "--size", "3"])
        assert problem is None
        assert (args.seeds, args.shards, args.size) == (1, 2, 2)

    def test_check_writes_only_an_explicit_output(self, tmp_path):
        args, __ = _prepared(["supervisor", "--check"])
        assert args.output is None
        out = tmp_path / "quick.json"
        args, __ = _prepared(["supervisor", "--check", "--output", str(out)])
        assert args.output == out

    def test_default_run_targets_the_committed_result(self):
        args, __ = _prepared(["mesh"])
        assert args.output == pathlib.Path("results/mesh_rollout.json")
        assert (args.seeds, args.seed_base, args.shards) == (3, 700, 4)

    def test_drift_has_no_committed_result(self):
        args, __ = _prepared(["fleet-drift"])
        assert args.output is None

    def test_invalid_arguments_exit_2_before_running(self, capsys):
        assert campaign.main(["mesh", "--shards", "1"]) == 2
        assert "mesh: --shards must be >= 2" in capsys.readouterr().out


class TestDeterminism:
    def test_chaos_replays_byte_identical_in_one_process(self, tmp_path, capsys):
        # run one starts with a cold analysis memo and profile cache,
        # run two finds both warm: the streams must not tell them apart
        analysis_cfg._MEMO.clear()
        fleet_apps._PROFILE_CACHE.clear()
        out = tmp_path / "chaos.json"
        code = campaign.main([
            "chaos", "--app", "redis", "--seeds", "1",
            "--check-determinism", "--output", str(out),
        ])
        printed = capsys.readouterr().out
        assert code == 0, printed
        assert "determinism: byte-identical re-run" in printed
        report = json.loads(out.read_text())
        assert report["clean"] and report["total_runs"] == 1
        events = out.with_suffix(".jsonl").read_text().splitlines()
        assert len(events) == report["campaigns"][0]["telemetry"]["events"]


def _documented_commands() -> list[tuple[str, str]]:
    commands = []
    for path in DOCS:
        text = path.read_text().replace("\\\n", " ")
        for match in re.finditer(r"python -m repro\.tools\.campaign([^`\n]*)", text):
            argv = match.group(1).split("#", 1)[0].strip()
            if argv:  # a bare mention of the module is not a command line
                commands.append((path.name, argv))
    return commands


class TestDocumentedCommands:
    def test_every_documented_command_parses(self):
        commands = _documented_commands()
        assert commands
        parser = campaign.build_parser()
        for source, argv in commands:
            try:
                parser.parse_args(shlex.split(argv))
            except SystemExit:
                pytest.fail(f"{source}: `campaign {argv}` does not parse")

    def test_every_scenario_is_documented(self):
        documented = {shlex.split(argv)[0] for __, argv in _documented_commands()}
        assert documented >= set(campaign.scenarios())
