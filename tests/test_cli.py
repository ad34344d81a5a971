"""Tests for the ``python -m repro`` command-line interface."""

import json
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main
from repro.obs import trace

ROOT = Path(__file__).resolve().parent.parent
#: Where users and later sessions copy commands from.
DOCS = ("README.md", ".claude/skills/verify/SKILL.md")


def test_setup_py_describes_the_package():
    described = subprocess.run(
        [sys.executable, "setup.py", "--name", "--version"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout.split()
    assert described == ["repro", repro.__version__]


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands_parse(self):
        parser = build_parser()
        assert parser.parse_args(["figures"]).command == "figures"
        args = parser.parse_args(["study", "S3", "--ops", "500"])
        assert args.name == "S3"
        assert args.ops == 500
        assert parser.parse_args(["demo"]).command == "demo"

    def test_engine_flags_parse(self):
        parser = build_parser()
        assert parser.parse_args(["demo"]).engine == "tsb"
        assert parser.parse_args(["demo", "--engine", "wobt"]).engine == "wobt"
        assert parser.parse_args(["study", "S1", "--engine", "naive"]).engine == "naive"
        assert parser.parse_args(["figures"]).engine == "all"
        assert parser.parse_args(["figures", "--engine", "wobt"]).engine == "wobt"
        with pytest.raises(SystemExit):
            parser.parse_args(["demo", "--engine", "btree"])

    def test_observability_commands_parse(self):
        parser = build_parser()
        stats = parser.parse_args(["stats"])
        assert (stats.command, stats.format, stats.watch) == ("stats", "table", None)
        stats = parser.parse_args(["stats", "--format", "prometheus", "--shards", "2"])
        assert (stats.format, stats.shards) == ("prometheus", 2)
        traced = parser.parse_args(["trace"])
        assert (traced.command, traced.op) == ("trace", "time_slice")
        assert parser.parse_args(["trace", "snapshot"]).op == "snapshot"
        with pytest.raises(SystemExit):
            parser.parse_args(["stats", "--format", "csv"])

    def test_every_documented_command_parses(self):
        """A README or verify-skill line naming a command this parser no
        longer has (or a flag it dropped) fails here, not in a user's shell."""
        parser = build_parser()
        rejected = []
        for doc in DOCS:
            for number, line in enumerate((ROOT / doc).read_text().splitlines(), 1):
                for rest in re.findall(r"python -m repro\b([^`\n]*)", line):
                    argv = shlex.split(rest, comments=True)
                    if not argv:
                        continue  # the bare entry point: no command to check
                    try:
                        parser.parse_args(argv)
                    except SystemExit:
                        rejected.append(f"{doc}:{number}: repro {' '.join(argv)}")
        assert not rejected, "\n".join(rejected)


class TestCommands:
    def test_demo(self, capsys):
        assert main(["demo"]) == 0
        output = capsys.readouterr().out
        assert "balance=120" in output
        assert "snapshot at T=2" in output
        assert "history of alice" in output

    @pytest.mark.parametrize("engine", ["tsb", "wobt", "naive"])
    def test_demo_gives_the_same_answers_on_every_engine(self, capsys, engine):
        assert main(["demo", "--engine", engine]) == 0
        output = capsys.readouterr().out
        assert f"engine                 : {engine}" in output
        assert "current alice          : balance=120" in output
        assert "as-of   alice at T=3   : balance=50" in output
        assert "[(1, 'balance=50'), (5, 'balance=120')]" in output

    def test_study_on_another_engine(self, capsys):
        assert main(["study", "S2", "--ops", "400", "--engine", "naive"]) == 0
        output = capsys.readouterr().out
        assert "update=0.90" in output
        assert "magnetic_bytes" in output

    def test_study_skips_when_engine_lacks_capability(self, capsys):
        assert main(["study", "S6", "--engine", "wobt"]) == 0
        output = capsys.readouterr().out
        assert "S6 skipped" in output
        assert "transactions" in output

    def test_figures_engine_filter(self, capsys):
        assert main(["figures", "--engine", "wobt"]) == 0
        output = capsys.readouterr().out
        assert "Figure 2" in output
        assert "Figure 5" not in output
        assert main(["figures", "--engine", "naive"]) == 0
        assert "No paper figures" in capsys.readouterr().out

    def test_figures(self, capsys):
        assert main(["figures"]) == 0
        output = capsys.readouterr().out
        assert "All figures reproduced." in output
        assert "Figure 9" in output

    def test_single_study(self, capsys):
        assert main(["study", "S6"]) == 0
        output = capsys.readouterr().out
        assert "transaction support" in output
        assert "read-only snapshot stability" in output

    def test_study_with_custom_ops(self, capsys):
        assert main(["study", "S2", "--ops", "600"]) == 0
        output = capsys.readouterr().out
        assert "update=0.90" in output

    def test_unknown_study_is_an_error(self, capsys):
        assert main(["study", "S99"]) == 2
        assert "unknown study" in capsys.readouterr().out

    def test_stats_table_shows_contention_and_cache(self, capsys):
        assert main(["stats", "--ops", "400", "--shards", "2", "--threads", "2"]) == 0
        output = capsys.readouterr().out
        assert "engine: sharded-tsb  shards: 2" in output
        assert "lock.waits" in output  # the deliberate conflict registered
        assert "latencies (ms):" in output
        assert "op.put_many" in output
        assert "wal.batch_size" in output
        assert "cache: hit_ratio=" in output
        assert "per-shard op latency p99 (ms):" in output

    def test_stats_json_is_parseable(self, capsys):
        assert main(
            ["stats", "--ops", "300", "--shards", "1", "--threads", "2",
             "--format", "json"]
        ) == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["engine"] == "tsb"
        assert snapshot["metrics"]["counters"]["lock.waits"] >= 1
        assert snapshot["wal"]["group_commit_size"] == 4

    def test_stats_prometheus_exposition(self, capsys):
        assert main(
            ["stats", "--ops", "300", "--shards", "2", "--threads", "2",
             "--format", "prometheus"]
        ) == 0
        output = capsys.readouterr().out
        assert "# TYPE repro_txn_commits_total counter" in output
        assert 'repro_op_put_many_bucket{le="+Inf"}' in output

    def test_trace_exports_one_span_per_shard(self, capsys, tmp_path):
        out = tmp_path / "slice.json"
        assert main(
            ["trace", "time_slice", "--ops", "400", "--shards", "2",
             "--threads", "2", "--out", str(out)]
        ) == 0
        assert not trace.enabled()  # the command restored the switch
        assert str(out) in capsys.readouterr().out
        events = json.loads(out.read_text())["traceEvents"]
        by_name = {}
        for event in events:
            by_name.setdefault(event["name"], []).append(event)
        assert len(by_name["shard.time_slice"]) == 2
        parent = by_name["store.time_slice"][0]["args"]["span_id"]
        assert all(
            event["args"]["parent_id"] == parent
            for event in by_name["shard.time_slice"]
        )

    def test_trace_time_slice_on_one_shard(self, capsys, tmp_path):
        out = tmp_path / "slice.json"
        assert main(
            ["trace", "time_slice", "--ops", "200", "--shards", "1", "--out", str(out)]
        ) == 0
        names = {event["name"] for event in json.loads(out.read_text())["traceEvents"]}
        assert "store.time_slice" in names
