"""Tests for experiment metrics and the ASCII report renderer."""

import pytest

from repro.analysis.metrics import (
    ExperimentRow,
    QueryCost,
    query_cost_from_deltas,
    space_row,
    summarize_rows,
)
from repro.analysis.report import format_value, render_comparison, render_table, rows_to_dicts
from repro.core import ThresholdPolicy, TSBTree, collect_space_stats
from repro.core.stats import merge_space_summaries
from repro.core.tsb_tree import TreeCounters, merge_tree_counters
from repro.storage.costmodel import CostModel
from repro.storage.iostats import IOStats, merge_io_summaries


class TestQueryCost:
    def test_from_deltas(self):
        magnetic = IOStats(reads=3, bytes_read=3000, seeks=3)
        optical = IOStats(reads=2, bytes_read=2000, seeks=2, mounts=1)
        cost = query_cost_from_deltas(magnetic, optical, CostModel())
        assert cost.magnetic_reads == 3
        assert cost.historical_reads == 2
        assert cost.mounts == 1
        assert cost.total_reads == 5
        assert cost.bytes_read == 5000
        assert cost.estimated_ms > 20_000  # the mount dominates

    def test_as_dict(self):
        cost = QueryCost(magnetic_reads=1, historical_reads=2, mounts=0, bytes_read=10, estimated_ms=1.5)
        assert cost.as_dict()["historical_reads"] == 2
        assert cost.as_dict()["device_time_ms"] == 0.0

    def test_device_time_comes_from_simulated_service_time(self):
        magnetic = IOStats(reads=2, service_time_s=0.004)
        optical = IOStats(reads=1, service_time_s=0.0015)
        cost = query_cost_from_deltas(magnetic, optical, CostModel())
        assert cost.device_time_ms == pytest.approx(5.5)


class TestRows:
    def test_space_row_extracts_section5_columns(self):
        tree = TSBTree(page_size=512, policy=ThresholdPolicy(0.5))
        for step in range(150):
            tree.insert(step % 10, b"payload", timestamp=step + 1)
        stats = collect_space_stats(tree, CostModel())
        row = space_row("demo", stats, {"extra_metric": 7})
        for column in (
            "magnetic_bytes",
            "historical_bytes",
            "total_bytes",
            "redundancy_ratio",
            "current_db_fraction",
            "storage_cost",
            "extra_metric",
        ):
            assert column in row.metrics
        assert row.label == "demo"

    def test_merged_with_does_not_mutate(self):
        row = ExperimentRow("x", {"a": 1})
        merged = row.merged_with({"b": 2})
        assert merged.metrics == {"a": 1, "b": 2}
        assert row.metrics == {"a": 1}

    def test_summarize_rows(self):
        rows = [ExperimentRow("p1", {"m": 1}), ExperimentRow("p2", {"m": 5})]
        assert summarize_rows(rows, "m") == {"p1": 1, "p2": 5}
        assert summarize_rows(rows, "absent") == {}


class TestShardRollups:
    """Aggregation of per-shard accounting into one store-level summary."""

    def test_merge_io_summaries_sums_per_tier(self):
        merged = merge_io_summaries(
            [
                {"magnetic": IOStats(reads=3, bytes_read=300), "historical": IOStats(mounts=1)},
                {"magnetic": IOStats(reads=5, writes=2), "historical": IOStats(reads=4)},
            ]
        )
        assert merged["magnetic"].reads == 8
        assert merged["magnetic"].writes == 2
        assert merged["magnetic"].bytes_read == 300
        assert merged["historical"].reads == 4
        assert merged["historical"].mounts == 1

    def test_merge_io_summaries_copies_rather_than_aliases(self):
        live = IOStats(reads=1)
        merged = merge_io_summaries([{"magnetic": live, "historical": IOStats()}])
        live.record_read(100)
        assert merged["magnetic"].reads == 1  # a snapshot, not the live object

    def test_merge_io_summaries_sums_service_time(self):
        merged = merge_io_summaries(
            [
                {"magnetic": IOStats(reads=1, service_time_s=0.25)},
                {"magnetic": IOStats(reads=1, service_time_s=0.5)},
            ]
        )
        assert merged["magnetic"].service_time_s == pytest.approx(0.75)

    def test_tree_counters_combined_sums_without_mutating(self):
        first = TreeCounters(inserts=2, index_key_splits=1, aborts=1)
        second = TreeCounters(inserts=3, index_time_splits=4, redundant_versions_written=7)
        combined = first.combined(second)
        assert combined.inserts == 5
        assert combined.index_key_splits == 1
        assert combined.index_time_splits == 4
        assert combined.redundant_versions_written == 7
        assert combined.aborts == 1
        assert first.inserts == 2 and second.inserts == 3  # inputs untouched

    def test_merge_tree_counters_sums_every_field(self):
        merged = merge_tree_counters(
            [
                TreeCounters(inserts=10, data_key_splits=2, commits=1),
                TreeCounters(inserts=5, data_time_splits=3, commits=4),
            ]
        )
        assert merged.inserts == 15
        assert merged.data_key_splits == 2
        assert merged.data_time_splits == 3
        assert merged.commits == 5
        assert merged.total_splits == 5

    def test_merge_space_summaries_recomputes_the_ratio(self):
        # Shard A: 100 stored / 100 unique (ratio 1); shard B: 300 / 200
        # (ratio 1.5).  Aggregate: 400 / 300, not the mean of the ratios.
        merged = merge_space_summaries(
            [
                {
                    "magnetic_bytes": 1000,
                    "historical_bytes": 0,
                    "total_bytes": 1000,
                    "versions_stored": 100,
                    "redundancy_ratio": 1.0,
                },
                {
                    "magnetic_bytes": 500,
                    "historical_bytes": 2000,
                    "total_bytes": 2500,
                    "versions_stored": 300,
                    "redundancy_ratio": 1.5,
                },
            ]
        )
        assert merged["magnetic_bytes"] == 1500
        assert merged["historical_bytes"] == 2000
        assert merged["total_bytes"] == 3500
        assert merged["versions_stored"] == 400
        assert merged["redundancy_ratio"] == pytest.approx(400 / 300, abs=1e-3)
        assert merged["shards"] == 2


class TestReportRendering:
    def test_format_value(self):
        assert format_value(1234567) == "1,234,567"
        assert format_value(3.14159) == "3.142"
        assert format_value(2.0) == "2"
        assert format_value("text") == "text"
        assert format_value(True) == "True"

    def test_render_table_alignment_and_content(self):
        rows = [
            ExperimentRow("always-key", {"bytes": 1000, "ratio": 1.0}),
            ExperimentRow("always-time", {"bytes": 2500, "ratio": 2.345}),
        ]
        table = render_table(rows)
        lines = table.splitlines()
        assert len(lines) == 4  # header, separator, two rows
        assert "always-key" in lines[2]
        assert "2,500" in table
        assert "2.345" in table
        # All lines align to the same width.
        assert len({len(line) for line in lines}) == 1

    def test_render_table_with_explicit_columns(self):
        rows = [ExperimentRow("a", {"x": 1, "y": 2})]
        table = render_table(rows, columns=["y"])
        assert "y" in table and "x" not in table

    def test_render_table_empty(self):
        assert render_table([]) == "(no results)"

    def test_render_table_fills_missing_cells(self):
        rows = [ExperimentRow("a", {"x": 1}), ExperimentRow("b", {"y": 2})]
        table = render_table(rows)
        assert "x" in table and "y" in table

    def test_render_comparison_has_title(self):
        rows = [ExperimentRow("a", {"x": 1})]
        block = render_comparison("S1: demo", rows)
        assert block.startswith("S1: demo\n========")

    def test_rows_to_dicts(self):
        rows = [ExperimentRow("a", {"x": 1})]
        assert rows_to_dicts(rows) == [{"label": "a", "x": 1}]
