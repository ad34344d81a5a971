"""Tests for the section 5 space/redundancy accounting."""

import pytest

from repro.core import (
    AlwaysKeySplitPolicy,
    AlwaysTimeSplitPolicy,
    ThresholdPolicy,
    TSBTree,
    collect_space_stats,
)
from repro.storage.costmodel import CostModel


def build_tree(policy, operations=400, keys=20, page_size=512):
    tree = TSBTree(page_size=page_size, policy=policy)
    for step in range(operations):
        tree.insert(step % keys, f"value-{step}".encode(), timestamp=step + 1)
    return tree


class TestBasicAccounting:
    def test_empty_tree(self):
        stats = collect_space_stats(TSBTree(page_size=512))
        assert stats.total_versions_stored == 0
        assert stats.unique_versions == 0
        assert stats.redundant_versions == 0
        assert stats.redundancy_ratio == 1.0
        assert stats.magnetic_pages == 2          # the superblock and the empty root
        assert stats.historical_bytes_used == 0
        assert stats.tree_height == 1

    def test_versions_and_keys_counted(self):
        tree = TSBTree(page_size=1024)
        for step in range(10):
            tree.insert(step % 3, f"v{step}".encode(), timestamp=step + 1)
        stats = collect_space_stats(tree)
        assert stats.unique_versions == 10
        assert stats.live_keys == 3
        assert stats.total_versions_stored == 10   # no splits yet, no redundancy

    def test_redundancy_counts_duplicated_versions(self):
        tree = build_tree(AlwaysTimeSplitPolicy("current"))
        stats = collect_space_stats(tree)
        assert stats.unique_versions == 400
        assert stats.total_versions_stored > 400
        assert stats.redundant_versions == stats.total_versions_stored - 400
        assert stats.redundancy_ratio > 1.0
        assert stats.redundant_bytes > 0

    def test_key_split_only_tree_has_no_redundancy(self):
        # Spread updates over enough keys that no node ever degenerates to a
        # single key (which would force a time split even under this policy).
        tree = build_tree(AlwaysKeySplitPolicy(), keys=100)
        stats = collect_space_stats(tree)
        assert stats.redundant_versions == 0
        assert stats.redundancy_ratio == 1.0
        assert stats.historical_bytes_used == 0
        assert stats.historical_data_nodes == 0
        assert stats.current_database_fraction == 1.0

    def test_node_counts_match_iteration(self):
        tree = build_tree(ThresholdPolicy(0.5))
        stats = collect_space_stats(tree)
        data_nodes = tree.data_nodes()
        index_nodes = tree.index_nodes()
        assert stats.current_data_nodes == sum(1 for n in data_nodes if n.address.is_magnetic)
        assert stats.historical_data_nodes == sum(1 for n in data_nodes if n.address.is_historical)
        assert stats.current_index_nodes == sum(1 for n in index_nodes if n.address.is_magnetic)
        assert stats.historical_index_nodes == sum(
            1 for n in index_nodes if n.address.is_historical
        )

    def test_magnetic_accounting_matches_device(self):
        tree = build_tree(ThresholdPolicy(0.5))
        writes_before = tree.magnetic.stats.writes
        stats = collect_space_stats(tree)
        assert tree.magnetic.stats.writes == writes_before  # read-only
        assert stats.magnetic_pages == tree.magnetic.allocated_pages
        assert stats.magnetic_bytes_used == tree.magnetic.bytes_used
        # Dirty pages are sized from their encodings: exactly what the
        # device stores once they are written back.
        assert stats.magnetic_bytes_stored != tree.magnetic.bytes_stored
        tree.flush()
        assert stats.magnetic_bytes_stored == tree.magnetic.bytes_stored
        assert stats.historical_bytes_used == tree.historical.bytes_used

    def test_counters_snapshot_included(self):
        tree = build_tree(ThresholdPolicy(0.5), operations=100)
        stats = collect_space_stats(tree)
        assert stats.counters["inserts"] == 100


class TestDerivedMetrics:
    def test_storage_cost_uses_cost_model(self):
        tree = build_tree(ThresholdPolicy(0.5))
        model = CostModel(magnetic_cost_per_byte=2.0, optical_cost_per_byte=0.5)
        stats = collect_space_stats(tree, model)
        expected = 2.0 * stats.magnetic_bytes_used + 0.5 * stats.historical_bytes_used
        assert stats.storage_cost == pytest.approx(expected)

    def test_storage_cost_absent_without_model(self):
        stats = collect_space_stats(build_tree(ThresholdPolicy(0.5), operations=50))
        assert stats.storage_cost is None

    def test_total_bytes_and_fraction(self):
        tree = build_tree(AlwaysTimeSplitPolicy("current"))
        stats = collect_space_stats(tree)
        assert stats.total_bytes_used == stats.magnetic_bytes_used + stats.historical_bytes_used
        assert 0.0 < stats.current_database_fraction < 1.0

    def test_as_dict_round_numbers(self):
        stats = collect_space_stats(build_tree(ThresholdPolicy(0.5), operations=100))
        flattened = stats.as_dict()
        assert flattened["total_bytes_used"] == stats.total_bytes_used
        assert flattened["redundancy_ratio"] == round(stats.redundancy_ratio, 4)
        assert "storage_cost" in flattened


class TestPolicyShapes:
    """The coarse section 5 expectations, at unit-test scale."""

    def test_time_split_policy_minimises_magnetic_space(self):
        key_tree = build_tree(AlwaysKeySplitPolicy())
        time_tree = build_tree(AlwaysTimeSplitPolicy("current"))
        key_stats = collect_space_stats(key_tree)
        time_stats = collect_space_stats(time_tree)
        assert time_stats.magnetic_bytes_used < key_stats.magnetic_bytes_used
        assert time_stats.historical_bytes_used > key_stats.historical_bytes_used
        assert key_stats.total_bytes_used <= time_stats.total_bytes_used

    def test_threshold_policy_sits_between_extremes(self):
        key_stats = collect_space_stats(build_tree(AlwaysKeySplitPolicy()))
        mid_stats = collect_space_stats(build_tree(ThresholdPolicy(0.5)))
        time_stats = collect_space_stats(build_tree(AlwaysTimeSplitPolicy("current")))
        assert (
            time_stats.magnetic_bytes_used
            <= mid_stats.magnetic_bytes_used
            <= key_stats.magnetic_bytes_used
        )
        assert (
            key_stats.redundant_versions
            <= mid_stats.redundant_versions
            <= time_stats.redundant_versions
        )

    def test_chosen_split_time_reduces_redundancy_versus_current_time(self):
        """Section 3.3: splitting at the last update time instead of 'now'
        avoids carrying freshly inserted records into the historical node.
        The workload alternates update bursts with insert runs, the pattern
        the paper uses to motivate the flexible split time."""

        def build(chooser: str) -> TSBTree:
            tree = TSBTree(page_size=512, policy=AlwaysTimeSplitPolicy(chooser))
            timestamp = 0
            next_new_key = 1000
            for _round in range(40):
                for hot_key in range(5):
                    timestamp += 1
                    tree.insert(hot_key, f"update-{timestamp}".encode(), timestamp=timestamp)
                for _ in range(10):
                    timestamp += 1
                    tree.insert(next_new_key, b"freshly inserted", timestamp=timestamp)
                    next_new_key += 1
            return tree

        current_tree = build("current")
        chosen_tree = build("last_update")
        assert (
            chosen_tree.counters.redundant_versions_written
            <= current_tree.counters.redundant_versions_written
        )

    def test_historical_sectors_are_well_utilised(self):
        """Section 3.7: consolidated appends nearly fill WORM sectors."""
        stats = collect_space_stats(build_tree(AlwaysTimeSplitPolicy("current")))
        assert stats.historical_sectors > 0
        assert stats.historical_utilization > 0.5
