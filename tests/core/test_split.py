"""Unit and property tests for the splitting rules of paper section 3.

The rules read a node's slot columns; each test builds the node from a
version or entry list and reads the halves back as slots of that list.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.nodes import DataNode, IndexEntry, IndexNode
from repro.core.records import KeyRange, Rectangle, TimeRange, Version
from repro.core.split import (
    SlotColumns,
    SplitDecision,
    SplitError,
    SplitKind,
    candidate_split_times,
    choose_key_split_value,
    evaluate_time_split,
    index_key_split_slots,
    index_split_key,
    index_time_split_slots,
    key_split_slots,
    local_index_split_time,
    last_update_time,
    min_redundancy_split_time,
    split_region_by_key,
    split_region_by_time,
    time_split_slots,
)
from repro.storage.device import Address


def committed(key, timestamp, value=b""):
    return Version(key=key, timestamp=timestamp, value=value or f"{key}@{timestamp}".encode())


def provisional(key, txn_id):
    return Version(key=key, timestamp=None, value=b"uncommitted", txn_id=txn_id)


def columns_of(versions):
    """The slot columns of a node holding ``versions``."""
    return SlotColumns(DataNode(Address.magnetic(0), Rectangle.full(), versions))


def versions_at(columns, slots):
    """The versions in ``slots``, in the order they are listed."""
    return columns.node.carve(slots, columns.node.region).versions


def time_split(versions, split_time):
    """The rule at ``split_time``: ``(historical, current, redundant)`` versions."""
    columns = columns_of(versions)
    split = time_split_slots(columns, split_time)
    return tuple(versions_at(columns, slots) for slots in (split.historical, split.current, split.redundant))


def key_split(versions, split_key):
    columns = columns_of(versions)
    return tuple(versions_at(columns, slots) for slots in key_split_slots(columns, split_key))


# ----------------------------------------------------------------------
# Data-node time splits (the TIME-SPLIT RULE)
# ----------------------------------------------------------------------
class TestTimeSplitRule:
    def test_rule_clauses_on_simple_history(self):
        versions = [committed(1, 2), committed(1, 6), committed(2, 4), committed(2, 8)]
        historical, current, redundant = time_split(versions, 5)
        # Rule 1: strictly earlier versions go to the historical node.
        assert {(v.key, v.timestamp) for v in historical} == {(1, 2), (2, 4)}
        # Rule 2 and 3: the current node holds later versions plus the
        # version of each key valid at the split time.
        assert {(v.key, v.timestamp) for v in current} == {
            (1, 6),
            (1, 2),
            (2, 8),
            (2, 4),
        }
        assert {(v.key, v.timestamp) for v in redundant} == {(1, 2), (2, 4)}

    def test_halves_are_listed_by_key_appearance_then_rule(self):
        versions = [committed(2, 4), committed(1, 2), committed(2, 8), committed(1, 6)]
        historical, current, _redundant = time_split(versions, 5)
        assert [(v.key, v.timestamp) for v in historical] == [(2, 4), (1, 2)]
        assert [(v.key, v.timestamp) for v in current] == [(2, 8), (2, 4), (1, 6), (1, 2)]

    def test_version_exactly_at_split_time_is_not_redundant(self):
        versions = [committed(1, 2), committed(1, 5)]
        historical, current, redundant = time_split(versions, 5)
        assert {(v.key, v.timestamp) for v in historical} == {(1, 2)}
        assert {(v.key, v.timestamp) for v in current} == {(1, 5)}
        assert redundant == ()

    def test_split_with_nothing_before_raises(self):
        columns = columns_of([committed(1, 10), committed(2, 12)])
        with pytest.raises(SplitError):
            time_split_slots(columns, 5)
        assert evaluate_time_split(columns, 5) is None

    def test_provisional_versions_never_migrate(self):
        versions = [committed(1, 2), provisional(1, txn_id=9), committed(2, 3)]
        historical, current, _redundant = time_split(versions, 4)
        assert all(v.is_committed for v in historical)
        assert any(v.is_provisional for v in current)

    def test_byte_accounting(self):
        versions = [committed(1, 1, b"x" * 10), committed(1, 5, b"y" * 10)]
        split = time_split_slots(columns_of(versions), 3)
        assert split.historical_bytes == versions[0].serialized_size()
        assert split.redundant_bytes == versions[0].serialized_size()
        assert split.current_bytes == sum(v.serialized_size() for v in versions)

    @given(
        updates=st.lists(
            st.tuples(st.integers(0, 5), st.integers(1, 40)), min_size=2, max_size=30
        ),
        split_point=st.integers(2, 40),
    )
    @settings(max_examples=300)
    def test_rule_invariants_hold_for_random_histories(self, updates, split_point):
        """Property: for any history and legal split time, the three clauses hold
        and the split loses no information (any as-of query is answerable from
        the appropriate side)."""
        versions = [committed(key, stamp) for key, stamp in updates]
        columns = columns_of(versions)
        split = evaluate_time_split(columns, split_point)
        if split is None:
            assert all(v.timestamp >= split_point for v in versions)
            return
        historical = versions_at(columns, split.historical)
        current = versions_at(columns, split.current)
        # Clause 1/2 membership.
        assert all(v.timestamp < split_point for v in historical)
        for version in versions:
            if version.timestamp < split_point:
                assert version in historical
            else:
                assert version in current
        # Clause 3: for each key alive at the split time, the valid version is
        # in the current node.
        by_key = {}
        for version in versions:
            by_key.setdefault(version.key, []).append(version)
        for key, group in by_key.items():
            valid = max(
                (v for v in group if v.timestamp <= split_point),
                default=None,
                key=lambda v: v.timestamp,
            )
            if valid is not None:
                assert valid in current
        # No version is invented.
        assert set(historical) <= set(versions)
        assert set(current) <= set(versions)


class TestSplitTimeChoosers:
    def test_candidate_split_times_exclude_earliest(self):
        versions = [committed(1, 3), committed(2, 5), committed(1, 9)]
        assert candidate_split_times(columns_of(versions)) == [5, 9]

    def test_last_update_time(self):
        versions = [committed(1, 1), committed(1, 7), committed(2, 9)]
        # Key 2 has a single version (an insertion); key 1's last update is 7.
        assert last_update_time(columns_of(versions)) == 7

    def test_last_update_time_none_when_only_insertions(self):
        versions = [committed(1, 1), committed(2, 2)]
        assert last_update_time(columns_of(versions)) is None

    def test_min_redundancy_split_time_prefers_no_redundancy(self):
        # Splitting at 6 duplicates nothing (both keys have versions at >= 6
        # and their valid-at-6 versions are exactly at 6).
        versions = [committed(1, 2), committed(1, 6), committed(2, 3), committed(2, 6)]
        assert min_redundancy_split_time(columns_of(versions)) == 6

    def test_min_redundancy_handles_single_key(self):
        columns = columns_of([committed(1, 2), committed(1, 5), committed(1, 9)])
        best = min_redundancy_split_time(columns)
        assert best in {5, 9}
        assert evaluate_time_split(columns, best) is not None


# ----------------------------------------------------------------------
# Data-node key splits
# ----------------------------------------------------------------------
class TestKeySplit:
    def test_pure_key_split_moves_whole_histories(self):
        versions = [committed(1, 1), committed(1, 5), committed(9, 2), committed(9, 7)]
        left, right = key_split(versions, 9)
        assert {v.key for v in left} == {1}
        assert {v.key for v in right} == {9}
        assert len(left) + len(right) == len(versions)

    def test_halves_keep_the_list_order(self):
        versions = [committed(9, 7), committed(1, 5), committed(9, 2), committed(1, 1)]
        left, right = key_split(versions, 9)
        assert [v.timestamp for v in left] == [5, 1]
        assert [v.timestamp for v in right] == [7, 2]

    def test_degenerate_key_split_rejected(self):
        columns = columns_of([committed(5, 1), committed(5, 2)])
        with pytest.raises(SplitError):
            key_split_slots(columns, 5)
        with pytest.raises(SplitError):
            key_split_slots(columns, 100)

    def test_choose_key_split_value_balances_bytes(self):
        versions = [committed(k, k) for k in range(10)]
        split_key = choose_key_split_value(columns_of(versions))
        left, right = key_split(versions, split_key)
        assert abs(len(left) - len(right)) <= 2

    def test_choose_key_split_value_weighted_by_size(self):
        versions = [committed(1, 1, b"x" * 200)] + [
            committed(k, k, b"s") for k in range(2, 8)
        ]
        split_key = choose_key_split_value(columns_of(versions))
        # The huge key-1 history dominates; the split should land right after it.
        assert split_key == 2

    def test_choose_key_split_single_key_rejected(self):
        with pytest.raises(SplitError):
            choose_key_split_value(columns_of([committed(1, 1), committed(1, 2)]))

    @given(
        keys=st.lists(st.integers(0, 50), min_size=2, max_size=40, unique=True),
    )
    @settings(max_examples=200)
    def test_chosen_split_is_always_legal(self, keys):
        versions = [committed(key, index + 1) for index, key in enumerate(keys)]
        split_key = choose_key_split_value(columns_of(versions))
        left, right = key_split(versions, split_key)
        assert left and right
        assert all(v.key < split_key for v in left)
        assert all(v.key >= split_key for v in right)


# ----------------------------------------------------------------------
# Index-node splits
# ----------------------------------------------------------------------
def entry(child_id, key_low, key_high, time_low, time_high, historical=False):
    address = (
        Address.historical(child_id, child_id, 64)
        if historical
        else Address.magnetic(child_id)
    )
    return IndexEntry(
        child=address,
        region=Rectangle(KeyRange(key_low, key_high), TimeRange(time_low, time_high)),
    )


def index_node(entries):
    return IndexNode(Address.magnetic(90), Rectangle.full(), entries)


class TestIndexKeySplit:
    def test_straddling_historical_entry_copied_to_both(self):
        entries = [
            entry(1, None, 50, 5, None),
            entry(2, 50, None, 5, None),
            entry(3, None, None, 0, 5, historical=True),
        ]
        left, right, copied = index_key_split_slots(index_node(entries), 50)
        assert left == [0, 2] and right == [1, 2]
        assert copied == 1

    def test_no_copy_when_ranges_align_with_split(self):
        entries = [
            entry(1, None, 50, 0, 5, historical=True),
            entry(2, 50, None, 0, 5, historical=True),
            entry(3, None, 50, 5, None),
            entry(4, 50, None, 5, None),
        ]
        left, right, copied = index_key_split_slots(index_node(entries), 50)
        assert copied == 0
        assert left == [0, 2] and right == [1, 3]

    def test_empty_half_rejected(self):
        entries = [entry(1, 50, None, 0, None), entry(2, 60, None, 0, None)]
        with pytest.raises(SplitError):
            index_key_split_slots(index_node(entries), 50)

    def test_a_split_value_outside_the_key_table(self):
        entries = [entry(1, None, 50, 0, None), entry(2, 50, None, 0, None)]
        # Each split value falls inside one entry's key range: it is copied.
        assert index_key_split_slots(index_node(entries), 40) == ([0], [0, 1], 1)
        assert index_key_split_slots(index_node(entries), 60) == ([0, 1], [1], 1)

    def test_choose_index_split_key_returns_usable_value(self):
        entries = [
            entry(1, None, 20, 0, None),
            entry(2, 20, 40, 0, None),
            entry(3, 40, 60, 0, None),
            entry(4, 60, None, 0, None),
        ]
        split_key = index_split_key(index_node(entries))
        left, right, _copied = index_key_split_slots(index_node(entries), split_key)
        assert split_key == 40
        assert left and right

    def test_choose_index_split_key_rejects_unsplittable_node(self):
        entries = [
            entry(1, None, None, 0, 5, historical=True),
            entry(2, None, None, 5, None),
        ]
        with pytest.raises(SplitError):
            index_split_key(index_node(entries))


class TestIndexTimeSplit:
    def test_local_split_time_found(self):
        entries = [
            entry(1, None, 50, 0, 4, historical=True),
            entry(2, 50, None, 0, 6, historical=True),
            entry(3, None, 50, 4, None),
            entry(4, 50, None, 6, None),
        ]
        # The earliest current entry starts at 4, so 4 is the latest legal T.
        assert local_index_split_time(index_node(entries)) == 4

    def test_no_local_split_when_current_child_spans_everything(self):
        entries = [
            entry(1, None, 50, 0, None),
            entry(2, 50, None, 0, 5, historical=True),
            entry(3, 50, None, 5, None),
        ]
        assert local_index_split_time(index_node(entries)) is None

    def test_empty_entry_list(self):
        assert local_index_split_time(index_node([])) is None

    def test_index_time_split_partitions_and_copies(self):
        entries = [
            entry(1, None, 50, 0, 4, historical=True),
            entry(2, 50, None, 0, 8, historical=True),
            entry(3, None, 50, 4, None),
            entry(4, 50, None, 8, None),
        ]
        historical, current, copied = index_time_split_slots(index_node(entries), 4)
        assert historical == [0, 1]
        assert current == [1, 2, 3]
        assert copied == 1

    def test_non_local_split_rejected(self):
        entries = [
            entry(1, None, None, 0, None),      # current child crossing T
            entry(2, None, None, 0, 3, historical=True),
        ]
        with pytest.raises(SplitError):
            index_time_split_slots(index_node(entries), 5)

    def test_split_that_migrates_nothing_rejected(self):
        entries = [entry(1, None, None, 5, None)]
        with pytest.raises(SplitError):
            index_time_split_slots(index_node(entries), 6)


class TestRegionSplitting:
    def test_split_region_by_key(self):
        region = Rectangle(KeyRange(0, 100), TimeRange(3, None))
        left, right = split_region_by_key(region, 40)
        assert left == Rectangle(KeyRange(0, 40), TimeRange(3, None))
        assert right == Rectangle(KeyRange(40, 100), TimeRange(3, None))

    def test_split_region_by_time(self):
        region = Rectangle(KeyRange(0, 100), TimeRange(3, None))
        earlier, later = split_region_by_time(region, 9)
        assert earlier == Rectangle(KeyRange(0, 100), TimeRange(3, 9))
        assert later == Rectangle(KeyRange(0, 100), TimeRange(9, None))

    def test_invalid_region_splits_raise_split_error(self):
        region = Rectangle(KeyRange(0, 100), TimeRange(3, None))
        with pytest.raises(SplitError):
            split_region_by_key(region, 0)
        with pytest.raises(SplitError):
            split_region_by_time(region, 3)


class TestSplitDecision:
    def test_constructors(self):
        key_decision = SplitDecision.key(42)
        time_decision = SplitDecision.time(7)
        assert key_decision.kind is SplitKind.KEY and key_decision.split_key == 42
        assert time_decision.kind is SplitKind.TIME and time_decision.split_time == 7
