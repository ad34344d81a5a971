"""Tests for the time-slice query ``history_between`` (temporal extension)."""

import pytest

from repro.core import AlwaysTimeSplitPolicy, ThresholdPolicy, TSBTree


def build_history_tree():
    tree = TSBTree(page_size=512, policy=ThresholdPolicy(0.5))
    for timestamp, value in [(1, b"v1"), (4, b"v4"), (7, b"v7"), (10, b"v10")]:
        tree.insert("k", value, timestamp=timestamp)
    return tree


class TestHistoryBetween:
    def test_interval_covering_everything(self):
        tree = build_history_tree()
        assert [v.value for v in tree.history_between("k", 0, 100)] == [
            b"v1",
            b"v4",
            b"v7",
            b"v10",
        ]

    def test_interval_in_the_middle_includes_version_valid_at_start(self):
        tree = build_history_tree()
        # At time 5 the valid version is v4; v7 is created inside [5, 9).
        assert [v.value for v in tree.history_between("k", 5, 9)] == [b"v4", b"v7"]

    def test_interval_between_versions(self):
        tree = build_history_tree()
        assert [v.value for v in tree.history_between("k", 5, 6)] == [b"v4"]

    def test_interval_before_the_key_existed(self):
        tree = build_history_tree()
        assert tree.history_between("k", 0, 1) == []

    def test_interval_after_the_last_version(self):
        tree = build_history_tree()
        assert [v.value for v in tree.history_between("k", 50, 60)] == [b"v10"]

    def test_empty_or_inverted_interval(self):
        tree = build_history_tree()
        assert tree.history_between("k", 5, 5) == []
        assert tree.history_between("k", 9, 5) == []

    def test_unknown_key(self):
        tree = build_history_tree()
        assert tree.history_between("missing", 0, 100) == []

    def test_tombstones_appear_in_the_slice(self):
        tree = build_history_tree()
        tree.delete("k", timestamp=12)
        sliced = tree.history_between("k", 11, 20)
        assert [v.is_tombstone for v in sliced] == [False, True]
        assert tree.time_slice(11, 20) == {"k": sliced}
        assert tree.keys() == ["k"] and tree.current_keys() == []
        assert tree.time_slice(5, 5) == {} and tree.time_slice(9, 5) == {}

    def test_works_across_time_splits(self):
        tree = TSBTree(page_size=512, policy=AlwaysTimeSplitPolicy("current"))
        for timestamp in range(1, 301):
            tree.insert("hot", f"v{timestamp}".encode(), timestamp=timestamp)
        assert tree.counters.data_time_splits > 0
        sliced = tree.history_between("hot", 100, 110)
        assert [v.value for v in sliced] == [f"v{t}".encode() for t in range(100, 110)]

    def test_matches_bruteforce_oracle_on_mixed_workload(self):
        import random

        rng = random.Random(8)
        tree = TSBTree(page_size=512, policy=ThresholdPolicy(0.5))
        history = {}
        timestamp = 0
        for _ in range(300):
            timestamp += 1
            key = rng.randrange(15)
            value = f"{key}@{timestamp}".encode()
            tree.insert(key, value, timestamp=timestamp)
            history.setdefault(key, []).append((timestamp, value))
        for _ in range(60):
            key = rng.randrange(15)
            start = rng.randint(0, timestamp)
            end = start + rng.randint(1, 60)
            versions = history.get(key, [])
            expected = []
            for position, (stamp, value) in enumerate(versions):
                next_stamp = (
                    versions[position + 1][0] if position + 1 < len(versions) else None
                )
                if stamp >= end:
                    continue
                if next_stamp is not None and next_stamp <= start:
                    continue
                expected.append(value)
            observed = [v.value for v in tree.history_between(key, start, end)]
            assert observed == expected, (key, start, end)
            # The cross-key slice is the same answer from one walk, for any
            # key window around the key.
            for low, high in [(None, None), (key, key + 1), (key - 3, key + 4)]:
                sliced = tree.time_slice(start, end, low, high)
                assert [v.value for v in sliced.get(key, [])] == expected
                assert list(sliced) == sorted(sliced)
                assert all(
                    records == tree.history_between(other, start, end)
                    for other, records in sliced.items()
                )
        for key in history:
            assert tree.time_slice(0, tree.now + 1, key, key + 1)[key] == tree.key_history(key)
