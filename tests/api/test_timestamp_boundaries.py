"""Exact-timestamp boundary regressions, uniform across every engine.

The differential harness (test_differential.py) probes random windows; the
tests here pin the *boundary* cases deterministically so an off-by-one in
any engine's as-of or window arithmetic fails with a readable name:

* ``get_as_of`` exactly AT a version's commit timestamp (inclusive), one
  tick before (previous version) and one tick after (unchanged);
* ``history_between`` windows that open or close exactly on a commit
  timestamp, including empty ``[t, t)`` windows;
* the same probes exactly at the TSB-tree's *time-split* boundaries, where
  rule-3 redundancy duplicates the version alive at the split time into
  the current node — the answer must contain it exactly once.

Every probe is checked on all three engines and against a dict oracle, so
the answers are equal across engines *and* correct.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import pytest

from repro.api import ShardSpec, StoreConfig, VersionStore

#: (key, timestamp, value) writes with gaps between stamps so that the
#: one-tick-before/after probes land strictly between versions.
WRITES: List[Tuple[int, int, bytes]] = []
_stamp = 0
for _round in range(6):
    for _key in range(8):
        _stamp += 3
        WRITES.append((_key, _stamp, b"v%d@%d" % (_key, _stamp)))
FINAL = WRITES[-1][1]


def _oracle_as_of(key: int, timestamp: int) -> Optional[Tuple[int, bytes]]:
    answer = None
    for k, stamp, value in WRITES:
        if k == key and stamp <= timestamp:
            answer = (stamp, value)
    return answer


def _oracle_between(key: int, start: int, end: int) -> List[Tuple[int, bytes]]:
    if start >= end:
        return []
    versions = [(stamp, value) for k, stamp, value in WRITES if k == key]
    rows = []
    for position, (stamp, value) in enumerate(versions):
        next_stamp = versions[position + 1][0] if position + 1 < len(versions) else None
        if stamp >= end:
            continue
        if next_stamp is not None and next_stamp <= start:
            continue
        rows.append((stamp, value))
    return rows


@pytest.fixture(scope="module")
def loaded_stores():
    stores: Dict[str, VersionStore] = {}
    for engine in ("tsb", "wobt", "naive"):
        # A small page on the TSB store forces key AND time splits, so the
        # boundary probes below cross real node seams.
        store = VersionStore.open(StoreConfig(engine=engine, page_size=512))
        for key, stamp, value in WRITES:
            store.insert(key, value, timestamp=stamp)
        stores[engine] = store
    yield stores
    for store in stores.values():
        store.close()


def _probe_stamps() -> List[int]:
    stamps = sorted({stamp for _, stamp, _ in WRITES})
    probes = {1, FINAL + 1}
    for stamp in stamps:
        probes.update((stamp - 1, stamp, stamp + 1))
    return sorted(probes)


class TestAsOfBoundaries:
    def test_as_of_is_inclusive_at_the_exact_commit_stamp(self, loaded_stores):
        for key, stamp, value in WRITES:
            for name, store in loaded_stores.items():
                view = store.get_as_of(key, stamp)
                assert view is not None, (name, key, stamp)
                assert (view.timestamp, view.value) == (stamp, value), (name, key, stamp)

    def test_one_tick_before_sees_the_previous_version(self, loaded_stores):
        for key, stamp, _value in WRITES:
            expected = _oracle_as_of(key, stamp - 1)
            for name, store in loaded_stores.items():
                view = store.get_as_of(key, stamp - 1)
                got = None if view is None else (view.timestamp, view.value)
                assert got == expected, (name, key, stamp - 1)

    def test_every_probe_stamp_matches_the_oracle_on_every_engine(self, loaded_stores):
        for timestamp in _probe_stamps():
            for key in range(8):
                expected = _oracle_as_of(key, timestamp)
                for name, store in loaded_stores.items():
                    view = store.get_as_of(key, timestamp)
                    got = None if view is None else (view.timestamp, view.value)
                    assert got == expected, (name, key, timestamp)


    def test_a_sharded_store_answers_nothing_before_time_zero(self, loaded_stores):
        """A sharded store inherits its engine's answers: on TSB shards these
        reads used to raise from inside the tree walk."""
        spec = ShardSpec.for_int_keys(2, key_space=8)
        with VersionStore.open(StoreConfig(engine="tsb", page_size=512, shards=spec)) as sharded:
            for key, stamp, value in WRITES:
                sharded.insert(key, value, timestamp=stamp)
            reference = loaded_stores["naive"]
            assert sharded.get_as_of(3, -1) is None
            assert sharded.range_search(0, 8, as_of=-1) == []
            assert sharded.snapshot(-1) == {}
            assert sharded.time_slice(-5, 7) == reference.time_slice(-5, 7) != {}


class TestHistoryBetweenBoundaries:
    def test_empty_window_at_a_commit_stamp_is_empty(self, loaded_stores):
        for key, stamp, _value in WRITES[:: 7]:
            for name, store in loaded_stores.items():
                assert store.history_between(key, stamp, stamp) == [], (name, key, stamp)

    def test_window_closing_exactly_on_a_stamp_excludes_it(self, loaded_stores):
        """``end`` is exclusive: a version committed exactly at ``end`` is out."""
        for key, stamp, _value in WRITES:
            expected = _oracle_between(key, 0, stamp)
            for name, store in loaded_stores.items():
                got = [
                    (view.timestamp, view.value)
                    for view in store.history_between(key, 0, stamp)
                ]
                assert got == expected, (name, key, stamp)

    def test_window_opening_exactly_on_a_stamp_includes_it(self, loaded_stores):
        """``start`` is inclusive for the version valid at that instant."""
        for key, stamp, _value in WRITES:
            expected = _oracle_between(key, stamp, FINAL + 1)
            for name, store in loaded_stores.items():
                got = [
                    (view.timestamp, view.value)
                    for view in store.history_between(key, stamp, FINAL + 1)
                ]
                assert got == expected, (name, key, stamp)

    def test_single_tick_windows_around_every_stamp(self, loaded_stores):
        for key, stamp, _value in WRITES:
            for start, end in ((stamp, stamp + 1), (stamp - 1, stamp), (stamp - 1, stamp + 1)):
                expected = _oracle_between(key, start, end)
                for name, store in loaded_stores.items():
                    got = [
                        (view.timestamp, view.value)
                        for view in store.history_between(key, start, end)
                    ]
                    assert got == expected, (name, key, start, end)


class TestSplitTimeBoundaries:
    """Probes exactly at the TSB-tree's time-split seams.

    A version alive at the split time exists twice on disk (rule-3
    redundancy: once in the historical node, once in the current one); the
    query layer must still answer with exactly one copy, and the other
    engines — which never split — must agree.
    """

    def _split_times(self, store: VersionStore) -> List[int]:
        tree = store.backend
        times = sorted(
            {
                node.region.times.start
                for node in tree.data_nodes()
                if node.region.times.start > 0
            }
        )
        return times

    def test_workload_produced_time_splits(self, loaded_stores):
        assert self._split_times(loaded_stores["tsb"]), (
            "workload no longer forces time splits; boundary probes are dead"
        )

    def test_answers_at_exact_split_times_match_everywhere(self, loaded_stores):
        split_times = self._split_times(loaded_stores["tsb"])
        for boundary in split_times:
            for probe in (boundary - 1, boundary, boundary + 1):
                for key in range(8):
                    expected = _oracle_as_of(key, probe)
                    for name, store in loaded_stores.items():
                        view = store.get_as_of(key, probe)
                        got = None if view is None else (view.timestamp, view.value)
                        assert got == expected, (name, key, probe, boundary)

    def test_windows_anchored_at_split_times_have_no_duplicates(self, loaded_stores):
        split_times = self._split_times(loaded_stores["tsb"])
        for boundary in split_times:
            for start, end in (
                (boundary, FINAL + 1),
                (0, boundary),
                (boundary - 1, boundary + 1),
            ):
                for key in range(8):
                    expected = _oracle_between(key, start, end)
                    for name, store in loaded_stores.items():
                        got = [
                            (view.timestamp, view.value)
                            for view in store.history_between(key, start, end)
                        ]
                        assert got == expected, (name, key, start, end, boundary)
                        assert len(set(got)) == len(got), (name, key, start, end)
