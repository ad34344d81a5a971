"""Adapters: one :class:`~repro.api.engine.VersionedEngine` per structure.

Each adapter wraps an already-constructed backend (a
:class:`~repro.core.tsb_tree.TSBTree`, a :class:`~repro.wobt.wobt_tree.WOBT`
or a :class:`~repro.baselines.naive_multiversion.NaiveMultiversionIndex`)
and translates its native call and result conventions into the uniform
protocol.  Construction from a declarative config happens one layer up, in
:mod:`repro.api.store`.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.api.engine import Capability, RecordView, VersionedEngine, make_view
from repro.baselines.naive_multiversion import NaiveMultiversionIndex, NaiveRecord
from repro.core.records import Version
from repro.core.stats import collect_space_stats
from repro.core.tsb_tree import TSBTree
from repro.storage.iostats import IOStats
from repro.storage.serialization import Key
from repro.wobt.nodes import WOBTRecord
from repro.wobt.wobt_tree import WOBT


def _view_from_version(version: Optional[Version]) -> Optional[RecordView]:
    if version is None or version.is_tombstone or version.timestamp is None:
        return None
    return make_view(version.key, version.timestamp, version.value)


def _view_from_wobt(record: Optional[WOBTRecord]) -> Optional[RecordView]:
    if record is None:
        return None
    return make_view(record.key, record.timestamp, record.value)


def _view_from_naive(key: Key, record: Optional[NaiveRecord]) -> Optional[RecordView]:
    if record is None:
        return None
    return make_view(key, record.timestamp, record.value)


def _no_keys_between(low: Optional[Key], high: Optional[Key]) -> bool:
    """An empty or inverted ``[low, high)`` holds no keys.  The raw tree
    rejects such a KeyRange outright; the other engines answer nothing —
    normalize to the uniform answer (found by the differential suite)."""
    return low is not None and high is not None and not low < high


class TSBEngine(VersionedEngine):
    """The TSB-tree behind the uniform protocol (the paper's contribution)."""

    name = "tsb"
    capabilities = frozenset(
        {
            Capability.DELETE,
            Capability.TRANSACTIONS,
            Capability.FLUSH,
            Capability.CHECKPOINT,
            Capability.TIERED_STORAGE,
            Capability.SECONDARY_INDEXES,
        }
    )

    def __init__(self, tree: TSBTree) -> None:
        self.tree = tree

    @property
    def backend(self) -> TSBTree:
        return self.tree

    # -- writes ---------------------------------------------------------
    def insert(self, key: Key, value: bytes, timestamp: Optional[int] = None) -> int:
        return self.tree.insert(key, value, timestamp=timestamp)

    def delete(self, key: Key, timestamp: Optional[int] = None) -> int:
        return self.tree.delete(key, timestamp=timestamp)

    # -- reads ----------------------------------------------------------
    def get(self, key: Key) -> Optional[RecordView]:
        return _view_from_version(self.tree.search_current(key))

    def get_as_of(self, key: Key, timestamp: int) -> Optional[RecordView]:
        return _view_from_version(self.tree.search_as_of(key, timestamp))

    def range_search(
        self,
        low: Optional[Key] = None,
        high: Optional[Key] = None,
        as_of: Optional[int] = None,
    ) -> List[RecordView]:
        if _no_keys_between(low, high):
            return []
        views = (
            _view_from_version(version)
            for version in self.tree.range_search(low, high, as_of=as_of)
        )
        return [view for view in views if view is not None]

    def snapshot(self, timestamp: int) -> Dict[Key, RecordView]:
        result: Dict[Key, RecordView] = {}
        for key, version in self.tree.snapshot(timestamp).items():
            view = _view_from_version(version)
            if view is not None:
                result[key] = view
        return result

    def key_history(self, key: Key) -> List[RecordView]:
        views = (_view_from_version(v) for v in self.tree.key_history(key))
        return [view for view in views if view is not None]

    def history_between(self, key: Key, start: int, end: int) -> List[RecordView]:
        views = (_view_from_version(v) for v in self.tree.history_between(key, start, end))
        return [view for view in views if view is not None]

    def keys(self, low: Optional[Key] = None, high: Optional[Key] = None) -> List[Key]:
        if _no_keys_between(low, high):
            return []
        return self.tree.keys(low, high)

    def time_slice(
        self,
        start: int,
        end: int,
        low: Optional[Key] = None,
        high: Optional[Key] = None,
    ) -> Dict[Key, List[RecordView]]:
        """The protocol's answer from one walk of the data-node level
        instead of a descent per key."""
        result: Dict[Key, List[RecordView]] = {}
        if _no_keys_between(low, high):
            return result
        for key, versions in self.tree.time_slice(start, end, low=low, high=high).items():
            views = [
                make_view(v.key, v.timestamp, v.value)
                for v in versions
                if not v.is_tombstone and v.timestamp is not None
            ]
            if views:
                result[key] = views
        return result

    def has_version_at(self, key: Key, timestamp: int) -> bool:
        # The raw history includes tombstones, which normalized reads hide;
        # a tombstone still occupies its (key, timestamp) slot.
        return any(
            version.timestamp == timestamp for version in self.tree.key_history(key)
        )

    # -- clock / accounting ---------------------------------------------
    @property
    def now(self) -> int:
        return self.tree.now

    def space_summary(self) -> Dict[str, float]:
        stats = collect_space_stats(self.tree)
        return {
            "magnetic_bytes": stats.magnetic_bytes_used,
            "historical_bytes": stats.historical_bytes_used,
            "total_bytes": stats.magnetic_bytes_used + stats.historical_bytes_used,
            "versions_stored": stats.total_versions_stored,
            "redundancy_ratio": round(stats.redundancy_ratio, 4),
        }

    def io_summary(self) -> Dict[str, IOStats]:
        return {
            "magnetic": self.tree.magnetic.stats,
            "historical": self.tree.historical.stats,
        }

    # -- lifecycle ------------------------------------------------------
    def flush(self) -> None:
        self.tree.flush()

    def checkpoint(self) -> None:
        self.tree.checkpoint()

    def drop_cache(self, capacity: Optional[int] = None) -> None:
        """Go cold: flush, then empty the tree's buffer pool (the one cache
        there is), so the IO studies' next query reads the device."""
        self.tree.drop_caches(capacity)


class WOBTEngine(VersionedEngine):
    """Easton's Write-Once B-tree behind the uniform protocol.

    Everything lives on write-once sectors and every burn is immediately
    durable, so the WOBT has no buffer to flush and no checkpoint to take;
    those lifecycle calls raise :exc:`~repro.api.engine.CapabilityError`.
    """

    name = "wobt"
    capabilities = frozenset()

    def __init__(self, wobt: WOBT) -> None:
        self.wobt = wobt
        self._zero_io = IOStats()

    @property
    def backend(self) -> WOBT:
        return self.wobt

    # -- writes ---------------------------------------------------------
    def insert(self, key: Key, value: bytes, timestamp: Optional[int] = None) -> int:
        return self.wobt.insert(key, value, timestamp=timestamp)

    # -- reads ----------------------------------------------------------
    def get(self, key: Key) -> Optional[RecordView]:
        return _view_from_wobt(self.wobt.search_current(key))

    def get_as_of(self, key: Key, timestamp: int) -> Optional[RecordView]:
        return _view_from_wobt(self.wobt.search_as_of(key, timestamp))

    def range_search(
        self,
        low: Optional[Key] = None,
        high: Optional[Key] = None,
        as_of: Optional[int] = None,
    ) -> List[RecordView]:
        views = (
            _view_from_wobt(record)
            for record in self.wobt.range_search(low, high, as_of=as_of)
        )
        return [view for view in views if view is not None]

    def snapshot(self, timestamp: int) -> Dict[Key, RecordView]:
        result: Dict[Key, RecordView] = {}
        for key, record in self.wobt.snapshot(timestamp).items():
            view = _view_from_wobt(record)
            if view is not None:
                result[key] = view
        return result

    def key_history(self, key: Key) -> List[RecordView]:
        views = (_view_from_wobt(r) for r in self.wobt.key_history(key))
        return [view for view in views if view is not None]

    def history_between(self, key: Key, start: int, end: int) -> List[RecordView]:
        views = (_view_from_wobt(r) for r in self.wobt.history_between(key, start, end))
        return [view for view in views if view is not None]

    # -- clock / accounting ---------------------------------------------
    @property
    def now(self) -> int:
        return self.wobt.now

    def space_summary(self) -> Dict[str, float]:
        stats = self.wobt.space_stats()
        return {
            "magnetic_bytes": 0,
            "historical_bytes": stats.bytes_used,
            "total_bytes": stats.bytes_used,
            "versions_stored": stats.record_copies,
            "redundancy_ratio": round(stats.redundancy_ratio, 4),
        }

    def io_summary(self) -> Dict[str, IOStats]:
        return {"magnetic": self._zero_io, "historical": self.wobt.worm.stats}

    def drop_cache(self, capacity: Optional[int] = None) -> None:
        """Drop the decoded-node views so reads hit the WORM sectors again.

        The WOBT's only volatile state is the unbounded dict of decoded
        views, so ``capacity`` cannot be honoured: after a drop the cache
        re-warms without limit as queries run.
        """
        del capacity
        self.wobt.drop_view_cache()


class NaiveEngine(VersionedEngine):
    """The all-versions-on-magnetic B+-tree baseline behind the protocol."""

    name = "naive"
    capabilities = frozenset({Capability.FLUSH})

    def __init__(self, index: NaiveMultiversionIndex) -> None:
        self.index = index
        self._zero_io = IOStats()

    @property
    def backend(self) -> NaiveMultiversionIndex:
        return self.index

    # -- writes ---------------------------------------------------------
    def insert(self, key: Key, value: bytes, timestamp: Optional[int] = None) -> int:
        return self.index.insert(key, value, timestamp=timestamp)

    # -- reads ----------------------------------------------------------
    def get(self, key: Key) -> Optional[RecordView]:
        return _view_from_naive(key, self.index.search_current(key))

    def get_as_of(self, key: Key, timestamp: int) -> Optional[RecordView]:
        return _view_from_naive(key, self.index.search_as_of(key, timestamp))

    def range_search(
        self,
        low: Optional[Key] = None,
        high: Optional[Key] = None,
        as_of: Optional[int] = None,
    ) -> List[RecordView]:
        views = (
            _view_from_naive(key, record)
            for key, record in self.index.range_search(low, high, as_of=as_of)
        )
        return [view for view in views if view is not None]

    def snapshot(self, timestamp: int) -> Dict[Key, RecordView]:
        result: Dict[Key, RecordView] = {}
        for key, record in self.index.snapshot(timestamp).items():
            view = _view_from_naive(key, record)
            if view is not None:
                result[key] = view
        return result

    def key_history(self, key: Key) -> List[RecordView]:
        views = (_view_from_naive(key, r) for r in self.index.key_history(key))
        return [view for view in views if view is not None]

    def history_between(self, key: Key, start: int, end: int) -> List[RecordView]:
        views = (
            _view_from_naive(key, r)
            for r in self.index.history_between(key, start, end)
        )
        return [view for view in views if view is not None]

    # -- clock / accounting ---------------------------------------------
    @property
    def now(self) -> int:
        return self.index.now

    def space_summary(self) -> Dict[str, float]:
        stats = self.index.space_stats()
        return {
            "magnetic_bytes": stats.magnetic_bytes_used,
            "historical_bytes": 0,
            "total_bytes": stats.magnetic_bytes_used,
            "versions_stored": stats.versions,
            "redundancy_ratio": 1.0,
        }

    def io_summary(self) -> Dict[str, IOStats]:
        return {"magnetic": self.index.tree.magnetic.stats, "historical": self._zero_io}

    # -- lifecycle ------------------------------------------------------
    def flush(self) -> None:
        self.index.tree.cache.flush()

    def drop_cache(self, capacity: Optional[int] = None) -> None:
        """Go cold: flush, then empty the B+-tree's buffer pool (same size
        unless told)."""
        self.index.tree.cache.flush()
        self.index.tree.cache.drop_clean(capacity)


#: Engine-name registry used by StoreConfig and the CLI ``--engine`` flags.
ENGINE_NAMES = ("tsb", "wobt", "naive")
