"""Adapters: one :class:`~repro.api.engine.VersionedEngine` per structure.

Each adapter wraps an already-constructed backend (a
:class:`~repro.core.tsb_tree.TSBTree`, a :class:`~repro.wobt.wobt_tree.WOBT`
or a :class:`~repro.baselines.naive_multiversion.NaiveMultiversionIndex`)
and translates its native call and result conventions into the uniform
protocol.  Construction from a declarative config happens one layer up, in
:mod:`repro.api.store`.
"""

from __future__ import annotations

from itertools import repeat
from operator import itemgetter
from typing import Dict, List, Optional

from repro.api.engine import Capability, RecordView, VersionedEngine, VersionEvent
from repro.core.stats import collect_space_stats
from repro.storage.iostats import IOStats
from repro.storage.serialization import Key


def _no_keys_between(low: Optional[Key], high: Optional[Key]) -> bool:
    """An empty or inverted ``[low, high)`` holds no keys.  The raw tree
    rejects such a KeyRange outright; the other engines answer nothing —
    normalize to the uniform answer (found by the differential suite)."""
    return low is not None and high is not None and not low < high


#: The never-mutated zero counters of a tier an engine does not use.
_ZERO_IO = IOStats()


class _BackendEngine(VersionedEngine):
    """The mandatory reads, stated once over the native method names the
    three backends share (``search_current``, ``search_as_of``,
    ``range_search``, ``snapshot``, ``key_history``, ``history_between``,
    ``now``).  An engine supplies :meth:`_view`, which builds the
    :class:`RecordView` row of one of its records, and what only it can do."""

    def __init__(self, backend) -> None:
        #: The raw structure (TSBTree, WOBT or naive index).
        self.backend = backend

    def _view(self, record, key: Optional[Key] = None) -> Optional[RecordView]:
        """``record`` normalized, or ``None`` for one normalized reads hide.
        ``key`` is given where the caller knows it and the record may not."""
        raise NotImplementedError  # pragma: no cover - adapters override

    def _views(self, records, key: Optional[Key] = None) -> List[RecordView]:
        return [view for view in map(self._view, records, repeat(key)) if view is not None]

    def insert(self, key: Key, value: bytes, timestamp: Optional[int] = None) -> int:
        return self.backend.insert(key, value, timestamp=timestamp)

    def get(self, key: Key) -> Optional[RecordView]:
        return self._view(self.backend.search_current(key), key)

    def get_as_of(self, key: Key, timestamp: int) -> Optional[RecordView]:
        return self._view(self.backend.search_as_of(key, timestamp), key)

    def range_search(
        self,
        low: Optional[Key] = None,
        high: Optional[Key] = None,
        as_of: Optional[int] = None,
    ) -> List[RecordView]:
        if _no_keys_between(low, high):
            return []
        return self._views(self.backend.range_search(low, high, as_of=as_of))

    def snapshot(self, timestamp: int) -> Dict[Key, RecordView]:
        records = self.backend.snapshot(timestamp)
        return {view.key: view for view in map(self._view, records.values(), records) if view}

    def key_history(self, key: Key) -> List[RecordView]:
        return self._views(self.backend.key_history(key), key)

    def history_between(self, key: Key, start: int, end: int) -> List[RecordView]:
        return self._views(self.backend.history_between(key, start, end), key)

    @property
    def now(self) -> int:
        return self.backend.now


class TSBEngine(_BackendEngine):
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

    def _view(self, version, key=None) -> Optional[RecordView]:
        if version is None or version.is_tombstone or version.timestamp is None:
            return None
        return tuple.__new__(RecordView, (version.key, version.timestamp, version.value))

    # -- what only the tree can do --------------------------------------
    def range_search(self, low=None, high=None, as_of=None) -> List[RecordView]:
        """The as-of walk's rows, handed on as the tree built them."""
        return [] if _no_keys_between(low, high) else self.backend.range_search(low, high, as_of)

    def snapshot(self, timestamp: int) -> Dict[Key, RecordView]:
        return self.backend.snapshot(timestamp)

    def delete(self, key: Key, timestamp: Optional[int] = None) -> int:
        return self.backend.delete(key, timestamp=timestamp)

    def keys(self, low: Optional[Key] = None, high: Optional[Key] = None) -> List[Key]:
        if _no_keys_between(low, high):
            return []
        return self.backend.keys(low, high)

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
        for key, versions in self.backend.time_slice(start, end, low=low, high=high).items():
            views = self._views(versions)
            if views:
                result[key] = views
        return result

    def export_range(
        self, low: Optional[Key] = None, high: Optional[Key] = None
    ) -> List[VersionEvent]:
        # Normalized reads hide tombstones; a moved history must keep them.
        if _no_keys_between(low, high):
            return []
        tree = self.backend
        events = [
            (version.timestamp, key, version.is_tombstone, version.value)
            for key, versions in tree.time_slice(0, tree.now + 1, low, high).items()
            for version in versions
        ]
        events.sort(key=itemgetter(0))
        return events

    def has_version_at(self, key: Key, timestamp: int) -> bool:
        # A tombstone, which normalized reads hide, still occupies its
        # (key, timestamp) slot: ask the tree, not get_as_of.
        return self.backend.has_version_at(key, timestamp)

    # -- accounting ---------------------------------------------------
    def space_summary(self) -> Dict[str, float]:
        stats = collect_space_stats(self.backend)
        return {
            "magnetic_bytes": stats.magnetic_bytes_used,
            "historical_bytes": stats.historical_bytes_used,
            "total_bytes": stats.magnetic_bytes_used + stats.historical_bytes_used,
            "versions_stored": stats.total_versions_stored,
            "redundancy_ratio": round(stats.redundancy_ratio, 4),
        }

    def io_summary(self) -> Dict[str, IOStats]:
        return {
            "magnetic": self.backend.magnetic.stats,
            "historical": self.backend.historical.stats,
        }

    # -- lifecycle ------------------------------------------------------
    def flush(self) -> None:
        self.backend.flush()

    def checkpoint(self) -> None:
        self.backend.checkpoint()

    def drop_cache(self, capacity: Optional[int] = None) -> None:
        """Go cold: flush, then empty the tree's buffer pool and forget its
        kept historical nodes, so the IO studies' next query reads the
        devices."""
        self.backend.drop_caches(capacity)


class WOBTEngine(_BackendEngine):
    """Easton's Write-Once B-tree behind the uniform protocol.

    Everything lives on write-once sectors and every burn is immediately
    durable, so the WOBT has no buffer to flush and no checkpoint to take;
    those lifecycle calls raise :exc:`~repro.api.engine.CapabilityError`.
    """

    name = "wobt"
    capabilities = frozenset()

    def _view(self, record, key=None) -> Optional[RecordView]:
        if record is None:
            return None
        return tuple.__new__(RecordView, (record.key, record.timestamp, record.value))

    # -- accounting ---------------------------------------------------
    def space_summary(self) -> Dict[str, float]:
        stats = self.backend.space_stats()
        return {
            "magnetic_bytes": 0,
            "historical_bytes": stats.bytes_used,
            "total_bytes": stats.bytes_used,
            "versions_stored": stats.record_copies,
            "redundancy_ratio": round(stats.redundancy_ratio, 4),
        }

    def io_summary(self) -> Dict[str, IOStats]:
        return {"magnetic": _ZERO_IO, "historical": self.backend.worm.stats}

    def drop_cache(self, capacity: Optional[int] = None) -> None:
        """Drop the decoded-node views so reads hit the WORM sectors again.

        The WOBT's only volatile state is the unbounded dict of decoded
        views, so ``capacity`` cannot be honoured: after a drop the cache
        re-warms without limit as queries run.
        """
        del capacity
        self.backend.drop_view_cache()


class NaiveEngine(_BackendEngine):
    """The all-versions-on-magnetic B+-tree baseline behind the protocol."""

    name = "naive"
    capabilities = frozenset({Capability.FLUSH})

    def _view(self, record, key=None) -> Optional[RecordView]:
        if record is None:
            return None
        if key is None:  # a range_search row is a (key, record) pair
            key, record = record
        return tuple.__new__(RecordView, (key, record.timestamp, record.value))

    # -- accounting ---------------------------------------------------
    def space_summary(self) -> Dict[str, float]:
        stats = self.backend.space_stats()
        return {
            "magnetic_bytes": stats.magnetic_bytes_used,
            "historical_bytes": 0,
            "total_bytes": stats.magnetic_bytes_used,
            "versions_stored": stats.versions,
            "redundancy_ratio": 1.0,
        }

    def io_summary(self) -> Dict[str, IOStats]:
        return {"magnetic": self.backend.tree.magnetic.stats, "historical": _ZERO_IO}

    # -- lifecycle ------------------------------------------------------
    def flush(self) -> None:
        self.backend.tree.cache.flush()

    def drop_cache(self, capacity: Optional[int] = None) -> None:
        """Go cold: flush, then empty the B+-tree's buffer pool (same size
        unless told)."""
        self.backend.tree.cache.flush()
        self.backend.tree.cache.drop_clean(capacity)


#: Engine-name registry used by StoreConfig and the CLI ``--engine`` flags.
ENGINE_NAMES = ("tsb", "wobt", "naive")
