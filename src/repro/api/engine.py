"""The engine-agnostic access-method protocol.

The paper's central claim is that *one* integrated access method can serve
every query class over versioned data.  The repository reproduces three
structures that each answer (some of) those queries — the TSB-tree, Easton's
WOBT and the naive all-magnetic multiversion index — but they grew up with
incompatible ad-hoc surfaces.  This module defines the common contract:

* :class:`RecordView` — the normalized query answer: ``(key, timestamp,
  value)`` regardless of which engine produced it, so cross-engine results
  are directly comparable.
* :class:`VersionedEngine` — the abstract engine protocol: point lookup,
  as-of lookup, range scan, snapshot, key history, time-slice history,
  space and I/O accounting, and flush/checkpoint lifecycle hooks.
* :class:`Capability` / :exc:`CapabilityError` — engines differ in what
  they can do (only the TSB-tree supports transactions and logical
  deletion); unsupported operations fail loudly and uniformly instead of
  pretending.

Concrete adapters live in :mod:`repro.api.adapters`; the user-facing façade
built on top of them is :class:`repro.api.store.VersionStore`.
"""

from __future__ import annotations

import abc
import enum
from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.storage.iostats import IOStats
from repro.storage.serialization import Key


#: One committed version on the move: ``(timestamp, key, is_tombstone, value)``.
VersionEvent = Tuple[int, Key, bool, bytes]


class VersionStoreError(Exception):
    """Base class for errors raised by the unified API layer."""


class CapabilityError(VersionStoreError):
    """An operation was invoked on an engine that does not support it."""

    def __init__(self, engine: str, capability: "Capability") -> None:
        super().__init__(
            f"engine {engine!r} does not support {capability.value!r}"
        )
        self.engine = engine
        self.capability = capability


class Capability(enum.Enum):
    """Optional abilities an engine may or may not have.

    The core query classes (current / as-of / range / snapshot / history)
    are mandatory for every engine and therefore not listed here.
    """

    #: Logical deletion via tombstone versions.
    DELETE = "delete"
    #: Provisional versions, record locks and commit stamping (section 4).
    TRANSACTIONS = "transactions"
    #: A volatile buffer whose dirty pages can be forced to the device.
    FLUSH = "flush"
    #: A durable root pointer from which the engine can be reopened.
    CHECKPOINT = "checkpoint"
    #: A two-tier layout that migrates history to a cheaper device.
    TIERED_STORAGE = "tiered-storage"
    #: Versioned secondary indexes over record attributes (section 3.6).
    SECONDARY_INDEXES = "secondary-indexes"


@dataclass(frozen=True)
class RecordView:
    """One committed record version, normalized across engines.

    Whatever an engine returns internally (:class:`~repro.core.records.Version`,
    :class:`~repro.wobt.nodes.WOBTRecord`, a naive ``(timestamp, value)``
    record), the API layer presents it as this immutable triple, so two
    engines agree on a query exactly when their ``RecordView`` answers are
    equal.
    """

    key: Key
    timestamp: int
    value: bytes

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{self.key!r} @T={self.timestamp}: {self.value!r}>"


def make_view(key: Key, timestamp: int, value: bytes) -> RecordView:
    """Build a :class:`RecordView` without the frozen-dataclass ceremony.

    The adapters construct one view per record returned by every read, and
    a frozen dataclass pays an ``object.__setattr__`` call per field; bulk
    reads (range scans, snapshots, time slices) build thousands.  Fields go
    straight into ``__dict__`` — equality and hashing are unaffected, they
    read the same attributes.
    """
    view = RecordView.__new__(RecordView)
    fields_dict = view.__dict__
    fields_dict["key"] = key
    fields_dict["timestamp"] = timestamp
    fields_dict["value"] = value
    return view


class VersionedEngine(abc.ABC):
    """Abstract protocol every versioned access method adapts to.

    Subclasses (the adapters in :mod:`repro.api.adapters`) wrap one concrete
    structure and translate its native result types into
    :class:`RecordView` objects.  All read methods answer over *committed*
    data only; provisional versions are a transaction-layer concern.
    """

    #: Short engine identifier ("tsb", "wobt", "naive").
    name: str = ""
    #: The optional abilities this engine supports.
    capabilities: FrozenSet[Capability] = frozenset()

    # ------------------------------------------------------------------
    # Capability handling
    # ------------------------------------------------------------------
    def supports(self, capability: Capability) -> bool:
        return capability in self.capabilities

    def require(self, capability: Capability) -> None:
        """Raise :exc:`CapabilityError` unless ``capability`` is supported."""
        if capability not in self.capabilities:
            raise CapabilityError(self.name, capability)

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def insert(self, key: Key, value: bytes, timestamp: Optional[int] = None) -> int:
        """Write a new committed version of ``key``; return its timestamp.

        A key has at most one version per timestamp.  The backends disagree
        on equal-timestamp re-inserts, so :class:`~repro.api.store.VersionStore`
        rejects them uniformly before they reach the engine.
        """

    def delete(self, key: Key, timestamp: Optional[int] = None) -> int:
        """Write a tombstone version (requires :attr:`Capability.DELETE`)."""
        self.require(Capability.DELETE)
        raise NotImplementedError  # pragma: no cover - adapters override

    # ------------------------------------------------------------------
    # Reads (mandatory for every engine)
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def get(self, key: Key) -> Optional[RecordView]:
        """The most recent committed version of ``key``, or ``None``."""

    @abc.abstractmethod
    def get_as_of(self, key: Key, timestamp: int) -> Optional[RecordView]:
        """The version of ``key`` valid at ``timestamp``, or ``None``."""

    @abc.abstractmethod
    def range_search(
        self,
        low: Optional[Key] = None,
        high: Optional[Key] = None,
        as_of: Optional[int] = None,
    ) -> List[RecordView]:
        """Versions of keys in ``[low, high)`` valid at ``as_of`` (default now),
        sorted by key."""

    @abc.abstractmethod
    def snapshot(self, timestamp: int) -> Dict[Key, RecordView]:
        """The state of the whole database as of ``timestamp``."""

    @abc.abstractmethod
    def key_history(self, key: Key) -> List[RecordView]:
        """Every committed version of ``key``, oldest first."""

    @abc.abstractmethod
    def history_between(self, key: Key, start: int, end: int) -> List[RecordView]:
        """Versions of ``key`` valid at some point in ``[start, end)``, oldest
        first (the temporal time-slice query)."""

    def keys(self, low: Optional[Key] = None, high: Optional[Key] = None) -> List[Key]:
        """Every key in ``[low, high)`` with a committed version, sorted.
        The default — the keys of :meth:`range_search` — is complete only for
        an engine without :attr:`Capability.DELETE`, where every key ever
        written still has a current version."""
        return [record.key for record in self.range_search(low, high)]

    def time_slice(
        self,
        start: int,
        end: int,
        low: Optional[Key] = None,
        high: Optional[Key] = None,
    ) -> Dict[Key, List[RecordView]]:
        """``{key: history_between(key, start, end)}`` over the keys in
        ``[low, high)``, key-sorted, empty histories omitted (the cross-key
        time-slice query).  The default descends once per key."""
        sliced: Dict[Key, List[RecordView]] = {}
        for key in self.keys(low, high):
            records = self.history_between(key, start, end)
            if records:
                sliced[key] = records
        return sliced

    def export_range(
        self, low: Optional[Key] = None, high: Optional[Key] = None
    ) -> List[VersionEvent]:
        """Every committed version of the keys in ``[low, high)``, time-ordered
        (every engine rejects backdated commits) — how a key range's history
        leaves an engine.  The default, a :meth:`time_slice` over all time, is
        complete only for an engine without :attr:`Capability.DELETE`:
        normalized reads hide tombstones."""
        events = [
            (record.timestamp, key, False, record.value)
            for key, records in self.time_slice(0, self.now + 1, low, high).items()
            for record in records
        ]
        events.sort(key=itemgetter(0))
        return events

    def has_version_at(self, key: Key, timestamp: int) -> bool:
        """Whether ``key`` already has a version stamped exactly ``timestamp``.

        Used by the façade's one-version-per-(key, timestamp) guard.  The
        default probes :meth:`get_as_of`; engines whose histories can hold
        records invisible to normalized reads (the TSB-tree's tombstones)
        must override it to ask the raw structure.
        """
        record = self.get_as_of(key, timestamp)
        return record is not None and record.timestamp == timestamp

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    @abc.abstractmethod
    def now(self) -> int:
        """The largest committed timestamp the engine has seen."""

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def space_summary(self) -> Dict[str, float]:
        """Normalized space accounting.

        Every engine reports at least ``magnetic_bytes``, ``historical_bytes``,
        ``total_bytes``, ``versions_stored`` and ``redundancy_ratio`` so the
        experiment harness can tabulate engines side by side.
        """

    @abc.abstractmethod
    def io_summary(self) -> Dict[str, IOStats]:
        """Live per-tier I/O counters: ``{"magnetic": ..., "historical": ...}``.

        Tiers the engine does not use map to a never-mutated zero
        :class:`~repro.storage.iostats.IOStats`, so snapshot/delta accounting
        works uniformly.
        """

    def drop_cache(self, capacity: Optional[int] = None) -> None:
        """Discard volatile read caches so queries hit the devices again.

        ``capacity`` resizes the replacement cache; ``None`` (the default)
        preserves each cache's configured capacity — dropping a cache makes
        it cold, not small.  The query-I/O studies pass an explicit small
        capacity to price cold-cache access patterns.  Engines without a
        cache treat this as a no-op.
        """

    # ------------------------------------------------------------------
    # Lifecycle (capability-gated)
    # ------------------------------------------------------------------
    def flush(self) -> None:
        """Force buffered writes to the device (requires :attr:`Capability.FLUSH`)."""
        self.require(Capability.FLUSH)
        raise NotImplementedError  # pragma: no cover - adapters override

    def checkpoint(self) -> None:
        """Persist a durable root pointer (requires :attr:`Capability.CHECKPOINT`)."""
        self.require(Capability.CHECKPOINT)
        raise NotImplementedError  # pragma: no cover - adapters override

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r}, now={self.now})"
