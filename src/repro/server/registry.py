"""Per-tenant store registry: open-on-first-use, resume-on-reopen.

The server multiplexes many logical databases ("tenants") behind one
listener.  A :class:`StoreRegistry` owns the mapping:

* the **catalog** declares each tenant's :class:`~repro.api.StoreConfig`
  up front (engine, page size, WAL, sharding);
* a tenant's store is **opened on first use** — a server with a thousand
  catalogued tenants pays only for the ones clients actually touch;
* **closing a tenant retains its devices**: for engines that persist a
  checkpointed root (the TSB-tree, sharded or not), the registry snapshots
  each shard's devices (magnetic, historical and — under a WAL — the log)
  plus a sharded store's boundary layout, and the next :meth:`get`
  *resumes* from them instead of formatting fresh ones.  Reopen-after-close
  therefore preserves every committed version and goes on writing the same
  log; recreating the devices (the naive implementation) would silently
  serve an empty database.
* :meth:`close_all` is the clean-shutdown hook: every open store is closed
  (checkpointing where supported), with resume state retained so the same
  registry can serve again.

Thread safety: every method takes the registry lock.  Store *operations*
are not the registry's concern — the stores themselves are thread-safe —
only open/close/resume transitions are serialized here.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.api.engine import VersionStoreError
from repro.api.sharded import ShardedVersionStore
from repro.api.store import StoreConfig, VersionStore
from repro.storage.serialization import Key


class UnknownTenantError(VersionStoreError):
    """A request named a tenant the catalog does not declare."""


class TenantNotResumableError(VersionStoreError):
    """A closed tenant's engine cannot be reopened from its devices."""


@dataclass
class _ResumeState:
    """Everything needed to reopen a closed tenant on its own devices."""

    #: One ``(magnetic, historical, log device or None)`` triple per shard (a
    #: single-store tenant has exactly one): the log goes on being written
    #: where it stopped, so a crash after the reopen still recovers what was
    #: acknowledged before the close.
    shard_devices: List[Tuple[object, object, Optional[object]]]
    #: Key-range boundaries at close time (empty for a single store).
    boundaries: List[Key] = field(default_factory=list)


class StoreRegistry:
    """Open-on-first-use tenant stores over a declarative catalog."""

    def __init__(self, catalog: Dict[str, StoreConfig]) -> None:
        if not catalog:
            raise ValueError("a registry needs at least one catalogued tenant")
        self._catalog = dict(catalog)
        self._stores: Dict[str, VersionStore] = {}
        self._resume: Dict[str, _ResumeState] = {}
        self._read_only: set = set()
        self._lock = threading.Lock()
        self._closed = False

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def catalog(self) -> Dict[str, StoreConfig]:
        return dict(self._catalog)

    def tenants(self) -> List[str]:
        """Every catalogued tenant name, sorted."""
        return sorted(self._catalog)

    def open_tenants(self) -> List[str]:
        """Tenants whose stores are currently open, sorted."""
        with self._lock:
            return sorted(
                name for name, store in self._stores.items() if not store.closed
            )

    def config_for(self, tenant: str) -> StoreConfig:
        try:
            return self._catalog[tenant]
        except KeyError:
            raise UnknownTenantError(
                f"unknown tenant {tenant!r}; catalogued: {', '.join(self.tenants())}"
            ) from None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def get(self, tenant: str) -> VersionStore:
        """The tenant's open store — opened (or resumed) on first use.

        The common case — the store is already open — is answered from a
        plain dict read without taking the registry lock: this method sits
        on the server's per-request hot path, and serializing every request
        of every tenant through one mutex would contend for nothing.  (A
        store closed concurrently with the lock-free read fails its own
        operation with a closed-store error, exactly as it would have had
        the caller won the race under the lock.)  Open/resume transitions
        still serialize on the lock.
        """
        store = self._stores.get(tenant)
        if store is not None and not store.closed:
            return store
        config = self.config_for(tenant)
        with self._lock:
            if self._closed:
                raise VersionStoreError("this StoreRegistry has been shut down")
            store = self._stores.get(tenant)
            if store is not None and not store.closed:
                return store
            resume = self._resume.pop(tenant, None)
            store = self._open(config, resume)
            self._stores[tenant] = store
            return store

    def install(
        self, tenant: str, store: VersionStore, read_only: bool = False
    ) -> None:
        """Register an externally built, already-open store under ``tenant``.

        The replication tier uses this to serve a :class:`Replica`'s
        follower store through an ordinary :class:`ReproServer`: the store
        is assembled by the replication machinery (its tree is fed by WAL
        replay, not by client writes), then installed here — with
        ``read_only=True`` so the server refuses the write opcodes while
        the replay tailer remains the only writer.
        """
        with self._lock:
            if self._closed:
                raise VersionStoreError("this StoreRegistry has been shut down")
            self._catalog[tenant] = store.config
            self._stores[tenant] = store
            if read_only:
                self._read_only.add(tenant)
            else:
                self._read_only.discard(tenant)

    def is_read_only(self, tenant: str) -> bool:
        """Whether ``tenant`` was installed follower-side (writes refused)."""
        return tenant in self._read_only

    def durable_lsns(self, tenant: str) -> List[int]:
        """Per-shard durable LSNs for the tenant's open store.

        One entry per shard (a single store answers one entry); ``0`` where
        no WAL is attached.  This is the resume vector a replication
        subscriber presents as ``SUBSCRIBE(shard, from_lsn)``.
        """
        store = self.get(tenant)
        if isinstance(store, ShardedVersionStore):
            return store.durable_lsns()
        return [store.durable_lsn()]

    @staticmethod
    def _open(config: StoreConfig, resume: Optional[_ResumeState]) -> VersionStore:
        if resume is None:
            return VersionStore.open(config)
        if config.shards is not None:
            return ShardedVersionStore.resume_sharded(
                config,
                shard_devices=resume.shard_devices,
                boundaries=resume.boundaries,
            )
        magnetic, historical, log_device = resume.shard_devices[0]
        return VersionStore.open(
            config, magnetic=magnetic, historical=historical, log_device=log_device
        )

    def close_tenant(self, tenant: str) -> None:
        """Close one tenant's store, retaining its devices for a resume.

        Engines without a checkpointed root (``wobt``, ``naive``, and
        sharded stores over them) cannot be reopened from devices; closing
        such a tenant raises :exc:`TenantNotResumableError` *before*
        closing, so no data is silently lost.  Use :meth:`close_all` at
        shutdown, where losing the in-memory simulation is the point.
        """
        self.config_for(tenant)
        with self._lock:
            store = self._stores.get(tenant)
            if store is None or store.closed:
                return
            resume = self._capture_resume_state(store)
            if resume is None:
                raise TenantNotResumableError(
                    f"tenant {tenant!r} ({store.config.engine!r}) has no "
                    "checkpointed root to resume from; only TSB-backed "
                    "tenants support close-and-reopen"
                )
            store.close()
            self._resume[tenant] = resume
            del self._stores[tenant]

    @staticmethod
    def _capture_resume_state(store: VersionStore) -> Optional[_ResumeState]:
        """Snapshot the store's devices (and shard layout) before closing.

        Must run *before* ``close()``: a sharded store's boundary list lives
        on its engine, and capturing it afterwards would race a concurrent
        split.
        """
        sharded = isinstance(store, ShardedVersionStore)
        triples: List[Tuple[object, object, Optional[object]]] = []
        for inner in store.sharded_engine.stores if sharded else [store]:
            devices = inner.devices
            if devices is None:
                return None
            triples.append((*devices, inner.log_device))
        return _ResumeState(
            shard_devices=triples,
            boundaries=list(store.sharded_engine.boundaries) if sharded else [],
        )

    def close_all(self) -> None:
        """Close every open store (clean shutdown), retaining resume state
        where the engine supports it."""
        with self._lock:
            for tenant, store in list(self._stores.items()):
                if store.closed:
                    continue
                resume = self._capture_resume_state(store)
                store.close()
                if resume is not None:
                    self._resume[tenant] = resume
            self._stores.clear()

    def shutdown(self) -> None:
        """:meth:`close_all`, then refuse further opens."""
        self.close_all()
        with self._lock:
            self._closed = True

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"StoreRegistry(tenants={len(self._catalog)}, "
            f"open={len(self._stores)})"
        )
