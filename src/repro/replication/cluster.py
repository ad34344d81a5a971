"""Multi-node routing and online shard migration.

A *cluster* here is a set of :class:`ClusterNode`\\ s — each an ordinary
:class:`~repro.server.service.ReproServer` over a WAL-enabled sharded
store, plus a :class:`NodeRole` that knows which key ranges this node
owns.  Ownership lives in a :class:`RoutingTable` of
``(low, high, owner, epoch)`` entries; every node holds its own copy, and
a request for a key the node does not own answers ``WRONG_SHARD`` with
the node's current table, so stale clients self-correct without any
central coordinator.

Online migration of ``[low, high)`` from ``source`` to ``target``
(:func:`migrate_range`) is the classic copy / catch-up / cutover dance:

1. **Copy.**  ``SNAPSHOT_READ`` takes a consistent snapshot of the
   range under the source's read latch — *every version* of every
   in-range key, as ``(timestamp, key, tombstone, value)`` events — and
   records each shard's WAL position at the copy point.  The events are
   pushed to the target with ``SNAPSHOT_CHUNK`` and land through the
   target's write path (:mod:`repro.api.store`) — in its log, forced
   before the chunk is acknowledged; replayed in timestamp order they
   reproduce the range byte-identically, every as-of answer included.
   Writes continue on the source throughout.
2. **Catch-up.**  Repeated delta reads scan the source WAL from the
   copy positions and ship only committed in-range events, advancing the
   positions, until a round comes back (nearly) empty.
3. **Cutover.**  ``CUTOVER(PREPARE)`` freezes the range on the source
   (in-range requests answer ``WRONG_SHARD``; clients buffer-and-retry),
   one final delta drains whatever landed between the last catch-up and
   the freeze, and ``CUTOVER(COMMIT)`` installs ``range -> target`` at a
   bumped epoch on every node.  Retrying clients then learn the new
   owner from any node's table and their writes land on the target — no
   write ever *fails*; writes to the range merely stall for the freeze
   window (which :mod:`benchmarks.bench_replication` measures).

:class:`ClusterClient` is the matching client, driven by the operation
table (:data:`repro.server.protocol.OPS`): a *keyed* row goes to the owner
of its first argument, a row that *spans keys* fans out to every node (each
clips to the ranges it owns, so the union is exact) and is merged by the
row's answer shape; either path turns ``WRONG_SHARD`` into
install-routes-and-retry.  :class:`NodeRole`'s migration methods take and
return plain values — the row names the codec.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.api.sharded import ShardedVersionStore
from repro.api.store import StoreConfig, VersionStore
from repro.client import (
    ReproClient,
    WrongShardError as ClientWrongShardError,
    attach_surface,
)
from repro.recovery.log_records import decode_stream
from repro.recovery.replay import TransactionBuffer
from repro.server import protocol
from repro.server.protocol import CUTOVER_COMMIT, CUTOVER_PREPARE, Event, Op
from repro.server.registry import StoreRegistry
from repro.server.service import ReproServer
from repro.storage.serialization import Key

Route = protocol.Route
#: Per-shard WAL copy positions: ``[(shard, byte_offset), ...]``.
Offsets = List[Tuple[int, int]]


def _contains(low: Optional[Key], high: Optional[Key], key: Key) -> bool:
    """Half-open range membership: ``low <= key < high`` (None = unbounded)."""
    if low is not None and key < low:
        return False
    if high is not None and key >= high:
        return False
    return True


class RoutingTable:
    """``(low, high, owner, epoch)`` entries; highest epoch wins per key.

    The table only ever *grows* (cutovers append at a bumped epoch), so
    merging tables from different nodes is a plain union and a stale
    client converges by installing whatever a fresher node answers.
    """

    def __init__(self, entries: Sequence[Route]) -> None:
        self._entries: List[Route] = list(entries)
        self._lock = threading.Lock()

    def routes(self) -> List[Route]:
        with self._lock:
            return list(self._entries)

    def owner(self, key: Key) -> Optional[str]:
        """The owning node's name: the highest-epoch entry containing ``key``."""
        best: Optional[Route] = None
        with self._lock:
            for entry in self._entries:
                low, high, _, epoch = entry
                if _contains(low, high, key) and (best is None or epoch > best[3]):
                    best = entry
        return best[2] if best is not None else None

    def max_epoch(self) -> int:
        with self._lock:
            return max((entry[3] for entry in self._entries), default=0)

    def install(self, routes: Sequence[Route]) -> None:
        """Union in routes learned from another node (or a cutover)."""
        with self._lock:
            for route in routes:
                if route not in self._entries:
                    self._entries.append(tuple(route))


class NodeRole:
    """One node's cluster membership: ownership checks and migration ops.

    This is the object :class:`~repro.server.service.ReproServer` consults
    (its ``node`` hook) — keyed requests go through :meth:`check_key`,
    scatter reads through :meth:`check_unfrozen` and clip with :meth:`owns`,
    and the table's node-target rows call :meth:`routes` /
    :meth:`snapshot_read` / :meth:`apply_chunk` / :meth:`cutover` with the
    tenant's store and the decoded arguments.
    """

    def __init__(self, name: str, table: RoutingTable) -> None:
        self.name = name
        self.table = table
        #: Ranges frozen by CUTOVER_PREPARE: owned here, but deflecting
        #: every request until the matching COMMIT moves them for good.
        self._frozen: List[Tuple[Optional[Key], Optional[Key]]] = []
        self._lock = threading.Lock()

    # -- ownership -----------------------------------------------------
    def owns(self, key: Key) -> bool:
        with self._lock:
            for low, high in self._frozen:
                if _contains(low, high, key):
                    return False
        return self.table.owner(key) == self.name

    def check_key(self, key: Key) -> None:
        if not self.owns(key):
            raise protocol.WrongShardError(self.table.routes())

    def check_unfrozen(self) -> None:
        """Deflect an answer that spans keys while a cutover is in flight:
        the source clips the frozen range out and the target does not own it
        yet, so a scatter read would silently lose it.  The window is
        milliseconds; the client retries the whole fan-out."""
        with self._lock:
            frozen = bool(self._frozen)
        if frozen:
            raise protocol.WrongShardError(self.table.routes())

    def routes(self, store) -> List[Route]:
        return self.table.routes()

    # -- migration: source side ----------------------------------------
    def snapshot_read(
        self, store, low: Optional[Key], high: Optional[Key], offsets: Offsets
    ) -> Tuple[List[Event], Offsets]:
        """Serve one SNAPSHOT_READ: ``(events, new_offsets)``.

        Empty ``offsets`` → the full consistent snapshot of the range (all
        versions, tombstones included) plus each shard's WAL position at
        the copy point.  Non-empty → the committed in-range delta from
        those positions, with advanced positions.  Either way the read
        holds the store's latch, so the events and the positions are one
        atomic cut: every committed transaction is either in the events or
        past the returned positions, never both, never neither.
        """
        if not isinstance(store, ShardedVersionStore):
            raise protocol.ProtocolError(
                "online migration requires a sharded WAL store"
            )
        engine = store.sharded_engine
        events: List[Event] = []
        new_offsets: Offsets = []
        copying = not offsets
        if copying:
            offsets = [(shard, 0) for shard in range(len(engine.stores))]
        # Exclusive hold: it pins every shard's WAL position to the same
        # instant as the events read beside it.
        with store.write_latched():
            for shard, offset in offsets:
                device = engine.stores[shard].log_device
                if device is None:
                    raise protocol.ProtocolError(
                        f"shard {shard} has no WAL; migration needs wal=True"
                    )
                if copying:  # every version the shard holds, as of right now
                    new_offsets.append((shard, device.appended_bytes))
                    events.extend(engine.export_events(shard, low, high))
                    continue
                # A delta: push any group-commit tail out so it covers every
                # committed transaction up to this instant.
                device.force()
                data = device.durable_suffix(offset)
                new_offsets.append((shard, offset + len(data)))
                events.extend(_committed_events(data, low, high))
        events.sort(key=lambda event: event[0])
        return events, new_offsets

    # -- migration: target side ----------------------------------------
    def apply_chunk(self, store, events: Sequence[Event]) -> None:
        """Apply one batch of migration events at their original timestamps.

        Delivery is :meth:`VersionStore.import_events`: a version already
        on the target is skipped, and an event the target cannot take (its
        commit clock is already past the event's timestamp) fails the chunk
        — and with it the migration, before any cutover — instead of
        vanishing.  The chunk is acknowledged only once forced: after
        COMMIT the source no longer answers for the range, so no
        group-commit tail may be left to a crash of the target.
        """
        store.import_events(events)
        shards = store.shard_stores if isinstance(store, ShardedVersionStore) else [store]
        for shard in shards:
            if shard.log is not None:
                shard.log.force()

    # -- cutover -------------------------------------------------------
    def cutover(
        self, store, phase: int, low: Optional[Key], high: Optional[Key], epoch: int, target: str
    ) -> List[Route]:
        """One cutover phase; returns this node's (updated) routes."""
        if phase == CUTOVER_PREPARE:
            with self._lock:
                self._frozen.append((low, high))
        elif phase == CUTOVER_COMMIT:
            self.table.install([(low, high, target, epoch)])
            with self._lock:
                self._frozen = [
                    frozen for frozen in self._frozen if frozen != (low, high)
                ]
        else:
            raise protocol.ProtocolError(f"unknown cutover phase {phase}")
        return self.table.routes()


def _committed_events(
    data: bytes, low: Optional[Key], high: Optional[Key]
) -> List[Event]:
    """Committed in-range events from a WAL byte slice, in commit order.

    Transactions whose COMMIT is not in the slice contribute nothing (the
    slice boundaries fall between whole transactions: the source logs each
    transaction under one latch hold, and the cut is taken under the same
    latch).
    """
    buffer = TransactionBuffer()
    events: List[Event] = []
    for record in decode_stream(data):
        for is_delete, key, value in buffer.feed(record) or ():
            if _contains(low, high, key):
                events.append((record.commit_timestamp, key, is_delete, value))
    return events


class ClusterNode:
    """One live node: a served sharded WAL store plus its cluster role."""

    def __init__(
        self,
        name: str,
        config: StoreConfig,
        tenant: str = "default",
        table: Optional[RoutingTable] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        **server_kwargs,
    ) -> None:
        self.name = name
        self.tenant = tenant
        self.role = NodeRole(name, table or RoutingTable([(None, None, name, 0)]))
        self.registry = StoreRegistry({tenant: config})
        self.server = ReproServer(
            self.registry, host=host, port=port, node=self.role, **server_kwargs
        )

    def start(self) -> "ClusterNode":
        self.server.start()
        return self

    def stop(self) -> None:
        self.server.stop()

    @property
    def address(self) -> Tuple[str, int]:
        return self.server.address

    @property
    def store(self) -> VersionStore:
        return self.registry.get(self.tenant)

    def __enter__(self) -> "ClusterNode":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


@attach_surface
class ClusterClient:
    """Route-aware client over a set of cluster nodes, with the surface of
    :class:`~repro.client.ReproClient` (``attach_surface``); only
    ``put_many``, which groups its items by owner, is written out.

    Keyed operations go to the key's owner; a ``WRONG_SHARD`` answer
    installs the fresh routes and retries, so a write outlasts any cutover
    (it stalls through the freeze window, it never fails).  Operations that
    span keys fan out to every node and union the answers — each node clips
    to the ranges it owns, so the union is exact and duplicate-free — and
    retry the whole fan-out the same way while a range is frozen.
    """

    def __init__(
        self,
        nodes: Dict[str, Tuple[str, int]],
        tenant: str = "default",
        retry_sleep: float = 0.002,
        **client_kwargs,
    ) -> None:
        self.clients: Dict[str, ReproClient] = {
            name: ReproClient(host, port, tenant=tenant, **client_kwargs)
            for name, (host, port) in nodes.items()
        }
        self.retry_sleep = retry_sleep
        first = next(iter(self.clients.values()))
        self.table = RoutingTable(first.route())

    def close(self) -> None:
        for client in self.clients.values():
            client.close()

    def __enter__(self) -> "ClusterClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- routing mechanics ---------------------------------------------
    def _client_for(self, key: Key) -> ReproClient:
        owner = self.table.owner(key)
        if owner is None or owner not in self.clients:
            raise ClientWrongShardError(
                f"no live node owns key {key!r}", self.table.routes()
            )
        return self.clients[owner]

    def _note_wrong_shard(self, error: ClientWrongShardError) -> None:
        """Install fresher routes; briefly back off if nothing was fresher
        (the cutover freeze window: same epoch, same owner, just frozen)."""
        before = self.table.max_epoch()
        self.table.install(error.routes)
        if self.table.max_epoch() <= before:
            time.sleep(self.retry_sleep)

    # -- writes --------------------------------------------------------
    def put_many(self, items: Sequence[Tuple[Key, bytes]]) -> List[int]:
        """Batch write across owners; never fails on a concurrent cutover."""
        stamps: List[Optional[int]] = [None] * len(items)
        pending = list(enumerate(items))
        while pending:
            groups: Dict[ReproClient, List[Tuple[int, Tuple[Key, bytes]]]] = {}
            for index, item in pending:
                groups.setdefault(self._client_for(item[0]), []).append((index, item))
            pending = []
            for owner, group in groups.items():
                try:
                    batch_stamps = owner.put_many([item for _, item in group])
                except ClientWrongShardError as error:
                    self._note_wrong_shard(error)
                    pending.extend(group)
                    continue
                for (index, _), stamp in zip(group, batch_stamps):
                    stamps[index] = stamp
        return stamps  # type: ignore[return-value]

    # -- everything else: routed by its table row -----------------------
    def _call(self, op: Op, *args):
        """A keyed row → the owner of ``args[0]``; a row that spans keys →
        every node, merged by its answer shape.  ``WRONG_SHARD`` from any
        node installs the routes it carries and retries the whole call."""
        while True:
            nodes = [self._client_for(args[0])] if op.keyed else self.clients.values()
            try:
                answers = [getattr(node, op.method)(*args) for node in nodes]
            except ClientWrongShardError as error:
                self._note_wrong_shard(error)
                continue
            return answers[0] if op.keyed else op.answer.merge(answers)

    @property
    def now(self) -> int:
        return max(client.now for client in self.clients.values())


@dataclass
class MigrationReport:
    """What :func:`migrate_range` did, and what it cost."""

    low: Optional[Key]
    high: Optional[Key]
    source: str
    target: str
    epoch: int
    snapshot_events: int
    catchup_rounds: int
    catchup_events: int
    final_delta_events: int
    #: Wall-clock seconds the range's writes were frozen (PREPARE → COMMIT):
    #: the migration's only write-visible cost.
    stall_seconds: float = field(default=0.0)


def migrate_range(
    cluster: ClusterClient,
    low: Optional[Key],
    high: Optional[Key],
    source: str,
    target: str,
    max_catchup_rounds: int = 8,
    settle_events: int = 16,
) -> MigrationReport:
    """Move ``[low, high)`` from ``source`` to ``target``, live.

    Writes to the range keep landing on the source until the cutover
    freeze; the freeze lasts exactly one final delta plus the COMMIT
    fan-out, and retrying clients never observe a failed write.
    """
    source_client = cluster.clients[source]
    target_client = cluster.clients[target]

    def ship(offsets: Offsets) -> Tuple[int, Offsets]:
        """Read what the source has past ``offsets``; deliver it to the target."""
        events, offsets = source_client.migrate_read(low, high, offsets)
        target_client.migrate_apply(events)
        return len(events), offsets

    snapshot_events, offsets = ship([])

    catchup_rounds = 0
    catchup_events = 0
    for _ in range(max_catchup_rounds):
        shipped, offsets = ship(offsets)
        if shipped:
            catchup_rounds += 1
            catchup_events += shipped
        if shipped <= settle_events:
            break

    epoch = cluster.table.max_epoch() + 1
    stall_started = time.perf_counter()
    source_client.cutover(CUTOVER_PREPARE, low, high, epoch, target)
    # The range is frozen: this delta is the last word on it.
    final_delta_events, offsets = ship(offsets)
    # The target commits first: from then until the source's own COMMIT the
    # source is still frozen and deflects scatter reads, so no reader ever
    # sees a moment in which neither node answers for the range.
    target_client.cutover(CUTOVER_COMMIT, low, high, epoch, target)
    for name, client in cluster.clients.items():
        if name != target:
            client.cutover(CUTOVER_COMMIT, low, high, epoch, target)
    stall_seconds = time.perf_counter() - stall_started

    cluster.table.install([(low, high, target, epoch)])
    return MigrationReport(
        low=low,
        high=high,
        source=source,
        target=target,
        epoch=epoch,
        snapshot_events=snapshot_events,
        catchup_rounds=catchup_rounds,
        catchup_events=catchup_events,
        final_delta_events=final_delta_events,
        stall_seconds=stall_seconds,
    )
