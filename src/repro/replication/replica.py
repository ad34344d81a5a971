"""A replica: mirror the primary's WAL, serve follower reads, promote.

A :class:`Replica` connects to a :class:`~repro.replication.primary.ReplicationPrimary`
(over :mod:`repro.server.transport`, which owns the sockets and the framing;
any fault on a subscription — torn tail, bad CRC, reset — ends it, and the
shard's ``replica-<name>-tail<i>`` thread resubscribes from the mirror
cursor), fetches the shard topology, and per shard maintains three things in
lockstep:

* a **mirror** :class:`~repro.storage.logdevice.LogDevice` — every shipped
  ``LOG_BATCH`` is appended verbatim and forced, so the mirror's durable
  bytes are a byte-identical prefix of the primary's log (the "durable
  prefix" failover ranks by);
* a follower **TSB-tree** fed by a
  :class:`~repro.replication.apply.LogReplayer` — commits apply in log
  order under the follower store's write latch, so reads see atomic
  transaction boundaries;
* an **ACK cursor**: after a batch is durable on the mirror *and* applied,
  ``ACK(shard, lsn)`` flows back on the same connection.

The assembled follower store (its shards behind
:meth:`VersionStore.over_shards <repro.api.store.VersionStore.over_shards>`,
laid out on the primary's boundaries) serves the whole read surface;
:meth:`serve` exposes it through an ordinary
:class:`~repro.server.service.ReproServer` with the tenant installed
read-only, so ``ReproClient(read_preference="follower")`` reads it over the
same wire protocol as the primary.

Staleness contract: a follower read is a *consistent prefix* — exactly the
transactions whose commits the replica has applied, in the primary's
commit order.  ``WATERMARK`` reports ``(durable_lsn, watermark_ts)``;
a read as-of ``t <= watermark_ts`` returns the primary's own answer for
``t``, byte for byte.  A served read as-of a later ``t`` (the op table's
``wait_on`` argument: ``get_as_of``, ``range_search(as_of=)``,
``snapshot``) first waits in :meth:`Replica.wait_for_watermark` — woken by
every applied batch, released at once by :meth:`Replica.stop` or a detach,
and after its bound answered from the prefix — so a client that writes at
``t`` and reads as-of ``t`` here reads its write.  Untimestamped reads
answer from the current prefix at once.

Failover: :meth:`promote` stops the tailers, replays any mirrored-but-
unapplied records, then hands each follower tree and its mirror device to
:meth:`VersionStore.over_tree <repro.api.store.VersionStore.over_tree>` —
the same composition root a fresh or restarted store goes through — which
continues LSNs on the very mirror device (``next_lsn = applied + 1``) and
resumes the commit clock and transaction ids where the replayed log left
them, so post-failover commits extend the same log and the same timeline.
"""

from __future__ import annotations

import struct
import threading
import time
from dataclasses import replace
from typing import List, Optional, Sequence, Tuple

from repro.api.store import ShardSpec, StoreConfig, VersionStore
from repro.core.tsb_tree import TSBTree
from repro.obs.registry import MetricsRegistry
from repro.server.protocol import (
    Opcode,
    ProtocolError,
    Status,
    decode_response,
    encode_request,
    pack_subscribe,
    pack_ack,
    unpack_error,
    unpack_log_batch,
    unpack_topology,
)
from repro.server.registry import StoreRegistry
from repro.server.service import ReproServer
from repro.server.transport import Connection, connect
from repro.storage.logdevice import LogDevice
from repro.replication.apply import LogReplayer, replay_device
from repro.replication.primary import ReplicationError

_CONNECT_TIMEOUT_S = 10.0


class _ShardState:
    """One shard's replication state: tree, mirror log, replayer, tailer."""

    def __init__(self, shard: int, page_size: int, metrics) -> None:
        self.shard = shard
        self.tree = TSBTree(page_size=page_size)
        self.mirror = LogDevice()
        self.replayer = LogReplayer(self.tree, metrics=metrics, shard=shard)
        #: Last LSN durably appended to the mirror (the resubscribe cursor).
        self.mirror_lsn = 0
        self.store: Optional[VersionStore] = None  # inner follower store
        self.thread: Optional[threading.Thread] = None
        self.connection: Optional[Connection] = None  # the live subscription


class Replica:
    """Subscribe to a primary, apply its log, serve follower reads."""

    def __init__(
        self,
        host: str,
        port: int,
        tenant: str = "default",
        name: str = "replica",
        reconnect_delay: float = 0.01,
        apply_delay: float = 0.0,
    ) -> None:
        self.primary_host = host
        self.primary_port = port
        self.tenant = tenant
        self.name = name
        self.reconnect_delay = reconnect_delay
        #: Test hook: sleep this long before applying each batch, so the
        #: follower watermark visibly lags the primary.
        self.apply_delay = apply_delay
        self.metrics = MetricsRegistry(name=f"replica-{name}")
        self._states: List[_ShardState] = []
        self._store: Optional[VersionStore] = None
        self._sharded = False
        self._page_size = 0
        self._boundaries: List = []
        self._running = False
        #: Notified by every applied batch and by :meth:`stop` or a detach.
        self._applied = threading.Condition()
        self._request_ids = iter(range(1, 1 << 62))
        self._server: Optional[ReproServer] = None
        self.promoted: Optional[VersionStore] = None
        #: Why the primary ended a subscription, once it has: the replica
        #: then serves the prefix it holds and applies nothing further.
        self.detached: Optional[str] = None

    # ------------------------------------------------------------------
    # Wire plumbing
    # ------------------------------------------------------------------
    def _rpc(self, opcode: Opcode, payload: bytes = b""):
        """One request/response exchange on a throwaway connection."""
        connection = connect(self.primary_host, self.primary_port, _CONNECT_TIMEOUT_S)
        try:
            request_id = next(self._request_ids)
            connection.send(encode_request(request_id, opcode, self.tenant, payload))
            answer = next(connection.frames(), None)
            if answer is None:
                raise ReplicationError(f"primary hung up during {opcode.name}")
            _, status, body = decode_response(answer)
            if status is not Status.OK:
                raise ReplicationError(f"{opcode.name} answered {status.name}")
            return body
        finally:
            connection.close()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "Replica":
        """Fetch the topology, build follower stores, start the tailers."""
        body = self._rpc(Opcode.TOPOLOGY)
        sharded, boundaries, page_size, _ = unpack_topology(body)
        self._sharded = sharded
        self._boundaries = boundaries
        self._page_size = page_size
        shard_count = len(boundaries) + 1 if sharded else 1
        self._states = [
            _ShardState(index, page_size, self.metrics)
            for index in range(shard_count)
        ]
        self._store = self._build_follower_store()
        # The follower store has no WAL of its own — its replication state
        # lives on this Replica — so the served WATERMARK answer, and the
        # wait a served timestamped read makes, must come from here.
        self._store.watermark = self.watermark  # type: ignore[method-assign]
        self._store.wait_for_watermark = self.wait_for_watermark  # type: ignore[attr-defined]
        self._running = True
        for state in self._states:
            state.thread = threading.Thread(
                target=self._tail_shard,
                args=(state,),
                name=f"replica-{self.name}-tail{state.shard}",
                daemon=True,
            )
            state.thread.start()
        return self

    def _build_follower_store(self) -> VersionStore:
        inner_config = StoreConfig(engine="tsb", page_size=self._page_size)
        for state in self._states:
            state.store = VersionStore.over_tree(
                inner_config, state.tree, metrics=None if self._sharded else self.metrics
            )
        return self._assemble([state.store for state in self._states], inner_config)

    def _assemble(
        self, inner: List[VersionStore], inner_config: StoreConfig
    ) -> VersionStore:
        """One store over the per-shard stores, laid out like the primary's."""
        spec = ShardSpec(boundaries=tuple(self._boundaries)) if self._sharded else None
        return VersionStore.over_shards(
            replace(inner_config, shards=spec), inner, self._boundaries
        )

    @property
    def store(self) -> VersionStore:
        """The follower store (read it directly, or :meth:`serve` it)."""
        if self._store is None:
            raise ReplicationError("replica not started")
        return self._store

    def _close_subscriptions(self) -> None:
        with self._applied:
            self._running = False
            self._applied.notify_all()  # nothing more will be applied
        for state in self._states:
            connection = state.connection  # the tailer clears the attribute as it exits
            if connection is not None:
                connection.close()  # wakes the tailer's read, so the join is prompt

    def stop(self) -> None:
        """Graceful stop: close subscriptions, join the tailers."""
        self._close_subscriptions()
        for state in self._states:
            if state.thread is not None:
                state.thread.join(timeout=5)
        if self._server is not None:
            self._server.stop()
            self._server = None

    def kill(self) -> None:
        """Abrupt death (failure injection): drop connections, stop applying.

        The mirror devices survive — their durable bytes are exactly what a
        crashed replica's disk would hold.
        """
        self.stop()

    def __enter__(self) -> "Replica":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Tailing
    # ------------------------------------------------------------------
    def _tail_shard(self, state: _ShardState) -> None:
        while self._running:
            try:
                self._subscribe_once(state)
            except (OSError, ProtocolError, ReplicationError, struct.error):
                pass  # disconnect / corrupt batch: resubscribe from the cursor
            finally:
                if state.connection is not None:
                    state.connection.close()
                    state.connection = None
            if self._running:
                time.sleep(self.reconnect_delay)

    def _subscribe_once(self, state: _ShardState) -> None:
        connection = state.connection = connect(
            self.primary_host, self.primary_port, _CONNECT_TIMEOUT_S
        )
        if not self._running:
            return  # stop() ran during the connect and could not close what it could not see
        # Resume from the mirror's durable cursor: records at or below it
        # are already safe here, so the primary starts right after — and is
        # told so, because its ACK vector is per connection: without this a
        # resubscribed shard nobody writes would read as lagging for ever.
        connection.send(
            encode_request(
                next(self._request_ids),
                Opcode.SUBSCRIBE,
                self.tenant,
                pack_subscribe(state.shard, state.mirror_lsn),
            )
            + self._ack(state)
        )
        # The loop ends with the stream: primary gone (killed, or stopped).
        for body in connection.frames():
            if not self._running:
                return
            _, status, payload = decode_response(body)
            if status is Status.ERROR:
                # The primary ended the subscription: the shard's store is
                # gone (closed, or split in two).  What is applied here stays
                # a consistent prefix; tailing the other shards past it would
                # not be one, so every tailer stops.
                self.detached = unpack_error(payload)
                self._close_subscriptions()
                return
            if status is not Status.PARTIAL:
                raise ReplicationError(
                    f"subscription answered {status.name}; expected a "
                    "PARTIAL stream"
                )
            shard, last_lsn, records = unpack_log_batch(payload)  # validates
            if shard != state.shard:
                raise ReplicationError(
                    f"shard {state.shard} subscription received a batch "
                    f"for shard {shard}"
                )
            if self.apply_delay:
                time.sleep(self.apply_delay)
            state.mirror.append(records)
            state.mirror.force()
            state.mirror_lsn = last_lsn
            self._apply_batch(state, records)
            connection.send(self._ack(state))

    def _ack(self, state: _ShardState) -> bytes:
        """The ``ACK`` frame for everything ``state``'s mirror durably holds."""
        return encode_request(
            next(self._request_ids),
            Opcode.ACK,
            self.tenant,
            pack_ack(state.shard, state.mirror_lsn),
        )

    def _apply_batch(self, state: _ShardState, records: bytes) -> None:
        store = self._store
        assert store is not None
        started = time.perf_counter()
        with store.write_latched():
            applied = state.replayer.replay(records)
            # The shard store's one clock moves with what it applied, so a
            # read-only transaction on the follower pins its newest commit.
            state.store.txns.clock.advance_to(state.replayer.watermark)
        with self._applied:
            self._applied.notify_all()
        self.metrics.observe("repl.apply_batch_records", applied)
        self.metrics.observe("repl.apply_seconds", time.perf_counter() - started)
        self.metrics.set_gauge(
            f"repl.shard{state.shard}.applied_lsn", state.replayer.applied_lsn
        )
        self.metrics.set_gauge(
            f"repl.shard{state.shard}.watermark", state.replayer.watermark
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def durable_lsns(self) -> List[int]:
        """Per-shard durable mirror LSNs — this replica's prefix lengths."""
        return [state.mirror_lsn for state in self._states]

    def watermark(self) -> Tuple[int, int]:
        """``(durable_lsn, watermark_ts)`` of the follower surface.

        The durable LSN is the minimum across shards (every shard's mirror
        holds at least that prefix).  The watermark timestamp is the newest
        commit timestamp applied anywhere: per shard, commits apply in log
        order (a prefix), and the primary's commit clock is global and
        monotone, so a read at or below the watermark sees each shard's
        consistent prefix — with cross-shard skew bounded by the one batch
        currently in flight.  (The minimum would be wrong here: a shard
        the workload never writes would pin the watermark at zero
        forever.)
        """
        if not self._states:
            return 0, 0
        durable = min(state.mirror_lsn for state in self._states)
        watermark = max(state.replayer.watermark for state in self._states)
        return durable, watermark

    def wait_for_watermark(self, timestamp: int, timeout: float = 10.0) -> bool:
        """Block until the watermark reaches ``timestamp``; False on timeout,
        or at once when stopped or detached (nothing more will be applied)."""
        with self._applied:
            self._applied.wait_for(
                lambda: not self._running or self.watermark()[1] >= timestamp, timeout
            )
            return self.watermark()[1] >= timestamp

    # ------------------------------------------------------------------
    # Serving follower reads
    # ------------------------------------------------------------------
    def serve(self, host: str = "127.0.0.1", port: int = 0, **server_kwargs) -> ReproServer:
        """Expose the follower store over the ordinary wire protocol.

        The tenant is installed read-only: write opcodes answer an error
        while the replay tailer remains the store's only writer.
        """
        registry = StoreRegistry({self.tenant: self.store.config})
        registry.install(self.tenant, self.store, read_only=True)
        self._server = ReproServer(registry, host=host, port=port, **server_kwargs)
        self._server.start()
        return self._server

    # ------------------------------------------------------------------
    # Promotion
    # ------------------------------------------------------------------
    def promote(self) -> VersionStore:
        """Become the primary: stop tailing, finish applying, go writable.

        Returns a store over the *same* trees and mirror devices, now
        writable: each shard's log continues its LSN sequence and its commit
        clock and transaction ids resume past what the replayed log used.
        The promoted store's answers over the whole read surface equal a
        fresh replay of the mirrors' durable bytes — the digest check
        the failover tests enforce (``tests/replication/test_replication.py``).
        """
        if self.promoted is not None:
            return self.promoted
        self.stop()
        for state in self._states:
            # Records mirrored but not yet applied (a kill between force
            # and apply) replay here; the replayer skips what it already
            # has, so this is idempotent.
            state.replayer.replay(state.mirror.durable_contents())
        inner_wal = StoreConfig(engine="tsb", page_size=self._page_size, wal=True)
        promoted_inner: List[VersionStore] = []
        for state in self._states:
            assert state.store is not None
            promoted_inner.append(
                VersionStore.over_tree(
                    inner_wal,
                    state.tree,
                    state.mirror,
                    replayed=state.replayer,
                    latch=state.store.latch,
                    metrics=None if self._sharded else self.metrics,
                )
            )
        self.promoted = self._assemble(promoted_inner, inner_wal)
        return self.promoted

    def mirror_replay(self) -> VersionStore:
        """A store replayed from nothing but the mirrors' durable bytes, into
        fresh trees — the oracle a promoted store's answers must equal."""
        inner_config = StoreConfig(engine="tsb", page_size=self._page_size)
        return self._assemble(
            [
                VersionStore.over_tree(inner_config, replay_device(state.mirror).tree)
                for state in self._states
            ],
            inner_config,
        )


def elect(replicas: Sequence[Replica]) -> Replica:
    """Pick the failover winner: the replica with the longest durable prefix.

    Ranked by ``(min over shards, sum over shards)`` of the durable mirror
    LSNs — the replica no other can be ahead of on the shard where it
    matters most, ties broken by total log shipped.
    """
    if not replicas:
        raise ReplicationError("no replicas to elect from")
    return max(
        replicas,
        key=lambda replica: (
            min(replica.durable_lsns(), default=0),
            sum(replica.durable_lsns()),
        ),
    )
