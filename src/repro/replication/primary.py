"""WAL-shipping primary: tail each shard's log device, stream to replicas.

A :class:`ReplicationPrimary` wraps an already-open WAL-enabled store (plain
or sharded) and serves the replication side of the wire protocol on its own
listener (:mod:`repro.server.transport` owns the sockets, the
``repl-primary-*`` threads, the framing and what ``stop`` / ``kill`` promise;
a framing fault drops that subscriber only, and each connection's thread
joins the ``repl-stream-*`` threads its subscriptions started):

* ``TOPOLOGY`` — the shard layout a fresh replica needs to build matching
  follower trees (sharded flag, boundaries, page size, group-commit size);
* ``WATERMARK`` — the primary's ``(durable_lsn, timestamp)`` pair;
* ``SUBSCRIBE(shard, from_lsn)`` — starts an unbounded stream of ``PARTIAL``
  frames whose payloads are ``LOG_BATCH`` bodies: raw, whole WAL record
  frames sliced from the shard's :class:`~repro.storage.logdevice.LogDevice`
  durable prefix.  Shipping the *bytes* rather than re-encoded records means
  the replica's mirror device ends up byte-identical to the primary's log
  prefix — the property failover leans on when it ranks replicas by durable
  prefix length;
* ``ACK(shard, lsn)`` — replica durability acknowledgements, read
  concurrently on the same connection (the stream is full-duplex).

Only *durable* bytes ever ship: the volatile tail a crash would lose is
invisible to subscribers, so an acknowledged record can never be lost by a
primary crash that its own durable log would survive.

Observability: per-shard gauges ``repl.shard<i>.durable_lsn`` /
``.min_acked`` / ``.lag_lsn`` and histograms ``repl.batch_bytes`` /
``repl.batch_records`` land in the wrapped store's metrics registry.
"""

from __future__ import annotations

import struct
import threading
import time
from typing import Dict, List, Optional, Tuple

from repro.api.sharded import ShardedVersionStore
from repro.api.store import VersionStore
from repro.server.protocol import (
    Opcode,
    ProtocolError,
    Status,
    STREAM_CHUNK_BYTES,
    decode_request,
    encode_refusal,
    encode_response,
    iter_wal_records,
    pack_log_batch,
    pack_topology,
    pack_watermark,
    unpack_ack,
    unpack_subscribe,
)
from repro.server.transport import Connection, Listener
from repro.replication.apply import scan_offset


class ReplicationError(Exception):
    """Replication-layer misconfiguration or protocol failure."""


class _Subscriber:
    """One connection's replication state: ACK vector, subscriptions, streamers."""

    def __init__(self, connection: Connection) -> None:
        self.connection = connection
        self.acked: Dict[int, int] = {}
        self.subscribed: List[int] = []
        self.streams: List[threading.Thread] = []


class ReplicationPrimary:
    """Stream a WAL-enabled store's log to any number of subscribers."""

    def __init__(
        self,
        store: VersionStore,
        host: str = "127.0.0.1",
        port: int = 0,
        poll_interval: float = 0.002,
        batch_bytes: int = STREAM_CHUNK_BYTES,
    ) -> None:
        self.store = store
        self.poll_interval = poll_interval
        self.batch_bytes = batch_bytes
        if isinstance(store, ShardedVersionStore):
            self._shards = list(store.shard_stores)
        else:
            self._shards = [store]
        for index, shard_store in enumerate(self._shards):
            if shard_store.log is None or shard_store.log_device is None:
                raise ReplicationError(
                    f"shard {index} has no WAL; replication ships log records "
                    "(open the store with wal=True)"
                )
        self.metrics = store.metrics
        self._listener = Listener(
            host,
            port,
            self._serve_subscriber,
            accept_name="repl-primary-accept",
            connection_name="repl-primary-conn",
        )
        self.host, self.port = self._listener.host, self._listener.port
        self._killed = False
        self._subscribers: List[_Subscriber] = []
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ReplicationPrimary":
        self._listener.start()
        return self

    def stop(self) -> None:
        """Graceful shutdown: stop accepting, end every stream, join."""
        self._listener.stop()

    def kill(self) -> None:
        """Abrupt death: the failure-injection hook.

        Connections drop mid-frame without any farewell — exactly what a
        machine loss looks like to the replicas.  The wrapped store is NOT
        closed: the test harness still owns it (and its durable log is the
        oracle a promoted replica is checked against).
        """
        self._killed = True
        self._listener.kill()

    @property
    def killed(self) -> bool:
        return self._killed

    def __enter__(self) -> "ReplicationPrimary":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Per-connection serving
    # ------------------------------------------------------------------
    def _serve_subscriber(self, connection: Connection) -> None:
        subscriber = _Subscriber(connection)
        with self._lock:
            self._subscribers.append(subscriber)
        try:
            for body in connection.frames():
                self._dispatch(subscriber, decode_request(body))
        except (OSError, ProtocolError, struct.error):
            pass  # dead or misbehaving peer: drop the connection
        finally:
            connection.close()  # what every streamer of this connection polls
            for stream in subscriber.streams:
                stream.join()
            with self._lock:
                self._subscribers.remove(subscriber)
            self._refresh_gauges()

    def _dispatch(self, subscriber: _Subscriber, request) -> None:
        opcode = request.opcode
        send = subscriber.connection.send
        if opcode is Opcode.PING:
            send(encode_response(request.request_id, Status.OK))
        elif opcode is Opcode.TOPOLOGY:
            send(encode_response(request.request_id, Status.OK, self._topology_payload()))
        elif opcode is Opcode.WATERMARK:
            payload = pack_watermark(*self.store.watermark())
            send(encode_response(request.request_id, Status.OK, payload))
        elif opcode is Opcode.SUBSCRIBE:
            shard, from_lsn = unpack_subscribe(request.payload)
            if not 0 <= shard < len(self._shards):
                send(
                    encode_refusal(request.request_id, Status.BAD_REQUEST, f"no shard {shard}")
                )
                return
            subscriber.subscribed.append(shard)
            streamer = threading.Thread(
                target=self._stream_shard,
                args=(subscriber.connection, request.request_id, shard, from_lsn),
                name=f"repl-stream-{shard}",
                daemon=True,
            )
            subscriber.streams.append(streamer)
            streamer.start()
        elif opcode is Opcode.ACK:
            shard, lsn = unpack_ack(request.payload)
            # ACKs may arrive out of order (the replica forces batches
            # concurrently with our sends); the vector is monotone.
            if lsn > subscriber.acked.get(shard, 0):
                subscriber.acked[shard] = lsn
            self._refresh_gauges()
        else:
            send(
                encode_refusal(
                    request.request_id,
                    Status.BAD_REQUEST,
                    f"replication listener does not speak {opcode.name}",
                )
            )

    def _topology_payload(self) -> bytes:
        sharded = isinstance(self.store, ShardedVersionStore)
        boundaries = (
            list(self.store.sharded_engine.boundaries) if sharded else []
        )
        config = self._shards[0].config
        return pack_topology(
            sharded, boundaries, config.page_size, config.group_commit_size
        )

    # ------------------------------------------------------------------
    # Streaming
    # ------------------------------------------------------------------
    def _stream_shard(
        self, connection: Connection, request_id: int, shard: int, from_lsn: int
    ) -> None:
        store = self._shards[shard]
        device = store.log_device
        offset = scan_offset(device.durable_contents(), from_lsn)
        try:
            while not connection.shut:
                if device.durable_bytes <= offset:
                    if store.closed:
                        # Closed, or replaced by the halves of a split: its
                        # log has ended, and "nothing more to ship" would read
                        # as caught up for ever while the live shards move on.
                        connection.send(
                            encode_refusal(
                                request_id,
                                Status.ERROR,
                                f"shard {shard}'s store was closed or replaced",
                            )
                        )
                        return
                    time.sleep(self.poll_interval)
                    continue
                data = device.durable_suffix(offset)
                for raw, last_lsn, count in self._cut_batches(data):
                    connection.send(
                        encode_response(
                            request_id,
                            Status.PARTIAL,
                            pack_log_batch(shard, last_lsn, raw),
                        )
                    )
                    offset += len(raw)
                    self.metrics.inc("repl.batches_sent")
                    self.metrics.observe("repl.batch_bytes", len(raw))
                    self.metrics.observe("repl.batch_records", count)
                self._refresh_gauges()
        except OSError:
            connection.shutdown()  # the subscriber is gone: wake its connection's thread

    def _cut_batches(self, data: bytes):
        """Cut ``data`` into whole-record slices of at most ``batch_bytes``.

        Yields ``(raw, last_lsn, record_count)``.  Bytes past the last whole
        record (none in practice: appends and forces are whole-record) are
        left for the next poll.
        """
        start = 0
        end = 0
        last_lsn = 0
        count = 0
        for record_start, lsn, record_end in iter_wal_records(data):
            if count and record_end - start > self.batch_bytes:
                yield data[start:end], last_lsn, count
                start, count = end, 0
            last_lsn = lsn
            end = record_end
            count += 1
        if count:
            yield data[start:end], last_lsn, count

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def durable_lsns(self) -> List[int]:
        return [shard.durable_lsn() for shard in self._shards]

    def min_acked(self, shard: int) -> Optional[int]:
        """The slowest subscriber's durable LSN for ``shard`` (None: no subs)."""
        with self._lock:
            acks = [
                subscriber.acked.get(shard, 0)
                for subscriber in self._subscribers
                if shard in subscriber.subscribed
            ]
        return min(acks) if acks else None

    def _refresh_gauges(self) -> None:
        for index, shard_store in enumerate(self._shards):
            durable = shard_store.durable_lsn()
            self.metrics.set_gauge(f"repl.shard{index}.durable_lsn", durable)
            acked = self.min_acked(index)
            if acked is not None:
                self.metrics.set_gauge(f"repl.shard{index}.min_acked", acked)
                self.metrics.set_gauge(
                    f"repl.shard{index}.lag_lsn", max(0, durable - acked)
                )

    def replication_lag(self) -> int:
        """Worst-case LSN lag across shards and subscribers (0 when caught up)."""
        lag = 0
        for index, shard_store in enumerate(self._shards):
            acked = self.min_acked(index)
            if acked is None:
                continue
            lag = max(lag, shard_store.durable_lsn() - acked)
        return lag

    def wait_caught_up(self, timeout: float = 10.0) -> bool:
        """Block until every subscriber has acknowledged every shard's
        current durable LSN (False on timeout, with no subscribers, or once
        a shard store this primary tails has been closed or replaced)."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if any(shard_store.closed for shard_store in self._shards):
                return False
            caught_up = True
            for index, shard_store in enumerate(self._shards):
                acked = self.min_acked(index)
                if acked is None or acked < shard_store.durable_lsn():
                    caught_up = False
                    break
            if caught_up:
                return True
            time.sleep(self.poll_interval)
        return False
