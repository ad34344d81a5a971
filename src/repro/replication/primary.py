"""WAL-shipping primary: tail each shard's log device, stream to replicas.

A :class:`ReplicationPrimary` wraps an already-open WAL-enabled store (plain
or sharded) and serves the replication side of the wire protocol on its own
listener:

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

import socket
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
    check_frame_body,
    check_frame_header,
    encode_response,
    decode_request,
    iter_wal_records,
    pack_error,
    pack_log_batch,
    pack_topology,
    pack_watermark,
    unpack_ack,
    unpack_subscribe,
)
from repro.replication.apply import scan_offset

_FRAME_HEADER_SIZE = 8


class ReplicationError(Exception):
    """Replication-layer misconfiguration or protocol failure."""


class _Connection:
    """One subscriber connection: socket, send lock, per-shard ACK vector."""

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.reader = sock.makefile("rb")
        self.send_lock = threading.Lock()
        self.acked: Dict[int, int] = {}
        self.subscribed: List[int] = []
        self.alive = True

    def close(self) -> None:
        self.alive = False
        try:
            self.sock.close()
        except OSError:  # pragma: no cover - defensive
            pass


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
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self.host, self.port = self._listener.getsockname()
        self._running = False
        self._killed = False
        self._connections: List[_Connection] = []
        self._threads: List[threading.Thread] = []
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ReplicationPrimary":
        self._running = True
        self._listener.listen()
        accept = threading.Thread(
            target=self._accept_loop, name="repl-primary-accept", daemon=True
        )
        accept.start()
        self._threads.append(accept)
        return self

    def stop(self) -> None:
        """Graceful shutdown: stop streaming, close every connection."""
        self._running = False
        try:
            self._listener.close()
        except OSError:  # pragma: no cover - defensive
            pass
        with self._lock:
            connections = list(self._connections)
        for connection in connections:
            connection.close()

    def kill(self) -> None:
        """Abrupt death: the failure-injection hook.

        Connections drop mid-frame without any farewell — exactly what a
        machine loss looks like to the replicas.  The wrapped store is NOT
        closed: the test harness still owns it (and its durable log is the
        oracle a promoted replica is checked against).
        """
        self._killed = True
        self.stop()

    @property
    def killed(self) -> bool:
        return self._killed

    def __enter__(self) -> "ReplicationPrimary":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Accept / per-connection serving
    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        while self._running:
            try:
                sock, _ = self._listener.accept()
            except OSError:
                return  # listener closed: shutting down
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            connection = _Connection(sock)
            with self._lock:
                self._connections.append(connection)
            thread = threading.Thread(
                target=self._serve_connection,
                args=(connection,),
                name="repl-primary-conn",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    def _serve_connection(self, connection: _Connection) -> None:
        try:
            while self._running and connection.alive:
                request = self._read_request(connection)
                if request is None:
                    return
                self._dispatch(connection, request)
        except (OSError, ProtocolError, struct.error):
            pass  # dead or misbehaving peer: drop the connection
        finally:
            connection.close()
            with self._lock:
                if connection in self._connections:
                    self._connections.remove(connection)
            self._refresh_gauges()

    def _read_request(self, connection: _Connection):
        header = connection.reader.read(_FRAME_HEADER_SIZE)
        if len(header) < _FRAME_HEADER_SIZE:
            return None  # clean EOF
        length, crc = check_frame_header(header)
        body = connection.reader.read(length)
        if len(body) < length:
            return None  # torn frame at EOF
        return decode_request(check_frame_body(body, crc))

    def _send(self, connection: _Connection, frame: bytes) -> bool:
        try:
            with connection.send_lock:
                connection.sock.sendall(frame)
            return True
        except OSError:
            connection.close()
            return False

    def _dispatch(self, connection: _Connection, request) -> None:
        opcode = request.opcode
        if opcode is Opcode.PING:
            self._send(connection, encode_response(request.request_id, Status.OK))
        elif opcode is Opcode.TOPOLOGY:
            self._send(
                connection,
                encode_response(
                    request.request_id, Status.OK, self._topology_payload()
                ),
            )
        elif opcode is Opcode.WATERMARK:
            durable, timestamp = self.store.watermark()
            self._send(
                connection,
                encode_response(
                    request.request_id,
                    Status.OK,
                    pack_watermark(durable, timestamp),
                ),
            )
        elif opcode is Opcode.SUBSCRIBE:
            shard, from_lsn = unpack_subscribe(request.payload)
            if not 0 <= shard < len(self._shards):
                self._refuse(connection, request.request_id, f"no shard {shard}")
                return
            connection.subscribed.append(shard)
            streamer = threading.Thread(
                target=self._stream_shard,
                args=(connection, request.request_id, shard, from_lsn),
                name=f"repl-stream-{shard}",
                daemon=True,
            )
            streamer.start()
            self._threads.append(streamer)
        elif opcode is Opcode.ACK:
            shard, lsn = unpack_ack(request.payload)
            # ACKs may arrive out of order (the replica forces batches
            # concurrently with our sends); the vector is monotone.
            if lsn > connection.acked.get(shard, 0):
                connection.acked[shard] = lsn
            self._refresh_gauges()
        else:
            self._refuse(
                connection,
                request.request_id,
                f"replication listener does not speak {opcode.name}",
            )

    def _refuse(
        self, connection, request_id: int, message: str, status: Status = Status.BAD_REQUEST
    ) -> None:
        self._send(connection, encode_response(request_id, status, pack_error(message)))

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
        self, connection: _Connection, request_id: int, shard: int, from_lsn: int
    ) -> None:
        store = self._shards[shard]
        device = store.log_device
        offset = scan_offset(device.durable_contents(), from_lsn)
        while self._running and connection.alive:
            if device.durable_bytes <= offset:
                if store.closed:
                    # Closed, or replaced by the halves of a split: its log
                    # has ended, and "nothing more to ship" would read as
                    # caught up for ever while the live shards move on.
                    self._refuse(
                        connection,
                        request_id,
                        f"shard {shard}'s store was closed or replaced",
                        Status.ERROR,
                    )
                    return
                time.sleep(self.poll_interval)
                continue
            data = device.durable_suffix(offset)
            shipped = 0
            for raw, last_lsn, count in self._cut_batches(data):
                if not self._send(
                    connection,
                    encode_response(
                        request_id,
                        Status.PARTIAL,
                        pack_log_batch(shard, last_lsn, raw),
                    ),
                ):
                    return
                shipped += len(raw)
                self.metrics.inc("repl.batches_sent")
                self.metrics.observe("repl.batch_bytes", len(raw))
                self.metrics.observe("repl.batch_records", count)
            offset += shipped
            self._refresh_gauges()

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
                connection.acked.get(shard, 0)
                for connection in self._connections
                if shard in connection.subscribed
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
