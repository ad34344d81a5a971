"""The TCP server: the version store, served over the wire, one thread per
connection.

:class:`ReproServer` promotes the in-process façade to a served database:

* **Transport** — the listener, the connection threads, the frame reader
  and what ``stop`` promises are :mod:`repro.server.transport`'s (described
  there, once).  What this module decides: a framing fault — torn tail,
  bad CRC, oversized length, malformed envelope — costs that connection
  only, after the requests read before it are answered; other connections
  are untouched and a fresh connect is served normally.
* **Tenants** — every request names a tenant; stores open on first use
  from the :class:`~repro.server.registry.StoreRegistry` catalog and close
  (checkpointing) at shutdown.
* **A connection is a thread** (``repro-server-conn-N``) that reads a
  *burst* — for a pipelined client many frames (the
  ``server.pipeline.depth`` histogram) — admits it, executes the admitted
  requests **in arrival order** against the thread-safe façade, encodes
  the response frames and writes them with one ``send``, all where the
  bytes arrived: no event loop, no hand-off to another thread, no future
  per request.  Responses on one connection therefore come back **in
  request order** (a client still matches them by request id): a slow
  scan delays what was pipelined behind it on the *same* socket, never a
  request on another socket.  A peer that stops reading stalls only its
  own thread, and TCP back-pressure — not a queue — is what holds a
  flooding client: the thread does not read the next burst before it has
  answered this one.
* **Dispatch** — no per-opcode code: :meth:`ReproServer._apply` runs any
  row of :data:`repro.server.protocol.OPS` (writable check → ownership
  check → call → clip-to-owned → pack), writes included — an auto-stamped
  ``INSERT`` is ``store.insert``, a ``PUT_MANY`` is ``store.put_many``, each
  its own commit in the order the log wrote down.
* **Execution slots** — at most ``workers`` bursts execute store work at
  once (a semaphore): the bound that keeps many writers from convoying on
  a store's write latch.  A slot is held while a burst executes and
  encodes, never while it waits on the socket.
* **Streaming** — scan answers too large for one frame (``range_search``,
  ``snapshot``, ``key_history``, ``time_slice``) leave as bounded
  ``[PARTIAL]* [OK]`` chunk runs under the request's id instead of
  failing on the frame bound (``server.stream.chunks`` counts them), and a
  burst's pending frames are flushed whenever they pass
  :data:`~repro.server.protocol.STREAM_CHUNK_BYTES`, so a burst of scans
  buffers one answer at a time, not the burst's.
* **Admission control** — at most ``max_inflight`` requests are admitted
  and unanswered server-wide and at most ``max_pending_per_connection`` of
  one burst are admitted; the excess is *rejected immediately* with an
  explicit ``SERVER_BUSY`` status rather than queued without bound, so an
  overloaded server degrades by shedding load, not by growing latency.
* **Observability** — per-op service latency histograms
  (``server.op.<name>``), connection / in-flight gauges,
  request/busy/error counters and the write share of each burst
  (``server.batch.requests`` / ``server.batch.items``) land in a
  :mod:`repro.obs` registry; the ``STATS`` opcode renders the whole picture
  as JSON or Prometheus text for ``repro stats --server``.

:meth:`start` / :meth:`stop` (or a ``with`` block) drive it from
synchronous code.  :meth:`stop` is the transport's graceful shutdown, then
every tenant store is closed — and when it returns no ``repro-server*``
thread is alive.
"""

from __future__ import annotations

import json
import threading
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.api.engine import VersionStoreError
from repro.api.sharded import ShardedVersionStore
from repro.api.store import StoreConfig
from repro.obs.prometheus import render_prometheus
from repro.obs.registry import COUNT_BUCKETS, MetricsRegistry
from repro.server import protocol
from repro.server.protocol import (
    OPS,
    Op,
    Opcode,
    ProtocolError,
    Request,
    Status,
)
from repro.server.registry import StoreRegistry
from repro.server.transport import Connection, Listener
from repro.storage.serialization import SerializationError

#: ``server.op.<name>`` — each opcode's latency histogram, named once.
_OP_METRIC = {opcode: f"server.op.{opcode.name.lower()}" for opcode in Opcode}


class ReproServer:
    """Serve a :class:`~repro.server.registry.StoreRegistry` over TCP.

    Parameters
    ----------
    catalog:
        ``{tenant: StoreConfig}`` — or an already-built
        :class:`StoreRegistry` to share one registry across servers.
    host, port:
        Listen address; ``port=0`` binds an ephemeral port (read the
        chosen one back from :attr:`port` after :meth:`start`).
    workers:
        How much store work runs at once: the number of connections whose
        bursts may execute concurrently (the others wait their turn; a
        connection waiting on its socket holds no slot).
    max_inflight:
        Server-wide cap on requests admitted and not yet executed; excess
        requests are answered ``SERVER_BUSY``.
    max_pending_per_connection:
        How many requests of one burst — what a connection pipelined into
        one read — are admitted, same rejection.  The default accommodates
        a pipelined client at depth 64 with headroom.
    """

    def __init__(
        self,
        catalog,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        workers: int = 4,
        max_inflight: int = 64,
        max_pending_per_connection: int = 128,
        metrics: Optional[MetricsRegistry] = None,
        node=None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        if max_inflight < 1:
            raise ValueError("max_inflight must be at least 1")
        if max_pending_per_connection < 1:
            raise ValueError("max_pending_per_connection must be at least 1")
        self.registry = (
            catalog if isinstance(catalog, StoreRegistry) else StoreRegistry(catalog)
        )
        self.host = host
        self.port = port
        self.workers = workers
        self.max_inflight = max_inflight
        self.max_pending_per_connection = max_pending_per_connection
        #: Per-op service latencies, connection/inflight gauges, request /
        #: busy / error counters — the server's face in ``repro.obs``.
        self.metrics = metrics or MetricsRegistry(name="server")
        #: Optional cluster-membership hook (a ``NodeRole`` from
        #: :mod:`repro.replication.cluster`).  When set, keyed operations
        #: are ownership-checked (stale routing answers ``WRONG_SHARD``
        #: with the node's current routing table), scatter reads are
        #: clipped to owned ranges, and the migration opcodes (``ROUTE``,
        #: ``SNAPSHOT_READ``, ``SNAPSHOT_CHUNK``, ``CUTOVER``) are live.
        self.node = node

        #: Set from :meth:`start` until :meth:`stop` has finished.
        self._listener: Optional[Listener] = None
        self._started = False
        self._slots = threading.BoundedSemaphore(workers)
        #: Guards ``_open`` and ``_inflight``.
        self._lock = threading.Lock()
        self._open = 0  # connections being served
        self._inflight = 0
        self._stop_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ReproServer":
        """Bind, then accept on a background thread; returns once bound."""
        if self._started:
            raise RuntimeError("this ReproServer was already started")
        try:
            self._listener = Listener(
                self.host,
                self.port,
                self._serve_connection,
                accept_name="repro-server",
                connection_name="repro-server-conn",
            )
        except OSError as exc:
            raise RuntimeError(f"server failed to start: {exc}") from exc
        self._started = True
        self.port = self._listener.port
        self._listener.start()
        return self

    def stop(self, timeout: float = 30.0) -> None:
        """Graceful shutdown; returns once every store is closed.

        Stop accepting; let every burst a connection has already read be
        executed and answered (up to ``timeout`` seconds — a peer that has
        stopped reading its answers is cut off then); close the
        connections; close the tenant stores.  Idempotent; a second caller
        waits for the first.
        """
        with self._stop_lock:
            if self._listener is None:  # never started, or already stopped
                return
            # Raises, leaving the stores open, when a thread outlives it:
            # closing them under a request still running would corrupt its
            # answer.
            self._listener.stop(timeout)
            self.registry.close_all()
            self._listener = None

    def serve_forever(self) -> None:
        """Start and block until interrupted (the CLI foreground mode)."""
        self.start()
        try:
            while not self._listener.wait(0.5):
                pass
        except KeyboardInterrupt:  # pragma: no cover - interactive exit
            pass
        finally:
            self.stop()

    def __enter__(self) -> "ReproServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    @property
    def address(self) -> Tuple[str, int]:
        return self.host, self.port

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    def _serve_connection(self, connection: Connection) -> None:
        """One connection's whole life: read a burst, answer it, repeat."""
        metrics = self.metrics
        self._opened(1)
        try:
            for bodies in iter(connection.read_frames, []):
                requests: List[Request] = []
                rejects: List[Tuple[int, str]] = []
                malformed: Optional[ProtocolError] = None
                for body in bodies:
                    try:
                        requests.append(protocol.decode_request(body))
                    except protocol.UnknownOpcodeError as exc:
                        rejects.append((exc.request_id, str(exc)))
                    except ProtocolError as exc:
                        # An envelope that does not decode is as untrustworthy
                        # as a framing fault: answer what came before it, then
                        # drop the connection.
                        malformed = exc
                        break
                if rejects:
                    # Well-framed requests naming a foreign opcode: the stream
                    # is intact, so reject each request and carry on.
                    metrics.inc("server.protocol_errors", len(rejects))
                    connection.send(
                        b"".join(
                            protocol.encode_refusal(request_id, Status.BAD_REQUEST, message)
                            for request_id, message in rejects
                        )
                    )
                if requests:
                    metrics.observe(
                        "server.pipeline.depth", len(requests), bounds=COUNT_BUCKETS
                    )
                    self._answer(connection, requests)
                if malformed is not None:
                    raise malformed
        except ProtocolError:
            # Torn tail, poisoned stream or malformed envelope: this
            # connection is dropped; the listener and every other one carry on.
            metrics.inc("server.protocol_errors")
        except OSError:
            pass  # the peer reset, or stop() cut a send to a peer that never reads
        finally:
            self._opened(-1)

    def _opened(self, change: int) -> None:
        with self._lock:
            self._open += change
            self.metrics.set_gauge("server.connections", self._open)

    def _answer(self, connection: Connection, requests: List[Request]) -> None:
        """Admit a parsed burst; execute and answer it in arrival order.

        The head of the burst that fits both admission limits runs — under
        one execution slot, released for every socket write — and the rest
        is refused ``SERVER_BUSY``, answered after the head so the
        connection's responses stay in request order.
        """
        metrics = self.metrics
        with self._lock:
            room = max(
                0, min(self.max_pending_per_connection, self.max_inflight - self._inflight)
            )
            admitted, refused = requests[:room], requests[room:]
            self._inflight += len(admitted)
            inflight = self._inflight
            metrics.set_gauge("server.inflight", inflight)
        metrics.inc("server.requests", len(admitted))
        done = 0
        try:
            while done < len(admitted):
                with self._slots:
                    frames, end = self._execute(admitted, done)
                self._executed(end - done)
                done = end
                connection.send(b"".join(frames))
        finally:
            self._executed(len(admitted) - done)  # a send failed: the rest never ran
        if refused:
            metrics.inc("server.busy", len(refused))
            message = (
                f"admission limit reached ({inflight} in flight server-wide, "
                f"{len(admitted)} of this burst of {len(requests)} admitted)"
            )
            connection.send(
                b"".join(
                    protocol.encode_refusal(request.request_id, Status.SERVER_BUSY, message)
                    for request in refused
                )
            )

    def _executed(self, count: int) -> None:
        """``count`` admitted requests no longer count against ``max_inflight``."""
        if count:
            with self._lock:
                self._inflight -= count
                self.metrics.set_gauge("server.inflight", self._inflight)

    def _execute(
        self, requests: List[Request], start: int
    ) -> Tuple[List[bytes], int]:
        """Run ``requests[start:]`` in order; returns their response frames
        and where it stopped — the end, or earlier once the frames pass
        ``STREAM_CHUNK_BYTES`` (the caller sends those and comes back)."""
        metrics = self.metrics
        frames: List[bytes] = []
        size = writes = items = streamed = 0
        index = start
        while index < len(requests) and size <= protocol.STREAM_CHUNK_BYTES:
            request = requests[index]
            index += 1
            started = perf_counter()
            try:
                op = OPS.get(request.opcode)
                if op is None:
                    raise ProtocolError(
                        f"{request.opcode.name} belongs to the replication "
                        "stream; this listener speaks request/response"
                    )
                args = protocol.decode_args(op, request.payload)
                if op.kind == protocol.WRITE:
                    writes += 1
                    items += 1 if op.keyed else len(args[0])
                status, payload = Status.OK, self._apply(request.tenant, op, args)
            except Exception as exc:  # noqa: BLE001 - the server outlives any op
                status, payload = self._failure(exc)
            metrics.observe(_OP_METRIC[request.opcode], perf_counter() - started)
            if isinstance(payload, list):  # a streamed row: [PARTIAL]* then the last
                if len(payload) > 1:
                    streamed += len(payload)
                for chunk in payload[:-1]:
                    frames.append(
                        protocol.encode_response(request.request_id, Status.PARTIAL, chunk)
                    )
                    size += len(chunk)
                payload = payload[-1]
            frames.append(protocol.encode_response(request.request_id, status, payload))
            size += len(payload)
        if streamed:
            metrics.inc("server.stream.chunks", streamed)
        if writes:
            metrics.observe("server.batch.requests", writes, bounds=COUNT_BUCKETS)
            metrics.observe("server.batch.items", items, bounds=COUNT_BUCKETS)
        return frames, index

    def _failure(self, exc: Exception) -> Tuple[Status, bytes]:
        """The one exception → ``(status, payload)`` ladder."""
        if isinstance(exc, protocol.WrongShardError):
            self.metrics.inc("server.wrong_shard")
            return Status.WRONG_SHARD, protocol.pack_routing(exc.routes)
        if isinstance(exc, (ProtocolError, SerializationError)):
            self.metrics.inc("server.protocol_errors")
            return Status.BAD_REQUEST, protocol.pack_error(str(exc))
        self.metrics.inc("server.errors")
        return Status.ERROR, protocol.pack_error(f"{type(exc).__name__}: {exc}")

    def _apply(self, tenant: str, op: Op, args: tuple) -> Union[bytes, List[bytes]]:
        """One operation, straight from its table row: writable check →
        ownership check → call → clip-to-owned → pack.

        A streamed row packs to a *list* of chunk payloads (length 1 when
        the answer fits one chunk — byte-identical to the unstreamed
        response); everything else packs to a single payload.

        With a cluster :attr:`node` attached, an op on a key this node does
        not own — the row's key, or any item of an unkeyed write — raises
        ``WrongShardError``; a spans-keys answer is clipped to owned ranges
        (a migrated-away range's frozen local copy is never served) and
        refused outright while a cutover has a range frozen, when neither
        side of the move would answer for it.
        """
        if op.target == protocol.SERVER:  # the two rows that touch no store
            value = None if op.opcode is Opcode.PING else self._render_stats(*args)
            return protocol.encode_answer(op, value)
        node = self.node
        if op.kind == protocol.WRITE:
            self._check_writable(tenant)
        store = self.registry.get(tenant)
        if op.target == protocol.NODE:
            if node is None:
                raise VersionStoreError(
                    "this server has no cluster node attached; "
                    f"{op.opcode.name} is a cluster opcode"
                )
            value = getattr(node, op.method)(store, *args)
        else:
            if node is not None:
                if op.keyed:
                    node.check_key(args[0])
                elif op.kind == protocol.WRITE:
                    for key, _ in args[0]:
                        node.check_key(key)
                elif op.spans_keys:
                    node.check_unfrozen()
            method = getattr(store, op.method)
            # A property (``now``) is its own answer.
            value = method(*args) if callable(method) else method
            if node is not None and op.spans_keys:
                value = op.answer.clip(value, node.owns)
        return protocol.encode_answer(op, value)

    def _check_writable(self, tenant: str) -> None:
        if self.registry.is_read_only(tenant):
            raise VersionStoreError(
                f"tenant {tenant!r} is a read-only follower; writes go to "
                "the primary"
            )

    # ------------------------------------------------------------------
    # Stats rendering (the STATS opcode)
    # ------------------------------------------------------------------
    def _tenant_registries(self) -> List[MetricsRegistry]:
        registries: List[MetricsRegistry] = []
        for tenant in self.registry.open_tenants():
            store = self.registry.get(tenant)
            registries.append(store.metrics)
            if isinstance(store, ShardedVersionStore):
                registries.extend(inner.metrics for inner in store.shard_stores)
        return registries

    def _render_stats(self, fmt: str) -> bytes:
        if fmt == "prometheus":
            aggregate = MetricsRegistry.aggregate(
                [self.metrics] + self._tenant_registries(), name="server"
            )
            return render_prometheus(aggregate).encode("utf-8")
        if fmt == "json":
            snapshot = {
                "server": self.metrics.snapshot(),
                "tenants": {
                    tenant: self.registry.get(tenant).metrics_snapshot()
                    for tenant in self.registry.open_tenants()
                },
            }
            return json.dumps(snapshot, sort_keys=True, default=str).encode("utf-8")
        raise ProtocolError(f"unknown stats format {fmt!r}; use 'json' or 'prometheus'")


def default_catalog(
    tenants: Sequence[str] = ("default",),
    *,
    engine: str = "tsb",
    shards: int = 1,
    key_space: int = 1 << 20,
    wal: bool = False,
    scatter_threads: int = 1,
) -> Dict[str, StoreConfig]:
    """A uniform catalog: every named tenant gets the same store shape.

    ``shards > 1`` key-range-partitions each tenant over the integer key
    domain ``[0, key_space)``; ``wal`` attaches per-shard write-ahead logs
    with group commit (``tsb`` only), so concurrent connections' commits
    share log forces.
    """
    from repro.api.store import ShardSpec

    spec = (
        ShardSpec.for_int_keys(
            shards, key_space=key_space, scatter_threads=scatter_threads
        )
        if shards > 1
        else None
    )
    config = StoreConfig(
        engine=engine,
        wal=wal and engine == "tsb",
        group_commit_size=8 if (wal and engine == "tsb") else 1,
        shards=spec,
    )
    return {tenant: config for tenant in tenants}
