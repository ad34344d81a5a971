"""The asyncio TCP server: the version store, served over the wire.

:class:`ReproServer` promotes the in-process façade to a served database:

* **Framing** — requests and responses travel in the CRC-checked
  ``[length][crc][body]`` frames of :mod:`repro.server.protocol`.  A
  malformed frame (bad CRC, oversized length, truncated body) poisons the
  byte stream, so the connection is dropped; other connections are
  untouched and a fresh connect is served normally.
* **Tenants** — every request names a tenant; stores open on first use
  from the :class:`~repro.server.registry.StoreRegistry` catalog and close
  (checkpointing) at shutdown.
* **Dispatch** — no per-opcode code: :meth:`ReproServer._apply` runs any
  row of :data:`repro.server.protocol.OPS` (writable check → ownership
  check → call → clip-to-owned → pack); only ``PING`` / ``STATS`` (no
  store) and ``PUT_MANY`` / auto-stamped ``INSERT`` (the write batcher) go
  another way.  The asyncio loop never touches a store: requests are
  bridged to the thread-safe façade on a bounded worker pool
  (``loop.run_in_executor``), so a slow scatter-gather query never stalls
  frame reading or other connections.  The read loop drains the socket in
  bulk and parses every complete frame per read — a pipelined client's
  burst is admitted as one batch, read requests coalesce into a single
  executor hop per tenant, and the batch's responses go out in one socket
  write (observed by the ``server.pipeline.depth`` histogram).
* **Streaming** — scan answers too large for one frame (``range_search``,
  ``snapshot``, ``key_history``, ``time_slice``) leave as bounded
  ``[PARTIAL]* [OK]`` chunk runs under the request's id instead of
  failing on the frame bound (``server.stream.chunks`` counts them).
* **Write batching** — concurrent auto-stamped ``insert`` and ``put_many``
  requests for one tenant coalesce in a per-tenant
  :class:`_WriteBatcher`: while one ``put_many`` is applying, arriving
  writes queue, and the next drain applies them as a single batch — the
  served analogue of group commit, riding the store's own
  transactional/group-commit path (and preserving the store-stamped
  commit order the differential oracles check).
* **Admission control** — at most ``max_inflight`` requests execute
  server-wide and at most ``max_pending_per_connection`` per connection;
  excess requests are *rejected immediately* with an explicit
  ``SERVER_BUSY`` status rather than queued without bound, so an
  overloaded server degrades by shedding load, not by growing latency.
* **Observability** — per-op service latency histograms
  (``server.op.<name>``), connection / in-flight gauges and
  request/busy/error counters land in a :mod:`repro.obs` registry; the
  ``STATS`` opcode renders the whole picture as JSON or Prometheus text
  for ``repro stats --server``.

The server runs its event loop on a dedicated thread (:meth:`start` /
:meth:`stop`, or a ``with`` block), so synchronous clients, tests and the
CLI drive it without touching asyncio.  :meth:`stop` is a graceful
shutdown: stop accepting, let in-flight requests finish, close every
connection, then close every tenant store.
"""

from __future__ import annotations

import asyncio
import json
import threading
import zlib
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.api.engine import VersionStoreError
from repro.api.sharded import ShardedVersionStore
from repro.api.store import StoreConfig
from repro.obs.prometheus import render_prometheus
from repro.obs.registry import COUNT_BUCKETS, MetricsRegistry
from repro.server import protocol
from repro.server.protocol import (
    FRAME_HEADER,
    OPS,
    Op,
    Opcode,
    ProtocolError,
    Request,
    Status,
)
from repro.server.registry import StoreRegistry
from repro.storage.serialization import Key, SerializationError

#: How much the read loop pulls off the socket per ``read()``.  A pipelined
#: client's burst of frames lands in one read, so the parser sees — and the
#: dispatcher coalesces — the whole burst at once.
READ_CHUNK_BYTES = 256 * 1024

#: One response: ``(request_id, status, payload)`` where the payload is
#: either a single frame body or the list of streamed chunks.
_Result = Tuple[int, Status, Union[bytes, List[bytes]]]

#: The writes that ride the per-tenant :class:`_WriteBatcher`.
_BATCHED_OPCODES = frozenset({Opcode.INSERT, Opcode.PUT_MANY})
#: Opcodes that coalesce into per-tenant worker-pool dispatches (one
#: executor hop per tenant per parsed batch): every table row that reaches a
#: store or the cluster node, minus the batched writes — those keep their
#: own tasks, as do ``PING`` / ``STATS``, which touch no store.
_GROUPED_OPCODES = (
    frozenset(op.opcode for op in OPS.values() if op.target != protocol.SERVER)
    - _BATCHED_OPCODES
)


def _error_frame(request_id: int, status: Status, message: str) -> bytes:
    """One refusal / failure response frame carrying ``message``."""
    return protocol.encode_response(request_id, status, protocol.pack_error(message))


class _Connection:
    """Per-connection server state: the writer, its lock, and backpressure."""

    __slots__ = ("writer", "lock", "pending")

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self.writer = writer
        self.lock = asyncio.Lock()
        #: Requests admitted on this connection and not yet responded to.
        self.pending = 0

    async def send_many(self, frames: Sequence[bytes]) -> None:
        """Write a batch of response frames as one socket write (serialized:
        concurrent tasks respond on the same connection)."""
        if not frames:
            return
        async with self.lock:
            try:
                self.writer.writelines(frames)
                await self.writer.drain()
            except (ConnectionError, OSError):
                pass  # client went away; its requests were still executed


class _WriteBatcher:
    """Coalesce one tenant's concurrent writes into one worker-pool hop.

    Submissions append to a pending list; a single drain task (started on
    demand, never more than one per tenant) repeatedly swaps the list out,
    applies every queued request in **one** worker-pool dispatch, and
    distributes the store-assigned timestamps back to each submitter.
    While a batch is applying, new arrivals queue for the next swap —
    exactly the arrival-batching shape of the WAL's group commit, one
    level up.

    Each request's items are applied as their *own* ``store.put_many``
    call inside that single hop, never concatenated across requests:
    ``put_many`` stamps per call (a WAL run shares its commit timestamp),
    so concatenation would merge runs and produce a history a serial
    replay of the same requests could never produce.  Coalescing here
    removes executor round trips and event-loop latency — it must stay
    invisible to the stamp oracle.
    """

    def __init__(self, server: "ReproServer", tenant: str) -> None:
        self._server = server
        self._tenant = tenant
        self._pending: List[Tuple[List[Tuple[Key, bytes]], asyncio.Future]] = []
        self._draining = False

    async def submit(self, items: List[Tuple[Key, bytes]]) -> List[int]:
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._pending.append((items, future))
        if not self._draining:
            self._draining = True
            task = loop.create_task(self._drain())
            self._server._track(task)
        return await future

    def _apply(
        self, batches: List[List[Tuple[Key, bytes]]]
    ) -> List[Union[List[int], BaseException]]:
        """Apply each request's items; per-request failures stay per-request.

        A request whose keys this node does not own fails alone (with
        :exc:`~repro.server.protocol.WrongShardError`) instead of failing
        every co-batched submitter — routing staleness is one client's
        problem, not the batch's.
        """
        server = self._server
        put_many = server.registry.get(self._tenant).put_many
        results: List[Union[List[int], BaseException]] = []
        for items in batches:
            try:
                server._check_items(self._tenant, items)
                results.append(put_many(items))
            except Exception as exc:  # noqa: BLE001 - delivered to the submitter
                results.append(exc)
        return results

    async def _drain(self) -> None:
        loop = asyncio.get_running_loop()
        metrics = self._server.metrics
        while self._pending:
            # Widen the coalescing window one loop tick: every submitter
            # whose request is already parsed and scheduled — on *any*
            # connection, now that pipelined clients present many frames at
            # once — lands in this batch instead of waiting out a full
            # store round trip for the next one.
            await asyncio.sleep(0)
            batch = self._pending
            self._pending = []
            request_items = [items for items, _ in batch]
            try:
                stamp_lists = await loop.run_in_executor(
                    self._server._pool, self._apply, request_items
                )
            except Exception as exc:  # noqa: BLE001 - delivered to every waiter
                for _, future in batch:
                    if not future.done():
                        future.set_exception(exc)
                continue
            metrics.observe("server.batch.requests", len(batch), bounds=COUNT_BUCKETS)
            metrics.observe(
                "server.batch.items",
                sum(len(items) for items in request_items),
                bounds=COUNT_BUCKETS,
            )
            for (_, future), outcome in zip(batch, stamp_lists):
                if future.done():
                    continue
                if isinstance(outcome, BaseException):
                    future.set_exception(outcome)
                else:
                    future.set_result(outcome)
        self._draining = False


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
        Worker-pool threads bridging the asyncio loop to the stores.
    max_inflight:
        Server-wide cap on concurrently executing requests; excess
        requests are answered ``SERVER_BUSY``.
    max_pending_per_connection:
        Per-connection pipelining allowance, same rejection.  The default
        accommodates a pipelined client at depth 64 with headroom.
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

        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._pool: Optional[ThreadPoolExecutor] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._startup_error: Optional[BaseException] = None
        self._tasks: set = set()
        self._connections: set = set()
        self._batchers: Dict[str, _WriteBatcher] = {}
        self._inflight = 0
        self._shutting_down = False
        self._stopped = threading.Event()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ReproServer":
        """Start serving on a background thread; returns once bound."""
        if self._thread is not None:
            raise RuntimeError("this ReproServer was already started")
        ready = threading.Event()
        self._thread = threading.Thread(
            target=self._run, args=(ready,), name="repro-server", daemon=True
        )
        self._thread.start()
        ready.wait(timeout=30)
        if self._startup_error is not None:
            self._thread.join(timeout=5)
            raise RuntimeError(
                f"server failed to start: {self._startup_error}"
            ) from self._startup_error
        if self._server is None:
            raise RuntimeError("server failed to start (no listener bound)")
        return self

    def stop(self, timeout: float = 30.0) -> None:
        """Graceful shutdown; returns once every store is closed."""
        loop, thread = self._loop, self._thread
        if loop is None or thread is None:
            return
        if not self._stopped.is_set():
            try:
                loop.call_soon_threadsafe(self._request_stop)
            except RuntimeError:  # loop already closed
                pass
        thread.join(timeout=timeout)
        if thread.is_alive():  # pragma: no cover - diagnostic path
            raise RuntimeError("server did not shut down in time")

    def serve_forever(self) -> None:
        """Start and block until interrupted (the CLI foreground mode)."""
        self.start()
        try:
            while self._thread is not None and self._thread.is_alive():
                self._thread.join(timeout=0.5)
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

    def _request_stop(self) -> None:
        if self._stop_event is not None:
            self._stop_event.set()

    def _run(self, ready: threading.Event) -> None:
        try:
            asyncio.run(self._main(ready))
        except BaseException as exc:  # pragma: no cover - loop crash diagnostics
            self._startup_error = self._startup_error or exc
        finally:
            ready.set()
            self._stopped.set()

    async def _main(self, ready: threading.Event) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self._pool = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="server-worker"
        )
        try:
            self._server = await asyncio.start_server(
                self._handle_connection, self.host, self.port
            )
        except OSError as exc:
            self._startup_error = exc
            self._pool.shutdown(wait=False)
            ready.set()
            return
        sockets = self._server.sockets or ()
        if sockets:
            self.port = sockets[0].getsockname()[1]
        ready.set()
        await self._stop_event.wait()
        await self._shutdown()

    async def _shutdown(self) -> None:
        """Stop accepting, drain in-flight work, close connections and stores."""
        self._shutting_down = True
        assert self._server is not None
        self._server.close()
        await self._server.wait_closed()
        pending = [task for task in self._tasks if not task.done()]
        if pending:
            await asyncio.wait(pending, timeout=10)
        for connection in list(self._connections):
            connection.writer.close()
        await asyncio.sleep(0)  # let the read loops observe the close
        if self._pool is not None:
            self._pool.shutdown(wait=True)
        self.registry.close_all()

    def _track(self, task: "asyncio.Task") -> None:
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        if self._shutting_down:
            writer.close()
            return
        connection = _Connection(writer)
        self._connections.add(connection)
        self.metrics.set_gauge("server.connections", len(self._connections))
        try:
            await self._read_loop(reader, connection)
        except (ConnectionError, OSError):
            pass  # peer reset mid-write/read
        finally:
            self._connections.discard(connection)
            self.metrics.set_gauge("server.connections", len(self._connections))
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - teardown race
                pass

    async def _read_loop(
        self, reader: asyncio.StreamReader, connection: _Connection
    ) -> None:
        """Drain the socket in bulk and dispatch every parsed frame at once.

        Unlike a frame-at-a-time ``readexactly`` loop, one ``read()`` pulls
        a pipelined client's whole burst into the connection buffer; the
        parser then slices every complete frame out with memoryviews (one
        copy per body, straight from the buffer) and the dispatcher admits
        the batch together — which is what lets read requests coalesce into
        single worker-pool hops and writes pile into one batcher drain.
        """
        buffer = bytearray()
        while True:
            data = await reader.read(READ_CHUNK_BYTES)
            if not data:
                if buffer:
                    # EOF inside a frame: the wire analogue of the WAL's
                    # torn tail.  Nothing to answer.
                    self.metrics.inc("server.protocol_errors")
                return
            buffer += data
            requests, consumed, rejects, poisoned = self._parse_frames(buffer)
            del buffer[:consumed]
            if rejects:
                # Well-framed requests naming a foreign opcode: the stream
                # is intact, so reject each request and carry on.
                self.metrics.inc("server.protocol_errors", len(rejects))
                await connection.send_many(
                    [
                        _error_frame(request_id, Status.BAD_REQUEST, message)
                        for request_id, message in rejects
                    ]
                )
            if requests:
                self.metrics.observe(
                    "server.pipeline.depth", len(requests), bounds=COUNT_BUCKETS
                )
                await self._admit_and_dispatch(connection, requests)
            if poisoned:
                # Oversized length prefix or CRC mismatch: the byte stream
                # itself cannot be trusted past this point, so the frame
                # boundary is gone.  Drop the connection; the listener and
                # every other connection carry on.
                self.metrics.inc("server.protocol_errors")
                return

    @staticmethod
    def _parse_frames(buffer: bytearray):
        """Slice every complete frame off ``buffer``'s head.

        Returns ``(requests, consumed_bytes, rejects, poisoned)`` where
        ``rejects`` holds ``(request_id, message)`` for unknown-opcode
        frames and ``poisoned`` means the stream is untrustworthy past the
        parsed prefix (the caller must drop the connection).
        """
        requests: List[Request] = []
        rejects: List[Tuple[int, str]] = []
        offset = 0
        poisoned = False
        header_size = FRAME_HEADER.size
        view = memoryview(buffer)
        try:
            while len(buffer) - offset >= header_size:
                length, crc = FRAME_HEADER.unpack_from(buffer, offset)
                if length > protocol.MAX_BODY_BYTES:
                    poisoned = True
                    break
                end = offset + header_size + length
                if len(buffer) < end:
                    break
                body = bytes(view[offset + header_size : end])
                offset = end
                if zlib.crc32(body) != crc:
                    poisoned = True
                    break
                try:
                    requests.append(protocol.decode_request(body))
                except protocol.UnknownOpcodeError as exc:
                    rejects.append((exc.request_id, str(exc)))
                except ProtocolError:
                    poisoned = True
                    break
        finally:
            view.release()
        return requests, offset, rejects, poisoned

    async def _admit_and_dispatch(
        self, connection: _Connection, requests: List[Request]
    ) -> None:
        """Admission-check a parsed batch, then dispatch it coalesced.

        Writes and the singleton ops keep their per-request tasks (the
        write batcher coalesces writes itself); read requests are grouped
        per tenant and each group crosses the executor bridge **once** —
        the read-side analogue of the write batcher.
        """
        loop = asyncio.get_running_loop()
        refusals: List[bytes] = []
        busy = 0
        groups: Dict[str, List[Request]] = {}
        for request in requests:
            if self._shutting_down:
                refusals.append(
                    _error_frame(
                        request.request_id, Status.ERROR, "server is shutting down"
                    )
                )
                continue
            if (
                self._inflight >= self.max_inflight
                or connection.pending >= self.max_pending_per_connection
            ):
                busy += 1
                refusals.append(
                    _error_frame(
                        request.request_id,
                        Status.SERVER_BUSY,
                        f"admission limit reached "
                        f"({self._inflight} in flight server-wide, "
                        f"{connection.pending} pending on this connection)",
                    )
                )
                continue
            self._inflight += 1
            connection.pending += 1
            self.metrics.inc("server.requests")
            if request.opcode in _GROUPED_OPCODES:
                groups.setdefault(request.tenant, []).append(request)
            else:
                work = partial(self._execute, request)
                self._track(loop.create_task(self._serve(connection, (request,), work)))
        self.metrics.set_gauge("server.inflight", self._inflight)
        if busy:
            self.metrics.inc("server.busy", busy)
        for tenant, group in groups.items():
            # One tenant's batch: one executor hop, one socket write.
            work = partial(
                loop.run_in_executor, self._pool, self._execute_group, tenant, group
            )
            self._track(loop.create_task(self._serve(connection, group, work)))
        await connection.send_many(refusals)

    async def _serve(
        self, connection: _Connection, requests: Sequence[Request], work
    ) -> None:
        """Await ``work()`` (one :data:`_Result` per request), free the admission
        slots, then write every response, streamed chunks included, in one go."""
        try:
            results = await work()
        except Exception as exc:  # noqa: BLE001 - pool shut down mid-flight
            status, payload = self._failure(exc)
            results = [(request.request_id, status, payload) for request in requests]
        finally:
            self._inflight -= len(requests)
            connection.pending -= len(requests)
            self.metrics.set_gauge("server.inflight", self._inflight)
        frames: List[bytes] = []
        streamed = 0
        for request_id, status, payload in results:
            if isinstance(payload, list):
                for chunk in payload[:-1]:
                    frames.append(
                        protocol.encode_response(request_id, Status.PARTIAL, chunk)
                    )
                frames.append(protocol.encode_response(request_id, status, payload[-1]))
                if len(payload) > 1:
                    streamed += len(payload)
            else:
                frames.append(protocol.encode_response(request_id, status, payload))
        if streamed:
            self.metrics.inc("server.stream.chunks", streamed)
        await connection.send_many(frames)

    def _execute_group(self, tenant: str, group: List[Request]) -> List[_Result]:
        """Worker-thread half of a grouped dispatch: every request of the
        batch against the tenant's store, one registry lookup for all."""
        try:
            store = self.registry.get(tenant)
        except Exception as exc:  # noqa: BLE001 - e.g. UnknownTenantError
            status, payload = self._failure(exc)
            return [(request.request_id, status, payload) for request in group]
        results: List[_Result] = []
        for request in group:
            started = perf_counter()
            op = OPS[request.opcode]
            try:
                args = protocol.decode_args(op, request.payload)
                status, payload = Status.OK, self._apply(store, tenant, op, args)
            except Exception as exc:  # noqa: BLE001 - the server outlives any op
                status, payload = self._failure(exc)
            self.metrics.observe(
                f"server.op.{request.opcode.name.lower()}", perf_counter() - started
            )
            results.append((request.request_id, status, payload))
        return results

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

    def _apply(
        self, store, tenant: str, op: Op, args: tuple
    ) -> Union[bytes, List[bytes]]:
        """One operation against an open store, straight from its table row:
        writable check → ownership check → call → clip-to-owned → pack.

        A streamed row packs to a *list* of chunk payloads (length 1 when
        the answer fits one chunk — byte-identical to the unstreamed
        response); everything else packs to a single payload.

        With a cluster :attr:`node` attached, a keyed op on an unowned key
        raises ``WrongShardError``; a spans-keys answer is clipped to owned
        ranges (a migrated-away range's frozen local copy is never served)
        and refused outright while a cutover has a range frozen, when
        neither side of the move would answer for it.
        """
        node = self.node
        if op.kind == protocol.WRITE:
            self._check_writable(tenant)
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
                elif op.spans_keys:
                    node.check_unfrozen()
            method = getattr(store, op.method)
            # A property (``now``) is its own answer.
            value = method(*args) if callable(method) else method
            if node is not None and op.spans_keys:
                value = op.answer.clip(value, node.owns)
        return protocol.encode_answer(op, value)

    # ------------------------------------------------------------------
    # Cluster-membership checks (no-ops without a node)
    # ------------------------------------------------------------------
    def _check_items(self, tenant: str, items) -> None:
        self._check_writable(tenant)
        if self.node is not None:
            for key, _ in items:
                self.node.check_key(key)

    def _check_writable(self, tenant: str) -> None:
        if self.registry.is_read_only(tenant):
            raise VersionStoreError(
                f"tenant {tenant!r} is a read-only follower; writes go to "
                "the primary"
            )

    # ------------------------------------------------------------------
    # Request execution
    # ------------------------------------------------------------------
    def _batcher(self, tenant: str) -> _WriteBatcher:
        batcher = self._batchers.get(tenant)
        if batcher is None:
            batcher = self._batchers[tenant] = _WriteBatcher(self, tenant)
        return batcher

    async def _execute(self, request: Request) -> List[_Result]:
        """An ungrouped request, on its own task: the two ops that touch no
        store, the writes that ride the tenant's batcher, and (an explicitly
        stamped ``INSERT``) one :meth:`_apply` on its own executor hop."""
        started = perf_counter()
        loop = asyncio.get_running_loop()
        opcode, tenant = request.opcode, request.tenant
        op = OPS[opcode]
        try:
            args = protocol.decode_args(op, request.payload)
            if opcode is Opcode.INSERT and args[2] is not None:
                payload = await loop.run_in_executor(
                    self._pool,
                    lambda: self._apply(self.registry.get(tenant), tenant, op, args),
                )
            else:
                if opcode is Opcode.PING:
                    value = None
                elif opcode is Opcode.STATS:
                    value = await loop.run_in_executor(
                        self._pool, self._render_stats, *args
                    )
                elif opcode is Opcode.PUT_MANY:
                    value = await self._batcher(tenant).submit(*args)
                else:
                    # Auto-stamped inserts ride the tenant's write batcher:
                    # many concurrent single-record requests, one put_many.
                    (value,) = await self._batcher(tenant).submit([args[:2]])
                payload = protocol.encode_answer(op, value)
            status = Status.OK
        except Exception as exc:  # noqa: BLE001 - the server must outlive any op
            status, payload = self._failure(exc)
        self.metrics.observe(f"server.op.{opcode.name.lower()}", perf_counter() - started)
        return [(request.request_id, status, payload)]

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
    with group commit (``tsb`` only), which is what lets the server's
    write batching ride group commit end to end.
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
