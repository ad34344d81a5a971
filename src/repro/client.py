"""The synchronous wire client: the façade surface, fully pipelined.

:class:`ReproClient` mirrors :class:`~repro.api.store.VersionStore` —
``insert`` / ``put_many`` / ``get`` / ``get_as_of`` / ``range_search`` /
``snapshot`` / ``key_history`` / ``history_between`` / ``time_slice`` /
``now`` — but executes every call as a request/response exchange with a
:class:`~repro.server.service.ReproServer`.  Answers come back as the same
:class:`~repro.api.engine.RecordView` objects the in-process façade
returns, so the differential oracles (and
:func:`repro.workload.concurrent.run_concurrent`) compare served and
in-process runs record-for-record.

The surface is stated once: each operation method of :class:`ReproClient`
is one line naming its row of the operation table
(:data:`repro.server.protocol.OPS`), and :func:`attach_surface` gives
:class:`Pipeline` and :class:`~repro.replication.cluster.ClusterClient` the
same one-liners.  What a call does is the class's ``_call`` — here: route,
send, wait, decode; on a pipeline: send now, decode at ``result()`` — which
reads the codecs and follower eligibility off the row.  A follower read as-of
a stamp needs nothing from the client: the follower's server waits for the
stamp to be applied before it answers (the row's ``wait_on``).

Concurrency model: **request pipelining over demultiplexed channels**.
The client keeps up to ``pool_size`` sockets; each socket (a
:class:`_Channel`) carries *many* requests in flight at once, with a
shared reader thread per channel matching response frames to waiting
callers by request id.  N threads therefore multiplex a few sockets
instead of blocking on a connection checkout — there is no pool wait.
The server answers one connection's requests in request order (the
demultiplexer does not rely on it), so a slow scan delays what was
pipelined behind it on the *same* socket and never blocks a point read on
another socket of the pool: ``pool_size`` is how many requests can be
*executing* for this client at once.  The socket and the frame reader are
:mod:`repro.server.transport`'s; any fault it reports poisons the channel and
fails every waiter on it.

:meth:`ReproClient.pipeline` opens an explicit batch context: every call
on it sends its request immediately and returns a
:class:`PipelinedResult`; gather the answers with ``result()`` (the
context exit waits for stragglers).  That is how a single thread keeps
16+ requests in flight and lets the server read, execute and answer them
a burst at a time.  A pipeline forgets a result once it has been
observed, so it can stay open as a sliding window for a whole run.

Streamed responses (``Status.PARTIAL`` chunk runs for large scans) are
reassembled transparently; a stream truncated mid-run surfaces as a clean
:class:`ClientProtocolError` and poisons the channel.

``SERVER_BUSY`` responses (the server's admission control shedding load)
are retried ``busy_retries`` times with linear backoff whose *total* sleep
is capped by ``busy_backoff_cap`` seconds, then surface as
:exc:`ServerBusyError` — pass ``busy_retries=0`` to observe rejections
directly, as the admission-control tests do.  Retries and rejections are
counted client-side and surfaced by :meth:`ReproClient.stats` (and the
:attr:`counters` property) so backoff is visible in metrics, not silent.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.api.engine import RecordView
from repro.server import protocol
from repro.server.protocol import (
    OPS,
    Op,
    Opcode,
    ProtocolError,
    Status,
)
from repro.server.transport import connect
from repro.storage.serialization import ByteReader, Key, SerializationError


class ClientError(Exception):
    """Base class for client-side failures (transport, protocol, lifecycle)."""


class ServerError(ClientError):
    """The server reported an error executing the request."""


class ServerBusyError(ClientError):
    """Admission control rejected the request, and retries ran out."""


class ClientProtocolError(ClientError, ProtocolError):
    """The byte stream or an answer's payload violated the wire protocol (a
    clean protocol error, still catchable as :exc:`ClientError`); a fault in
    the stream poisons the carrying socket."""


class WrongShardError(ClientError):
    """The addressed node does not own the key range.

    Carries the owning node's view of the routing table —
    ``[(low, high, owner, epoch), ...]`` — so the caller can re-route and
    retry instead of failing the write (see
    :class:`repro.replication.cluster.ClusterClient`).
    """

    def __init__(self, message: str, routes) -> None:
        super().__init__(message)
        self.routes = routes


class _Waiter:
    """One in-flight request's slot: its event, chunks, and final frame."""

    __slots__ = ("event", "status", "chunks", "reader", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.status: Optional[Status] = None
        self.chunks: List[ByteReader] = []
        self.reader: Optional[ByteReader] = None
        self.error: Optional[Exception] = None


class _Channel:
    """One socket multiplexing many requests, demultiplexed by a reader thread.

    Senders register a :class:`_Waiter` under their request id *before*
    writing the frame (responses may arrive in any order).  The reader
    thread routes ``PARTIAL`` chunks to their waiter and wakes the waiter on
    its final frame.  Any transport or protocol fault
    poisons the whole channel: every pending waiter fails with the same
    error and the socket is closed — the next request gets a fresh socket.
    """

    __slots__ = ("connection", "_lock", "_waiters", "_dead", "_reader")

    def __init__(self, host: str, port: int, connect_timeout: Optional[float]) -> None:
        # Request timeouts are enforced by waiters; the reader thread itself
        # blocks indefinitely between frames (an idle channel is healthy).
        self.connection = connect(host, port, connect_timeout)
        self._lock = threading.Lock()
        self._waiters: Dict[int, _Waiter] = {}
        self._dead: Optional[Exception] = None
        self._reader = threading.Thread(
            target=self._read_loop, name="repro-client-demux", daemon=True
        )
        self._reader.start()

    @property
    def dead(self) -> bool:
        return self._dead is not None

    def register(self, request_id: int) -> _Waiter:
        waiter = _Waiter()
        with self._lock:
            if self._dead is not None:
                raise ClientError(f"channel is poisoned: {self._dead}")
            self._waiters[request_id] = waiter
        return waiter

    def forget(self, request_id: int) -> None:
        with self._lock:
            self._waiters.pop(request_id, None)

    def send(self, frame: bytes) -> None:
        try:
            self.connection.send(frame)
        except OSError as exc:
            error = ClientError(f"transport failure: {exc}")
            self.poison(error)
            raise error from exc

    def poison(self, error: Exception) -> None:
        """Mark the channel dead, fail every pending waiter, close the socket."""
        with self._lock:
            if self._dead is None:
                self._dead = error
            waiters = list(self._waiters.values())
            self._waiters.clear()
        for waiter in waiters:
            waiter.error = error
            waiter.event.set()
        self.connection.close()

    # ------------------------------------------------------------------
    # The demultiplexing reader
    # ------------------------------------------------------------------
    def _read_loop(self) -> None:
        try:
            for body in self.connection.frames():
                response_id, status, reader = protocol.decode_response(body)
                if not self._deliver(response_id, status, reader):
                    raise ProtocolError(
                        f"response id {response_id} matches no in-flight request"
                    )
            raise ProtocolError("server closed the connection")
        except ProtocolError as exc:
            self.poison(ClientProtocolError(str(exc)))
        except OSError as exc:
            self.poison(ClientError(f"transport failure: {exc}"))
        except Exception as exc:  # pragma: no cover - defensive
            self.poison(ClientError(f"client reader failed: {exc}"))

    def _deliver(self, response_id: int, status: Status, reader: ByteReader) -> bool:
        with self._lock:
            if status is Status.PARTIAL:
                waiter = self._waiters.get(response_id)
                if waiter is None:
                    return False
                waiter.chunks.append(reader)
                return True
            waiter = self._waiters.pop(response_id, None)
        if waiter is None:
            return False
        waiter.status = status
        waiter.reader = reader
        waiter.event.set()
        return True


class PipelinedResult:
    """A pipelined request's pending answer; :meth:`result` gathers it.

    ``result()`` blocks until the response (and every streamed chunk)
    arrives, transparently retrying ``SERVER_BUSY`` under the client's
    capped backoff, and returns the decoded façade answer — or raises
    exactly what the synchronous call would have raised.  Safe to call
    more than once; the outcome is cached — by this object alone: once
    observed, its pipeline no longer holds it.
    """

    __slots__ = ("_client", "_op", "_payload", "_issued", "_outcome", "_unobserved")

    def __init__(
        self,
        client: "ReproClient",
        op: Op,
        payload: bytes,
        issued: Tuple[_Channel, int, _Waiter],
        unobserved: Dict["PipelinedResult", None],
    ) -> None:
        self._client = client
        self._op = op
        self._payload = payload
        self._issued = issued
        self._outcome: Optional[Tuple[bool, object]] = None
        #: The pipeline's results nobody has gathered yet, this one included.
        self._unobserved = unobserved
        unobserved[self] = None

    def result(self):
        if self._outcome is None:
            try:
                answer = self._client._resolve(self._op, self._payload, self._issued)
                self._outcome = (True, answer)
            except Exception as exc:  # noqa: BLE001 - cached and re-raised
                self._outcome = (False, exc)
            self._unobserved.pop(self, None)
        succeeded, value = self._outcome
        if not succeeded:
            raise value
        return value

    @property
    def done(self) -> bool:
        """Whether the response already arrived (never blocks)."""
        if self._outcome is not None:
            return True
        return self._issued[2].event.is_set()


class Pipeline:
    """An explicit request batch: send a burst, gather the results.

    Every façade call on the pipeline (the same methods, same parameters, as
    :class:`ReproClient`) fires its request immediately and returns a
    :class:`PipelinedResult`; nothing blocks until ``result()``.
    Leaving the ``with`` block waits for every outstanding response, so no
    request is silently abandoned; an error nobody gathered re-raises at
    exit (errors already observed via ``result()`` do not re-raise).

    The pipeline holds a result only until somebody observes it, so one
    pipeline can stay open as a sliding window for a whole run: its memory
    follows the window, not the requests ever sent.
    """

    def __init__(self, client: "ReproClient") -> None:
        self._client = client
        #: Submitted and not yet observed, in submission order.
        self._pending: Dict[PipelinedResult, None] = {}
        self._submitted = 0

    # -- the pipelined façade surface: ``insert`` … ``time_slice`` are
    # attached below (``attach_surface``); here each returns a PipelinedResult
    def now(self):
        return self._call(OPS[Opcode.NOW])

    def ping(self):
        return self._call(OPS[Opcode.PING])

    # -- mechanics ------------------------------------------------------
    def _call(self, op: Op, *args) -> PipelinedResult:
        """Send the request now; its answer is decoded at ``result()`` (an
        answer known without asking is ready at once, and sends nothing)."""
        self._submitted += 1
        if protocol.answers_nothing(op, args):
            ready = PipelinedResult(self._client, op, b"", None, self._pending)
            ready._outcome = (True, op.answer.empty())
            return ready
        payload = protocol.encode_args(op, args)
        issued = self._client._issue(op.opcode, payload)
        return PipelinedResult(self._client, op, payload, issued, self._pending)

    @property
    def depth(self) -> int:
        """Requests submitted through this pipeline so far."""
        return self._submitted

    def gather(self) -> List[object]:
        """Wait for every request not yet observed; return their answers in
        submission order.

        Raises the first failure *after* every response has been drained
        (so one bad request never strands the rest mid-flight).
        """
        outcomes = []
        first_error: Optional[Exception] = None
        for pending in list(self._pending):
            try:
                outcomes.append(pending.result())
            except Exception as exc:  # noqa: BLE001 - re-raised after the drain
                outcomes.append(None)
                if first_error is None:
                    first_error = exc
        if first_error is not None:
            raise first_error
        return outcomes

    def __enter__(self) -> "Pipeline":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:  # else that exception wins; stragglers are abandoned
            self.gather()  # what is still held is exactly what nobody observed


class ReproClient:
    """A pipelined, thread-safe client for one tenant of a :class:`ReproServer`.

    Parameters
    ----------
    host, port:
        The server's listen address.
    tenant:
        The catalogued tenant every request names.
    pool_size:
        Maximum sockets.  Unlike a classic checkout pool, every socket
        multiplexes unlimited requests in flight, so it is no limit on
        callers; the server executes one socket's requests in order, so it
        is how many of them can be executing at once.
    timeout:
        Per-request ceiling in seconds (``None`` blocks forever): how long
        a caller waits for its response before the channel is declared
        stuck and poisoned.  Also the TCP connect timeout.
    busy_retries, busy_backoff, busy_backoff_cap:
        ``SERVER_BUSY`` handling: retry up to ``busy_retries`` times,
        sleeping ``busy_backoff * attempt`` seconds between tries, but
        never sleeping more than ``busy_backoff_cap`` seconds in total for
        one logical request — the backoff is bounded by wall clock, not
        just by attempt count.
    followers:
        ``[(host, port), ...]`` of replica servers (each a
        :meth:`repro.replication.replica.Replica.serve` endpoint) eligible
        to answer reads.
    read_preference:
        ``"primary"`` (default) answers every request from the primary;
        ``"follower"`` routes read operations round-robin across the
        ``followers``.  Staleness contract: a follower answers from a
        consistent prefix of the primary's commit history.  Untimestamped
        reads (``get``, plain ``range_search``, ``key_history``) may trail
        the primary; reads as-of a stamp (``get_as_of``, ``snapshot``,
        ``range_search(as_of=)``) wait *at the follower* until it has
        applied that stamp, and then return exactly the primary's answer
        for that time — one round trip, never a torn transaction.  The
        windowed reads (``history_between``, ``time_slice``) do not wait.
        Writes always go to the primary.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        tenant: str = "default",
        pool_size: int = 4,
        timeout: Optional[float] = 30.0,
        busy_retries: int = 8,
        busy_backoff: float = 0.01,
        busy_backoff_cap: float = 2.0,
        followers: Sequence[Tuple[str, int]] = (),
        read_preference: str = "primary",
    ) -> None:
        if pool_size < 1:
            raise ValueError("pool_size must be at least 1")
        if busy_retries < 0:
            raise ValueError("busy_retries must be non-negative")
        if busy_backoff_cap <= 0:
            raise ValueError("busy_backoff_cap must be positive")
        if read_preference not in ("primary", "follower"):
            raise ValueError('read_preference must be "primary" or "follower"')
        if read_preference == "follower" and not followers:
            raise ValueError('read_preference="follower" needs followers=[...]')
        self.host = host
        self.port = port
        self.tenant = tenant
        self.pool_size = pool_size
        self.timeout = timeout
        self.busy_retries = busy_retries
        self.busy_backoff = busy_backoff
        self.busy_backoff_cap = busy_backoff_cap
        self.read_preference = read_preference
        self._followers: List["ReproClient"] = [
            ReproClient(
                follower_host,
                follower_port,
                tenant=tenant,
                pool_size=pool_size,
                timeout=timeout,
                busy_retries=busy_retries,
                busy_backoff=busy_backoff,
                busy_backoff_cap=busy_backoff_cap,
            )
            for follower_host, follower_port in followers
        ]
        self._follower_rr = itertools.count()
        self._ids = itertools.count(1)
        self._channels: List[Optional[_Channel]] = [None] * pool_size
        self._channel_lock = threading.Lock()
        self._rr = itertools.count()
        self._closed = False
        self._counter_lock = threading.Lock()
        self._counters: Dict[str, int] = {
            "client.requests": 0,
            "client.busy_retries": 0,
            "client.busy_rejected": 0,
        }

    # ------------------------------------------------------------------
    # Channels
    # ------------------------------------------------------------------
    def _channel(self) -> _Channel:
        """A live channel, round-robin; dead/missing slots reconnect."""
        slot = next(self._rr) % self.pool_size
        with self._channel_lock:
            if self._closed:
                raise ClientError("this ReproClient has been closed")
            channel = self._channels[slot]
            if channel is not None and not channel.dead:
                return channel
            try:
                channel = _Channel(self.host, self.port, self.timeout)
            except OSError as exc:
                raise ClientError(
                    f"could not connect to {self.host}:{self.port}: {exc}"
                ) from exc
            self._channels[slot] = channel
            return channel

    def close(self) -> None:
        """Poison and close every channel; further calls raise :exc:`ClientError`."""
        with self._channel_lock:
            self._closed = True
            channels, self._channels = (
                list(self._channels),
                [None] * self.pool_size,
            )
        for channel in channels:
            if channel is not None:
                channel.poison(ClientError("this ReproClient has been closed"))
        for follower in self._followers:
            follower.close()

    def __enter__(self) -> "ReproClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def _count(self, name: str, amount: int = 1) -> None:
        with self._counter_lock:
            self._counters[name] = self._counters.get(name, 0) + amount

    @property
    def counters(self) -> Dict[str, int]:
        """Client-side counters: requests sent, busy retries, rejections."""
        with self._counter_lock:
            return dict(self._counters)

    # ------------------------------------------------------------------
    # The request/response core
    # ------------------------------------------------------------------
    def _issue(self, opcode: Opcode, payload: bytes) -> Tuple[_Channel, int, _Waiter]:
        """Register a waiter and send one request frame; never blocks on
        other in-flight requests."""
        channel = self._channel()
        request_id = next(self._ids)
        frame = protocol.encode_request(request_id, opcode, self.tenant, payload)
        waiter = channel.register(request_id)
        try:
            channel.send(frame)
        except ClientError:
            channel.forget(request_id)
            raise
        self._count("client.requests")
        return channel, request_id, waiter

    def _await(
        self, issued: Tuple[_Channel, int, _Waiter]
    ) -> Tuple[Status, List[ByteReader], ByteReader]:
        channel, request_id, waiter = issued
        if not waiter.event.wait(self.timeout):
            error = ClientError(
                f"timed out after {self.timeout}s waiting for response {request_id}"
            )
            # The response may still arrive and would desynchronize the
            # demultiplexer's view of the stream: poison the whole channel.
            channel.poison(error)
            raise error
        if waiter.error is not None:
            raise waiter.error
        assert waiter.status is not None and waiter.reader is not None
        return waiter.status, waiter.chunks, waiter.reader

    def _resolve(self, op: Op, payload: bytes, issued: Tuple[_Channel, int, _Waiter]):
        """Wait out one issued request, retrying ``SERVER_BUSY`` re-sends
        under the capped backoff; returns its decoded answer (a payload that
        is not one, truncated or with bytes left over, raises
        :exc:`ClientProtocolError`)."""
        attempt = 0
        slept = 0.0
        while True:
            status, chunks, reader = self._await(issued)
            if status is Status.OK:
                try:
                    return protocol.decode_answer(op, chunks, reader)
                except (ProtocolError, SerializationError) as exc:
                    raise ClientProtocolError(f"malformed {op.opcode.name} answer: {exc}") from exc
            if status is Status.WRONG_SHARD:
                # The payload is a routing table, not an error string: hand
                # the fresh routes to the caller for re-route-and-retry.
                raise WrongShardError(
                    "key range is owned by another node",
                    protocol.unpack_routing(reader),
                )
            if status is Status.SERVER_BUSY:
                delay = self.busy_backoff * (attempt + 1)
                if attempt >= self.busy_retries or slept + delay > self.busy_backoff_cap:
                    self._count("client.busy_rejected")
                    raise ServerBusyError(protocol.unpack_error(reader))
                attempt += 1
                self._count("client.busy_retries")
                time.sleep(delay)
                slept += delay
                issued = self._issue(op.opcode, payload)
                continue
            message = protocol.unpack_error(reader)
            if status is Status.BAD_REQUEST:
                raise ClientError(f"server rejected the request: {message}")
            raise ServerError(message)

    def _exchange(self, op: Op, payload: bytes):
        """Send one already-encoded request of ``op``; wait; decode its answer."""
        return self._resolve(op, payload, self._issue(op.opcode, payload))

    def _call(self, op: Op, *args):
        """One synchronous operation, straight from its table row: a
        ``read`` goes wherever :meth:`_reader` says (a follower under
        ``read_preference="follower"``); the addressed server answers
        everything else.  A read before time zero is answered here
        (:func:`~repro.server.protocol.answers_nothing`)."""
        if protocol.answers_nothing(op, args):
            return op.answer.empty()
        target = self._reader() if op.kind == protocol.READ else self
        return target._exchange(op, protocol.encode_args(op, args))

    # ------------------------------------------------------------------
    # Pipelining
    # ------------------------------------------------------------------
    def pipeline(self) -> Pipeline:
        """An explicit batch context: send a burst, gather the results.

        ::

            with client.pipeline() as pipe:
                pending = [pipe.put_many(chunk) for chunk in chunks]
                stamps = [p.result() for p in pending]
        """
        if self._closed:
            raise ClientError("this ReproClient has been closed")
        return Pipeline(self)

    # ------------------------------------------------------------------
    # Follower read routing
    # ------------------------------------------------------------------
    def _reader(self) -> "ReproClient":
        """The client a read should go to: a follower (round-robin) under
        ``read_preference="follower"``, else this client itself."""
        if self.read_preference != "follower" or not self._followers:
            return self
        return self._followers[next(self._follower_rr) % len(self._followers)]

    def watermark(self) -> Tuple[int, int]:
        """``(durable_lsn, watermark_ts)`` of the addressed server.

        On a primary both track its own WAL; on a follower they are the
        replication watermark — the prefix its reads are served from.
        """
        return self._call(OPS[Opcode.WATERMARK])

    # ------------------------------------------------------------------
    # The façade surface, over the wire: one table row each (``insert`` …
    # ``time_slice`` are shared with Pipeline and ClusterClient)
    # ------------------------------------------------------------------
    def ping(self) -> bool:
        self._call(OPS[Opcode.PING])
        return True

    def insert(self, key: Key, value: bytes, timestamp: Optional[int] = None) -> int:
        """Write one version; returns the (server-)stamped commit time."""
        return self._call(OPS[Opcode.INSERT], key, value, timestamp)

    def put_many(self, items: Sequence[Tuple[Key, bytes]]) -> List[int]:
        """Batch write; returns one commit timestamp per item, in order."""
        return self._call(OPS[Opcode.PUT_MANY], list(items))

    def delete(self, key: Key, timestamp: Optional[int] = None) -> int:
        return self._call(OPS[Opcode.DELETE], key, timestamp)

    def get(self, key: Key) -> Optional[RecordView]:
        return self._call(OPS[Opcode.GET], key)

    def get_as_of(self, key: Key, timestamp: int) -> Optional[RecordView]:
        return self._call(OPS[Opcode.GET_AS_OF], key, timestamp)

    def range_search(
        self,
        low: Optional[Key] = None,
        high: Optional[Key] = None,
        as_of: Optional[int] = None,
    ) -> List[RecordView]:
        return self._call(OPS[Opcode.RANGE], low, high, as_of)

    def snapshot(self, timestamp: int) -> Dict[Key, RecordView]:
        return self._call(OPS[Opcode.SNAPSHOT], timestamp)

    def key_history(self, key: Key) -> List[RecordView]:
        return self._call(OPS[Opcode.KEY_HISTORY], key)

    def history_between(self, key: Key, start: int, end: int) -> List[RecordView]:
        return self._call(OPS[Opcode.HISTORY_BETWEEN], key, start, end)

    def time_slice(
        self,
        start: int,
        end: int,
        low: Optional[Key] = None,
        high: Optional[Key] = None,
    ) -> Dict[Key, List[RecordView]]:
        return self._call(OPS[Opcode.TIME_SLICE], start, end, low, high)

    @property
    def now(self) -> int:
        """The tenant store's current logical clock."""
        return self._call(OPS[Opcode.NOW])

    # ------------------------------------------------------------------
    # Cluster / migration verbs (servers with a cluster node attached)
    # ------------------------------------------------------------------
    def route(self):
        """The addressed node's routing table: ``[(low, high, owner, epoch)]``."""
        return self._call(OPS[Opcode.ROUTE])

    def migrate_read(
        self,
        low: Optional[Key],
        high: Optional[Key],
        offsets: Sequence[Tuple[int, int]] = (),
    ):
        """Read migration events for ``[low, high)`` from the source node.

        With empty ``offsets``: the full consistent snapshot of the range,
        plus the per-shard WAL copy positions to catch up from.  With
        offsets: the *delta* — events committed at or past each position.
        Returns ``(events, new_offsets)``.
        """
        return self._call(OPS[Opcode.SNAPSHOT_READ], low, high, offsets)

    def migrate_apply(self, events: Sequence[protocol.Event]) -> None:
        """Push migration events into the target node, one bounded
        ``SNAPSHOT_CHUNK`` request per chunk (each chunk is a whole
        ``events`` argument payload, so no frame outgrows the body bound)."""
        for payload in protocol.chunk_events(events):
            self._exchange(OPS[Opcode.SNAPSHOT_CHUNK], payload)

    def cutover(
        self,
        phase: int,
        low: Optional[Key],
        high: Optional[Key],
        epoch: int,
        target: str,
    ):
        """Drive one cutover phase; returns the node's updated routes."""
        return self._call(OPS[Opcode.CUTOVER], phase, low, high, epoch, target)

    def stats(self, fmt: str = "json"):
        """Server-side observability — a dict (``json``) or text
        (``prometheus``) — with this client's own counters folded in under
        the ``"client"`` key of the JSON rendering."""
        text = bytes(self._call(OPS[Opcode.STATS], fmt)).decode("utf-8")
        if fmt != "json":
            return text
        snapshot = json.loads(text)
        snapshot["client"] = self.counters
        return snapshot

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ReproClient({self.host}:{self.port}, tenant={self.tenant!r}, "
            f"pool={self.pool_size})"
        )


def attach_surface(cls):
    """Give ``cls`` the façade surface: every ``read`` / ``write`` one-liner
    of :class:`ReproClient`, as ``cls``'s own attribute (what a call does is
    ``cls._call``).  A mixin would say the same, but the benchmark's tracer
    looks methods up in ``vars(cls)``, so each class holds its own
    reference.  A method ``cls`` defines itself is left alone."""
    for op in OPS.values():
        if op.kind != protocol.ADMIN and op.method not in vars(cls):
            setattr(cls, op.method, vars(ReproClient)[op.method])
    return cls


attach_surface(Pipeline)
