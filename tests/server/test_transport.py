"""The transport's framing-fault matrix, and what its listener promises.

Seven ways a byte stream can arrive or end — a torn header, a torn body, a
flipped CRC byte, a length above ``MAX_BODY_BYTES``, EOF between frames, two
frames in one segment, one frame across two segments — are each run against
``protocol.slice_frames`` itself and, over real TCP connections, against the
four users of ``transport.Connection``.  Each user states what a fault must
cause there:

* **server connection** — the requests before the fault are answered, then
  that connection (and only it) is dropped, ``server.protocol_errors`` + 1;
* **primary connection** — the same, and the subscriber is forgotten;
* **client channel** — the answers before the fault reach their callers, the
  channel is poisoned and every other waiter fails with a clean error;
* **replica subscription** — the batches before the fault are mirrored, and
  the tailer resubscribes from the mirror cursor.
"""

import socket
import threading
import time
from typing import List, NamedTuple, Optional

import pytest

from repro.api.store import StoreConfig, VersionStore
from repro.client import ClientProtocolError, ReproClient
from repro.replication import Replica, ReplicationPrimary
from repro.server import protocol
from repro.server.protocol import (
    FRAME_HEADER,
    MAX_BODY_BYTES,
    ChecksumError,
    FrameTooLargeError,
    Opcode,
    Status,
    TruncatedFrameError,
)
from repro.server.service import ReproServer
from repro.server.transport import Listener, connect
from tests.wire import WAIT_S, ScriptedPeer, Wire, until

CLEAN = None


class Case(NamedTuple):
    """How to send two valid frames, how many of them must get through, and
    how the stream must then be judged to have ended."""

    name: str
    segments: callable  # (first frame, second frame) -> what to write, in order
    delivered: int
    fault: Optional[type]


def _flipped(frame: bytes) -> bytes:
    return frame[:-1] + bytes([frame[-1] ^ 0xFF])


CASES = [
    Case("torn header", lambda a, b: [a + b[:5]], 1, TruncatedFrameError),
    Case("torn body", lambda a, b: [a + b[:-3]], 1, TruncatedFrameError),
    Case("flipped CRC byte", lambda a, b: [a + _flipped(b)], 1, ChecksumError),
    Case(
        "length above MAX_BODY_BYTES",
        lambda a, b: [a + FRAME_HEADER.pack(MAX_BODY_BYTES + 1, 0) + b],
        1,
        FrameTooLargeError,
    ),
    Case("EOF between frames", lambda a, b: [a], 1, CLEAN),
    Case("two frames in one segment", lambda a, b: [a + b], 2, CLEAN),
    Case("one frame across two segments", lambda a, b: [a + b[:6], b[6:]], 2, CLEAN),
]

matrix = pytest.mark.parametrize("case", CASES, ids=[case.name for case in CASES])


def _write(wire: Wire, segments: List[bytes]) -> None:
    """Write each segment on its own.  The pause lets the peer's ``recv``
    return the first before the second is written; an outcome never depends
    on it (TCP may coalesce them anyway), it only makes the carried-partial
    path the one that runs."""
    for index, segment in enumerate(segments):
        if index:
            time.sleep(0.02)
        wire.send(segment)


class TestTheSlicerItself:
    @matrix
    def test_slicer(self, case):
        first, second = protocol.encode_frame(b"first"), protocol.encode_frame(b"second")
        buffer, bodies, fault = b"", [], None
        for segment in case.segments(first, second) + [b""]:  # b"": the stream ends
            buffer += segment
            sliced, consumed, fault = protocol.slice_frames(buffer, at_eof=not segment)
            bodies += sliced
            buffer = buffer[consumed:]
            if fault is not None:
                break
        assert bodies == [b"first", b"second"][: case.delivered]
        assert (None if fault is None else type(fault)) is case.fault


def _pings(wire: Wire, case: Case) -> List[int]:
    """Send two PINGs the way ``case`` says, end the stream, and return the
    ids answered before the peer closed its end."""
    first, second = (
        protocol.encode_request(request_id, Opcode.PING, "default") for request_id in (1, 2)
    )
    _write(wire, case.segments(first, second))
    wire.connection.sock.shutdown(socket.SHUT_WR)  # our end of the stream is over
    answered = []
    for body in iter(wire.body, None):
        request_id, status, _ = protocol.decode_response(body)
        assert status is Status.OK
        answered.append(request_id)
    return answered


class TestServerConnection:
    @matrix
    def test_fault_drops_that_connection_only(self, case):
        catalog = {"default": StoreConfig(engine="tsb")}
        with ReproServer(catalog) as server, Wire.connect(server.host, server.port) as other:
            with Wire.connect(server.host, server.port) as wire:
                assert _pings(wire, case) == [1, 2][: case.delivered]
            errors = server.metrics.counters().get("server.protocol_errors", 0)
            assert errors == (0 if case.fault is CLEAN else 1)
            # The listener and the other connection carry on.
            other.send(protocol.encode_request(9, Opcode.PING, "default"))
            assert other.response()[:2] == (9, Status.OK)
            with ReproClient(server.host, server.port) as client:
                assert client.ping()


@pytest.fixture()
def primary():
    config = StoreConfig(engine="tsb", wal=True)
    with VersionStore.open(config) as store:
        with ReplicationPrimary(store).start() as primary:
            yield primary


class TestPrimaryConnection:
    @matrix
    def test_fault_drops_that_subscriber_only(self, case, primary):
        with Wire.connect(primary.host, primary.port) as other:
            other.send(
                protocol.encode_request(
                    8, Opcode.SUBSCRIBE, "default", protocol.pack_subscribe(0, 1 << 40)
                )
            )
            until(lambda: primary.min_acked(0) == 0, "the other subscription")
            with Wire.connect(primary.host, primary.port) as wire:
                assert _pings(wire, case) == [1, 2][: case.delivered]
            until(lambda: len(primary._subscribers) == 1, "the subscriber to be forgotten")
            other.send(protocol.encode_request(9, Opcode.PING, "default"))
            assert other.response()[:2] == (9, Status.OK)


class TestClientChannel:
    @matrix
    def test_fault_poisons_the_channel_and_fails_every_waiter(self, case):
        def script(wire: Wire) -> None:
            ids = [wire.request().request_id for _ in range(3)]
            first, second = (
                protocol.encode_response(
                    request_id, Status.OK, protocol.pack_timestamp_u64(request_id)
                )
                for request_id in ids[:2]
            )
            _write(wire, case.segments(first, second))
            # Returning closes the connection: the stream ends here.

        with ScriptedPeer(script) as peer:
            with ReproClient(peer.host, peer.port, pool_size=1, timeout=WAIT_S) as client:
                with client.pipeline() as pipe:
                    pending = [pipe.now(), pipe.now(), pipe.now()]
                    for request_id, result in enumerate(pending[: case.delivered], start=1):
                        assert result.result() == request_id
                    # Every waiter the stream's end left behind fails the same
                    # clean way — the third was never going to be answered.
                    for result in pending[case.delivered :]:
                        with pytest.raises(ClientProtocolError):
                            result.result()
                assert client._channels[0].dead


def _log_batches():
    """Two ``LOG_BATCH`` payloads cut from a real log, and the log's bytes."""
    config = StoreConfig(engine="tsb", wal=True)
    with VersionStore.open(config) as store:
        for key in range(6):
            store.insert(key, b"value")
        log = store.log_device.durable_contents()
        page_size = store.config.page_size
    records = list(protocol.iter_wal_records(log))
    _, middle_lsn, middle = records[len(records) // 2]
    _, last_lsn, end = records[-1]
    assert end == len(log)
    return page_size, log, [(middle_lsn, log[:middle]), (last_lsn, log[middle:])]


class TestReplicaSubscription:
    @matrix
    def test_fault_resubscribes_from_the_mirror_cursor(self, case):
        page_size, log, batches = _log_batches()
        cursors: List[int] = []  # each SUBSCRIBE's from_lsn, in arrival order
        resubscribed = threading.Event()

        def script(wire: Wire) -> None:
            request = wire.request()
            if request.opcode is Opcode.TOPOLOGY:
                payload = protocol.pack_topology(False, [], page_size, 1)
                wire.send(protocol.encode_response(request.request_id, Status.OK, payload))
                return
            assert request.opcode is Opcode.SUBSCRIBE
            cursors.append(protocol.unpack_subscribe(request.payload)[1])
            if len(cursors) > 1:
                resubscribed.set()
                wire.ended()  # a quiet stream, held open until the replica stops
                return
            first, second = (
                protocol.encode_response(
                    request.request_id,
                    Status.PARTIAL,
                    protocol.pack_log_batch(0, last_lsn, raw),
                )
                for last_lsn, raw in batches
            )
            assert wire.request().opcode is Opcode.ACK  # the cursor, re-announced
            _write(wire, case.segments(first, second))
            for _ in range(case.delivered):  # close only once those are mirrored
                assert wire.request().opcode is Opcode.ACK

        with ScriptedPeer(script) as peer:
            with Replica(peer.host, peer.port, reconnect_delay=0.001).start() as replica:
                assert resubscribed.wait(WAIT_S)
                held = batches[case.delivered - 1]
                assert cursors[:2] == [0, held[0]]
                (state,) = replica._states
                mirrored = state.mirror.durable_contents()
                assert mirrored == log[: len(mirrored)]
                assert len(mirrored) == sum(len(raw) for _, raw in batches[: case.delivered])
                assert replica.durable_lsns() == [held[0]]


class TestListener:
    def test_connect_clears_its_timeout_and_an_accepted_end_has_none(self):
        accepted = []

        def handler(connection):
            accepted.append(connection.sock.gettimeout())

        listener = Listener("127.0.0.1", 0, handler, "probe", "probe-conn")
        listener.start()
        try:
            connection = connect(listener.host, listener.port, timeout=3.0)
            assert connection.sock.gettimeout() is None
            assert connection.read_frames() == []  # the handler returned: a clean end
            connection.close()
            assert accepted == [None]
        finally:
            listener.stop()

    def test_stop_reports_a_handler_that_outlives_it(self, monkeypatch):
        monkeypatch.setattr("repro.server.transport.CUT_GRACE_S", 0.05)
        entered, release = threading.Event(), threading.Event()

        def handler(connection):
            entered.set()
            release.wait(WAIT_S)  # deaf to its socket: no shutdown can wake it

        listener = Listener("127.0.0.1", 0, handler, "wedged", "wedged-conn")
        listener.start()
        connection = connect(listener.host, listener.port, timeout=3.0)
        assert entered.wait(WAIT_S)
        try:
            with pytest.raises(RuntimeError, match=r"did not shut down in time.*wedged-conn-1"):
                listener.stop(timeout=0.05)
        finally:
            release.set()
            connection.close()
        listener.stop()  # a second call joins what the first could not
        assert not [t for t in threading.enumerate() if t.name.startswith("wedged")]
