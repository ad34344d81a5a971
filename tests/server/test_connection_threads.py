"""The server's core: one blocking thread per connection.

What the thread-per-connection design promises, checked on raw sockets
against stub stores installed through ``StoreRegistry.install`` — every
wait below is on an event the server (or the stub) signals, never a sleep:

* a burst is admitted under ``max_pending_per_connection`` (the excess is
  answered ``SERVER_BUSY``, the connection kept), executed in arrival order
  and answered in that order, a failing request failing alone;
* ``workers`` bounds how many connections are inside a store at once;
* ``stop()`` answers what is executing, returns promptly with an idle client
  and with a peer that never reads its answers, and leaves no
  ``repro-server*`` thread and no open store behind (the repo-wide fixture
  in ``tests/conftest.py`` re-checks the threads after every test).
"""

import sys
import threading
import time

import pytest

from repro.api.store import StoreConfig
from repro.client import ReproClient
from repro.obs.registry import MetricsRegistry
from repro.server import protocol
from repro.server.protocol import OPS, Opcode, Status
from repro.server.registry import StoreRegistry
from repro.server.service import ReproServer
from tests.wire import WAIT_S, Wire  # WAIT_S: how long any single event may take


def _request(request_id: int, opcode: Opcode, *args, tenant: str = "stub") -> bytes:
    payload = protocol.encode_args(OPS[opcode], args)
    return protocol.encode_request(request_id, opcode, tenant, payload)


def _connect(server: ReproServer) -> Wire:
    return Wire.connect(server.host, server.port)


def _server_threads():
    return [
        thread.name
        for thread in threading.enumerate()
        if thread.name.startswith("repro-server")
    ]


class _StubStore:
    """The slice of the façade the server touches; ``get`` is the test's."""

    config = StoreConfig(engine="tsb")
    devices = None  # nothing to resume from: ``close_all`` just closes it

    def __init__(self, get) -> None:
        self.get = get
        self.closed = False

    def close(self) -> None:
        self.closed = True


class _GatedGet:
    """A ``get`` that parks every caller until the test opens the gate, and
    records how many callers were inside it at once."""

    def __init__(self) -> None:
        self.entered = threading.Semaphore(0)  # one release per caller inside
        self.gate = threading.Event()
        self._lock = threading.Lock()
        self.active = 0
        self.peak = 0

    def __call__(self, key):
        with self._lock:
            self.active += 1
            self.peak = max(self.peak, self.active)
        self.entered.release()
        assert self.gate.wait(WAIT_S), "the test never opened the gate"
        with self._lock:
            self.active -= 1
        return None


class _GaugeWatch(MetricsRegistry):
    """A server registry that signals when ``server.inflight`` hits a target."""

    def __init__(self, target: int) -> None:
        super().__init__(name="server", register=False)
        self.target = target
        self.reached = threading.Event()

    def set_gauge(self, name: str, value: float) -> None:
        super().set_gauge(name, value)
        if name == "server.inflight" and value == self.target:
            self.reached.set()


def _stub_server(get, **kwargs) -> ReproServer:
    registry = StoreRegistry({"stub": _StubStore.config})
    registry.install("stub", _StubStore(get))
    return ReproServer(registry, **kwargs).start()


class TestBursts:
    def test_burst_over_the_connection_limit_is_shed_and_the_connection_kept(self):
        gated = _GatedGet()
        server = _stub_server(gated, max_pending_per_connection=4)
        try:
            with _connect(server) as wire:
                # Park the connection's thread inside the store, so the six
                # frames sent meanwhile are read as one burst.
                wire.send(_request(1, Opcode.GET, 0))
                assert gated.entered.acquire(timeout=WAIT_S)
                wire.send(b"".join(_request(i, Opcode.GET, i) for i in range(2, 8)))
                gated.gate.set()
                answers = [wire.response() for _ in range(7)]
                assert [request_id for request_id, _, _ in answers] == list(range(1, 8))
                assert [status for _, status, _ in answers] == (
                    [Status.OK] * 5 + [Status.SERVER_BUSY] * 2
                )
                assert "admission limit" in protocol.unpack_error(answers[-1][2])
                # Shed, not dropped: the same connection is served again.
                wire.send(_request(8, Opcode.PING))
                assert wire.response()[:2] == (8, Status.OK)
            counters = server.metrics.counters()
            assert counters["server.busy"] == 2
            assert counters["server.requests"] == 6
        finally:
            server.stop()

    def test_pipelined_requests_are_answered_in_request_order(self):
        catalog = {"default": StoreConfig(engine="tsb", page_size=16384)}
        with ReproServer(catalog, workers=2) as server:
            # Each full scan answers ~600 KiB: more than one stream chunk,
            # and more than a burst may buffer before it is flushed.
            server.registry.get("default").put_many(
                [(key, bytes(2048)) for key in range(300)]
            )
            burst = []
            for request_id in range(1, 25):
                if request_id % 6 == 0:
                    burst.append(_request(request_id, Opcode.RANGE, None, None, None, tenant="default"))
                elif request_id % 2:
                    burst.append(_request(request_id, Opcode.INSERT, request_id, b"v", None, tenant="default"))
                else:
                    burst.append(_request(request_id, Opcode.GET, request_id - 1, tenant="default"))
            with _connect(server) as wire:
                wire.send(b"".join(burst))
                finals, partials = [], 0
                while len(finals) < 24:
                    request_id, status, reader = wire.response()
                    if status is Status.PARTIAL:
                        # A streamed answer's chunks precede its final frame
                        # and nothing else interleaves with them.
                        assert request_id == len(finals) + 1
                        partials += 1
                        continue
                    assert status is Status.OK
                    finals.append(request_id)
                    if request_id % 6 and request_id % 2 == 0:
                        # Arrival order is execution order: every read sees
                        # the insert pipelined just before it.
                        assert protocol.unpack_optional_record(reader).key == request_id - 1
                assert finals == list(range(1, 25))
                assert partials >= 4 * 2
            assert server.metrics.counters()["server.stream.chunks"] >= 4 * 3

    def test_a_failing_request_inside_a_burst_fails_alone(self):
        def get(key):
            if key == 2:
                raise RuntimeError("this key is cursed")
            return None

        server = _stub_server(get)
        try:
            with _connect(server) as wire:
                wire.send(
                    _request(1, Opcode.GET, 1)
                    + _request(2, Opcode.GET, 2)
                    + _request(3, Opcode.GET, 3, tenant="nobody")
                    + _request(4, Opcode.GET, 4)
                )
                answers = [wire.response() for _ in range(4)]
            assert [(request_id, status) for request_id, status, _ in answers] == [
                (1, Status.OK),
                (2, Status.ERROR),
                (3, Status.ERROR),
                (4, Status.OK),
            ]
            assert "this key is cursed" in protocol.unpack_error(answers[1][2])
            assert "unknown tenant" in protocol.unpack_error(answers[2][2])
            assert server.metrics.counters()["server.errors"] == 2
        finally:
            server.stop()


class TestExecutionSlots:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_workers_bounds_the_connections_inside_a_store(self, workers):
        gated = _GatedGet()
        watch = _GaugeWatch(target=4)
        server = _stub_server(gated, workers=workers, metrics=watch)
        wires = [_connect(server) for _ in range(4)]
        try:
            for index, wire in enumerate(wires):
                wire.send(_request(index + 1, Opcode.GET, index))
            # All four admitted; ``workers`` of them hold a slot and park in
            # the store, the others wait for one.
            assert watch.reached.wait(WAIT_S)
            for _ in range(workers):
                assert gated.entered.acquire(timeout=WAIT_S)
            assert gated.active == workers
            gated.gate.set()
            for index, wire in enumerate(wires):
                assert wire.response()[:2] == (index + 1, Status.OK)
            assert gated.peak == workers
        finally:
            gated.gate.set()
            for wire in wires:
                wire.close()
            server.stop()
        assert watch.gauges()["server.inflight"] == 0

    def test_admission_accounting_survives_many_racing_connections(self):
        """More client threads than cores, a short switch interval: a lost
        update to the in-flight count or the connection table would leave a
        gauge off zero or a request uncounted."""
        clients, rounds = 8, 150
        errors = []
        server = _stub_server(lambda key: None, workers=2)

        def hammer():
            try:
                with ReproClient(server.host, server.port, tenant="stub", pool_size=1) as cli:
                    for index in range(rounds):
                        assert cli.get(index) is None
            except Exception as exc:  # noqa: BLE001 - asserted below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=hammer) for _ in range(clients)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
            server.stop()
        assert errors == []
        assert server.metrics.counters()["server.requests"] == clients * rounds
        assert server.metrics.gauges() == {"server.inflight": 0, "server.connections": 0}


class TestStop:
    def test_a_request_executing_at_stop_is_answered_before_its_socket_closes(self):
        gated = _GatedGet()
        server = _stub_server(gated)
        store = server.registry.get("stub")
        (accept_thread,) = [t for t in threading.enumerate() if t.name == "repro-server"]
        with _connect(server) as wire:
            wire.send(_request(7, Opcode.GET, 1))
            assert gated.entered.acquire(timeout=WAIT_S)
            stopper = threading.Thread(target=server.stop)
            stopper.start()
            # stop() shuts the accept loop down first: once that thread is
            # gone, shutdown is under way with the request still executing.
            accept_thread.join(WAIT_S)
            assert not accept_thread.is_alive()
            assert not store.closed
            gated.gate.set()
            assert wire.response()[:2] == (7, Status.OK)
            assert wire.response() is None  # then, and only then, EOF
            stopper.join(WAIT_S)
            assert not stopper.is_alive()
        assert store.closed
        assert _server_threads() == []

    def test_stop_is_prompt_with_an_idle_connected_client(self):
        server = _stub_server(lambda key: None)
        with _connect(server) as idle, ReproClient(
            server.host, server.port, tenant="stub"
        ) as client:
            assert client.get(1) is None
            started = time.monotonic()
            server.stop(timeout=WAIT_S)
            assert time.monotonic() - started < WAIT_S / 2
            assert idle.response() is None
        assert _server_threads() == []
        assert server.registry.open_tenants() == []

    def test_stop_cuts_off_a_peer_that_pipelined_scans_and_never_reads(self):
        catalog = {"default": StoreConfig(engine="tsb", page_size=16384)}
        server = ReproServer(catalog).start()
        server.registry.get("default").put_many(
            [(key, bytes(4096)) for key in range(256)]
        )
        with _connect(server) as deaf:
            # ~1 MiB per answer, 48 of them: far more than the socket
            # buffers between the two ends hold, so the connection's thread
            # ends up blocked in ``sendall``.
            deaf.send(
                b"".join(
                    _request(i, Opcode.RANGE, None, None, None, tenant="default")
                    for i in range(1, 49)
                )
            )
            started = time.monotonic()
            server.stop(timeout=0.5)
            assert time.monotonic() - started < 0.5 + WAIT_S / 2
        assert _server_threads() == []
        assert server.registry.open_tenants() == []

    def test_start_on_a_taken_port_raises_and_the_port_serves_again_after_stop(self):
        catalog = {"default": StoreConfig(engine="tsb")}
        first = ReproServer(catalog).start()
        try:
            with ReproClient(first.host, first.port) as client:
                client.insert("k", b"v")
            with pytest.raises(RuntimeError, match="failed to start"):
                ReproServer(catalog, port=first.port).start()
        finally:
            first.stop()
        # Same registry, same port, right away.
        with ReproServer(first.registry, port=first.port) as second:
            with ReproClient(second.host, second.port) as client:
                assert client.get("k").value == b"v"
