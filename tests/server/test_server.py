"""End-to-end server tests: the façade surface over a real TCP socket.

Covers the served read/write surface (answers identical to the in-process
façade), multi-tenant isolation, the concurrent-client oracle, admission
control (``SERVER_BUSY`` under a tiny in-flight limit), wire-level edge
cases (truncated frames, CRC corruption, oversized payloads, garbage
opcodes) and shutdown behaviour under concurrent connects.
"""

import struct
import threading
import time

import pytest

from repro.api.store import ShardSpec, StoreConfig, VersionStore
from repro.client import ClientError, ReproClient, ServerBusyError, ServerError
from repro.server import protocol
from repro.server.protocol import FRAME_HEADER, MAX_BODY_BYTES, Opcode, Status
from repro.server.service import ReproServer
from repro.workload.concurrent import run_concurrent
from tests.wire import Wire


def _catalog():
    return {
        "default": StoreConfig(engine="tsb"),
        "sharded": StoreConfig(
            engine="tsb",
            wal=True,
            group_commit_size=4,
            shards=ShardSpec.for_int_keys(4, key_space=1 << 16),
        ),
    }


@pytest.fixture()
def server():
    with ReproServer(_catalog(), port=0, workers=4) as srv:
        yield srv


@pytest.fixture()
def client(server):
    with ReproClient(server.host, server.port, pool_size=4) as cli:
        yield cli


def _raw_exchange(wire: Wire, frame: bytes):
    """Send one frame on a raw connection; return (status, reader) or None on EOF."""
    wire.send(frame)
    response = wire.response()
    return None if response is None else response[1:]


class TestServedSurface:
    def test_answers_match_in_process_store(self, server, client):
        items = [(key, f"v{key:04d}".encode()) for key in range(80)]
        client.put_many(items)
        with VersionStore.open(StoreConfig(engine="tsb")) as local:
            local.put_many(items)
            mid = max(1, local.now // 2)
            assert client.range_search() == local.range_search()
            assert client.snapshot(mid) == local.snapshot(mid)
            assert client.get(5) == local.get(5)
            assert client.get_as_of(5, mid) == local.get_as_of(5, mid)
            assert client.key_history(9) == local.key_history(9)
            assert client.history_between(9, 0, mid) == local.history_between(9, 0, mid)
            assert client.now == local.now

    def test_insert_and_delete_round_trip(self, client):
        stamp = client.insert("k", b"v1")
        assert client.get("k").value == b"v1"
        assert client.insert("k", b"v2", timestamp=stamp + 5) == stamp + 5
        client.delete("k")
        assert client.get("k") is None
        assert [r.value for r in client.key_history("k")] == [b"v1", b"v2"]

    def test_missing_key_reads(self, client):
        assert client.get("absent") is None
        assert client.get_as_of("absent", 10) is None
        assert client.key_history("absent") == []

    def test_time_slice_on_sharded_tenant(self, server):
        with ReproClient(server.host, server.port, tenant="sharded") as sharded:
            sharded.put_many([(key, b"x") for key in range(40)])
            sliced = sharded.time_slice(0, sharded.now + 1)
            assert len(sliced) == 40
        with ReproClient(server.host, server.port) as plain:
            stamp = plain.insert(1, b"x")
            assert plain.time_slice(0, stamp + 1) == {1: plain.key_history(1)}

    def test_tenant_isolation(self, server):
        with ReproClient(server.host, server.port, tenant="default") as a, ReproClient(
            server.host, server.port, tenant="sharded"
        ) as b:
            a.insert(1, b"from-default")
            assert b.get(1) is None

    def test_unknown_tenant_is_server_error(self, server):
        with ReproClient(server.host, server.port, tenant="ghost") as ghost:
            with pytest.raises(ServerError, match="unknown tenant"):
                ghost.get(1)

    def test_stats_renderings(self, client):
        client.insert(1, b"x")
        snapshot = client.stats("json")
        assert "server" in snapshot and "tenants" in snapshot
        assert snapshot["server"]["counters"]["server.requests"] >= 2
        assert "server.op.insert" in snapshot["server"]["histograms"]
        prometheus = client.stats("prometheus")
        assert "# TYPE" in prometheus
        with pytest.raises(ClientError):
            client.stats("xml")


class TestConcurrentClients:
    def test_oracle_checked_concurrent_workload(self, server):
        """N writers + M readers through the wire; the same assertions the
        in-process concurrency tests make, via ``run_concurrent(target=...)``."""
        with ReproClient(server.host, server.port, tenant="sharded", pool_size=8) as cli:
            items = [(key, f"w{key:05d}".encode()) for key in range(240)]
            result = run_concurrent(
                target=cli, items=items, threads=4, reader_threads=2, batch_size=4
            )
            assert result.errors == []
            assert result.writes == 240
            for key, versions in result.history().items():
                stored = [(r.timestamp, r.value) for r in cli.key_history(key)]
                assert stored == versions

    def test_target_requires_exactly_one_store(self):
        with pytest.raises(ValueError, match="exactly one"):
            run_concurrent(items=[(1, b"v")])
        with pytest.raises(ValueError, match="exactly one"):
            run_concurrent("store", items=[(1, b"v")], target="target")

    def test_write_batching_accounts_every_item(self, server):
        with ReproClient(server.host, server.port, pool_size=8) as cli:
            result = run_concurrent(
                target=cli,
                items=[(key, b"batched") for key in range(160)],
                threads=8,
                batch_size=4,
            )
            assert result.errors == []
            histograms = cli.stats("json")["server"]["histograms"]
            batched = histograms["server.batch.items"]
            # Every written item passed through the coalescing batcher.
            assert round(batched["avg"] * batched["count"]) == 160
            # Coalescing can only shrink the drain count, never grow it.
            assert histograms["server.batch.requests"]["count"] <= 160 // 4


class TestAdmissionControl:
    def test_server_busy_under_tiny_limit(self):
        catalog = {"default": StoreConfig(engine="tsb")}
        with ReproServer(catalog, port=0, workers=1, max_inflight=1) as srv:
            blocker = ReproClient(srv.host, srv.port, pool_size=1)
            prober = ReproClient(srv.host, srv.port, pool_size=1, busy_retries=0)
            try:
                # Occupy the single in-flight slot with a genuinely slow
                # request, then probe: the probe must be *rejected*, not
                # queued — that is the explicit-shedding contract.
                slow = threading.Thread(
                    target=blocker.put_many,
                    args=([(key, b"x" * 64) for key in range(1_200)],),
                )
                slow.start()
                saw_busy = False
                deadline = time.monotonic() + 10
                while time.monotonic() < deadline and not saw_busy:
                    try:
                        prober.ping()
                    except ServerBusyError:
                        saw_busy = True
                slow.join()
                assert saw_busy, "admission control never rejected a request"
                # After the slot frees, the same client is served again.
                assert prober.ping()
                counters = prober.stats("json")["server"]["counters"]
                assert counters.get("server.busy", 0) >= 1
            finally:
                blocker.close()
                prober.close()

    def test_busy_retries_eventually_succeed(self):
        catalog = {"default": StoreConfig(engine="tsb")}
        with ReproServer(catalog, port=0, workers=1, max_inflight=1) as srv:
            with ReproClient(srv.host, srv.port, pool_size=1) as blocker, ReproClient(
                srv.host, srv.port, pool_size=1, busy_retries=100, busy_backoff=0.02
            ) as patient:
                slow = threading.Thread(
                    target=blocker.put_many,
                    args=([(key, b"x" * 64) for key in range(600)],),
                )
                slow.start()
                time.sleep(0.05)
                assert patient.ping()  # retried through the busy window
                slow.join()


class TestWireEdgeCases:
    def _connect(self, server) -> Wire:
        return Wire.connect(server.host, server.port)

    def test_truncated_frame_then_disconnect_leaves_server_up(self, server):
        wire = self._connect(server)
        frame = protocol.encode_request(1, Opcode.PING, "default")
        wire.send(frame[: len(frame) - 3])  # die mid-body
        wire.close()
        with ReproClient(server.host, server.port) as cli:
            assert cli.ping()

    def test_crc_mismatch_closes_connection_only(self, server):
        wire = self._connect(server)
        frame = bytearray(protocol.encode_request(1, Opcode.PING, "default"))
        frame[-1] ^= 0xFF
        wire.send(bytes(frame))
        assert wire.ended()  # server dropped the poisoned stream
        wire.close()
        with ReproClient(server.host, server.port) as cli:
            assert cli.ping()
            counters = cli.stats("json")["server"]["counters"]
            assert counters.get("server.protocol_errors", 0) >= 1

    def test_oversized_length_prefix_closes_connection(self, server):
        wire = self._connect(server)
        wire.send(FRAME_HEADER.pack(MAX_BODY_BYTES + 1, 0))
        assert wire.ended()
        wire.close()
        with ReproClient(server.host, server.port) as cli:
            assert cli.ping()

    def test_unknown_opcode_gets_bad_request_not_disconnect(self, server):
        wire = self._connect(server)
        body = struct.pack(">QB", 9, 250) + struct.pack(">I", len(b"default")) + b"default"
        response = _raw_exchange(wire, protocol.encode_frame(body))
        assert response is not None
        # The frame itself was well-formed, so the connection survives and
        # the *request* is rejected.
        status, _ = response
        assert status is Status.BAD_REQUEST
        follow_up = _raw_exchange(
            wire, protocol.encode_request(10, Opcode.PING, "default")
        )
        assert follow_up is not None and follow_up[0] is Status.OK
        wire.close()

    def test_replication_stream_opcode_gets_bad_request(self, server):
        """A known opcode that is no row of the operation table fails its
        own request; the connection's thread lives on."""
        wire = self._connect(server)
        status, reader = _raw_exchange(
            wire, protocol.encode_request(11, Opcode.SUBSCRIBE, "default", b"")
        )
        assert status is Status.BAD_REQUEST
        assert "replication stream" in protocol.unpack_error(reader)
        follow_up = _raw_exchange(wire, protocol.encode_request(12, Opcode.PING, "default"))
        assert follow_up is not None and follow_up[0] is Status.OK
        wire.close()

    def test_malformed_payload_gets_bad_request(self, server):
        wire = self._connect(server)
        # GET with an empty payload: the key codec underflows server-side.
        response = _raw_exchange(
            wire, protocol.encode_request(3, Opcode.GET, "default", b"")
        )
        assert response is not None and response[0] is Status.BAD_REQUEST
        wire.close()

    def test_bytes_after_the_arguments_get_bad_request(self, server):
        wire = self._connect(server)
        get = protocol.OPS[Opcode.GET]
        payload = protocol.encode_args(get, ("k",)) + b"\x00"
        status, reader = _raw_exchange(
            wire, protocol.encode_request(4, Opcode.GET, "default", payload)
        )
        assert status is Status.BAD_REQUEST
        assert "1 bytes past its arguments" in protocol.unpack_error(reader)
        # Rejected on its own id; the connection carries on.
        follow_up = _raw_exchange(wire, protocol.encode_request(5, Opcode.PING, "default"))
        assert follow_up is not None and follow_up[0] is Status.OK
        wire.close()

    def test_malformed_utf8_text_argument_gets_bad_request(self, server):
        wire = self._connect(server)
        payload = struct.pack(">I", 2) + b"\xff\xfe"  # a STATS format that is not UTF-8
        status, reader = _raw_exchange(
            wire, protocol.encode_request(6, Opcode.STATS, "default", payload)
        )
        assert status is Status.BAD_REQUEST
        assert "UTF-8" in protocol.unpack_error(reader)
        follow_up = _raw_exchange(wire, protocol.encode_request(7, Opcode.PING, "default"))
        assert follow_up is not None and follow_up[0] is Status.OK
        wire.close()

    def test_codecs_enter_through_the_traced_module_functions(
        self, server, client, monkeypatch
    ):
        """Client and server reach the table's codecs through
        ``protocol.encode_args`` … ``protocol.decode_answer`` looked up at
        call time — the names the benchmark's tracer wraps."""
        calls = {}
        for name in ("encode_args", "decode_args", "encode_answer", "decode_answer"):
            original = getattr(protocol, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] = calls.get(_name, 0) + 1
                return _original(*args)

            monkeypatch.setattr(protocol, name, counted)
        stamp = client.insert("traced", b"v")
        assert client.get("traced").timestamp == stamp
        with client.pipeline() as pipe:
            assert pipe.key_history("traced").result()[0].value == b"v"
        assert calls == dict.fromkeys(
            ("encode_args", "decode_args", "encode_answer", "decode_answer"), 3
        )


class TestShutdown:
    def test_connects_during_shutdown_never_hang(self):
        catalog = {"default": StoreConfig(engine="tsb")}
        server = ReproServer(catalog, port=0, workers=2).start()
        host, port = server.host, server.port
        with ReproClient(host, port) as cli:
            cli.insert(1, b"v")
        stopper = threading.Thread(target=server.stop)
        stopper.start()
        outcomes = []
        for _ in range(12):
            try:
                with ReproClient(host, port, timeout=5, busy_retries=0) as racer:
                    outcomes.append(racer.ping())
            except ClientError:
                outcomes.append("refused")
        stopper.join(timeout=30)
        assert not stopper.is_alive(), "shutdown deadlocked under concurrent connects"
        # Every racing connect either got served or was cleanly refused.
        assert all(outcome in (True, "refused") for outcome in outcomes)

    def test_shutdown_closes_tenant_stores_and_resume_works(self):
        catalog = {"default": StoreConfig(engine="tsb")}
        server = ReproServer(catalog, port=0).start()
        with ReproClient(server.host, server.port) as cli:
            cli.insert("k", b"v")
        registry = server.registry
        server.stop()
        assert registry.open_tenants() == []
        # The registry retained the devices: a restarted server (same
        # registry) serves the old data — the restart regression.
        restarted = ReproServer(registry, port=0).start()
        try:
            with ReproClient(restarted.host, restarted.port) as cli:
                assert cli.get("k").value == b"v"
        finally:
            restarted.stop()

    def test_stop_is_idempotent(self):
        server = ReproServer({"default": StoreConfig(engine="tsb")}, port=0).start()
        server.stop()
        server.stop()
