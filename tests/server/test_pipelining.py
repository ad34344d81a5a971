"""Pipelining and streaming tests: interleaved frames on shared sockets.

The demultiplexing client matches responses to waiters by request id, so
one socket carries many requests at once and answers may come back in any
order; large scan answers stream as ``[PARTIAL]* [OK]`` chunk runs under
the same id.  These tests drive both halves through their edges:
out-of-order responses, a streamed scan interleaved with point reads on
one socket, a stream truncated mid-chunk (a clean protocol error, socket
poisoned), ``SERVER_BUSY`` on some-but-not-all in-flight requests, and
the acceptance regression — a multi-MiB snapshot/range answer that would
overflow a single frame must round-trip chunked, byte-identical.
"""

import threading

import pytest

from repro.api.store import ShardSpec, StoreConfig, VersionStore
from repro.client import (
    ClientError,
    ClientProtocolError,
    ReproClient,
    ServerBusyError,
    ServerError,
)
from repro.server import protocol
from repro.server.protocol import (
    MAX_BODY_BYTES,
    Opcode,
    ProtocolError,
    Status,
)
from repro.server.service import ReproServer
from repro.workload.concurrent import run_concurrent
from tests.wire import ScriptedPeer


def _catalog():
    return {
        "default": StoreConfig(engine="tsb"),
        "sharded": StoreConfig(
            engine="tsb",
            wal=True,
            shards=ShardSpec.for_int_keys(4, key_space=1 << 16),
        ),
        # Pages big enough for multi-KiB values: the streaming tests push
        # single answers past the 4 MiB frame bound.
        "bulk": StoreConfig(engine="tsb", page_size=16384),
    }


@pytest.fixture()
def server():
    with ReproServer(_catalog(), port=0, workers=4) as srv:
        yield srv


class TestDemultiplexing:
    def test_out_of_order_responses_reach_their_callers(self):
        """Responses sent in reverse order land on the right waiters."""

        def reversed_responder(conn):
            first = conn.request()
            second = conn.request()
            if first is None or second is None:
                return
            conn.send(
                protocol.encode_response(
                    second.request_id, Status.OK, protocol.pack_timestamp_u64(2)
                )
            )
            conn.send(
                protocol.encode_response(
                    first.request_id, Status.OK, protocol.pack_timestamp_u64(1)
                )
            )

        with ScriptedPeer(reversed_responder) as scripted:
            with ReproClient("127.0.0.1", scripted.port, pool_size=1) as client:
                with client.pipeline() as pipe:
                    first, second = pipe.now(), pipe.now()
                    # Gather in send order: the demultiplexer must route the
                    # reversed frames by id, not by arrival position.
                    assert first.result() == 1
                    assert second.result() == 2

    def test_unknown_response_id_poisons_the_channel(self):
        def rogue_responder(conn):
            request = conn.request()
            if request is None:
                return
            conn.send(
                protocol.encode_response(
                    request.request_id + 999, Status.OK, protocol.pack_timestamp_u64(7)
                )
            )
            conn.request()  # hold the socket open until the client gives up

        with ScriptedPeer(rogue_responder) as scripted:
            with ReproClient(
                "127.0.0.1", scripted.port, pool_size=1, timeout=5.0
            ) as client:
                with pytest.raises(ClientProtocolError, match="no in-flight request"):
                    _ = client.now

    def test_streamed_scan_interleaves_with_point_reads_on_one_socket(self, server):
        """A chunked range answer shares its socket with point reads.

        ``pool_size=1`` forces every request through one channel; the scan
        streams multiple PARTIAL frames, and point reads issued while those
        chunks are in flight must still come back correct.
        """
        values = {key: bytes([key % 251]) * 512 for key in range(1200)}
        with ReproClient(
            server.host, server.port, tenant="bulk", pool_size=1
        ) as client:
            items = sorted(values.items())
            for start in range(0, len(items), 100):
                client.put_many(items[start : start + 100])

            scans, errors = [], []

            def scanning():
                try:
                    for _ in range(3):
                        scans.append(client.range_search())
                except Exception as exc:  # noqa: BLE001 - asserted below
                    errors.append(exc)

            def pointing(offset):
                try:
                    for index in range(60):
                        key = (offset * 60 + index) % 1200
                        record = client.get(key)
                        assert record is not None and record.value == values[key]
                except Exception as exc:  # noqa: BLE001 - asserted below
                    errors.append(exc)

            workers = [threading.Thread(target=scanning)] + [
                threading.Thread(target=pointing, args=(offset,)) for offset in range(3)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join()

            assert errors == []
            assert len(scans) == 3
            for records in scans:
                assert [r.key for r in records] == sorted(values)
            # The 1200 x 512B answer cannot fit one 256 KiB chunk: the scan
            # really did stream, on the same socket the point reads used.
            stats = client.stats("json")
            assert stats["server"]["counters"].get("server.stream.chunks", 0) > 0

    def test_truncated_partial_stream_surfaces_clean_protocol_error(self):
        """A stream cut mid-chunk is a protocol error, not a hang or garbage."""
        records = [(key, b"x" * 32) for key in range(4)]

        def truncating_responder(conn):
            request = conn.request()
            if request is None:
                return
            store_records = []
            with VersionStore.open(StoreConfig(engine="tsb")) as seed:
                for key, value in records:
                    seed.insert(key, value)
                store_records = seed.range_search()
            chunk = protocol.pack_records(store_records)
            conn.send(
                protocol.encode_response(request.request_id, Status.PARTIAL, chunk)
            )
            final = protocol.encode_response(request.request_id, Status.OK, chunk)
            conn.send(final[: len(final) // 2])  # half a frame, then EOF

        with ScriptedPeer(truncating_responder) as scripted:
            with ReproClient("127.0.0.1", scripted.port, pool_size=1) as client:
                with pytest.raises(ClientProtocolError):
                    client.range_search()
                # The channel is poisoned: its socket cannot be reused.
                assert client._channels[0].dead
                # ClientProtocolError is catchable as either hierarchy.
                assert issubclass(ClientProtocolError, ClientError)
                assert issubclass(ClientProtocolError, ProtocolError)

    def test_busy_on_some_but_not_all_inflight_requests(self):
        """SERVER_BUSY answers fail only their own request; neighbours land."""
        busy_ids = set()

        def selective_responder(conn):
            while True:
                request = conn.request()
                if request is None:
                    return
                if request.opcode is Opcode.INSERT and not busy_ids:
                    busy_ids.add(request.request_id)
                    conn.send(
                        protocol.encode_response(
                            request.request_id,
                            Status.SERVER_BUSY,
                            protocol.pack_error("shed"),
                        )
                    )
                    continue
                conn.send(
                    protocol.encode_response(
                        request.request_id,
                        Status.OK,
                        protocol.pack_timestamp_u64(request.request_id),
                    )
                )

        with ScriptedPeer(selective_responder) as scripted:
            with ReproClient(
                "127.0.0.1", scripted.port, pool_size=1, busy_retries=0
            ) as client:
                with client.pipeline() as pipe:
                    pending = [pipe.insert(key, b"v") for key in range(4)]
                    outcomes = []
                    for item in pending:
                        try:
                            outcomes.append(item.result())
                        except ServerBusyError:
                            outcomes.append("busy")
                # Exactly the shed request failed; the rest completed.
                assert outcomes.count("busy") == 1
                assert sum(1 for o in outcomes if o != "busy") == 3
                assert client.counters["client.busy_rejected"] == 1

            # With retries enabled the same shedding is absorbed: the client
            # re-issues the shed request and every write lands.
            busy_ids.clear()
            with ReproClient(
                "127.0.0.1", scripted.port, pool_size=1, busy_retries=3
            ) as client:
                with client.pipeline() as pipe:
                    pending = [pipe.insert(key, b"v") for key in range(4)]
                    assert all(isinstance(p.result(), int) for p in pending)
                assert client.counters["client.busy_retries"] == 1
                assert client.counters["client.busy_rejected"] == 0


class TestPipelineHoldsOnlyTheWindow:
    def test_a_sliding_window_forgets_what_was_observed(self, server):
        """10,000 requests through a window of 8: the pipeline's memory
        follows the window, not the requests ever sent."""
        from collections import deque

        with ReproClient(server.host, server.port, pool_size=1) as client:
            with client.pipeline() as pipe:
                window = deque()
                held_max = 0
                for _ in range(10_000):
                    if len(window) >= 8:
                        assert window.popleft().result() is None
                    window.append(pipe.ping())
                    held_max = max(held_max, len(pipe._pending))
                assert held_max <= 8
                assert pipe.depth == 10_000
                # gather() covers exactly what is still held, in order.
                assert pipe.gather() == [None] * len(window)
                assert len(pipe._pending) == 0

    def test_exit_reraises_the_first_error_nobody_observed(self, server):
        with ReproClient(server.host, server.port, tenant="ghost") as ghost:
            with pytest.raises(ServerError, match="unknown tenant"):
                with ghost.pipeline() as pipe:
                    observed, _unobserved = pipe.get(1), pipe.get(2)
                    with pytest.raises(ServerError):
                        observed.result()
            # An error already seen through result() does not re-raise.
            with ghost.pipeline() as pipe:
                seen = pipe.get(1)
                with pytest.raises(ServerError):
                    seen.result()
                assert pipe.ping().result() is None


class TestBackoffCap:
    def test_total_backoff_sleep_is_capped(self):
        """The retry loop gives up once its sleep budget is spent, even if
        the retry count allows more attempts."""

        def always_busy(conn):
            while True:
                request = conn.request()
                if request is None:
                    return
                conn.send(
                    protocol.encode_response(
                        request.request_id,
                        Status.SERVER_BUSY,
                        protocol.pack_error("shed"),
                    )
                )

        with ScriptedPeer(always_busy) as scripted:
            with ReproClient(
                "127.0.0.1",
                scripted.port,
                pool_size=1,
                busy_retries=1_000_000,
                busy_backoff=0.01,
                busy_backoff_cap=0.05,
            ) as client:
                with pytest.raises(ServerBusyError):
                    client.insert(1, b"v")
                counters = client.counters
                # 0.01 + 0.02 fit the 0.05s cap; +0.03 would overflow it.
                assert counters["client.busy_retries"] == 2
                assert counters["client.busy_rejected"] == 1
                assert counters["client.requests"] == 3


class TestStreamedRoundTrip:
    def test_multi_mebibyte_snapshot_round_trips_chunked(self, server):
        """The acceptance regression: an answer larger than one frame's
        4 MiB bound must round-trip as a PARTIAL stream, byte-identical."""
        value = bytes(4096)
        keys = range(1200)  # ~4.9 MiB of values alone: > MAX_BODY_BYTES
        with ReproClient(
            server.host, server.port, tenant="bulk", pool_size=2
        ) as client:
            items = [(key, value) for key in keys]
            for start in range(0, len(items), 200):
                client.put_many(items[start : start + 200])
            now = client.now

            snap = client.snapshot(now)
            assert len(snap) == len(keys)
            assert all(snap[key].value == value for key in keys)
            assert sum(len(r.value) for r in snap.values()) > MAX_BODY_BYTES

            records = client.range_search()
            assert [r.key for r in records] == list(keys)
            assert all(r.value == value for r in records)

            stats = client.stats("json")
            assert stats["server"]["counters"]["server.stream.chunks"] > 0
            # And the client's own counters ride along in the same snapshot.
            assert stats["client"]["client.requests"] > 0

    def test_pipelined_oracle_matches_store_history(self, server):
        """run_concurrent at depth 16 stays oracle-consistent end to end."""
        items = [(key % 64, f"d{key:05d}".encode()) for key in range(256)]
        with ReproClient(
            server.host, server.port, tenant="sharded", pool_size=2
        ) as client:
            result = run_concurrent(
                target=client,
                items=items,
                threads=2,
                batch_size=4,
                pipeline_depth=16,
            )
            assert result.errors == []
            assert result.writes == len(items)
            assert result.pipeline_depth == 16
            for key, versions in result.history().items():
                stored = [
                    (record.timestamp, record.value)
                    for record in client.key_history(key)
                ]
                assert stored == versions
            depth = client.stats("json")["server"]["histograms"].get(
                "server.pipeline.depth"
            )
            assert depth is not None and depth["max"] > 1


class TestChunkers:
    def test_single_chunk_is_byte_identical_to_unstreamed_packing(self):
        records = []
        with VersionStore.open(StoreConfig(engine="tsb")) as store:
            for key in range(16):
                store.insert(key, f"v{key}".encode())
            records = store.range_search()
        chunks = protocol.chunk_records(records)
        assert len(chunks) == 1
        assert chunks[0] == protocol.pack_records(records)

    def test_record_chunks_split_and_merge_round_trip(self):
        with VersionStore.open(StoreConfig(engine="tsb")) as store:
            for key in range(64):
                store.insert(key, bytes([key]) * 100)
            records = store.range_search()
        chunks = protocol.chunk_records(records, chunk_bytes=512)
        assert len(chunks) > 1
        from repro.storage.serialization import ByteReader

        merged = protocol.merge_record_chunks([ByteReader(c) for c in chunks])
        assert merged == records

    def test_history_chunks_allow_keys_to_span_chunks(self):
        from repro.storage.serialization import ByteReader

        with VersionStore.open(StoreConfig(engine="tsb")) as store:
            for _ in range(12):
                for key in range(4):
                    store.insert(key, b"h" * 64)
            histories = {key: store.key_history(key) for key in range(4)}
        chunks = protocol.chunk_history_map(histories, chunk_bytes=256)
        assert len(chunks) > 1
        merged = protocol.merge_history_chunks([ByteReader(c) for c in chunks])
        assert merged == histories
