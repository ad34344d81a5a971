"""Wire-codec tests for the replication and migration opcodes.

LOG_BATCH is the load-bearing codec: its payload is a raw slice of WAL
record frames a replica appends verbatim to its mirror device, so decode
must reject anything that would corrupt the mirror — torn tails, flipped
bytes, trailing garbage, and batches whose declared ``last_lsn`` disagrees
with the records they carry.
"""

import pytest

from repro.recovery.log_records import LogRecord, encode_record
from repro.server import protocol
from repro.server.protocol import ByteReader, ChecksumError, ProtocolError


def _batch_records(lsns):
    """Concatenated WAL frames: one COMMIT, carrying its writes, per LSN."""
    frames = []
    for index, lsn in enumerate(lsns):
        writes = ((index, b"v" * index), (index + 100, None))
        frames.append(encode_record(LogRecord.commit(lsn, 7 + index, lsn, writes)))
    return b"".join(frames)


class TestLogBatch:
    def test_round_trip(self):
        records = _batch_records([4, 5, 6])
        payload = protocol.pack_log_batch(2, 6, records)
        shard, last_lsn, out = protocol.unpack_log_batch(ByteReader(payload))
        assert (shard, last_lsn) == (2, 6)
        assert out == records

    def test_truncated_records_rejected(self):
        records = _batch_records([4, 5, 6])
        torn = records[:-3]
        payload = protocol.pack_log_batch(0, 6, torn)
        with pytest.raises(ChecksumError):
            protocol.unpack_log_batch(ByteReader(payload))

    def test_corrupt_byte_rejected(self):
        records = bytearray(_batch_records([4, 5, 6]))
        records[len(records) // 2] ^= 0xFF
        payload = protocol.pack_log_batch(0, 6, bytes(records))
        with pytest.raises(ChecksumError):
            protocol.unpack_log_batch(ByteReader(payload))

    def test_trailing_garbage_rejected(self):
        records = _batch_records([4, 5, 6]) + b"\x00\x01\x02garbage"
        payload = protocol.pack_log_batch(0, 6, records)
        with pytest.raises(ChecksumError):
            protocol.unpack_log_batch(ByteReader(payload))

    def test_last_lsn_mismatch_rejected(self):
        records = _batch_records([4, 5, 6])
        payload = protocol.pack_log_batch(0, 9, records)
        with pytest.raises(ProtocolError):
            protocol.unpack_log_batch(ByteReader(payload))

    def test_iter_wal_records_stops_at_torn_tail(self):
        records = _batch_records([4, 5, 6])
        walked = list(protocol.iter_wal_records(records[:-1]))
        assert [lsn for _, lsn, _ in walked] == [4, 5]
        consumed, last = protocol.wal_batch_end(records[:-1])
        assert last == 5
        assert consumed < len(records) - 1


class TestControlCodecs:
    def test_subscribe_round_trip(self):
        reader = ByteReader(protocol.pack_subscribe(3, 12345))
        assert protocol.unpack_subscribe(reader) == (3, 12345)

    def test_ack_round_trip(self):
        reader = ByteReader(protocol.pack_ack(1, 999))
        assert protocol.unpack_ack(reader) == (1, 999)

    def test_watermark_round_trip(self):
        reader = ByteReader(protocol.pack_watermark(601, 200))
        assert protocol.unpack_watermark(reader) == (601, 200)

    @pytest.mark.parametrize(
        "sharded,boundaries", [(False, []), (True, [100, 200]), (True, ["g", "p"])]
    )
    def test_topology_round_trip(self, sharded, boundaries):
        payload = protocol.pack_topology(sharded, boundaries, 512, 4)
        reader = ByteReader(payload)
        assert protocol.unpack_topology(reader) == (sharded, boundaries, 512, 4)


class TestMigrationCodecs:
    EVENTS = [
        (5, "alpha", False, b"a1"),
        (6, "beta", True, b""),
        (9, "alpha", False, b"a2"),
    ]

    def test_events_round_trip(self):
        reader = ByteReader(protocol.pack_events(self.EVENTS))
        assert protocol.unpack_events(reader) == self.EVENTS

    def test_chunk_and_merge(self):
        chunks = protocol.chunk_events(self.EVENTS, chunk_bytes=8)
        assert len(chunks) > 1
        merged = protocol.merge_event_chunks([ByteReader(c) for c in chunks])
        assert merged == self.EVENTS

    def test_empty_events_still_one_chunk(self):
        chunks = protocol.chunk_events([])
        assert len(chunks) == 1
        assert protocol.unpack_events(ByteReader(chunks[0])) == []

    def test_copy_state_round_trip(self):
        offsets = [(0, 0), (1, 4096), (3, 1 << 40)]
        reader = ByteReader(protocol.pack_copy_state(offsets))
        assert protocol.unpack_copy_state(reader) == offsets

    @pytest.mark.parametrize("offsets", [[], [(0, 64), (1, 128)]])
    def test_migrate_read_round_trip(self, offsets):
        op = protocol.OPS[protocol.Opcode.SNAPSHOT_READ]
        reader = ByteReader(protocol.encode_args(op, ("low", None, offsets)))
        assert protocol.decode_args(op, reader) == ("low", None, offsets)

    def test_cutover_round_trip(self):
        op = protocol.OPS[protocol.Opcode.CUTOVER]
        args = (protocol.CUTOVER_PREPARE, "m", None, 3, "node-b")
        reader = ByteReader(protocol.encode_args(op, args))
        assert protocol.decode_args(op, reader) == args

    def test_routing_round_trip(self):
        routes = [(None, "m", "a", 0), ("m", None, "b", 2)]
        reader = ByteReader(protocol.pack_routing(routes))
        assert protocol.unpack_routing(reader) == routes
