"""One walk of the WAL framing, and where each of its readers stops.

Restart recovery (``decode_stream``) and the replication tier
(``iter_wal_records``, and through it ``wal_batch_end`` and
``scan_offset``) read the same ``[u32 length][u32 crc][body]`` frames with
one walker, ``iter_frames``.  A torn or corrupt tail must stop each of them
just before the first damaged frame; only a frame whose CRC holds but whose
body does not decode tells them apart: recovery stops there, the LSN walk
goes on.
"""

from __future__ import annotations

import random
import struct
import zlib

import pytest

from repro.api import StoreConfig, VersionStore
from repro.recovery.log_records import decode_stream, iter_frames
from repro.replication.apply import scan_offset
from repro.server import protocol


@pytest.fixture(scope="module")
def log_bytes() -> bytes:
    store = VersionStore.open(StoreConfig(engine="tsb", page_size=256, wal=True))
    for round_ in range(6):
        store.put_many([(key, b"r%d-%d" % (round_, key)) for key in range(round_, round_ + 5)])
        store.delete(round_)
        with store.begin() as txn:
            txn.write(50 + round_, b"interactive")
    store.checkpoint()
    store.insert(99, b"after the checkpoint")
    store.log.force()
    return store.log_device.durable_contents()


def frames(data: bytes):
    return [(start, end) for start, _, end in iter_frames(data)]


def assert_readers_stop_before(damaged: bytes, intact: bytes, first_bad: int) -> None:
    """Both readers yield exactly the intact frames that end by
    ``first_bad``, the offset of the first damaged frame."""
    kept = [(start, end) for start, end in frames(intact) if end <= first_bad]
    expected = list(decode_stream(intact))[: len(kept)]
    assert list(decode_stream(damaged)) == expected
    walked = list(protocol.iter_wal_records(damaged))
    assert [(start, end) for start, _, end in walked] == kept
    assert [lsn for _, lsn, _ in walked] == [record.lsn for record in expected]
    consumed = kept[-1][1] if kept else 0
    assert protocol.wal_batch_end(damaged) == (consumed, expected[-1].lsn if expected else 0)
    assert scan_offset(damaged, 0) == (kept[0][0] if kept else 0)
    assert scan_offset(damaged, 1 << 62) == consumed


class TestTornAndCorruptTails:
    def test_the_intact_log_is_read_whole_by_both(self, log_bytes):
        spans = frames(log_bytes)
        assert len(spans) > 20 and spans[-1][1] == len(log_bytes)
        assert_readers_stop_before(log_bytes, log_bytes, len(log_bytes))

    def test_random_truncations(self, log_bytes):
        rng = random.Random(20)
        for cut in [0, 1, 7, 8, len(log_bytes) - 1] + rng.sample(range(len(log_bytes)), 150):
            torn = log_bytes[:cut]
            first_bad = next((start for start, end in frames(log_bytes) if end > cut), cut)
            assert_readers_stop_before(torn, log_bytes, first_bad)

    def test_random_flipped_bits(self, log_bytes):
        rng = random.Random(43)
        spans = frames(log_bytes)
        for _ in range(150):
            position = rng.randrange(len(log_bytes))
            damaged = bytearray(log_bytes)
            damaged[position] ^= 1 << rng.randrange(8)
            first_bad = next(start for start, end in spans if position < end)
            assert_readers_stop_before(bytes(damaged), log_bytes, first_bad)


class TestWhereTheReadersDiffer:
    def frame(self, body: bytes) -> bytes:
        return struct.pack(">II", len(body), zlib.crc32(body)) + body

    def test_a_body_too_short_for_an_lsn_stops_both(self, log_bytes):
        data = log_bytes + self.frame(b"\x00" * 7) + log_bytes
        assert_readers_stop_before(data, log_bytes + log_bytes, len(log_bytes))

    def test_an_undecodable_body_stops_recovery_but_not_the_lsn_walk(self, log_bytes):
        odd = self.frame(struct.pack(">QB", 10_000, 99))  # an unknown record kind
        data = log_bytes + odd
        assert list(decode_stream(data)) == list(decode_stream(log_bytes))
        walked = list(protocol.iter_wal_records(data))
        assert walked[-1] == (len(log_bytes), 10_000, len(data))
        assert protocol.wal_batch_end(data) == (len(data), 10_000)
