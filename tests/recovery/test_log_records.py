"""Tests for the binary WAL record format: round-trips, torn tails, and the
log's shape — one ``COMMIT`` frame per committed transaction, nothing else."""

import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import StoreConfig, VersionStore
from repro.core.tsb_tree import RecordTooLargeError
from repro.recovery.log_records import (
    ActiveTransaction,
    LogRecord,
    LogRecordType,
    decode_stream,
    encode_record,
)
from repro.storage.serialization import (
    ByteWriter,
    SerializationError,
    write_key,
    write_value,
)

I64_EDGES = [-(2**63), 2**63 - 1, -1, 0]
KEYS = st.one_of(
    st.sampled_from(I64_EDGES),
    st.integers(-(2**63), 2**63 - 1),
    st.text(max_size=12),
)
#: The default page size: the largest value a store could hand the log.
PAGE_VALUE = b"\xab" * 1024
VALUES = st.one_of(st.none(), st.binary(max_size=64), st.just(PAGE_VALUE))


def commit_strategy():
    return st.builds(
        LogRecord.commit,
        st.integers(1, 2**40),
        st.integers(1, 2**20),
        st.integers(0, 2**40),
        st.lists(st.tuples(KEYS, VALUES), max_size=6).map(tuple),
    )


def record_strategy():
    active = st.builds(
        ActiveTransaction,
        st.integers(1, 2**20),
        st.lists(KEYS, max_size=4, unique=True).map(tuple),
    )
    checkpoints = st.builds(
        LogRecord.checkpoint,
        st.integers(1, 2**40),
        st.integers(0, 2**40),
        st.integers(1, 2**20),
        st.lists(active, max_size=3).map(tuple),
        st.booleans(),
    )
    return st.one_of(commit_strategy(), checkpoints)


def reference_frame(record: LogRecord) -> bytes:
    """A ``COMMIT`` frame in the layout ``log_records`` documents, written
    field by field with the page codecs (the encoder's int-key path skips
    them)."""
    body = ByteWriter()
    body.put_u64(record.lsn)
    body.put_u8(LogRecordType.COMMIT)
    body.put_u64(record.txn_id)
    body.put_u64(record.commit_timestamp)
    body.put_u32(len(record.writes))
    for key, value in record.writes:
        body.put_u8(value is None)
        write_key(body, key)
        if value is not None:
            write_value(body, value)
    data = body.getvalue()
    frame = ByteWriter()
    frame.put_u32(len(data))
    frame.put_u32(zlib.crc32(data))
    frame.put_raw(data)
    return frame.getvalue()


def frame_length(writes) -> int:
    """Frame bytes of a ``COMMIT`` of ``writes``: 8 framing, a 29-byte
    header, per write a delete byte, the key and (unless a delete) the
    length-prefixed value."""
    total = 8 + 8 + 1 + 8 + 8 + 4
    for key, value in writes:
        total += 1 + (1 + 8 if isinstance(key, int) else 1 + 4 + len(key.encode()))
        if value is not None:
            total += 4 + len(value)
    return total


class TestRoundTrip:
    @given(records=st.lists(record_strategy(), min_size=1, max_size=12))
    @settings(max_examples=80, deadline=None)
    def test_stream_round_trip(self, records):
        data = b"".join(encode_record(record) for record in records)
        assert list(decode_stream(data)) == records

    @given(record=commit_strategy())
    @settings(max_examples=120, deadline=None)
    def test_commit_round_trips_in_the_stated_format(self, record):
        """Int and str keys, i64 edge keys, tombstones, an empty write list
        and a page-sized value: the frame is the stated layout, byte for
        byte, and decodes back to the record."""
        frame = encode_record(record)
        assert frame == reference_frame(record)
        assert len(frame) == frame_length(record.writes)
        assert list(decode_stream(frame)) == [record]

    def test_every_kind_round_trips(self):
        records = [
            LogRecord.commit(1, 7, 42, ((1, b"v1"), ("alice", None), (-(2**63), b""))),
            LogRecord.commit(2, 8, 43),
            LogRecord.checkpoint(
                3,
                high_water=42,
                next_txn_id=9,
                active=(ActiveTransaction(txn_id=7, keys=("alice", "bob")),),
                fuzzy=True,
            ),
        ]
        data = b"".join(encode_record(record) for record in records)
        decoded = list(decode_stream(data))
        assert decoded == records
        assert decoded[0].writes[1] == ("alice", None)
        assert decoded[2].fuzzy is True
        assert decoded[2].active[0].keys == ("alice", "bob")

    @pytest.mark.parametrize("key", [2**63, -(2**63) - 1])
    def test_a_key_outside_i64_is_refused_by_the_codec(self, key):
        with pytest.raises(SerializationError, match="i64"):
            encode_record(LogRecord.commit(1, 1, 1, ((key, b"v"),)))

    def test_the_log_has_two_record_kinds(self):
        assert {kind.name for kind in LogRecordType} == {"COMMIT", "CHECKPOINT"}


class TestTornTail:
    def test_truncated_final_frame_is_dropped(self):
        good = encode_record(LogRecord.commit(1, 1, 1, ((1, b"a"),)))
        torn = encode_record(LogRecord.commit(2, 2, 2, (("k", b"v" * 30),)))[:-5]
        assert [r.lsn for r in decode_stream(good + torn)] == [1]

    @given(cut=st.integers(min_value=1, max_value=200))
    @settings(max_examples=60, deadline=None)
    def test_any_truncation_point_never_yields_garbage(self, cut):
        records = [
            LogRecord.commit(1, 1, 5, (("key", b"x" * 40), (3, None))),
            LogRecord.commit(2, 2, 6, ((4, b"y" * 20),)),
            LogRecord.checkpoint(3, high_water=6, next_txn_id=3),
        ]
        data = b"".join(encode_record(record) for record in records)
        cut = min(cut, len(data))
        decoded = list(decode_stream(data[:cut]))
        # Whatever survives must be an exact prefix of the original records.
        assert decoded == records[: len(decoded)]

    def test_corrupt_byte_in_tail_stops_replay(self):
        records = [
            LogRecord.commit(1, 1, 3, ((1, b"a"),)),
            LogRecord.commit(2, 2, 4, ((2, b"b"), (3, None))),
        ]
        data = bytearray(b"".join(encode_record(record) for record in records))
        data[-3] ^= 0xFF  # flip a byte inside the final record's body
        assert [r.lsn for r in decode_stream(bytes(data))] == [1]


class TestOneRecordPerTransaction:
    """What a transaction appends: one ``COMMIT`` frame if it commits,
    nothing at all otherwise."""

    @pytest.fixture
    def store(self):
        store = VersionStore.open(StoreConfig(wal=True))
        yield store
        store.close()

    @staticmethod
    def appended(store) -> int:
        return store.log_device.appended_bytes

    @pytest.mark.parametrize("n", [1, 4, 16])
    def test_a_committed_transaction_appends_one_frame(self, store, n):
        writes = [(key, None if key % 3 == 0 else b"v%d" % key) for key in range(1, n + 1)]
        store.put_many([(key, b"seed") for key, value in writes if value is None])
        seeded = self.appended(store)
        with store.begin() as txn:
            for key, value in writes:
                if value is None:
                    txn.delete(key)
                else:
                    txn.write(key, value)
        assert self.appended(store) - seeded == frame_length(writes)
        store.log.force()
        (record,) = list(decode_stream(store.log_device.durable_suffix(seeded)))
        assert record.kind is LogRecordType.COMMIT
        assert record.txn_id == txn.txn_id
        assert record.commit_timestamp == txn.commit_timestamp
        assert record.writes == tuple(writes)

    def test_the_write_path_appends_one_frame_per_batch(self, store):
        for batch in ([(1, b"a"), (2, b"bb"), (3, b"ccc")], [(4, b"d")], [(3, None)]):
            before = self.appended(store)
            store.put_many(batch)
            assert self.appended(store) - before == frame_length(batch)
        with VersionStore.open(StoreConfig(wal=True)) as named:
            batch = [("one", b"a"), ("two", None), ("three", b"ccc")]
            before = self.appended(named)
            named.put_many(batch)
            assert self.appended(named) - before == frame_length(batch)

    def test_the_last_word_per_key_is_logged(self, store):
        before = self.appended(store)
        with store.begin() as txn:
            txn.write(1, b"first")
            txn.write(2, b"kept")
            txn.delete(1)
        store.log.force()
        (record,) = list(decode_stream(store.log_device.durable_suffix(before)))
        assert record.writes == ((1, None), (2, b"kept"))

    def test_a_refused_batch_appends_nothing(self, store):
        before = self.appended(store)
        with pytest.raises(RecordTooLargeError):
            store.put_many([(1, b"small"), (2, b"x" * 2000)])
        assert self.appended(store) == before

    def test_an_aborted_transaction_appends_nothing(self, store):
        before = self.appended(store)
        txn = store.begin()
        txn.write(1, b"draft")
        txn.delete(2)
        txn.abort()
        assert self.appended(store) == before

    def test_an_uncommitted_transaction_appends_nothing(self, store):
        before = self.appended(store)
        txn = store.begin()
        txn.write(1, b"draft")
        txn.write(2, b"draft")
        assert self.appended(store) == before
        txn.abort()
