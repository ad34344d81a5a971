"""Tests for the log manager: group commit, LSNs, checkpoints, the device."""

import pytest

from repro.core import TSBTree
from repro.recovery import LogManager, LogRecordType, decode_stream
from repro.storage.device import InvalidAddressError, OutOfSpaceError
from repro.storage.logdevice import LogDevice
from repro.storage.serialization import encode_write
from repro.txn.manager import TransactionManager


class TestLogDevice:
    def test_appends_are_volatile_until_forced(self):
        device = LogDevice(sector_size=64)
        offset = device.append(b"record-one")
        assert offset == 0
        assert device.durable_bytes == 0
        assert device.volatile_bytes == 10
        assert device.force() == 10
        assert device.durable_bytes == 10
        assert device.volatile_bytes == 0

    def test_crash_loses_exactly_the_unforced_tail(self):
        device = LogDevice()
        device.append(b"kept")
        device.force()
        device.append(b"lost")
        assert device.lose_volatile_tail() == 4
        assert device.durable_contents() == b"kept"

    def test_one_force_is_one_device_write_regardless_of_records(self):
        device = LogDevice(sector_size=512)
        for index in range(10):
            device.append(f"record-{index}".encode())
        device.force()
        assert device.forces == 1
        assert device.stats.seeks == 1
        # Empty forces are free.
        device.force()
        assert device.forces == 1

    def test_sector_rounding_in_bytes_used(self):
        device = LogDevice(sector_size=512)
        device.append(b"x" * 513)
        device.force()
        assert device.bytes_stored == 513
        assert device.bytes_used == 1024
        assert device.stats.sectors_written == 2

    def test_capacity_is_enforced(self):
        device = LogDevice(capacity_bytes=8)
        device.append(b"12345678")
        with pytest.raises(OutOfSpaceError):
            device.append(b"x")

    def test_read_addresses_byte_ranges_of_the_durable_log(self):
        from repro.storage.device import Address

        device = LogDevice()
        offset = device.append(b"hello world")
        device.force()
        address = Address.historical(0, sector_start=offset, length=5)
        assert device.read(address) == b"hello"
        with pytest.raises(InvalidAddressError):
            device.read(Address.historical(0, sector_start=8, length=10))


class TestGroupCommit:
    def test_batch_size_one_forces_every_commit(self):
        log = LogManager(LogDevice(), group_commit_size=1)
        for txn_id in range(1, 6):
            lsn = log.log_commit(txn_id, txn_id)
            assert log.is_durable(lsn)
        assert log.device.forces == 5

    def test_batch_size_three_forces_every_third_commit(self):
        log = LogManager(LogDevice(), group_commit_size=3)
        lsns = [log.log_commit(txn_id, txn_id) for txn_id in range(1, 8)]
        # 7 commits, batch 3 -> forces after commits 3 and 6 only.
        assert log.device.forces == 2
        assert log.is_durable(lsns[5])
        assert not log.is_durable(lsns[6])
        assert log.pending_commits == 1
        log.force()
        assert log.is_durable(lsns[6])

    def test_a_commit_carries_its_writes_in_one_record(self):
        log = LogManager(LogDevice(), group_commit_size=2)
        writes = [("k", b"v"), ("k2", None)]
        lsn = log.log_commit(1, 5, [encode_write(key, value) for key, value in writes])
        assert log.device.forces == 0 and log.flushed_lsn == 0
        log.log_commit(2, 6)  # fills the batch of two
        assert log.device.forces == 1 and log.is_durable(lsn)
        records = list(decode_stream(log.device.durable_contents()))
        assert [(r.kind, r.txn_id, r.writes) for r in records] == [
            (LogRecordType.COMMIT, 1, tuple(writes)),
            (LogRecordType.COMMIT, 2, ()),
        ]

    def test_lsns_are_contiguous_and_start_where_asked(self):
        log = LogManager(LogDevice(), next_lsn=10)
        assert log.log_commit(1, 1) == 10
        assert log.log_commit(2, 2, [encode_write("k", b"v")]) == 11
        assert log.last_lsn == 11

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            LogManager(LogDevice(), group_commit_size=0)
        with pytest.raises(ValueError):
            LogManager(LogDevice(), next_lsn=0)


class TestBackgroundGroupCommit:
    def test_strict_durability_still_holds_with_a_background_flusher(self):
        log = LogManager(LogDevice(), group_commit_size=1, flush_interval=0.0)
        try:
            for txn_id in range(1, 4):
                lsn = log.log_commit(txn_id, txn_id)
                assert log.is_durable(lsn)  # the committer waited for the force
        finally:
            log.close()

    def test_concurrent_committers_are_batched_by_arrival(self):
        import threading

        log = LogManager(LogDevice(), group_commit_size=64, flush_interval=0.02)
        try:
            lsns = []
            lock = threading.Lock()

            def committer(txn_id):
                lsn = log.log_commit(txn_id, txn_id)
                with lock:
                    lsns.append(lsn)

            threads = [
                threading.Thread(target=committer, args=(txn_id,))
                for txn_id in range(1, 9)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=5.0)
            # Nobody filled the 64-commit batch, yet everything becomes
            # durable: the flusher forces by arrival, not by batch count.
            assert all(log.wait_durable(lsn, timeout=5.0) for lsn in lsns)
            # Eight commits shared far fewer forces than eight.
            assert 1 <= log.device.forces < 8
        finally:
            log.close()

    def test_close_stops_the_flusher_and_forces_the_tail(self):
        log = LogManager(LogDevice(), group_commit_size=64, flush_interval=5.0)
        lsn = log.log_commit(1, 1)
        log.close()  # long batching window: close must not wait for it
        assert log.is_durable(lsn)

    def test_rejects_negative_interval(self):
        with pytest.raises(ValueError):
            LogManager(LogDevice(), flush_interval=-0.1)


class TestCheckpoint:
    def test_full_checkpoint_anchors_the_superblock(self):
        tree = TSBTree(page_size=512)
        log = LogManager(LogDevice())
        manager = TransactionManager(tree, log=log)
        lsn = log.checkpoint(tree, manager)
        assert tree.log_anchor == lsn
        assert log.is_durable(lsn)
        records = list(decode_stream(log.device.durable_contents()))
        assert records[-1].kind is LogRecordType.CHECKPOINT
        assert records[-1].fuzzy is False

    def test_fuzzy_checkpoint_leaves_the_anchor_alone(self):
        tree = TSBTree(page_size=512)
        log = LogManager(LogDevice())
        manager = TransactionManager(tree, log=log)
        anchor = log.checkpoint(tree, manager)
        fuzzy_lsn = log.checkpoint(tree, manager, fuzzy=True)
        assert fuzzy_lsn > anchor
        assert tree.log_anchor == anchor  # replay still starts at the full one
        records = list(decode_stream(log.device.durable_contents()))
        assert records[-1].fuzzy is True

    def test_checkpoint_records_the_active_transaction_table(self):
        tree = TSBTree(page_size=512)
        log = LogManager(LogDevice())
        manager = TransactionManager(tree, log=log)
        txn = manager.begin()
        txn.write("pending", b"draft")
        log.checkpoint(tree, manager)
        records = list(decode_stream(log.device.durable_contents()))
        checkpoint = records[-1]
        assert checkpoint.next_txn_id == 2
        assert [entry.txn_id for entry in checkpoint.active] == [txn.txn_id]
        assert checkpoint.active[0].keys == ("pending",)
