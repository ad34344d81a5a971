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
    def test_a_commit_is_durable_once_forced_through(self):
        log = LogManager(LogDevice())
        for txn_id in range(1, 6):
            lsn = log.log_commit(txn_id, txn_id)
            assert not log.is_durable(lsn)  # appending never forces
            log.force_through(lsn)
            assert log.is_durable(lsn)
        assert log.device.forces == 5

    def test_one_force_covers_every_commit_appended_before_it(self):
        log = LogManager(LogDevice())
        lsns = [log.log_commit(txn_id, txn_id) for txn_id in range(1, 8)]
        assert log.device.forces == 0 and log.pending_commits == 7
        log.force_through(lsns[0])  # forces everything appended so far
        assert log.device.forces == 1 and log.pending_commits == 0
        for lsn in lsns[1:]:
            log.force_through(lsn)  # already covered: returns at once
        assert log.device.forces == 1
        assert all(log.is_durable(lsn) for lsn in lsns)

    def test_a_commit_carries_its_writes_in_one_record(self):
        log = LogManager(LogDevice())
        writes = [("k", b"v"), ("k2", None)]
        lsn = log.log_commit(1, 5, [encode_write(key, value) for key, value in writes])
        assert log.device.forces == 0 and log.flushed_lsn == 0
        log.force_through(log.log_commit(2, 6))
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
            LogManager(LogDevice(), next_lsn=0)


class TestSharedForce:
    def test_committers_that_append_together_share_one_force(self):
        """A barrier between append and force (ordering, not timing): all
        eight records are appended before anyone forces, so the first force
        covers them all and the other seven return at once."""
        import threading

        log = LogManager(LogDevice())
        appended = threading.Barrier(8)

        def committer(txn_id):
            lsn = log.log_commit(txn_id, txn_id)
            appended.wait(timeout=5.0)
            log.force_through(lsn)
            assert log.is_durable(lsn)

        threads = [threading.Thread(target=committer, args=(n,)) for n in range(1, 9)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=5.0)
        assert log.device.forces == 1 and log.flushed_lsn == 8

    def test_wait_durable_returns_once_a_force_covers_the_record(self):
        import threading

        log = LogManager(LogDevice())
        lsn = log.log_commit(1, 1)
        assert not log.wait_durable(lsn, timeout=0.0)
        forcer = threading.Thread(target=log.force_through, args=(lsn,))
        forcer.start()
        assert log.wait_durable(lsn, timeout=5.0)
        forcer.join(timeout=5.0)

    def test_checkpoint_forces_an_appended_commit(self):
        tree = TSBTree(page_size=512)
        log = LogManager(LogDevice())
        lsn = log.log_commit(1, 1)
        log.checkpoint(tree)
        assert log.is_durable(lsn) and log.pending_commits == 0


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
