"""Scenario tests for restart recovery and the recoverable system."""

import time

import pytest

from repro.core import ThresholdPolicy, TSBTree, assert_tree_valid
from repro.recovery import RecoveryError, RecoveryManager
from repro.recovery.replay import replay_device
from repro.storage.logdevice import LogDevice
from repro.storage.magnetic import MagneticDisk
from repro.storage.worm import WormDisk
from tests.crash_harness import RecoverableSystem


class TestBasicOutcomes:
    def test_durably_committed_transactions_survive(self):
        system = RecoverableSystem(page_size=512)
        for index in range(20):
            txn = system.begin()
            txn.write(index % 5, f"v{index}".encode())
            txn.commit()
        report = system.crash()
        assert report.winners_replayed == 20
        for key in range(5):
            assert system.tree.search_current(key) is not None
        assert_tree_valid(system.tree)

    def test_in_flight_losers_leave_no_trace(self):
        system = RecoverableSystem(page_size=512)
        committed = system.begin()
        committed.write("kept", b"yes")
        committed.commit()
        loser = system.begin()
        loser.write("gone", b"no")
        # Checkpoint while the loser is active: its provisional version is
        # inside the durable image and must be undone from there.
        system.checkpoint()
        loser.write("gone-too", b"no")
        report = system.crash()
        assert report.losers_discarded == 1
        assert system.tree.search_current("kept").value == b"yes"
        assert system.tree.search_current("gone") is None
        assert system.tree.search_current("gone", txn_id=loser.txn_id) is None
        assert system.tree.search_current("gone-too") is None

    def test_aborted_transactions_stay_aborted(self):
        system = RecoverableSystem(page_size=512)
        txn = system.begin()
        txn.write("draft", b"x")
        system.checkpoint()  # provisional version becomes part of the image
        txn.abort()
        system.log.force()
        report = system.crash()
        assert report.aborts_discarded == 1
        assert system.tree.search_current("draft") is None

    def test_commit_in_volatile_tail_is_correctly_lost(self):
        system = RecoverableSystem(page_size=512, group_commit_size=4)
        durable = system.begin()
        durable.write("a", b"1")
        durable.commit()
        system.log.force()
        tail = system.begin()
        tail.write("b", b"2")
        tail.commit()
        assert system.commit_is_durable(durable)
        assert not system.commit_is_durable(tail)
        system.crash()
        assert system.tree.search_current("a").value == b"1"
        assert system.tree.search_current("b") is None

    def test_recovery_restores_the_timestamp_high_water(self):
        system = RecoverableSystem(page_size=512)
        timestamps = []
        for index in range(6):
            txn = system.begin()
            txn.write("k", f"v{index}".encode())
            timestamps.append(txn.commit())
        report = system.crash()
        assert report.high_water == max(timestamps)
        txn = system.begin()
        txn.write("k", b"after")
        assert txn.commit() > max(timestamps)

    def test_pre_crash_transaction_handles_are_dead_after_recovery(self):
        from repro.txn.manager import TransactionError

        system = RecoverableSystem(page_size=512)
        stale = system.begin()
        stale.write("x", b"1")
        system.crash()
        with pytest.raises(TransactionError):
            stale.commit()
        with pytest.raises(TransactionError):
            stale.write("y", b"2")
        # The dead handle must not have leaked anything into the new era.
        assert system.tree.search_current("x") is None

    def test_transaction_ids_continue_after_recovery(self):
        system = RecoverableSystem(page_size=512)
        txn = system.begin()
        txn.write("x", b"1")
        txn.commit()
        highest = txn.txn_id
        system.crash()
        assert system.begin().txn_id > highest


class TestCheckpointInteraction:
    def test_recovery_replays_only_past_the_anchor(self):
        system = RecoverableSystem(page_size=512)
        for index in range(10):
            txn = system.begin()
            txn.write(index, b"pre")
            txn.commit()
        system.checkpoint()
        for index in range(3):
            txn = system.begin()
            txn.write(100 + index, b"post")
            txn.commit()
        report = system.crash()
        assert report.winners_replayed == 3
        # The scan starts at the anchor's byte offset: one checkpoint record
        # plus BEGIN/INSERT/COMMIT for each post-checkpoint transaction —
        # the ten pre-checkpoint transactions are never even decoded.
        assert report.records_scanned == 1 + 3 * 3
        for index in range(10):
            assert system.tree.search_current(index).value == b"pre"
        for index in range(3):
            assert system.tree.search_current(100 + index).value == b"post"

    def test_fuzzy_checkpoint_does_not_shrink_replay_but_stays_correct(self):
        system = RecoverableSystem(page_size=512)
        txn = system.begin()
        txn.write("a", b"1")
        txn.commit()
        system.checkpoint(fuzzy=True)
        txn = system.begin()
        txn.write("b", b"2")
        txn.commit()
        report = system.crash()
        # Both commits lie past the (full, initial) anchor: both replay.
        assert report.winners_replayed == 2
        assert system.tree.search_current("a").value == b"1"
        assert system.tree.search_current("b").value == b"2"

    def test_straddling_transaction_recovers_whole(self):
        """A txn writing both before and after the checkpoint must come back
        complete: pre-anchor keys from the image, post-anchor from the log."""
        system = RecoverableSystem(page_size=512)
        txn = system.begin()
        txn.write("before", b"1")
        system.checkpoint()
        txn.write("after", b"2")
        txn.commit()
        system.crash()
        assert system.tree.search_current("before").value == b"1"
        assert system.tree.search_current("after").value == b"2"
        history = system.tree.key_history("before")
        assert [v.timestamp for v in history] == [
            v.timestamp for v in system.tree.key_history("after")
        ]

    def test_counters_survive_recovery(self):
        system = RecoverableSystem(page_size=512)
        for index in range(40):
            txn = system.begin()
            txn.write(index % 4, f"value-{index}".encode())
            txn.commit()
        system.checkpoint()
        commits_before = system.tree.counters.commits
        assert commits_before > 0
        system.crash()
        assert system.tree.counters.commits >= commits_before


def versions_of(tree, key):
    """Every stored version of ``key``, committed or not, as ``(stamp, value)``."""
    return [
        (version.timestamp, version.value)
        for node in tree.data_nodes()
        for version in node.versions
        if version.key == key
    ]


class TestReplayWritesTheLastWordOnce:
    """Replay writes a transaction's keys at the logged stamp, last word per
    key; a key the checkpoint image carried is stamped in place."""

    def test_a_carried_key_rewritten_after_the_checkpoint_is_one_version(self):
        system = RecoverableSystem(page_size=512)
        txn = system.begin()
        txn.write("rewritten", b"before")
        txn.write("deleted", b"before")
        txn.write("kept", b"before")
        system.checkpoint()  # all three are provisional inside the image
        txn.write("rewritten", b"after")
        txn.delete("deleted")
        stamp = txn.commit()
        expected = {
            "rewritten": [(stamp, b"after")],
            "deleted": [(stamp, b"")],
            "kept": [(stamp, b"before")],
        }
        report = system.crash()
        assert report.winners_replayed == 1
        from_empty = replay_device(system.log_device).tree
        for tree in (system.tree, from_empty):
            for key, versions in expected.items():
                assert versions_of(tree, key) == versions, key
            assert tree.search_current("deleted") is None
            assert tree.search_current("rewritten").value == b"after"
            assert_tree_valid(tree)

    def test_an_interactive_rewrite_replays_to_one_version(self):
        system = RecoverableSystem(page_size=512)
        txn = system.begin()
        txn.write("twice", b"first")
        txn.write("twice", b"second")
        txn.delete("revived")
        txn.write("revived", b"back")
        stamp = txn.commit()
        replayed = replay_device(system.log_device).tree
        system.crash()
        for tree in (replayed, system.tree):
            assert versions_of(tree, "twice") == [(stamp, b"second")]
            assert versions_of(tree, "revived") == [(stamp, b"back")]


class TestRepeatedCrashes:
    def test_crash_recover_crash_recover(self):
        system = RecoverableSystem(page_size=512)
        expected = {}
        for era in range(3):
            for index in range(8):
                txn = system.begin()
                key = f"k{index}"
                value = f"era{era}-{index}".encode()
                txn.write(key, value)
                txn.commit()
                expected[key] = value
            system.crash()
            for key, value in expected.items():
                assert system.tree.search_current(key).value == value
            assert_tree_valid(system.tree)

    def test_recovery_with_deletes_and_tombstones(self):
        system = RecoverableSystem(page_size=512)
        txn = system.begin()
        txn.write("doomed", b"v")
        txn.commit()
        txn = system.begin()
        txn.delete("doomed")
        txn.commit()
        system.crash()
        assert system.tree.search_current("doomed") is None
        history = system.tree.key_history("doomed")
        assert history[-1].is_tombstone


class TestCleanRejectionAbort:
    def test_oversized_record_aborts_without_leaking_prior_writes(self):
        """A RecordTooLargeError is refused before the tree is touched, so
        the doomed transaction's earlier provisional versions are erased
        immediately — nothing leaks into checkpoints or survives recovery."""
        from repro.core.tsb_tree import RecordTooLargeError
        from repro.txn.manager import TransactionState

        system = RecoverableSystem(page_size=512)
        txn = system.begin()
        txn.write("a", b"small")
        with pytest.raises(RecordTooLargeError):
            txn.write("b", b"x" * 10_000)
        assert txn.state is TransactionState.ABORTED
        assert system.tree.search_current("a", txn_id=txn.txn_id) is None
        # The tree is intact (clean rejection), so durability still works...
        assert not system.txns.requires_recovery
        system.checkpoint()
        system.crash()
        # ...and nothing of the doomed transaction survives the restart.
        assert system.tree.search_current("a") is None
        assert_tree_valid(system.tree)


class TestCommitStampingFailure:
    def test_durable_commit_record_wins_over_failed_stamping(self, monkeypatch):
        """Once the commit record is forced, the transaction IS committed:
        a stamping failure must not let the caller abort it, and restart
        recovery must replay the commit in full."""
        from repro.core.nodes import NodeError
        from repro.txn.manager import TransactionError, TransactionState

        system = RecoverableSystem(page_size=512)
        txn = system.begin()
        txn.write("k", b"v")

        def explode(*_args, **_kwargs):
            raise NodeError("simulated structure-modification failure")

        monkeypatch.setattr(system.tree, "commit_provisional", explode)
        with pytest.raises(NodeError):
            txn.commit()
        monkeypatch.undo()

        # The log is authoritative: the transaction is committed, a
        # contradictory abort is refused, and durability ops are gated.
        assert txn.state is TransactionState.COMMITTED
        assert system.commit_is_durable(txn)
        with pytest.raises(TransactionError):
            txn.abort()
        assert system.txns.requires_recovery

        system.crash()
        assert system.tree.search_current("k").value == b"v"


class TestDamagedInputs:
    def test_mismatched_log_and_tree_fail_loudly(self):
        system = RecoverableSystem(page_size=512)
        txn = system.begin()
        txn.write("x", b"1")
        txn.commit()
        system.checkpoint()
        with pytest.raises(RecoveryError):
            RecoveryManager(
                system.magnetic, system.historical, LogDevice()
            ).recover()

    def test_recover_never_checkpointed_tree_from_log_start(self):
        # A tree whose superblock predates any LogManager checkpoint has
        # anchor 0; recovery replays the durable log from its beginning.
        from repro.core.tsb_tree import TSBTree
        from repro.recovery import LogManager
        from repro.txn.manager import TransactionManager

        magnetic = MagneticDisk(page_size=512)
        historical = WormDisk(sector_size=512)
        tree = TSBTree(page_size=512, magnetic=magnetic, historical=historical)
        log = LogManager(LogDevice())
        manager = TransactionManager(tree, log=log)
        txn = manager.begin()
        txn.write("k", b"v")
        txn.commit()
        result = RecoveryManager(magnetic, historical, log.device).recover()
        assert result.tree.log_anchor == 0
        assert result.tree.search_current("k").value == b"v"


class TestFacadeReopen:
    """``VersionStore.open(config, magnetic=, historical=, log_device=)`` is
    the restart path: recovery, then the same log goes on."""

    CONFIG = dict(engine="tsb", page_size=512, wal=True, cache_pages=1_000_000)

    @staticmethod
    def _devices():
        return MagneticDisk(page_size=512), WormDisk(sector_size=512), LogDevice()

    @staticmethod
    def _reopen(store):
        """Crash ``store`` (volatile state and unforced log tail are lost)
        and hand its three devices back to the front door."""
        from repro.api import VersionStore

        store.log_device.lose_volatile_tail()
        magnetic, historical = store.devices
        return VersionStore.open(
            store.config,
            magnetic=magnetic,
            historical=historical,
            log_device=store.log_device,
        )

    def test_crashed_store_reopens_and_continues_every_sequence(self):
        from repro.api import StoreConfig, VersionStore
        from repro.recovery import LogRecordType, decode_stream

        magnetic, historical, log_device = self._devices()
        store = VersionStore.open(
            StoreConfig(group_commit_size=2, **self.CONFIG),
            magnetic=magnetic,
            historical=historical,
            log_device=log_device,
        )
        assert store.recovery_report is None  # formatted fresh: nothing to recover
        assert store.log_device is log_device
        stamps = store.put_many([("a", b"1"), ("b", b"1")])  # commit 1 of a batch of 2
        in_flight = store.begin()
        in_flight.write("c", b"never")
        with store.begin() as txn:
            txn.write("a", b"2")  # commit 2: fills the batch, forces the log
        durable_stamp = txn.commit_timestamp
        with store.begin() as tail:
            tail.write("b", b"lost")  # commit 3: sits in the unforced tail
        assert store.commit_is_durable(txn) and not store.commit_is_durable(tail)

        reopened = self._reopen(store)
        report = reopened.recovery_report
        assert report.winners_replayed == 2 and report.losers_discarded == 1
        assert reopened.get("a").value == b"2"
        assert reopened.get("b").value == b"1"  # the tail commit is gone
        assert reopened.get("c") is None
        assert [r.timestamp for r in reopened.key_history("a")] == [
            stamps[0],
            durable_stamp,
        ]
        # The same log goes on: LSNs follow the durable log's last record.
        assert reopened.log_device is log_device
        assert reopened.durable_lsn() == report.last_durable_lsn + 1  # the reopen's checkpoint

        with reopened.begin() as txn:
            txn.write("d", b"after")
        assert txn.txn_id == report.next_txn_id > in_flight.txn_id
        assert txn.commit_timestamp > durable_stamp
        reopened.log.force()

        again = self._reopen(reopened)
        assert again.recovery_report.checkpoint_lsn == report.last_durable_lsn + 1
        assert again.get("d").value == b"after"
        assert again.get("a").value == b"2"
        records = list(decode_stream(log_device.durable_contents()))
        lsns = [record.lsn for record in records]
        assert lsns == sorted(set(lsns)), "LSNs repeat or go backwards in the durable log"
        begun = [r.txn_id for r in records if r.kind is LogRecordType.BEGIN]
        assert len(begun) == len(set(begun)), "a transaction id was reused"
        commits = [r.commit_timestamp for r in records if r.kind is LogRecordType.COMMIT]
        assert commits == sorted(set(commits)), "commit timestamps repeat or go backwards"
        assert_tree_valid(again.backend)

    def test_cleanly_closed_store_reopens_on_its_log_with_nothing_to_redo(self):
        from repro.api import StoreConfig, VersionStore

        store = VersionStore.open(StoreConfig(**self.CONFIG))
        store.put_many([(key, b"v") for key in range(20)])
        store.close()
        magnetic, historical = store.devices
        reopened = VersionStore.open(
            store.config,
            magnetic=magnetic,
            historical=historical,
            log_device=store.log_device,
        )
        assert reopened.recovery_report.winners_replayed == 0
        assert len(reopened.snapshot(reopened.now)) == 20

    def test_a_log_device_needs_a_wal_and_its_own_tree(self):
        from repro.api import StoreConfig, VersionStore, VersionStoreError

        with pytest.raises(VersionStoreError, match="wal=True"):
            VersionStore.open(StoreConfig(engine="tsb"), log_device=LogDevice())
        store = VersionStore.open(StoreConfig(**self.CONFIG))
        store.put_many([("k", b"v")])
        with pytest.raises(VersionStoreError, match="second history"):
            VersionStore.open(StoreConfig(**self.CONFIG), log_device=store.log_device)
        magnetic, historical = store.devices
        with pytest.raises(RecoveryError):  # somebody else's (empty) log
            VersionStore.open(
                store.config,
                magnetic=magnetic,
                historical=historical,
                log_device=LogDevice(),
            )


def _system_with_history_and_orphans():
    """A crashed-to-be system whose checkpoint image holds historical nodes
    and whose post-checkpoint splits left pages the image never links."""
    system = RecoverableSystem(page_size=512, policy=ThresholdPolicy(0.5), cache_pages=8)
    for step in range(600):
        txn = system.begin()
        txn.write(step % 40, b"v%d" % step)
        txn.commit()
    system.checkpoint()
    for step in range(600, 1500):
        txn = system.begin()
        txn.write(step % 70, b"w%d" % step)
        txn.commit()
    return system


class TestRestartPhases:
    def test_the_report_times_each_phase_within_the_restart(self):
        system = _system_with_history_and_orphans()
        system.log_device.lose_volatile_tail()
        manager = RecoveryManager(
            system.magnetic, system.historical, system.log_device, cache_pages=8
        )
        began = time.perf_counter()
        report = manager.recover().report
        wall = time.perf_counter() - began
        phases = (report.reclaim_s, report.replay_s, report.verify_s)
        assert all(seconds >= 0 for seconds in phases)
        assert sum(phases) <= wall
        assert report.operations_replayed > 0 and report.orphan_pages_reclaimed > 0
        assert "replay" in report.summary() and "verify" in report.summary()

    def test_the_orphan_walk_reads_no_historical_page(self):
        system = _system_with_history_and_orphans()
        system.log_device.lose_volatile_tail()
        tree = TSBTree.open(system.magnetic, system.historical, cache_pages=8)
        assert any(node.address.is_historical for node in tree.iter_nodes())
        manager = RecoveryManager(
            system.magnetic, system.historical, system.log_device, cache_pages=8
        )
        reads = system.historical.stats.reads
        # The count an exhaustive walk of current and historical nodes reclaims.
        assert manager._reclaim_orphan_pages(tree) == 8
        assert system.historical.stats.reads == reads
