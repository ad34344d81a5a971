"""Tests for the VersionStore façade: config, lifecycle, transactions, views."""

from __future__ import annotations

import pytest

import repro
from repro.api import (
    CapabilityError,
    ReadView,
    RecordView,
    StoreClosedError,
    StoreConfig,
    VersionStore,
    VersionStoreError,
    resolve_policy,
)
from repro.core.policy import (
    AlwaysTimeSplitPolicy,
    CostDrivenPolicy,
    ThresholdPolicy,
    WOBTEmulationPolicy,
)
from repro.storage import MagneticDisk, OpticalLibrary, WormDisk
from repro.wobt.wobt_tree import WOBT


class TestStoreConfig:
    def test_defaults_validate(self):
        config = StoreConfig()
        assert config.engine == "tsb"
        assert config.historical == "worm"

    def test_rejects_unknown_engine(self):
        with pytest.raises(ValueError, match="unknown engine"):
            StoreConfig(engine="btree")

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            StoreConfig(page_size=64)
        with pytest.raises(ValueError):
            StoreConfig(node_sectors=1)
        with pytest.raises(ValueError):
            StoreConfig(historical="tape")
        with pytest.raises(ValueError, match="every acknowledged commit is forced"):
            StoreConfig(wal=True, group_commit_size=4)
        with pytest.raises(ValueError, match="every acknowledged commit is forced"):
            StoreConfig(wal=True, group_commit_interval=0.005)

    def test_engine_specific_knobs_are_checked(self):
        with pytest.raises(ValueError, match="wal"):
            StoreConfig(engine="wobt", wal=True)
        with pytest.raises(ValueError, match="split_policy"):
            StoreConfig(engine="naive", split_policy="threshold:0.5")
        with pytest.raises(ValueError, match="unknown split policy"):
            StoreConfig(split_policy="fibonacci")
        with pytest.raises(ValueError, match="historical"):
            StoreConfig(engine="naive", historical="jukebox")
        with pytest.raises(ValueError, match="platter_capacity_sectors"):
            StoreConfig(engine="wobt", platter_capacity_sectors=512)
        with pytest.raises(ValueError, match="node_sectors"):
            StoreConfig(engine="tsb", node_sectors=4)
        with pytest.raises(ValueError, match="cache_pages"):
            StoreConfig(engine="wobt", cache_pages=4)

    def test_with_engine_drops_non_transferable_knobs(self):
        base = StoreConfig(
            engine="tsb",
            split_policy="threshold:0.25",
            wal=True,
            historical="jukebox",
            platter_capacity_sectors=512,
            cache_pages=16,
        )
        moved = base.with_engine("wobt")
        assert moved.engine == "wobt"
        assert moved.split_policy is None
        assert not moved.wal
        assert moved.historical == "worm"
        assert moved.cache_pages == 128
        assert moved.page_size == base.page_size
        assert base.with_engine("tsb") is base
        assert base.with_engine("naive").cache_pages == base.cache_pages

    def test_policy_spec_resolution(self):
        assert isinstance(resolve_policy("threshold:0.25"), ThresholdPolicy)
        assert resolve_policy("threshold:0.25").threshold == 0.25
        assert isinstance(resolve_policy("always-time:last_update"), AlwaysTimeSplitPolicy)
        assert isinstance(resolve_policy("cost"), CostDrivenPolicy)
        assert isinstance(resolve_policy("wobt"), WOBTEmulationPolicy)
        policy = ThresholdPolicy(0.75)
        assert resolve_policy(policy) is policy
        assert resolve_policy(None) is None


class TestLifecycle:
    def test_open_builds_the_right_backend(self):
        assert type(VersionStore.open(StoreConfig(engine="wobt")).backend) is WOBT
        assert VersionStore.open(engine="naive").engine.name == "naive"

    def test_jukebox_tier(self):
        store = VersionStore.open(StoreConfig(engine="tsb", historical="jukebox"))
        assert isinstance(store.backend.historical, OpticalLibrary)

    def test_context_manager_closes(self):
        with VersionStore.open(StoreConfig(engine="tsb")) as store:
            store.insert("k", b"v", timestamp=1)
        assert store.closed
        with pytest.raises(StoreClosedError):
            store.get("k")
        with pytest.raises(StoreClosedError):
            store.insert("k", b"v2", timestamp=2)
        store.close()  # idempotent

    def test_close_then_reopen_from_devices(self):
        magnetic = MagneticDisk(page_size=512)
        worm = WormDisk(sector_size=512)
        config = StoreConfig(engine="tsb", page_size=512)
        with VersionStore.open(config, magnetic=magnetic, historical=worm) as store:
            for step in range(60):
                store.insert(step % 7, f"v{step}".encode(), timestamp=step + 1)
            expected = {r.key: r.value for r in store.range_search()}
            expected_now = store.now

        reopened = VersionStore.open(config, magnetic=magnetic, historical=worm)
        assert reopened.now == expected_now
        assert {r.key: r.value for r in reopened.range_search()} == expected
        # The reopened store is live: writes continue after the old high-water mark.
        reopened.insert(0, b"after-reopen")
        assert reopened.get(0).value == b"after-reopen"

    def test_reopen_requires_both_devices(self):
        magnetic = MagneticDisk(page_size=512)
        worm = WormDisk(sector_size=512)
        config = StoreConfig(engine="tsb", page_size=512)
        with VersionStore.open(config, magnetic=magnetic, historical=worm) as store:
            for step in range(300):
                store.insert(step % 7, f"v{step}".encode(), timestamp=step + 1)
        # Resuming with only the magnetic device would pair the tree with a
        # blank historical tier and crash on the first history-following read.
        with pytest.raises(VersionStoreError, match="matching historical device"):
            VersionStore.open(config, magnetic=magnetic)

    def test_refuses_to_format_over_foreign_data(self):
        # A device with data but no superblock on page 0 must not be
        # silently reformatted into a fresh empty tree.
        magnetic = MagneticDisk(page_size=512)
        address = magnetic.allocate_page()
        magnetic.write(address, b"not a superblock")
        with pytest.raises(VersionStoreError, match="refusing to format"):
            VersionStore.open(StoreConfig(engine="tsb", page_size=512), magnetic=magnetic)

    def test_blank_devices_format_fresh(self):
        store = VersionStore.open(
            StoreConfig(engine="tsb", page_size=512),
            magnetic=MagneticDisk(page_size=512),
        )
        store.insert("k", b"v", timestamp=1)
        assert store.get("k").value == b"v"

    def test_non_tsb_engines_cannot_reopen_from_devices(self):
        with pytest.raises(VersionStoreError, match="reopened"):
            VersionStore.open(
                StoreConfig(engine="wobt"), magnetic=MagneticDisk(page_size=512)
            )


class TestTransactions:
    def test_context_manager_commit_and_abort(self):
        store = VersionStore.open(StoreConfig(engine="tsb", page_size=512))
        with store.begin() as txn:
            txn.write("alice", b"balance=50")
            assert txn.read("alice") == b"balance=50"  # read-your-writes
            assert store.get("alice") is None  # invisible until commit
        assert store.get("alice").value == b"balance=50"

        with pytest.raises(RuntimeError):
            with store.begin() as txn:
                txn.write("alice", b"balance=9999")
                raise RuntimeError("business rule violated")
        assert store.get("alice").value == b"balance=50"  # abort erased it

    def test_wal_backed_store(self):
        store = VersionStore.open(
            StoreConfig(engine="tsb", page_size=512, wal=True)
        )
        assert store.log is not None
        txn = store.begin()
        txn.write("k", b"v")
        txn.commit()
        assert store.commit_is_durable(txn)
        store.close()  # logged checkpoint

    def test_put_many_matches_sequential_inserts_with_and_without_wal(self):
        # The batched write path must not change the logical database: the
        # WAL path chunks at repeated keys (a transaction keeps one value
        # per key) so duplicate-key batches keep every version, exactly
        # like the non-WAL sequential path.
        items = [("a", b"1"), ("b", b"2"), ("a", b"3")]
        plain = VersionStore.open(StoreConfig(engine="tsb", page_size=512))
        plain.put_many(items)
        walled = VersionStore.open(
            StoreConfig(engine="tsb", page_size=512, wal=True)
        )
        stamps = walled.put_many(items)
        for store in (plain, walled):
            assert [r.value for r in store.key_history("a")] == [b"1", b"3"]
            assert store.get("b").value == b"2"
        assert stamps[0] == stamps[1] < stamps[2]  # chunk boundary at the dup
        assert walled.put_many([]) == []

    def test_commit_is_durable_requires_wal(self):
        store = VersionStore.open(StoreConfig(engine="tsb"))
        txn = store.begin()
        txn.write("k", b"v")
        txn.commit()
        with pytest.raises(VersionStoreError, match="wal"):
            store.commit_is_durable(txn)

    def test_readonly_transaction_snapshot_is_stable(self):
        store = VersionStore.open(StoreConfig(engine="tsb", page_size=512))
        store.insert("a", b"1", timestamp=1)
        reader = store.begin_readonly()
        before = {k: v.value for k, v in reader.snapshot().items()}
        store.insert("a", b"2")
        assert {k: v.value for k, v in reader.snapshot().items()} == before


class TestReadView:
    @pytest.mark.parametrize("engine", ("tsb", "wobt", "naive"))
    def test_view_is_pinned_while_writes_continue(self, engine):
        store = VersionStore.open(StoreConfig(engine=engine, page_size=512))
        store.insert("a", b"a1", timestamp=1)
        store.insert("b", b"b1", timestamp=2)
        view = store.read_view()
        assert view.timestamp == 2
        before = {k: r.value for k, r in view.snapshot().items()}
        store.insert("a", b"a2", timestamp=5)
        store.insert("c", b"c1", timestamp=6)
        assert {k: r.value for k, r in view.snapshot().items()} == before
        assert view.get("a").value == b"a1"
        assert view.get("c") is None
        assert [r.key for r in view.range()] == ["a", "b"]

    def test_as_of_view_and_history(self):
        store = VersionStore.open(StoreConfig(engine="tsb"))
        store.insert("k", b"v1", timestamp=1)
        store.insert("k", b"v2", timestamp=5)
        store.insert("k", b"v3", timestamp=9)
        view = store.read_view(as_of=5)
        assert isinstance(view, ReadView)
        assert view.get("k").value == b"v2"
        assert [r.value for r in view.history_between("k", 2)] == [b"v1", b"v2"]

    def test_views_are_immutable(self):
        view = VersionStore.open(StoreConfig(engine="naive")).read_view()
        with pytest.raises(AttributeError):
            view.timestamp = 99

    def test_views_die_with_their_store(self):
        store = VersionStore.open(StoreConfig(engine="tsb"))
        store.insert("k", b"v", timestamp=1)
        view = store.read_view()
        assert view.get("k").value == b"v"
        store.close()
        with pytest.raises(StoreClosedError):
            view.get("k")
        with pytest.raises(StoreClosedError):
            view.snapshot()


class TestBeginReadonly:
    """Paper section 4.1's read-only transaction: a ``ReadView`` pinned at
    the commit clock's read timestamp."""

    @staticmethod
    def open_store(**overrides):
        return VersionStore.open(StoreConfig(engine="tsb", page_size=512, **overrides))

    @staticmethod
    def commit(store, key, value):
        with store.begin() as txn:
            txn.write(key, value)
        return txn.commit_timestamp

    def test_reader_sees_only_commits_before_it_started(self):
        store = self.open_store()
        self.commit(store, "k", b"early")
        reader = store.begin_readonly()
        self.commit(store, "k", b"late")
        assert reader.get("k").value == b"early"
        assert store.begin_readonly().get("k").value == b"late"

    def test_reader_never_sees_uncommitted_data(self):
        store = self.open_store()
        writer = store.begin()
        writer.write("k", b"still uncommitted")
        reader = store.begin_readonly()
        assert reader.get("k") is None
        writer.commit()
        # The already-started reader still does not see it (commit time is
        # after the reader's timestamp); a new reader does.
        assert reader.get("k") is None
        assert store.begin_readonly().get("k").value == b"still uncommitted"

    def test_reader_takes_no_locks(self):
        store = self.open_store()
        self.commit(store, "k", b"v")
        reader = store.begin_readonly()
        assert reader.get("k").value == b"v"
        assert store.txns.locks.locked_key_count == 0
        # An updater is not blocked by the reader in any way.
        self.commit(store, "k", b"v2")

    def test_snapshot_is_stable_under_concurrent_commits(self):
        """The backup/unload use case: a full scan that never blocks."""
        store = self.open_store(split_policy=AlwaysTimeSplitPolicy("current"))
        for key in range(50):
            self.commit(store, key, f"initial-{key}".encode())
        backup = store.begin_readonly()
        before = {key: record.value for key, record in backup.snapshot().items()}
        for key in range(0, 50, 2):
            self.commit(store, key, f"updated-{key}".encode())
        after = {key: record.value for key, record in backup.snapshot().items()}
        assert before == after
        assert len(before) == 50
        live = {k: r.value for k, r in store.begin_readonly().snapshot().items()}
        assert live != before

    def test_range_at_a_fixed_timestamp(self):
        store = self.open_store()
        for key in range(10):
            self.commit(store, key, f"v-{key}".encode())
        reader = store.begin_readonly()
        self.commit(store, 3, b"changed later")
        records = list(reader.range(2, 6))
        assert [r.key for r in records] == [2, 3, 4, 5]
        assert records[1].value == b"v-3"

    def test_answer_and_handle_carry_the_timestamp(self):
        store = self.open_store()
        commit_time = self.commit(store, "k", b"v")
        reader = store.begin_readonly()
        assert isinstance(reader, ReadView)
        assert reader.get("k").timestamp == commit_time
        assert reader.timestamp == commit_time == store.now

    @pytest.mark.parametrize("engine", ("wobt", "naive"))
    def test_needs_a_commit_clock(self, engine):
        store = VersionStore.open(StoreConfig(engine=engine))
        with pytest.raises(CapabilityError):
            store.begin_readonly()


class TestTopLevelExports:
    def test_one_pinned_read_handle_is_exported(self):
        assert repro.ReadView is ReadView
        assert "ReadOnlyTransaction" not in repro.__all__
        assert not hasattr(repro, "ReadOnlyTransaction")
        assert not hasattr(repro.txn, "ReadOnlyTransaction")

    def test_unified_api_is_importable_from_repro(self):
        assert repro.VersionStore is VersionStore
        assert repro.StoreConfig is StoreConfig
        assert repro.RecordView is RecordView
        assert repro.CapabilityError is CapabilityError

    def test_txn_and_recovery_entry_points_are_exported(self):
        # The documented sub-packages were always importable; the top-level
        # namespace now exposes their entry points directly.
        from repro import (
            LogManager,
            RecoveryManager,
            Transaction,
            TransactionManager,
        )

        assert {"LogManager", "RecoveryManager", "Transaction", "TransactionManager"} <= set(
            repro.__all__
        )
        assert LogManager is not None
        assert RecoveryManager is not None
        assert Transaction is not None
        assert TransactionManager is not None

    def test_legacy_entry_points_still_work(self):
        from repro import ThresholdPolicy, TSBTree

        tree = TSBTree(page_size=1024, policy=ThresholdPolicy(0.5))
        tree.insert("alice", b"balance=50", timestamp=1)
        assert tree.search_current("alice").value == b"balance=50"
