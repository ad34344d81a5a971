"""Failure-injection tests: device exhaustion and write-once violations.

These verify that the storage substrate fails loudly and precisely when its
physical constraints are violated, and that the structures above it surface
those errors rather than corrupting data silently.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AlwaysKeySplitPolicy, AlwaysTimeSplitPolicy, TSBTree, assert_tree_valid
from repro.storage.device import OutOfSpaceError, WriteOnceViolationError
from repro.storage.magnetic import MagneticDisk
from repro.storage.pagecache import PageCache
from repro.storage.worm import WormDisk
from tests.crash_harness import RecoverableSystem


class TestMagneticExhaustion:
    def test_tree_surfaces_out_of_space_on_key_splits(self):
        """A bounded magnetic disk eventually refuses new pages; the tree
        propagates the device error instead of losing data silently."""
        magnetic = MagneticDisk(page_size=512, capacity_pages=6)
        tree = TSBTree(page_size=512, policy=AlwaysKeySplitPolicy(), magnetic=magnetic)
        with pytest.raises(OutOfSpaceError):
            for key in range(10_000):
                tree.insert(key, b"some payload bytes", timestamp=key + 1)

    def test_data_written_before_exhaustion_remains_mostly_readable(self):
        """Leaf-level splits allocate before they mutate, so exhaustion during
        a leaf split loses nothing.  A failure during a *parent* split can
        still orphan the most recently split leaf, so — without the recovery
        subsystem engaged (see ``TestRecoveryAfterExhaustion``) — at most one
        node's worth of the latest keys may become unreachable."""
        magnetic = MagneticDisk(page_size=512, capacity_pages=6)
        tree = TSBTree(page_size=512, policy=AlwaysKeySplitPolicy(), magnetic=magnetic)
        written = 0
        try:
            for key in range(10_000):
                tree.insert(key, b"some payload bytes", timestamp=key + 1)
                written += 1
        except OutOfSpaceError:
            pass
        assert written > 0
        readable = sum(1 for key in range(written) if tree.search_current(key) is not None)
        versions_per_node = 512 // 40
        assert readable >= written - versions_per_node

    def test_time_splits_relieve_magnetic_pressure(self):
        """With migration enabled the same bounded disk holds far more history."""
        bounded = MagneticDisk(page_size=512, capacity_pages=6)
        tree = TSBTree(
            page_size=512, policy=AlwaysTimeSplitPolicy("current"), magnetic=bounded
        )
        # Updates of a few keys: history migrates, so the bounded disk suffices.
        for step in range(2_000):
            tree.insert(step % 4, f"v{step}".encode(), timestamp=step + 1)
        assert tree.counters.data_time_splits > 0
        assert bounded.allocated_pages <= 6


class TestRecoveryAfterExhaustion:
    """The crash-during-parent-split scenarios, replayed with WAL engaged.

    Where the bare tree can orphan the most recently split leaf when a
    parent split dies on a full disk, the logged stack loses *nothing*
    committed: the doomed transaction never logged anything, restart
    recovery sweeps the half-finished split's pages back to the free list
    and replays the committed prefix onto the reclaimed space.
    """

    def _exhaust(self, system):
        """Single-write transactions until the bounded disk refuses a split."""
        committed = []
        try:
            for key in range(10_000):
                txn = system.begin()
                txn.write(key, b"some payload bytes")
                txn.commit()
                committed.append(key)
        except OutOfSpaceError:
            pass
        return committed

    def test_out_of_space_crash_recovers_every_committed_key(self):
        magnetic = MagneticDisk(page_size=512, capacity_pages=6)
        system = RecoverableSystem(
            page_size=512, policy=AlwaysKeySplitPolicy(), magnetic=magnetic
        )
        committed = self._exhaust(system)
        assert committed, "the workload must commit something before exhaustion"
        report = system.crash()
        # Clean recovery: every committed key is readable — not "all but one
        # node's worth" — and the tree passes every structural invariant.
        for key in committed:
            assert system.tree.search_current(key) is not None
        assert system.tree.search_current(committed[-1] + 1) is None
        assert report.winners_replayed == len(committed)
        assert_tree_valid(system.tree)

    def test_failed_split_pages_are_reclaimed_for_replay(self):
        magnetic = MagneticDisk(page_size=512, capacity_pages=6)
        system = RecoverableSystem(
            page_size=512, policy=AlwaysKeySplitPolicy(), magnetic=magnetic
        )
        committed = self._exhaust(system)
        # The doomed transaction was auto-aborted when the device filled; it
        # logged nothing, so the forced log holds the committed ones only.
        system.log.force()
        report = system.crash()
        # Replay needs the crashed run's pages back: relative to the last
        # checkpoint image everything but the superblock and the initial
        # root is unreachable and must have been swept to the free list.
        assert report.orphan_pages_reclaimed > 0
        assert magnetic.allocated_pages <= 6
        assert report.winners_replayed == len(committed)
        assert report.losers_discarded == 0
        assert len(system.tree.current_keys()) == len(committed)

    @pytest.mark.parametrize("force_abort", [False, True])
    def test_the_current_tree_walk_reclaims_every_orphan(self, force_abort):
        """The sweep walks magnetic pages only and still finds every page the
        anchored image does not link: the count an exhaustive walk finds."""
        magnetic = MagneticDisk(page_size=512, capacity_pages=6)
        system = RecoverableSystem(
            page_size=512, policy=AlwaysKeySplitPolicy(), magnetic=magnetic
        )
        self._exhaust(system)
        if force_abort:
            system.log.force()
        assert system.crash().orphan_pages_reclaimed == 4

    def test_doomed_transaction_cannot_commit_after_device_failure(self):
        magnetic = MagneticDisk(page_size=512, capacity_pages=6)
        system = RecoverableSystem(
            page_size=512, policy=AlwaysKeySplitPolicy(), magnetic=magnetic
        )
        from repro.txn.manager import TransactionError, TransactionState

        txn = system.begin()
        with pytest.raises(OutOfSpaceError):
            for key in range(10_000):
                txn.write(key, b"some payload bytes")
        assert txn.state is TransactionState.ABORTED
        with pytest.raises(TransactionError):
            txn.commit()

    def test_full_checkpoint_refuses_while_the_tree_is_suspect(self):
        """Anchoring a broken image would silently lose committed data that
        only the log still describes; the checkpoint must refuse until
        restart recovery has rebuilt from the last good image."""
        from repro.recovery import RecoveryRequiredError

        magnetic = MagneticDisk(page_size=512, capacity_pages=6)
        system = RecoverableSystem(
            page_size=512, policy=AlwaysKeySplitPolicy(), magnetic=magnetic
        )
        committed = self._exhaust(system)
        assert system.txns.requires_recovery
        with pytest.raises(RecoveryRequiredError):
            system.checkpoint()
        system.checkpoint(fuzzy=True)  # log-only checkpoints stay allowed
        system.crash()
        assert not system.txns.requires_recovery
        for key in committed:
            assert system.tree.search_current(key) is not None
        system.checkpoint()  # recovered: full checkpoints work again


class TestWormExhaustionAndViolations:
    def test_historical_device_full_surfaces_during_migration(self):
        historical = WormDisk(sector_size=512, capacity_sectors=4)
        tree = TSBTree(
            page_size=512, policy=AlwaysTimeSplitPolicy("current"), historical=historical
        )
        with pytest.raises(OutOfSpaceError):
            for step in range(5_000):
                tree.insert(step % 3, f"v{step}".encode(), timestamp=step + 1)

    def test_burned_sectors_cannot_be_rewritten(self):
        worm = WormDisk(sector_size=64)
        node = worm.allocate_node(2)
        worm.write_sector_in_node(node, b"first burn")
        worm.write_sector_in_node(node, b"second burn")
        with pytest.raises(OutOfSpaceError):
            worm.write_sector_in_node(node, b"third burn into a full extent")
        # Direct attempts to re-burn an existing sector are refused too.
        with pytest.raises(WriteOnceViolationError):
            worm._burn(node.sector_start, b"overwrite attempt")

    def test_historical_regions_are_immutable_content(self):
        worm = WormDisk(sector_size=64)
        address = worm.append_region(b"archived node image")
        before = worm.read(address)
        worm.append_region(b"another node")
        assert worm.read(address) == before


class TestCacheDiskEquivalence:
    @given(
        writes=st.lists(
            st.tuples(st.integers(0, 7), st.binary(min_size=0, max_size=60)),
            min_size=1,
            max_size=60,
        ),
        capacity=st.integers(1, 4),
    )
    @settings(max_examples=60, deadline=None)
    def test_flushwhile_reads_match_direct_disk_state(self, writes, capacity):
        """Property: after a flush, the disk holds exactly what the cache saw
        last for every page, regardless of eviction order."""
        disk = MagneticDisk(page_size=64)
        pages = [disk.allocate_page() for _ in range(8)]
        cache = PageCache(disk, capacity=capacity)
        expected = {}
        for page_index, data in writes:
            cache.write(pages[page_index], data)
            expected[page_index] = data
        cache.flush()
        for page_index, data in expected.items():
            assert disk.read(pages[page_index]) == data
            assert cache.read(pages[page_index]) == data
