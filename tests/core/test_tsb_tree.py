"""Functional tests for the TSB-tree public API."""

import pytest

from repro.core import (
    AlwaysKeySplitPolicy,
    AlwaysTimeSplitPolicy,
    ThresholdPolicy,
    TSBTree,
    assert_tree_valid,
)
from repro.core.tsb_tree import (
    ProvisionalVersionError,
    RecordTooLargeError,
    TimestampOrderError,
)
from repro.storage.magnetic import MagneticDisk
from repro.storage.optical_library import OpticalLibrary
from repro.storage.worm import WormDisk


def make_tree(policy=None, page_size=512):
    return TSBTree(page_size=page_size, policy=policy or ThresholdPolicy(0.5))


class TestBasicOperations:
    def test_empty_tree_lookups(self):
        tree = make_tree()
        assert tree.search_current("missing") is None
        assert tree.search_as_of("missing", 100) is None
        assert tree.key_history("missing") == []
        assert tree.snapshot(5) == {}
        assert tree.range_search() == []
        assert tree.height == 1

    def test_insert_and_current_lookup(self):
        tree = make_tree()
        tree.insert("alpha", b"one", timestamp=1)
        tree.insert("beta", b"two", timestamp=2)
        assert tree.search_current("alpha").value == b"one"
        assert tree.search_current("beta").value == b"two"
        assert tree.search_current("gamma") is None

    def test_update_creates_a_new_version(self):
        tree = make_tree()
        tree.insert("k", b"v1", timestamp=1)
        tree.insert("k", b"v2", timestamp=5)
        assert tree.search_current("k").value == b"v2"
        assert tree.search_as_of("k", 1).value == b"v1"
        assert tree.search_as_of("k", 4).value == b"v1"
        assert tree.search_as_of("k", 5).value == b"v2"
        assert [v.value for v in tree.key_history("k")] == [b"v1", b"v2"]
        assert tree.counters.updates == 1

    def test_auto_timestamps_are_monotonic(self):
        tree = make_tree()
        first = tree.insert("a", b"1")
        second = tree.insert("b", b"2")
        third = tree.insert("a", b"3")
        assert first < second < third
        assert tree.now == third

    def test_explicit_timestamps_must_not_regress(self):
        tree = make_tree()
        tree.insert("a", b"1", timestamp=10)
        with pytest.raises(TimestampOrderError):
            tree.insert("b", b"2", timestamp=9)
        # Equal timestamps are allowed (several records from one transaction).
        tree.insert("b", b"2", timestamp=10)

    def test_record_too_large_rejected(self):
        tree = make_tree(page_size=256)
        with pytest.raises(RecordTooLargeError):
            tree.insert("big", b"x" * 1000, timestamp=1)

    def test_int_and_string_trees(self):
        int_tree = make_tree()
        int_tree.insert(42, b"int key", timestamp=1)
        assert int_tree.search_current(42).value == b"int key"
        str_tree = make_tree()
        str_tree.insert("forty-two", b"str key", timestamp=1)
        assert str_tree.search_current("forty-two").value == b"str key"


class TestLogicalDeletion:
    def test_delete_hides_key_from_current_reads(self):
        tree = make_tree()
        tree.insert("k", b"v", timestamp=1)
        tree.delete("k", timestamp=5)
        assert tree.search_current("k") is None
        assert "k" not in tree.snapshot(6)
        assert tree.range_search() == []

    def test_history_survives_deletion(self):
        tree = make_tree()
        tree.insert("k", b"v", timestamp=1)
        tree.delete("k", timestamp=5)
        assert tree.search_as_of("k", 3).value == b"v"
        assert tree.search_as_of("k", 9) is None
        history = tree.key_history("k")
        assert len(history) == 2
        assert history[-1].is_tombstone

    def test_reinsert_after_delete(self):
        tree = make_tree()
        tree.insert("k", b"v1", timestamp=1)
        tree.delete("k", timestamp=3)
        tree.insert("k", b"v2", timestamp=7)
        assert tree.search_current("k").value == b"v2"
        assert tree.search_as_of("k", 5) is None


class TestRangeAndSnapshot:
    def test_range_search_current(self):
        tree = make_tree()
        for key in range(20):
            tree.insert(key, f"v{key}".encode(), timestamp=key + 1)
        result = tree.range_search(5, 10)
        assert [v.key for v in result] == [5, 6, 7, 8, 9]

    def test_range_search_as_of(self):
        tree = make_tree()
        for key in range(10):
            tree.insert(key, b"old", timestamp=key + 1)
        for key in range(10):
            tree.insert(key, b"new", timestamp=100 + key)
        as_of = tree.range_search(0, 10, as_of=50)
        assert all(v.value == b"old" for v in as_of)
        current = tree.range_search(0, 10)
        assert all(v.value == b"new" for v in current)

    def test_snapshot_reflects_each_moment(self):
        tree = make_tree()
        tree.insert("a", b"a1", timestamp=1)
        tree.insert("b", b"b1", timestamp=3)
        tree.insert("a", b"a2", timestamp=5)
        assert {k: v.value for k, v in tree.snapshot(2).items()} == {"a": b"a1"}
        assert {k: v.value for k, v in tree.snapshot(4).items()} == {"a": b"a1", "b": b"b1"}
        assert {k: v.value for k, v in tree.snapshot(9).items()} == {"a": b"a2", "b": b"b1"}

    def test_current_keys(self):
        tree = make_tree()
        for key in (3, 1, 2):
            tree.insert(key, b"x", timestamp=tree.now + 1)
        tree.delete(2, timestamp=tree.now + 1)
        assert tree.current_keys() == [1, 3]


class TestSplittingBehaviour:
    def test_key_splits_grow_the_tree(self):
        tree = make_tree(policy=AlwaysKeySplitPolicy(), page_size=512)
        for key in range(200):
            tree.insert(key, b"payload" * 3, timestamp=key + 1)
        assert tree.height >= 2
        assert tree.counters.data_key_splits > 0
        assert tree.counters.data_time_splits == 0
        assert tree.counters.historical_nodes_written == 0
        for key in (0, 57, 123, 199):
            assert tree.search_current(key) is not None
        assert_tree_valid(tree)

    def test_time_splits_migrate_history(self):
        tree = make_tree(policy=AlwaysTimeSplitPolicy("current"), page_size=512)
        for step in range(300):
            tree.insert(step % 5, f"v{step}".encode(), timestamp=step + 1)
        assert tree.counters.data_time_splits > 0
        assert tree.counters.historical_nodes_written > 0
        assert tree.historical.bytes_stored > 0
        # Every key's full history is still reachable.
        for key in range(5):
            history = tree.key_history(key)
            assert len(history) == 60
        assert_tree_valid(tree)

    def test_mixed_workload_produces_both_split_kinds(self):
        tree = make_tree(policy=ThresholdPolicy(0.5), page_size=512)
        for step in range(400):
            key = step % 40 if step % 2 else step
            tree.insert(key, b"some payload bytes", timestamp=step + 1)
        assert tree.counters.data_key_splits > 0
        assert tree.counters.data_time_splits > 0
        assert_tree_valid(tree)

    def test_deep_tree_grows_multiple_levels(self):
        tree = make_tree(policy=AlwaysKeySplitPolicy(), page_size=256)
        for key in range(600):
            tree.insert(key, b"abcdefgh", timestamp=key + 1)
        assert tree.height >= 3
        for key in (0, 299, 599):
            assert tree.search_current(key).value == b"abcdefgh"
        assert_tree_valid(tree)

    def test_index_key_split_resplits_oversized_halves(self):
        """Regression, found by the cross-engine differential harness.

        An index key split copies straddling (historical) entries into both
        halves and a time split keeps every live entry on the current side,
        so on a small page one split does not guarantee both halves fit; the
        oversized half must be split again, not stored (which raised
        NodeError "split bookkeeping is broken").  Heavy tombstone churn on
        a handful of keys at page_size=256 reproduced it deterministically.
        """
        import random

        rng = random.Random(5)
        tree = make_tree(page_size=256)
        for timestamp in range(1, 1_501):
            key = rng.randrange(8)
            if rng.random() < 0.4:
                tree.delete(key, timestamp=timestamp)
            else:
                tree.insert(key, bytes(rng.randrange(4)), timestamp=timestamp)
        assert_tree_valid(tree)


class TestProvisionalVersions:
    def test_provisional_invisible_until_committed(self):
        tree = make_tree()
        tree.insert_provisional("k", b"uncommitted", txn_id=1)
        assert tree.search_current("k") is None
        assert tree.search_current("k", txn_id=1).value == b"uncommitted"
        tree.commit_provisional(1, ["k"], commit_timestamp=10)
        assert tree.search_current("k").value == b"uncommitted"
        assert tree.search_as_of("k", 10).value == b"uncommitted"

    def test_abort_erases_provisional_versions(self):
        tree = make_tree()
        tree.insert("k", b"committed", timestamp=1)
        tree.insert_provisional("k", b"doomed", txn_id=2)
        tree.abort_provisional(2, ["k"])
        assert tree.search_current("k").value == b"committed"
        assert all(not v.is_provisional for node in tree.data_nodes() for v in node.versions)

    def test_rewrite_within_transaction_replaces_provisional(self):
        tree = make_tree()
        tree.insert_provisional("k", b"first draft", txn_id=3)
        tree.insert_provisional("k", b"second draft", txn_id=3)
        tree.commit_provisional(3, ["k"], commit_timestamp=4)
        assert tree.search_current("k").value == b"second draft"
        assert len(tree.key_history("k")) == 1

    def test_provisional_delete(self):
        tree = make_tree()
        tree.insert("k", b"v", timestamp=1)
        tree.delete_provisional("k", txn_id=4)
        assert tree.search_current("k").value == b"v"
        assert tree.search_current("k", txn_id=4) is None
        tree.commit_provisional(4, ["k"], commit_timestamp=9)
        assert tree.search_current("k") is None

    def test_commit_unknown_provisional_raises(self):
        tree = make_tree()
        with pytest.raises(ProvisionalVersionError):
            tree.commit_provisional(9, ["ghost"], commit_timestamp=5)

    def test_commit_timestamp_cannot_regress(self):
        tree = make_tree()
        tree.insert("a", b"x", timestamp=10)
        tree.insert_provisional("b", b"y", txn_id=1)
        with pytest.raises(TimestampOrderError):
            tree.commit_provisional(1, ["b"], commit_timestamp=5)

    def test_provisional_versions_survive_splits_without_migrating(self):
        PENDING = 1000
        tree = make_tree(policy=AlwaysTimeSplitPolicy("current"), page_size=512)
        # One key kind per tree: a page holds keys of one kind.
        tree.insert_provisional(PENDING, b"still uncommitted", txn_id=7)
        for step in range(200):
            tree.insert(step % 3, f"churn-{step}".encode(), timestamp=step + 1)
        # The provisional version is still only in the current database.
        for node in tree.data_nodes():
            for version in node.versions:
                if version.is_provisional:
                    assert node.address.is_magnetic
        assert tree.search_current(PENDING, txn_id=7).value == b"still uncommitted"
        tree.commit_provisional(7, [PENDING], commit_timestamp=tree.now + 1)
        assert tree.search_current(PENDING).value == b"still uncommitted"

    def test_a_commit_on_leaves_opened_from_images_answers_like_on_resident_ones(self):
        warm, cold = make_tree(), make_tree()
        for tree in (warm, cold):
            for step in range(60):
                tree.insert(step % 20, b"v%d" % step, timestamp=step + 1)
            for key in (3, 11, 19):
                tree.insert_provisional(key, b"draft-%d" % key, txn_id=5)
            tree.delete_provisional(7, txn_id=5)
        cold.drop_caches()  # its leaves come back image-backed
        for tree in (warm, cold):
            tree.commit_provisional(5, [3, 7, 11, 19], commit_timestamp=100)
        for key in range(20):
            assert cold.key_history(key) == warm.key_history(key)
        assert cold.snapshot(100) == warm.snapshot(100)
        assert cold.search_current(7) is None and cold.search_current(3).value == b"draft-3"
        assert_tree_valid(cold)


class TestDeviceIntegration:
    def test_custom_devices_are_used(self):
        magnetic = MagneticDisk(page_size=1024)
        historical = WormDisk(sector_size=256)
        tree = TSBTree(
            page_size=1024,
            policy=AlwaysTimeSplitPolicy("current"),
            magnetic=magnetic,
            historical=historical,
        )
        for step in range(300):
            tree.insert(step % 4, b"some payload", timestamp=step + 1)
        assert magnetic.allocated_pages > 0
        assert historical.sectors_burned > 0

    def test_jukebox_as_historical_store(self):
        tree = TSBTree(
            page_size=512,
            policy=AlwaysTimeSplitPolicy("current"),
            historical=OpticalLibrary(sector_size=512, platter_capacity_sectors=8),
        )
        for step in range(400):
            tree.insert(step % 4, b"payload", timestamp=step + 1)
        library = tree.historical
        assert library.platter_count > 1
        for key in range(4):
            assert len(tree.key_history(key)) == 100
        assert_tree_valid(tree)

    def test_small_magnetic_page_rejected(self):
        with pytest.raises(ValueError):
            TSBTree(page_size=1024, magnetic=MagneticDisk(page_size=512))

    def test_tiny_page_size_rejected(self):
        with pytest.raises(ValueError):
            TSBTree(page_size=32)

    def test_flush_writes_dirty_pages(self):
        tree = make_tree()
        tree.insert("k", b"v", timestamp=1)
        tree.flush()
        assert tree.magnetic.bytes_stored > 0


class TestIntrospection:
    def test_iter_nodes_visits_each_node_once(self):
        tree = make_tree(policy=ThresholdPolicy(0.5), page_size=512)
        for step in range(300):
            tree.insert(step % 30, b"payload payload", timestamp=step + 1)
        addresses = [(n.address.tier, n.address.page_id) for n in tree.iter_nodes()]
        assert len(addresses) == len(set(addresses))
        assert len(tree.data_nodes()) + len(tree.index_nodes()) == len(addresses)

    def test_counters_accumulate(self):
        tree = make_tree()
        tree.insert("a", b"1", timestamp=1)
        tree.insert("a", b"2", timestamp=2)
        counters = tree.counters.as_dict()
        assert counters["inserts"] == 2
        assert counters["updates"] == 1
        assert tree.counters.total_splits == 0


class TestReadCounts:
    """Counts that repeat exactly on a seeded workload: how many nodes a point
    read loads and which objects it builds.  They pin the page representation
    (a lookup answers from the page image, not from a decoded node) without a
    time floor that a busy machine could miss."""

    @staticmethod
    def cold_tree():
        import random

        rng = random.Random(16)
        tree = TSBTree(page_size=512, cache_pages=32)
        written = []
        for stamp in range(1, 3001):
            key = int(400 * rng.random() ** 2)
            tree.insert(key, b"value-%d" % stamp, timestamp=stamp)
            written.append((key, stamp))
        tree.checkpoint()
        assert tree.height >= 3
        probes = [written[rng.randrange(len(written))] for _ in range(40)]
        return tree, probes

    @staticmethod
    def node_loads(tree):
        return tree.cache.stats.accesses + tree.historical.stats.reads

    def test_a_point_read_loads_height_nodes(self):
        tree, probes = self.cold_tree()
        for key, stamp in probes:
            before = self.node_loads(tree)
            assert tree.search_current(key) is not None
            assert self.node_loads(tree) - before == tree.height
            before = self.node_loads(tree)
            assert tree.search_as_of(key, stamp).timestamp == stamp
            assert self.node_loads(tree) - before == tree.height

    def test_a_cold_point_read_costs_height_device_reads_and_a_warm_one_none(self):
        """One pool: a miss is one device read, a hit is none — there is no
        second layer to serve (or hide) either."""
        tree, probes = self.cold_tree()
        magnetic, stats = tree.magnetic.stats, tree.cache.stats
        for key, _stamp in probes:
            tree.drop_caches()
            reads, hits, misses = magnetic.reads, stats.hits, stats.misses
            assert tree.search_current(key) is not None
            assert magnetic.reads - reads == tree.height
            assert (stats.hits - hits, stats.misses - misses) == (0, tree.height)
            reads, hits, misses = magnetic.reads, stats.hits, stats.misses
            assert tree.search_current(key) is not None
            assert magnetic.reads == reads
            assert (stats.hits - hits, stats.misses - misses) == (tree.height, 0)

    def test_a_cold_as_of_read_builds_only_what_it_returns_and_follows(self, monkeypatch):
        from repro.core import nodes

        built = {"versions": [], "rectangles": 0, "entries": 0}

        def counting_version(key, *rest):
            built["versions"].append(key)
            return decoded_version(key, *rest)

        def counting_rectangle(*bounds):
            built["rectangles"] += 1
            return decoded_rectangle(*bounds)

        def counting_entry(**fields):
            built["entries"] += 1
            return index_entry(**fields)

        decoded_version, decoded_rectangle = nodes.decoded_version, nodes.decoded_rectangle
        index_entry = nodes.IndexEntry
        monkeypatch.setattr(nodes, "decoded_version", counting_version)
        monkeypatch.setattr(nodes, "decoded_rectangle", counting_rectangle)
        monkeypatch.setattr(nodes, "IndexEntry", counting_entry)
        tree, probes = self.cold_tree()
        for key, stamp in probes:
            tree.drop_caches()
            for counter in built:
                built[counter] = [] if counter == "versions" else 0
            assert tree.search_as_of(key, stamp).timestamp == stamp
            assert built["versions"] == [key]
            # One entry, with its rectangle, per index level; no node's own
            # region and no sibling entry.
            assert built["entries"] == built["rectangles"] == tree.height - 1

    def test_a_range_walk_visits_exactly_the_overlapping_nodes_once(self, monkeypatch):
        """The two multi-key walks trust the index entries: the data nodes
        they are handed are the ones whose own rectangle overlaps the query,
        each once, for one load per distinct node on the paths to them — and
        a cold walk builds no entry and no rectangle on the way."""
        import random

        from repro.core import nodes
        from repro.core.nodes import IndexNode
        from repro.core.records import KeyRange, Rectangle, TimeRange

        tree, _probes = self.cold_tree()
        counters = tree.counters
        assert counters.data_time_splits and counters.data_key_splits
        assert counters.index_key_splits + counters.index_time_splits
        built = []
        rectangle, entry = nodes.decoded_rectangle, nodes.IndexEntry
        monkeypatch.setattr(nodes, "decoded_rectangle", lambda *a: built.append(a) or rectangle(*a))
        monkeypatch.setattr(nodes, "IndexEntry", lambda **f: built.append(f) or entry(**f))

        def on_the_paths(query):
            """The old walk, entry by entry: every node it loads."""
            reached, stack = set(), [tree.root_address]
            while stack:
                address = stack.pop()
                if address not in reached:
                    reached.add(address)
                    node = tree._load_node(address)
                    if isinstance(node, IndexNode):
                        stack.extend(e.child for e in node.entries if e.region.overlaps(query))
            return reached

        rng = random.Random(23)
        for _ in range(25):
            low = rng.choice([None, rng.randrange(400)])
            high = rng.choice([None, (low or 0) + 1 + rng.randrange(120)])
            start = rng.randrange(3000)
            end = rng.choice([start + 1, start + 1 + rng.randrange(1500), None])
            query = Rectangle(KeyRange(low, high), TimeRange(start, end))
            expected = {n.address for n in tree.data_nodes() if n.region.overlaps(query)}
            paths = on_the_paths(query)
            tree.drop_caches()  # every node comes back image-backed
            del built[:]
            before = self.node_loads(tree)
            visited = [node.address for node in tree._iter_data_nodes(query)]
            assert self.node_loads(tree) - before == len(paths)
            assert built == []
            assert len(visited) == len(set(visited)) and set(visited) == expected
