"""The column-packed page codec and the image-backed nodes it opens.

Three groups of checks:

* codec properties over generated data and index pages (int and str keys,
  tombstones, provisional versions, versions carrying a stamp *and* a txn
  id): round trips both ways, the size budget the split tests rely on, and
  truncation at every byte;
* differential: every lookup on an image-backed node answers like the same
  call on its materialised twin — corrupt tilings included — and a mutated
  image-backed node can never hand back its stale image;
* concurrency: readers under the shared latch over image-backed nodes agree
  with the oracle while a checker materialises those nodes under them.
"""

import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import TSBTree, check_tree
from repro.core.nodes import DataNode, IndexEntry, IndexNode, NodeError, decode_node
from repro.core.records import KeyRange, Rectangle, TimeRange, Version, latest_committed
from repro.storage.device import Address
from repro.storage.latches import ReadWriteLatch
from repro.storage.serialization import SerializationError
from tests.strategies import addresses

INT_KEYS = st.integers(min_value=-(2**62), max_value=2**62)
STR_KEYS = st.text(min_size=0, max_size=12)
STAMPS = st.integers(min_value=0, max_value=2**62)
TXN_IDS = st.integers(min_value=0, max_value=2**40)
VALUES = st.binary(min_size=0, max_size=60)


def versions_over(pool):
    """Versions whose keys come from ``pool``: committed (with or without a
    lingering txn id), provisional, tombstoned — duplicates welcome."""
    key = st.sampled_from(pool)
    committed = st.builds(
        Version,
        key=key,
        timestamp=st.one_of(st.integers(0, 6), STAMPS),  # small stamps collide
        value=VALUES,
        txn_id=st.one_of(st.none(), TXN_IDS),
        is_tombstone=st.booleans(),
    )
    provisional = st.builds(
        Version,
        key=key,
        timestamp=st.none(),
        value=VALUES,
        txn_id=TXN_IDS,
        is_tombstone=st.booleans(),
    )
    return st.lists(st.one_of(committed, provisional), max_size=24)


@st.composite
def key_ranges(draw, pool):
    low = draw(st.one_of(st.none(), st.sampled_from(pool)))
    high = draw(st.one_of(st.none(), st.sampled_from(pool)))
    if low is not None and high is not None:
        if low == high:
            high = None
        elif high < low:
            low, high = high, low
    return KeyRange(low, high)


@st.composite
def time_ranges(draw):
    start = draw(st.integers(0, 50))
    end = draw(st.one_of(st.none(), st.integers(start + 1, start + 50)))
    return TimeRange(start, end)


@st.composite
def key_pools(draw):
    keys = INT_KEYS if draw(st.booleans()) else STR_KEYS
    return sorted(draw(st.lists(keys, min_size=1, max_size=6, unique=True)))


@st.composite
def data_nodes(draw):
    pool = draw(key_pools())
    return DataNode(
        address=Address.magnetic(draw(st.integers(0, 99))),
        region=Rectangle(draw(key_ranges(pool)), draw(time_ranges())),
        versions=draw(versions_over(pool)),
    )


@st.composite
def index_nodes(draw, tiled_region=False):
    """Index nodes over arbitrary (overlapping, gapped) entry rectangles.

    ``tiled_region`` keeps the node's own key bounds among its entries'
    bounds, as the children of a real node do; the size budget holds there.
    """
    pool = draw(key_pools())
    entries = draw(
        st.lists(
            st.builds(
                IndexEntry,
                child=addresses,
                region=st.builds(Rectangle, key_ranges(pool), time_ranges()),
            ),
            max_size=16,
        )
    )
    if tiled_region:
        bounds = [b for e in entries for b in (e.region.keys.low, e.region.keys.high)]
        bounds = sorted({b for b in bounds if b is not None}) or [None]
        low = draw(st.sampled_from([None] + bounds))
        high = draw(st.sampled_from([None] + bounds))
        if low is not None and high is not None and not low < high:
            high = None
        keys = KeyRange(low, high)
    else:
        keys = draw(key_ranges(pool))
    return IndexNode(
        address=Address.magnetic(draw(st.integers(0, 99))),
        region=Rectangle(keys, draw(time_ranges())),
        entries=entries,
        level=draw(st.integers(1, 9)),
    )


def is_image_backed(node) -> bool:
    return type(node) not in (DataNode, IndexNode)


def outcome(call):
    """What ``call`` returns, or the error it raises, as a comparable value."""
    try:
        return ("ok", call())
    except NodeError as error:
        return ("NodeError", str(error))


def assert_data_lookups_agree(opened, node, data):
    """Every point and range lookup of ``opened`` answers like ``node``'s."""
    pool = sorted({version.key for version in node.versions})
    absent = data.draw(INT_KEYS if not pool or isinstance(pool[0], int) else STR_KEYS)
    stamps = sorted({v.timestamp for v in node.versions if v.timestamp is not None})
    probes = [0, 3, 2**63] + stamps + [stamp + 1 for stamp in stamps]
    txn_ids = {v.txn_id for v in node.versions if v.txn_id is not None} | {0, 7}
    assert sorted(opened.keys()) == sorted(node.keys())
    for key in pool + [absent]:
        assert opened.versions_for_key(key) == node.versions_for_key(key)
        assert opened.latest_for_key(key) == node.latest_for_key(key)
        for stamp in probes:
            assert opened.version_as_of(key, stamp) == node.version_as_of(key, stamp)
        for txn_id in txn_ids:
            assert opened.provisional_for_key(key, txn_id) == node.provisional_for_key(
                key, txn_id
            )
    # The two range lookups, against the per-key answers they replaced.
    bounds = sorted(set(pool) | {absent})
    ranges = [KeyRange(None, None)] + [data.draw(key_ranges(bounds)) for _ in range(4)]
    ranges += [KeyRange(low, high) for low, high in zip(bounds, bounds[1:])]  # one key or none
    for keys in ranges:
        low, high = keys.low, keys.high
        within = [key for key in pool if keys.contains(key)]
        committed = [
            version
            for key in within
            for version in node.versions_for_key(key)
            if version.timestamp is not None
        ]
        assert opened.committed_versions(low, high) == committed
        assert node.committed_versions(low, high) == committed
        for stamp in probes:
            valid = [node.version_as_of(key, stamp) for key in within]
            valid = [version for version in valid if version is not None]
            assert opened.versions_as_of(low, high, stamp) == valid
            assert node.versions_as_of(low, high, stamp) == valid
            # Tombstones kept: the newest committed version at or before the stamp.
            newest = [
                latest_committed(v for v in committed if v.key == key and v.timestamp <= stamp)
                for key in within
            ]
            newest = [version for version in newest if version is not None]
            assert opened.versions_as_of(low, high, stamp, tombstones=True) == newest
            assert node.versions_as_of(low, high, stamp, tombstones=True) == newest
        latest = [node.latest_for_key(key) for key in within]  # what keys() asks, at now
        assert opened.versions_as_of(low, high, 2**63, tombstones=True) == [
            version for version in latest if version is not None
        ]
    assert opened.region == node.region


# ----------------------------------------------------------------------
# Codec properties
# ----------------------------------------------------------------------
class TestCodecProperties:
    @settings(max_examples=150, deadline=None)
    @given(node=data_nodes())
    def test_data_page_round_trips_both_ways(self, node):
        image = node.encode()
        assert len(image) <= node.serialized_size()  # what keeps split decisions codec-free
        opened = DataNode.decode(node.address, image)
        assert is_image_backed(opened)
        assert opened.encode() is image  # untouched: the image itself
        assert opened == node and node == DataNode.decode(node.address, image)
        assert opened.versions == node.versions  # list order survives
        assert opened.region == node.region
        assert opened.encode() == image  # re-encoded from the lists
        assert opened.serialized_size() == node.serialized_size()

    @settings(max_examples=150, deadline=None)
    @given(node=index_nodes())
    def test_index_page_round_trips_both_ways(self, node):
        image = node.encode()
        opened = IndexNode.decode(node.address, image)
        assert is_image_backed(opened)
        assert opened.encode() is image
        assert opened.level == node.level
        assert opened == node and node == IndexNode.decode(node.address, image)
        assert opened.entries == node.entries
        assert opened.encode() == image
        assert opened.serialized_size() == node.serialized_size()

    @settings(max_examples=150, deadline=None)
    @given(node=index_nodes(tiled_region=True))
    def test_index_image_never_exceeds_the_size_budget(self, node):
        assert len(node.encode()) <= node.serialized_size()

    @settings(max_examples=40, deadline=None)
    @given(node=st.one_of(data_nodes(), index_nodes()))
    def test_an_image_truncated_at_any_byte_is_rejected(self, node):
        image = node.encode()
        decode = type(node).decode
        for cut in range(len(image)):
            with pytest.raises(SerializationError):
                decode(node.address, image[:cut])
            with pytest.raises(SerializationError):
                decode_node(node.address, image[:cut])
        with pytest.raises(SerializationError):
            decode(node.address, image + b"\x00")

    def test_mixed_key_kinds_are_refused(self):
        node = DataNode(
            Address.magnetic(1),
            Rectangle.full(),
            [Version(key=1, timestamp=1), Version(key="1", timestamp=1)],
        )
        with pytest.raises(SerializationError):
            node.encode()
        with pytest.raises(SerializationError):
            DataNode(Address.magnetic(1), Rectangle.full(), [Version(key=True, timestamp=1)]).encode()


# ----------------------------------------------------------------------
# Differential: image-backed node vs materialised twin
# ----------------------------------------------------------------------
class TestImageBackedAnswersLikeMaterialised:
    @settings(max_examples=150, deadline=None)
    @given(node=data_nodes(), data=st.data())
    def test_data_node_lookups(self, node, data):
        opened = DataNode.decode(node.address, node.encode())
        assert_data_lookups_agree(opened, node, data)
        assert is_image_backed(opened)  # none of the lookups built the list

    @given(node=data_nodes())
    def test_data_node_columns_and_size(self, node):
        """What the checker reads: the slot columns and the content size."""
        opened = DataNode.decode(node.address, node.encode())
        assert opened.columns() == node.columns()
        assert opened.serialized_size() == node.serialized_size()
        assert is_image_backed(opened)

    @settings(max_examples=150, deadline=None)
    @given(node=data_nodes(), data=st.data())
    def test_data_node_lookups_after_an_interactive_commit(self, node, data):
        """``stamp_provisional`` on a node opened from its image and on its
        materialised twin: they stamp the same slot, encode the same page and
        answer alike — and a re-opened image answers like both."""
        provisional = [v for v in node.versions if v.timestamp is None]
        opened = DataNode.decode(node.address, node.encode())
        if provisional:
            chosen = data.draw(st.sampled_from(provisional))
            key, txn_id = chosen.key, chosen.txn_id
        else:
            key, txn_id = data.draw(st.sampled_from(node.keys() or [0])), 7
        # Commit order: the stamp is newer than every committed version of the key.
        newest = max((v.timestamp for v in node.versions_for_key(key) if v.is_committed), default=-1)
        stamp = newest + data.draw(st.one_of(st.integers(1, 8), STAMPS.map(lambda s: s + 1)))
        stamped = node.stamp_provisional(key, txn_id, stamp)
        assert opened.stamp_provisional(key, txn_id, stamp) is stamped
        assert stamped is bool(provisional)
        assert opened.versions == node.versions and opened.encode() == node.encode()
        assert_data_lookups_agree(opened, node, data)
        assert_data_lookups_agree(DataNode.decode(node.address, node.encode()), node, data)
        assert opened.serialized_size() == node.serialized_size()

    def test_a_commit_stamps_each_provisional_slot_once(self):
        node = DataNode(
            Address.magnetic(3),
            Rectangle(KeyRange(0, 100), TimeRange(2, None)),
            [
                Version(key=5, timestamp=3, value=b"a"),
                Version(key=5, timestamp=None, value=b"p", txn_id=9),
                Version(key=6, timestamp=None, value=b"", txn_id=9, is_tombstone=True),
            ],
        )
        opened = DataNode.decode(node.address, node.encode())
        for twin in (node, opened):
            assert twin.stamp_provisional(5, 9, 4) and twin.stamp_provisional(6, 9, 4)
            assert not twin.stamp_provisional(5, 9, 4)  # nothing provisional left
            assert twin.latest_for_key(5) == Version(key=5, timestamp=4, value=b"p")
            assert twin.version_as_of(6, 4) is None and twin.latest_for_key(6).is_tombstone
            assert twin.versions_as_of(None, None, 3) == [Version(key=5, timestamp=3, value=b"a")]


    @settings(max_examples=200, deadline=None)
    @given(node=index_nodes(), data=st.data())
    def test_index_node_searches_over_arbitrary_rectangles(self, node, data):
        """Overlapping and gapped layouts: "regions overlap" and "no child
        covers" must come out of both forms in the same words."""
        opened = IndexNode.decode(node.address, node.encode())
        regions = [entry.region for entry in node.entries]
        bounds = {b for r in regions + [node.region] for b in (r.keys.low, r.keys.high)}
        bounds.discard(None)
        kind = INT_KEYS if not bounds or isinstance(min(bounds), int) else STR_KEYS
        keys = sorted(bounds) + [data.draw(kind), data.draw(kind)]
        for key in keys:
            for stamp in (0, 1, 25, 49, 50, 99, 2**64 - 1, 2**70):
                assert outcome(lambda: opened.find_child(key, stamp)) == outcome(
                    lambda: node.find_child(key, stamp)
                )
        for _ in range(6):
            region = Rectangle(
                data.draw(key_ranges(keys)),
                TimeRange(*sorted(data.draw(st.tuples(st.integers(0, 99), st.integers(100, 199))))),
            )
            assert opened.children_overlapping(region) == node.children_overlapping(region)
        everything = Rectangle(KeyRange.full(), TimeRange(0, None))
        assert opened.children_overlapping(everything) == node.children_overlapping(everything)
        assert opened.region == node.region
        assert is_image_backed(opened)

    @settings(max_examples=200, deadline=None)
    @given(
        key_cuts=st.lists(st.integers(1, 999), max_size=6, unique=True),
        time_cuts=st.lists(st.integers(1, 99), max_size=3, unique=True),
        doubled=st.lists(st.integers(0, 40), max_size=2),
        dropped=st.lists(st.integers(0, 40), max_size=2),
        seed=st.integers(0, 2**16),
    )
    def test_current_child_search_over_tilings_with_gaps_and_double_coverage(
        self, key_cuts, time_cuts, doubled, dropped, seed
    ):
        """Key stripes of time-split cells, as splits produce them, with some
        entries duplicated or missing and the list order shuffled."""
        cells = []
        lows = [None] + sorted(key_cuts)
        for low, high in zip(lows, lows[1:] + [None]):
            starts = [0] + sorted(time_cuts)
            for start, end in zip(starts, starts[1:] + [None]):
                child = Address.magnetic(len(cells)) if end is None else Address.historical(len(cells), 8, 64)
                cells.append(IndexEntry(child, Rectangle(KeyRange(low, high), TimeRange(start, end))))
        entries = [cell for at, cell in enumerate(cells) if at not in dropped]
        entries += [cells[at] for at in doubled if at < len(cells)]
        random.Random(seed).shuffle(entries)
        node = IndexNode(Address.magnetic(77), Rectangle.full(), entries, level=2)
        opened = IndexNode.decode(node.address, node.encode())
        for key in [-5, 0, 1000] + [cut + step for cut in key_cuts for step in (-1, 0, 1)]:
            assert outcome(lambda: opened.find_current_child(key)) == outcome(
                lambda: node.find_current_child(key)
            )
            for stamp in [0, 100] + time_cuts:
                assert outcome(lambda: opened.find_child(key, stamp)) == outcome(
                    lambda: node.find_child(key, stamp)
                )
        assert is_image_backed(opened)

    def test_overlapping_and_uncovered_points_fail_with_the_same_words(self):
        cell = Rectangle(KeyRange(10, 20), TimeRange(0, None))
        node = IndexNode(
            Address.magnetic(4),
            Rectangle.full(),
            [IndexEntry(Address.magnetic(1), cell), IndexEntry(Address.magnetic(2), cell)],
        )
        opened = IndexNode.decode(node.address, node.encode())
        with pytest.raises(NodeError, match="regions overlap"):
            opened.find_child(15, 3)
        with pytest.raises(NodeError, match="no child covers"):
            opened.find_child(25, 3)
        with pytest.raises(NodeError, match="exactly one current child .* found 2"):
            opened.find_current_child(15)
        with pytest.raises(NodeError, match="exactly one current child .* found 0"):
            opened.find_current_child(5)

    def test_a_followed_entry_is_built_once(self):
        node = IndexNode(
            Address.magnetic(4),
            Rectangle.full(),
            [IndexEntry(Address.magnetic(1), Rectangle(KeyRange(None, None), TimeRange(0, None)))],
        )
        opened = IndexNode.decode(node.address, node.encode())
        entry = opened.find_current_child(3)
        assert opened.find_child(3, 9) is entry
        assert opened.entries[0] is entry  # and kept when the list is built


class TestMutationGivesUpTheImage:
    def opened_data_node(self):
        node = DataNode(
            Address.magnetic(3),
            Rectangle(KeyRange(0, 100), TimeRange(2, None)),
            [Version(key=5, timestamp=3, value=b"a"), Version(key=5, timestamp=None, value=b"p", txn_id=9)],
        )
        image = node.encode()
        return DataNode.decode(node.address, image), image

    def opened_index_node(self):
        node = IndexNode(
            Address.magnetic(4),
            Rectangle.full(),
            [
                IndexEntry(Address.historical(7, 70, 64), Rectangle(KeyRange(None, None), TimeRange(0, 5))),
                IndexEntry(Address.magnetic(1), Rectangle(KeyRange(None, None), TimeRange(5, None))),
            ],
            level=2,
        )
        image = node.encode()
        return IndexNode.decode(node.address, image), image

    def assert_encodes_what_it_holds(self, node, image):
        assert type(node) in (DataNode, IndexNode)
        fresh = node.encode()
        assert fresh != image
        assert decode_node(node.address, fresh) == node

    def test_add_version(self):
        node, image = self.opened_data_node()
        node.add_version(Version(key=6, timestamp=4, value=b"b"))
        self.assert_encodes_what_it_holds(node, image)
        assert node.latest_for_key(6).value == b"b"

    def test_remove_version_found_by_equality(self):
        node, image = self.opened_data_node()
        node.remove_version(node.provisional_for_key(5, 9))  # built from the image
        self.assert_encodes_what_it_holds(node, image)
        assert node.provisional_for_key(5, 9) is None

    def test_region_and_list_reassignment(self):
        node, image = self.opened_data_node()
        node.region = Rectangle(KeyRange(0, 50), TimeRange(2, None))
        self.assert_encodes_what_it_holds(node, image)
        node, image = self.opened_data_node()
        node.versions = []
        self.assert_encodes_what_it_holds(node, image)

    def test_editing_the_list_it_handed_out(self):
        node, image = self.opened_data_node()
        node.versions.append(Version(key=7, timestamp=8, value=b"c"))
        self.assert_encodes_what_it_holds(node, image)
        assert node.version_as_of(7, 8).value == b"c"

    def test_index_mutations(self):
        extra = IndexEntry(Address.magnetic(2), Rectangle(KeyRange(50, None), TimeRange(5, None)))
        node, image = self.opened_index_node()
        old = node.find_current_child(1)
        narrowed = IndexEntry(old.child, Rectangle(KeyRange(None, 50), TimeRange(5, None)))
        node.replace_entry(old, [narrowed, extra])
        self.assert_encodes_what_it_holds(node, image)
        assert node.find_current_child(60) is extra

        node, image = self.opened_index_node()
        node.add_entry(extra)
        self.assert_encodes_what_it_holds(node, image)

        node, image = self.opened_index_node()
        node.entries = node.entries[:1]
        self.assert_encodes_what_it_holds(node, image)

        node, image = self.opened_index_node()
        node.region = Rectangle(KeyRange(None, None), TimeRange(1, None))
        self.assert_encodes_what_it_holds(node, image)

        node, image = self.opened_index_node()
        node.entries.append(extra)
        self.assert_encodes_what_it_holds(node, image)


# ----------------------------------------------------------------------
# Concurrency: shared-latch readers over image-backed nodes
# ----------------------------------------------------------------------
def test_readers_under_the_shared_latch_agree_with_the_oracle_while_nodes_materialise():
    """Lazy opening and in-place materialisation must be idempotent and
    race-benign: six readers and two checkers share one latch in read mode
    over a tree whose cache holds a fraction of its pages.  A checker reads
    data nodes from their columns and materialises only index nodes, so each
    round also asks every data node for its version list, turning it into its
    materialised form under the readers."""
    rng = random.Random(7)
    tree = TSBTree(page_size=512, cache_pages=24)
    history = {}
    for stamp in range(1, 1501):
        key = int(300 * rng.random() ** 2)
        value = b"v%d" % stamp
        tree.insert(key, value, timestamp=stamp)
        history.setdefault(key, []).append((stamp, value))
    tree.checkpoint()
    tree.drop_caches()  # every node comes back image-backed

    def as_of(key, stamp):
        valid = [value for at, value in history.get(key, []) if at <= stamp]
        return valid[-1] if valid else None

    latch = ReadWriteLatch()
    failures = []
    done = threading.Event()

    def reader(seed):
        draw = random.Random(seed)
        try:
            for _ in range(400):
                key = int(300 * draw.random() ** 2)
                stamp = draw.randrange(1, 1501)
                with latch.read():
                    got = tree.search_as_of(key, stamp)
                    assert (got.value if got else None) == as_of(key, stamp)
                    got = tree.search_current(key)
                    assert (got.value if got else None) == as_of(key, 1500)
                    if draw.random() < 0.1:
                        low = draw.randrange(0, 280)
                        rows = tree.range_search(low, low + 20, as_of=stamp)
                        expected = [
                            (k, as_of(k, stamp)) for k in range(low, low + 20) if as_of(k, stamp)
                        ]
                        assert [(row.key, row.value) for row in rows] == expected
                        written = [k for k in range(low, low + 20) if k in history]
                        assert tree.keys(low, low + 20) == written
                    if draw.random() < 0.1:
                        rows = tree.key_history(key)
                        assert [(r.timestamp, r.value) for r in rows] == history.get(key, [])
        except BaseException as error:  # noqa: BLE001 - reported by the main thread
            failures.append(error)

    def checker():
        try:
            while not done.is_set():
                with latch.read():
                    assert check_tree(tree) == []
                    for node in tree.data_nodes():
                        assert node.versions is not None
        except BaseException as error:  # noqa: BLE001
            failures.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        readers = [threading.Thread(target=reader, args=(seed,)) for seed in range(6)]
        checkers = [threading.Thread(target=checker) for _ in range(2)]
        for thread in readers + checkers:
            thread.start()
        for thread in readers:
            thread.join(timeout=120)
        done.set()
        for thread in checkers:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in readers + checkers)
    assert failures == []
