"""A data node's commit stamping and size budget, held to references.

* ``DataNode.stamp_provisional`` commits a provisional slot where it lies.
  ``reference_stamp`` below is the stamping it replaced — take the slot out
  of every column and put its committed twin back where slot order puts it —
  and on random nodes (committed, provisional and tombstone slots, equal
  stamps, several provisional slots of one key) both give the same page
  bytes, the same slot and list order, the same versions per key and the
  same size.
* ``DataNode.serialized_size`` sizes the region's key bounds once per
  region; after any sequence of inserts, removals, carves (what a split
  builds its halves with), region assignments and reopens it equals a
  fresh computation.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import TSBTree
from repro.core.nodes import _NODE_HEADER_SIZE, _PROVISIONAL, DataNode
from repro.core.records import KeyRange, Rectangle, TimeRange, Version
from repro.storage.device import Address
from repro.storage.serialization import key_size

_ADDRESS = Address.magnetic(7)


def reference_stamp(node: DataNode, key, txn_id: int, stamp: int) -> bool:
    """Take-and-put stamping: the provisional slot leaves every column and
    its committed twin is put back in the provisional version's list
    position, wherever slot order then puts it."""
    _first, committed, end = node._run_of(key)
    slot = next((at for at in range(committed, end) if node._words[at] == txn_id), None)
    if slot is None:
        return False
    twin = node._version(slot).committed(stamp)
    node._own()
    node._put(twin, node._take(slot))
    return True


def key_pool(as_str: bool):
    return [f"k{'x' * key}" if as_str else key for key in range(4)]


@st.composite
def stamped_nodes(draw):
    """Two equal nodes (built from one version list, or opened from its
    image) and a stamping to apply to both: a provisional slot's key and txn
    id (or, now and then, a pair with no provisional slot) and a stamp below,
    equal to or above the newest committed stamp of the key."""
    pool = key_pool(draw(st.booleans()))
    committed = st.builds(
        lambda key, stamp, value, gone: Version(key, stamp, b"" if gone else value, is_tombstone=gone),
        st.sampled_from(pool), st.integers(0, 6), st.binary(max_size=8), st.booleans(),
    )  # fmt: skip
    provisional = st.builds(
        lambda key, txn, value, gone: Version(
            key, None, b"" if gone else value, txn_id=txn, is_tombstone=gone
        ),
        st.sampled_from(pool), st.integers(1, 3), st.binary(max_size=8), st.booleans(),
    )  # fmt: skip
    listed = draw(st.lists(committed | provisional, min_size=1, max_size=12))
    opened = draw(st.booleans())

    def build():
        node = DataNode(_ADDRESS, Rectangle.full(), listed)
        return DataNode.decode(_ADDRESS, node.encode()) if opened else node

    pending = [(v.key, v.txn_id) for v in listed if v.timestamp is None]
    if pending and draw(st.integers(0, 4)):
        key, txn_id = draw(st.sampled_from(pending))
    else:
        key, txn_id = draw(st.sampled_from(pool)), draw(st.integers(1, 3))
    newest = max((v.timestamp for v in listed if v.key == key and v.timestamp is not None), default=0)
    stamp = max(0, newest + draw(st.integers(-1, 2)))
    return build, key, txn_id, stamp


class TestStampInPlaceAgainstTakeAndPut:
    @settings(max_examples=300, deadline=None)
    @given(case=stamped_nodes())
    def test_same_bytes_order_and_versions(self, case):
        build, key, txn_id, stamp = case
        mine, reference = build(), build()
        size = mine.serialized_size()
        assert mine.stamp_provisional(key, txn_id, stamp) is reference_stamp(
            reference, key, txn_id, stamp
        )
        assert mine.encode() == reference.encode()
        assert mine.slot_order() == reference.slot_order()
        assert mine.columns() == reference.columns()
        assert mine.serialized_size() == reference.serialized_size() == size
        for each in set(mine.keys()):
            assert mine.versions_for_key(each) == reference.versions_for_key(each)
            assert mine.latest_for_key(each) == reference.latest_for_key(each)
        assert mine.versions == reference.versions

    def test_the_committed_twin_is_memoized_at_stamp_time(self):
        node = DataNode(
            _ADDRESS,
            Rectangle.full(),
            [Version(5, 3, b"old"), Version(5, None, b"new", txn_id=9)],
        )
        node = DataNode.decode(_ADDRESS, node.encode())
        assert node.stamp_provisional(5, 9, 4)
        slot = node.columns()[1].index(4)
        twin = node._made[slot]
        assert twin == Version(5, 4, b"new")
        assert node.latest_for_key(5) is twin  # no rebuild on the next read

    def test_a_fresh_stamp_keeps_the_slot_and_splices_nothing(self):
        node = DataNode(
            _ADDRESS,
            Rectangle.full(),
            [Version(5, 3, b"a"), Version(5, None, b"p", txn_id=9), Version(6, 1, b"b")],
        )
        keys, words, flags = node._keys, node._words, node._flags
        before = node.columns()
        assert node.stamp_provisional(5, 9, 4)
        # The same column objects, one word and one flag patched.
        assert node._keys is keys and node._words is words and node._flags is flags
        assert node.columns()[1] == (3, 4, 1) and before[1] == (3, 9, 1)
        assert not node.columns()[2][1] & _PROVISIONAL

    def test_an_equal_stamp_listed_later_moves_the_twin(self):
        """An explicit stamp equal to a committed one of the key, on a version
        listed before it: slot order puts the twin ahead of that slot."""
        committed_later = Version(5, 4, b"later")
        node = DataNode(
            _ADDRESS, Rectangle.full(), [Version(5, None, b"p", txn_id=9), committed_later]
        )
        reference = DataNode(_ADDRESS, Rectangle.full(), node.versions)
        assert node.stamp_provisional(5, 9, 4) and reference_stamp(reference, 5, 9, 4)
        assert node.encode() == reference.encode()
        # Equal stamps: the first in list order wins.
        assert node.latest_for_key(5) == Version(5, 4, b"p")
        assert node.columns()[1] == (4, 4)


# ----------------------------------------------------------------------
# The size budget's memoized bounds
# ----------------------------------------------------------------------
def fresh_size(node: DataNode) -> int:
    low, high = node.region.keys.low, node.region.keys.high
    bounds = (0 if low is None else key_size(low)) + (0 if high is None else key_size(high))
    return _NODE_HEADER_SIZE + 19 + bounds + sum(v.serialized_size() for v in node.versions)


@st.composite
def size_edit_scripts(draw):
    pool = key_pool(True) + ["", "a" * 30]
    bound = st.none() | st.sampled_from(pool)
    regions = st.builds(
        lambda bounds, start: Rectangle(KeyRange(*bounds), TimeRange(start, None)),
        st.tuples(bound, bound).filter(lambda b: None in b or b[0] < b[1]),
        st.integers(0, 5),
    )
    versions = st.builds(
        lambda key, stamp, value, txn: Version(key, stamp, value, txn_id=txn),
        st.sampled_from(pool), st.none() | st.integers(0, 9), st.binary(max_size=12),
        st.integers(1, 3),
    )  # fmt: skip
    edits = st.one_of(
        st.tuples(st.just("add"), versions),
        st.tuples(st.just("remove"), st.integers(0, 50)),
        st.tuples(st.just("carve"), st.lists(st.integers(0, 50), max_size=8), regions),
        st.tuples(st.just("region"), regions),
        st.tuples(st.just("reopen")),
    )
    return draw(regions), draw(st.lists(versions, max_size=6)), draw(st.lists(edits, max_size=15))


class TestDataNodeSizeAgainstFreshComputation:
    @settings(max_examples=200, deadline=None)
    @given(script=size_edit_scripts())
    def test_memoized_bounds_match_a_fresh_computation(self, script):
        region, listed, edits = script
        node = DataNode(_ADDRESS, Rectangle.full(), listed)
        node.region = region
        assert node.serialized_size() == fresh_size(node)
        for edit in edits:
            count = len(node.versions)
            if edit[0] == "add" and node.region.keys.contains(edit[1].key):
                node.add_version(edit[1])
            elif edit[0] == "add":
                node.versions = [*node.versions, edit[1]]  # no key-range check
            elif edit[0] == "remove" and count:
                node.remove_version(node.versions[edit[1] % count])
            elif edit[0] == "carve":
                slots = list(dict.fromkeys(slot % count for slot in edit[1])) if count else []
                node = node.carve(slots, edit[2])
            elif edit[0] == "region":
                node.region = edit[1]
            elif edit[0] == "reopen":
                node = DataNode.decode(_ADDRESS, node.encode())
            assert node.serialized_size() == fresh_size(node), edit[0]

    def test_a_tree_of_str_keys_keeps_every_leaf_budget_fresh(self):
        tree = TSBTree(page_size=256, cache_pages=64)
        for step in range(400):
            tree.insert(f"key-{'y' * (step % 13)}{step % 37}", b"v%d" % step)
        leaves = tree.data_nodes()
        assert len(leaves) > 4
        for leaf in leaves:
            assert leaf.serialized_size() == fresh_size(leaf)
