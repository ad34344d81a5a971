"""The historical nodes a TSB-tree keeps (``TSBTree._load_node``).

A historical node is opened from the write-once device once and then kept,
keyed by its address identity.  The ways that could go wrong, each pinned
here:

* two addresses sharing a region id — the same id on two platters of an
  ``OpticalLibrary``, or a child id corrupted to another sector range — must
  get their own nodes, each at its own address;
* a kept node must stay exactly the device's bytes, and must refuse every
  mutation, for trees of every policy with transactions left open and a
  reopen from the devices;
* a warm tree must answer every as-of lookup, range scan and key history as
  the same tree does after ``drop_caches()``.  ``TestWarmAnswersColdFull``
  runs that at the nightly Hypothesis budget, ``TestWarmAnswersColdSmoke``
  is a small fixed-seed run of it in tier-1.
"""

import random
import sys
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import check_tree
from repro.core.nodes import _HISTORICAL_CHILD, _INDEX_HEADER, DataNode, IndexNode, NodeError, _keys_at
from repro.core.policy import AlwaysTimeSplitPolicy
from repro.core.records import Rectangle, Version
from repro.core.tsb_tree import TSBTree
from repro.storage.device import Address
from repro.storage.optical_library import OpticalLibrary
from tests.core.test_checker_columns import assert_checkers_agree
from tests.core.test_split_columns import POLICIES, POLICY_IDS, build_tree


def read_every_stamp(tree):
    """Snapshots at every stamp and every key's history: every reachable
    historical node is visited (each has a stamp in its time range)."""
    for stamp in range(tree.now + 1):
        tree.snapshot(stamp)
    for key in tree.keys():
        tree.key_history(key)


def historical_identities(tree):
    return {node.address.identity for node in tree.iter_nodes() if node.address.is_historical}


def assert_kept_nodes_are_the_devices_bytes(tree):
    kept = tree._kept
    assert kept and tree.kept_stats.opens == len(kept)
    for identity, node in kept.items():
        assert node.address.identity == identity
        assert node.encode() == tree.historical.read(node.address)


def assert_refuses_mutation(node):
    if isinstance(node, DataNode):
        version = node.versions[0]
        edits = [
            lambda: node.add_version(Version(key=version.key, timestamp=10**9, value=b"x")),
            lambda: node.remove_version(version),
        ]
    else:
        edits = [lambda: node.replace(0, [])]
    edits.append(lambda: setattr(node, "region", Rectangle.full()))
    image = node.encode()
    for edit in edits:
        with pytest.raises(NodeError, match="write-once"):
            edit()
    assert node.encode() is image


class TestSharedRegionIds:
    def test_the_same_region_id_on_two_platters_gives_two_nodes(self):
        library = OpticalLibrary(sector_size=512, platter_capacity_sectors=24)
        tree = TSBTree(page_size=512, historical=library, cache_pages=8,
                       policy=AlwaysTimeSplitPolicy("current"))  # fmt: skip
        rng = random.Random(3)
        for stamp in range(1, 1501):
            tree.insert(rng.randrange(60), b"v%d" % stamp, timestamp=stamp)
        assert library.platter_count >= 2
        read_every_stamp(tree)
        assert set(tree._kept) == historical_identities(tree)
        by_region = {}
        for node in tree._kept.values():
            by_region.setdefault(node.address.page_id, set()).add(node.address.platter)
        assert any(len(platters) > 1 for platters in by_region.values())
        assert_kept_nodes_are_the_devices_bytes(tree)

    def test_a_corrupted_child_id_gets_its_own_node(self):
        """A current index page whose historical child names the right region
        id at a wrong sector range: the device read serves that region's
        bytes, but the node is opened at the corrupted address, beside the
        kept node of the real one, and the two checkers report alike."""
        tree = build_tree(policy=POLICY_IDS.index("threshold[0.50]"), page_size=512, as_key=int,
                          operations=600, reopen=False, cache_pages=16,
                          rng=random.Random(7))  # fmt: skip
        read_every_stamp(tree)
        victim = next(
            node
            for node in tree.index_nodes()
            if node.address.is_magnetic and any(child.is_historical for child in node.children())
        )
        slot = next(at for at, child in enumerate(victim.children()) if child.is_historical)
        real = victim.child(slot)
        image = bytearray(victim.encode())
        _tag, kind, _level, count, distinct = _INDEX_HEADER.unpack_from(image)[:5]
        at = _keys_at(bytes(image), _INDEX_HEADER.size, distinct, kind)[1]
        tiers = image[at + 28 * count : at + 29 * count]
        triple = at + 29 * count + _HISTORICAL_CHILD.size * tiers.count(1, 0, slot)
        _HISTORICAL_CHILD.pack_into(image, triple, real.sector_start + 31, real.length + 23, real.platter)
        tree.cache.write(victim.address, IndexNode.decode(victim.address, bytes(image)))

        fake = Address.historical(real.page_id, real.sector_start + 31, real.length + 23, real.platter)
        assert tree._load_node(fake).address == fake
        assert tree._load_node(real).address == real
        assert tree._load_node(fake) is not tree._load_node(real)
        assert_checkers_agree(tree)


@pytest.mark.parametrize("policy", range(len(POLICIES)), ids=POLICY_IDS)
def test_every_kept_node_is_the_devices_bytes_and_refuses_mutation(policy):
    tree = build_tree(policy=policy, page_size=384, as_key=int, operations=500, reopen=True,
                      cache_pages=4, rng=random.Random(policy))  # fmt: skip
    read_every_stamp(tree)
    assert set(tree._kept) == historical_identities(tree)
    assert_kept_nodes_are_the_devices_bytes(tree)
    for node in tree._kept.values():
        assert_refuses_mutation(node)
    assert {type(node) for node in tree._kept.values()} >= {DataNode}


def test_drop_caches_forgets_the_kept_nodes_and_a_visit_reads_once():
    tree = build_tree(policy=0, page_size=384, as_key=int, operations=400, reopen=False,
                      cache_pages=4, rng=random.Random(1))  # fmt: skip
    read_every_stamp(tree)
    kept = len(tree._kept)
    reads = tree.historical.stats.reads
    read_every_stamp(tree)
    assert tree.historical.stats.reads == reads and len(tree._kept) == kept
    tree.drop_caches()
    assert not tree._kept
    read_every_stamp(tree)
    assert tree.historical.stats.reads == reads + kept


def test_the_checker_reads_the_devices_not_the_kept_nodes():
    """A region whose bytes went bad after it was kept: reads still answer
    from the kept node, and ``check_tree`` reports the device's damage."""
    tree = build_tree(policy=0, page_size=384, as_key=int, operations=300, reopen=False,
                      cache_pages=4, rng=random.Random(4))  # fmt: skip
    read_every_stamp(tree)
    assert check_tree(tree) == []
    address = next(iter(tree._kept.values())).address
    tree.historical._sectors[address.sector_start] = bytes(tree.historical.sector_size)
    read_every_stamp(tree)
    assert [v.invariant for v in check_tree(tree)] == ["reachability"]


def test_concurrent_readers_share_one_node_per_address_and_count_every_visit():
    """Readers run at once under a store's shared latch.  Six threads each
    read every stamp from cold: they get one answer, keep one node per
    address, and no visit is lost from the counts."""
    tree = build_tree(policy=5, page_size=384, as_key=int, operations=300, reopen=False,
                      cache_pages=4, rng=random.Random(6))  # fmt: skip
    stamps = range(tree.now + 1)
    tree.drop_caches()
    expected = [tree.snapshot(stamp) for stamp in stamps]
    visits, kept = tree.kept_stats.visits, set(tree._kept)
    tree.drop_caches()
    stats_before, answers_seen, errors = tree.kept_stats.visits, [], []

    def reader():
        try:
            answers_seen.append([tree.snapshot(stamp) for stamp in stamps])
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=reader) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == [] and answers_seen == [expected] * 6
    assert tree.kept_stats.visits - stats_before == 6 * visits
    assert set(tree._kept) == kept
    assert all(tree._load_node(node.address) is node for node in tree._kept.values())


def test_a_historical_node_builds_a_version_per_call():
    """No memo on a kept node: each call builds its own ``Version``."""
    tree = build_tree(policy=1, page_size=384, as_key=int, operations=300, reopen=False,
                      cache_pages=4, rng=random.Random(2))  # fmt: skip
    read_every_stamp(tree)
    node = next(node for node in tree._kept.values() if isinstance(node, DataNode))
    first, again = node.versions, node.versions
    assert first == again and all(a is not b for a, b in zip(first, again))


def answers(tree):
    """Every as-of lookup, range scan and key history the tree can answer."""
    keys = tree.keys()
    stamps = range(tree.now + 2)
    return (
        [tree.search_as_of(key, stamp) for key in keys for stamp in stamps],
        [tree.range_search(low, high, as_of=stamp)
         for stamp in stamps for low, high in ((None, None), (keys[0], keys[len(keys) // 2]))],
        [tree.key_history(key) for key in keys],
    )  # fmt: skip


def assert_warm_answers_as_cold(case):
    tree = build_tree(**case)
    answers(tree)  # warms every historical node it reaches
    warm = answers(tree)
    assert tree._kept or not historical_identities(tree)
    tree.drop_caches()
    assert answers(tree) == warm


@st.composite
def warm_trees(draw):
    """The arguments of :func:`build_tree`, on pages small enough that most
    of the tree is historical."""
    return dict(
        policy=draw(st.integers(0, len(POLICIES) - 1)),
        page_size=draw(st.integers(256, 768)),
        as_key=int if draw(st.booleans()) else (lambda at: f"k{at:03d}"),
        operations=draw(st.integers(60, 200)),
        reopen=draw(st.booleans()),
        cache_pages=draw(st.sampled_from([2, 16, 128])),
        rng=random.Random(draw(st.integers(0, 2**32 - 1))),
    )


@pytest.mark.slow
@pytest.mark.differential
class TestWarmAnswersColdFull:
    @given(case=warm_trees())
    @settings(suppress_health_check=[HealthCheck.too_slow])
    def test_a_warm_tree_answers_as_a_cold_one(self, case):
        assert_warm_answers_as_cold(case)


@pytest.mark.differential
class TestWarmAnswersColdSmoke:
    @given(case=warm_trees())
    @settings(max_examples=8, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])  # fmt: skip
    def test_a_warm_tree_answers_as_a_cold_one(self, case):
        assert_warm_answers_as_cold(case)
