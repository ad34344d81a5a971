"""The column splits against the list-form reference (``split_reference``).

For generated data nodes — int and str keys, equal stamps, tombstones,
provisional versions and committed ones still carrying a txn id, in any list
order, built from versions or opened from an image and then edited — every
policy ``make_policy`` builds must decide the same split from the node's slot
columns as from its version list, and both halves must encode byte for byte
as the reference's.  ``TestColumnSplitFull`` is the property at the nightly
Hypothesis budget; ``TestColumnSplitSmoke`` is a small fixed-seed run of it
in tier-1.

For index nodes the same holds of every index split a generated tree makes
(every policy, page sizes 256 to 1024, int and str keys, transactions left
open, nodes reopened from their images and then mutated): the carve picks
the kind and split value the entry-list reference picks, re-splits the same
oversized halves, and every half encodes as a node built from the
reference's entry list; the section 3.5 rules agree at every bound of the
node too.  ``TestIndexSplitFull`` runs nightly, ``TestIndexSplitSmoke`` in
tier-1.
"""

import random
import sys
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import split as column_split
from repro.core import tsb_tree
from repro.core.nodes import DataNode, IndexEntry
from repro.core.policy import SplitContext, make_policy
from repro.core.records import KeyRange, Rectangle, TimeRange, Version
from repro.core.split import (
    CarvedSplit,
    SplitError,
    carve_data_split,
    index_key_split_slots,
    index_split_key,
    index_time_split_slots,
    local_index_split_time,
    time_split_slots,
)
from repro.core.tsb_tree import TSBTree
from repro.storage.costmodel import CostModel
from repro.storage.device import Address
from tests.core.split_reference import (
    ReferenceIndexSplit,
    VersionListContext,
    choose_index_split_key,
    find_local_index_split_time,
    index_key_split,
    index_time_split,
    reference_index_split,
    reference_split,
    time_split_versions,
)

#: Every policy make_policy builds, every split-time chooser included.
POLICIES = [
    ("always-key", {}),
    *[("always-time", {"time_chooser": c}) for c in ("current", "last_update", "min_redundancy", "median")],
    ("threshold", {}),
    ("threshold", {"threshold": 0.2, "time_chooser": "median"}),
    ("threshold", {"threshold": 0.8, "time_chooser": "min_redundancy"}),
    ("cost", {}),
    ("cost", {"cost_model": CostModel.with_cost_ratio(20.0), "time_chooser": "current"}),
    ("cost", {"cost_model": CostModel.with_cost_ratio(0.05)}),
    ("wobt", {}),
]
POLICY_IDS = [make_policy(name, **kwargs).name for name, kwargs in POLICIES]

_ADDRESS = Address.magnetic(7)


@st.composite
def versions(draw, as_key):
    """One version: committed (a txn id or not) or provisional, maybe a tombstone."""
    key = as_key(draw(st.integers(0, 5)))
    tombstone = draw(st.booleans())
    value = b"" if tombstone else draw(st.binary(max_size=24))
    if draw(st.integers(0, 4)) == 0:
        return Version(key=key, timestamp=None, value=value, txn_id=draw(st.integers(1, 3)),
                       is_tombstone=tombstone)  # fmt: skip
    txn_id = draw(st.one_of(st.none(), st.integers(1, 3)))
    stamp = draw(st.integers(1, 12))  # a small range: equal stamps are common
    return Version(key=key, timestamp=stamp, value=value, txn_id=txn_id, is_tombstone=tombstone)


@st.composite
def data_nodes(draw):
    """A node and the ``now`` it is split at.  Its region's key range holds
    every key and its start may be later than some stamps (a time split's
    redundant copies precede it).  It is built from a list in any order, or
    opened from that node's image and then edited."""
    as_key = draw(st.sampled_from([int, lambda k: f"key-{'x' * k}{k}"]))
    listed = draw(st.lists(versions(as_key), min_size=1, max_size=14))
    low = draw(st.sampled_from([None, as_key(0)]))
    high = draw(st.sampled_from([None, as_key(6)]))
    region = Rectangle(KeyRange(low, high), TimeRange(draw(st.integers(0, 8)), None))
    node = DataNode(_ADDRESS, region, listed)
    if draw(st.booleans()):
        node = DataNode.decode(_ADDRESS, node.encode())
        for _ in range(draw(st.integers(0, 3))):
            edit = draw(st.sampled_from(["add", "remove", "stamp"]))
            if edit == "add":
                node.add_version(draw(versions(as_key)))
            elif edit == "remove" and len(node.versions) > 1:
                node.remove_version(draw(st.sampled_from(node.versions)))
            elif edit == "stamp":
                pending = [v for v in node.versions if v.timestamp is None]
                if pending:
                    version = draw(st.sampled_from(pending))
                    node.stamp_provisional(version.key, version.txn_id, draw(st.integers(12, 14)))
    stamps = [v.timestamp for v in node.versions if v.timestamp is not None]
    now = max(stamps, default=0) + draw(st.integers(0, 2))
    return node, now


def assert_column_split_matches_reference(node, now, page_size=512):
    reference_context = VersionListContext(node.versions, node.region, page_size, now)
    context = SplitContext(node, page_size, now)
    # The queries a policy asks.
    assert context.can_key_split() == reference_context.can_key_split()
    assert context.can_time_split() == reference_context.can_time_split()
    assert context.historical_fraction() == reference_context.historical_fraction()
    assert context.legal_split_times() == reference_context.legal_split_times()
    assert context.last_update_time() == reference_context.last_update_time()
    assert context.min_redundancy_split_time() == reference_context.min_redundancy_split_time()
    assert context.total_bytes() == reference_context.total_bytes()
    # The rule at every stamp, each half encoded.
    for split_time in range(0, 16):
        reference = reference_context.time_split(split_time)
        split = context.time_split(split_time)
        assert (split is None) == (reference is None)
        if split is not None:
            assert len(split.redundant) == len(reference.redundant)
            for slots, versions in ((split.historical, reference.historical), (split.current, reference.current)):
                carved = node.carve(slots, node.region).encode()
                assert carved == DataNode(_ADDRESS, node.region, versions).encode()
            assert (split.historical_bytes, split.redundant_bytes, split.current_bytes) == (
                reference.historical_bytes, reference.redundant_bytes, reference.current_bytes
            )  # fmt: skip
    # Every policy's decision and both halves' pages.
    for name, kwargs in POLICIES:
        policy = make_policy(name, **kwargs)
        try:
            expected = reference_split(node, policy, page_size, now)
        except (ValueError, SplitError) as exc:
            with pytest.raises(type(exc)):
                carve_data_split(SplitContext(node, page_size, now), policy)
            continue
        split = carve_data_split(SplitContext(node, page_size, now), policy)
        assert (split.kind, split.at, split.redundant) == (expected.kind, expected.at, expected.redundant)
        assert tuple(half.encode() for half in split.halves) == expected.images


@pytest.mark.slow
@pytest.mark.differential
class TestColumnSplitFull:
    @given(case=data_nodes())
    @settings(suppress_health_check=[HealthCheck.too_slow])
    def test_column_split_matches_the_version_list_reference(self, case):
        assert_column_split_matches_reference(*case)


@pytest.mark.differential
class TestColumnSplitSmoke:
    @given(case=data_nodes())
    @settings(max_examples=60, derandomize=True, deadline=None)
    def test_column_split_matches_the_version_list_reference(self, case):
        assert_column_split_matches_reference(*case)


def test_a_redundant_copy_and_a_provisional_slot_split_as_the_reference_does():
    node = DataNode(_ADDRESS, Rectangle.full(), [
        Version(key=1, timestamp=2, value=b"a"),
        Version(key=1, timestamp=None, value=b"p", txn_id=3),
        Version(key=2, timestamp=4, value=b"b"),
    ])  # fmt: skip
    split = time_split_slots(SplitContext(node, 512, 4), 3)
    reference = time_split_versions(node.versions, 3)
    assert len(split.redundant) == len(reference.redundant) == 1
    assert node.carve(split.current, node.region).versions == reference.current
    assert_column_split_matches_reference(node, 4)


def count_built_versions(monkeypatch):
    """A list that grows by one for every ``Version`` a node builds."""
    from repro.core import nodes

    built, decoded_version = [], nodes.decoded_version
    monkeypatch.setattr(nodes, "decoded_version", lambda *f: built.append(f) or decoded_version(*f))
    return built


@pytest.mark.parametrize("name, kwargs", POLICIES, ids=POLICY_IDS)
def test_a_split_builds_no_version(name, kwargs, monkeypatch):
    """Splitting a data node builds no ``Version``; and across the inserts
    of a tree whose index nodes split by key, by time and again (a half too
    large), ``IndexEntry`` is built only for the rows of data splits, and no
    index slot's rectangle is decoded: index splits read columns."""
    tree = TSBTree(page_size=512)
    for step in range(400):
        tree.insert(step % 9, f"value-{step}".encode(), timestamp=step + 1)
    tree.checkpoint()
    reopened = TSBTree.open(tree.magnetic, tree.historical)
    leaves = [node for node in reopened.data_nodes() if node.address.is_magnetic]
    assert leaves
    versions = count_built_versions(monkeypatch)
    policy = make_policy(name, **kwargs)
    for leaf in leaves:
        split = carve_data_split(SplitContext(leaf, 512, reopened.now), policy)
        for half in split.halves:
            half.encode()
    assert versions == []

    from repro.core import nodes

    entries, rectangles, carved = [], [], []
    entry_init, decoded_rectangle = IndexEntry.__init__, nodes.decoded_rectangle
    carve = column_split.carve_index_split

    def counting_entry(entry, *fields, **named):
        entries.append(fields or named)
        entry_init(entry, *fields, **named)

    def counting_rectangle(*bounds):
        rectangles.append(sys._getframe(1).f_code.co_name)  # who asked
        return decoded_rectangle(*bounds)

    monkeypatch.setattr(IndexEntry, "__init__", counting_entry)
    monkeypatch.setattr(nodes, "decoded_rectangle", counting_rectangle)
    monkeypatch.setattr(tsb_tree, "carve_index_split", lambda *a: carved.append(carve(*a)) or carved[-1])
    tree = churn(policy)
    counters = tree.counters
    assert counters.index_key_splits and counters.index_time_splits
    assert sum(map(resplits, carved)) > 0
    assert len(entries) == 2 * (counters.data_key_splits + counters.data_time_splits)
    assert set(rectangles) <= {"region"}  # a node's own region, never a slot's


# ----------------------------------------------------------------------
# Index-node splits
# ----------------------------------------------------------------------
def outcome(call):
    """What ``call`` returns, or ``SplitError`` when it raises that."""
    try:
        return call()
    except SplitError:
        return SplitError


def carved_form(split):
    """A carved index split as the reference gives one: kind, split value,
    entries copied, and each half's page image, or its own split."""
    halves = tuple(carved_form(h) if isinstance(h, CarvedSplit) else h.encode() for h in split.halves)
    return split.kind, split.at, split.redundant, halves


def reference_form(split):
    halves = tuple(reference_form(h) if isinstance(h, ReferenceIndexSplit) else h for h in split.halves)
    return split.kind, split.at, split.copied, halves


def resplits(split):
    """How many halves of a carved split, at any depth, were split again."""
    return sum(1 + resplits(half) for half in split.halves if isinstance(half, CarvedSplit))


def assert_index_rules_match_reference(node):
    """The section 3.5 rules on ``node``'s columns against the entry-list
    forms, at every bound of the node and one time unit past each."""
    entries = node.entries

    def listed(cut):
        first, second, copied = cut
        return tuple(entries[slot] for slot in first), tuple(entries[slot] for slot in second), copied

    assert local_index_split_time(node) == find_local_index_split_time(entries)
    assert outcome(lambda: index_split_key(node)) == outcome(lambda: choose_index_split_key(entries))
    times = {time for e in entries for time in (e.region.times.start, e.region.times.end)} - {None}
    for split_time in sorted(times | {at + 1 for at in times}):
        expected = outcome(lambda: index_time_split(entries, split_time))
        if expected is not SplitError:
            expected = expected.historical, expected.current, len(expected.copied)
        assert outcome(lambda: listed(index_time_split_slots(node, split_time))) == expected
    keys = {key for e in entries for key in (e.region.keys.low, e.region.keys.high)} - {None}
    for split_key in sorted(keys):
        expected = outcome(lambda: index_key_split(entries, split_key))
        if expected is not SplitError:
            expected = expected.left, expected.right, len(expected.copied)
        assert outcome(lambda: listed(index_key_split_slots(node, split_key))) == expected


def check_index_splits(grow):
    """``grow()`` a tree with every index split it makes held to the
    reference; the tree and the carved splits."""
    checked = []

    def checking(node, page_size, time_first):
        assert_index_rules_match_reference(node)
        try:
            expected = reference_index_split(node.entries, node.region, node.level, page_size, time_first)
        except SplitError:
            with pytest.raises(SplitError):
                column_split.carve_index_split(node, page_size, time_first)
            raise
        split = column_split.carve_index_split(node, page_size, time_first)
        assert carved_form(split) == reference_form(expected)
        checked.append(split)
        return split

    with mock.patch.object(tsb_tree, "carve_index_split", checking):
        tree = grow()
    return tree, checked


def build_tree(policy, page_size, as_key, operations, reopen, cache_pages, rng):
    """A tree grown by ``operations`` random writes, perhaps checkpointed,
    reopened from its devices and grown further; some transactions stay open."""
    name, kwargs = POLICIES[policy]
    tree = TSBTree(page_size=page_size, policy=make_policy(name, **kwargs), cache_pages=cache_pages)
    open_txns = {}  # txn id -> keys written provisionally
    for step in range(operations):
        if reopen and step == operations // 2:
            tree.checkpoint()
            tree = TSBTree.open(
                tree.magnetic, tree.historical, policy=tree.policy, cache_pages=cache_pages
            )
        key = as_key(rng.randrange(40))
        roll = rng.random()
        if roll < 0.08 and len(open_txns) < 3:
            txn_id = 1000 + step
            if all(key not in keys for keys in open_txns.values()):
                tree.insert_provisional(key, b"p%d" % step, txn_id)
                open_txns[txn_id] = [key]
        elif roll < 0.12 and open_txns:
            txn_id = rng.choice(sorted(open_txns))
            tree.commit_provisional(txn_id, open_txns.pop(txn_id), tree.now + 1)
        elif roll < 0.18 and tree.search_current(key) is not None:
            if all(key not in keys for keys in open_txns.values()):
                tree.delete(key)
        elif all(key not in keys for keys in open_txns.values()):
            tree.insert(key, bytes(rng.randrange(4, 24)))
    return tree


@st.composite
def index_splitting_trees(draw):
    """The arguments of :func:`build_tree`: a policy, a page size, a key
    kind, the writes (transactions left open, the tree perhaps reopened from
    its devices half way) and the pool size."""
    return dict(
        policy=draw(st.integers(0, len(POLICIES) - 1)),
        page_size=draw(st.integers(256, 1024)),
        as_key=int if draw(st.booleans()) else (lambda at: f"k{at:03d}"),
        operations=draw(st.integers(200, 800)),
        reopen=draw(st.booleans()),
        cache_pages=draw(st.sampled_from([2, 16, 128])),
        rng=random.Random(draw(st.integers(0, 2**32 - 1))),
    )


@pytest.mark.slow
@pytest.mark.differential
class TestIndexSplitFull:
    @given(case=index_splitting_trees())
    @settings(suppress_health_check=[HealthCheck.too_slow])
    def test_index_split_matches_the_entry_list_reference(self, case):
        check_index_splits(lambda: build_tree(**case))


@pytest.mark.differential
class TestIndexSplitSmoke:
    @given(case=index_splitting_trees())
    @settings(
        max_examples=40,
        derandomize=True,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_index_split_matches_the_entry_list_reference(self, case):
        check_index_splits(lambda: build_tree(**case))


def churn(policy, writes=600):
    """A 256-byte tree taking tombstone churn on 30 keys: under every policy
    its index nodes split by key and by time, and some halves must be split
    again.  Its pool is small, so most nodes are opened from their images
    before they are mutated."""
    rng = random.Random(5)
    tree = TSBTree(page_size=256, policy=policy, cache_pages=4)
    for timestamp in range(1, writes + 1):
        key = rng.randrange(30)
        if rng.random() < 0.4:
            tree.delete(key, timestamp=timestamp)
        else:
            tree.insert(key, bytes(rng.randrange(4)), timestamp=timestamp)
    return tree


@pytest.mark.parametrize("name, kwargs", POLICIES, ids=POLICY_IDS)
def test_every_index_split_of_a_churned_small_page_tree_matches_the_reference(name, kwargs):
    _tree, checked = check_index_splits(lambda: churn(make_policy(name, **kwargs)))
    kinds = {split.kind for split in checked}
    assert len(kinds) == 2 and sum(map(resplits, checked)) > 0
