"""The column split against the version-list reference (``split_reference``).

For generated data nodes — int and str keys, equal stamps, tombstones,
provisional versions and committed ones still carrying a txn id, in any list
order, built from versions or opened from an image and then edited — every
policy ``make_policy`` builds must decide the same split from the node's slot
columns as from its version list, and both halves must encode byte for byte
as the reference's.  ``TestColumnSplitFull`` is the property at the nightly
Hypothesis budget; ``TestColumnSplitSmoke`` is a small fixed-seed run of it
in tier-1.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.nodes import DataNode
from repro.core.policy import SplitContext, make_policy
from repro.core.records import KeyRange, Rectangle, TimeRange, Version
from repro.core.split import SplitError, carve_data_split, time_split_slots
from repro.core.tsb_tree import TSBTree
from repro.storage.costmodel import CostModel
from repro.storage.device import Address
from tests.core.split_reference import (
    VersionListContext,
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
