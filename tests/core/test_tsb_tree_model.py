"""Model-based and property tests: the TSB-tree versus a plain-Python oracle.

These are the strongest correctness tests in the suite: random workloads are
replayed simultaneously against the tree and against the trivially correct
:class:`~tests.conftest.VersionedOracle`, and every query class must agree at
every probed point.  The structural invariant checker runs on the final tree
of every scenario.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    AlwaysKeySplitPolicy,
    AlwaysTimeSplitPolicy,
    CostDrivenPolicy,
    ThresholdPolicy,
    TSBTree,
    WOBTEmulationPolicy,
    assert_tree_valid,
)
from repro.core.records import records_valid_between
from tests.conftest import VersionedOracle, run_mixed_workload

POLICIES = [
    ("always-key", lambda: AlwaysKeySplitPolicy()),
    ("always-time-current", lambda: AlwaysTimeSplitPolicy("current")),
    ("always-time-last-update", lambda: AlwaysTimeSplitPolicy("last_update")),
    ("always-time-min-redundancy", lambda: AlwaysTimeSplitPolicy("min_redundancy")),
    ("threshold-0.5", lambda: ThresholdPolicy(0.5)),
    ("threshold-0.25", lambda: ThresholdPolicy(0.25)),
    ("cost-driven", lambda: CostDrivenPolicy()),
    ("wobt-emulation", lambda: WOBTEmulationPolicy()),
]


def check_against_oracle(tree: TSBTree, oracle: VersionedOracle, rng: random.Random, probes: int = 120):
    """Compare every query class against the oracle at randomly chosen points."""
    keys = oracle.keys()
    assert keys, "the workload must have inserted something"

    # Current lookups for every key.
    for key in keys:
        version = tree.search_current(key)
        assert version is not None, f"current lookup lost key {key!r}"
        assert version.value == oracle.current(key)

    # As-of lookups at random (key, time) points, including before creation.
    for _ in range(probes):
        key = keys[rng.randrange(len(keys))]
        timestamp = rng.randint(0, oracle.max_timestamp + 2)
        expected = oracle.as_of(key, timestamp)
        version = tree.search_as_of(key, timestamp)
        observed = None if version is None else version.value
        assert observed == expected, (key, timestamp)

    # Version histories for a sample of keys.
    for key in keys[:: max(1, len(keys) // 25)]:
        expected_history = oracle.key_history(key)
        observed_history = [(v.timestamp, v.value) for v in tree.key_history(key)]
        assert observed_history == expected_history, key

    # Snapshots at a few times.
    for timestamp in sorted(rng.sample(range(1, oracle.max_timestamp + 1), k=min(4, oracle.max_timestamp))):
        expected_snapshot = oracle.snapshot(timestamp)
        observed_snapshot = {k: v.value for k, v in tree.snapshot(timestamp).items()}
        assert observed_snapshot == expected_snapshot, timestamp

    # A current range scan over a random window.
    if len(keys) > 2:
        low, high = sorted(rng.sample(keys, 2))
        expected_range = oracle.range_current(low, high)
        observed_range = {v.key: v.value for v in tree.range_search(low, high)}
        assert observed_range == expected_range

    check_derived_reads(tree, rng)


def check_derived_reads(tree: TSBTree, rng: random.Random, tombstoned=frozenset()):
    """Every multi-key read is one of the tree's two walks, so the derived
    reads must equal each other — whatever splits the policy made."""
    now = tree.now
    for timestamp in {0, now, rng.randint(0, now), rng.randint(0, now)}:
        scanned = tree.range_search(as_of=timestamp)
        assert [v.key for v in scanned] == sorted(v.key for v in scanned)
        assert tree.snapshot(timestamp) == {v.key: v for v in scanned}

    keys, live = tree.keys(), tree.current_keys()
    assert keys == sorted(keys)
    assert set(live) <= set(keys)
    assert set(keys) - set(live) == set(tombstoned)

    for key in keys[:: max(1, len(keys) // 12)]:
        successor = key + 1 if isinstance(key, int) else key + "\x00"
        history = tree.key_history(key)
        assert tree.time_slice(0, now + 1, key, successor) == {key: history}
        start = rng.randint(0, now)
        end = start + rng.randint(1, 40)
        expected = records_valid_between(history, start, end)
        assert tree.history_between(key, start, end) == expected
        # The bounded gather visits fewer nodes and must still slice the same.
        assert tree.time_slice(start, end, key, successor).get(key, []) == expected


@pytest.mark.parametrize("policy_name,policy_factory", POLICIES)
def test_mixed_workload_matches_oracle(policy_name, policy_factory):
    """600 operations, 60% updates: every query class must match the oracle."""
    rng = random.Random(hash(policy_name) & 0xFFFF)
    tree = TSBTree(page_size=512, policy=policy_factory())
    oracle = VersionedOracle()
    run_mixed_workload(
        tree, oracle, operations=600, update_fraction=0.6, key_space=80, seed=hash(policy_name) & 0xFFFF
    )
    check_against_oracle(tree, oracle, rng)
    assert_tree_valid(tree)


@pytest.mark.parametrize("update_fraction", [0.0, 0.3, 0.8, 0.95])
def test_update_fraction_extremes_match_oracle(update_fraction):
    rng = random.Random(int(update_fraction * 100))
    tree = TSBTree(page_size=512, policy=ThresholdPolicy(0.5))
    oracle = VersionedOracle()
    run_mixed_workload(
        tree,
        oracle,
        operations=500,
        update_fraction=update_fraction,
        key_space=60,
        seed=int(update_fraction * 1000) + 1,
    )
    check_against_oracle(tree, oracle, rng)
    assert_tree_valid(tree)


@pytest.mark.parametrize("page_size", [256, 512, 2048])
def test_page_size_extremes_match_oracle(page_size):
    """Small pages force frequent splits; large pages exercise big nodes."""
    rng = random.Random(page_size)
    tree = TSBTree(page_size=page_size, policy=ThresholdPolicy(0.5))
    oracle = VersionedOracle()
    run_mixed_workload(
        tree, oracle, operations=400, update_fraction=0.5, key_space=50, seed=page_size
    )
    check_against_oracle(tree, oracle, rng)
    assert_tree_valid(tree)


def test_single_hot_key_workload():
    """Every operation updates the same key: pure time-split territory."""
    tree = TSBTree(page_size=512, policy=ThresholdPolicy(0.5))
    oracle = VersionedOracle()
    for timestamp in range(1, 401):
        value = f"hot-{timestamp}".encode()
        tree.insert("hot", value, timestamp=timestamp)
        oracle.insert("hot", value, timestamp)
    check_against_oracle(tree, oracle, random.Random(0), probes=60)
    assert tree.counters.data_time_splits > 0
    assert tree.counters.data_key_splits == 0
    assert_tree_valid(tree)


def test_sequential_insert_only_workload():
    """Append-only key pattern: pure key-split territory (a B+-tree in disguise)."""
    tree = TSBTree(page_size=512, policy=ThresholdPolicy(0.5))
    oracle = VersionedOracle()
    for key in range(500):
        value = f"row-{key}".encode()
        tree.insert(key, value, timestamp=key + 1)
        oracle.insert(key, value, key + 1)
    check_against_oracle(tree, oracle, random.Random(1), probes=60)
    assert tree.counters.data_time_splits == 0
    assert tree.counters.redundant_versions_written == 0
    assert_tree_valid(tree)


def test_string_key_workload_matches_oracle():
    rng = random.Random(99)
    tree = TSBTree(page_size=512, policy=ThresholdPolicy(0.5))
    oracle = VersionedOracle()
    timestamp = 0
    for _ in range(400):
        timestamp += 1
        key = f"user-{rng.randrange(50):03d}"
        value = f"{key}@{timestamp}".encode()
        tree.insert(key, value, timestamp=timestamp)
        oracle.insert(key, value, timestamp)
    check_against_oracle(tree, oracle, rng)
    assert_tree_valid(tree)


def test_repeated_timestamps_within_a_commit_match_oracle():
    """Several records can share one commit timestamp (one transaction)."""
    tree = TSBTree(page_size=512, policy=ThresholdPolicy(0.5))
    oracle = VersionedOracle()
    rng = random.Random(5)
    timestamp = 0
    for _txn in range(120):
        timestamp += 1
        for key in rng.sample(range(30), k=3):
            value = f"{key}@{timestamp}".encode()
            tree.insert(key, value, timestamp=timestamp)
            oracle.insert(key, value, timestamp)
    check_against_oracle(tree, oracle, rng)
    assert_tree_valid(tree)


@given(
    operations=st.lists(
        st.tuples(st.integers(0, 25), st.integers(1, 3)), min_size=1, max_size=120
    ),
    data=st.data(),
)
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_hypothesis_random_histories_match_oracle(operations, data):
    """Property: arbitrary key sequences with irregular time gaps stay correct."""
    tree = TSBTree(page_size=384, policy=ThresholdPolicy(0.5))
    oracle = VersionedOracle()
    timestamp = 0
    for key, gap in operations:
        timestamp += gap
        value = f"{key}@{timestamp}".encode()
        tree.insert(key, value, timestamp=timestamp)
        oracle.insert(key, value, timestamp)

    probe_time = data.draw(st.integers(0, timestamp + 1))
    probe_key = data.draw(st.sampled_from([key for key, _ in operations]))

    expected = oracle.as_of(probe_key, probe_time)
    observed = tree.search_as_of(probe_key, probe_time)
    assert (None if observed is None else observed.value) == expected

    current = tree.search_current(probe_key)
    assert current.value == oracle.current(probe_key)

    snapshot = {k: v.value for k, v in tree.snapshot(probe_time).items()}
    assert snapshot == oracle.snapshot(probe_time)

    # Logical deletion on top: `keys` keeps what `current_keys` drops.
    doomed = data.draw(st.sets(st.sampled_from(oracle.keys()), max_size=5))
    for key in sorted(doomed):
        tree.delete(key)
    check_derived_reads(tree, random.Random(probe_time), tombstoned=doomed)
    assert_tree_valid(tree)


def test_no_committed_version_is_ever_lost_across_policies():
    """Conservation property: the set of (key, timestamp) pairs stored in the
    tree (deduplicated) equals exactly what was inserted, for every policy."""
    inserted = set()
    rng = random.Random(77)
    operations = []
    timestamp = 0
    for _ in range(400):
        timestamp += 1
        key = rng.randrange(40)
        operations.append((key, timestamp))
        inserted.add((key, timestamp))

    for _name, factory in POLICIES:
        tree = TSBTree(page_size=512, policy=factory())
        for key, stamp in operations:
            tree.insert(key, f"{key}@{stamp}".encode(), timestamp=stamp)
        stored = set()
        for node in tree.data_nodes():
            for version in node.versions:
                stored.add((version.key, version.timestamp))
        assert stored == inserted
