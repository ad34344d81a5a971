"""The checkpoint rule: a WAL store checkpoints every N log bytes.

Every logged commit ends in ``TransactionManager._settle``, which takes a full
checkpoint once the log holds ``CHECKPOINT_EVERY_BYTES`` past the tree's
anchor (:mod:`repro.recovery.log_manager`).  However long a store has been
up, a restart then reads at most that much log plus the commit that crossed
the line, and the no-steal pool holds only the pages written since.  N is
patched down here, so that runs several N long stay small.
"""

from __future__ import annotations

import threading
from typing import Dict, List

import pytest

from repro.api import ShardSpec, StoreConfig, VersionStore
from repro.recovery import log_manager
from repro.replication import Replica, ReplicationPrimary
from tests.crash_harness import crash_and_reopen

RULE_BYTES = 16 * 1024
#: Keys a shard may hold: every key the runs below insert is new to it.
SPAN = 10_000
#: Rounds written after the last automatic checkpoint, before the crash.  They
#: rewrite the keys of the first rounds, so both runs' tails dirty the same
#: corner of the tree however far the rest of it has grown.
TAIL = 20
#: One round's transaction on a shard: BEGIN, four INSERTs, COMMIT.
RECORDS_PER_TXN = 6


@pytest.fixture(autouse=True)
def rule_bytes(monkeypatch):
    monkeypatch.setattr(log_manager, "CHECKPOINT_EVERY_BYTES", RULE_BYTES)


def open_store(shards: int) -> VersionStore:
    spec = ShardSpec.for_int_keys(shards, key_space=SPAN * shards) if shards > 1 else None
    return VersionStore.open(
        StoreConfig(engine="tsb", page_size=1024, wal=True, shards=spec)
    )


def write_round(store, shards: int, first_key: int, number: int, acked: Dict[int, bytes]) -> None:
    """One transaction on every shard, keys ``first_key .. first_key + 3`` of
    its span, every value the same size."""
    for shard in range(shards):
        items = [
            (shard * SPAN + key, b"round-%06d-key-%06d" % (number, key))
            for key in range(first_key, first_key + 4)
        ]
        store.put_many(items)
        acked.update(items)


def dirty_pages(store: VersionStore) -> int:
    return store.backend.cache.dirty_count


def state_of(store) -> Dict[int, bytes]:
    return {key: record.value for key, record in store.snapshot(store.now).items()}


def write_past(store, shards: int, number: int, acked: Dict[int, bytes]) -> int:
    """Write rounds from round ``number`` on until every shard's log has
    grown by 2N and taken an automatic checkpoint; the next round's number."""
    inner = store.shard_stores
    anchors = [shard.backend.log_anchor for shard in inner]
    began = [shard.log_device.appended_bytes for shard in inner]
    while any(
        shard.log_device.appended_bytes - start < 2 * RULE_BYTES
        for shard, start in zip(inner, began)
    ):
        write_round(store, shards, 4 * number, number, acked)
        number += 1
    assert all(shard.backend.log_anchor != anchor for shard, anchor in zip(inner, anchors))
    return number


def run_and_crash(shards: int, checkpoints: int):
    """Insert fresh keys until every shard has taken ``checkpoints``
    automatic checkpoints (about that many N of log), then rewrite the first
    keys for ``TAIL`` rounds, with no explicit checkpoint; then crash.

    Returns each shard's recovery report, its dirty pages at the crash and
    its log length, and one transaction's log bytes."""
    store = open_store(shards)
    inner = store.shard_stores
    anchors = [shard.backend.log_anchor for shard in inner]
    taken = [0] * len(inner)
    acked: Dict[int, bytes] = {}
    number = 0
    while min(taken) < checkpoints:
        write_round(store, shards, 4 * number, number, acked)
        number += 1
        for index, shard in enumerate(inner):
            tree = shard.backend
            # The rule's invariant: a commit leaves less than N past the anchor.
            assert shard.log_device.appended_bytes - tree.log_anchor_offset < RULE_BYTES
            if tree.log_anchor != anchors[index]:
                anchors[index] = tree.log_anchor
                taken[index] += 1
    txn_bytes = 0
    for tail in range(TAIL):
        before = inner[0].log_device.appended_bytes
        write_round(store, shards, 4 * tail, number, acked)
        number += 1
        txn_bytes = max(txn_bytes, inner[0].log_device.appended_bytes - before)
    assert anchors == [shard.backend.log_anchor for shard in inner]  # the tail stays under N
    dirty = [dirty_pages(shard) for shard in inner]
    logged = [shard.log_device.appended_bytes for shard in inner]
    recovered = crash_and_reopen(store)
    assert state_of(recovered) == acked
    reports = [shard.recovery_report for shard in recovered.shard_stores]
    return reports, dirty, logged, txn_bytes


@pytest.mark.parametrize("shards", [1, 4], ids=["single-store", "4-shard"])
def test_a_restart_reads_a_bounded_suffix_however_long_the_log(shards):
    short_reports, short_dirty, short_logged, txn_bytes = run_and_crash(shards, checkpoints=2)
    long_reports, long_dirty, long_logged, _ = run_and_crash(shards, checkpoints=4)
    assert min(short_logged) >= 2 * RULE_BYTES and min(long_logged) >= 4 * RULE_BYTES
    for report in short_reports + long_reports:
        assert report.suffix_bytes <= RULE_BYTES + txn_bytes
        assert report.as_dict()["suffix_bytes"] == report.suffix_bytes
        assert f"{report.suffix_bytes} log bytes" in report.summary()
    for short, long in zip(short_reports, long_reports):
        assert abs(long.records_scanned - short.records_scanned) <= RECORDS_PER_TXN
    for short, long in zip(short_dirty, long_dirty):
        assert long <= short


def test_committers_crossing_the_line_together_take_one_checkpoint(monkeypatch):
    """Every committer that crossed N tests the rule before any of them
    checkpoints; the test repeated under the exclusive latch lets one
    through, timed as ``op.checkpoint``."""
    store = open_store(1)
    acked: Dict[int, bytes] = {}
    write_round(store, 1, 0, 0, acked)
    log, tree = store.txns.log, store.backend
    # Whichever commit comes next crosses the line.
    past_anchor = store.log_device.appended_bytes - tree.log_anchor_offset
    monkeypatch.setattr(log_manager, "CHECKPOINT_EVERY_BYTES", past_anchor + 1)
    committers = 4
    crossed = threading.Barrier(committers, timeout=10)
    due, checkpoint = log.checkpoint_due, log.checkpoint
    tally = {"due": 0, "checkpoints": 0}
    tally_lock = threading.Lock()

    def checkpoint_due(of_tree):
        answer = due(of_tree)
        with tally_lock:
            first_tests = answer and tally["due"] < committers
            tally["due"] += answer
        if first_tests:
            crossed.wait()  # hold each committer until all have crossed
        return answer

    def counted_checkpoint(*args, **kwargs):
        tally["checkpoints"] += 1
        return checkpoint(*args, **kwargs)

    monkeypatch.setattr(log, "checkpoint_due", checkpoint_due)
    monkeypatch.setattr(log, "checkpoint", counted_checkpoint)
    timed_before = store.metrics.histogram("op.checkpoint").count
    anchor = tree.log_anchor
    errors: List[Exception] = []

    def commit(key: int) -> None:
        try:
            store.put_many([(key, b"crossing-%d" % key)])
        except Exception as exc:  # pragma: no cover - reported below
            errors.append(exc)

    threads = [threading.Thread(target=commit, args=(100 + i,)) for i in range(committers)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=20)
    assert not errors and not any(thread.is_alive() for thread in threads)
    assert tally["checkpoints"] == 1 and tree.log_anchor != anchor
    assert store.metrics.histogram("op.checkpoint").count == timed_before + 1
    assert {store.get(100 + i).value for i in range(committers)} == {
        b"crossing-%d" % (100 + i) for i in range(committers)
    }


def test_a_follower_and_its_promoted_store_follow_the_rule():
    """A follower applies through the primary's automatic ``CHECKPOINT``
    records.  Promoted (``VersionStore.over_tree`` on each shard), its store
    checkpoints by the same rule, and a crash after that recovers exactly
    what a replay of its mirrors holds."""
    store = open_store(2)
    primary = ReplicationPrimary(store).start()
    replica = Replica(primary.host, primary.port, name="rule").start()
    try:
        acked: Dict[int, bytes] = {}
        number = write_past(store, 2, 0, acked)
        assert primary.wait_caught_up(timeout=10)
        assert replica.wait_for_watermark(store.now)
        for state, shard in zip(replica._states, store.shard_stores):
            assert state.mirror.durable_contents() == shard.log_device.durable_contents()
        assert state_of(replica.store) == acked
        primary.kill()
        replica.kill()
        promoted = replica.promote()
        write_past(promoted, 2, number, acked)
        recovered = crash_and_reopen(promoted)
        oracle = replica.mirror_replay()
        assert state_of(recovered) == state_of(oracle) == acked
        for key in acked:
            assert recovered.key_history(key) == oracle.key_history(key), key
        for shard in recovered.shard_stores:
            assert shard.recovery_report.suffix_bytes < 2 * RULE_BYTES
    finally:
        replica.stop()
        primary.stop()
        store.close()


def test_a_suspect_tree_commits_without_checkpointing():
    """While a failed structure modification has the tree suspect, commits
    still succeed: the rule skips the checkpoint that would refuse."""
    store = open_store(1)
    store.txns.requires_recovery = True
    anchor = store.backend.log_anchor
    acked: Dict[int, bytes] = {}
    number = 0
    while store.log_device.appended_bytes < 2 * RULE_BYTES:
        write_round(store, 1, 4 * number, number, acked)
        number += 1
    assert store.backend.log_anchor == anchor
