"""Crash recovery for the sharded store: every shard recovers independently.

A :class:`~repro.api.ShardedVersionStore` over WAL-enabled TSB-tree shards
gives each shard its own log device and log manager, whose forces its
committers share.  These tests kill the store mid-``put_many`` (and with
commits appended but not yet forced, :func:`~tests.crash_harness.forces_held`)
using the recovery subsystem's crash model — the volatile log tail
vanishes, the buffer pool dies, and each shard is reopened through the
façade from its own surviving devices (``VersionStore.open(config,
magnetic=, historical=, log_device=)`` runs restart recovery) — and assert that every shard independently recovers to a
*prefix-consistent* state: exactly the durably committed prefix of the
per-shard transaction sequence, never a partial transaction and never a
state that mixes a later commit with a missing earlier one.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Dict, List

import pytest

from repro.api import ShardSpec, StoreConfig, VersionStore
from tests.crash_harness import forces_held

#: A two-page pool per shard, far below any shard's working set: a logged
#: tree's pool is no-steal at any size, so recovery may not depend on it.
CACHE_PAGES = 2

KEY_SPACE = 30
SHARDS = 3


def open_sharded_wal() -> VersionStore:
    # Default page budget: no automatic splits at this data volume, so
    # ShardBatch.shard indices stay valid against shard_stores throughout.
    spec = ShardSpec.for_int_keys(SHARDS, key_space=KEY_SPACE)
    return VersionStore.open(
        StoreConfig(
            engine="tsb",
            page_size=512,
            wal=True,
            cache_pages=CACHE_PAGES,
            shards=spec,
        )
    )


def crash_and_recover(inner: VersionStore) -> Dict[object, bytes]:
    """Crash one shard honestly and return its recovered visible state.

    The unforced log tail is lost, the in-memory tree is abandoned, and the
    shard restarts from its magnetic/historical/log devices alone.  The
    reopen verifies the recovered tree against every structural invariant
    (it raises otherwise).
    """
    inner.log_device.lose_volatile_tail()
    magnetic, historical = inner.devices
    reopened = VersionStore.open(
        inner.config,
        magnetic=magnetic,
        historical=historical,
        log_device=inner.log_device,
    )
    assert reopened.recovery_report is not None
    return {
        version.key: version.value for version in reopened.backend.range_search()
    }


def shard_keys(store, keys) -> Dict[int, List[object]]:
    routed: Dict[int, List[object]] = {}
    for key in keys:
        routed.setdefault(store.shard_for(key), []).append(key)
    return routed


class TestKilledMidPutMany:
    def test_shards_before_the_kill_keep_the_batch_those_after_lose_it(
        self, monkeypatch
    ):
        """put_many commits shard groups in shard order; dying between two
        shard commits must leave every shard prefix-consistent."""
        store = open_sharded_wal()
        seed = [(key, f"seed-{key}".encode()) for key in range(KEY_SPACE)]
        store.put_many(seed)

        # Kill the process inside put_many: shard 0's group has committed,
        # shard 1's transaction never starts, shard 2 is never reached.
        victim = store.shard_stores[1]

        def killed():
            raise RuntimeError("process killed mid-put_many")

        monkeypatch.setattr(victim._txns, "begin", killed)
        batch = [(key, f"batch-{key}".encode()) for key in range(KEY_SPACE)]
        with pytest.raises(RuntimeError, match="mid-put_many"):
            store.put_many(batch)

        routed = shard_keys(store, range(KEY_SPACE))
        for index, inner in enumerate(store.shard_stores):
            recovered = crash_and_recover(inner)
            keys = routed[index]
            seed_state = {key: f"seed-{key}".encode() for key in keys}
            batch_state = {key: f"batch-{key}".encode() for key in keys}
            if index == 0:
                # Committed and forced before the kill.
                assert recovered == batch_state
            else:
                # The batch never reached these shards; the seed prefix
                # survives intact — not a partial batch.
                assert recovered == seed_state

    def test_unforced_group_commit_tail_rolls_back_to_a_batch_boundary(self):
        """The last rounds crash between their appends and their forces: the
        lost tail is whole transactions, and each shard recovers to exactly
        a prefix of its batch sequence."""
        store = open_sharded_wal()
        expected_prefixes: List[Dict[int, Dict[object, bytes]]] = []
        durable_batches = {index: 0 for index in range(SHARDS)}
        cumulative: Dict[int, Dict[object, bytes]] = {
            index: {} for index in range(SHARDS)
        }
        # A first snapshot: the empty prefix is a legal recovery target.
        expected_prefixes.append({i: dict(cumulative[i]) for i in range(SHARDS)})

        for round_index in range(5):
            items = [
                (key, f"r{round_index}-{key}".encode()) for key in range(KEY_SPACE)
            ]
            held = round_index >= 3
            with forces_held(store) if held else nullcontext():
                report = store.put_many_detailed(items)
            for batch in report.batches:
                for key, stamp in zip(batch.keys, batch.timestamps):
                    cumulative[batch.shard][key] = f"r{round_index}-{key}".encode()
                if not held:  # acknowledged, so forced
                    durable_batches[batch.shard] = round_index + 1
            expected_prefixes.append({i: dict(cumulative[i]) for i in range(SHARDS)})

        for index, inner in enumerate(store.shard_stores):
            recovered = crash_and_recover(inner)
            prefix_states = [snapshot[index] for snapshot in expected_prefixes]
            assert recovered in prefix_states, (
                f"shard {index} recovered to a state that is not a prefix "
                f"of its committed batch sequence"
            )
            # Durability is a lower bound: every batch whose commit was in
            # the forced prefix when put_many returned must have survived.
            recovered_rounds = prefix_states.index(recovered)
            assert recovered_rounds >= durable_batches[index]

    def test_shards_recover_to_independent_prefixes(self):
        """One shard's force must not drag another shard's tail to disk:
        recovery points genuinely differ per shard."""
        store = open_sharded_wal()
        # Batch 1 touches every shard: commit #1 per shard, appended and
        # not yet forced.
        with forces_held(store):
            store.put_many([(key, b"one") for key in range(KEY_SPACE)])
        # Batch 2 touches only shard 0: its commit #2's force covers
        # everything shard 0 appended, making *both* its commits durable.
        shard0_key = next(
            key for key in range(KEY_SPACE) if store.shard_for(key) == 0
        )
        store.put_many([(shard0_key, b"two")])

        recovered0 = crash_and_recover(store.shard_stores[0])
        assert recovered0[shard0_key] == b"two"
        routed = shard_keys(store, range(KEY_SPACE))
        assert set(recovered0) == set(routed[0])
        for index in (1, 2):
            recovered = crash_and_recover(store.shard_stores[index])
            assert recovered == {}, (
                f"shard {index}'s only commit was never forced; recovery "
                "must roll back to the empty prefix"
            )
