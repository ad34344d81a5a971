"""Cross-engine differential property harness (Hypothesis stateful).

One random interleaving of writes and queries is driven simultaneously
against every engine behind the :class:`~repro.api.VersionedEngine`
protocol **and** a key-range :class:`~repro.api.ShardedVersionStore`, and
every answer is checked against a plain dict-of-sorted-version-lists
oracle.  Because each store is checked against the same oracle on the same
stream, a passing run certifies *identical logical answers across all
engines and the sharded store* — the standing, randomized version of the
one-shot ``answers_digest`` check in the engine-matrix benchmark.

Layout:

* ``AllEnginesDifferential`` — tsb + wobt + naive + two sharded stores
  (one with aggressive auto-splitting so shard splits happen mid-run),
  puts and batched ``put_many`` only (the operations every engine
  supports), plus every query class.
* ``DeleteDifferential`` — the delete-capable stores (tsb and sharded
  tsb) with tombstone writes in the mix.
* ``WalDifferential`` — a WAL store and a splitting sharded WAL store, with
  stamped and auto-stamped inserts and deletes, multi-key batches at one
  stamp, interactive transactions that rewrite keys and commit or abort,
  one left open across a full checkpoint (committed, aborted or in flight
  at the next crash after it), a batch refused for an oversized record and,
  in the interleaving, a crash:
  everything volatile is lost and each store restarts from its devices and
  logs alone, still answering like the oracle and like a replay of its
  durable log into an empty tree.
* ``WalRuleDifferential`` — the same with the checkpoint rule's N patched
  down to a few commits' log, so automatic checkpoints land mid-run.
* The ``*Smoke`` variants run a small, derandomized budget in tier-1;
  the full machines are marked ``slow`` and run nightly under
  ``HYPOTHESIS_PROFILE=nightly`` (500+ examples; see tests/conftest.py).

Failures shrink to a minimal rule sequence and replay deterministically
(``print_blob`` is on, and the smoke machines are fully derandomized).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import pytest
from hypothesis import event, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.api import ShardedVersionStore, ShardSpec, StoreConfig, VersionStore
from repro.core.tsb_tree import RecordTooLargeError
from repro.recovery import log_manager
from repro.recovery.replay import replay_device
from tests.crash_harness import crash_and_reopen
from tests.strategies import small_values

#: A small closed key pool so puts, updates, deletes and queries collide.
KEY_POOL = list(range(24))
keys = st.sampled_from(KEY_POOL)

#: Keys only ``WalDifferential.carried_transaction`` writes, so no other rule
#: waits on the record locks of the transaction it leaves open.
carried_keys = st.sampled_from(range(100, 106))

#: Clock jumps between writes (always forward: every engine rejects
#: backdated commits, uniformly).
jumps = st.integers(min_value=1, max_value=3)

#: Scale factors for probing timestamps: 0 .. ~1.2 * clock, so queries hit
#: before-the-beginning, mid-history and after-the-end alike.
probe_scales = st.integers(min_value=0, max_value=120)

#: The checkpoint rule's N under ``WalRuleDifferential``: a few commits' log.
RULE_BYTES = 256


class DictOracle:
    """Ground truth: a dict of per-key sorted ``(timestamp, value)`` lists.

    Tombstones are stored as ``None`` values, so validity windows are
    computed over the *full* write history while visible answers filter
    them out — the same split every engine implements in pages.
    """

    def __init__(self) -> None:
        self.history: Dict[object, List[Tuple[int, Optional[bytes]]]] = {}

    def write(self, key, timestamp: int, value: Optional[bytes]) -> None:
        versions = self.history.setdefault(key, [])
        versions.append((timestamp, value))
        versions.sort(key=lambda item: item[0])

    def has_slot(self, key, timestamp: int) -> bool:
        return any(stamp == timestamp for stamp, _ in self.history.get(key, []))

    def as_of(self, key, timestamp: int) -> Optional[Tuple[int, bytes]]:
        answer: Optional[Tuple[int, Optional[bytes]]] = None
        for stamp, value in self.history.get(key, []):
            if stamp <= timestamp:
                answer = (stamp, value)
        if answer is None or answer[1] is None:
            return None
        return answer  # type: ignore[return-value]

    def current(self, key) -> Optional[Tuple[int, bytes]]:
        return self.as_of(key, 2**62)

    def snapshot(self, timestamp: int) -> Dict[object, Tuple[int, bytes]]:
        state = {}
        for key in self.history:
            answer = self.as_of(key, timestamp)
            if answer is not None:
                state[key] = answer
        return state

    def range_answers(
        self, low, high, as_of: int
    ) -> List[Tuple[object, int, bytes]]:
        rows = []
        for key in sorted(self.history):
            if low is not None and key < low:
                continue
            if high is not None and not key < high:
                continue
            answer = self.as_of(key, as_of)
            if answer is not None:
                rows.append((key, answer[0], answer[1]))
        return rows

    def visible_history(self, key) -> List[Tuple[int, bytes]]:
        return [
            (stamp, value)
            for stamp, value in self.history.get(key, [])
            if value is not None
        ]

    def history_between(self, key, start: int, end: int) -> List[Tuple[int, bytes]]:
        if start >= end:
            return []  # an empty window contains no points
        versions = self.history.get(key, [])
        rows = []
        for position, (stamp, value) in enumerate(versions):
            next_stamp = (
                versions[position + 1][0] if position + 1 < len(versions) else None
            )
            if stamp >= end:
                continue
            if next_stamp is not None and next_stamp <= start:
                continue  # superseded before the window opened
            if value is not None:
                rows.append((stamp, value))
        return rows


def record_tuple(record):
    return None if record is None else (record.timestamp, record.value)


class DifferentialMachine(RuleBasedStateMachine):
    """Shared write/query rules; subclasses declare the store fleet."""

    def stores(self) -> Dict[str, VersionStore]:  # pragma: no cover - abstract
        raise NotImplementedError

    def __init__(self) -> None:
        super().__init__()
        self.fleet = self.stores()
        self.oracle = DictOracle()
        self.clock = 0

    # ------------------------------------------------------------------
    # Writes (applied identically to every store and the oracle)
    # ------------------------------------------------------------------
    @rule(key=keys, value=small_values, jump=jumps)
    def put(self, key, value, jump):
        timestamp = self.clock + jump
        for name, store in self.fleet.items():
            stamped = store.insert(key, value, timestamp=timestamp)
            assert stamped == timestamp, name
        self.oracle.write(key, timestamp, value)
        self.clock = timestamp

    @rule(key=keys, value=small_values)
    def put_at_current_clock(self, key, value):
        """A second key committing at an already-used timestamp (multi-key
        transactions stamp their writes this way)."""
        if self.clock == 0 or self.oracle.has_slot(key, self.clock):
            return
        for store in self.fleet.values():
            store.insert(key, value, timestamp=self.clock)
        self.oracle.write(key, self.clock, value)

    @rule(pairs=st.lists(st.tuples(keys, small_values), min_size=1, max_size=5))
    def put_many(self, pairs):
        """Batched writes must answer exactly like sequential writes."""
        expected = [self.clock + 1 + index for index in range(len(pairs))]
        for name, store in self.fleet.items():
            assert store.put_many(pairs) == expected, name
        for (key, value), timestamp in zip(pairs, expected):
            self.oracle.write(key, timestamp, value)
        self.clock = expected[-1]

    # ------------------------------------------------------------------
    # Queries (every store must equal the oracle, hence each other)
    # ------------------------------------------------------------------
    def probe(self, scale: int) -> int:
        return (self.clock * scale) // 100

    @rule(key=keys)
    def check_get(self, key):
        expected = self.oracle.current(key)
        for name, store in self.fleet.items():
            assert record_tuple(store.get(key)) == expected, name

    @rule(key=keys, scale=probe_scales)
    def check_as_of(self, key, scale):
        timestamp = self.probe(scale)
        expected = self.oracle.as_of(key, timestamp)
        for name, store in self.fleet.items():
            assert record_tuple(store.get_as_of(key, timestamp)) == expected, name

    @rule(low=st.none() | keys, high=st.none() | keys, scale=probe_scales)
    def check_range(self, low, high, scale):
        if low is not None and high is not None and high < low:
            low, high = high, low
        as_of = self.probe(scale)
        expected = self.oracle.range_answers(low, high, as_of)
        for name, store in self.fleet.items():
            observed = [
                (record.key, record.timestamp, record.value)
                for record in store.range_search(low, high, as_of=as_of)
            ]
            assert observed == expected, name

    @rule(scale=probe_scales)
    def check_snapshot(self, scale):
        timestamp = self.probe(scale)
        expected = self.oracle.snapshot(timestamp)
        for name, store in self.fleet.items():
            observed = {
                key: (record.timestamp, record.value)
                for key, record in store.snapshot(timestamp).items()
            }
            assert observed == expected, name

    @rule(key=keys)
    def check_key_history(self, key):
        expected = self.oracle.visible_history(key)
        for name, store in self.fleet.items():
            observed = [
                (record.timestamp, record.value) for record in store.key_history(key)
            ]
            assert observed == expected, name

    @rule(key=keys, scale=probe_scales, width=st.integers(0, 40))
    def check_history_between(self, key, scale, width):
        start = self.probe(scale)
        end = start + width
        expected = self.oracle.history_between(key, start, end)
        for name, store in self.fleet.items():
            observed = [
                (record.timestamp, record.value)
                for record in store.history_between(key, start, end)
            ]
            assert observed == expected, name

    @rule(
        low=st.none() | keys,
        high=st.none() | keys,
        scale=probe_scales,
        width=st.integers(0, 40),
    )
    def check_time_slice(self, low, high, scale, width):
        """Every engine, single or sharded: the same key-sorted slice (an
        inverted key range holds no keys, an empty window no versions)."""
        start = self.probe(scale)
        end = start + width
        expected = []
        for key in sorted(self.oracle.history):
            if (low is None or not key < low) and (high is None or key < high):
                rows = self.oracle.history_between(key, start, end)
                if rows:
                    expected.append((key, rows))
        for name, store in self.fleet.items():
            observed = [
                (key, [(record.timestamp, record.value) for record in records])
                for key, records in store.time_slice(start, end, low, high).items()
            ]
            assert observed == expected, name

    @invariant()
    def clocks_agree(self):
        for name, store in self.fleet.items():
            assert store.now == self.clock, name

    def teardown(self):
        for store in self.fleet.values():
            store.close()


class AllEnginesDifferential(DifferentialMachine):
    """Every engine plus two sharded fleets; the delete-free common core."""

    def stores(self) -> Dict[str, VersionStore]:
        static = ShardSpec.for_int_keys(3, key_space=len(KEY_POOL))
        # Aggressive thresholds so shard splits fire *during* machine runs.
        splitty = ShardSpec(
            boundaries=(8,),
            split_utilization=0.5,
            shard_page_budget=3,
            max_shards=6,
        )
        return {
            "tsb": VersionStore.open(StoreConfig(engine="tsb", page_size=256)),
            "wobt": VersionStore.open(StoreConfig(engine="wobt", page_size=256)),
            "naive": VersionStore.open(StoreConfig(engine="naive", page_size=256)),
            "sharded-tsb": VersionStore.open(
                StoreConfig(engine="tsb", page_size=256, shards=static)
            ),
            "sharded-naive-splitting": VersionStore.open(
                StoreConfig(engine="naive", page_size=256, shards=splitty)
            ),
        }


class DeleteDifferential(DifferentialMachine):
    """The delete-capable stores with tombstones in the interleaving."""

    def stores(self) -> Dict[str, VersionStore]:
        splitty = ShardSpec(
            boundaries=(12,),
            split_utilization=0.5,
            shard_page_budget=3,
            max_shards=6,
        )
        return {
            "tsb": VersionStore.open(StoreConfig(engine="tsb", page_size=256)),
            "sharded-tsb-splitting": VersionStore.open(
                StoreConfig(engine="tsb", page_size=256, shards=splitty)
            ),
        }

    @rule(key=keys, jump=jumps)
    def delete(self, key, jump):
        timestamp = self.clock + jump
        for name, store in self.fleet.items():
            stamped = store.delete(key, timestamp=timestamp)
            assert stamped == timestamp, name
        self.oracle.write(key, timestamp, None)
        self.clock = timestamp


class WalDifferential(DeleteDifferential):
    """Stores under a log: every façade mutation is a logged transaction,
    so a crash anywhere in the interleaving loses nothing acknowledged."""

    #: The interactive transaction ``carried_transaction`` left in flight.
    open_txn = None

    def stores(self) -> Dict[str, VersionStore]:
        splitty = ShardSpec(
            boundaries=(12,),
            split_utilization=0.5,
            shard_page_budget=3,
            max_shards=6,
        )
        # An acknowledgement follows a log force.
        wal = StoreConfig(engine="tsb", page_size=256, wal=True)
        return {
            "tsb-wal": VersionStore.open(wal),
            "sharded-tsb-wal-splitting": VersionStore.open(wal, shards=splitty),
        }

    @rule(key=keys, value=small_values)
    def put_many(self, key, value):
        """One pair: a longer batch shares stamps per run and per shard."""
        event("wal rule: put_many of one pair")
        for name, store in self.fleet.items():
            assert store.put_many([(key, value)]) == [self.clock + 1], name
        self.clock += 1
        self.oracle.write(key, self.clock, value)

    @rule(key=keys, value=st.none() | small_values)
    def write_auto_stamped(self, key, value):
        event(f"wal rule: auto-stamped {'delete' if value is None else 'insert'}")
        for name, store in self.fleet.items():
            stamped = store.delete(key) if value is None else store.insert(key, value)
            assert stamped == self.clock + 1, name
        self.clock += 1
        self.oracle.write(key, self.clock, value)

    def one_shard(self, batch):
        """The keys of ``batch`` on the first one's shard of the sharded
        store, so that store too commits them as one transaction."""
        sharded = self.fleet["sharded-tsb-wal-splitting"]
        shard = sharded.shard_for(batch[0])
        return [key for key in batch if sharded.shard_for(key) == shard]

    @rule(batch=st.lists(keys, min_size=2, max_size=8, unique=True), value=small_values)
    def put_many_at_one_stamp(self, batch, value):
        """Distinct keys of one transaction share its stamp: the batch whose
        earlier keys a split sees as committed versions."""
        pairs = [(key, value + b"%d" % key) for key in self.one_shard(batch)]
        event(f"wal rule: batch at one stamp of {'one key' if len(pairs) == 1 else 'several keys'}")
        stamp = self.clock + 1
        for name, store in self.fleet.items():
            assert store.put_many(pairs) == [stamp] * len(pairs), name
        for key, value in pairs:
            self.oracle.write(key, stamp, value)
        self.clock = stamp

    @rule(
        writes=st.lists(st.tuples(keys, st.none() | small_values), min_size=1, max_size=6),
        commit=st.booleans(),
    )
    def interactive_transaction(self, writes, commit):
        """``begin()``/``write()``/``delete()`` on the single store, keys
        rewritten at will: the last word per key commits, or nothing does.
        The sharded store has no interactive transactions; it takes the
        committed effect as imported events at the same stamp."""
        txn = self.fleet["tsb-wal"].begin()
        for key, value in writes:
            if value is None:
                txn.delete(key)
            else:
                txn.write(key, value)
        rewrites = "with" if len(dict(writes)) < len(writes) else "without"
        event(f"wal rule: interactive {'commit' if commit else 'abort'} {rewrites} rewrites")
        if not commit:
            txn.abort()
            return
        self.commit_interactive(txn, dict(writes))

    def commit_interactive(self, txn, last):
        """Commit ``txn``, whose last word per key is ``last``; the sharded
        store imports the same effect at the same stamp."""
        stamp = txn.commit()
        assert stamp == self.clock + 1
        events = [(stamp, key, value is None, value or b"") for key, value in last.items()]
        self.fleet["sharded-tsb-wal-splitting"].import_events(events)
        for key, value in last.items():
            self.oracle.write(key, stamp, value)
        self.clock = stamp

    @precondition(lambda self: self.open_txn is None)
    @rule(
        writes=st.lists(
            st.tuples(carried_keys, st.none() | small_values), min_size=1, max_size=4
        ),
        rewrite=st.none() | small_values,
        fate=st.sampled_from(["commit", "abort", "in flight"]),
    )
    def carried_transaction(self, writes, rewrite, fate):
        """An interactive transaction open across a full checkpoint, so the
        image carries its provisional versions; one of its keys is rewritten
        after the checkpoint.  Then it commits, aborts, or stays in flight
        until the next ``crash``, whose restart must erase it."""
        event(f"wal rule: carried transaction, {fate}")
        store = self.fleet["tsb-wal"]
        txn = store.begin()
        for key, value in writes:
            if value is None:
                txn.delete(key)
            else:
                txn.write(key, value)
        store.checkpoint()
        rewritten = writes[0][0]
        if rewrite is None:
            txn.delete(rewritten)
        else:
            txn.write(rewritten, rewrite)
        if fate == "commit":
            self.commit_interactive(txn, {**dict(writes), rewritten: rewrite})
        elif fate == "abort":
            txn.abort()
        else:
            self.open_txn = txn

    @rule(batch=st.lists(keys, min_size=3, max_size=3, unique=True), value=small_values)
    def refused_batch(self, batch, value):
        """A record too large for a page amid ones that fit: refused whole,
        nothing logged, nothing written, the clock where it was."""
        batch = self.one_shard(batch)
        event(f"wal rule: refused batch of {len(batch)} keys")
        oversized = min(1, len(batch) - 1)
        pairs = [(key, b"x" * 300 if at == oversized else value) for at, key in enumerate(batch)]
        for name, store in self.fleet.items():
            with pytest.raises(RecordTooLargeError):
                store.put_many(pairs)
            for inner in store.shard_stores if isinstance(store, ShardedVersionStore) else [store]:
                assert not inner.txns.requires_recovery, name

    @rule()
    def crash(self):
        """Everything volatile is lost; each store restarts from its devices
        and must equal a replay of its durable log into an empty tree."""
        event("wal rule: crash")
        self.open_txn = None  # dies with the crash: a loser the restart erases
        self.fleet = {name: crash_and_reopen(store) for name, store in self.fleet.items()}
        for name, store in self.fleet.items():
            for inner in store.shard_stores if isinstance(store, ShardedVersionStore) else [store]:
                tree = inner.backend
                assert not [
                    v for node in tree.data_nodes() for v in node.versions if v.timestamp is None
                ], name
                rebuilt = replay_device(inner.log_device).tree
                assert rebuilt.keys() == tree.keys(), name
                for key in tree.keys():
                    assert rebuilt.key_history(key) == tree.key_history(key), (name, key)


class WalRuleDifferential(WalDifferential):
    """``WalDifferential`` with the checkpoint rule's N patched down to
    ``RULE_BYTES``, so automatic checkpoints land between the rules and a
    crash restarts from the image one of them left."""

    def __init__(self) -> None:
        self.rule_bytes = log_manager.CHECKPOINT_EVERY_BYTES
        log_manager.CHECKPOINT_EVERY_BYTES = RULE_BYTES
        super().__init__()
        self.anchor = self.fleet["tsb-wal"].backend.log_anchor

    @invariant()
    def automatic_checkpoints(self):
        anchor = self.fleet["tsb-wal"].backend.log_anchor
        if anchor != self.anchor:
            event("wal rule: automatic checkpoint")
            self.anchor = anchor

    @rule()
    def crash(self):
        super().crash()
        self.anchor = self.fleet["tsb-wal"].backend.log_anchor  # the reopen's own

    def teardown(self):
        try:
            super().teardown()
        finally:
            log_manager.CHECKPOINT_EVERY_BYTES = self.rule_bytes


# ----------------------------------------------------------------------
# Tier-1 smoke machines: small, fully deterministic, always on.
# ----------------------------------------------------------------------
_SMOKE = settings(
    max_examples=12, stateful_step_count=15, deadline=None, derandomize=True
)

TestAllEnginesSmoke = pytest.mark.differential(AllEnginesDifferential.TestCase)
TestAllEnginesSmoke.settings = _SMOKE

TestDeleteSmoke = pytest.mark.differential(DeleteDifferential.TestCase)
TestDeleteSmoke.settings = _SMOKE

TestWalSmoke = pytest.mark.differential(WalDifferential.TestCase)
TestWalSmoke.settings = _SMOKE

TestWalRuleSmoke = pytest.mark.differential(WalRuleDifferential.TestCase)
TestWalRuleSmoke.settings = _SMOKE


# ----------------------------------------------------------------------
# Nightly machines: budget comes from the Hypothesis profile
# (HYPOTHESIS_PROFILE=nightly -> 500 examples, 30 steps each).
# ----------------------------------------------------------------------
class AllEnginesDifferentialFull(AllEnginesDifferential):
    pass


class DeleteDifferentialFull(DeleteDifferential):
    pass


class WalDifferentialFull(WalDifferential):
    pass


TestAllEnginesFull = pytest.mark.slow(
    pytest.mark.differential(AllEnginesDifferentialFull.TestCase)
)
TestAllEnginesFull.settings = settings(deadline=None)

TestDeleteFull = pytest.mark.slow(
    pytest.mark.differential(DeleteDifferentialFull.TestCase)
)
TestDeleteFull.settings = settings(deadline=None)

TestWalFull = pytest.mark.slow(pytest.mark.differential(WalDifferentialFull.TestCase))
TestWalFull.settings = settings(deadline=None)
