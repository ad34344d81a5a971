"""The crash harness the suites share: one crash function, the crashable
fixture built on it, deterministic transactional scripts with their
durable-prefix oracle, and byte-level replicated crash injection.

The crash-injection methodology is: generate one randomized but fully
deterministic script of transactional steps, then for every prefix of that
script build a fresh :class:`RecoverableSystem`, execute the prefix, crash,
recover, and compare the recovered tree against an independently computed
oracle.  The oracle is deliberately trivial — a list of (commit LSN, writes)
events filtered by what the log had forced at the crash — so if the tree and
the oracle disagree, recovery is wrong.

The *committed prefix* a crash must preserve is defined by the log, not by
the API: a transaction whose ``commit()`` returned but whose commit record
sat in the unforced tail (group commit!) is correctly lost, and a
transaction whose commit record was forced must be fully present.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.api import ShardedVersionStore, StoreConfig, VersionStore
from repro.core.policy import SplitPolicy
from repro.recovery import RecoveryReport
from repro.recovery.replay import replay_device
from repro.storage.logdevice import LogDevice
from repro.storage.magnetic import MagneticDisk
from repro.storage.serialization import Key
from repro.txn.manager import Transaction, TransactionState


def crash_and_reopen(store: VersionStore) -> VersionStore:
    """Crash a WAL store honestly — the unforced log tail and everything in
    memory are gone — and reopen it from its devices alone."""
    if isinstance(store, ShardedVersionStore):
        triples = []
        for inner in store.shard_stores:
            inner.log_device.lose_volatile_tail()
            triples.append((*inner.devices, inner.log_device))
        return ShardedVersionStore.resume_sharded(
            store.config,
            shard_devices=triples,
            boundaries=store.sharded_engine.boundaries,
        )
    store.log_device.lose_volatile_tail()
    magnetic, historical = store.devices
    return VersionStore.open(
        store.config, magnetic=magnetic, historical=historical, log_device=store.log_device
    )


class RecoverableSystem:
    """A ``wal=True`` store with its parts in reach and an honest ``crash()``.

    ``tree``, ``log``, ``txns`` and the three devices are the live store's;
    after :meth:`crash` they are the reopened store's, with LSNs, commit
    timestamps and transaction ids continuing from what the durable log
    says.  Passing a bounded ``magnetic`` device is how the failure-injection
    tests crash the system mid-split; recovery must not depend on
    ``cache_pages``, and the crash tests run at a single page to hold the
    pool to that.
    """

    def __init__(
        self,
        page_size: int = 512,
        policy: Optional[SplitPolicy] = None,
        group_commit_size: int = 1,
        magnetic: Optional[MagneticDisk] = None,
        cache_pages: int = 128,
    ) -> None:
        config = StoreConfig(
            engine="tsb",
            page_size=page_size,
            split_policy=policy,
            cache_pages=cache_pages,
            wal=True,
            group_commit_size=group_commit_size,
        )
        self._adopt(VersionStore.open(config, magnetic=magnetic))

    def _adopt(self, store: VersionStore) -> None:
        self.store = store
        self.tree = store.backend
        self.log = store.log
        self.txns = store.txns
        self.magnetic, self.historical = store.devices
        self.log_device = store.log_device

    def begin(self) -> Transaction:
        return self.txns.begin()

    def checkpoint(self, fuzzy: bool = False) -> int:
        """Take a checkpoint through the log manager; return its LSN."""
        return self.log.checkpoint(self.tree, self.txns, fuzzy=fuzzy)

    def commit_is_durable(self, txn: Transaction) -> bool:
        """Whether ``txn``'s commit record would survive a crash right now."""
        return txn.commit_lsn is not None and self.log.is_durable(txn.commit_lsn)

    def crash(self) -> RecoveryReport:
        """Crash the system and restart it from the surviving devices.

        What survives is what real hardware keeps — the magnetic pages as of
        the last full checkpoint (no-steal), the write-once historical
        regions, and the forced log prefix.  The reopen verifies the rebuilt
        tree against every structural invariant and raises
        :class:`~repro.recovery.RecoveryError` on any violation.

        Transaction handles from before the crash are dead: their
        transactions are marked aborted and their manager is detached from
        the log, so a stale ``commit()`` raises instead of silently writing
        into the post-crash log.
        """
        for txn in self.txns.active_transactions():
            txn.state = TransactionState.ABORTED
        self.txns.log = None
        self._adopt(crash_and_reopen(self.store))
        return self.store.recovery_report


@dataclass(frozen=True)
class ScriptStep:
    """One step of a transactional script.

    ``kind`` is one of ``begin``, ``write``, ``delete``, ``commit``,
    ``abort``, ``checkpoint``, ``fuzzy-checkpoint``; ``slot`` names one of a
    small pool of concurrent transaction slots; ``key``/``value`` apply to
    write and delete steps.
    """

    kind: str
    slot: int = 0
    key: Optional[Key] = None
    value: bytes = b""


def generate_script(
    steps: int,
    key_space: int = 8,
    slots: int = 3,
    seed: int = 0,
    checkpoint_every: float = 0.06,
    abort_fraction: float = 0.15,
) -> List[ScriptStep]:
    """Generate a valid random script of ``steps`` transactional steps.

    The generator mirrors the slot state machine a runner keeps, so every
    produced script is executable: writes only target open transactions,
    commits and aborts only close open ones, and every key is locked by at
    most one open transaction at a time (the lock manager would refuse
    anything else).
    """
    rng = random.Random(seed)
    script: List[ScriptStep] = []
    open_slots: Dict[int, List[Key]] = {}
    locked: set = set()
    serial = 0

    while len(script) < steps:
        choices: List[str] = []
        if len(open_slots) < slots:
            choices.append("begin")
        if open_slots:
            choices.extend(["write"] * 4)
            if any(open_slots.values()):
                choices.extend(["commit", "commit", "abort" if rng.random() < abort_fraction else "commit"])
            choices.append("delete")
        if rng.random() < checkpoint_every:
            choices.append("fuzzy-checkpoint" if rng.random() < 0.4 else "checkpoint")

        kind = rng.choice(choices)
        if kind == "begin":
            slot = min(set(range(slots)) - set(open_slots))
            open_slots[slot] = []
            script.append(ScriptStep(kind="begin", slot=slot))
        elif kind in ("write", "delete"):
            slot = rng.choice(sorted(open_slots))
            own = set(open_slots[slot])
            free = [k for k in range(key_space) if k not in locked or k in own]
            if not free:
                continue
            key = rng.choice(free)
            locked.add(key)
            if key not in own:
                open_slots[slot].append(key)
            serial += 1
            value = f"s{seed}-{serial}-k{key}".encode()
            script.append(ScriptStep(kind=kind, slot=slot, key=key, value=value))
        elif kind in ("commit", "abort"):
            slot = rng.choice(sorted(open_slots))
            for key in open_slots.pop(slot):
                locked.discard(key)
            script.append(ScriptStep(kind=kind, slot=slot))
        else:
            script.append(ScriptStep(kind=kind))
    return script


@dataclass
class ScriptRunner:
    """Executes a script against a system while keeping the durable oracle.

    ``commit_events`` accumulates ``(commit_lsn, writes)`` pairs where
    ``writes`` maps key to value (or ``None`` for a delete).  The expected
    visible state after a crash is the fold of all events whose commit LSN
    the log had forced — see :meth:`expected_visible`.
    """

    system: RecoverableSystem
    slots: Dict[int, object] = field(default_factory=dict)
    slot_writes: Dict[int, Dict[Key, Optional[bytes]]] = field(default_factory=dict)
    #: (commit LSN, commit timestamp, writes) per committed transaction
    commit_events: List[Tuple[int, int, Dict[Key, Optional[bytes]]]] = field(
        default_factory=list
    )

    def run(self, script: List[ScriptStep]) -> None:
        for step in script:
            self.apply(step)

    def apply(self, step: ScriptStep) -> None:
        if step.kind == "begin":
            self.slots[step.slot] = self.system.begin()
            self.slot_writes[step.slot] = {}
        elif step.kind == "write":
            self.slots[step.slot].write(step.key, step.value)
            self.slot_writes[step.slot][step.key] = step.value
        elif step.kind == "delete":
            self.slots[step.slot].delete(step.key)
            self.slot_writes[step.slot][step.key] = None
        elif step.kind == "commit":
            txn = self.slots.pop(step.slot)
            timestamp = txn.commit()
            self.commit_events.append(
                (txn.commit_lsn, timestamp, self.slot_writes.pop(step.slot))
            )
        elif step.kind == "abort":
            self.slots.pop(step.slot).abort()
            self.slot_writes.pop(step.slot)
        elif step.kind == "checkpoint":
            self.system.checkpoint()
        elif step.kind == "fuzzy-checkpoint":
            self.system.checkpoint(fuzzy=True)
        else:
            raise ValueError(f"unknown script step kind {step.kind!r}")

    # ------------------------------------------------------------------
    # Oracle
    # ------------------------------------------------------------------
    def expected_visible(self, flushed_lsn: Optional[int] = None) -> Dict[Key, bytes]:
        """Visible state implied by the durable committed prefix.

        ``flushed_lsn`` defaults to the log's current durable horizon —
        call this *before* :meth:`RecoverableSystem.crash`
        (recovery itself appends a fresh checkpoint, moving the horizon).
        """
        if flushed_lsn is None:
            flushed_lsn = self.system.log.flushed_lsn
        state: Dict[Key, Optional[bytes]] = {}
        for lsn, _timestamp, writes in self.commit_events:
            if lsn <= flushed_lsn:
                state.update(writes)
        return {key: value for key, value in state.items() if value is not None}

    def durable_high_water(self, flushed_lsn: Optional[int] = None) -> int:
        """Largest commit timestamp among durably committed transactions."""
        if flushed_lsn is None:
            flushed_lsn = self.system.log.flushed_lsn
        durable = [ts for lsn, ts, _ in self.commit_events if lsn <= flushed_lsn]
        return max(durable, default=0)


# ----------------------------------------------------------------------
# Replicated crash injection
# ----------------------------------------------------------------------
@dataclass
class ReplicaCheck:
    """One survivor's prefix-consistency verdict after a crash."""

    replica: int
    applied_lsn: int
    consistent: bool
    missing: Dict[Key, bytes]
    extra: Dict[Key, bytes]


class ReplicatedCrashHarness:
    """Crash injection for the replication tier, on top of :class:`ScriptRunner`.

    The harness models WAL shipping at the byte level, which is exactly what
    :class:`~repro.replication.primary.ReplicationPrimary` does on the wire:
    every replica's mirror :class:`~repro.storage.logdevice.LogDevice` holds
    a contiguous **byte prefix** of the primary's durable log.  :meth:`ship`
    may cut that prefix anywhere — including mid-record — so killing the
    primary or a replica between ships is indistinguishable from a machine
    loss mid-frame.  A torn record at a mirror's tail is simply ignored by
    replay (``decode_stream`` stops at the first incomplete frame) and is
    *completed* by the next catch-up bytes, because prefixes of the same
    byte stream always realign.

    The correctness claims the harness checks:

    * **Prefix consistency** (:meth:`check_survivors`): each live replica's
      mirror, replayed through :class:`~repro.recovery.replay.LogReplayer`,
      yields exactly the runner's oracle state at that replica's applied LSN
      — no lost committed transaction below it, no phantom above it.
    * **Convergence** (:meth:`converge`): after electing the survivor with
      the longest durable prefix and shipping its suffix to the others, all
      survivors agree byte-for-byte and state-for-state.
    """

    def __init__(
        self,
        system: RecoverableSystem,
        runner: ScriptRunner,
        replicas: int = 2,
    ) -> None:
        if replicas < 1:
            raise ValueError("need at least one replica")
        self.system = system
        self.runner = runner
        self.mirrors = [LogDevice(name=f"mirror{i}") for i in range(replicas)]
        self.replica_alive = [True] * replicas
        self.primary_alive = True

    @classmethod
    def fresh(cls, replicas: int = 2, **system_kwargs) -> "ReplicatedCrashHarness":
        system = RecoverableSystem(**system_kwargs)
        return cls(system, ScriptRunner(system), replicas=replicas)

    # ------------------------------------------------------------------
    # Failure injection
    # ------------------------------------------------------------------
    def ship(self, replica: int, max_bytes: Optional[int] = None) -> int:
        """Ship up to ``max_bytes`` new durable log bytes to ``replica``.

        Only the primary's *durable* prefix ships (unforced group-commit
        tails are invisible to subscribers).  A ``max_bytes`` cut may land
        mid-record — that is the point: it is the wire state at the instant
        a kill lands.  Returns the bytes shipped.
        """
        if not self.primary_alive:
            raise RuntimeError("primary is dead: nothing ships")
        if not self.replica_alive[replica]:
            raise RuntimeError(f"replica {replica} is dead: cannot receive")
        mirror = self.mirrors[replica]
        data = self.system.log_device.durable_contents()
        pending = data[mirror.appended_bytes :]
        if max_bytes is not None:
            pending = pending[:max_bytes]
        if not pending:
            return 0
        mirror.append(pending)
        mirror.force()
        return len(pending)

    def ship_all(self, max_bytes: Optional[int] = None) -> List[int]:
        return [
            self.ship(i, max_bytes=max_bytes) if alive else 0
            for i, alive in enumerate(self.replica_alive)
        ]

    def kill_primary(self) -> None:
        """The primary machine is lost mid-stream; no further ships."""
        self.primary_alive = False

    def kill_replica(self, replica: int) -> None:
        """A replica machine is lost; its unforced tail goes with it."""
        self.mirrors[replica].lose_volatile_tail()
        self.replica_alive[replica] = False

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def survivors(self) -> List[int]:
        return [i for i, alive in enumerate(self.replica_alive) if alive]

    def replayer(self, replica: int):
        """Replay ``replica``'s mirror into a fresh tree (ground truth)."""
        return replay_device(self.mirrors[replica])

    def durable_lsns(self) -> Dict[int, int]:
        """Highest whole-record LSN in each live survivor's mirror."""
        return {i: self.replayer(i).applied_lsn for i in self.survivors()}

    def elect(self) -> int:
        """The survivor with the longest durable prefix wins the election."""
        lsns = self.durable_lsns()
        if not lsns:
            raise RuntimeError("no surviving replica to elect")
        return max(lsns, key=lambda i: (lsns[i], -i))

    # ------------------------------------------------------------------
    # Oracle checks
    # ------------------------------------------------------------------
    def check_survivors(self) -> List[ReplicaCheck]:
        """Prefix-consistency verdict for every live survivor.

        Each survivor is compared against the runner's oracle *at its own
        applied LSN*: replicas at different prefix lengths are individually
        consistent even before they converge.
        """
        checks: List[ReplicaCheck] = []
        for replica in self.survivors():
            replayer = self.replayer(replica)
            expected = self.runner.expected_visible(replayer.applied_lsn)
            actual = replayer.visible_state()
            missing = {
                key: value for key, value in expected.items()
                if actual.get(key) != value
            }
            extra = {
                key: value for key, value in actual.items()
                if expected.get(key) != value
            }
            checks.append(
                ReplicaCheck(
                    replica=replica,
                    applied_lsn=replayer.applied_lsn,
                    consistent=not missing and not extra,
                    missing=missing,
                    extra=extra,
                )
            )
        return checks

    def converge(self) -> List[ReplicaCheck]:
        """Catch every survivor up to the elected leader, then re-check.

        Ships the leader's durable suffix to each shorter survivor (byte
        prefixes of one stream realign exactly, completing any torn tail)
        and returns the post-convergence checks — all at the leader's LSN.
        """
        leader = self.elect()
        leader_data = self.mirrors[leader].durable_contents()
        for replica in self.survivors():
            if replica == leader:
                continue
            mirror = self.mirrors[replica]
            suffix = leader_data[mirror.appended_bytes :]
            if suffix:
                mirror.append(suffix)
                mirror.force()
        checks = self.check_survivors()
        lsns = {check.applied_lsn for check in checks}
        if len(lsns) > 1:
            raise AssertionError(
                f"survivors failed to converge: applied LSNs {sorted(lsns)}"
            )
        return checks
