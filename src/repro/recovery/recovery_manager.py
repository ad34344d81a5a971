"""Restart recovery: rebuild exactly the committed state after a crash.

Recovery has to reconstruct the *one* serialization the timestamp oracle
chose before the crash — committed transactions with their original commit
timestamps, and nothing else.  Given the surviving devices (magnetic disk
holding the last full checkpoint's image, historical WORM disk, and the
durable prefix of the log), :class:`RecoveryManager` does what a follower
does with a shipped log, from a different starting tree: it reopens the tree
from the superblock and streams the durable log, from the checkpoint the
superblock anchors to the end, through one
:class:`~repro.recovery.replay.LogReplayer`.

The replayer seeds itself from the anchored CHECKPOINT record (whose
active-transaction table names the provisional versions inside the image).
At each COMMIT it writes the transaction's keys as committed versions at the
logged timestamp through the tree's ordinary ``insert``/``delete`` — the
calls the forward write path makes — and stamps the carried provisional
versions in place; at an ABORT it erases those.  Splits, migration and all
tree invariants are therefore maintained by the same code that maintained
them before the crash.  Nothing is applied
before a COMMIT arrives, so there is no undo pass; when the log ends, the
transactions still in flight are the losers, and the only trace they can
have left is what the checkpoint image carried, which is erased then.

Two housekeeping steps bracket the replay: magnetic pages that were
allocated after the checkpoint but never linked into the anchored tree are
swept back to the free list before anything is replayed (so replay can reuse
them — vital when the crash was caused by device exhaustion), and the
rebuilt tree is verified against every structural invariant in
:mod:`repro.core.checker` before it is handed back.  The sweep walks the
current tree only: it descends through magnetic addresses and never reads
the historical device, because a historical node can point only at
historical pages (the tier invariant, which the verification after replay
checks).  The report times the three phases (``reclaim_s``, ``replay_s``,
``verify_s``) and counts the log bytes read from the anchor
(``suffix_bytes``, which the checkpoint rule of
:mod:`repro.recovery.log_manager` bounds), so a slow restart says where its
time went.

The recovered timestamp-oracle high-water mark is the maximum of the
checkpointed high water and every replayed commit timestamp, so new commits
continue the original timestamp sequence with no gaps in ordering.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional

from repro.core.checker import check_tree
from repro.core.nodes import IndexNode
from repro.core.policy import SplitPolicy
from repro.core.tsb_tree import TSBTree
from repro.recovery.log_records import decode_stream
from repro.recovery.replay import LogReplayer
from repro.storage.device import Address
from repro.storage.logdevice import LogDevice
from repro.storage.magnetic import MagneticDisk


class RecoveryError(Exception):
    """Raised when the log and the devices cannot be reconciled."""


@dataclass
class RecoveryReport:
    """What one restart-recovery pass found and did."""

    checkpoint_lsn: int = 0
    last_durable_lsn: int = 0
    records_scanned: int = 0
    winners_replayed: int = 0
    operations_replayed: int = 0
    losers_discarded: int = 0
    aborts_discarded: int = 0
    orphan_pages_reclaimed: int = 0
    high_water: int = 0
    next_txn_id: int = 1
    violations: List[str] = field(default_factory=list)
    #: durable log bytes read from the anchor: the suffix the checkpoint rule
    #: of :mod:`repro.recovery.log_manager` bounds
    suffix_bytes: int = 0
    #: wall-clock seconds of the orphan sweep, the log replay and the check
    reclaim_s: float = 0.0
    replay_s: float = 0.0
    verify_s: float = 0.0

    def as_dict(self) -> Dict[str, float]:
        fields = asdict(self)
        fields["invariant_violations"] = len(fields.pop("violations"))
        return fields

    def summary(self) -> str:
        return (
            f"recovered from checkpoint LSN {self.checkpoint_lsn}: "
            f"{self.records_scanned} log records scanned, "
            f"{self.winners_replayed} committed transactions replayed "
            f"({self.operations_replayed} operations), "
            f"{self.losers_discarded} losers and {self.aborts_discarded} aborts "
            f"discarded, {self.orphan_pages_reclaimed} orphan pages reclaimed, "
            f"high water {self.high_water}; "
            f"{self.suffix_bytes} log bytes from the anchor: "
            f"reclaim {self.reclaim_s:.3f} s, replay {self.replay_s:.3f} s, "
            f"verify {self.verify_s:.3f} s"
        )


@dataclass
class RecoveryResult:
    """The rebuilt tree plus everything needed to resume transactions."""

    tree: TSBTree
    #: The replayer that applied the log: where its LSNs, commit timestamps
    #: and transaction ids stopped is where the reopened store continues.
    replayer: LogReplayer
    report: RecoveryReport


class RecoveryManager:
    """Rebuilds a consistent, committed-only tree from devices plus log."""

    def __init__(
        self,
        magnetic: MagneticDisk,
        historical: object,
        log_device: LogDevice,
        policy: Optional[SplitPolicy] = None,
        cache_pages: int = 128,
        superblock_page: int = 0,
    ) -> None:
        self.magnetic = magnetic
        self.historical = historical
        self.log_device = log_device
        self.policy = policy
        self.cache_pages = cache_pages
        self.superblock_page = superblock_page

    def recover(self, verify: bool = True) -> RecoveryResult:
        """Replay the log from the anchored checkpoint; return the rebuilt state.

        With ``verify=True`` the rebuilt tree must pass every invariant of
        :func:`repro.core.checker.check_tree`; violations raise
        :class:`RecoveryError`.  With ``verify=False`` the violations are
        only reported (useful for forensics on deliberately damaged logs).
        """
        tree = TSBTree.open(
            self.magnetic,
            self.historical,
            policy=self.policy,
            cache_pages=self.cache_pages,
            superblock_page=self.superblock_page,
        )
        clock = time.perf_counter
        replay_began = clock()
        replayer = LogReplayer(tree)
        # Stream from the anchor's byte offset, not byte 0: restart cost
        # (time and memory) tracks the post-checkpoint log, not total history.
        suffix = self.log_device.durable_suffix(tree.log_anchor_offset)
        records = decode_stream(suffix)
        while not replayer.anchored:
            record = next(records, None)
            if record is None:
                raise RecoveryError(
                    f"superblock anchors checkpoint LSN {tree.log_anchor} but the "
                    "durable log holds no such record; log and tree are from "
                    "different histories"
                )
            replayer.apply(record)
        reclaim_began = clock()
        reclaimed = self._reclaim_orphan_pages(tree)
        reclaim_ended = clock()
        for record in records:
            replayer.apply(record)
        losers = replayer.discard_in_flight()
        verify_began = clock()
        violations = [str(v) for v in check_tree(tree)]
        report = RecoveryReport(
            checkpoint_lsn=tree.log_anchor,
            last_durable_lsn=replayer.applied_lsn,
            records_scanned=replayer.records_applied,
            losers_discarded=losers,
            winners_replayed=replayer.commits_applied,
            operations_replayed=replayer.operations_applied,
            aborts_discarded=replayer.aborts_applied,
            orphan_pages_reclaimed=reclaimed,
            high_water=max(replayer.high_water, tree.now),
            next_txn_id=replayer.next_txn_id,
            violations=violations,
            suffix_bytes=len(suffix),
            reclaim_s=reclaim_ended - reclaim_began,
            # Reading the log up to the anchor seeds the replayer: replay too.
            replay_s=(reclaim_began - replay_began) + (verify_began - reclaim_ended),
            verify_s=clock() - verify_began,
        )
        if verify and report.violations:
            details = "\n".join(report.violations)
            raise RecoveryError(f"recovered tree violates invariants:\n{details}")
        return RecoveryResult(tree=tree, replayer=replayer, report=report)

    # ------------------------------------------------------------------
    # Orphan-page reclamation
    # ------------------------------------------------------------------
    def _reclaim_orphan_pages(self, tree: TSBTree) -> int:
        """Free magnetic pages unreachable from the checkpointed root.

        Splits allocate pages before linking them into the tree; a crash
        between the two (or any allocation after the checkpoint) leaves
        pages that no index entry references.  They must return to the free
        list *before* replay so it can use the space — without this, a
        crash caused by a full disk could never be recovered on that disk.

        Only the current tree is walked: a historical node points only at
        historical pages, so no magnetic page hangs below one.
        """
        reachable = {self.superblock_page}
        stack = [tree.root_address]
        while stack:
            address = stack.pop()
            if address.page_id in reachable:
                continue
            reachable.add(address.page_id)
            node = tree.cache.read(address)
            if isinstance(node, IndexNode):
                stack.extend(
                    entry.child for entry in node.entries if entry.child.is_magnetic
                )
        reclaimed = 0
        for page_id in self.magnetic.allocated_page_ids():
            if page_id not in reachable:
                self.magnetic.free_page(Address.magnetic(page_id))
                tree.cache.invalidate(Address.magnetic(page_id))
                reclaimed += 1
        return reclaimed
