"""Split-decision policies (paper sections 3.2 and 3.3).

When a data node is full the TSB-tree must choose between a **key split**
(minimises total space and redundancy, but keeps historical versions on the
expensive magnetic disk) and a **time split** (migrates history to the cheap
optical disk and minimises current-database space, at the price of redundant
copies of versions alive across the split time).  The paper's boundary
conditions:

* a node containing only current versions (pure insertions) *must* key split —
  a time split would migrate nothing;
* a node whose versions all share one key *must* time split — there is no key
  to split at;
* in between, the choice is a tunable trade-off, possibly driven by the
  storage cost function ``CS = SpaceM * CM + SpaceO * CO``.

Every policy here honours the two boundary conditions and differs only in the
middle ground and in how it picks the time-split value (section 3.3 allows
any time later than the node's last time split, not just "now").
"""

from __future__ import annotations

import abc
from typing import List, Optional

from repro.core.nodes import DataNode
from repro.core.split import (
    DataTimeSplit,
    SlotColumns,
    SplitDecision,
    candidate_split_times,
    choose_key_split_value,
    evaluate_time_split,
    last_update_time,
    min_redundancy_split_time,
)
from repro.storage.costmodel import CostModel
from repro.storage.serialization import Key


class SplitContext(SlotColumns):
    """Everything a policy may consult when deciding how to split a node.

    It is built from the full node's slot columns (:class:`SlotColumns`), and
    each query is a linear pass over them, by key run, made only when a policy
    asks it: a policy that never picks the median split time never lists the
    legal ones.  No ``Version`` is built.  The split it decides is cut from
    the same columns (:func:`~repro.core.split.carve_data_split`), each half's
    slots written in that half's list order: a time split's halves key by key
    in the order the keys first appear in the node's list, a key split's in
    the node's list order.
    """

    def __init__(self, node: DataNode, page_size: int, now: int) -> None:
        super().__init__(node)
        self.region = node.region
        self.page_size = page_size
        self.now = now

    def legal_split_times(self) -> List[int]:
        """Candidate time-split values later than the node's region start."""
        start = self.region.times.start
        return [stamp for stamp in candidate_split_times(self) if stamp > start]

    def total_bytes(self) -> int:
        return sum(self.sizes)

    def historical_fraction(self) -> float:
        """Fraction of stored bytes belonging to superseded versions: every
        committed slot of a key but its last, the newest."""
        total = self.total_bytes()
        if total == 0:
            return 0.0
        sizes = self.sizes
        historical = sum(
            sum(sizes[first : committed - 1]) for first, committed, _end in self.runs if committed > first
        )
        return historical / total

    def can_key_split(self) -> bool:
        keys = self.keys
        return bool(keys) and keys[0] != keys[-1]

    def can_time_split(self) -> bool:
        """Whether a time split would actually shrink the current node.

        Section 3.2: if only insertions have occurred, "time splitting by
        itself is useless" — every migrated version would also have to stay
        in the current node as the version valid at the split time.  A time
        split is useful only when some legal split time leaves the current
        node with strictly fewer versions than before.

        A split at ``T`` shrinks the node when some key has two committed
        versions before ``T``, or one before and one at ``T``.  A later ``T``
        only migrates more, so the latest legal time decides: the newest
        committed stamp, if it is later than the region's start.  There that
        is any key with two committed versions, its oldest older than it.
        """
        words = self.words
        committed = [(first, end) for first, end, _run_end in self.runs if end > first]
        if not committed:
            return False
        latest = max(words[end - 1] for _first, end in committed)
        if latest <= self.region.times.start:
            return False
        return any(end - first >= 2 and words[first] < latest for first, end in committed)

    def key_split_value(self) -> Key:
        return choose_key_split_value(self)

    def last_update_time(self) -> Optional[int]:
        return last_update_time(self)

    def min_redundancy_split_time(self) -> Optional[int]:
        return min_redundancy_split_time(self)

    def time_split(self, split_time: int) -> Optional[DataTimeSplit]:
        """The time split at ``split_time``, or ``None`` when it is illegal."""
        return evaluate_time_split(self, split_time)


class SplitPolicy(abc.ABC):
    """Strategy object deciding how to split a full data node."""

    #: Human-readable policy name used in experiment reports.
    name: str = "policy"
    #: Whether the tree should attempt local time splits of *index* nodes
    #: when they become full (policies that never time split data nodes have
    #: no historical index entries worth migrating).
    prefers_index_time_splits: bool = True

    @abc.abstractmethod
    def decide(self, context: SplitContext) -> SplitDecision:
        """Return the split to perform for the node described by ``context``."""

    # -- shared helpers ----------------------------------------------------
    def _forced_decision(self, context: SplitContext) -> Optional[SplitDecision]:
        """Apply the paper's boundary conditions; None when both are possible."""
        can_key = context.can_key_split()
        can_time = context.can_time_split()
        if not can_key and not can_time:
            raise ValueError(
                "node can be split neither by key nor by time "
                "(single key, single version: the record is too large for a page)"
            )
        if not can_time:
            return SplitDecision.key(context.key_split_value())
        if not can_key:
            return SplitDecision.time(self.pick_split_time(context))
        return None

    def pick_split_time(self, context: SplitContext) -> int:
        """Default split-time chooser: the current time (WOBT behaviour)."""
        return context.now

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


def _choose_time(context: SplitContext, chooser: str) -> int:
    """Shared implementation of the section 3.3 split-time choices."""
    now = context.now
    if chooser == "current":
        return now
    if chooser == "last_update":
        stamp = context.last_update_time()
        if stamp is not None and stamp > context.region.times.start:
            return stamp
        return now
    if chooser == "min_redundancy":
        stamp = context.min_redundancy_split_time()
        if stamp is not None and stamp > context.region.times.start:
            return stamp
        return now
    if chooser == "median":
        legal = context.legal_split_times()
        if legal:
            return legal[len(legal) // 2]
        return now
    raise ValueError(f"unknown split-time chooser {chooser!r}")


class AlwaysKeySplitPolicy(SplitPolicy):
    """Key split whenever possible: minimises total space and redundancy.

    This is the "total space minimisation is the only goal" end of the
    section 3.2 spectrum.  History accumulates on the magnetic disk and is
    only migrated when a node degenerates to a single key.
    """

    name = "always-key"
    prefers_index_time_splits = False

    def decide(self, context: SplitContext) -> SplitDecision:
        forced = self._forced_decision(context)
        if forced is not None:
            return forced
        return SplitDecision.key(context.key_split_value())


class AlwaysTimeSplitPolicy(SplitPolicy):
    """Time split whenever possible: minimises current-database space.

    ``time_chooser`` selects the split-time rule of section 3.3:

    * ``"current"`` — split at the current time, exactly as the WOBT must;
    * ``"last_update"`` — split at the time of the last update, keeping
      freshly inserted records out of the historical node;
    * ``"min_redundancy"`` — scan candidate times for the one minimising
      redundant bytes;
    * ``"median"`` — the median committed timestamp.
    """

    def __init__(self, time_chooser: str = "current") -> None:
        self.time_chooser = time_chooser
        self.name = f"always-time[{time_chooser}]"

    def decide(self, context: SplitContext) -> SplitDecision:
        forced = self._forced_decision(context)
        if forced is not None:
            return forced
        return SplitDecision.time(self.pick_split_time(context))

    def pick_split_time(self, context: SplitContext) -> int:
        return _choose_time(context, self.time_chooser)


class ThresholdPolicy(SplitPolicy):
    """Time split when the node is sufficiently "historical", else key split.

    ``threshold`` is the fraction of the node's bytes occupied by superseded
    versions above which a time split is chosen.  ``threshold=0`` degenerates
    to :class:`AlwaysTimeSplitPolicy`; ``threshold=1`` to
    :class:`AlwaysKeySplitPolicy`.  This directly encodes the paper's
    guidance: "The more out-of-date (historical) data is on a node, the more
    likely it is that time splitting should be used."
    """

    def __init__(self, threshold: float = 0.5, time_chooser: str = "last_update") -> None:
        if not 0.0 <= threshold <= 1.0:
            raise ValueError("threshold must be within [0, 1]")
        self.threshold = threshold
        self.time_chooser = time_chooser
        self.name = f"threshold[{threshold:.2f}]"

    def decide(self, context: SplitContext) -> SplitDecision:
        forced = self._forced_decision(context)
        if forced is not None:
            return forced
        if context.historical_fraction() >= self.threshold:
            return SplitDecision.time(self.pick_split_time(context))
        return SplitDecision.key(context.key_split_value())

    def pick_split_time(self, context: SplitContext) -> int:
        return _choose_time(context, self.time_chooser)


class CostDrivenPolicy(SplitPolicy):
    """Choose the split minimising incremental storage cost per byte freed.

    Section 3.2 proposes parameterising the split decision by the cost
    function ``CS = SpaceM * CM + SpaceO * CO``.  For a full node we compare:

    * **key split** — allocates one extra magnetic page; the node's bytes are
      unchanged, so the incremental cost is ``CM * page_size`` and the space
      freed in the original node is (roughly) half its payload;
    * **time split** — appends the historical node to the optical disk
      (``CO * historical_bytes``) and keeps redundant copies of the versions
      alive across the split time on the magnetic page; the space freed on
      the magnetic page is the migrated payload minus that redundancy.

    The policy picks whichever action costs less per magnetic byte it frees,
    which makes it lean toward time splits as ``CM/CO`` grows — the behaviour
    the S4 experiment checks.
    """

    def __init__(self, cost_model: Optional[CostModel] = None, time_chooser: str = "last_update") -> None:
        self.cost_model = cost_model or CostModel()
        self.time_chooser = time_chooser
        self.name = f"cost[{self.cost_model.cost_ratio:.1f}]"

    def decide(self, context: SplitContext) -> SplitDecision:
        forced = self._forced_decision(context)
        if forced is not None:
            return forced
        split_time = self.pick_split_time(context)
        evaluation = context.time_split(split_time)
        if evaluation is None:
            return SplitDecision.key(context.key_split_value())
        total_bytes = context.total_bytes()

        cm = self.cost_model.magnetic_cost_per_byte
        co = self.cost_model.optical_cost_per_byte

        key_cost = cm * context.page_size
        key_freed = max(1, total_bytes // 2)

        time_cost = co * evaluation.historical_bytes + cm * evaluation.redundant_bytes
        time_freed = max(1, total_bytes - evaluation.current_bytes)

        if time_cost / time_freed <= key_cost / key_freed:
            return SplitDecision.time(split_time)
        return SplitDecision.key(context.key_split_value())

    def pick_split_time(self, context: SplitContext) -> int:
        return _choose_time(context, self.time_chooser)


class WOBTEmulationPolicy(SplitPolicy):
    """Mimic the WOBT's splitting behaviour inside the TSB-tree.

    The WOBT (section 2.3) splits by key value *and* current time when enough
    current records exist to fill two nodes, and purely by (current) time
    otherwise.  Emulating it inside the TSB-tree means: time split at the
    current time whenever the node holds any superseded versions, otherwise
    key split.  Used by the S3 comparison as a like-for-like reference point.
    """

    name = "wobt-emulation"

    def decide(self, context: SplitContext) -> SplitDecision:
        forced = self._forced_decision(context)
        if forced is not None:
            return forced
        if context.historical_fraction() > 0.0:
            return SplitDecision.time(context.now)
        return SplitDecision.key(context.key_split_value())


DEFAULT_POLICY = ThresholdPolicy


def make_policy(name: str, **kwargs) -> SplitPolicy:
    """Factory used by the experiment harness and the examples.

    Recognised names: ``always-key``, ``always-time``, ``threshold``,
    ``cost``, ``wobt``.
    """
    name = name.lower()
    if name in {"always-key", "key"}:
        return AlwaysKeySplitPolicy()
    if name in {"always-time", "time"}:
        return AlwaysTimeSplitPolicy(**kwargs)
    if name == "threshold":
        return ThresholdPolicy(**kwargs)
    if name in {"cost", "cost-driven"}:
        return CostDrivenPolicy(**kwargs)
    if name in {"wobt", "wobt-emulation"}:
        return WOBTEmulationPolicy()
    raise ValueError(f"unknown split policy {name!r}")
