"""Node-splitting mechanics of the Time-Split B-tree (paper section 3).

This module contains the *pure* split computations — given a node's contents
and a split parameter, compute what goes where.  The tree itself
(:mod:`repro.core.tsb_tree`) is responsible for allocating pages, appending
historical regions and updating parents; the policies
(:mod:`repro.core.policy`) are responsible for *choosing* between the splits
computed here.

A split reads the full node's slot columns and builds no ``Version`` and no
``IndexEntry``.  A data-node split reads :class:`SlotColumns` (keys, stamp
words, flags and list order, in slot order, where one key's versions are one
run, committed oldest first, then provisional).  The rules select slots, and
:meth:`DataNode.carve` builds each half from them, values sliced from the
page image.  Each half's slots are written in its own list order, which is
the version list the rule would produce:

* a time split's halves list their keys in the order each key first appears
  in the node's list; a key's historical slots oldest first, and its current
  slots as those at or after the split time, oldest first, then the copy of
  the version valid at the split time, then its provisional slots;
* a key split's halves keep the node's list order.

A half's slot order is the node's restricted to its slots, so both halves
encode byte for byte as a node built from those version lists.  An
index-node split reads :meth:`IndexNode.columns` — key refs, time words and
tier bytes, one per child in list order — and :meth:`IndexNode.carve` builds
each half from the slots a rule selects, in list order.  Refs keep key
order (0 is an unbounded low, ``_NO_HIGH`` an unbounded high), so the
section 3.5 rules compare small integers.

Implemented rules, each quoted from the paper:

* **Time-split rule** (section 3.1) for data nodes::

      1. All entries with time less than T go in the old node.
      2. All entries with time greater or equal to T go in the new node.
      3. For each key used in some entry, the entry with the largest time
         smaller than or equal to T must be in the new node.

  The "old node" becomes the historical node (migrated to the optical disk);
  the "new node" keeps the current data on the magnetic disk.  Rule 3 is what
  creates redundancy: a version alive across the split time appears in both.
  Provisional (uncommitted) versions carry no timestamp and always stay in
  the current node (section 4).  On a key's run each rule is a bisect of its
  committed stamps.

* **Pure key split** (section 3.1, Figure 5) for data nodes: B+-tree style —
  versions move by key, nothing is copied, and the new index entry inherits
  the start time of the old entry.

* **Index Node Keyspace Split Rule** (section 3.5): entries whose key range
  lies at or below the split value go left, those at or above go right, and
  entries whose key range *strictly contains* the split value — which are
  guaranteed to reference historical nodes — are copied into both halves.
  On refs: a slot whose low bound is below the split value goes left, one
  whose high bound is above it goes right, and a slot doing both is copied.

* **Index node time split** (section 3.5, Figures 8 and 9): allowed only when
  a time T exists such that no entry responsible for any time before T
  references a current node; then entries wholly before T move to the
  historical index node, entries crossing T (all historical) are copied to
  both, and entries at or after T stay current.  On words: a slot whose
  start word is before T goes to the historical node, one whose end word is
  after T stays current, and a slot doing both must have tier byte 1.

An index split is decided in full before anything is written
(:func:`carve_index_split`): a half too large for a page is split again, on
its carved columns, and a node no sequence of splits fits raises
:class:`SplitError` with nothing written.
"""

from __future__ import annotations

import enum
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

from repro.core.nodes import _NO_HIGH, _PROVISIONAL, _U64_MAX, DataNode, IndexNode
from repro.core.records import Rectangle, RecordError
from repro.storage.serialization import Key


class SplitError(Exception):
    """Raised when a requested split cannot be performed."""


class SplitKind(enum.Enum):
    """Which dimension a split divides."""

    KEY = "key"
    TIME = "time"


@dataclass(frozen=True)
class SplitDecision:
    """A policy's answer to "this node is full — what do we do?"."""

    kind: SplitKind
    split_key: Optional[Key] = None
    split_time: Optional[int] = None

    @staticmethod
    def key(split_key: Key) -> "SplitDecision":
        return SplitDecision(kind=SplitKind.KEY, split_key=split_key)

    @staticmethod
    def time(split_time: int) -> "SplitDecision":
        return SplitDecision(kind=SplitKind.TIME, split_time=split_time)


# ----------------------------------------------------------------------
# Data-node splits
# ----------------------------------------------------------------------
class SlotColumns:
    """A full data node's slot columns, as a split reads them.

    ``keys``, ``words`` and ``flags`` are the node's key, stamp-word and flag
    runs and ``order`` its order run (:meth:`DataNode.columns`,
    :meth:`DataNode.slot_order`).  Two derived views are built on first use:
    ``runs``, one ``(first, committed_end, end)`` per distinct key in key
    order, and ``sizes``, each slot's serialized size.
    """

    def __init__(self, node: DataNode) -> None:
        self.node = node
        self.keys, self.words, self.flags = node.columns()
        self.order = node.slot_order()
        self._runs: Optional[List[Tuple[int, int, int]]] = None
        self._sizes: Optional[List[int]] = None

    @property
    def runs(self) -> List[Tuple[int, int, int]]:
        """Per distinct key, in key order: ``(first, committed_end, end)`` —
        its committed slots, oldest first, then its provisional ones."""
        runs = self._runs
        if runs is None:
            keys, flags = self.keys, self.flags
            runs, first = [], 0
            while first < len(keys):
                end = bisect_right(keys, keys[first], first)
                committed = end
                while committed > first and flags[committed - 1] & _PROVISIONAL:
                    committed -= 1
                runs.append((first, committed, end))
                first = end
            self._runs = runs
        return runs

    @property
    def sizes(self) -> List[int]:
        sizes = self._sizes
        if sizes is None:
            sizes = self._sizes = self.node.slot_sizes()
        return sizes

    def listed(self) -> List[int]:
        """Every slot, in the node's list order."""
        return sorted(range(len(self.keys)), key=self.order.__getitem__)

    def runs_as_listed(self) -> List[Tuple[int, int, int]]:
        """``runs`` in the order their keys first appear in the list."""
        order = self.order
        return sorted(self.runs, key=lambda run: min(order[run[0] : run[2]]))


@dataclass(frozen=True)
class DataTimeSplit:
    """The time-split rule applied to a node's slots.  ``historical`` and
    ``current`` are each half's slots in its list order; ``redundant`` are
    the slots stored in both (alive across the split time)."""

    split_time: int
    historical: Tuple[int, ...]
    current: Tuple[int, ...]
    redundant: Tuple[int, ...]
    columns: SlotColumns = field(repr=False, compare=False)

    def _bytes(self, slots: Tuple[int, ...]) -> int:
        sizes = self.columns.sizes
        return sum(sizes[slot] for slot in slots)

    @property
    def redundant_bytes(self) -> int:
        return self._bytes(self.redundant)

    @property
    def historical_bytes(self) -> int:
        return self._bytes(self.historical)

    @property
    def current_bytes(self) -> int:
        return self._bytes(self.current)


def time_split_slots(columns: SlotColumns, split_time: int) -> DataTimeSplit:
    """Apply the section 3.1 time-split rule at ``split_time``, key run by key
    run.  Each half lists its keys in the order they first appear in the
    node's list; within a key the historical half holds the slots before the
    split time, and the current half the slots at or after it, then the
    version valid at the split time when it is older, then the provisional
    slots — every group oldest first.

    Raises :class:`SplitError` if the split would leave the historical node
    empty (no version precedes the split time), because migrating nothing is
    pointless and would create an empty historical region.
    """
    words = columns.words
    historical: List[int] = []
    current: List[int] = []
    redundant: List[int] = []
    for first, committed, end in columns.runs_as_listed():
        cut = bisect_left(words, split_time, first, committed)
        # Rule 1: strictly-older versions belong to the historical node.
        historical.extend(range(first, cut))
        # Rule 2: versions at or after the split time stay current.
        current.extend(range(cut, committed))
        # Rule 3: the version valid *at* the split time must be in the
        # current node.  When its timestamp is strictly before the split time
        # it is therefore stored twice — the redundancy the paper accepts to
        # keep snapshots clustered.  Of equal stamps the first slot is it.
        if cut > first and (cut == committed or words[cut] != split_time):
            alive = bisect_left(words, words[cut - 1], first, cut)
            current.append(alive)
            redundant.append(alive)
        # Uncommitted versions never migrate (section 4).
        current.extend(range(committed, end))
    if not historical:
        raise SplitError(
            f"time split at {split_time} would migrate nothing: "
            "no committed version precedes the split time"
        )
    return DataTimeSplit(split_time, tuple(historical), tuple(current), tuple(redundant), columns)


def key_split_slots(
    columns: SlotColumns, split_key: Key
) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Pure key split: slots with ``key < split_key`` stay, the rest move;
    each half's slots in the node's list order.

    Nothing is copied; this is the B+-tree-style split the erasable magnetic
    disk makes possible (section 3: "the key splits on magnetic disk are more
    like those in B+-trees since we need not keep the old node intact").
    """
    cut = bisect_left(columns.keys, split_key)
    listed = columns.listed()
    left = tuple(slot for slot in listed if slot < cut)
    right = tuple(slot for slot in listed if slot >= cut)
    if not left or not right:
        raise SplitError(f"key split at {split_key!r} puts every version on one side")
    return left, right


def choose_key_split_value(columns: SlotColumns) -> Key:
    """Pick a key split value: the median distinct key (by stored bytes).

    The median is weighted by serialized size so that a key with many or
    large versions does not leave one half nearly full.
    """
    runs, sizes = columns.runs, columns.sizes
    if len(runs) < 2:
        raise SplitError("cannot key split a node holding a single distinct key")
    run_sizes = [sum(sizes[first:end]) for first, _committed, end in runs]
    total = sum(run_sizes)
    running = 0
    for (first, _committed, _end), size in zip(runs, run_sizes):
        running += size
        if running * 2 >= total:
            # Splitting *at* a key sends that key right; never pick the
            # lowest key (the left half would be empty).
            return columns.keys[runs[1][0] if first == 0 else first]
    return columns.keys[runs[-1][0]]  # pragma: no cover - loop always returns


def candidate_split_times(columns: SlotColumns) -> List[int]:
    """Distinct committed timestamps that are legal time-split values.

    A legal split time must leave at least one committed version strictly
    before it, so the earliest committed timestamp is excluded.
    """
    stamps = {w for w, f in zip(columns.words, columns.flags) if not f & _PROVISIONAL}
    return sorted(stamps)[1:]


def last_update_time(columns: SlotColumns) -> Optional[int]:
    """Commit time of the most recent *update* (second or later version of a key).

    Section 3.3 recommends this as a split time when insertions follow the
    last update: splitting there keeps freshly inserted records out of the
    historical node while still migrating every superseded version.
    Returns ``None`` when the node contains no updates at all.
    """
    words = columns.words
    updated = [words[committed - 1] for first, committed, _end in columns.runs if committed - first >= 2]
    return max(updated, default=None)


def evaluate_time_split(columns: SlotColumns, split_time: int) -> Optional[DataTimeSplit]:
    """Like :func:`time_split_slots` but returns ``None`` when illegal."""
    try:
        return time_split_slots(columns, split_time)
    except SplitError:
        return None


def min_redundancy_split_time(columns: SlotColumns) -> Optional[int]:
    """Candidate split time minimising redundant bytes, then current bytes;
    of equal costs the earliest."""
    best_time: Optional[int] = None
    best_cost: Optional[Tuple[int, int]] = None
    for candidate in candidate_split_times(columns):
        split = evaluate_time_split(columns, candidate)
        if split is None:
            continue
        cost = (split.redundant_bytes, split.current_bytes)
        if best_cost is None or cost < best_cost:
            best_cost = cost
            best_time = candidate
    return best_time


@dataclass(frozen=True)
class CarvedSplit:
    """A split decided and carved but not written: ``halves`` are the new
    nodes in the parent's entry order — ``(historical, current)`` or
    ``(left, right)`` — each at the split node's address until the tree
    places it; ``at`` is the split time or key, and ``redundant`` counts the
    versions or entries stored in both halves.  An index split's current
    half too large for a page is the ``CarvedSplit`` of that half."""

    kind: SplitKind
    at: Union[int, Key]
    halves: tuple
    redundant: int = 0

    def half_for(self, key: Key) -> int:
        """Which of ``halves`` is the current one holding ``key``."""
        return 1 if self.kind is SplitKind.TIME or not key < self.at else 0


def carve_time_split(columns: SlotColumns, split_time: int) -> CarvedSplit:
    """Time split: the historical half, bound for the optical disk, and the
    current half (section 3.1)."""
    node = columns.node
    historical_region, current_region = split_region_by_time(node.region, split_time)
    split = time_split_slots(columns, split_time)
    sizes = columns.sizes
    halves = (
        node.carve(split.historical, historical_region, sizes),
        node.carve(split.current, current_region, sizes),
    )
    return CarvedSplit(SplitKind.TIME, split_time, halves, len(split.redundant))


def carve_key_split(columns: SlotColumns, split_key: Key) -> CarvedSplit:
    """Pure key split: B+-tree style, nothing copied (section 3.1, Figure 5)."""
    node = columns.node
    left_region, right_region = split_region_by_key(node.region, split_key)
    left, right = key_split_slots(columns, split_key)
    sizes = columns.sizes
    halves = node.carve(left, left_region, sizes), node.carve(right, right_region, sizes)
    return CarvedSplit(SplitKind.KEY, split_key, halves)


def carve_data_split(context: SlotColumns, policy) -> CarvedSplit:
    """The split ``policy`` decides for the node of ``context`` (a
    :class:`~repro.core.policy.SplitContext`), falling back to the other kind
    when the chosen one cannot be made."""
    decision = policy.decide(context)
    if decision.kind is SplitKind.TIME:
        try:
            return carve_time_split(context, decision.split_time)
        except SplitError:
            return carve_key_split(context, choose_key_split_value(context))
    try:
        return carve_key_split(context, decision.split_key)
    except SplitError:
        return carve_time_split(context, policy.pick_split_time(context))


# ----------------------------------------------------------------------
# Index-node splits
# ----------------------------------------------------------------------
def index_split_key(node: IndexNode) -> Key:
    """Pick a split value for an index keyspace split.

    Section 3.5: "The split value may be any key value actually used in an
    index entry in the node."  We take the median of the distinct low bounds
    that leave both halves non-empty: those with some high bound at or below
    them (the lowest low bound never has one).
    """
    table, lows, highs = node.columns()[:3]
    lowest_high = min(highs, default=_NO_HIGH)
    candidates = sorted(ref for ref in set(lows) if ref >= lowest_high)
    if not candidates:
        raise SplitError("no key value splits this index node into two non-empty halves")
    return table[candidates[len(candidates) // 2] - 1]


def index_key_split_slots(node: IndexNode, split_key: Key) -> Tuple[List[int], List[int], int]:
    """Apply the section 3.5 keyspace split rule to ``node``'s slots:
    ``(left, right, copied)``, each half in list order.

    A slot whose key range strictly contains the split value is in both
    halves; the paper proves these always reference historical nodes, which
    :func:`repro.core.checker.check_tree` asserts.
    """
    table, lows, highs = node.columns()[:3]
    # A low ref at or below `below` is a key below the split value; a high
    # ref above `above` a key above it.
    below, above = bisect_left(table, split_key), bisect_right(table, split_key)
    left = [slot for slot, low in enumerate(lows) if low <= below]
    right = [slot for slot, high in enumerate(highs) if high > above]
    if not left or not right:
        raise SplitError(f"index key split at {split_key!r} leaves one half empty")
    copied = sum(low <= below and high > above for low, high in zip(lows, highs))
    return left, right, copied


def local_index_split_time(node: IndexNode) -> Optional[int]:
    """Largest time T at which ``node`` can be *locally* time split.

    The constraint (section 3.5): no entry referencing a current node may be
    placed in the historical index node, because current children can still
    split and their parent entries must remain updatable.  Therefore T must
    not exceed the start time of any current slot, and at least one slot must
    end at or before T (otherwise nothing would migrate).

    Returns ``None`` when no such T exists — the Figure 9 situation, where an
    old data node that has never been time split blocks the index split.
    """
    starts, ends, tiers = node.columns()[3:]
    limit = min((start for start, tier in zip(starts, tiers) if not tier), default=_U64_MAX)
    return max((end for end in ends if end <= limit and end != _U64_MAX), default=None)


def index_time_split_slots(node: IndexNode, split_time: int) -> Tuple[List[int], List[int], int]:
    """Split ``node``'s slots at ``split_time`` (which must be local — see
    above): ``(historical, current, copied)``, each half in list order."""
    starts, ends, tiers = node.columns()[3:]
    historical = [slot for slot, start in enumerate(starts) if start < split_time]
    current = [slot for slot, end in enumerate(ends) if end > split_time]
    # The slots whose time range crosses the split time.
    crossing = [slot for slot in historical if ends[slot] > split_time]
    if not all(tiers[slot] for slot in crossing):
        raise SplitError(
            f"index time split at {split_time} is not local: a slot references "
            "a current node and spans the split time"
        )
    if not historical:
        raise SplitError(f"index time split at {split_time} would migrate nothing")
    if not current:
        raise SplitError(f"index time split at {split_time} would leave no current entries")
    return historical, current, len(crossing)


def carve_index_split(node: IndexNode, page_size: int, time_first: bool) -> CarvedSplit:
    """The split of the full index ``node``, decided and carved: a local
    time split first when ``time_first`` and a legal one exists, else a key
    split, falling back to the other kind when the first cannot be made.  A
    current half too large for ``page_size`` is carved into a split of its
    own, the same way, and stands in ``halves`` in its place."""
    split_time = local_index_split_time(node)
    kinds = [SplitKind.KEY]
    if split_time is not None and split_time > node.region.times.start:
        kinds.insert(0 if time_first else 1, SplitKind.TIME)
    for kind in kinds:
        try:
            if kind is SplitKind.TIME:
                return _carve_index_time_split(node, split_time, page_size, time_first)
            return _carve_index_key_split(node, page_size, time_first)
        except SplitError as error:
            failure = error
    raise failure


def _fitted(half: IndexNode, page_size: int, time_first: bool) -> Union[IndexNode, CarvedSplit]:
    """``half``, or its split when it does not fit a page."""
    return half if half.fits(page_size) else carve_index_split(half, page_size, time_first)


def _carve_index_time_split(
    node: IndexNode, split_time: int, page_size: int, time_first: bool
) -> CarvedSplit:
    """Local index time split (section 3.5, Figure 8): the historical half,
    bound for the optical disk, and the current half."""
    historical_region, current_region = split_region_by_time(node.region, split_time)
    historical, current, copied = index_time_split_slots(node, split_time)
    halves = (
        node.carve(historical, historical_region),
        _fitted(node.carve(current, current_region), page_size, time_first),
    )
    return CarvedSplit(SplitKind.TIME, split_time, halves, copied)


def _carve_index_key_split(node: IndexNode, page_size: int, time_first: bool) -> CarvedSplit:
    """Index keyspace split (section 3.5 rule), duplicating straddling entries."""
    split_key = index_split_key(node)
    left_region, right_region = split_region_by_key(node.region, split_key)
    left, right, copied = index_key_split_slots(node, split_key)
    halves = (
        _fitted(node.carve(left, left_region), page_size, time_first),
        _fitted(node.carve(right, right_region), page_size, time_first),
    )
    return CarvedSplit(SplitKind.KEY, split_key, halves, copied)


# ----------------------------------------------------------------------
# Region bookkeeping shared by the tree
# ----------------------------------------------------------------------
def split_region_by_key(region: Rectangle, split_key: Key) -> Tuple[Rectangle, Rectangle]:
    """Split a node's rectangle along the key axis."""
    try:
        left_keys, right_keys = region.keys.split_at(split_key)
    except RecordError as exc:
        raise SplitError(str(exc)) from exc
    return Rectangle(left_keys, region.times), Rectangle(right_keys, region.times)


def split_region_by_time(
    region: Rectangle, split_time: int
) -> Tuple[Rectangle, Rectangle]:
    """Split a node's rectangle along the time axis."""
    try:
        earlier, later = region.times.split_at(split_time)
    except RecordError as exc:
        raise SplitError(str(exc)) from exc
    return Rectangle(region.keys, earlier), Rectangle(region.keys, later)
