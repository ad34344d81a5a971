"""The Time-Split B-tree: the paper's primary contribution.

Public surface:

* :class:`TSBTree` — the multiversion access method itself.
* :mod:`repro.core.policy` — the splitting policies of sections 3.2/3.3.
* :class:`SecondaryIndex` — versioned secondary indexes (section 3.6).
* :func:`collect_space_stats` — the section 5 space/redundancy measurements.
* :func:`check_tree` / :func:`assert_tree_valid` — structural invariants.
"""

from repro.core.checker import Violation, assert_tree_valid, check_tree
from repro.core.nodes import DataNode, IndexEntry, IndexNode, NodeError, decode_node
from repro.core.policy import (
    AlwaysKeySplitPolicy,
    AlwaysTimeSplitPolicy,
    CostDrivenPolicy,
    SplitContext,
    SplitPolicy,
    ThresholdPolicy,
    WOBTEmulationPolicy,
    make_policy,
)
from repro.core.records import (
    KeyRange,
    Rectangle,
    RecordError,
    TimeRange,
    Version,
    latest_committed,
    version_as_of,
)
from repro.core.secondary import SecondaryIndex, composite_key, split_composite_key
from repro.core.split import (
    SplitDecision,
    SplitError,
    SplitKind,
    index_key_split,
    index_time_split,
    key_split_slots,
    time_split_slots,
)
from repro.core.stats import SpaceStats, collect_space_stats
from repro.core.tsb_tree import (
    ProvisionalVersionError,
    RecordTooLargeError,
    TimestampOrderError,
    TreeCounters,
    TSBTree,
    TSBTreeError,
)

__all__ = [
    "AlwaysKeySplitPolicy",
    "AlwaysTimeSplitPolicy",
    "CostDrivenPolicy",
    "DataNode",
    "IndexEntry",
    "IndexNode",
    "KeyRange",
    "NodeError",
    "ProvisionalVersionError",
    "Rectangle",
    "RecordError",
    "RecordTooLargeError",
    "SecondaryIndex",
    "SpaceStats",
    "SplitContext",
    "SplitDecision",
    "SplitError",
    "SplitKind",
    "SplitPolicy",
    "ThresholdPolicy",
    "TimeRange",
    "TimestampOrderError",
    "TreeCounters",
    "TSBTree",
    "TSBTreeError",
    "Version",
    "Violation",
    "WOBTEmulationPolicy",
    "assert_tree_valid",
    "check_tree",
    "collect_space_stats",
    "composite_key",
    "decode_node",
    "index_key_split",
    "index_time_split",
    "key_split_slots",
    "latest_committed",
    "make_policy",
    "split_composite_key",
    "time_split_slots",
    "version_as_of",
]
