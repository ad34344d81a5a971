"""The Time-Split B-tree (paper section 3).

:class:`TSBTree` is a single integrated index over a versioned, timestamped
database with a non-deletion policy.  Current nodes live on an erasable
magnetic disk and are split B+-tree style by key or migrated by time; the
historical halves of time splits are consolidated and appended to a
write-once historical device.  One tree answers:

* current and as-of lookups (``search_current``, ``search_as_of``) — one
  descent to the leaf whose rectangle owns ``(key, time)``,
* snapshots, range scans and key listings at one time (``snapshot``,
  ``range_search``, ``keys``) — the as-of walk, ``_versions_as_of``,
* version histories over a time span (``key_history``, ``history_between``,
  ``time_slice``) — the history gather, ``_gather_history``,

every multi-key read being one of those two walks of a rectangle of the key x
time plane, and supports the transaction-processing features of section 4:
provisional (uncommitted) versions that are never migrated and can be erased
on abort, and commit stamping.

The tree is deliberately explicit about its storage interactions: every node
it touches is read from and written to the simulated devices as a serialized
page image, so the space and I/O numbers the experiment harness reports are
byte-accurate, not estimates.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from operator import attrgetter
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Union

from repro.core.nodes import DataNode, IndexEntry, IndexNode, NodeError, decode_node
from repro.core.policy import SplitContext, SplitPolicy, ThresholdPolicy
from repro.obs import trace
from repro.core.records import (
    KeyRange,
    Rectangle,
    TimeRange,
    Version,
    group_by_key,
    records_valid_between,
    version_as_of,
)
from repro.core.split import (
    SplitDecision,
    SplitError,
    SplitKind,
    choose_index_split_key,
    choose_key_split_value,
    find_local_index_split_time,
    index_key_split,
    index_time_split,
    key_split_versions,
    split_region_by_key,
    split_region_by_time,
    time_split_versions,
)
from repro.storage.device import Address, Tier
from repro.storage.magnetic import MagneticDisk
from repro.storage.pagecache import PageCache
from repro.storage.serialization import (
    ByteReader,
    ByteWriter,
    Key,
    read_address,
    write_address,
)
from repro.storage.worm import WormDisk

#: Devices usable as the historical store: anything with append_region/read.
HistoricalDevice = Union[WormDisk, "object"]

#: `_load_node` runs several times per operation; the tier test is inlined.
_MAGNETIC = Tier.MAGNETIC


def _open_page(address: Address, image: bytes) -> Union[DataNode, IndexNode]:
    """The buffer pool's opener.  ``decode_node`` is looked up per call, not
    captured: the benchmark's span recorder rebinds the module's name."""
    return decode_node(address, image)


#: What an empty data page covering the whole plane is charged: a version
#: fits a page at all when this plus its own size is within the page.
_EMPTY_DATA_PAGE = DataNode(address=Address.magnetic(0), region=Rectangle.full()).serialized_size()

#: Marker identifying a magnetic page as a TSB-tree superblock.
_SUPERBLOCK_MAGIC = 0x7513_B001


class TSBTreeError(Exception):
    """Base class for TSB-tree usage errors."""


class RecordTooLargeError(TSBTreeError):
    """A single record version does not fit in an empty data page."""


class TimestampOrderError(TSBTreeError):
    """Commit timestamps must be non-decreasing (rollback database, section 1)."""


class ProvisionalVersionError(TSBTreeError):
    """Raised when commit/abort cannot find the expected provisional version."""


@dataclass
class TreeCounters:
    """Cumulative structural-event counters maintained by the tree.

    ``inserts`` counts committed versions written at a known stamp
    (:meth:`TSBTree.insert` / :meth:`TSBTree.delete`: a log-less store's
    writes, every logged write-path transaction and every replayed commit),
    ``updates`` those of them that superseded a live version.
    ``provisional_writes`` counts the provisional versions of interactive
    transactions (and of replayed rewrites of keys a checkpoint image
    carried), ``commits`` / ``aborts`` the calls that stamp or erase them.
    """

    inserts: int = 0
    updates: int = 0
    data_key_splits: int = 0
    data_time_splits: int = 0
    index_key_splits: int = 0
    index_time_splits: int = 0
    redundant_versions_written: int = 0
    redundant_index_entries_written: int = 0
    historical_bytes_written: int = 0
    historical_nodes_written: int = 0
    provisional_writes: int = 0
    commits: int = 0
    aborts: int = 0

    @property
    def total_splits(self) -> int:
        return (
            self.data_key_splits
            + self.data_time_splits
            + self.index_key_splits
            + self.index_time_splits
        )

    def field_values(self) -> List[int]:
        """Counter values in declaration order (the superblock wire order)."""
        return [getattr(self, spec.name) for spec in fields(self)]

    def combined(self, other: "TreeCounters") -> "TreeCounters":
        """Element-wise sum of two counter sets (shard/experiment rollups)."""
        return TreeCounters(
            **{
                spec.name: getattr(self, spec.name) + getattr(other, spec.name)
                for spec in fields(self)
            }
        )

    @classmethod
    def from_field_values(cls, values: Sequence[int]) -> "TreeCounters":
        """Rebuild counters from :meth:`field_values` output.

        Tolerates a shorter sequence (a superblock written before a counter
        was added): missing trailing counters keep their zero defaults.
        """
        counters = cls()
        for spec, value in zip(fields(cls), values):
            setattr(counters, spec.name, int(value))
        return counters

    def as_dict(self) -> Dict[str, int]:
        return {
            "inserts": self.inserts,
            "updates": self.updates,
            "data_key_splits": self.data_key_splits,
            "data_time_splits": self.data_time_splits,
            "index_key_splits": self.index_key_splits,
            "index_time_splits": self.index_time_splits,
            "redundant_versions_written": self.redundant_versions_written,
            "redundant_index_entries_written": self.redundant_index_entries_written,
            "historical_bytes_written": self.historical_bytes_written,
            "historical_nodes_written": self.historical_nodes_written,
            "provisional_writes": self.provisional_writes,
            "commits": self.commits,
            "aborts": self.aborts,
        }


def merge_tree_counters(counters: Iterable[TreeCounters]) -> TreeCounters:
    """Sum structural-event counters across trees (shards)."""
    merged = TreeCounters()
    for item in counters:
        merged = merged.combined(item)
    return merged


class TSBTree:
    """A Time-Split B-tree spanning a magnetic and a historical device.

    Parameters
    ----------
    page_size:
        Size of a current (magnetic) node in bytes.  Nodes split when their
        serialized image would exceed this.
    policy:
        The split-decision policy (see :mod:`repro.core.policy`).  Defaults to
        ``ThresholdPolicy()``.
    magnetic:
        The erasable device holding current nodes; a fresh
        :class:`~repro.storage.magnetic.MagneticDisk` by default.
    historical:
        The append-only device holding migrated nodes; a fresh
        :class:`~repro.storage.worm.WormDisk` by default.  Anything exposing
        ``append_region(bytes) -> Address`` and ``read(Address) -> bytes``
        works, including :class:`~repro.storage.optical_library.OpticalLibrary`.
    cache_pages:
        Capacity of the buffer pool over the magnetic device
        (:mod:`repro.storage.pagecache` says what it bounds).
    """

    def __init__(
        self,
        page_size: int = 1024,
        policy: Optional[SplitPolicy] = None,
        magnetic: Optional[MagneticDisk] = None,
        historical: Optional[HistoricalDevice] = None,
        cache_pages: int = 128,
    ) -> None:
        if page_size < 128:
            raise ValueError("page_size must be at least 128 bytes")
        self.page_size = page_size
        self.policy = policy or ThresholdPolicy()
        self.magnetic = magnetic or MagneticDisk(page_size=page_size)
        if self.magnetic.page_size < page_size:
            raise ValueError("magnetic page size smaller than tree page size")
        self.historical = historical or WormDisk(sector_size=min(1024, page_size))
        self.cache = PageCache(self.magnetic, capacity=cache_pages, opener=_open_page)
        self.counters = TreeCounters()
        self._max_committed_ts = 0
        self._next_auto_ts = 1
        self._log_anchor = 0
        self._log_anchor_offset = 0
        # The first magnetic page is the superblock: the durable pointer to
        # the current root written by :meth:`checkpoint` and read by
        # :meth:`open` when the database is reopened from its devices.
        self.superblock_address = self.magnetic.allocate_page()
        # The tree starts as a single empty data node covering all keys and
        # all times from zero onward.
        root_address = self.magnetic.allocate_page()
        root = DataNode(address=root_address, region=Rectangle.full(), versions=[])
        self._store_node(root)
        self._root_address = root_address
        self._height = 1
        self.checkpoint()

    # ------------------------------------------------------------------
    # Public write API
    # ------------------------------------------------------------------
    def insert(self, key: Key, value: bytes, timestamp: Optional[int] = None) -> int:
        """Insert a new committed version of ``key``.

        An insert with a key already present is an update: the old version
        stays in the database (non-deletion policy) and the new version
        becomes current.  ``timestamp`` must be non-decreasing across calls;
        when omitted, the tree assigns the next internal commit time.
        Returns the commit timestamp used.
        """
        timestamp = self._resolve_timestamp(timestamp)
        version = Version(key=key, timestamp=timestamp, value=bytes(value))
        self._insert_version(version)
        self.counters.inserts += 1
        # Whether the insert superseded a live version is observed at the
        # leaf during the insert descent, so updates are counted without a
        # second root-to-leaf descent per call.
        if self._last_insert_superseded:
            self.counters.updates += 1
        self._max_committed_ts = max(self._max_committed_ts, timestamp)
        self._next_auto_ts = max(self._next_auto_ts, timestamp + 1)
        return timestamp

    def delete(self, key: Key, timestamp: Optional[int] = None) -> int:
        """Logically delete ``key`` by writing a tombstone version.

        The non-deletion policy still holds: all previous versions remain
        queryable at their own times; only current and later-as-of reads stop
        seeing the key.
        """
        timestamp = self._resolve_timestamp(timestamp)
        version = Version(key=key, timestamp=timestamp, value=b"", is_tombstone=True)
        self._insert_version(version)
        self.counters.inserts += 1
        self._max_committed_ts = max(self._max_committed_ts, timestamp)
        self._next_auto_ts = max(self._next_auto_ts, timestamp + 1)
        return timestamp

    def refuse_oversized(self, writes: Iterable[Tuple[Key, Optional[bytes]]]) -> None:
        """Raise :class:`RecordTooLargeError` if a committed version of any of
        ``writes`` (a ``None`` value: a tombstone) would not fit an empty data
        page — the check :meth:`insert` and :meth:`delete` make per version,
        made for a whole batch before any of it is written."""
        for key, value in writes:
            if value is None:
                self._require_fits(Version(key=key, timestamp=0, is_tombstone=True))
            else:
                self._require_fits(Version(key=key, timestamp=0, value=value))

    def insert_provisional(self, key: Key, value: bytes, txn_id: int) -> None:
        """Write an uncommitted version on behalf of transaction ``txn_id``.

        Provisional versions carry no timestamp, are invisible to ordinary
        reads, never migrate to the historical database and can be erased by
        :meth:`abort_provisional` (paper section 4).  Re-writing a key inside
        the same transaction replaces the earlier provisional version.
        """
        version = Version(key=key, timestamp=None, value=bytes(value), txn_id=txn_id)
        self._insert_version(version)
        self.counters.provisional_writes += 1

    def delete_provisional(self, key: Key, txn_id: int) -> None:
        """Write an uncommitted tombstone on behalf of ``txn_id``."""
        version = Version(
            key=key, timestamp=None, value=b"", txn_id=txn_id, is_tombstone=True
        )
        self._insert_version(version)
        self.counters.provisional_writes += 1

    def commit_provisional(self, txn_id: int, keys: Iterable[Key], commit_timestamp: int) -> None:
        """Stamp transaction ``txn_id``'s provisional versions with its commit
        time, each in its slot (:meth:`DataNode.stamp_provisional`)."""
        if commit_timestamp < self._max_committed_ts:
            raise TimestampOrderError(
                f"commit timestamp {commit_timestamp} precedes the latest committed "
                f"timestamp {self._max_committed_ts}"
            )
        for key in keys:
            node = self._descend_to_current_leaf(key)
            if not node.stamp_provisional(key, txn_id, commit_timestamp):
                raise ProvisionalVersionError(
                    f"transaction {txn_id} has no provisional version for key {key!r}"
                )
            self._store_node(node)
        self._max_committed_ts = max(self._max_committed_ts, commit_timestamp)
        self._next_auto_ts = max(self._next_auto_ts, commit_timestamp + 1)
        self.counters.commits += 1

    def abort_provisional(self, txn_id: int, keys: Iterable[Key]) -> None:
        """Erase transaction ``txn_id``'s provisional versions (abort path)."""
        for key in keys:
            node = self._descend_to_current_leaf(key)
            provisional = node.provisional_for_key(key, txn_id)
            if provisional is not None:
                node.remove_version(provisional)
                self._store_node(node)
        self.counters.aborts += 1

    # ------------------------------------------------------------------
    # Public read API
    # ------------------------------------------------------------------
    def search_current(self, key: Key, txn_id: Optional[int] = None) -> Optional[Version]:
        """Return the most recent committed version of ``key`` (or ``None``).

        When ``txn_id`` is given and that transaction has written a
        provisional version of the key, the provisional version is returned
        instead (read-your-writes).  Tombstoned keys read as absent.
        """
        node = self._descend_to_current_leaf(key)
        if txn_id is not None:
            provisional = node.provisional_for_key(key, txn_id)
            if provisional is not None:
                return None if provisional.is_tombstone else provisional
        latest = node.latest_for_key(key)
        if latest is None or latest.is_tombstone:
            return None
        return latest

    def search_as_of(self, key: Key, timestamp: int) -> Optional[Version]:
        """Return the version of ``key`` valid at ``timestamp`` (or ``None``)."""
        if timestamp < 0:
            return None  # nothing is valid before time zero
        node = self._descend_to_leaf(key, timestamp)
        return node.version_as_of(key, timestamp)

    def has_version_at(self, key: Key, timestamp: int) -> bool:
        """Whether a committed version of ``key`` — a tombstone counts — is
        stamped exactly ``timestamp``: one descent to the leaf that owns
        ``(key, timestamp)``, which holds every version created in its span."""
        node = self._descend_to_leaf(key, timestamp)
        return any(v.timestamp == timestamp for v in node.versions_for_key(key))

    def key_history(self, key: Key) -> List[Version]:
        """Every committed version of ``key``, oldest first, duplicates removed."""
        successor = key + 1 if isinstance(key, int) else key + "\x00"
        return self._gather_history(key, successor, 0, None).get(key, [])

    def history_between(self, key: Key, start: int, end: int) -> List[Version]:
        """Versions of ``key`` valid at some point in ``[start, end)`` (the
        time-slice query of temporal databases): the one valid at ``start``,
        if any, then every version created inside the interval, oldest first."""
        return records_valid_between(self.key_history(key), start, end)

    def time_slice(
        self,
        start: int,
        end: int,
        low: Optional[Key] = None,
        high: Optional[Key] = None,
    ) -> Dict[Key, List[Version]]:
        """``history_between`` for every key in ``[low, high)``, in one tree
        walk instead of one root-to-leaf descent per key.

        Tombstone versions are returned (callers present or filter them);
        provisional versions are not.  Keys whose slice is empty are omitted.
        """
        start = max(start, 0)  # nothing is valid before time zero
        if end <= start:
            return {}
        sliced: Dict[Key, List[Version]] = {}
        for key, history in self._gather_history(low, high, start, end).items():
            records = records_valid_between(history, start, end)
            if records:
                sliced[key] = records
        return sliced

    def snapshot(self, timestamp: int) -> Dict[Key, Version]:
        """The state of the database as of ``timestamp`` (paper section 2.5)."""
        return {v.key: v for v in self._versions_as_of(None, None, timestamp)}

    def range_search(
        self,
        low: Optional[Key] = None,
        high: Optional[Key] = None,
        as_of: Optional[int] = None,
    ) -> List[Version]:
        """Versions of keys in ``[low, high)`` valid at ``as_of`` (default: now)."""
        timestamp = self._max_committed_ts if as_of is None else as_of
        return self._versions_as_of(low, high, timestamp)

    def keys(self, low: Optional[Key] = None, high: Optional[Key] = None) -> List[Key]:
        """Sorted keys in ``[low, high)`` with a committed version, logically
        deleted ones included."""
        newest = self._versions_as_of(low, high, self._max_committed_ts, tombstones=True)
        return [version.key for version in newest]

    def current_keys(self) -> List[Key]:
        """Sorted keys with a live (non-tombstoned) current version."""
        return [version.key for version in self.range_search()]

    # ------------------------------------------------------------------
    # The two walks under every multi-key read
    # ------------------------------------------------------------------
    def _versions_as_of(
        self, low: Optional[Key], high: Optional[Key], timestamp: int, tombstones: bool = False
    ) -> List[Version]:
        """The as-of walk: the version valid at ``timestamp`` of each key in
        ``[low, high)``, key-sorted — the paper's search rule ("ignore entries
        stamped after T, take the last one before it") over a key range.

        The data nodes' rectangles partition the key x time plane and a time
        split copies the versions alive at the split time into the newer
        node, so each visited node answers for its own keys and nothing is
        de-duplicated across nodes.  Who filters what: an index entry's
        rectangle selects the node (``_iter_data_nodes``), the node's columns
        select the rows (``DataNode.versions_as_of``, once per node); the
        walk only concatenates and sorts.  ``tombstones`` keeps logically
        deleted keys; it is offered at ``now`` only (``keys``).
        """
        if timestamp < 0:
            return []  # nothing is valid before time zero
        region = Rectangle(KeyRange(low, high), TimeRange(timestamp, timestamp + 1))
        found: List[Version] = []
        for node in self._iter_data_nodes(region):
            found.extend(node.versions_as_of(low, high, timestamp, tombstones))
        found.sort(key=attrgetter("key"))
        return found

    def _gather_history(
        self, low: Optional[Key], high: Optional[Key], start: int, end: Optional[int]
    ) -> Dict[Key, List[Version]]:
        """The history gather: for each key in ``[low, high)``, its distinct
        committed versions (tombstones included) from every data node
        overlapping the key range x ``[start, end)``, oldest first, key-sorted.

        Over all time that is the key's whole history.  Over a bounded span
        two TSB-tree invariants make it enough: a node overlapping the query
        rectangle contains the version of each of its keys valid at the
        node's start time (the redundancy written by time splits), and every
        version created inside the node's time span for its key range is
        stored in it.  The gathered lists are therefore suffix-closed over
        ``[start, end)`` — any version old enough to be missing has a
        successor in the list at or before ``start`` — which is exactly what
        :func:`records_valid_between` needs to slice them as it would the
        full history.  A version copied by time splits turns up in every node
        holding it; its identity de-duplicates it.  As in the as-of walk, the
        entries' rectangles select the nodes and each node's columns select
        its rows (``DataNode.committed_versions``, once per node).
        """
        region = Rectangle(KeyRange(low, high), TimeRange(start, end))
        found: List[Version] = []
        for node in self._iter_data_nodes(region):
            found.extend(node.committed_versions(low, high))
        distinct = {version.identity(): version for version in found}
        history = group_by_key(distinct.values())  # each key's oldest first
        return dict(sorted(history.items()))  # keys are distinct: the lists never compare

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def height(self) -> int:
        """Number of node levels from root to data nodes (1 = root is a leaf)."""
        return self._height

    @property
    def root_address(self) -> Address:
        return self._root_address

    @property
    def now(self) -> int:
        """The largest committed timestamp the tree has seen."""
        return self._max_committed_ts

    @property
    def log_anchor(self) -> int:
        """LSN of the WAL checkpoint record this tree was last flushed under.

        Zero means the tree has never been checkpointed through a
        :class:`~repro.recovery.log_manager.LogManager`; restart recovery
        then replays the durable log from its very beginning.
        """
        return self._log_anchor

    @property
    def log_anchor_offset(self) -> int:
        """Byte offset of the anchored checkpoint record in the log device.

        Lets restart recovery start decoding at the anchor instead of
        scanning the whole log from byte 0.
        """
        return self._log_anchor_offset

    def iter_nodes(self) -> Iterator[Union[DataNode, IndexNode]]:
        """Yield every reachable node exactly once (current and historical)."""
        seen: Set[Address] = set()
        stack: List[Address] = [self._root_address]
        while stack:
            address = stack.pop()
            if address in seen:
                continue
            seen.add(address)
            node = self._load_node(address)
            yield node
            if isinstance(node, IndexNode):
                stack.extend(entry.child for entry in node.entries)

    def data_nodes(self) -> List[DataNode]:
        return [node for node in self.iter_nodes() if isinstance(node, DataNode)]

    def index_nodes(self) -> List[IndexNode]:
        return [node for node in self.iter_nodes() if isinstance(node, IndexNode)]

    def flush(self) -> None:
        """Write every dirty page back to the magnetic device.

        Does nothing for a tree under a write-ahead log: its pages may only
        move at a checkpoint (:meth:`checkpoint`, driven by the log manager).
        """
        if not self.cache.no_steal:
            self.cache.flush()

    def drop_caches(self, cache_pages: Optional[int] = None) -> None:
        """Flush, then forget every clean page; optionally resize the pool.

        Used by benchmarks to measure cold-cache behaviour.
        """
        self.flush()
        self.cache.drop_clean(cache_pages)

    # ------------------------------------------------------------------
    # Durability: superblock checkpointing and reopening
    # ------------------------------------------------------------------
    def checkpoint(
        self,
        log_anchor: Optional[int] = None,
        log_anchor_offset: Optional[int] = None,
    ) -> None:
        """Flush dirty pages and persist the root pointer to the superblock.

        After a checkpoint, :meth:`open` can rebuild an equivalent tree from
        the two devices alone.  The structural-event counters are persisted
        too, so accounting survives reopen and restart recovery.

        ``log_anchor`` records the LSN of the WAL checkpoint record this
        flush belongs to (see :meth:`~repro.recovery.log_manager.LogManager.checkpoint`)
        and ``log_anchor_offset`` that record's byte position in the log
        device; restart recovery replays the log from that record.  Without
        one, a tree under a write-ahead log does nothing, as :meth:`flush`
        does: an image newer than its anchor would have the log from that
        anchor replayed onto it.
        """
        if log_anchor is not None:
            self._set_log_anchor(log_anchor, log_anchor_offset or 0)
        elif self.cache.no_steal:
            return
        self.cache.flush()
        writer = ByteWriter()
        writer.put_u32(_SUPERBLOCK_MAGIC)
        write_address(writer, self._root_address)
        writer.put_u32(self._height)
        writer.put_u64(self._max_committed_ts)
        writer.put_u64(self._next_auto_ts)
        writer.put_u32(self.page_size)
        writer.put_u64(self._log_anchor)
        writer.put_u64(self._log_anchor_offset)
        counter_values = self.counters.field_values()
        # Counters are best-effort on pathologically small pages: drop them
        # rather than overflow the superblock page.
        if writer.size + 4 + 8 * len(counter_values) > self.magnetic.page_size:
            counter_values = []
        writer.put_u32(len(counter_values))
        for value in counter_values:
            writer.put_u64(value)
        self.magnetic.write(self.superblock_address, writer.getvalue())

    def _set_log_anchor(self, lsn: int, offset: int) -> None:
        self._log_anchor = lsn
        self._log_anchor_offset = offset
        if lsn:
            # A log manager checkpointed this image, so the log from `lsn` on
            # will be replayed onto exactly these pages: from here on the pool
            # may not write one back before the next checkpoint does.
            self.cache.no_steal = True

    @classmethod
    def open(
        cls,
        magnetic: MagneticDisk,
        historical: HistoricalDevice,
        policy: Optional[SplitPolicy] = None,
        cache_pages: int = 128,
        superblock_page: int = 0,
    ) -> "TSBTree":
        """Reopen a TSB-tree from its devices using the last checkpoint.

        ``magnetic`` and ``historical`` must be the same device objects (or
        faithful reloads of their contents) that the original tree wrote to;
        ``superblock_page`` is the magnetic page the superblock lives in
        (page 0 unless the devices were shared with something else).
        """
        superblock_address = Address.magnetic(superblock_page)
        reader = ByteReader(magnetic.read(superblock_address))
        magic = reader.get_u32()
        if magic != _SUPERBLOCK_MAGIC:
            raise TSBTreeError(
                f"magnetic page {superblock_page} does not hold a TSB-tree superblock"
            )
        root_address = read_address(reader)
        height = reader.get_u32()
        max_committed_ts = reader.get_u64()
        next_auto_ts = reader.get_u64()
        page_size = reader.get_u32()
        log_anchor = reader.get_u64()
        log_anchor_offset = reader.get_u64()
        counter_values = [reader.get_u64() for _ in range(reader.get_u32())]

        tree = cls.__new__(cls)
        tree.page_size = page_size
        tree.policy = policy or ThresholdPolicy()
        tree.magnetic = magnetic
        tree.historical = historical
        tree.cache = PageCache(magnetic, capacity=cache_pages, opener=_open_page)
        tree.counters = TreeCounters.from_field_values(counter_values)
        tree._max_committed_ts = max_committed_ts
        tree._next_auto_ts = next_auto_ts
        tree._set_log_anchor(log_anchor, log_anchor_offset)
        tree.superblock_address = superblock_address
        tree._root_address = root_address
        tree._height = height
        return tree

    # ------------------------------------------------------------------
    # Internal: timestamps
    # ------------------------------------------------------------------
    def _resolve_timestamp(self, timestamp: Optional[int]) -> int:
        if timestamp is None:
            return self._next_auto_ts
        if timestamp < self._max_committed_ts:
            raise TimestampOrderError(
                f"timestamp {timestamp} precedes the latest committed timestamp "
                f"{self._max_committed_ts}; a rollback database stamps records in "
                "commit order"
            )
        return timestamp

    # ------------------------------------------------------------------
    # Internal: node I/O
    #
    # Current (magnetic) nodes are residents of the buffer pool `self.cache`
    # (see `repro.storage.pagecache`); historical (WORM) reads are opened
    # afresh each time so the historical device's I/O accounting stays
    # byte-accurate.  `self.cache.read` is looked up at every call: the
    # benchmark's span recorder swaps `PageCache.read` on the class.
    # ------------------------------------------------------------------
    def _load_node(self, address: Address) -> Union[DataNode, IndexNode]:
        if address.tier is _MAGNETIC:
            return self.cache.read(address)
        return decode_node(address, self.historical.read(address))

    def _store_node(self, node: Union[DataNode, IndexNode]) -> None:
        # serialized_size() is a conservative budget (it over-charges fixed
        # headers); only when it exceeds the page does the exact encoded
        # length need checking, so the hot path never serialises here.
        if node.serialized_size() > self.page_size and node.address.is_magnetic:
            exact = len(node.encode())
            if exact > self.page_size:
                raise NodeError(
                    f"node {node.address} serialises to {exact} bytes "
                    f"(> page size {self.page_size}); split bookkeeping is broken"
                )
        self.cache.write(node.address, node)

    def _append_historical(self, image: bytes) -> Address:
        address = self.historical.append_region(image)
        self.counters.historical_bytes_written += len(image)
        self.counters.historical_nodes_written += 1
        return address

    # ------------------------------------------------------------------
    # Internal: descent
    # ------------------------------------------------------------------
    def _descend_to_current_leaf(self, key: Key) -> DataNode:
        # Current children are magnetic: no tier test, straight to the pool.
        read = self.cache.read
        node = read(self._root_address)
        while isinstance(node, IndexNode):
            node = read(node.find_current_child(key).child)
        assert isinstance(node, DataNode)
        return node

    def _descend_to_leaf(self, key: Key, timestamp: int) -> DataNode:
        node = self._load_node(self._root_address)
        while isinstance(node, IndexNode):
            entry = node.find_child(key, timestamp)
            node = self._load_node(entry.child)
        assert isinstance(node, DataNode)
        return node

    def _iter_data_nodes(self, region: Rectangle) -> Iterator[DataNode]:
        """Yield each data node whose region overlaps ``region`` exactly once.

        An index entry's rectangle is its child's own (the checker holds
        that), so a child picked by ``children_overlapping`` is not asked
        for its rectangle again: only a root that is itself a leaf is.
        """
        node = self._load_node(self._root_address)
        if isinstance(node, DataNode):
            if node.region.overlaps(region):
                yield node
            return
        # Only a historical node can have two parents (index key splits copy
        # the entries that straddle the split), so only those are remembered.
        seen: Set[Tuple[int, int]] = set()
        stack = node.children_overlapping(region)
        while stack:
            address = stack.pop()
            if address.tier is not _MAGNETIC:
                shared = (address.platter, address.page_id)
                if shared in seen:
                    continue
                seen.add(shared)
            node = self._load_node(address)
            if isinstance(node, DataNode):
                yield node
            else:
                stack.extend(node.children_overlapping(region))

    # ------------------------------------------------------------------
    # Internal: insertion and splitting
    # ------------------------------------------------------------------
    def _note_superseded(self, node: DataNode, version: Version) -> None:
        latest = node.latest_for_key(version.key)
        self._last_insert_superseded = latest is not None and not latest.is_tombstone

    def _require_fits(self, version: Version) -> None:
        size = _EMPTY_DATA_PAGE + version.serialized_size()
        if size > self.page_size:
            raise RecordTooLargeError(
                f"a single version of key {version.key!r} needs "
                f"{size} bytes but pages hold {self.page_size}"
            )

    def _insert_version(self, version: Version) -> None:
        self._last_insert_superseded = False
        self._require_fits(version)
        replacements = self._insert_recursive(self._root_address, version)
        if replacements is not None:
            self._grow_root(replacements)

    def _insert_recursive(
        self, address: Address, version: Version
    ) -> Optional[List[IndexEntry]]:
        node = self.cache.read(address)  # the current path is all magnetic
        if isinstance(node, DataNode):
            if version.timestamp is None:
                # A rewrite inside a transaction replaces its earlier version
                # of the key — here, on the leaf, once the size probe passed.
                earlier = node.provisional_for_key(version.key, version.txn_id)
                if earlier is not None:
                    node.remove_version(earlier)
            if node.fits(self.page_size, extra=version):
                self._note_superseded(node, version)
                node.add_version(version)
                self._store_node(node)
                return None
            return self._split_data_node(node, version)

        entry = node.find_current_child(version.key)
        child_replacements = self._insert_recursive(entry.child, version)
        if child_replacements is None:
            return None
        node.replace_entry(entry, child_replacements)
        if node.fits(self.page_size):
            self._store_node(node)
            return None
        return self._split_index_node(node)

    def _grow_root(self, entries: Sequence[IndexEntry]) -> None:
        """Create a new index root above the entries produced by a root split."""
        new_root_address = self.magnetic.allocate_page()
        new_root = IndexNode(
            address=new_root_address,
            region=Rectangle.full(),
            entries=list(entries),
            level=self._height,
        )
        self._store_node(new_root)
        self._root_address = new_root_address
        self._height += 1
        # The brand-new root might itself be too full when a lower split
        # produced many replacement entries; split it immediately if so.
        if not new_root.fits(self.page_size):
            replacements = self._split_index_node(new_root)
            self._grow_root(replacements)

    # -- data nodes ---------------------------------------------------------
    def _split_data_node(self, node: DataNode, incoming: Version) -> List[IndexEntry]:
        """Split ``node`` per policy, insert ``incoming``, return parent entries."""
        context = SplitContext(
            versions=tuple(node.versions),
            region=node.region,
            page_size=self.page_size,
            now=self._max_committed_ts,
        )
        decision = self.policy.decide(context)
        replacements = self._perform_data_split(node, decision, context)
        return self._insert_into_replacements(replacements, incoming)

    def _perform_data_split(
        self, node: DataNode, decision: SplitDecision, context: SplitContext
    ) -> List[IndexEntry]:
        """Carry out a split decision, falling back to the other kind on error."""
        if decision.kind is SplitKind.TIME:
            assert decision.split_time is not None
            try:
                return self._perform_data_time_split(node, decision.split_time)
            except SplitError:
                return self._perform_data_key_split(
                    node, choose_key_split_value(node.versions)
                )
        assert decision.split_key is not None
        try:
            return self._perform_data_key_split(node, decision.split_key)
        except SplitError:
            return self._perform_data_time_split(
                node, self.policy.pick_split_time(context)
            )

    def _perform_data_time_split(self, node: DataNode, split_time: int) -> List[IndexEntry]:
        """Time split: migrate history to the optical disk (section 3.1)."""
        with trace.span("tsb.data_time_split", time=split_time):
            historical_region, current_region = split_region_by_time(node.region, split_time)
            split = time_split_versions(node.versions, split_time)
            historical_node = DataNode(
                address=Address.magnetic(0),  # placeholder; real address assigned below
                region=historical_region,
                versions=list(split.historical),
            )
            historical_address = self._append_historical(historical_node.encode())
            node.versions = list(split.current)
            node.region = current_region
            self._store_node(node)
            self.counters.data_time_splits += 1
            self.counters.redundant_versions_written += len(split.redundant)
            return [
                IndexEntry(child=historical_address, region=historical_region),
                IndexEntry(child=node.address, region=current_region),
            ]

    def _perform_data_key_split(self, node: DataNode, split_key: Key) -> List[IndexEntry]:
        """Pure key split: B+-tree style, nothing copied (section 3.1, Figure 5)."""
        with trace.span("tsb.data_key_split", key=split_key):
            left_region, right_region = split_region_by_key(node.region, split_key)
            left_versions, right_versions = key_split_versions(node.versions, split_key)
            # Allocate the sibling page before touching the existing node so that
            # a full magnetic disk leaves the original node intact.
            right_address = self.magnetic.allocate_page()
            node.versions = list(left_versions)
            node.region = left_region
            self._store_node(node)
            right_node = DataNode(
                address=right_address, region=right_region, versions=list(right_versions)
            )
            self._store_node(right_node)
            self.counters.data_key_splits += 1
            return [
                IndexEntry(child=node.address, region=left_region),
                IndexEntry(child=right_address, region=right_region),
            ]

    def _insert_into_replacements(
        self, replacements: List[IndexEntry], version: Version
    ) -> List[IndexEntry]:
        """Insert ``version`` into whichever current child now covers it."""
        for position, entry in enumerate(replacements):
            if not entry.is_current:
                continue
            if not entry.region.keys.contains(version.key):
                continue
            if not entry.region.times.is_current:
                continue
            child = self._load_node(entry.child)
            assert isinstance(child, DataNode)
            if child.fits(self.page_size, extra=version):
                self._note_superseded(child, version)
                child.add_version(version)
                self._store_node(child)
                return replacements
            nested = self._split_data_node(child, version)
            return replacements[:position] + nested + replacements[position + 1 :]
        raise NodeError(
            f"no current replacement entry covers key {version.key!r}"
        )

    # -- index nodes ----------------------------------------------------------
    def _split_index_node(self, node: IndexNode) -> List[IndexEntry]:
        """Split a full index node, preferring a local time split when allowed."""
        replacements = self._perform_index_split(node)
        expanded: List[IndexEntry] = []
        for entry in replacements:
            if entry.is_current:
                child = self._load_node(entry.child)
                if isinstance(child, IndexNode) and not child.fits(self.page_size):
                    expanded.extend(self._split_index_node(child))
                    continue
            expanded.append(entry)
        return expanded

    def _perform_index_split(self, node: IndexNode) -> List[IndexEntry]:
        if self.policy.prefers_index_time_splits:
            split_time = find_local_index_split_time(node.entries)
            if split_time is not None and split_time > node.region.times.start:
                try:
                    return self._perform_index_time_split(node, split_time)
                except SplitError:
                    pass
        try:
            split_key = choose_index_split_key(node.entries)
            return self._perform_index_key_split(node, split_key)
        except SplitError:
            # No usable key split (e.g. every entry spans the full key range);
            # fall back to a time split if one is possible at all.
            split_time = find_local_index_split_time(node.entries)
            if split_time is None or split_time <= node.region.times.start:
                raise
            return self._perform_index_time_split(node, split_time)

    def _perform_index_time_split(self, node: IndexNode, split_time: int) -> List[IndexEntry]:
        """Local index time split (section 3.5, Figure 8)."""
        with trace.span("tsb.index_time_split", time=split_time):
            historical_region, current_region = split_region_by_time(node.region, split_time)
            split = index_time_split(node.entries, split_time)
            historical_node = IndexNode(
                address=Address.magnetic(0),
                region=historical_region,
                entries=list(split.historical),
                level=node.level,
            )
            historical_address = self._append_historical(historical_node.encode())
            node.entries = list(split.current)
            node.region = current_region
            self.counters.index_time_splits += 1
            self.counters.redundant_index_entries_written += len(split.copied)
            return [
                IndexEntry(child=historical_address, region=historical_region),
                *self._store_or_resplit_index(node),
            ]

    def _perform_index_key_split(self, node: IndexNode, split_key: Key) -> List[IndexEntry]:
        """Index keyspace split (section 3.5 rule), duplicating straddling entries."""
        with trace.span("tsb.index_key_split", key=split_key):
            left_region, right_region = split_region_by_key(node.region, split_key)
            split = index_key_split(node.entries, split_key)
            # Allocate before mutating, as in the data-node key split.
            right_address = self.magnetic.allocate_page()
            node.entries = list(split.left)
            node.region = left_region
            right_node = IndexNode(
                address=right_address,
                region=right_region,
                entries=list(split.right),
                level=node.level,
            )
            self.counters.index_key_splits += 1
            self.counters.redundant_index_entries_written += len(split.copied)
            return [
                *self._store_or_resplit_index(node),
                *self._store_or_resplit_index(right_node),
            ]

    def _store_or_resplit_index(self, node: IndexNode) -> List[IndexEntry]:
        """Store one split half, or split it again if it still overflows.

        A key split copies straddling entries into both halves and a time
        split keeps every still-alive entry on the current side, so on small
        pages a single split does not guarantee both halves fit.  Splitting
        the oversized half again (strictly narrowing its region each round)
        converges; ``_store_node`` would refuse the oversized page image.
        """
        if node.fits(self.page_size):
            self._store_node(node)
            return [IndexEntry(child=node.address, region=node.region)]
        return self._perform_index_split(node)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TSBTree(height={self._height}, now={self._max_committed_ts}, "
            f"policy={self.policy.name})"
        )
