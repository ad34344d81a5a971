"""The buffer pool: the one place a magnetic page lives in memory.

The paper prescribes no buffer manager, but a disk-resident tree has one, and
telling "node accesses" from "device accesses" (Study S5) needs hits counted
apart from misses.  :class:`PageCache` is that pool, for the TSB-tree and for
the B+-tree baseline alike, and it is the only code that moves a page image
between memory and the :class:`~repro.storage.magnetic.MagneticDisk`.

**Residents.**  What the pool holds for a page is whatever its owner's
``opener`` makes of the page image: the TSB-tree passes ``decode_node``, so a
resident is an image-backed node that answers lookups from the image in
place; the B+-tree baseline passes none, so a resident is the image itself.
A resident is written back as ``resident.encode()`` (as it stands, for an
image) — a node nobody mutated hands its image straight back.  The owner
mutates a resident in place and then calls :meth:`write`, which is what makes
it *dirty*; the pool never looks inside one beyond asking the owner's
``is_index`` which order it joins.

**Leaves go first.**  Every lookup, current or as-of, descends through the
index pages (paper section 3), so a pool that lets a range scan push them out
pays for the descent again on the next point read.  The owner says which
residents are index pages (``is_index``: the TSB-tree's ``IndexNode``, the
B+-tree baseline's branch images, so Study S5 compares like with like);
residents sit in two least-recently-used orders, leaves and index pages, and
the victim is always the least recently used leaf.  An index page is evicted
only when no leaf can go.  A page joins an order when it becomes resident
and keeps it until it leaves.  Both eviction paths are O(1), and
:class:`CacheStats` counts index misses apart from leaf misses.

* :meth:`read` installs a page *clean* and makes room by dropping clean
  residents only: the least recently used clean leaf, else the least
  recently used clean index page.  Reads therefore never write: they run
  under the store's shared latch, many at once, and a reader that wrote a
  page back would both mutate the device under other readers and pay a
  device write on the query path.  When every resident is dirty a miss is
  served and not kept.
* :meth:`write` may evict any leaf, least recently used first (an index page
  only once no leaf is left), and writes a dirty victim back first (once —
  it leaves the pool with its image on the device).  Writers hold the latch
  exclusively.

:meth:`flush` writes every dirty resident back in page order and leaves all
of them resident and clean.

**What ``capacity`` bounds.**  For a tree with no log, the residents: clean
and dirty together never exceed it once an operation returns.  For a tree
under a write-ahead log the pool is **no-steal** (:attr:`PageCache.no_steal`):
the log is replayed onto the image the last checkpoint left on the device, so
a dirty page must not reach the device before the next checkpoint does it.
Neither path then ever writes; ``capacity`` bounds the clean residents only,
and the dirty ones — the work since the last checkpoint, which the log also
holds — stay until the owner's checkpoint calls :meth:`flush`.  The log's
checkpoint rule (:mod:`repro.recovery.log_manager`) takes one whenever
``CHECKPOINT_EVERY_BYTES`` of log have piled up past the last, so the dirty
residents are bounded by what that much log can dirty, not by how long the
store has been up.  Nobody sets
this as an option: the tree turns it on when a log manager checkpoints it
(``TSBTree.checkpoint(log_anchor=...)``; the superblock carries the anchor
across a reopen), and a ``LogReplayer`` turns it on for the tree it applies to.

**Threads.**  Every change to the tables happens under one lock.  The device
read and the opener of a miss run outside it, so a miss never blocks hits on
other pages; two threads missing the same page both read it and the second
adopts the first's resident.  A write that lands while a miss is between its
device read and its install bumps the pool's write generation, and the miss
reads the device again rather than install an image older than that write.

Historical (WORM) pages are not held here.  A historical region is
write-once, so its owner keeps what it opened from one for good, outside any
capacity (``TSBTree._load_node``); the pool bounds only what can change.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, fields
from typing import Callable, Dict, Iterable, Optional, Tuple

from repro.storage.device import Address
from repro.storage.magnetic import MagneticDisk


@dataclass
class CacheStats:
    """Hit/miss/eviction/write-back counters for one :class:`PageCache`.

    ``misses`` counts every miss; ``index_misses`` the ones whose page was an
    index page, so ``leaf_misses`` is the rest.
    """

    hits: int = 0
    misses: int = 0
    index_misses: int = 0
    evictions: int = 0
    flushes: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def leaf_misses(self) -> int:
        return self.misses - self.index_misses

    @property
    def hit_ratio(self) -> float:
        if self.accesses == 0:
            return 1.0
        return self.hits / self.accesses

    @classmethod
    def total(cls, many: Iterable["CacheStats"]) -> "CacheStats":
        """The counters of several pools added up (a sharded store's)."""
        total = cls()
        for stats in many:
            for field in fields(cls):
                setattr(total, field.name, getattr(total, field.name) + getattr(stats, field.name))
        return total

    def as_dict(self) -> Dict[str, float]:
        """The counters as ``metrics_snapshot()["cache"]`` reports them."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "index_misses": self.index_misses,
            "leaf_misses": self.leaf_misses,
            "evictions": self.evictions,
            "flushes": self.flushes,
            "accesses": self.accesses,
            "hit_ratio": round(self.hit_ratio, 4),
        }


#: One kind's page ids, least recently used first, and its clean ones.
_Kind = Tuple["OrderedDict[int, None]", "OrderedDict[int, None]"]


def _no_index(resident) -> bool:
    return False


class PageCache:
    """Write-back pool of resident pages over an erasable magnetic disk that
    evicts leaves before index pages, each kind least recently used first.

    Parameters
    ----------
    disk:
        The magnetic device behind the pool.
    capacity:
        How many residents the pool keeps (see the module docstring for what
        it bounds under a log).
    opener:
        ``opener(address, image)`` builds the resident for a page read from
        the device, and residents are then written back through their
        ``encode()``; ``None`` keeps the images themselves.
    is_index:
        ``is_index(resident)`` is true for an index page, which the pool
        evicts only when no leaf can go; by default every resident is a leaf.
    """

    def __init__(
        self,
        disk: MagneticDisk,
        capacity: int = 64,
        opener: Optional[Callable[[Address, bytes], object]] = None,
        is_index: Callable[[object], bool] = _no_index,
    ) -> None:
        if capacity <= 0:
            raise ValueError("cache capacity must be positive")
        self.disk = disk
        self.capacity = capacity
        #: True for a tree under a write-ahead log: dirty residents leave
        #: only through :meth:`flush`, which the owner calls at a checkpoint.
        self.no_steal = False
        self.stats = CacheStats()
        self._open = opener
        self._is_index = is_index
        #: Each kind's page ids, least recently used first, and the clean
        #: ones among them in the same order: (leaves, clean leaves) and
        #: (index pages, clean index pages).
        self._leaves: _Kind = (OrderedDict(), OrderedDict())
        self._index: _Kind = (OrderedDict(), OrderedDict())
        #: page id -> (resident, its kind's order, its kind's clean ids).
        self._residents: Dict[int, tuple] = {}
        self._lock = threading.Lock()
        self._write_generation = 0

    @property
    def dirty_count(self) -> int:
        """How many residents wait for a write-back."""
        return len(self._residents) - len(self._leaves[1]) - len(self._index[1])

    def read(self, address: Address):
        """The resident for ``address``, read from the device on a miss."""
        page_id = address.page_id
        residents = self._residents
        with self._lock:
            entry = residents.get(page_id)
            if entry is not None:
                self.stats.hits += 1
                resident, order, clean = entry
                order.move_to_end(page_id)
                if page_id in clean:
                    clean.move_to_end(page_id)
                return resident
            self.stats.misses += 1
            generation = self._write_generation
        while True:
            image = self.disk.read(address)
            resident = image if self._open is None else self._open(address, image)
            index = self._is_index(resident)
            with self._lock:
                entry = residents.get(page_id)  # another thread's, if it got here first
                if entry is None:
                    if generation != self._write_generation:
                        # A write landed since the device was read (and its
                        # resident is already gone again): this image may
                        # predate it.
                        generation = self._write_generation
                        continue
                    order, clean = self._index if index else self._leaves
                    entry = residents[page_id] = (resident, order, clean)
                    order[page_id] = None
                    clean[page_id] = None
                    self._evict(may_write=False)
                if entry[1] is self._index[0]:
                    self.stats.index_misses += 1
                return entry[0]

    def write(self, address: Address, resident) -> None:
        """Make ``resident`` the (dirty) resident for ``address``."""
        if self._open is None and len(resident) > self.disk.page_size:
            # Let the device raise its overflow error now rather than at
            # whichever later eviction happens to write the image back.
            self.disk.write(address, resident)
        page_id = address.page_id
        residents = self._residents
        with self._lock:
            self._write_generation += 1
            entry = residents.get(page_id)
            if entry is None:
                order, clean = self._index if self._is_index(resident) else self._leaves
                order[page_id] = None
            else:
                # A page keeps the order it joined while it stays resident
                # (its owner invalidates a page it frees).
                _, order, clean = entry
                order.move_to_end(page_id)
                clean.pop(page_id, None)
            residents[page_id] = (resident, order, clean)
            if len(residents) > self.capacity:
                self._evict(may_write=True)

    def flush(self) -> None:
        """Write every dirty resident back, in page order; all stay, clean."""
        with self._lock:
            residents = self._residents
            for page_id in sorted(residents):
                resident, order, clean = residents[page_id]
                if page_id not in clean:
                    self._write_back(page_id, resident)
            for order, clean in (self._leaves, self._index):
                clean.clear()
                clean.update(order)
            self._evict(may_write=False)

    def invalidate(self, address: Address) -> None:
        """Forget the resident for ``address`` without writing it back (the
        page was freed)."""
        with self._lock:
            entry = self._residents.pop(address.page_id, None)
            if entry is not None:
                _, order, clean = entry
                del order[address.page_id]
                clean.pop(address.page_id, None)

    def drop_clean(self, capacity: Optional[int] = None) -> None:
        """Go cold: forget every clean resident, and resize if asked.

        Dirty residents stay (flush first to drop everything); the counters
        keep running.
        """
        if capacity is not None and capacity <= 0:
            raise ValueError("cache capacity must be positive")
        with self._lock:
            for order, clean in (self._leaves, self._index):
                for page_id in clean:
                    del order[page_id]
                    del self._residents[page_id]
                clean.clear()
            if capacity is not None:
                self.capacity = capacity

    # -- called with the lock held ---------------------------------------
    def _write_back(self, page_id: int, resident) -> None:
        image = resident if self._open is None else resident.encode()
        self.disk.write(Address.magnetic(page_id), image)
        self.stats.flushes += 1

    def _evict(self, may_write: bool) -> None:
        residents = self._residents
        (leaves, clean_leaves), (_, clean_index) = self._leaves, self._index
        if may_write and not self.no_steal:
            while len(residents) > self.capacity:
                order, clean = self._leaves if leaves else self._index
                page_id, _ = order.popitem(last=False)
                victim = residents.pop(page_id)[0]
                if page_id in clean:
                    del clean[page_id]
                else:
                    self._write_back(page_id, victim)
                self.stats.evictions += 1
            return
        # Clean residents only: under no-steal they are all ``capacity`` bounds.
        while (len(clean_leaves) + len(clean_index) if self.no_steal else len(residents)) > self.capacity:
            order, clean = self._leaves if clean_leaves else self._index
            if not clean:
                return
            page_id, _ = clean.popitem(last=False)
            del order[page_id]
            del residents[page_id]
            self.stats.evictions += 1
