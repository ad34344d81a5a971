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
it *dirty*; the pool never looks inside one.

**Two eviction paths.**  Residents sit in one least-recently-used order.

* :meth:`read` installs a page *clean* and makes room by dropping clean
  residents only, least recently used first, in O(1).  Reads therefore never
  write: they run under the store's shared latch, many at once, and a reader
  that wrote a page back would both mutate the device under other readers
  and pay a device write on the query path.  When every resident is dirty a
  miss is served and not kept.
* :meth:`write` may evict any least-recently-used resident, and writes a
  dirty victim back first (once — it leaves the pool with its image on the
  device).  Writers hold the latch exclusively.

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

Historical (WORM) pages are not held here: historical accesses are rare and
pay full optical latency, as the paper assumes, and their I/O accounting
stays byte-accurate.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Optional

from repro.storage.device import Address
from repro.storage.magnetic import MagneticDisk


@dataclass
class CacheStats:
    """Hit/miss/eviction/write-back counters for one :class:`PageCache`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    flushes: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        if self.accesses == 0:
            return 1.0
        return self.hits / self.accesses


class PageCache:
    """LRU write-back pool of resident pages over an erasable magnetic disk.

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
    """

    def __init__(
        self,
        disk: MagneticDisk,
        capacity: int = 64,
        opener: Optional[Callable[[Address, bytes], object]] = None,
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
        #: Every resident, least recently used first.
        self._residents: "OrderedDict[int, object]" = OrderedDict()
        #: The page ids of the clean ones, in the same order.
        self._clean: "OrderedDict[int, None]" = OrderedDict()
        self._lock = threading.Lock()
        self._write_generation = 0

    def read(self, address: Address):
        """The resident for ``address``, read from the device on a miss."""
        page_id = address.page_id
        residents = self._residents
        with self._lock:
            resident = residents.get(page_id)
            if resident is not None:
                self.stats.hits += 1
                residents.move_to_end(page_id)
                if page_id in self._clean:
                    self._clean.move_to_end(page_id)
                return resident
            self.stats.misses += 1
            generation = self._write_generation
        while True:
            image = self.disk.read(address)
            resident = image if self._open is None else self._open(address, image)
            with self._lock:
                installed = residents.get(page_id)
                if installed is not None:
                    return installed  # another thread got here first
                if generation == self._write_generation:
                    residents[page_id] = resident
                    self._clean[page_id] = None
                    self._evict(may_write=False)
                    return resident
                # A write landed since the device was read (and its resident
                # is already gone again): this image may predate it.
                generation = self._write_generation

    def write(self, address: Address, resident) -> None:
        """Make ``resident`` the (dirty) resident for ``address``."""
        if self._open is None and len(resident) > self.disk.page_size:
            # Let the device raise its overflow error now rather than at
            # whichever later eviction happens to write the image back.
            self.disk.write(address, resident)
        page_id = address.page_id
        with self._lock:
            self._write_generation += 1
            self._residents[page_id] = resident
            self._residents.move_to_end(page_id)
            self._clean.pop(page_id, None)
            self._evict(may_write=True)

    def flush(self) -> None:
        """Write every dirty resident back, in page order; all stay, clean."""
        with self._lock:
            clean = self._clean
            for page_id in sorted(p for p in self._residents if p not in clean):
                self._write_back(page_id, self._residents[page_id])
            self._clean = OrderedDict.fromkeys(self._residents)
            self._evict(may_write=False)

    def invalidate(self, address: Address) -> None:
        """Forget the resident for ``address`` without writing it back (the
        page was freed)."""
        with self._lock:
            self._residents.pop(address.page_id, None)
            self._clean.pop(address.page_id, None)

    def drop_clean(self, capacity: Optional[int] = None) -> None:
        """Go cold: forget every clean resident, and resize if asked.

        Dirty residents stay (flush first to drop everything); the counters
        keep running.
        """
        if capacity is not None and capacity <= 0:
            raise ValueError("cache capacity must be positive")
        with self._lock:
            for page_id in self._clean:
                del self._residents[page_id]
            self._clean.clear()
            if capacity is not None:
                self.capacity = capacity

    # -- called with the lock held ---------------------------------------
    def _write_back(self, page_id: int, resident) -> None:
        image = resident if self._open is None else resident.encode()
        self.disk.write(Address.magnetic(page_id), image)
        self.stats.flushes += 1

    def _evict(self, may_write: bool) -> None:
        residents, clean = self._residents, self._clean
        if may_write and not self.no_steal:
            while len(residents) > self.capacity:
                page_id, victim = residents.popitem(last=False)
                if page_id in clean:
                    del clean[page_id]
                else:
                    self._write_back(page_id, victim)
                self.stats.evictions += 1
            return
        bounded = clean if self.no_steal else residents
        while len(bounded) > self.capacity and clean:
            page_id, _ = clean.popitem(last=False)
            del residents[page_id]
            self.stats.evictions += 1
