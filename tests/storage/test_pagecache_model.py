"""The buffer pool against a two-list reference model.

``Reference`` is the eviction rule written out with plain lists: a leaf
order and an index order, least recently used first, a dirty set and the
device's pages.  Every generated run of reads, writes, flushes,
invalidations and ``drop_clean`` calls, with no-steal on or off, must leave
:class:`PageCache` with the same two orders, the same dirty pages, the same
device writes in the same order and the same counters, and within its
capacity bound after every step.  Comparing the device's write log is what
shows that a dirty page never leaves without exactly one write-back (an
invalidated one leaves with none: its page was freed).

``TestPoolModelFull`` runs at the nightly Hypothesis budget;
``TestPoolModelSmoke`` is a small fixed-seed run of it in tier-1.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.storage.magnetic import MagneticDisk
from repro.storage.pagecache import PageCache

PAGES = 8


def is_index(image):
    return image[:1] == b"I"


class LoggingDisk(MagneticDisk):
    """Records every write as ``(page id, image)``."""

    def __init__(self):
        super().__init__(page_size=64)
        self.log = []

    def write(self, address, data):
        self.log.append((address.page_id, bytes(data)))
        super().write(address, data)


class Reference:
    """The rule with lists: victims are the first clean leaf on the read
    path and the first leaf on the write path, index pages only when no
    leaf can go."""

    def __init__(self, capacity, no_steal, seeded):
        self.capacity = capacity
        self.no_steal = no_steal
        self.disk = dict(seeded)
        self.log = []
        self.leaves, self.index = [], []
        self.images, self.dirty = {}, set()
        self.hits = self.misses = self.index_misses = self.evictions = 0

    def order_of(self, page):
        return self.index if page in self.index else self.leaves

    def read(self, page):
        if page in self.images:
            self.hits += 1
            order = self.order_of(page)
            order.remove(page)
            order.append(page)
            return self.images[page]
        self.misses += 1
        image = self.disk[page]
        self.index_misses += is_index(image)
        (self.index if is_index(image) else self.leaves).append(page)
        self.images[page] = image
        self.evict_clean()
        return image

    def write(self, page, image):
        if page in self.images:  # a resident keeps the order it joined
            order = self.order_of(page)
            order.remove(page)
        else:
            order = self.index if is_index(image) else self.leaves
        order.append(page)
        self.images[page] = image
        self.dirty.add(page)
        if self.no_steal:
            self.evict_clean()
            return
        while len(self.images) > self.capacity:
            victim = (self.leaves or self.index).pop(0)
            if victim in self.dirty:
                self.write_back(victim)
            del self.images[victim]
            self.evictions += 1

    def flush(self):
        for page in sorted(self.dirty):
            self.write_back(page)
        self.evict_clean()

    def invalidate(self, page):
        if page in self.images:
            self.order_of(page).remove(page)
            del self.images[page]
            self.dirty.discard(page)

    def drop_clean(self, capacity):
        for order in (self.leaves, self.index):
            for page in [page for page in order if page not in self.dirty]:
                order.remove(page)
                del self.images[page]
        if capacity is not None:
            self.capacity = capacity

    def write_back(self, page):
        self.disk[page] = self.images[page]
        self.log.append((page, self.images[page]))
        self.dirty.discard(page)

    def clean_count(self):
        return len(self.images) - len(self.dirty)

    def evict_clean(self):
        while (self.clean_count() if self.no_steal else len(self.images)) > self.capacity:
            for order in (self.leaves, self.index):
                clean = [page for page in order if page not in self.dirty]
                if clean:
                    order.remove(clean[0])
                    del self.images[clean[0]]
                    self.evictions += 1
                    break
            else:
                return


images = st.builds(lambda kind, n: kind + b"%d" % n, st.sampled_from([b"I", b"L"]), st.integers(0, 99))
reads = st.tuples(st.just("read"), st.integers(0, PAGES - 1))
writes = st.tuples(st.just("write"), st.integers(0, PAGES - 1), images)
operations = st.lists(
    st.one_of(
        reads,
        writes,
        reads,
        writes,
        st.tuples(st.just("flush")),
        st.tuples(st.just("invalidate"), st.integers(0, PAGES - 1)),
        st.tuples(st.just("drop_clean"), st.one_of(st.none(), st.integers(1, 5))),
    ),
    min_size=10,
    max_size=80,
)
runs = st.tuples(
    st.integers(1, 5),
    st.booleans(),
    st.lists(images, min_size=PAGES, max_size=PAGES),
    operations,
)


def check_run(run):
    capacity, no_steal, seeded, steps = run
    disk = LoggingDisk()
    pages = [disk.allocate_page() for _ in range(PAGES)]
    for page, image in zip(pages, seeded):
        disk.write(page, image)
    disk.log.clear()
    cache = PageCache(disk, capacity=capacity, is_index=is_index)
    cache.no_steal = no_steal
    model = Reference(capacity, no_steal, enumerate(seeded))
    for step in steps:
        name, args = step[0], step[1:]
        if name in ("read", "write", "invalidate"):
            page, rest = args[0], args[1:]
            got = getattr(cache, name)(pages[page], *rest)
            want = getattr(model, name)(page, *rest)
            assert got == want, step
        else:
            getattr(cache, name)(*args)
            getattr(model, name)(*args)
        assert list(cache._leaves[0]) == model.leaves, step
        assert list(cache._index[0]) == model.index, step
        for order, clean in (cache._leaves, cache._index):
            assert list(clean) == [page for page in order if page not in model.dirty], step
        assert cache.dirty_count == len(model.dirty)
        assert disk.log == model.log, step
        stats = cache.stats
        assert (stats.hits, stats.misses, stats.index_misses, stats.evictions, stats.flushes) == (
            model.hits, model.misses, model.index_misses, model.evictions, len(model.log)
        ), step
        if no_steal:
            assert len(cache._residents) - cache.dirty_count <= cache.capacity, step
        elif name == "write":
            assert len(cache._residents) <= cache.capacity, step
        else:  # the read path drops clean residents only
            assert len(cache._residents) <= cache.capacity or cache.dirty_count == len(cache._residents), step
    cache.flush()
    model.flush()
    assert {page: disk.read(pages[page]) for page in range(PAGES)} == model.disk


@pytest.mark.slow
@pytest.mark.differential
class TestPoolModelFull:
    @given(run=runs)
    @settings(suppress_health_check=[HealthCheck.too_slow])
    def test_the_pool_follows_the_two_list_rule(self, run):
        check_run(run)


class TestPoolModelSmoke:
    @given(run=runs)
    @settings(max_examples=60, derandomize=True, deadline=None)
    def test_the_pool_follows_the_two_list_rule(self, run):
        check_run(run)
