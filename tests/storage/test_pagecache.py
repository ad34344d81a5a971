"""Unit tests for the buffer pool: one policy, for images and opened residents."""

import sys
import threading

import pytest

from repro.storage.magnetic import MagneticDisk
from repro.storage.pagecache import PageCache


class Page:
    """A resident as an owner's opener builds one: written back via encode()."""

    def __init__(self, address, image):
        self.address = address
        self.image = image
        self.encodes = 0

    def encode(self):
        self.encodes += 1
        return self.image


def make_disk_and_cache(capacity=2, page_size=128, opener=None):
    disk = MagneticDisk(page_size=page_size)
    cache = PageCache(disk, capacity=capacity, opener=opener)
    return disk, cache


def seeded_pages(disk, count):
    pages = [disk.allocate_page() for _ in range(count)]
    for page in pages:
        disk.write(page, b"seed-%d" % page.page_id)
    return pages


def resident_ids(cache):
    return list(cache._residents)


def dirty_ids(cache):
    return [page_id for page_id in cache._residents if page_id not in cache._clean]


class TestReadPath:
    def test_miss_then_hit(self):
        disk, cache = make_disk_and_cache()
        page = disk.allocate_page()
        disk.write(page, b"on disk")
        assert cache.read(page) == b"on disk"
        assert cache.read(page) == b"on disk"
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1
        assert cache.stats.hit_ratio == pytest.approx(0.5)

    def test_reads_do_not_hit_disk_after_caching(self):
        disk, cache = make_disk_and_cache()
        page = disk.allocate_page()
        disk.write(page, b"x")
        cache.read(page)
        disk_reads_before = disk.stats.reads
        cache.read(page)
        assert disk.stats.reads == disk_reads_before

    def test_a_miss_opens_the_image_once_and_hits_return_that_resident(self):
        disk, cache = make_disk_and_cache(opener=Page)
        (page,) = seeded_pages(disk, 1)
        resident = cache.read(page)
        assert isinstance(resident, Page)
        assert (resident.address, resident.image) == (page, b"seed-%d" % page.page_id)
        assert cache.read(page) is resident

    def test_read_path_eviction_drops_the_lru_clean_resident(self):
        disk, cache = make_disk_and_cache(capacity=2)
        pages = seeded_pages(disk, 3)
        cache.read(pages[0])
        cache.read(pages[1])
        cache.read(pages[0])  # pages[1] is now least recently used
        cache.read(pages[2])
        assert resident_ids(cache) == [pages[0].page_id, pages[2].page_id]
        assert cache.stats.evictions == 1

    def test_read_path_eviction_never_writes(self):
        disk, cache = make_disk_and_cache(capacity=2)
        pages = seeded_pages(disk, 4)
        cache.write(pages[0], b"dirty-0")
        cache.write(pages[1], b"dirty-1")  # the pool is full of dirty residents
        writes_before = disk.stats.writes
        for page in pages[2:] * 3:
            assert cache.read(page) == b"seed-%d" % page.page_id  # served, not kept
        assert disk.stats.writes == writes_before
        assert cache.stats.flushes == 0
        assert dirty_ids(cache) == [pages[0].page_id, pages[1].page_id]
        assert len(resident_ids(cache)) == 2
        assert disk.read(pages[0]) == b"seed-%d" % pages[0].page_id  # still unwritten


class TestWritePath:
    def test_write_back_defers_disk_write(self):
        disk, cache = make_disk_and_cache()
        page = disk.allocate_page()
        cache.write(page, b"buffered")
        assert disk.read(page) == b""          # not flushed yet
        cache.flush()
        assert disk.read(page) == b"buffered"

    def test_cached_write_is_readable_before_flush(self):
        disk, cache = make_disk_and_cache()
        page = disk.allocate_page()
        cache.write(page, b"fresh")
        assert cache.read(page) == b"fresh"

    def test_oversized_write_raises_via_disk(self):
        disk, cache = make_disk_and_cache(page_size=8)
        page = disk.allocate_page()
        with pytest.raises(Exception):
            cache.write(page, b"this is far too large")

    def test_a_written_resident_is_not_encoded_until_it_leaves(self):
        disk, cache = make_disk_and_cache(opener=Page)
        page = disk.allocate_page()
        resident = Page(page, b"v1")
        cache.write(page, resident)
        resident.image = b"v2"  # the owner mutates in place, then marks it dirty
        cache.write(page, resident)
        assert resident.encodes == 0
        assert cache.read(page) is resident
        cache.flush()
        assert resident.encodes == 1
        assert disk.read(page) == b"v2"


class TestEviction:
    def test_lru_eviction_flushes_dirty_victim(self):
        disk, cache = make_disk_and_cache(capacity=2)
        pages = [disk.allocate_page() for _ in range(3)]
        cache.write(pages[0], b"zero")
        cache.write(pages[1], b"one")
        cache.write(pages[2], b"two")   # evicts pages[0]
        assert disk.read(pages[0]) == b"zero"
        assert cache.stats.evictions == 1
        # Evicted page can still be read back (re-faulted).
        assert cache.read(pages[0]) == b"zero"

    def test_write_path_eviction_writes_a_dirty_victim_back_once(self):
        disk, cache = make_disk_and_cache(capacity=2, opener=Page)
        pages = [disk.allocate_page() for _ in range(3)]
        residents = [Page(page, b"image-%d" % page.page_id) for page in pages]
        cache.write(pages[0], residents[0])
        cache.write(pages[1], residents[1])
        writes_before = disk.stats.writes
        cache.write(pages[2], residents[2])  # the LRU victim is dirty pages[0]
        assert pages[0].page_id not in resident_ids(cache)
        assert disk.read(pages[0]) == b"image-%d" % pages[0].page_id
        assert residents[0].encodes == 1
        assert disk.stats.writes == writes_before + 1
        assert (cache.stats.flushes, cache.stats.evictions) == (1, 1)
        cache.flush()  # the victim is gone: it is not written a second time
        assert residents[0].encodes == 1
        assert cache.stats.flushes == 3

    def test_write_path_eviction_drops_a_clean_victim_without_writing(self):
        disk, cache = make_disk_and_cache(capacity=2)
        pages = seeded_pages(disk, 3)
        cache.read(pages[0])
        cache.read(pages[1])
        writes_before = disk.stats.writes
        cache.write(pages[2], b"new")
        assert resident_ids(cache) == [pages[1].page_id, pages[2].page_id]
        assert disk.stats.writes == writes_before


class TestFlushAccounting:
    def test_write_back_counts_one_flush_per_dirty_page(self):
        disk, cache = make_disk_and_cache(capacity=8)
        pages = [disk.allocate_page() for _ in range(4)]
        for index, page in enumerate(pages):
            cache.write(page, f"v{index}".encode())
        assert cache.stats.flushes == 0  # nothing reached the disk yet
        disk_writes_before = disk.stats.writes
        cache.flush()
        assert cache.stats.flushes == 4
        assert disk.stats.writes == disk_writes_before + 4
        cache.flush()  # already clean: no further flushes
        assert cache.stats.flushes == 4

    def test_flush_leaves_every_resident_clean_and_the_device_equal_to_them(self):
        disk, cache = make_disk_and_cache(capacity=8, opener=Page)
        pages = seeded_pages(disk, 6)
        for page in pages[:2]:
            cache.read(page)
        written = [Page(page, b"written-%d" % page.page_id) for page in pages[2:]]
        for resident in reversed(written):
            cache.write(resident.address, resident)
        order = []
        write = disk.write
        disk.write = lambda address, data: (order.append(address.page_id), write(address, data))
        cache.flush()
        assert order == [resident.address.page_id for resident in written]  # page order
        assert dirty_ids(cache) == []
        assert len(resident_ids(cache)) == 6
        for page in pages:
            assert disk.read(page) == cache.read(page).image


class TestNoSteal:
    """A pool under a log: pages move at flush() — the checkpoint — only."""

    def make(self, capacity=2):
        disk, cache = make_disk_and_cache(capacity=capacity)
        cache.no_steal = True
        return disk, cache, seeded_pages(disk, 8)

    def test_neither_path_writes_a_dirty_resident_back(self):
        disk, cache, pages = self.make()
        writes_before = disk.stats.writes
        for page in pages[:5]:
            cache.write(page, b"dirty-%d" % page.page_id)
        for page in pages[5:]:
            cache.read(page)
        assert disk.stats.writes == writes_before
        assert cache.stats.flushes == 0
        assert dirty_ids(cache) == [page.page_id for page in pages[:5]]
        for page in pages[:5]:  # every one still served from memory
            assert cache.read(page) == b"dirty-%d" % page.page_id

    def test_capacity_bounds_the_clean_residents_only(self):
        disk, cache, pages = self.make()
        for page in pages[:4]:
            cache.write(page, b"dirty")
        for page in pages[4:]:
            cache.read(page)
        clean = [page_id for page_id in resident_ids(cache) if page_id not in dirty_ids(cache)]
        assert clean == [pages[6].page_id, pages[7].page_id]
        assert len(dirty_ids(cache)) == 4

    def test_flush_writes_everything_then_trims_to_capacity(self):
        disk, cache, pages = self.make()
        for page in pages[:5]:
            cache.write(page, b"dirty-%d" % page.page_id)
        cache.flush()
        for page in pages[:5]:
            assert disk.read(page) == b"dirty-%d" % page.page_id
        assert dirty_ids(cache) == []
        assert len(resident_ids(cache)) == 2


class RacingDisk(MagneticDisk):
    """Runs ``race`` once, after the device read of a miss and before its install."""

    race = None

    def read(self, address):
        data = super().read(address)
        if self.race is not None:
            race, self.race = self.race, None
            race()
        return data


class TestRacingMiss:
    def test_a_miss_racing_a_write_never_installs_the_older_image(self):
        """Between a miss's device read and its install, the page is written
        and that dirty resident evicted again: the miss must not install the
        image it read first."""

        disk = RacingDisk(page_size=64)
        cache = PageCache(disk, capacity=1)
        page, other = disk.allocate_page(), disk.allocate_page()
        disk.write(page, b"old")

        def race():
            cache.write(page, b"new")
            cache.write(other, b"evictor")  # pushes b"new" out to the device

        disk.race = race
        assert cache.read(page) == b"new"
        assert cache.read(page) == b"new"
        assert disk.read(page) == b"new"

    def test_a_miss_adopts_the_resident_a_racing_write_left(self):
        disk = RacingDisk(page_size=64)
        cache = PageCache(disk, capacity=4)
        page = disk.allocate_page()
        disk.write(page, b"old")
        disk.race = lambda: cache.write(page, b"new")
        assert cache.read(page) == b"new"
        assert dirty_ids(cache) == [page.page_id]


class TestConcurrentAccess:
    def test_threads_hammering_one_cache_keep_it_consistent(self):
        disk = MagneticDisk(page_size=64)
        cache = PageCache(disk, capacity=4)
        pages = [disk.allocate_page() for _ in range(16)]
        for index, page in enumerate(pages):
            disk.write(page, f"page-{index}".encode())
        errors = []

        def hammer(worker):
            try:
                for round_index in range(200):
                    page = pages[(worker * 7 + round_index) % len(pages)]
                    expected = f"page-{page.page_id}".encode()
                    data = cache.read(page)
                    assert data == expected, (data, expected)
            except Exception as exc:  # noqa: BLE001 - surfaced via the list
                errors.append(f"{type(exc).__name__}: {exc}")

        threads = [threading.Thread(target=hammer, args=(n,)) for n in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(resident_ids(cache)) <= 4

    def test_readers_racing_a_writer_never_see_a_page_go_backwards(self):
        """Each page holds a counter only the writer raises; whatever mix of
        hits, misses, evictions and write-backs a reader meets, the value it
        reads for a page never decreases."""
        disk = MagneticDisk(page_size=64)
        cache = PageCache(disk, capacity=3)
        pages = [disk.allocate_page() for _ in range(8)]
        for page in pages:
            disk.write(page, b"0")
        errors = []
        done = threading.Event()

        def writer():
            try:
                for value in range(1, 400):
                    for page in pages:
                        cache.write(page, b"%d" % value)
            except Exception as exc:  # noqa: BLE001
                errors.append(f"writer {type(exc).__name__}: {exc}")
            finally:
                done.set()

        def reader(worker):
            try:
                seen = {page.page_id: 0 for page in pages}
                round_index = 0
                while not done.is_set():
                    page = pages[(worker * 3 + round_index) % len(pages)]
                    value = int(cache.read(page))
                    assert value >= seen[page.page_id], (page, value, seen[page.page_id])
                    seen[page.page_id] = value
                    round_index += 1
            except Exception as exc:  # noqa: BLE001
                errors.append(f"reader {type(exc).__name__}: {exc}")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=reader, args=(n,)) for n in range(6)]
            threads.append(threading.Thread(target=writer))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        cache.flush()
        for page in pages:
            assert disk.read(page) == b"399"


class TestInvalidate:
    def test_invalidate_drops_dirty_data(self):
        disk, cache = make_disk_and_cache()
        page = disk.allocate_page()
        cache.write(page, b"to be discarded")
        cache.invalidate(page)
        cache.flush()
        assert disk.read(page) == b""

    def test_invalid_capacity_rejected(self):
        disk = MagneticDisk(page_size=64)
        with pytest.raises(ValueError):
            PageCache(disk, capacity=0)
        with pytest.raises(ValueError):
            PageCache(disk, capacity=4).drop_clean(0)

    def test_drop_clean_forgets_clean_residents_and_keeps_dirty_ones(self):
        disk, cache = make_disk_and_cache(capacity=4)
        pages = seeded_pages(disk, 3)
        cache.read(pages[0])
        cache.read(pages[1])
        cache.write(pages[2], b"dirty")
        cache.drop_clean(8)
        assert resident_ids(cache) == dirty_ids(cache) == [pages[2].page_id]
        assert cache.capacity == 8
        reads_before = disk.stats.reads
        cache.read(pages[0])
        assert disk.stats.reads == reads_before + 1  # cold again
