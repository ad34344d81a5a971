"""Pool size must never change an answer.

One random stream of writes, deletes and cache-stirring reads is run against
a TSB store at each buffer-pool size — down to a single page — with and
without a write-ahead log (steal and no-steal eviction).  Every size must give
the same ``answers_digest`` and a clean ``check_tree``, and the same answers
again from a tree reopened off the checkpointed devices.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import pytest

from repro.analysis.experiment import answers_digest
from repro.api import StoreConfig, VersionStore
from repro.core import TSBTree, check_tree
from tests.strategies import small_values

POOL_SIZES = (1, 2, 8, 128)

operations = st.lists(
    st.one_of(
        st.tuples(st.just("put"), st.integers(0, 40), small_values),
        st.tuples(st.just("delete"), st.integers(0, 40), st.just(b"")),
        st.tuples(st.just("read"), st.integers(0, 40), st.just(b"")),
        st.tuples(st.just("scan"), st.integers(0, 40), st.just(b"")),
    ),
    min_size=1,
    max_size=150,
)


def run(config: StoreConfig, stream):
    """``(digest, violations, digest after checkpoint + reopen)`` of one run."""
    store = VersionStore.open(config)
    for kind, key, value in stream:
        if kind == "put":
            store.put_many([(key, value + bytes(40))])  # fat enough to split pages
        elif kind == "delete" and config.wal:
            with store.begin() as txn:  # the logged way to delete
                txn.delete(key)
        elif kind == "delete":
            store.delete(key)
        elif kind == "read":
            store.get_as_of(key, max(1, store.now // 2))
        else:
            store.range_search(key, key + 8, as_of=max(1, store.now // 2))
    keys = list(range(41))
    probe_times = sorted({1, max(1, store.now // 2), store.now})
    digest = answers_digest(store, keys, probe_times)
    violations = check_tree(store.backend)
    store.checkpoint()
    magnetic, historical = store.devices
    reopened = VersionStore.over_tree(
        StoreConfig(engine="tsb", page_size=config.page_size),
        TSBTree.open(magnetic, historical, cache_pages=config.cache_pages),
    )
    return digest, violations, answers_digest(reopened, keys, probe_times)


@pytest.mark.parametrize("wal", [False, True], ids=["steal", "no-steal"])
@given(stream=operations)
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_every_pool_size_gives_the_same_answers(wal, stream):
    outcomes = [
        run(StoreConfig(engine="tsb", page_size=256, cache_pages=size, wal=wal), stream)
        for size in POOL_SIZES
    ]
    digests = {digest for digest, _, _ in outcomes}
    assert len(digests) == 1, dict(zip(POOL_SIZES, outcomes))
    for size, (digest, violations, reopened_digest) in zip(POOL_SIZES, outcomes):
        assert violations == [], (size, violations[:3])
        assert reopened_digest == digest, size
