"""Tenant-registry tests: open-on-first-use and resume-on-reopen.

The regression at the heart of this file: reopening a tenant store after a
close (a server restart, or an explicit ``close_tenant``) must *reuse the
tenant's devices* — the checkpointed TSB-tree images the closed store left
behind — never format fresh empty ones.  A fresh-device reopen would
silently serve an empty database while claiming success.
"""

import pytest

from repro.api.store import ShardSpec, StoreConfig
from repro.server.registry import (
    StoreRegistry,
    TenantNotResumableError,
    UnknownTenantError,
)
from tests.crash_harness import crash_and_reopen


def _sharded_config(shards: int = 4, wal: bool = True) -> StoreConfig:
    return StoreConfig(
        engine="tsb",
        wal=wal,
        group_commit_size=4 if wal else 1,
        shards=ShardSpec.for_int_keys(shards, key_space=1 << 16),
    )


class TestOpenOnFirstUse:
    def test_stores_open_lazily(self):
        registry = StoreRegistry({"a": StoreConfig(engine="tsb"), "b": StoreConfig(engine="tsb")})
        assert registry.open_tenants() == []
        registry.get("a")
        assert registry.open_tenants() == ["a"]
        registry.close_all()

    def test_get_is_idempotent(self):
        registry = StoreRegistry({"a": StoreConfig(engine="tsb")})
        assert registry.get("a") is registry.get("a")
        registry.close_all()

    def test_unknown_tenant_rejected(self):
        registry = StoreRegistry({"a": StoreConfig(engine="tsb")})
        with pytest.raises(UnknownTenantError, match="unknown tenant 'nope'"):
            registry.get("nope")

    def test_empty_catalog_rejected(self):
        with pytest.raises(ValueError):
            StoreRegistry({})

    def test_tenants_are_isolated(self):
        registry = StoreRegistry({"a": StoreConfig(engine="tsb"), "b": StoreConfig(engine="tsb")})
        registry.get("a").insert("k", b"from-a")
        assert registry.get("b").get("k") is None
        registry.close_all()


class TestReopenReusesDevices:
    """The server-restart regression: close, reopen, same data."""

    def test_single_store_reopen_preserves_history(self):
        registry = StoreRegistry({"t": StoreConfig(engine="tsb")})
        store = registry.get("t")
        store.insert("alice", b"v1")
        store.insert("alice", b"v2")
        clock = store.now
        registry.close_tenant("t")

        reopened = registry.get("t")
        assert reopened is not store
        assert reopened.now == clock  # the clock resumed, not restarted
        assert [r.value for r in reopened.key_history("alice")] == [b"v1", b"v2"]
        registry.close_all()

    def test_sharded_reopen_preserves_every_surface(self):
        registry = StoreRegistry({"t": _sharded_config()})
        store = registry.get("t")
        store.put_many([(key, f"v{key}".encode()) for key in range(120)])
        clock = store.now
        boundaries = list(store.sharded_engine.boundaries)
        registry.close_tenant("t")

        reopened = registry.get("t")
        assert reopened.now == clock
        assert list(reopened.sharded_engine.boundaries) == boundaries
        assert len(reopened.range_search()) == 120
        assert reopened.get(37).value == b"v37"
        # A shard's keys are what its tree holds: nothing but the page
        # images (and the boundaries) had to survive the close.
        assert len(reopened.time_slice(0, clock + 1)) == 120
        registry.close_all()

    def test_drop_cache_after_reopen_serves_reopened_data(self):
        """drop_cache rebuilds the page cache over the *reused* devices."""
        registry = StoreRegistry({"t": _sharded_config()})
        registry.get("t").put_many([(key, f"v{key}".encode()) for key in range(64)])
        registry.close_tenant("t")

        reopened = registry.get("t")
        reopened.engine.drop_cache()  # cold cache: every read hits the devices
        assert reopened.get(0).value == b"v0"
        assert reopened.get(63).value == b"v63"
        assert len(reopened.range_search()) == 64
        registry.close_all()

    def test_reopened_store_accepts_new_writes(self):
        registry = StoreRegistry({"t": _sharded_config()})
        store = registry.get("t")
        store.put_many([(key, b"before") for key in range(32)])
        registry.close_tenant("t")

        reopened = registry.get("t")
        stamp = reopened.insert(7, b"after")
        assert reopened.get(7).value == b"after"
        assert [r.value for r in reopened.key_history(7)] == [b"before", b"after"]
        assert stamp > 0
        registry.close_all()

    @pytest.mark.parametrize("sharded", [False, True], ids=["single", "sharded"])
    def test_reopened_wal_tenant_goes_on_writing_the_same_log(self, sharded):
        """A resumed tenant used to start a second log on a fresh device:
        LSNs restarted and a crash after the reopen lost whatever the old
        device alone still held."""
        config = _sharded_config(shards=2) if sharded else StoreConfig(engine="tsb", wal=True)
        registry = StoreRegistry({"t": config})
        store = registry.get("t")
        store.put_many([(key, b"before-%d" % key) for key in range(0, 1 << 16, 1 << 11)])
        inner = store.shard_stores if sharded else [store]
        logs = [shard.log_device for shard in inner]
        lsns = registry.durable_lsns("t")
        registry.close_tenant("t")
        sizes = [log.durable_bytes for log in logs]

        reopened = registry.get("t")
        reopened_inner = reopened.shard_stores if sharded else [reopened]
        assert [shard.log_device for shard in reopened_inner] == logs
        assert all(log.durable_bytes > size for log, size in zip(logs, sizes))
        assert all(a > b for a, b in zip(registry.durable_lsns("t"), lsns))
        reopened.insert(5, b"after", timestamp=reopened.now + 3)
        reopened.delete(1 << 11)
        # Crash: each shard restarts from its devices and that one log.
        for shard in reopened_inner:
            shard.log.force()
        recovered = crash_and_reopen(reopened)
        expected = {key: b"before-%d" % key for key in range(0, 1 << 16, 1 << 11)}
        expected[5] = b"after"
        del expected[1 << 11]
        assert {r.key: r.value for r in recovered.range_search()} == expected
        registry.close_all()

    def test_close_all_retains_resume_state(self):
        registry = StoreRegistry({"t": StoreConfig(engine="tsb")})
        registry.get("t").insert("k", b"v")
        registry.close_all()  # the clean-shutdown path
        assert registry.get("t").get("k").value == b"v"
        registry.close_all()

    def test_second_reopen_cycle(self):
        registry = StoreRegistry({"t": _sharded_config(shards=2)})
        registry.get("t").put_many([(key, b"one") for key in range(16)])
        registry.close_tenant("t")
        registry.get("t").put_many([(key, b"two") for key in range(16)])
        registry.close_tenant("t")
        third = registry.get("t")
        assert [r.value for r in third.key_history(3)] == [b"one", b"two"]
        registry.close_all()


class TestNonResumableEngines:
    @pytest.mark.parametrize("engine", ["wobt", "naive"])
    def test_close_tenant_refuses_before_closing(self, engine):
        registry = StoreRegistry({"t": StoreConfig(engine=engine)})
        store = registry.get("t")
        store.insert("k", b"v")
        with pytest.raises(TenantNotResumableError):
            registry.close_tenant("t")
        # The refusal happened *before* the close: no data was lost.
        assert not store.closed
        assert store.get("k").value == b"v"
        registry.close_all()

    def test_close_all_still_closes_them(self):
        registry = StoreRegistry({"t": StoreConfig(engine="wobt")})
        store = registry.get("t")
        registry.close_all()
        assert store.closed


class TestShutdown:
    def test_shutdown_refuses_further_opens(self):
        registry = StoreRegistry({"t": StoreConfig(engine="tsb")})
        registry.get("t")
        registry.shutdown()
        with pytest.raises(Exception, match="shut down"):
            registry.get("t")
