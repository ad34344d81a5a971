"""The section 5 measurement studies (and the prose-claim checks).

The paper's evaluation was announced, not reported: *"We expect to measure
total space use, space use in the current database, and amount of redundancy,
under different splitting policies and with different rates of update versus
insertion."*  Each ``run_*`` function below performs one of those studies (or
one of the quantitative claims made in prose) on the simulated two-tier
storage and returns :class:`~repro.analysis.metrics.ExperimentRow` objects
ready for rendering.  The benchmark harness in ``benchmarks/`` wraps these
functions one-to-one (S1..S7), and EXPERIMENTS.md records a reference run.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.analysis.metrics import ExperimentRow, QueryCost, query_cost_from_deltas, space_row
from repro.api import (
    ENGINE_NAMES,
    Capability,
    CapabilityError,
    ShardSpec,
    ShardedVersionStore,
    StoreConfig,
    VersionStore,
)
from repro.core.nodes import _PROVISIONAL
from repro.core.policy import (
    AlwaysKeySplitPolicy,
    AlwaysTimeSplitPolicy,
    CostDrivenPolicy,
    SplitPolicy,
    ThresholdPolicy,
    WOBTEmulationPolicy,
)
from repro.core.secondary import SecondaryIndex
from repro.core.stats import collect_space_stats
from repro.core.tsb_tree import TSBTree
from repro.storage.costmodel import CostModel
from repro.workload.generator import WorkloadSpec, apply_to, generate
from repro.workload.scenarios import personnel_records


@dataclass
class StudyResult:
    """A titled collection of result rows (one experiment table)."""

    study: str
    rows: List[ExperimentRow] = field(default_factory=list)

    def column(self, name: str) -> Dict[str, float]:
        return {row.label: row.metrics[name] for row in self.rows if name in row.metrics}


def default_policies(cost_model: Optional[CostModel] = None) -> List[SplitPolicy]:
    """The policy set compared by study S1."""
    cost_model = cost_model or CostModel()
    return [
        AlwaysKeySplitPolicy(),
        AlwaysTimeSplitPolicy("current"),
        AlwaysTimeSplitPolicy("last_update"),
        ThresholdPolicy(0.25),
        ThresholdPolicy(0.5),
        ThresholdPolicy(0.75),
        CostDrivenPolicy(cost_model),
        WOBTEmulationPolicy(),
    ]


def build_store(
    engine: str = "tsb",
    policy: Union[None, str, SplitPolicy] = None,
    page_size: int = 1024,
    use_jukebox: bool = False,
    shards: Optional[ShardSpec] = None,
) -> VersionStore:
    """Open a :class:`VersionStore` the way the studies configure engines.

    Passing a :class:`~repro.api.ShardSpec` routes the study's workload
    through a key-range-partitioned :class:`~repro.api.ShardedVersionStore`
    instead of one store.
    """
    config = StoreConfig(
        engine=engine,
        page_size=page_size,
        split_policy=policy if engine == "tsb" else None,
        historical="jukebox" if (use_jukebox and engine == "tsb") else "worm",
        shards=shards,
    )
    return VersionStore.open(config)


def _store_split_counters(store: VersionStore) -> Dict[str, float]:
    """The per-policy split counters, rolled up across shards when sharded."""
    if isinstance(store, ShardedVersionStore):
        counters = store.tree_counters()
    else:
        counters = store.backend.counters
    return {
        "data_time_splits": counters.data_time_splits,
        "data_key_splits": counters.data_key_splits,
    }


def build_tree(policy: SplitPolicy, page_size: int = 1024, use_jukebox: bool = False) -> TSBTree:
    """A TSB-tree on a fresh magnetic disk + WORM device (or jukebox)."""
    return build_store(
        engine="tsb", policy=policy, page_size=page_size, use_jukebox=use_jukebox
    ).backend


def _engine_space_row(label: str, store: VersionStore, extra: Optional[Dict[str, float]] = None) -> ExperimentRow:
    """A result row from the normalized cross-engine space summary."""
    metrics: Dict[str, float] = dict(store.space_summary())
    if extra:
        metrics.update(extra)
    return ExperimentRow(label=label, metrics=metrics)


# ----------------------------------------------------------------------
# S1: space and redundancy versus splitting policy
# ----------------------------------------------------------------------
def run_policy_study(
    spec: Optional[WorkloadSpec] = None,
    policies: Optional[Sequence[SplitPolicy]] = None,
    cost_model: Optional[CostModel] = None,
    page_size: int = 1024,
    engine: str = "tsb",
    shards: Optional[ShardSpec] = None,
) -> StudyResult:
    """Replay one workload under each splitting policy and measure space use.

    Splitting policies are a TSB-tree concept; with another ``engine`` the
    same workload runs through the façade once and the study reports that
    engine's normalized space row instead of a per-policy table.  With
    ``shards`` the per-policy rows report the normalized cross-shard space
    summary and the rolled-up split counters.
    """
    spec = spec or WorkloadSpec(operations=8_000, update_fraction=0.5, seed=1989)
    cost_model = cost_model or CostModel()
    operations = generate(spec)
    result = StudyResult(study="S1: space vs splitting policy")
    if engine != "tsb":
        store = build_store(engine=engine, page_size=page_size, shards=shards)
        apply_to(store, operations)
        result.rows.append(_engine_space_row(f"{engine} (no split policies)", store))
        return result
    policies = list(policies) if policies is not None else default_policies(cost_model)
    for policy in policies:
        store = build_store(
            engine="tsb", policy=policy, page_size=page_size, shards=shards
        )
        apply_to(store, operations)
        if shards is not None:
            result.rows.append(
                _engine_space_row(policy.name, store, _store_split_counters(store))
            )
            continue
        tree = store.backend
        stats = collect_space_stats(tree, cost_model)
        result.rows.append(
            space_row(policy.name, stats, _store_split_counters(store))
        )
    return result


# ----------------------------------------------------------------------
# S2: space and redundancy versus update:insert ratio
# ----------------------------------------------------------------------
def run_update_ratio_study(
    update_fractions: Sequence[float] = (0.0, 0.25, 0.5, 0.75, 0.9),
    policy_factory: Callable[[], SplitPolicy] = ThresholdPolicy,
    operations: int = 8_000,
    seed: int = 1989,
    page_size: int = 1024,
    cost_model: Optional[CostModel] = None,
    engine: str = "tsb",
    shards: Optional[ShardSpec] = None,
) -> StudyResult:
    """Fix the configuration, vary the rate of update versus insertion.

    Runs on any engine: the TSB-tree reports the full section 5 space row,
    the other engines (and any sharded store) their normalized space summary.
    """
    cost_model = cost_model or CostModel()
    result = StudyResult(study="S2: space vs update fraction")
    for fraction in update_fractions:
        spec = WorkloadSpec(operations=operations, update_fraction=fraction, seed=seed)
        if engine != "tsb":
            store = build_store(engine=engine, page_size=page_size, shards=shards)
            apply_to(store, generate(spec))
            result.rows.append(
                _engine_space_row(
                    f"update={fraction:.2f}", store, {"update_fraction": fraction}
                )
            )
            continue
        store = build_store(
            engine="tsb", policy=policy_factory(), page_size=page_size, shards=shards
        )
        apply_to(store, generate(spec))
        extra = {"update_fraction": fraction, **_store_split_counters(store)}
        if shards is not None:
            result.rows.append(
                _engine_space_row(f"update={fraction:.2f}", store, extra)
            )
            continue
        stats = collect_space_stats(store.backend, cost_model)
        result.rows.append(space_row(f"update={fraction:.2f}", stats, extra))
    return result


# ----------------------------------------------------------------------
# S3: TSB-tree versus WOBT (and the naive all-magnetic index)
# ----------------------------------------------------------------------
def run_tsb_vs_wobt(
    spec: Optional[WorkloadSpec] = None,
    page_size: int = 1024,
    wobt_node_sectors: int = 8,
    cost_model: Optional[CostModel] = None,
) -> StudyResult:
    """The section 2.6 / 3.7 comparison: sector waste and copy redundancy.

    The same operation stream is applied to (a) a TSB-tree with its default
    threshold policy, (b) an emulated-WOBT-policy TSB-tree, (c) a true WOBT
    living entirely on WORM sectors and (d) the naive all-versions-on-magnetic
    B+-tree.  The claims under test: the WOBT's write-once sectors are poorly
    utilised and its reorganisations duplicate current data, while the
    TSB-tree consolidates before migrating and so fills historical sectors
    almost completely.
    """
    spec = spec or WorkloadSpec(operations=4_000, update_fraction=0.5, seed=1989)
    cost_model = cost_model or CostModel()
    operations = generate(spec)
    result = StudyResult(study="S3: TSB-tree vs WOBT")

    tsb = build_store(engine="tsb", policy=ThresholdPolicy(0.5), page_size=page_size).backend
    apply_to(tsb, operations)
    tsb_stats = collect_space_stats(tsb, cost_model)
    result.rows.append(
        space_row("tsb-threshold", tsb_stats).merged_with(
            {"worm_sectors": tsb_stats.historical_sectors}
        )
    )

    tsb_wobt_policy = build_store(
        engine="tsb", policy=WOBTEmulationPolicy(), page_size=page_size
    ).backend
    apply_to(tsb_wobt_policy, operations)
    emu_stats = collect_space_stats(tsb_wobt_policy, cost_model)
    result.rows.append(
        space_row("tsb-wobt-policy", emu_stats).merged_with(
            {"worm_sectors": emu_stats.historical_sectors}
        )
    )

    wobt = VersionStore.open(
        StoreConfig(engine="wobt", page_size=page_size, node_sectors=wobt_node_sectors)
    ).backend
    apply_to(wobt, operations)
    wobt_stats = wobt.space_stats()
    result.rows.append(
        ExperimentRow(
            label="wobt",
            metrics={
                "magnetic_bytes": 0,
                "historical_bytes": wobt_stats.bytes_used,
                "total_bytes": wobt_stats.bytes_used,
                "redundant_versions": wobt_stats.redundant_copies,
                "redundancy_ratio": round(wobt_stats.redundancy_ratio, 4),
                "historical_utilization": round(wobt_stats.reserved_utilization, 4),
                "worm_sectors": wobt_stats.sectors_reserved,
                "current_db_fraction": 0.0,
            },
        )
    )

    naive = build_store(engine="naive", page_size=page_size).backend
    for operation in operations:
        naive.insert(operation.key, operation.value, timestamp=operation.timestamp)
    naive_stats = naive.space_stats()
    result.rows.append(
        ExperimentRow(
            label="naive-magnetic",
            metrics={
                "magnetic_bytes": naive_stats.magnetic_bytes_used,
                "historical_bytes": 0,
                "total_bytes": naive_stats.magnetic_bytes_used,
                "redundant_versions": 0,
                "redundancy_ratio": 1.0,
                "historical_utilization": 1.0,
                "worm_sectors": 0,
                "current_db_fraction": 1.0,
            },
        )
    )
    return result


# ----------------------------------------------------------------------
# S4: the storage cost function CS = SpaceM*CM + SpaceO*CO
# ----------------------------------------------------------------------
def run_cost_function_study(
    cost_ratios: Sequence[float] = (1.0, 2.0, 5.0, 10.0, 20.0),
    spec: Optional[WorkloadSpec] = None,
    page_size: int = 1024,
    engine: str = "tsb",
    shards: Optional[ShardSpec] = None,
) -> StudyResult:
    """Sweep CM/CO and watch the cost-driven policy shift toward time splits.

    Engines without split policies cannot react to the cost function, but
    the sweep still prices their fixed layout: one row per ratio showing
    what the same workload costs on that engine.
    """
    spec = spec or WorkloadSpec(operations=6_000, update_fraction=0.5, seed=1989)
    operations = generate(spec)
    result = StudyResult(study="S4: storage cost function sweep")
    if engine != "tsb" or shards is not None:
        store = build_store(engine=engine, page_size=page_size, shards=shards)
        apply_to(store, operations)
        summary = store.space_summary()
        for ratio in cost_ratios:
            cost_model = CostModel.with_cost_ratio(ratio)
            result.rows.append(
                ExperimentRow(
                    label=f"{engine} CM/CO={ratio:g}",
                    metrics={
                        "cost_ratio": ratio,
                        "magnetic_bytes": summary["magnetic_bytes"],
                        "historical_bytes": summary["historical_bytes"],
                        "storage_cost": round(
                            cost_model.storage_cost(
                                int(summary["magnetic_bytes"]),
                                int(summary["historical_bytes"]),
                            ),
                            2,
                        ),
                    },
                )
            )
        return result
    for ratio in cost_ratios:
        cost_model = CostModel.with_cost_ratio(ratio)
        for label, policy in (
            (f"cost-driven CM/CO={ratio:g}", CostDrivenPolicy(cost_model)),
            (f"always-key CM/CO={ratio:g}", AlwaysKeySplitPolicy()),
            (f"always-time CM/CO={ratio:g}", AlwaysTimeSplitPolicy("last_update")),
        ):
            store = build_store(engine="tsb", policy=policy, page_size=page_size)
            apply_to(store, operations)
            tree = store.backend
            stats = collect_space_stats(tree, cost_model)
            extra = {
                "cost_ratio": ratio,
                "data_time_splits": tree.counters.data_time_splits,
                "data_key_splits": tree.counters.data_key_splits,
            }
            result.rows.append(space_row(label, stats, extra))
    return result


# ----------------------------------------------------------------------
# S5: query I/O — current lookups stay on the magnetic disk
# ----------------------------------------------------------------------
def run_query_io_study(
    spec: Optional[WorkloadSpec] = None,
    query_count: int = 200,
    page_size: int = 1024,
    policy: Optional[SplitPolicy] = None,
    use_jukebox: bool = True,
    cost_model: Optional[CostModel] = None,
    engine: str = "tsb",
    shards: Optional[ShardSpec] = None,
) -> StudyResult:
    """Measure device touches per query class (current, as-of, history, snapshot).

    Runs on any engine through the façade: the adapters report per-tier
    I/O counters uniformly, and every query class starts from a cold cache,
    so the same five query classes are priced on the TSB-tree, the WOBT and
    the naive baseline alike.  (Within a class the engines warm what they
    have: a bounded buffer pool for tsb/naive, the unbounded decoded-view
    cache for the WOBT.)  Sharded stores price the scatter-gather fan-out
    over every shard's devices.
    """
    spec = spec or WorkloadSpec(operations=6_000, update_fraction=0.6, seed=1989)
    cost_model = cost_model or CostModel()
    store = build_store(
        engine=engine,
        policy=(policy or ThresholdPolicy(0.5)) if engine == "tsb" else None,
        page_size=page_size,
        use_jukebox=use_jukebox,
        shards=shards,
    )
    operations = generate(spec)
    apply_to(store, operations)

    keys = sorted({operation.key for operation in operations})
    final_time = operations[-1].timestamp
    early_time = max(1, final_time // 4)

    def measure(run_queries: Callable[[], None]) -> QueryCost:
        # Start each query class from a small, cold cache so the
        # magnetic-versus-optical access pattern is visible (a warm pool
        # holding the whole current database would report zero device reads)
        # and no class is measured warm from the previous one.  io_summary
        # is re-fetched after the queries: a sharded store aggregates its
        # per-shard counters per call rather than returning live objects.
        store.engine.drop_cache(8)
        before = {tier: stats.snapshot() for tier, stats in store.io_summary().items()}
        run_queries()
        after = store.io_summary()
        magnetic_delta = after["magnetic"].delta(before["magnetic"])
        historical_delta = after["historical"].delta(before["historical"])
        return query_cost_from_deltas(magnetic_delta, historical_delta, cost_model)

    sample = keys[:: max(1, len(keys) // query_count)][:query_count]

    result = StudyResult(study="S5: query I/O by query class")

    current_cost = measure(lambda: [store.get(key) for key in sample])
    result.rows.append(ExperimentRow("current lookups", current_cost.as_dict()))

    asof_cost = measure(lambda: [store.get_as_of(key, early_time) for key in sample])
    result.rows.append(ExperimentRow("as-of lookups (T=25%)", asof_cost.as_dict()))

    history_cost = measure(lambda: [store.key_history(key) for key in sample[: max(1, query_count // 10)]])
    result.rows.append(ExperimentRow("key histories", history_cost.as_dict()))

    snapshot_cost = measure(lambda: store.snapshot(early_time))
    result.rows.append(ExperimentRow("snapshot (T=25%)", snapshot_cost.as_dict()))

    current_snapshot_cost = measure(lambda: store.range_search())
    result.rows.append(ExperimentRow("current range scan", current_snapshot_cost.as_dict()))
    return result


# ----------------------------------------------------------------------
# S6: transaction-processing claims of section 4
# ----------------------------------------------------------------------
def run_txn_study(page_size: int = 1024, engine: str = "tsb") -> StudyResult:
    """Demonstrate and measure the section 4 properties.

    * uncommitted data never reaches the historical database and is erasable;
    * read-only transactions see a stable snapshot without locks while
      updaters proceed;
    * aborted transactions leave no trace.
    """
    store = build_store(
        engine=engine, policy=AlwaysTimeSplitPolicy("current") if engine == "tsb" else None,
        page_size=page_size,
    )
    store.engine.require(Capability.TRANSACTIONS)
    tree = store.backend

    committed_payload: Dict[int, bytes] = {}
    for key in range(120):
        txn = store.begin()
        value = f"initial-{key}".encode()
        txn.write(key, value)
        txn.commit()
        committed_payload[key] = value

    # Several committed update rounds so that time splits occur and the
    # historical database is non-empty before the claims are checked.
    for round_index in range(4):
        for key in range(120):
            txn = store.begin()
            value = f"round{round_index}-{key}".encode()
            txn.write(key, value)
            txn.commit()
            committed_payload[key] = value

    reader = store.begin_readonly()
    reader_snapshot_before = {k: v.value for k, v in reader.snapshot().items()}

    # Concurrent updates and an abort while the reader is open.
    updater = store.begin()
    for key in range(0, 120, 3):
        updater.write(key, f"updated-{key}".encode())
    aborted = store.begin()
    for key in range(1, 120, 3):
        aborted.write(key, f"aborted-{key}".encode())
    aborted.abort()
    updater.commit()

    reader_snapshot_after = {k: v.value for k, v in reader.snapshot().items()}

    stats = collect_space_stats(tree)
    provisional_in_history = 0
    for node in tree.data_nodes():
        if node.address.is_historical:
            _keys, _stamps, flags = node.columns()
            provisional_in_history += sum(1 for flag in flags if flag & _PROVISIONAL)

    result = StudyResult(study="S6: transaction support")
    result.rows.append(
        ExperimentRow(
            "read-only snapshot stability",
            {
                "snapshot_keys": len(reader_snapshot_before),
                "changed_under_reader": sum(
                    1
                    for key, value in reader_snapshot_before.items()
                    if reader_snapshot_after.get(key) != value
                ),
                "locks_taken_by_reader": 0,
            },
        )
    )
    result.rows.append(
        ExperimentRow(
            "uncommitted data containment",
            {
                "provisional_versions_in_history": provisional_in_history,
                "aborted_keys_visible": sum(
                    1
                    for key in range(1, 120, 3)
                    if tree.search_current(key) is not None
                    and tree.search_current(key).value.startswith(b"aborted-")
                ),
                "historical_nodes": stats.historical_data_nodes,
            },
        )
    )
    result.rows.append(
        ExperimentRow(
            "committed updates visible",
            {
                "updated_keys_current": sum(
                    1
                    for key in range(0, 120, 3)
                    if tree.search_current(key) is not None
                    and tree.search_current(key).value.startswith(b"updated-")
                ),
                "expected": len(range(0, 120, 3)),
            },
        )
    )
    return result


# ----------------------------------------------------------------------
# S7: secondary indexes (section 3.6)
# ----------------------------------------------------------------------
def run_secondary_study(page_size: int = 1024, engine: str = "tsb") -> StudyResult:
    """Answer "how many records had value V at time T" from the secondary tree alone."""
    if engine != "tsb":
        raise CapabilityError(engine, Capability.SECONDARY_INDEXES)
    scenario = personnel_records(employees=40, changes=800)
    primary = build_tree(ThresholdPolicy(0.5), page_size=page_size)
    secondary = SecondaryIndex("department", page_size=page_size)

    for event in scenario.events:
        primary.insert(event.entity, event.payload, timestamp=event.timestamp)
        secondary.record_change(event.entity, event.attribute, timestamp=event.timestamp)

    result = StudyResult(study="S7: secondary index queries")
    checkpoints = [
        scenario.final_timestamp // 4,
        scenario.final_timestamp // 2,
        scenario.final_timestamp,
    ]
    departments = ["engineering", "sales", "finance", "legal", "research"]
    for checkpoint in checkpoints:
        oracle_state = scenario.state_at(checkpoint)
        for department in departments:
            expected = sum(
                1
                for payload in oracle_state.values()
                if payload.decode().endswith(f"dept={department}")
            )
            counted = secondary.count_with_value(department, as_of=checkpoint)
            result.rows.append(
                ExperimentRow(
                    f"{department} @ T={checkpoint}",
                    {"secondary_count": counted, "oracle_count": expected},
                )
            )
    secondary_stats = collect_space_stats(secondary.tree)
    result.rows.append(
        ExperimentRow(
            "secondary tree space",
            {
                "magnetic_bytes": secondary_stats.magnetic_bytes_used,
                "historical_bytes": secondary_stats.historical_bytes_used,
                "redundancy_ratio": round(secondary_stats.redundancy_ratio, 4),
            },
        )
    )
    return result


# ----------------------------------------------------------------------
# Engine matrix: the same workload and queries on every engine
# ----------------------------------------------------------------------
def answers_digest(
    store: VersionStore,
    keys: Sequence,
    probe_times: Sequence[int],
) -> int:
    """A CRC over a store's logical query answers.

    Covers snapshots at the probe times, per-key histories and the current
    range scan, all through the normalized protocol.  Two engines that agree
    on every logical answer produce the same digest — the cross-engine
    comparability the unified API exists to provide.
    """
    parts: List[str] = []
    for timestamp in probe_times:
        state = store.snapshot(timestamp)
        parts.append(
            repr(sorted((k, r.timestamp, r.value) for k, r in state.items()))
        )
    for key in keys:
        parts.append(
            repr([(r.timestamp, r.value) for r in store.key_history(key)])
        )
    parts.append(
        repr([(r.key, r.timestamp, r.value) for r in store.range_search()])
    )
    return zlib.crc32("|".join(parts).encode())


def run_engine_matrix(
    spec: Optional[WorkloadSpec] = None,
    engines: Sequence[str] = ENGINE_NAMES,
    page_size: int = 1024,
    sample_keys: int = 50,
    base_config: Optional[StoreConfig] = None,
    shards: Optional[ShardSpec] = None,
) -> StudyResult:
    """One workload, every engine, one table.

    Replays the same operation stream through a :class:`VersionStore` per
    engine, reports each engine's normalized space summary, and fingerprints
    the logical query answers (``answers_digest``): identical digests across
    rows mean the engines agree on every current, snapshot, history and
    range answer for the workload.  ``base_config`` carries shared knobs
    (page size, cache, ...) across the matrix; engine-specific settings it
    names are dropped when they do not transfer.  With ``shards``, one more
    row runs the workload through a sharded TSB-tree store — its digest must
    match the single-store engines too.
    """
    spec = spec or WorkloadSpec(operations=2_000, update_fraction=0.5, seed=1989)
    operations = generate(spec)
    keys = sorted({operation.key for operation in operations})
    sample = keys[:: max(1, len(keys) // sample_keys)][:sample_keys]
    final_time = operations[-1].timestamp
    probe_times = sorted({max(1, final_time // 4), max(1, final_time // 2), final_time})
    base = base_config or StoreConfig(page_size=page_size)
    result = StudyResult(study="engine matrix: one workload through every engine")
    for engine in engines:
        with VersionStore.open(base.with_engine(engine)) as store:
            apply_to(store, operations)
            metrics = dict(store.space_summary())
            metrics["answers_digest"] = answers_digest(store, sample, probe_times)
            result.rows.append(ExperimentRow(label=engine, metrics=metrics))
    if shards is not None:
        with VersionStore.open(replace(base.with_engine("tsb"), shards=shards)) as store:
            apply_to(store, operations)
            metrics = dict(store.space_summary())
            metrics["answers_digest"] = answers_digest(store, sample, probe_times)
            result.rows.append(
                ExperimentRow(label=f"sharded-tsb×{store.shard_count}", metrics=metrics)
            )
    return result
