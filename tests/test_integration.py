"""End-to-end integration tests combining every subsystem.

These exercise the whole stack the way the examples do — domain scenarios
replayed through the transaction manager into a TSB-tree on a jukebox, with
secondary indexes maintained alongside and every temporal query checked
against the scenario oracle — plus cross-structure consistency checks
(TSB-tree, WOBT and the naive baseline must all tell the same story about the
same workload).
"""

import random

import pytest

from repro.api import ReadView, TSBEngine
from repro.baselines import NaiveMultiversionIndex
from repro.core import (
    AlwaysTimeSplitPolicy,
    SecondaryIndex,
    ThresholdPolicy,
    TSBTree,
    assert_tree_valid,
    collect_space_stats,
)
from repro.storage import CostModel, MagneticDisk, OpticalLibrary, WormDisk
from repro.txn import TransactionManager
from repro.wobt import WOBT
from repro.workload import (
    WorkloadSpec,
    bank_accounts,
    generate,
    personnel_records,
)


class TestBankLedgerEndToEnd:
    """The section 1 banking scenario through the full transactional stack."""

    @pytest.fixture(scope="class")
    def ledger(self):
        scenario = bank_accounts(accounts=25, transactions=600, seed=21)
        tree = TSBTree(
            page_size=1024,
            policy=AlwaysTimeSplitPolicy("last_update"),
            historical=OpticalLibrary(sector_size=1024, platter_capacity_sectors=256),
        )
        manager = TransactionManager(tree)
        commit_times = {}
        for event in scenario.events:
            txn = manager.begin()
            txn.write(event.entity, event.payload)
            commit_times[event.timestamp] = txn.commit()
        return scenario, tree, manager, commit_times

    def test_final_balances_match_oracle(self, ledger):
        scenario, tree, _manager, commit_times = ledger
        final_state = scenario.state_at(scenario.final_timestamp)
        for account, payload in final_state.items():
            assert tree.search_current(account).value == payload

    def test_past_balances_match_oracle(self, ledger):
        scenario, tree, _manager, commit_times = ledger
        rng = random.Random(3)
        scenario_times = sorted(commit_times)
        for _ in range(60):
            scenario_time = rng.choice(scenario_times)
            commit_time = commit_times[scenario_time]
            expected = scenario.state_at(scenario_time)
            account = rng.choice(sorted(expected))
            observed = tree.search_as_of(account, commit_time)
            assert observed is not None and observed.value == expected[account]

    def test_full_history_lengths_match(self, ledger):
        scenario, tree, _manager, _commit_times = ledger
        for account, history in list(scenario.history.items())[:10]:
            assert len(tree.key_history(account)) == len(history)

    def test_history_migrated_to_the_jukebox(self, ledger):
        _scenario, tree, _manager, _commit_times = ledger
        stats = collect_space_stats(tree, CostModel())
        assert stats.historical_bytes_used > 0
        assert stats.historical_utilization > 0.5
        assert tree.historical.platter_count >= 1
        assert stats.current_database_fraction < 0.9

    def test_structure_is_valid(self, ledger):
        _scenario, tree, _manager, _commit_times = ledger
        assert_tree_valid(tree)

    def test_lock_free_audit_is_consistent(self, ledger):
        _scenario, tree, manager, _commit_times = ledger
        auditor = ReadView(TSBEngine(tree), manager.clock.read_timestamp())
        snapshot = auditor.snapshot()
        assert snapshot
        again = auditor.snapshot()
        assert {k: v.value for k, v in snapshot.items()} == {
            k: v.value for k, v in again.items()
        }
        assert manager.locks.locked_key_count == 0


class TestPersonnelWithSecondaryIndex:
    """Primary tree + secondary index maintained together under transactions."""

    def test_counts_and_lookups_agree_with_oracle(self):
        scenario = personnel_records(employees=20, changes=250)
        primary = TSBTree(page_size=1024, policy=ThresholdPolicy(0.5))
        by_department = SecondaryIndex("department", page_size=1024)
        for event in scenario.events:
            primary.insert(event.entity, event.payload, timestamp=event.timestamp)
            by_department.record_change(event.entity, event.attribute, timestamp=event.timestamp)

        checkpoint = scenario.final_timestamp // 2
        oracle_state = scenario.state_at(checkpoint)
        for department in ("engineering", "sales", "finance", "legal", "research"):
            expected_members = {
                entity
                for entity, payload in oracle_state.items()
                if payload.decode().endswith(f"dept={department}")
            }
            assert set(
                by_department.primary_keys_with_value(department, as_of=checkpoint)
            ) == expected_members
            resolved = by_department.lookup(primary, department, as_of=checkpoint)
            assert {version.key: version.value for version in resolved} == {
                entity: oracle_state[entity] for entity in expected_members
            }
        assert_tree_valid(primary)
        assert_tree_valid(by_department.tree)


class TestCrossStructureConsistency:
    """Three multiversion structures must agree on the same workload."""

    @pytest.fixture(scope="class")
    def loaded_structures(self):
        spec = WorkloadSpec(operations=800, update_fraction=0.6, seed=1234)
        operations = generate(spec)
        tsb = TSBTree(page_size=1024, policy=ThresholdPolicy(0.5))
        wobt = WOBT(worm=WormDisk(sector_size=1024), node_sectors=8)
        naive = NaiveMultiversionIndex(page_size=1024)
        for operation in operations:
            tsb.insert(operation.key, operation.value, timestamp=operation.timestamp)
            wobt.insert(operation.key, operation.value, timestamp=operation.timestamp)
            naive.insert(operation.key, operation.value, timestamp=operation.timestamp)
        return operations, tsb, wobt, naive

    def test_current_state_identical(self, loaded_structures):
        operations, tsb, wobt, naive = loaded_structures
        for key in sorted({op.key for op in operations}):
            tsb_value = tsb.search_current(key).value
            assert wobt.search_current(key).value == tsb_value
            assert naive.search_current(key).value == tsb_value

    def test_as_of_state_identical(self, loaded_structures):
        operations, tsb, wobt, naive = loaded_structures
        rng = random.Random(9)
        keys = sorted({op.key for op in operations})
        final_time = operations[-1].timestamp
        for _ in range(100):
            key = rng.choice(keys)
            timestamp = rng.randint(1, final_time)
            tsb_version = tsb.search_as_of(key, timestamp)
            tsb_value = None if tsb_version is None else tsb_version.value
            wobt_record = wobt.search_as_of(key, timestamp)
            wobt_value = None if wobt_record is None else wobt_record.value
            assert tsb_value == wobt_value
            naive_record = naive.search_as_of(key, timestamp)
            naive_value = None if naive_record is None else naive_record.value
            assert naive_value == tsb_value

    def test_snapshots_identical(self, loaded_structures):
        operations, tsb, wobt, naive = loaded_structures
        checkpoint = operations[-1].timestamp // 3
        tsb_snapshot = {k: v.value for k, v in tsb.snapshot(checkpoint).items()}
        wobt_snapshot = {k: v.value for k, v in wobt.snapshot(checkpoint).items()}
        naive_snapshot = {k: r.value for k, r in naive.snapshot(checkpoint).items()}
        assert tsb_snapshot == wobt_snapshot == naive_snapshot

    def test_space_profiles_differ_as_the_paper_argues(self, loaded_structures):
        _operations, tsb, wobt, naive = loaded_structures
        tsb_stats = collect_space_stats(tsb)
        wobt_stats = wobt.space_stats()
        naive_stats = naive.space_stats()
        # The WOBT duplicates more and wastes more of its device.
        assert wobt_stats.redundancy_ratio > tsb_stats.redundancy_ratio
        assert wobt_stats.reserved_utilization < tsb_stats.historical_utilization
        # The naive index keeps the entire history on the magnetic tier.
        assert naive_stats.magnetic_bytes_used > tsb_stats.magnetic_bytes_used


class TestMixedCommittedAndTransactionalWrites:
    def test_direct_and_transactional_writers_interleave_cleanly(self):
        tree = TSBTree(page_size=512, policy=ThresholdPolicy(0.5))
        manager = TransactionManager(tree)
        # Bulk-load directly (e.g. an initial migration)...
        for key in range(40):
            tree.insert(key, f"bulk-{key}".encode())
        manager.clock.advance_to(tree.now)
        # ...then run transactional updates on top.
        for round_index in range(5):
            txn = manager.begin()
            for key in range(0, 40, 4):
                txn.write(key, f"txn-{round_index}-{key}".encode())
            txn.commit()
        for key in range(0, 40, 4):
            assert tree.search_current(key).value == f"txn-4-{key}".encode()
        for key in range(1, 40, 4):
            assert tree.search_current(key).value == f"bulk-{key}".encode()
        assert_tree_valid(tree)
