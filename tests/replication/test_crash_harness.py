"""Crash injection for the replication tier.

:class:`ReplicatedCrashHarness` ships the primary's durable log to mirror
devices byte-by-byte, with kills allowed at arbitrary byte positions —
including mid-record.  The oracle is the script runner's commit-event
list: a survivor is correct iff replaying its mirror yields exactly the
committed state at its own applied LSN, and the survivor set converges
once the elected leader's suffix is shipped around.
"""

import pytest

from tests.crash_harness import (
    RecoverableSystem,
    ReplicatedCrashHarness,
    ScriptRunner,
    forces_held,
    generate_script,
)


def _run_with_ships(harness, script, ship_plan):
    """Apply the script, shipping per ``ship_plan[replica] = (every, max_bytes)``."""
    for index, step in enumerate(script):
        harness.runner.apply(step)
        for replica, (every, max_bytes) in ship_plan.items():
            if index % every == 0 and harness.replica_alive[replica]:
                harness.ship(replica, max_bytes=max_bytes)


class TestPrimaryKill:
    def test_survivors_are_prefix_consistent_at_their_own_lsns(self):
        harness = ReplicatedCrashHarness.fresh(replicas=3)
        script = generate_script(160, seed=11)
        # Replica 0 tracks closely; 1 lags with torn cuts; 2 barely ships.
        _run_with_ships(
            harness, script, {0: (4, None), 1: (6, 97), 2: (12, 13)}
        )
        harness.kill_primary()
        checks = harness.check_survivors()
        lsns = {check.replica: check.applied_lsn for check in checks}
        assert lsns[0] > lsns[1] > lsns[2]
        for check in checks:
            assert check.consistent, (
                f"replica{check.replica} diverged at LSN {check.applied_lsn}: "
                f"missing={check.missing} extra={check.extra}"
            )

    def test_converge_brings_all_survivors_to_the_leader(self):
        harness = ReplicatedCrashHarness.fresh(replicas=3)
        script = generate_script(140, seed=29)
        _run_with_ships(
            harness, script, {0: (3, None), 1: (5, 41), 2: (9, 7)}
        )
        harness.kill_primary()
        leader = harness.elect()
        leader_lsn = harness.durable_lsns()[leader]
        checks = harness.converge()
        assert {check.applied_lsn for check in checks} == {leader_lsn}
        assert all(check.consistent for check in checks)
        # Convergence is byte-level, not just state-level.
        leader_bytes = harness.mirrors[leader].durable_contents()
        for replica in harness.survivors():
            assert harness.mirrors[replica].durable_contents() == leader_bytes

    def test_unforced_group_commit_tail_never_ships(self):
        # Commits appended but not yet forced sit in the volatile tail;
        # ship() must not leak them to any replica.
        harness = ReplicatedCrashHarness.fresh(replicas=1)
        runner = harness.runner
        script = generate_script(60, seed=5)
        runner.run(script[:30])
        with forces_held(harness.system.store):
            runner.run(script[30:])
        assert harness.system.log.flushed_lsn < harness.system.log.last_lsn
        harness.ship(0)
        replayer = harness.replayer(0)
        assert replayer.applied_lsn <= harness.system.log.flushed_lsn
        expected = runner.expected_visible(replayer.applied_lsn)
        assert replayer.visible_state() == expected

    def test_torn_mid_record_cut_is_completed_by_catchup(self):
        harness = ReplicatedCrashHarness.fresh(replicas=2)
        script = generate_script(100, seed=3)
        for index, step in enumerate(script):
            harness.runner.apply(step)
            harness.ship(0)
            if index % 2 == 0:
                harness.ship(1, max_bytes=31)  # chronic mid-record tears
        harness.kill_primary()
        before = harness.durable_lsns()
        assert before[1] < before[0]
        checks = harness.converge()
        assert all(check.consistent for check in checks)
        assert {check.applied_lsn for check in checks} == {before[0]}


class TestReplicaKill:
    def test_dead_replica_leaves_the_survivor_set(self):
        harness = ReplicatedCrashHarness.fresh(replicas=2)
        script = generate_script(120, seed=17)
        for index, step in enumerate(script):
            harness.runner.apply(step)
            harness.ship_all(max_bytes=53)
            if index == 60:
                harness.kill_replica(0)
        harness.kill_primary()
        assert harness.survivors() == [1]
        checks = harness.check_survivors()
        assert len(checks) == 1 and checks[0].consistent
        assert harness.elect() == 1
        with pytest.raises(RuntimeError):
            harness.ship(0)

    def test_no_survivors_cannot_elect(self):
        harness = ReplicatedCrashHarness.fresh(replicas=1)
        harness.kill_replica(0)
        with pytest.raises(RuntimeError):
            harness.elect()


class TestDeadPrimary:
    def test_dead_primary_refuses_to_ship(self):
        harness = ReplicatedCrashHarness.fresh(replicas=1)
        harness.kill_primary()
        with pytest.raises(RuntimeError):
            harness.ship(0)

    def test_harness_composes_with_primary_crash_recovery(self):
        self.compose_with_primary_crash_recovery(cache_pages=128)

    def test_harness_composes_with_primary_crash_recovery_at_a_one_page_pool(self):
        self.compose_with_primary_crash_recovery(cache_pages=1)

    @staticmethod
    def compose_with_primary_crash_recovery(cache_pages):
        """The replica's prefix stays valid across the primary's own
        crash-recovery cycle: recovery never rewrites durable history —
        whatever the primary's pool had room for."""
        system = RecoverableSystem(cache_pages=cache_pages)
        harness = ReplicatedCrashHarness(system, ScriptRunner(system), replicas=1)
        script = generate_script(80, seed=23)
        harness.runner.run(script[:70])
        with forces_held(system.store):  # an unforced tail for the crash
            harness.runner.run(script[70:])
        harness.ship(0)
        expected_before = harness.runner.expected_visible(
            harness.replayer(0).applied_lsn
        )
        expected_primary = harness.runner.expected_visible()
        system.crash()
        assert {
            version.key: version.value for version in system.tree.range_search()
        } == expected_primary
        # The mirror still replays to the same committed prefix.
        replayer = harness.replayer(0)
        assert replayer.visible_state() == expected_before
