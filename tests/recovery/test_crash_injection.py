"""Crash-injection model test (the acceptance criterion of the subsystem).

For a randomized transactional workload, crash at *every* step boundary —
and, where that step is a commit, also between its append and its force —
recover, and require that the visible state equals exactly the committed
prefix the durable log defines — no lost durable commits, no surviving
provisional versions — and that the recovered tree passes every structural
invariant (``RecoverableSystem.crash`` runs the checker and raises on any
violation).
"""

from contextlib import nullcontext

import pytest

from repro.recovery import log_manager
from repro.replication import replay_device
from repro.storage.logdevice import LogDevice
from tests.crash_harness import (
    RecoverableSystem,
    ScriptRunner,
    forces_held,
    generate_script,
)

KEY_SPACE = 8

#: Checkpoint-heavy script shape: a (full or fuzzy) checkpoint is on offer
#: at every step and a third of the closes are aborts, so transactions
#: routinely straddle the recovery anchor and then commit, abort, or are
#: still in flight at the crash — the state a checkpoint image *carries*.
CHECKPOINTED = {"steps": 80, "checkpoint_every": 1.0, "abort_fraction": 1.0}

#: No explicit checkpoint and a third of the closes aborts: with the rule's N
#: patched down, the rule's own checkpoints are the ones transactions straddle.
ABORTING = {"checkpoint_every": 0.0, "abort_fraction": 1.0}

#: N for the runs with the checkpoint rule firing: every default-shape
#: script's log crosses it several times.
RULE_BYTES = 512


def visible_state(system):
    return {version.key: version.value for version in system.tree.range_search()}


def histories(tree):
    """Every key's full committed history, tombstones included."""
    return {
        key: [(v.timestamp, v.is_tombstone, v.value) for v in tree.key_history(key)]
        for key in range(KEY_SPACE)
    }


def provisional_versions(tree):
    return [v for node in tree.data_nodes() for v in node.versions if v.is_provisional]


def expected_histories(runner):
    """The oracle's histories: durably committed writes, in commit order."""
    expected = {key: [] for key in range(KEY_SPACE)}
    for lsn, timestamp, writes in runner.commit_events:
        if lsn <= runner.system.log.flushed_lsn:
            for key, value in writes.items():
                expected[key].append((timestamp, value is None, value or b""))
    return expected


@pytest.mark.parametrize(
    "seed,held,shape,cache_pages,rule_bytes",
    [
        pytest.param(1989, False, {}, 128, None, id="1989"),
        pytest.param(1989, True, {}, 128, None, id="1989-held"),
        pytest.param(7, False, {}, 128, None, id="7"),
        pytest.param(7, True, {}, 128, None, id="7-held"),
        pytest.param(23, True, {}, 128, None, id="23-held"),
        pytest.param(22, False, CHECKPOINTED, 128, None, id="22-checkpointed"),
        pytest.param(22, True, CHECKPOINTED, 128, None, id="22-held-checkpointed"),
        pytest.param(34, True, CHECKPOINTED, 128, None, id="34-held-checkpointed"),
        # A one-page pool: every script dirties more pages than that, so a
        # pool that wrote one back between checkpoints would be caught here.
        pytest.param(7, True, {}, 1, None, id="7-held-one-page-pool"),
        pytest.param(34, True, CHECKPOINTED, 1, None, id="34-held-checkpointed-one-page-pool"),
        # The checkpoint rule firing: with N this small every script's log
        # crosses it several times, so automatic checkpoints land between
        # the steps.
        pytest.param(1989, True, {}, 128, RULE_BYTES, id="1989-held-rule"),
        pytest.param(7, True, ABORTING, 128, RULE_BYTES, id="7-held-aborting-rule"),
        pytest.param(7, True, {}, 1, RULE_BYTES, id="7-held-one-page-pool-rule"),
        pytest.param(
            34, True, CHECKPOINTED, 1, RULE_BYTES, id="34-held-checkpointed-one-page-pool-rule"
        ),
    ],
)
def test_crash_at_every_point_recovers_the_committed_prefix(
    seed, held, shape, cache_pages, rule_bytes, monkeypatch
):
    """Three derivations of the post-crash state must agree at every crash
    point: restart recovery (checkpoint image + seeded replay), the same
    durable log replayed from its first byte into an empty tree, and the
    script oracle — on the visible state and on every key's history.
    ``held`` crashes a prefix that ends in a commit between that commit's
    append and its force (:func:`forces_held`), so its record is in the
    unforced tail; ``rule_bytes`` patches the checkpoint rule's N down
    (None keeps it)."""
    if rule_bytes is not None:
        monkeypatch.setattr(log_manager, "CHECKPOINT_EVERY_BYTES", rule_bytes)
    script = generate_script(**{"steps": 60, "key_space": KEY_SPACE, "seed": seed, **shape})
    for crash_at in range(len(script) + 1):
        runner = ScriptRunner(RecoverableSystem(page_size=384, cache_pages=cache_pages))
        last = max(crash_at - 1, 0)
        runner.run(script[:last])
        with forces_held(runner.system.store) if held else nullcontext():
            runner.run(script[last:crash_at])
        where = f"seed={seed} held={held} crash_at={crash_at}"
        expected = runner.expected_visible()
        expected_history = expected_histories(runner)
        expected_high_water = runner.durable_high_water()
        durable_log = LogDevice()
        durable_log.append(runner.system.log_device.durable_contents())
        durable_log.force()
        report = runner.system.crash()  # the reopen verifies the tree
        observed = visible_state(runner.system)
        assert observed == expected, (
            f"{where}: recovered state diverged from the durable committed prefix"
        )
        assert histories(runner.system.tree) == expected_history, where
        assert not provisional_versions(runner.system.tree), where
        from_empty = replay_device(durable_log)
        assert from_empty.visible_state() == expected, where
        assert histories(from_empty.tree) == expected_history, where
        # tree.now can trail the oracle (empty-write-set commits advance the
        # clock without stamping anything); the restored clock must not.
        assert runner.system.tree.now <= expected_high_water
        assert report.high_water >= expected_high_water
        assert runner.system.txns.clock.latest >= expected_high_water


def test_automatic_checkpoints_carry_open_transactions(monkeypatch):
    """The rule's checkpoints land mid-script with transactions open across
    them, whose provisional versions the image carries; those then commit or
    abort (and are in flight at the crash points between)."""
    # Small enough that each 60-step script's log crosses the rule twice.
    monkeypatch.setattr(log_manager, "CHECKPOINT_EVERY_BYTES", RULE_BYTES * 5 // 8)
    decided = set()
    for seed in (1989, 7, 23):
        script = generate_script(steps=60, key_space=KEY_SPACE, seed=seed, **ABORTING)
        runner = ScriptRunner(RecoverableSystem(page_size=384))
        anchor, automatic, carried = runner.system.tree.log_anchor, 0, set()
        for step in script:
            runner.apply(step)
            tree = runner.system.tree
            if step.kind == "commit" and tree.log_anchor != anchor:
                automatic += 1
                carried |= {slot for slot, writes in runner.slot_writes.items() if writes}
            anchor = tree.log_anchor
            if step.kind in ("commit", "abort") and step.slot in carried:
                decided.add(step.kind)
                carried.discard(step.slot)
        assert automatic >= 2, seed
    assert decided == {"commit", "abort"}


def test_checkpointed_scripts_carry_state_across_the_anchor():
    """The checkpointed shapes above are only worth their runtime if their
    scripts really do leave provisional versions inside checkpoint images
    and then decide those transactions both ways."""
    for seed in (22, 34):
        script = generate_script(**{"key_space": KEY_SPACE, "seed": seed, **CHECKPOINTED})
        kinds = [step.kind for step in script]
        assert "checkpoint" in kinds and "fuzzy-checkpoint" in kinds
        writes, carried, decided = {}, set(), set()
        for step in script:
            if step.kind == "begin":
                writes[step.slot] = 0
            elif step.kind in ("write", "delete"):
                writes[step.slot] += 1
            elif step.kind == "checkpoint":
                carried.update(slot for slot, count in writes.items() if count)
            elif step.kind in ("commit", "abort"):
                if step.slot in carried:
                    decided.add(step.kind)
                    carried.discard(step.slot)
                del writes[step.slot]
        assert decided == {"commit", "abort"}


def test_system_remains_usable_after_every_mid_script_crash():
    """Crash midway, recover, then finish the script's committed work anew."""
    script = generate_script(steps=50, key_space=6, seed=11)
    runner = ScriptRunner(RecoverableSystem(page_size=384))
    runner.run(script[:20])
    with forces_held(runner.system.store):  # the crash loses any commit here
        runner.run(script[20:25])
    # The oracle must be pinned before crash(): recovery takes a fresh
    # checkpoint, which moves the durable horizon past any lost-tail commit.
    expected = runner.expected_visible()
    runner.system.crash()
    assert visible_state(runner.system) == expected
    # The old slots died with the crash; run fresh transactions on top.
    txn = runner.system.begin()
    txn.write(0, b"fresh-after-crash")
    txn.commit()
    runner.system.log.force()
    runner.system.crash()
    assert visible_state(runner.system)[0] == b"fresh-after-crash"


def test_double_crash_without_intervening_work_is_stable():
    script = generate_script(steps=40, key_space=6, seed=3)
    runner = ScriptRunner(RecoverableSystem(page_size=384))
    runner.run(script)
    runner.system.crash()
    state_once = visible_state(runner.system)
    runner.system.crash()
    assert visible_state(runner.system) == state_once
