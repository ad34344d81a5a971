"""Unit tests for the split-decision policies (paper sections 3.2/3.3)."""

import pytest

from repro.core.policy import (
    AlwaysKeySplitPolicy,
    AlwaysTimeSplitPolicy,
    CostDrivenPolicy,
    SplitContext,
    ThresholdPolicy,
    WOBTEmulationPolicy,
    make_policy,
)
from repro.core.nodes import DataNode
from repro.core.records import Rectangle, Version
from repro.core.split import SplitKind
from repro.storage.costmodel import CostModel
from repro.storage.device import Address


def committed(key, timestamp, value=b"payload-123"):
    return Version(key=key, timestamp=timestamp, value=value)


def make_context(versions, now=None, page_size=512, region=None):
    stamps = [v.timestamp for v in versions if v.timestamp is not None]
    node = DataNode(Address.magnetic(0), region or Rectangle.full(), versions)
    return SplitContext(node, page_size, now if now is not None else max(stamps, default=0))


#: a node holding only insertions (one version per key) — must key split.
INSERT_ONLY = [committed(k, k + 1) for k in range(8)]
#: a node holding only versions of a single key — must time split.
SINGLE_KEY = [committed(7, t) for t in range(1, 9)]
#: a balanced mix: two versions of each of four keys.
MIXED = [committed(k, 10 * k + offset) for k in range(1, 5) for offset in (1, 5)]


class TestBoundaryConditions:
    """The paper's forced cases apply to every policy."""

    @pytest.mark.parametrize(
        "policy",
        [
            AlwaysKeySplitPolicy(),
            AlwaysTimeSplitPolicy("current"),
            AlwaysTimeSplitPolicy("last_update"),
            ThresholdPolicy(0.5),
            CostDrivenPolicy(),
            WOBTEmulationPolicy(),
        ],
    )
    def test_insert_only_node_forces_key_split(self, policy):
        decision = policy.decide(make_context(INSERT_ONLY))
        assert decision.kind is SplitKind.KEY

    @pytest.mark.parametrize(
        "policy",
        [
            AlwaysKeySplitPolicy(),
            AlwaysTimeSplitPolicy("current"),
            ThresholdPolicy(0.5),
            CostDrivenPolicy(),
            WOBTEmulationPolicy(),
        ],
    )
    def test_single_key_node_forces_time_split(self, policy):
        decision = policy.decide(make_context(SINGLE_KEY))
        assert decision.kind is SplitKind.TIME

    def test_single_record_node_is_an_error(self):
        policy = ThresholdPolicy(0.5)
        with pytest.raises(ValueError):
            policy.decide(make_context([committed(1, 1)]))


class TestAlwaysPolicies:
    def test_always_key_prefers_key_split_on_mixed_node(self):
        decision = AlwaysKeySplitPolicy().decide(make_context(MIXED))
        assert decision.kind is SplitKind.KEY

    def test_always_time_prefers_time_split_on_mixed_node(self):
        decision = AlwaysTimeSplitPolicy("current").decide(make_context(MIXED, now=50))
        assert decision.kind is SplitKind.TIME
        assert decision.split_time == 50

    def test_always_key_never_requests_index_time_splits(self):
        assert AlwaysKeySplitPolicy().prefers_index_time_splits is False
        assert AlwaysTimeSplitPolicy().prefers_index_time_splits is True


class TestSplitTimeChoosers:
    def test_current_chooser_uses_now(self):
        policy = AlwaysTimeSplitPolicy("current")
        assert policy.pick_split_time(make_context(MIXED, now=99)) == 99

    def test_last_update_chooser(self):
        versions = [committed(1, 1), committed(1, 7), committed(2, 9)]
        policy = AlwaysTimeSplitPolicy("last_update")
        assert policy.pick_split_time(make_context(versions, now=20)) == 7

    def test_last_update_falls_back_to_now_without_updates(self):
        policy = AlwaysTimeSplitPolicy("last_update")
        assert policy.pick_split_time(make_context(INSERT_ONLY, now=33)) == 33

    def test_min_redundancy_chooser(self):
        versions = [committed(1, 2), committed(1, 6), committed(2, 3), committed(2, 6)]
        policy = AlwaysTimeSplitPolicy("min_redundancy")
        assert policy.pick_split_time(make_context(versions, now=10)) == 6

    def test_median_chooser(self):
        versions = [committed(1, t) for t in (1, 4, 8, 12)]
        policy = AlwaysTimeSplitPolicy("median")
        chosen = policy.pick_split_time(make_context(versions, now=20))
        assert chosen in {8, 12}

    def test_unknown_chooser_rejected(self):
        policy = AlwaysTimeSplitPolicy("no-such-rule")
        with pytest.raises(ValueError):
            policy.decide(make_context(MIXED))


class TestThresholdPolicy:
    def test_zero_threshold_behaves_like_always_time(self):
        decision = ThresholdPolicy(0.0).decide(make_context(MIXED))
        assert decision.kind is SplitKind.TIME

    def test_full_threshold_behaves_like_always_key(self):
        decision = ThresholdPolicy(1.0).decide(make_context(MIXED))
        assert decision.kind is SplitKind.KEY

    def test_threshold_compares_historical_fraction(self):
        # MIXED is exactly half historical by bytes (one superseded version
        # per key out of two): thresholds below 0.5 time split, above key split.
        context = make_context(MIXED)
        assert context.historical_fraction() == pytest.approx(0.5)
        assert ThresholdPolicy(0.4).decide(context).kind is SplitKind.TIME
        assert ThresholdPolicy(0.6).decide(context).kind is SplitKind.KEY

    def test_invalid_threshold_rejected(self):
        with pytest.raises(ValueError):
            ThresholdPolicy(1.5)
        with pytest.raises(ValueError):
            ThresholdPolicy(-0.1)


class TestCostDrivenPolicy:
    def test_cheap_optical_storage_encourages_time_splits(self):
        cheap_optical = CostDrivenPolicy(CostModel.with_cost_ratio(20.0))
        assert cheap_optical.decide(make_context(MIXED)).kind is SplitKind.TIME

    def test_expensive_optical_storage_encourages_key_splits(self):
        expensive_optical = CostDrivenPolicy(
            CostModel(magnetic_cost_per_byte=1.0, optical_cost_per_byte=50.0)
        )
        assert expensive_optical.decide(make_context(MIXED)).kind is SplitKind.KEY

    def test_decisions_shift_monotonically_with_cost_ratio(self):
        kinds = []
        for ratio in (0.05, 1.0, 5.0, 50.0):
            policy = CostDrivenPolicy(CostModel.with_cost_ratio(ratio))
            kinds.append(policy.decide(make_context(MIXED)).kind)
        # Once the ratio is high enough to prefer time splits it never flips back.
        first_time_split = kinds.index(SplitKind.TIME) if SplitKind.TIME in kinds else len(kinds)
        assert all(kind is SplitKind.TIME for kind in kinds[first_time_split:])


class TestWOBTEmulationPolicy:
    def test_any_history_triggers_a_current_time_split(self):
        decision = WOBTEmulationPolicy().decide(make_context(MIXED, now=41))
        assert decision.kind is SplitKind.TIME
        assert decision.split_time == 41


class TestFactory:
    @pytest.mark.parametrize(
        "name, expected",
        [
            ("always-key", AlwaysKeySplitPolicy),
            ("key", AlwaysKeySplitPolicy),
            ("always-time", AlwaysTimeSplitPolicy),
            ("threshold", ThresholdPolicy),
            ("cost", CostDrivenPolicy),
            ("wobt", WOBTEmulationPolicy),
        ],
    )
    def test_known_names(self, name, expected):
        assert isinstance(make_policy(name), expected)

    def test_kwargs_forwarded(self):
        policy = make_policy("threshold", threshold=0.9)
        assert policy.threshold == pytest.approx(0.9)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            make_policy("zigzag")


class TestSplitContext:
    def test_legal_split_times_respect_region_start(self):
        versions = [committed(1, 2), committed(1, 6), committed(2, 9)]
        region = Rectangle.full()
        late_region = Rectangle(region.keys, type(region.times)(6, None))
        early = make_context(versions, region=region)
        late = make_context(versions, region=late_region)
        assert early.legal_split_times() == [6, 9]
        assert late.legal_split_times() == [9]

    def test_can_key_and_can_time_split(self):
        assert make_context(MIXED).can_key_split()
        assert make_context(MIXED).can_time_split()
        assert not make_context(SINGLE_KEY).can_key_split()
        assert make_context(SINGLE_KEY).can_time_split()
        assert make_context(INSERT_ONLY).can_key_split()
        # A single version per key still admits a (useless) time split at a
        # later stamp, but not when every version shares one timestamp.
        same_stamp = [Version(key=k, timestamp=5, value=b"x") for k in range(3)]
        assert not make_context(same_stamp).can_time_split()

    def test_historical_fraction_of_insert_only_node_is_zero(self):
        assert make_context(INSERT_ONLY).historical_fraction() == 0.0

    def test_historical_fraction_counts_provisional_as_current(self):
        versions = MIXED + [Version(key=1, timestamp=None, value=b"p", txn_id=1)]
        assert make_context(versions).historical_fraction() < 0.5
