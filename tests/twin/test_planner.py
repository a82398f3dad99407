"""What-if planner: policy semantics, determinism, and the commit gate."""

import pytest

from repro.core.errors import ConfigurationError
from repro.obs import Observability
from repro.serve.service import ServeConfig
from repro.twin import (
    FleetTimeline,
    TwinPolicy,
    WhatIfPlanner,
    record_fleet_timeline,
)
from repro.twin.planner import PREDICTED_KEYS


@pytest.fixture(scope="module")
def timeline():
    return record_fleet_timeline(seed=3, num_primaries=400, name="t")


class TestTwinPolicy:
    def test_apply_derives_a_new_config(self):
        base = ServeConfig(seed=1)
        policy = TwinPolicy(
            name="p", pinned_brownout=2, global_rate_scale=0.5,
            queue_capacity=7, num_controller_replicas=3,
        )
        derived = policy.apply(base)
        assert derived is not base
        assert derived.pinned_brownout == 2
        assert derived.global_rate_per_s == base.global_rate_per_s * 0.5
        assert derived.queue_capacity == 7
        assert derived.num_controller_replicas == 3
        assert base.pinned_brownout is None  # untouched

    def test_quarantine_prices_capacity_uniformly(self):
        base = ServeConfig(seed=1)
        derived = TwinPolicy(name="q", quarantine_fraction=0.25).apply(base)
        assert derived.global_rate_per_s == base.global_rate_per_s * 0.75
        assert derived.tenant_rate_per_s == base.tenant_rate_per_s * 0.75

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TwinPolicy(quarantine_fraction=1.0)
        with pytest.raises(ConfigurationError):
            TwinPolicy(global_rate_scale=0.0)

    def test_canonical_identity_is_order_free_json(self):
        a = TwinPolicy(name="x", pinned_brownout=1)
        b = TwinPolicy(pinned_brownout=1, name="x")
        assert a.canonical() == b.canonical()
        assert a.canonical() != TwinPolicy(name="x").canonical()


class TestReplayDeterminism:
    """The acceptance pin: same timeline + same policy => byte-identical
    predicted-SLO reports."""

    def test_same_policy_twice_yields_byte_identical_reports(self, timeline):
        planner = WhatIfPlanner(timeline)
        policy = TwinPolicy(name="pin", pinned_brownout=2)
        first = planner.evaluate(policy)
        second = planner.evaluate(policy)
        assert first.digest() == second.digest()
        assert first.to_record() == second.to_record()
        assert dict(first.predicted) == dict(second.predicted)

    def test_round_tripped_timeline_replays_identically(self, timeline):
        rebuilt = FleetTimeline.from_records(timeline.to_records())
        policy = TwinPolicy(name="pin", pinned_brownout=2)
        direct = WhatIfPlanner(timeline).evaluate(policy)
        via_jsonl = WhatIfPlanner(rebuilt).evaluate(policy)
        assert via_jsonl.digest() == direct.digest()

    def test_noop_policy_reproduces_the_recorded_baseline(self, timeline):
        report = WhatIfPlanner(timeline).evaluate(TwinPolicy(name="noop"))
        assert dict(report.predicted) == dict(timeline.baseline)
        assert all(delta == 0.0 for delta in report.deltas.values())

    def test_different_policies_diverge(self, timeline):
        planner = WhatIfPlanner(timeline)
        a = planner.evaluate(TwinPolicy(name="a", pinned_brownout=2))
        b = planner.evaluate(TwinPolicy(name="b", quarantine_fraction=0.5))
        assert a.digest() != b.digest()


class TestNoOpReplay:
    @pytest.mark.parametrize("profile", ["serve", "failover"])
    def test_noop_policy_reproduces_the_baseline_at_2048_tenants(self, profile):
        """The planner reruns the recorded profile, OCS scaling and
        replica group included, so a no-op policy predicts no change."""
        timeline = record_fleet_timeline(profile=profile, num_tenants=2_048)
        report = WhatIfPlanner(timeline).evaluate(TwinPolicy(name="noop"))
        assert set(report.deltas) == set(PREDICTED_KEYS)
        assert all(delta == 0.0 for delta in report.deltas.values()), report.deltas


class TestPredictions:
    def test_deep_brownout_cuts_predicted_p99(self, timeline):
        planner = WhatIfPlanner(timeline)
        report = planner.evaluate(TwinPolicy(name="pin", pinned_brownout=2))
        assert report.deltas["serve_p99_ms"] < 0.0

    def test_quarantine_trades_admission_for_latency(self, timeline):
        """Quarantining capacity tightens admission: fewer requests get
        in, so the predicted p99 of the admitted traffic drops."""
        planner = WhatIfPlanner(timeline)
        report = planner.evaluate(
            TwinPolicy(name="q", quarantine_fraction=0.75)
        )
        assert report.deltas["serve_p99_ms"] < 0.0
        assert report.predicted["availability"] <= 1.0


class TestApprovalGate:
    def test_safe_policy_approved(self, timeline):
        obs = Observability.sim()
        planner = WhatIfPlanner(timeline, obs=obs)
        ok, violations, report = planner.approve(
            TwinPolicy(name="noop"),
            {"serve_p99_ms": 1_000.0, "unavailability": 0.5},
        )
        assert ok and violations == []
        assert obs.metrics.value("twin.plan.gated", verdict="ok") == 1.0

    def test_risky_policy_held_with_named_violations(self, timeline):
        obs = Observability.sim()
        planner = WhatIfPlanner(timeline, obs=obs)
        ok, violations, report = planner.approve(
            TwinPolicy(name="noop"),
            {"twin_plan_serve_p99_ms": 50.0},  # prefixed namespace
        )
        assert not ok
        assert violations[0][0] == "serve_p99_ms"
        assert violations[0][1] > violations[0][2]
        assert obs.metrics.value("twin.plan.gated", verdict="hold") == 1.0

    def test_unknown_threshold_keys_are_ignored(self, timeline):
        report = WhatIfPlanner(timeline).evaluate(TwinPolicy(name="noop"))
        assert report.violations({"reconfig_p99_ms": 0.0}) == []
