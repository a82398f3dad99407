"""Acceptance tests for the replicated-controller failover drill.

These pin the PR's acceptance bar: the serving layer keeps admitting
through leader handoffs under a rolling crash / partition / clock-skew
storm, the breaker's open edge triggers elections instead of pure
refusal, no client-acked commit is ever lost, replay equivalence holds
on both the serve commit log and the replicated log, and the failover
SLOs sit within the committed thresholds.
"""

import json
from pathlib import Path

import pytest

from repro.core.errors import ConfigurationError
from repro.faults.injector import FaultInjector
from repro.serve.drill import (
    build_failover_timeline,
    failover_slos,
    run_failover_drill,
)
from repro.serve.service import FabricService, ServeConfig, build_serve_manager

THRESHOLDS = json.loads(
    (Path(__file__).resolve().parents[2] / "benchmarks" / "slo_thresholds.json")
    .read_text()
)


@pytest.fixture(scope="module")
def drill():
    return run_failover_drill(seed=0, smoke=True)


class TestConfig:
    def test_even_replica_group_rejected(self):
        with pytest.raises(ConfigurationError):
            ServeConfig(num_controller_replicas=2)
        with pytest.raises(ConfigurationError):
            ServeConfig(num_controller_replicas=0)
        with pytest.raises(ConfigurationError):
            ServeConfig(num_controller_replicas=3, replica_lease_s=0.0)

    def test_default_is_single_controller(self):
        config = ServeConfig(seed=0)
        service = FabricService(config)
        assert service.replication is None
        # Solo, the service owns one provisioned fabric directly.
        assert service.manager.state_digest() == (
            build_serve_manager(config).state_digest()
        )

    def test_replicated_mode_routes_manager_to_leader(self):
        service = FabricService(ServeConfig(seed=0, num_controller_replicas=3))
        group = service.replication
        assert group is not None and group.leader_index == 0
        assert service.manager is group.live_manager()


class TestAcceptance:
    def test_storm_forces_real_failovers(self, drill):
        summary = drill["summary"]
        assert summary["failovers"] >= 1
        assert summary["elections"] >= 2
        assert summary["failover_unavailable_s"] > 0.0

    def test_no_committed_op_lost(self, drill):
        # The drill itself raises on loss; the summary pins the zero.
        assert drill["summary"]["committed_ops_lost"] == 0

    def test_service_still_serves_through_handoffs(self, drill):
        summary = drill["summary"]
        assert summary["ok"] > 0.25 * summary["offered"]
        assert summary["availability"] > 0.5

    def test_slos_within_committed_thresholds(self, drill):
        slos = failover_slos(drill["summary"])
        for name, value in slos.items():
            assert value <= THRESHOLDS[name], (name, value)

    def test_replay_equivalence_on_both_logs(self, drill):
        summary = drill["summary"]
        assert summary["replay_digest"] == summary["state_digest"]

    def test_same_seed_identical_run(self, drill):
        again = run_failover_drill(seed=0, smoke=True)
        assert again["summary"] == drill["summary"]

    def test_different_seed_different_outcomes(self, drill):
        other = run_failover_drill(seed=1, smoke=True)
        assert other["summary"]["outcomes_digest"] != (
            drill["summary"]["outcomes_digest"]
        )

    def test_summary_only_reports_failover_keys_when_replicated(self, drill):
        from repro.serve.drill import run_serve_drill

        single = run_serve_drill(seed=0, smoke=True)["summary"]
        assert "failovers" not in single
        assert "failover_p99_s" in drill["summary"]


class TestGhostCommitRegression:
    """A commit that fails quorum is reported failed and must never
    commit later.  If a later leader committed it behind the client's
    back, these 5,000-primary drills would tear down an unknown slice
    link (seed 7) or establish one twice (seed 2095392586)."""

    @pytest.mark.parametrize("seed", [7, 2095392586])
    def test_large_failover_drill_passes(self, seed):
        summary = run_failover_drill(seed=seed, num_primaries=5_000)["summary"]
        assert summary["replay_digest"] == summary["state_digest"]
        assert summary["committed_ops_lost"] == 0
        assert summary["failovers"] >= 1


class TestThousandsOfTenants:
    def test_failover_drill_scales_traffic_ocses(self):
        """The failover profile takes the serve profile's OCS scaling:
        2,048 tenants over the default 4 OCSes would be radix 1,024."""
        out = run_failover_drill(num_tenants=2_048, num_primaries=600)
        config = out["report"].config
        assert config.num_tenants == 2_048
        assert config.num_traffic_ocses == 16
        assert config.num_controller_replicas == 3
        summary = out["summary"]
        assert summary["replay_digest"] == summary["state_digest"]
        assert summary["committed_ops_lost"] == 0


class TestTimeline:
    def test_failover_timeline_is_deterministic(self):
        def schedule():
            injector = FaultInjector(seed=0)
            build_failover_timeline(injector, horizon_s=3.0)
            return injector.pending_digest()

        assert schedule() == schedule()

    def test_rotates_all_three_failure_modes(self):
        injector = FaultInjector(seed=0)
        build_failover_timeline(injector, horizon_s=4.0)
        kinds = {e.kind.value for e in injector.pending_events()}
        assert {"controller-crash", "network-partition", "clock-skew"} <= kinds
