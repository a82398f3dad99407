"""Tests for repro.serve.service (the serving loop end to end)."""

import pytest

from repro.faults.events import FaultKind, controller_target
from repro.faults.injector import FaultInjector
from repro.serve.requests import ADMITTED_OUTCOMES, Outcome, RequestKind
from repro.serve.service import (
    MAX_ATTEMPTS,
    FabricService,
    ServeConfig,
    replay_committed,
)
from repro.serve.workload import ServeWorkload


def small_config(**overrides) -> ServeConfig:
    defaults = dict(
        num_traffic_ocses=2,
        num_tenants=32,
        allocator_cubes=16,
        seed=0,
    )
    defaults.update(overrides)
    return ServeConfig(**defaults)


def small_workload(seed: int = 0, rate_per_s: float = 300.0) -> ServeWorkload:
    return ServeWorkload(seed=seed, rate_per_s=rate_per_s, num_tenants=32)


class TestPartitionInvariant:
    def test_every_request_gets_exactly_one_outcome(self):
        config = small_config()
        requests = small_workload().generate(400)
        report = FabricService(config).run(requests)
        assert report.offered == len(requests)
        assert len(report.records) == report.offered
        by_outcome = {o: report.count(o) for o in Outcome}
        assert sum(by_outcome.values()) == report.offered
        # shed + rejected + admitted partitions the offered load.
        admitted = sum(by_outcome[o] for o in ADMITTED_OUTCOMES)
        assert (
            by_outcome[Outcome.SHED] + by_outcome[Outcome.REJECTED] + admitted
            == report.offered
        )
        # Each record's request is unique (no double terminals).
        ids = [r.request.request_id for r in report.records]
        assert len(ids) == len(set(ids))

    def test_sheds_are_reported_never_silent(self):
        config = small_config(queue_capacity=4, global_rate_per_s=2_000.0,
                              global_burst=500.0, tenant_rate_per_s=500.0,
                              tenant_burst=100.0)
        requests = small_workload(rate_per_s=3_000.0).generate(600)
        report = FabricService(config).run(requests)
        shed_ids = {r.request.request_id for r in report.records
                    if r.outcome is Outcome.SHED}
        assert report.count(Outcome.SHED) > 0
        # Every queue eviction names its victim, and every shed outcome
        # traces back to exactly one eviction record.
        victims = {s.victim.request_id for s in report.shed_records}
        assert victims == shed_ids


class TestReplayEquivalence:
    def test_replay_reproduces_live_digest(self):
        config = small_config()
        report = FabricService(config).run(small_workload().generate(500))
        assert report.commit_log, "expected committed mutations"
        assert replay_committed(config, report.commit_log) == report.state_digest

    def test_replay_holds_under_faults(self):
        config = small_config()
        requests = small_workload().generate(500)
        injector = FaultInjector(seed=1)
        injector.schedule(0.2, FaultKind.CONTROLLER_CRASH, controller_target(),
                          clear_after_s=0.3)
        injector.schedule(0.9, FaultKind.RPC_TIMEOUT, controller_target(),
                          severity=8.0, clear_after_s=0.2)
        report = FabricService(config).run(requests, faults=injector)
        assert report.recoveries >= 1
        assert replay_committed(config, report.commit_log) == report.state_digest


class TestDeterminism:
    def test_same_seed_same_outcomes_digest(self):
        def run():
            injector = FaultInjector(seed=2)
            injector.schedule(0.3, FaultKind.CONTROLLER_CRASH,
                              controller_target(), clear_after_s=0.25)
            return FabricService(small_config()).run(
                small_workload(seed=2).generate(400), faults=injector
            )

        a, b = run(), run()
        assert a.outcomes_digest() == b.outcomes_digest()
        assert a.state_digest == b.state_digest
        assert [e.canonical() for e in a.commit_log] == [
            e.canonical() for e in b.commit_log
        ]


class TestOverloadBehaviors:
    def test_hot_tenant_is_throttled_before_quiet_ones(self):
        config = small_config()
        requests = ServeWorkload(
            seed=4, rate_per_s=1_500.0, num_tenants=32, hot_tenant_share=0.5
        ).generate(800)
        report = FabricService(config).run(requests)

        def reject_rate(tenant_filter):
            mine = [r for r in report.records if tenant_filter(r.request.tenant)]
            rejected = sum(1 for r in mine if r.outcome is Outcome.REJECTED)
            return rejected / max(1, len(mine))

        hot = reject_rate(lambda t: t == "t-000")
        quiet = reject_rate(lambda t: t != "t-000")
        assert hot > quiet

    def test_breaker_fast_fails_without_downstream_attempts(self):
        config = small_config(breaker_threshold=2, breaker_cooldown_s=5.0)
        requests = small_workload(seed=5).generate(300)
        injector = FaultInjector(seed=5)
        # Controller down for the entire run: after the trip, requests
        # fail fast with zero downstream attempts.
        injector.schedule(0.0, FaultKind.CONTROLLER_CRASH, controller_target(),
                          clear_after_s=10_000.0)
        report = FabricService(config).run(requests, faults=injector)
        fast_failed = [r for r in report.records
                       if r.outcome is Outcome.ERROR and r.detail == "breaker-open"]
        assert report.breaker_trips >= 1
        assert report.breaker_fast_fails > 0
        # A breaker-open verdict can follow attempts made before the
        # trip, but the steady state is a pure fast fail: zero launched.
        assert any(r.attempts == 0 for r in fast_failed)
        assert all(r.attempts < MAX_ATTEMPTS for r in fast_failed)
        # With the controller down only local work can succeed:
        # read-only telemetry and no-op releases.  No mutation commits.
        for r in report.records:
            if r.outcome is Outcome.OK:
                assert r.request.kind in (
                    RequestKind.TELEMETRY_QUERY, RequestKind.SLICE_RELEASE
                )
        assert not report.commit_log

    def test_retry_amplification_never_exceeds_the_cap(self):
        config = small_config()
        requests = small_workload(seed=6, rate_per_s=1_000.0).generate(600)
        injector = FaultInjector(seed=6)
        for k in range(4):
            injector.schedule(0.1 + 0.4 * k, FaultKind.RPC_TIMEOUT,
                              controller_target(), severity=8.0,
                              clear_after_s=0.15)
        report = FabricService(config).run(requests, faults=injector)
        assert report.downstream_attempts > 0
        cap = 1.0 + config.retry_ratio
        assert report.downstream_attempts <= cap * report.deposits
        assert report.retry_amplification <= cap

    def test_queue_pressure_triggers_brownout_unpinned(self):
        # No faults, no pinned level: sustained overload alone must push
        # queue occupancy through the enter thresholds and engage the
        # adaptive brownout ladder (the breaker never opens here, so any
        # transition is occupancy-driven).
        config = small_config(
            queue_capacity=16,
            global_rate_per_s=2_000.0, global_burst=500.0,
            tenant_rate_per_s=500.0, tenant_burst=100.0,
        )
        requests = small_workload(rate_per_s=3_000.0).generate(600)
        report = FabricService(config).run(requests)
        assert report.breaker_trips == 0
        levels = [level for _, level in report.brownout_transitions]
        assert levels, "expected occupancy-driven brownout transitions"
        assert max(levels) >= 1

    def test_pinned_brownout_serves_cached_telemetry(self):
        config = small_config(pinned_brownout=2)
        requests = ServeWorkload(
            seed=7, rate_per_s=200.0, num_tenants=32,
            mix={RequestKind.TELEMETRY_QUERY: 1.0},
        ).generate(150)
        report = FabricService(config).run(requests)
        details = {r.detail for r in report.records if r.outcome is Outcome.OK}
        assert "cached" in details
        assert report.telemetry_cache_hits > report.telemetry_cache_misses

    def test_pinned_level_1_batches_traffic_updates(self):
        config = small_config(pinned_brownout=1)
        requests = ServeWorkload(
            seed=8, rate_per_s=400.0, num_tenants=32,
            mix={RequestKind.TRAFFIC_UPDATE: 1.0},
        ).generate(200)
        report = FabricService(config).run(requests)
        assert report.batches_flushed > 0
        batched_ok = sum(1 for r in report.records
                         if r.outcome is Outcome.OK and r.detail == "batched")
        assert batched_ok > 0
        assert replay_committed(config, report.commit_log) == report.state_digest

    def test_pinned_brownout_never_changes_committed_state(self):
        # A telemetry-heavy soak with no retargeting ops: brownout 2 only
        # changes how telemetry is answered (cached vs a fresh digest),
        # so both levels commit the same intents in the same order.
        requests = ServeWorkload(
            seed=7, rate_per_s=250.0, num_tenants=64,
            mix={RequestKind.TELEMETRY_QUERY: 0.92, RequestKind.SLICE_ALLOC: 0.08},
            deadlines_s={
                RequestKind.TELEMETRY_QUERY: 5.0,
                RequestKind.SLICE_ALLOC: 5.0,
                RequestKind.SLICE_RELEASE: 5.0,
            },
            slice_cubes=(1, 2),
            slice_hold_mean_s=1.0,
        ).generate(600)

        def soak(level):
            config = ServeConfig(
                num_tenants=64,
                global_rate_per_s=10_000.0, global_burst=2_000.0,
                tenant_rate_per_s=1_000.0, tenant_burst=200.0,
                queue_capacity=4_096, pinned_brownout=level, seed=7,
            )
            return FabricService(config).run(requests)

        fresh, cached = soak(0), soak(2)
        assert cached.telemetry_cache_hits > 0
        assert fresh.commit_log, "the soak must commit slice allocations"
        assert cached.state_digest == fresh.state_digest
        assert [e.canonical() for e in cached.commit_log] == [
            e.canonical() for e in fresh.commit_log
        ]


class TestConfigValidation:
    def test_tenant_circuit_mapping_is_collision_free(self):
        config = small_config()
        seen = set()
        for i in range(config.num_tenants):
            circuit = config.tenant_circuit(f"t-{i:03d}")
            assert circuit not in seen
            seen.add(circuit)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_tenants": 0},
            {"queue_capacity": 0},
            {"global_rate_per_s": 0.0},
        ],
    )
    def test_invalid_config(self, kwargs):
        from repro.core.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            small_config(**kwargs)


class TestReportPercentileCache:
    """Regression: percentile queries used to re-sort the full record
    list on every call; now each outcome's latencies are sorted once
    and cached on the (immutable) report."""

    def _report(self):
        return FabricService(small_config()).run(
            small_workload(seed=4, rate_per_s=600.0).generate(400)
        )

    def test_repeated_queries_reuse_one_sort(self):
        report = self._report()
        first = report.latency_percentile_ms(0.99)
        cached = report._sorted_latencies[Outcome.OK]
        for q in (0.5, 0.9, 0.95, 0.99):
            report.latency_percentile_ms(q)
        assert report._sorted_latencies[Outcome.OK] is cached
        assert report.latency_percentile_ms(0.99) == first

    def test_cached_percentiles_match_naive_order_statistic(self):
        import math

        report = self._report()
        for outcome in (Outcome.OK, Outcome.ERROR):
            latencies = sorted(
                r.latency_ms for r in report.records if r.outcome is outcome
            )
            for q in (0.5, 0.9, 0.99):
                expected = 0.0
                if latencies:
                    expected = latencies[
                        min(len(latencies) - 1, int(math.ceil(q * len(latencies))) - 1)
                    ]
                assert report.latency_percentile_ms(q, outcome) == expected

    def test_each_outcome_gets_its_own_cache_entry(self):
        report = self._report()
        report.latency_percentile_ms(0.99, Outcome.OK)
        report.latency_percentile_ms(0.99, Outcome.REJECTED)
        assert Outcome.OK in report._sorted_latencies
        assert Outcome.REJECTED in report._sorted_latencies
        assert (
            report._sorted_latencies[Outcome.OK]
            is not report._sorted_latencies[Outcome.REJECTED]
        )
