"""FleetTimeline recording, round-trip, and digest pinning."""

import pytest

from repro.core.errors import ConfigurationError
from repro.obs import Observability
from repro.twin import FleetTimeline, record_fleet_timeline
from repro.twin.timeline import baseline_slos


@pytest.fixture(scope="module")
def timeline():
    return record_fleet_timeline(seed=3, num_primaries=400, name="t")


class TestRecording:
    def test_replay_parameters_captured(self, timeline):
        assert timeline.profile == "serve"
        assert timeline.seed == 3
        assert timeline.num_primaries == 400
        assert timeline.horizon_s > 0
        assert timeline.baseline["availability"] <= 1.0

    def test_operator_series_present(self, timeline):
        assert timeline.series_names() == (
            "serve.brownout_level",
            "serve.latency_p99_ms",
            "serve.offered",
            "serve.ok",
            "serve.shed",
        )
        offered = timeline.series("serve.offered")
        # Every primary arrival bucketed (retries add a few more).
        assert sum(v for _, v in offered) >= 400
        times = [t for t, _ in offered]
        assert times == sorted(times)

    def test_equal_seeds_pin_equal_digests(self, timeline):
        again = record_fleet_timeline(seed=3, num_primaries=400, name="t")
        assert again.digest() == timeline.digest()
        other = record_fleet_timeline(seed=4, num_primaries=400, name="t")
        assert other.digest() != timeline.digest()

    def test_unknown_profile_rejected(self):
        with pytest.raises(ConfigurationError):
            record_fleet_timeline(profile="quantum")

    def test_recording_is_instrumented(self):
        obs = Observability.sim()
        tl = record_fleet_timeline(seed=3, num_primaries=400, obs=obs)
        assert obs.metrics.value("twin.timeline.samples") == len(tl.samples)
        assert len(obs.tracer.find("twin.timeline.record")) == 1


class TestRoundTrip:
    def test_jsonl_records_rebuild_the_same_timeline(self, timeline):
        rebuilt = FleetTimeline.from_records(timeline.to_records())
        assert rebuilt == timeline
        assert rebuilt.digest() == timeline.digest()

    def test_meta_carries_schema_version_and_digest(self, timeline):
        head = timeline.to_records()[0]
        assert head["stream"] == "timeline"
        assert head["schema_version"] >= 1
        assert head["digest"] == timeline.digest()

    def test_reader_tolerates_unknown_fields_and_record_types(self, timeline):
        records = [dict(r) for r in timeline.to_records()]
        records[0]["future_knob"] = "ignored"
        records.append({"type": "annotation", "note": "from the future"})
        rebuilt = FleetTimeline.from_records(records)
        assert rebuilt.digest() == timeline.digest()

    def test_other_offered_rate_rejected(self, timeline):
        """The planner can replay only the drill profiles' rate."""
        records = [dict(r) for r in timeline.to_records()]
        records[0]["rate_per_s"] = 600.0
        with pytest.raises(ConfigurationError, match="offered"):
            FleetTimeline.from_records(records)

    def test_missing_meta_raises(self):
        with pytest.raises(ConfigurationError, match="meta"):
            FleetTimeline.from_records([{"type": "baseline", "slos": {}}])


class TestBaselineSlos:
    def test_unavailability_counts_service_failures_not_rejections(self):
        slos = baseline_slos(
            {
                "offered": 100,
                "shed": 5,
                "timeout": 3,
                "error": 2,
                "rejected": 40,  # admission policy, not failure
                "serve_p99_ms": 10.0,
                "serve_shed_rate": 0.05,
            }
        )
        assert slos["unavailability"] == pytest.approx(0.10)
        assert slos["availability"] == pytest.approx(0.90)
        assert slos["failover_p99_s"] == 0.0

    def test_zero_offered_is_fully_available(self):
        slos = baseline_slos(
            {"offered": 0, "serve_p99_ms": 0.0, "serve_shed_rate": 0.0}
        )
        assert slos["availability"] == 1.0
