"""Fleet timelines: the digital twin's recorded ground truth.

A :class:`FleetTimeline` is what an operator would pull out of the
monitoring stack before asking "what happens if we commit this policy":
time-bucketed series from one drill (offered/ok/shed counts, exact
per-bucket p99 latency, the brownout level) **plus** the replay
parameters -- seed, profile, stream length, tenant count -- that let the
what-if planner reconstruct the exact workload and fault storm.  The
JSONL round-trip (:meth:`FleetTimeline.to_records` /
:meth:`FleetTimeline.from_records`) is schema-versioned and tolerant of
unknown future fields, and :meth:`FleetTimeline.digest` pins the whole
artifact byte-for-byte.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.core.errors import ConfigurationError
from repro.obs import NULL_OBS, Observability
from repro.obs.timeseries import (
    TIMESERIES_SCHEMA_VERSION,
    Sample,
    samples_from_records,
)
from repro.serve.drill import PROFILES, RATE_PER_S, run_drill
from repro.serve.requests import Outcome


def _quantile(values: List[float], q: float) -> float:
    """Exact lower-interpolation quantile (deterministic, no numpy)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, int(q * len(ordered)))
    return ordered[rank]


@dataclass(frozen=True)
class FleetTimeline:
    """One recorded drill, ready for forecasting and what-if replay."""

    name: str
    profile: str
    seed: int
    num_primaries: int
    num_tenants: int
    rate_per_s: float
    horizon_s: float
    sample_every_s: float
    samples: Tuple[Sample, ...]
    baseline: Mapping[str, float]
    schema_version: int = TIMESERIES_SCHEMA_VERSION

    def __post_init__(self) -> None:
        if self.profile not in PROFILES:
            raise ConfigurationError(
                f"unknown profile {self.profile!r}; have {PROFILES}"
            )
        if self.rate_per_s != RATE_PER_S:
            # The planner replays through the drill runner, which offers
            # only the profile rate.
            raise ConfigurationError(
                f"timeline offered {self.rate_per_s}/s; the drill profiles "
                f"offer {RATE_PER_S}/s"
            )

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def series(self, name: str) -> Tuple[Tuple[float, float], ...]:
        """(t_ms, value) points of one recorded series."""
        return tuple(
            (s.t_ms, s.value) for s in self.samples if s.series == name
        )

    def series_names(self) -> Tuple[str, ...]:
        return tuple(sorted({s.series for s in self.samples}))

    # ------------------------------------------------------------------ #
    # JSONL round-trip
    # ------------------------------------------------------------------ #

    def to_records(self) -> List[Dict[str, object]]:
        head: Dict[str, object] = {
            "type": "meta",
            "stream": "timeline",
            "schema_version": self.schema_version,
            "name": self.name,
            "profile": self.profile,
            "seed": self.seed,
            "num_primaries": self.num_primaries,
            "num_tenants": self.num_tenants,
            "rate_per_s": self.rate_per_s,
            "horizon_s": self.horizon_s,
            "sample_every_s": self.sample_every_s,
            "samples": len(self.samples),
            "digest": self.digest(),
        }
        baseline_record: Dict[str, object] = {
            "type": "baseline",
            "slos": dict(sorted(self.baseline.items())),
        }
        return [head, baseline_record, *[s.to_record() for s in self.samples]]

    @classmethod
    def from_records(
        cls, records: Iterable[Mapping[str, object]]
    ) -> "FleetTimeline":
        """Rebuild from JSONL records; unknown fields and unknown record
        types are ignored (forward compatibility)."""
        meta: Optional[Mapping[str, object]] = None
        baseline: Dict[str, float] = {}
        materialized = list(records)
        for record in materialized:
            if record.get("type") == "meta" and record.get("stream") == "timeline":
                meta = record
            elif record.get("type") == "baseline":
                slos = record.get("slos")
                if isinstance(slos, Mapping):
                    baseline = {str(k): float(v) for k, v in slos.items()}
        if meta is None:
            raise ConfigurationError("no timeline meta record in stream")
        return cls(
            name=str(meta.get("name", "recorded")),
            profile=str(meta["profile"]),
            seed=int(meta["seed"]),  # type: ignore[arg-type]
            num_primaries=int(meta["num_primaries"]),  # type: ignore[arg-type]
            num_tenants=int(meta["num_tenants"]),  # type: ignore[arg-type]
            rate_per_s=float(meta["rate_per_s"]),  # type: ignore[arg-type]
            horizon_s=float(meta["horizon_s"]),  # type: ignore[arg-type]
            sample_every_s=float(meta["sample_every_s"]),  # type: ignore[arg-type]
            samples=samples_from_records(materialized),
            baseline=baseline,
            schema_version=int(meta.get("schema_version", 1)),  # type: ignore[arg-type]
        )

    def digest(self) -> str:
        """SHA-256 over identity, replay parameters, baseline SLOs, and
        every sample -- the pin for "same timeline"."""
        h = hashlib.sha256()
        h.update(
            f"{self.name}|{self.profile}|{self.seed}|{self.num_primaries}|"
            f"{self.num_tenants}|{self.rate_per_s!r}|{self.horizon_s!r}|"
            f"{self.sample_every_s!r}|{self.schema_version}\n".encode("utf-8")
        )
        h.update(
            json.dumps(dict(sorted(self.baseline.items())), sort_keys=True,
                       separators=(",", ":")).encode("utf-8")
        )
        for s in self.samples:
            h.update(
                f"{s.t_ms!r}|{s.series}|{s.value!r}|{s.kind}\n".encode("utf-8")
            )
        return h.hexdigest()


def samples_from_serve_report(
    report, horizon_s: float, sample_every_s: float
) -> Tuple[Sample, ...]:
    """Bucket a :class:`~repro.serve.service.ServeReport` into the fleet
    series an operator watches: per-bucket offered/ok/shed counts, exact
    p99 latency over that bucket's completions, and the brownout level
    at bucket close.  Samples are stamped at each bucket's closing edge
    (sim-clock milliseconds), in (time, series) order."""
    if sample_every_s <= 0:
        raise ConfigurationError("sample_every_s must be positive")
    num_buckets = max(1, int(horizon_s / sample_every_s) + 1)
    offered = [0] * num_buckets
    ok = [0] * num_buckets
    shed = [0] * num_buckets
    latencies: List[List[float]] = [[] for _ in range(num_buckets)]
    for record in report.records:
        b = min(num_buckets - 1, int(record.request.arrival_s / sample_every_s))
        offered[b] += 1
        if record.outcome is Outcome.OK:
            ok[b] += 1
            latencies[b].append(record.latency_ms)
        elif record.outcome is Outcome.SHED:
            shed[b] += 1
    transitions = sorted(report.brownout_transitions)
    samples: List[Sample] = []
    level = 0
    t_index = 0
    for b in range(num_buckets):
        close_s = (b + 1) * sample_every_s
        while t_index < len(transitions) and transitions[t_index][0] <= close_s:
            level = transitions[t_index][1]
            t_index += 1
        t_ms = close_s * 1e3
        samples.append(Sample(t_ms, "serve.offered", float(offered[b]), "counter"))
        samples.append(Sample(t_ms, "serve.ok", float(ok[b]), "counter"))
        samples.append(Sample(t_ms, "serve.shed", float(shed[b]), "counter"))
        samples.append(
            Sample(t_ms, "serve.latency_p99_ms", _quantile(latencies[b], 0.99))
        )
        samples.append(Sample(t_ms, "serve.brownout_level", float(level)))
    return tuple(samples)


def baseline_slos(summary: Mapping[str, object]) -> Dict[str, float]:
    """The twin-facing SLO vector off one drill summary.

    ``availability`` counts every non-OK terminal against the service
    (shed, timeout, error -- rejected excluded: admission refusals are
    policy, not failure); ``unavailability`` is its complement so the
    vector gates cleanly against upper-bound thresholds."""
    offered = float(summary["offered"])  # type: ignore[arg-type]
    bad = sum(
        float(summary.get(key, 0) or 0)  # type: ignore[arg-type]
        for key in ("shed", "timeout", "error")
    )
    unavailability = bad / offered if offered else 0.0
    return {
        "serve_p99_ms": float(summary["serve_p99_ms"]),  # type: ignore[arg-type]
        "serve_shed_rate": float(summary["serve_shed_rate"]),  # type: ignore[arg-type]
        "failover_p99_s": float(summary.get("failover_p99_s", 0.0) or 0.0),  # type: ignore[arg-type]
        "availability": 1.0 - unavailability,
        "unavailability": unavailability,
    }


def record_fleet_timeline(
    seed: int = 0,
    profile: str = "serve",
    num_primaries: int = 600,
    num_tenants: Optional[int] = None,
    sample_every_s: float = 0.1,
    name: str = "recorded",
    obs: Optional[Observability] = None,
) -> FleetTimeline:
    """Run one drill and record its fleet timeline.

    The returned timeline carries everything the planner needs to replay
    the identical workload + fault storm under a different policy; two
    calls with equal arguments produce equal digests."""
    if obs is None:
        obs = NULL_OBS
    with obs.tracer.span(
        "twin.timeline.record", profile=profile, seed=seed,
        num_primaries=num_primaries,
    ):
        out = run_drill(
            profile, seed=seed, smoke=True,
            num_primaries=num_primaries, num_tenants=num_tenants,
        )
        report = out["report"]
        summary = out["summary"]
        horizon_s = float(summary["horizon_s"])  # type: ignore[arg-type]
        samples = samples_from_serve_report(report, horizon_s, sample_every_s)
        obs.metrics.counter("twin.timeline.samples").inc(len(samples))
    return FleetTimeline(
        name=name,
        profile=profile,
        seed=seed,
        num_primaries=num_primaries,
        num_tenants=report.config.num_tenants,
        rate_per_s=RATE_PER_S,
        horizon_s=horizon_s,
        sample_every_s=sample_every_s,
        samples=samples,
        baseline=baseline_slos(summary),
    )


__all__ = [
    "FleetTimeline",
    "PROFILES",
    "baseline_slos",
    "record_fleet_timeline",
    "samples_from_serve_report",
]
