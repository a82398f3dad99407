"""The what-if planner: predicted SLO deltas before the commit.

The pre-commit question an OCS fleet operator actually asks (Mission
Apollo, PAPERS.md) is "if I push this policy now, what happens to the
SLOs?".  :class:`WhatIfPlanner` answers it in the twin: take a recorded
:class:`~repro.twin.timeline.FleetTimeline`, rerun its drill profile
(:func:`repro.serve.drill.run_drill`: the *identical* workload and fault
storm) with the config a proposed :class:`TwinPolicy` derives, and
report predicted SLOs and their deltas against the recorded baseline.
Everything downstream is sim-clocked and seeded, so the same timeline +
the same policy yields a byte-identical :class:`PlanReport` --
:meth:`PlanReport.digest` is the acceptance pin.

:meth:`WhatIfPlanner.approve` is the gate the control plane consults
before ``DurableController.reconfigure`` / ``ReplicationGroup`` commits
a policy-shaped change: it returns the predicted report plus the list of
SLO thresholds the policy would violate.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from repro.core.errors import ConfigurationError
from repro.obs import NULL_OBS
from repro.serve.drill import run_drill
from repro.serve.service import ServeConfig
from repro.twin.timeline import FleetTimeline, baseline_slos

#: Predicted-SLO keys a planner report always carries.
PREDICTED_KEYS = (
    "serve_p99_ms",
    "serve_shed_rate",
    "failover_p99_s",
    "availability",
    "unavailability",
)


@dataclass(frozen=True)
class TwinPolicy:
    """A proposed control-plane change, expressed as serving knobs.

    Attributes:
        name: operator-facing label (lands in reports and artifacts).
        pinned_brownout: freeze the brownout ladder at this level
            (``None`` keeps it adaptive).
        global_rate_scale / tenant_rate_scale: admission-rate multipliers
            (a reconfiguration that adds/removes capacity).
        queue_capacity / retry_ratio: queueing/retry overrides.
        num_controller_replicas: propose replicated-controller mode.
        quarantine_fraction: capacity held out by a proposed quarantine;
            priced as a uniform admission-capacity reduction.
    """

    name: str = "proposed"
    pinned_brownout: Optional[int] = None
    global_rate_scale: float = 1.0
    tenant_rate_scale: float = 1.0
    queue_capacity: Optional[int] = None
    retry_ratio: Optional[float] = None
    num_controller_replicas: Optional[int] = None
    quarantine_fraction: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.quarantine_fraction < 1.0:
            raise ConfigurationError("quarantine_fraction must be in [0, 1)")
        if self.global_rate_scale <= 0 or self.tenant_rate_scale <= 0:
            raise ConfigurationError("rate scales must be positive")

    def apply(self, config: ServeConfig) -> ServeConfig:
        """The proposed :class:`ServeConfig`, derived not mutated."""
        capacity = 1.0 - self.quarantine_fraction
        overrides: Dict[str, object] = {
            "global_rate_per_s": config.global_rate_per_s
            * self.global_rate_scale * capacity,
            "global_burst": config.global_burst * self.global_rate_scale
            * capacity,
            "tenant_rate_per_s": config.tenant_rate_per_s
            * self.tenant_rate_scale * capacity,
            "tenant_burst": config.tenant_burst * self.tenant_rate_scale
            * capacity,
        }
        if self.pinned_brownout is not None:
            overrides["pinned_brownout"] = self.pinned_brownout
        if self.queue_capacity is not None:
            overrides["queue_capacity"] = self.queue_capacity
        if self.retry_ratio is not None:
            overrides["retry_ratio"] = self.retry_ratio
        if self.num_controller_replicas is not None:
            overrides["num_controller_replicas"] = self.num_controller_replicas
        return dataclasses.replace(config, **overrides)

    def canonical(self) -> str:
        """Sorted-JSON identity (digested into plan reports)."""
        return json.dumps(
            dataclasses.asdict(self), sort_keys=True, separators=(",", ":")
        )


@dataclass(frozen=True)
class PlanReport:
    """Predicted SLOs for one (timeline, policy) evaluation."""

    policy: TwinPolicy
    timeline_name: str
    timeline_digest: str
    baseline: Mapping[str, float]
    predicted: Mapping[str, float]

    @property
    def deltas(self) -> Dict[str, float]:
        """predicted - baseline, per SLO present in both."""
        return {
            key: self.predicted[key] - self.baseline[key]
            for key in PREDICTED_KEYS
            if key in self.predicted and key in self.baseline
        }

    def violations(
        self, thresholds: Mapping[str, float]
    ) -> List[Tuple[str, float, float]]:
        """(slo, predicted, max allowed) for every threshold the
        prediction exceeds.  Threshold keys may carry a ``twin_plan_``
        prefix (the ``slo_thresholds.json`` namespace)."""
        out: List[Tuple[str, float, float]] = []
        for key in sorted(thresholds):
            slo = key[len("twin_plan_"):] if key.startswith("twin_plan_") else key
            if slo not in self.predicted:
                continue
            limit = float(thresholds[key])
            value = float(self.predicted[slo])
            if value > limit:
                out.append((slo, value, limit))
        return out

    def to_record(self) -> Dict[str, object]:
        return {
            "type": "plan",
            "policy": json.loads(self.policy.canonical()),
            "timeline_name": self.timeline_name,
            "timeline_digest": self.timeline_digest,
            "baseline": dict(sorted(self.baseline.items())),
            "predicted": dict(sorted(self.predicted.items())),
            "deltas": dict(sorted(self.deltas.items())),
            "digest": self.digest(),
        }

    def digest(self) -> str:
        """SHA-256 over policy identity, timeline identity, and the full
        predicted-SLO vector -- byte-identical across replays."""
        payload = json.dumps(
            {
                "policy": self.policy.canonical(),
                "timeline": self.timeline_digest,
                "baseline": dict(sorted(self.baseline.items())),
                "predicted": dict(sorted(self.predicted.items())),
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class WhatIfPlanner:
    """Replays a recorded fleet timeline under proposed policies."""

    def __init__(self, timeline: FleetTimeline, obs: Optional[object] = None):
        self.timeline = timeline
        self.obs = obs if obs is not None else NULL_OBS
        self._timeline_digest = timeline.digest()

    def evaluate(self, policy: TwinPolicy) -> PlanReport:
        """Predicted SLOs for one policy, from a full twin replay."""
        timeline = self.timeline
        with self.obs.tracer.span(
            "twin.plan.replay", policy=policy.name,
            profile=timeline.profile, timeline=timeline.name,
        ):
            out = run_drill(
                timeline.profile, seed=timeline.seed,
                num_primaries=timeline.num_primaries,
                num_tenants=timeline.num_tenants, adjust=policy.apply,
            )
            self.obs.metrics.counter("twin.plan.replays").inc()
        return PlanReport(
            policy=policy,
            timeline_name=timeline.name,
            timeline_digest=self._timeline_digest,
            baseline=dict(timeline.baseline),
            predicted=baseline_slos(out["summary"]),
        )

    def approve(
        self, policy: TwinPolicy, thresholds: Mapping[str, float]
    ) -> Tuple[bool, List[Tuple[str, float, float]], PlanReport]:
        """The pre-commit gate: (ok, violations, report).

        ``ok`` is False when any predicted SLO exceeds its threshold --
        the control plane should hold the change and page a human
        instead of committing."""
        report = self.evaluate(policy)
        violations = report.violations(thresholds)
        self.obs.metrics.counter(
            "twin.plan.gated", verdict="ok" if not violations else "hold"
        ).inc()
        return (not violations, violations, report)


__all__ = [
    "PREDICTED_KEYS",
    "PlanReport",
    "TwinPolicy",
    "WhatIfPlanner",
]
