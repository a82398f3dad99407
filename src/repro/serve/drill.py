"""The serving drills: one runner, two profiles, end to end.

A drill profile is the config, the workload rate and the fault storm;
this module is the only place that writes them down.  ``serve`` offers
~3x admission capacity under a controller-crash / RPC-timeout storm
against one controller; ``failover`` offers the same workload to a
3-replica controller group under a rolling crash / partition /
clock-skew storm.  :func:`run_drill` builds the seeded open-loop
workload, the storm and a :class:`~repro.serve.service.FabricService`,
runs the stream, and verifies the run's hard invariants before
returning:

- **partition**: shed + admitted + rejected exactly covers offered load
  (the service itself raises :class:`~repro.core.errors.ServeError` on
  a double or missing terminal outcome);
- **replay equivalence**: serially replaying the commit log against a
  fresh manager reproduces the live ``state_digest`` byte for byte;
- on a replicated config, the replica log replays to the leader's state
  and no client-acknowledged commit is lost.

Same seed => identical per-request outcomes (``outcomes_digest``),
identical commit log, identical digests.  ``smoke`` picks the CI stream
length; the full length is the one the NOC report quotes.
:func:`run_serve_drill` and :func:`run_failover_drill` name the two
profiles; the twin records and replays through :func:`run_drill`.
"""

from __future__ import annotations

import math
from dataclasses import replace
from functools import partial
from typing import Callable, Dict, List, Optional

from repro.core.errors import ConfigurationError, ServeError
from repro.faults.events import (
    FaultKind,
    controller_target,
    network_target,
    partition_groups_param,
)
from repro.faults.injector import FaultInjector
from repro.obs import NULL_OBS, Observability
from repro.serve.requests import Outcome
from repro.serve.service import FabricService, ServeConfig, replay_committed
from repro.serve.sink import StreamingRecordSink
from repro.serve.workload import ServeWorkload


#: Mean primary arrival rate of every drill profile: about 3x what the
#: default admission buckets let through.
RATE_PER_S = 1_200.0

#: The drill profiles: the overload storm against one controller, and
#: the partition storm against a replicated controller group.  The
#: twin records timelines from these and replays them.
PROFILES = ("serve", "failover")


def drill_config(seed: int = 0, num_tenants: Optional[int] = None) -> ServeConfig:
    """The drill's :class:`ServeConfig` for a tenant population.

    The traffic-OCS count auto-scales (one OCS per 128 tenants, floor 4)
    so thousands-of-tenants profiles keep a physical per-switch radix;
    populations up to 512 produce exactly the pinned PR-6 config.  The
    failover profile adds its replica group on top of this config.
    """
    if num_tenants is None:
        return ServeConfig(seed=seed)
    return ServeConfig(
        seed=seed,
        num_tenants=num_tenants,
        num_traffic_ocses=max(4, math.ceil(num_tenants / 128)),
    )


def build_fault_timeline(
    injector: FaultInjector, horizon_s: float
) -> None:
    """Deterministic controller-crash + RPC-timeout storm.

    A crash outage and two timeout bursts recur every ~2 simulated
    seconds, scaled to the drill horizon, so every profile crosses
    breaker trips, brownout entry, recovery, and the calm after.
    """
    period_s = 2.0
    cycle = 0
    t = 0.35
    while t + 0.6 < horizon_s:
        injector.schedule(
            t,
            FaultKind.RPC_TIMEOUT,
            controller_target(),
            severity=6.0,
            clear_after_s=0.25,
        )
        # The crash clears while arrivals are still flowing (smoke's
        # horizon is ~1.25 s), so every profile -- including one whose
        # brownout coalescing drains the backlog quickly -- observes the
        # recovery and the calm after it.
        injector.schedule(
            t + 0.6,
            FaultKind.CONTROLLER_CRASH,
            controller_target(),
            clear_after_s=0.25,
        )
        if cycle % 2 == 1:
            injector.schedule(
                t + 1.3,
                FaultKind.RPC_TIMEOUT,
                controller_target(),
                severity=10.0,
                clear_after_s=0.2,
            )
        t += period_s
        cycle += 1


def build_failover_timeline(
    injector: FaultInjector, horizon_s: float, num_replicas: int = 3
) -> None:
    """A rolling partition storm over the replica group.

    Each ~1.2 s cycle kills the replica most recently likely to lead,
    splits the network so a different replica is marooned with a
    minority, and skews a third replica's clock -- the triple the
    fencing/lease machinery exists to survive.  All deterministic.
    """
    period_s = 1.2
    cycle = 0
    t = 0.2
    while t + 0.5 < horizon_s:
        victim = cycle % num_replicas
        marooned = (cycle + 1) % num_replicas
        skewed = (cycle + 2) % num_replicas
        injector.schedule(
            t,
            FaultKind.CONTROLLER_CRASH,
            controller_target(victim),
            clear_after_s=0.5,
        )
        rest = [i for i in range(num_replicas) if i != marooned]
        injector.schedule(
            t + 0.3,
            FaultKind.NETWORK_PARTITION,
            network_target(),
            params=[partition_groups_param([[marooned], rest])],
            clear_after_s=0.4,
        )
        injector.schedule(
            t + 0.5,
            FaultKind.CLOCK_SKEW,
            controller_target(skewed),
            severity=2.0 if cycle % 2 == 0 else -2.0,
            clear_after_s=0.6,
        )
        if cycle % 2 == 1:
            injector.schedule(
                t + 0.7,
                FaultKind.RPC_TIMEOUT,
                controller_target(),
                severity=4.0,
                clear_after_s=0.2,
            )
        t += period_s
        cycle += 1


def run_drill(
    profile: str,
    seed: int = 0,
    smoke: bool = True,
    obs: Optional[Observability] = None,
    num_primaries: Optional[int] = None,
    num_tenants: Optional[int] = None,
    streaming: bool = False,
    num_replicas: int = 3,
    adjust: Optional[Callable[[ServeConfig], ServeConfig]] = None,
) -> Dict[str, object]:
    """Run one drill profile; returns ``{"summary", "report"}``.

    Builds the profile's config (:func:`drill_config`, plus a
    ``num_replicas`` group with a 0.15 s lease for ``failover``), the
    seeded workload at :data:`RATE_PER_S`, and the profile's fault
    storm; ``adjust`` then derives the config the service runs (the
    twin's policy), leaving workload and storm as recorded.  Requests
    come lazily from the workload's columns; ``streaming`` only swaps
    the full-record report for a
    :class:`~repro.serve.sink.StreamingRecordSink` roll-up.  The commit
    log must replay to the live state, and a replicated config must also
    pass the replica-log replay and lose no client-acked commit, or the
    drill raises :class:`~repro.core.errors.ServeError`.
    """
    if profile not in PROFILES:
        raise ConfigurationError(f"unknown profile {profile!r}; have {PROFILES}")
    if obs is None:
        obs = NULL_OBS
    if num_primaries is None:
        num_primaries = 1_500 if smoke else 100_000
    config = drill_config(seed=seed, num_tenants=num_tenants)
    if profile == "serve":
        span, storm = "serve.drill", build_fault_timeline
    else:
        span = "serve.failover_drill"
        storm = partial(build_failover_timeline, num_replicas=num_replicas)
        config = replace(
            config, num_controller_replicas=num_replicas, replica_lease_s=0.15
        )
    workload = ServeWorkload(
        seed=seed, rate_per_s=RATE_PER_S, num_tenants=config.num_tenants
    )
    with obs.tracer.span(span, smoke=smoke, seed=seed):
        cols = workload.columns(num_primaries)
        horizon_s = float(cols["t"][-1])
        injector = FaultInjector(seed=seed, obs=obs)
        storm(injector, horizon_s)
        if adjust is not None:
            config = adjust(config)
        sink = StreamingRecordSink() if streaming else None
        service = FabricService(config, obs=obs, sink=sink)
        report = service.run(workload.iter_from_columns(cols), faults=injector)

        replay_digest = replay_committed(config, report.commit_log)
        if replay_digest != report.state_digest:
            raise ServeError(
                "replay divergence: live state "
                f"{report.state_digest[:12]} != replayed {replay_digest[:12]}"
            )
        group = service.replication
        if group is not None:
            if group.state_digest() != group.replay_digest():
                raise ServeError("replica log replay diverged from leader state")
            if report.committed_ops_lost:
                raise ServeError(
                    f"{report.committed_ops_lost} client-acked commits lost"
                )

    summary = report.summary()
    summary["replay_digest"] = replay_digest
    summary["offered_rate_per_s"] = round(report.offered / horizon_s, 3)
    summary["horizon_s"] = round(horizon_s, 6)
    summary["seed"] = seed
    summary["smoke"] = smoke
    if report.aggregates is not None:
        summary["peak_pending"] = report.aggregates.peak_pending
    if group is not None:
        summary["num_replicas"] = config.num_controller_replicas
        unavailability = report.failover_unavailable_s / horizon_s
        summary["failover_unavailability"] = round(unavailability, 6)
        summary["availability"] = round(1.0 - unavailability, 6)
        # Publish the NOC-facing gauges on the shared registry.
        obs.metrics.gauge("serve.failover.committed_ops_lost").set(
            float(report.committed_ops_lost)
        )
        obs.metrics.gauge("serve.failover.unavailability").set(unavailability)
        obs.metrics.gauge("serve.failover.p99_s").set(
            report.failover_percentile_s(0.99)
        )
    return {
        "summary": summary,
        "report": report,
    }


def run_serve_drill(
    seed: int = 0,
    smoke: bool = True,
    obs: Optional[Observability] = None,
    num_primaries: Optional[int] = None,
    num_tenants: Optional[int] = None,
    streaming: bool = False,
) -> Dict[str, object]:
    """The overload drill (:func:`run_drill`'s ``serve`` profile).

    ``num_primaries`` overrides the profile's stream length (the NOC
    drill runs a short one); ``num_tenants`` scales the tenant
    population toward thousands of tenants (``None`` keeps the pinned
    profile).  ``streaming`` keeps memory flat at any stream length: the
    report then carries ``aggregates`` instead of per-request records,
    and the summary gains ``peak_pending`` (the reorder-window
    high-water mark).
    """
    return run_drill(
        "serve", seed=seed, smoke=smoke, obs=obs, num_primaries=num_primaries,
        num_tenants=num_tenants, streaming=streaming,
    )


def run_failover_drill(
    seed: int = 0,
    smoke: bool = True,
    obs: Optional[Observability] = None,
    num_primaries: Optional[int] = None,
    num_tenants: Optional[int] = None,
    num_replicas: int = 3,
) -> Dict[str, object]:
    """The partition-storm failover drill over a replicated controller
    (:func:`run_drill`'s ``failover`` profile).

    Same workload shape as the overload drill, but the fault timeline is
    a rolling crash/partition/skew storm against a ``num_replicas``
    controller group, and the acceptance bar is the HA story: the
    serving layer keeps admitting through leader handoffs, no
    client-acknowledged commit is ever lost, and the surviving leader's
    state equals a serial replay byte-for-byte.
    """
    return run_drill(
        "failover", seed=seed, smoke=smoke, obs=obs,
        num_primaries=num_primaries, num_tenants=num_tenants,
        num_replicas=num_replicas,
    )


def report_jsonl_lines(report) -> List[str]:
    """Per-request JSONL lines (the CI artifact), in the report's record
    order, read straight off its :class:`~repro.serve.sink.RecordLog`."""
    import json

    return [
        json.dumps(
            {
                "seq": seq,
                "id": request_id,
                "tenant": tenant,
                "kind": kind.value,
                "arrival_s": round(arrival_s, 9),
                "deadline_s": round(deadline_s, 9),
                "outcome": outcome.value,
                "finish_s": round(finish_s, 9),
                "latency_ms": round((finish_s - arrival_s) * 1e3, 6),
                "attempts": attempts,
                "detail": detail,
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        for (request_id, tenant, kind, arrival_s, deadline_s, _, seq,
             outcome, finish_s, attempts, detail) in report.records.rows()
    ]


def drill_slos(summary: Dict[str, object]) -> Dict[str, float]:
    """The serve SLOs in the shape the NOC / CI gate consumes."""
    return {
        "serve_p99_ms": float(summary["serve_p99_ms"]),
        "serve_shed_rate": float(summary["serve_shed_rate"]),
        "serve_retry_amplification": float(summary["serve_retry_amplification"]),
    }


def failover_slos(summary: Dict[str, object]) -> Dict[str, float]:
    """The failover-drill SLOs (``check_slos`` bounds are upper bounds,
    so availability is gated as unavailability)."""
    return {
        "failover_p99_s": float(summary["failover_p99_s"]),
        "committed_ops_lost": float(summary["committed_ops_lost"]),
        "failover_unavailability": float(summary["failover_unavailability"]),
    }


__all__ = [
    "PROFILES",
    "RATE_PER_S",
    "build_fault_timeline",
    "build_failover_timeline",
    "drill_config",
    "run_drill",
    "run_serve_drill",
    "run_failover_drill",
    "report_jsonl_lines",
    "drill_slos",
    "failover_slos",
    "Outcome",
]
