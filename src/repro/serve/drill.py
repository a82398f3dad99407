"""The overload-burst serving drill: 3x admission capacity plus a
controller-crash / RPC-timeout fault storm, end to end.

One call builds the workload (seeded, open-loop), the fault timeline,
and a :class:`~repro.serve.service.FabricService`, runs the stream, and
verifies the run's two hard invariants before returning:

- **partition**: shed + admitted + rejected exactly covers offered load
  (the service itself raises :class:`~repro.core.errors.ServeError` on
  a double or missing terminal outcome);
- **replay equivalence**: serially replaying the commit log against a
  fresh manager reproduces the live ``state_digest`` byte for byte.

Same seed => identical per-request outcomes (``outcomes_digest``),
identical commit log, identical digests.  The smoke profile is the CI
shape; the full profile is the one the NOC report quotes.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import replace
from typing import Dict, List, Optional

import numpy as np

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


def drill_config(
    seed: int = 0,
    num_tenants: Optional[int] = None,
    pinned_brownout: Optional[int] = None,
) -> ServeConfig:
    """The drill's :class:`ServeConfig` for a tenant population.

    The traffic-OCS count auto-scales (one OCS per 128 tenants, floor 4)
    so thousands-of-tenants profiles keep a physical per-switch radix;
    populations up to 512 produce exactly the pinned PR-6 config.
    """
    if num_tenants is None:
        return ServeConfig(seed=seed, pinned_brownout=pinned_brownout)
    return ServeConfig(
        seed=seed,
        pinned_brownout=pinned_brownout,
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


def run_serve_drill(
    seed: int = 0,
    smoke: bool = True,
    obs: Optional[Observability] = None,
    pinned_brownout: Optional[int] = None,
    num_primaries: Optional[int] = None,
    num_tenants: Optional[int] = None,
    streaming: bool = False,
) -> Dict[str, object]:
    """Run the overload drill; returns the JSON-ready result dict.

    ``pinned_brownout`` freezes the brownout ladder (perf comparisons);
    leave ``None`` for the adaptive drill.  ``num_primaries`` overrides
    the profile's stream length (the NOC drill runs a short one).
    ``num_tenants`` scales the tenant population toward the ROADMAP's
    thousands-of-tenants target; ``None`` keeps the pinned profile.
    ``streaming`` feeds the service a lazy request stream through a
    :class:`~repro.serve.sink.StreamingRecordSink`, so memory stays flat
    at any stream length -- the returned report then carries
    ``aggregates`` instead of per-request records, and the summary gains
    ``peak_pending`` (the reorder-window high-water mark).
    """
    if obs is None:
        obs = NULL_OBS
    if num_primaries is None:
        num_primaries = 1_500 if smoke else 100_000
    config = drill_config(
        seed=seed, num_tenants=num_tenants, pinned_brownout=pinned_brownout
    )
    workload = ServeWorkload(seed=seed, rate_per_s=1_200.0, num_tenants=config.num_tenants)
    with obs.tracer.span("serve.drill", smoke=smoke, seed=seed):
        if streaming:
            # Vectorized draws, chunked materialization: same requests as
            # ``generate`` (pinned in tests/serve/test_workload.py), with
            # neither the scalar-draw cost nor a full-stream allocation.
            cols = workload.columns(num_primaries)
            horizon_s = float(cols["t"][-1])
            requests = workload.iter_from_columns(cols)
            sink = StreamingRecordSink(seed=seed)
        else:
            requests = workload.generate(num_primaries)
            horizon_s = requests[-1].arrival_s
            sink = None
        injector = FaultInjector(seed=seed, obs=obs)
        build_fault_timeline(injector, horizon_s)
        service = FabricService(config, obs=obs, sink=sink)
        report = service.run(requests, faults=injector)

        replay_digest = replay_committed(config, report.commit_log)
        if replay_digest != report.state_digest:
            raise ServeError(
                "replay divergence: live state "
                f"{report.state_digest[:12]} != replayed {replay_digest[:12]}"
            )

    summary = report.summary()
    summary["replay_digest"] = replay_digest
    summary["offered_rate_per_s"] = round(report.offered / horizon_s, 3)
    summary["horizon_s"] = round(horizon_s, 6)
    summary["seed"] = seed
    summary["smoke"] = smoke
    if report.aggregates is not None:
        summary["peak_pending"] = report.aggregates.peak_pending
    return {
        "summary": summary,
        "report": report,
    }


# --------------------------------------------------------------------- #
# Sharded execution: tenant cells over SweepEngine(ship="shm")
# --------------------------------------------------------------------- #


def shard_cell_config(config: ServeConfig, num_cells: int) -> ServeConfig:
    """One cell's share of a drill config.

    Global admission rate/burst and queue capacity divide by the cell
    count (so ``num_cells`` cells jointly approximate one unsharded
    service's capacity); the fabric shape and per-tenant knobs stay
    whole, because every cell runs its own full fabric over a disjoint
    tenant subset.
    """
    if num_cells < 1:
        raise ConfigurationError("need at least one cell")
    if num_cells == 1:
        return config
    return replace(
        config,
        global_rate_per_s=config.global_rate_per_s / num_cells,
        global_burst=max(1.0, config.global_burst / num_cells),
        queue_capacity=max(4, config.queue_capacity // num_cells),
    )


def _run_drill_cell(task: Dict[str, object], seed_seq=None) -> Dict[str, object]:
    """SweepEngine worker: one tenant cell of the sharded drill.

    The task carries the shm-shipped workload columns; the worker
    selects the rows whose primary tenant hashes into its cell, rebuilds
    the requests (global seq numbers intact), runs the fast service path
    through a streaming sink, and proves its own commit log replays to
    the live state digest before returning the per-cell roll-up.
    """
    cell = int(task["cell"])
    num_cells = int(task["num_cells"])
    workload: ServeWorkload = task["workload"]
    config: ServeConfig = task["config"]
    cols: Dict[str, np.ndarray] = task["cols"]
    horizon_s = float(task["horizon_s"])

    sink_seed = cell
    if seed_seq is not None:
        # Positional seed splitting: the engine hands cell i the i-th
        # child of the root SeedSequence, so the cell's derived seeds
        # depend only on (root seed, cell index) -- never worker count.
        lo, hi = (int(x) for x in seed_seq.generate_state(2))
        config = replace(config, seed=lo % (2**31))
        sink_seed = hi % (2**31)

    order = cols["order"]
    tenant_of_entry = cols["tenant_idx"][order >> 1]
    rows = np.nonzero(tenant_of_entry % num_cells == cell)[0]
    requests = workload.requests_from_columns(cols, rows)

    injector = FaultInjector(seed=config.seed)
    build_fault_timeline(injector, horizon_s)
    sink = StreamingRecordSink(seed=sink_seed)
    service = FabricService(config, sink=sink)
    report = service.run(requests, faults=injector)

    replay_digest = replay_committed(config, report.commit_log)
    if replay_digest != report.state_digest:
        raise ServeError(
            f"cell {cell}: replay divergence: live state "
            f"{report.state_digest[:12]} != replayed {replay_digest[:12]}"
        )
    aggregates = report.aggregates
    assert aggregates is not None
    return {
        "cell": cell,
        "offered": report.offered,
        "outcomes": {
            outcome.value: count
            for outcome, count in sorted(
                aggregates.outcome_counts.items(), key=lambda kv: kv[0].value
            )
        },
        "admitted": report.admitted,
        "commits": len(report.commit_log),
        "outcomes_digest": aggregates.outcomes_digest,
        "state_digest": report.state_digest,
        "replay_digest": replay_digest,
        "peak_pending": aggregates.peak_pending,
        "p99_ms": report.latency_percentile_ms(0.99),
        "downstream_attempts": report.downstream_attempts,
        "deposits": report.deposits,
        "recoveries": report.recoveries,
    }


def merge_cell_results(cells: List[Dict[str, object]]) -> Dict[str, object]:
    """Deterministic merge of per-cell drill results.

    Counts sum; the sharded digest hashes every cell's outcome and state
    digest in cell order, so it is invariant under worker count and
    chunking (cells are a property of the drill profile, not of the
    execution) and changes iff any cell's behavior changes.
    """
    ordered = sorted(cells, key=lambda c: int(c["cell"]))  # type: ignore[arg-type]
    digest = hashlib.sha256()
    outcomes: Dict[str, int] = {}
    for result in ordered:
        digest.update(
            f"{result['cell']}:{result['outcomes_digest']}:"
            f"{result['state_digest']}\n".encode("utf-8")
        )
        for outcome, count in result["outcomes"].items():  # type: ignore[union-attr]
            outcomes[outcome] = outcomes.get(outcome, 0) + int(count)
    deposits = sum(int(c["deposits"]) for c in ordered)
    return {
        "num_cells": len(ordered),
        "offered": sum(int(c["offered"]) for c in ordered),
        "outcomes": outcomes,
        "admitted": sum(int(c["admitted"]) for c in ordered),
        "commits": sum(int(c["commits"]) for c in ordered),
        "serve_p99_ms": round(max(float(c["p99_ms"]) for c in ordered), 6),
        "serve_retry_amplification": round(
            sum(int(c["downstream_attempts"]) for c in ordered)
            / max(1, deposits),
            6,
        ),
        "peak_pending": max(int(c["peak_pending"]) for c in ordered),
        "sharded_digest": digest.hexdigest(),
        "cell_digests": [str(c["outcomes_digest"]) for c in ordered],
    }


def run_serve_drill_sharded(
    seed: int = 0,
    smoke: bool = True,
    obs: Optional[Observability] = None,
    num_primaries: Optional[int] = None,
    num_tenants: Optional[int] = None,
    num_cells: int = 8,
    engine=None,
) -> Dict[str, object]:
    """The overload drill partitioned into tenant cells over a pool.

    Tenants hash into ``num_cells`` fixed cells (``tenant_idx %
    num_cells``); each cell runs a full service over its
    requests with a cell-scaled config (see :func:`shard_cell_config`)
    on a :class:`~repro.parallel.SweepEngine` worker.  The workload is
    generated once as flat columns and shm-shipped, so a million-request
    stream crosses the process boundary as a handful of arrays, once.

    Determinism: cells are a property of the profile, not the execution
    -- per-cell seeds come from positional seed splitting over the fixed
    cell index, so the merged summary (and its ``sharded_digest``) is
    byte-identical for any worker count, chunking, or ship mode.
    """
    if obs is None:
        obs = NULL_OBS
    if num_primaries is None:
        num_primaries = 10_000 if smoke else 1_000_000
    if num_tenants is None:
        num_tenants = 2_048
    if num_cells < 1:
        raise ConfigurationError("need at least one cell")
    config = drill_config(seed=seed, num_tenants=num_tenants)
    cell_config = shard_cell_config(config, num_cells)
    workload = ServeWorkload(
        seed=seed, rate_per_s=1_200.0, num_tenants=num_tenants
    )
    if engine is None:
        from repro.parallel import SweepEngine

        engine = SweepEngine(ship="shm", obs=obs)
    with obs.tracer.span(
        "serve.drill_sharded", smoke=smoke, seed=seed, cells=num_cells
    ):
        cols = workload.columns(num_primaries)
        horizon_s = float(cols["t"][-1])
        tasks = [
            {
                "cell": cell,
                "num_cells": num_cells,
                "workload": workload,
                "config": cell_config,
                "cols": cols,
                "horizon_s": horizon_s,
            }
            for cell in range(num_cells)
        ]
        cells = engine.pmap(_run_drill_cell, tasks, seed=seed)
    summary = merge_cell_results(cells)
    summary["offered_rate_per_s"] = round(summary["offered"] / horizon_s, 3)
    summary["horizon_s"] = round(horizon_s, 6)
    summary["num_tenants"] = num_tenants
    summary["seed"] = seed
    summary["smoke"] = smoke
    return {
        "summary": summary,
        "cells": cells,
    }


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


def run_failover_drill(
    seed: int = 0,
    smoke: bool = True,
    obs: Optional[Observability] = None,
    num_primaries: Optional[int] = None,
    num_tenants: Optional[int] = None,
    num_replicas: int = 3,
) -> Dict[str, object]:
    """The partition-storm failover drill over a replicated controller.

    Same workload shape as the overload drill, but the fault timeline is
    a rolling crash/partition/skew storm against a ``num_replicas``
    controller group, and the acceptance bar is the HA story: the
    serving layer keeps admitting through leader handoffs, no
    client-acknowledged commit is ever lost, and the surviving leader's
    state equals a serial replay byte-for-byte.
    """
    if obs is None:
        obs = NULL_OBS
    if num_primaries is None:
        num_primaries = 1_500 if smoke else 100_000
    config = ServeConfig(
        seed=seed,
        num_controller_replicas=num_replicas,
        replica_lease_s=0.15,
        **({} if num_tenants is None else {"num_tenants": num_tenants}),
    )
    workload = ServeWorkload(
        seed=seed, rate_per_s=1_200.0, num_tenants=config.num_tenants
    )
    with obs.tracer.span("serve.failover_drill", smoke=smoke, seed=seed):
        requests = workload.generate(num_primaries)
        horizon_s = requests[-1].arrival_s
        injector = FaultInjector(seed=seed, obs=obs)
        build_failover_timeline(injector, horizon_s, num_replicas)
        service = FabricService(config, obs=obs)
        report = service.run(requests, faults=injector)

        replay_digest = replay_committed(config, report.commit_log)
        if replay_digest != report.state_digest:
            raise ServeError(
                "replay divergence: live state "
                f"{report.state_digest[:12]} != replayed {replay_digest[:12]}"
            )
        group = service.replication
        assert group is not None
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
    summary["num_replicas"] = num_replicas
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
    "build_fault_timeline",
    "build_failover_timeline",
    "drill_config",
    "merge_cell_results",
    "run_serve_drill",
    "run_serve_drill_sharded",
    "run_failover_drill",
    "report_jsonl_lines",
    "shard_cell_config",
    "drill_slos",
    "failover_slos",
    "Outcome",
]
