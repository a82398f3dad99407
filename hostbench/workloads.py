"""The four workloads, each isolating one layer of the program.

Every workload follows the same protocol, driven by ``run.py``:

- ``setup(seed, work_dir, rec)`` builds the inputs from the seed (this
  is what ``setup_s`` times);
- ``warm(state)`` makes one small untimed call through the same code;
- ``prepare(state)`` / ``release(ctx)`` bracket one batch with untimed
  per-batch preparation (only ``sweep_figs`` needs any);
- ``run(state, ctx, rec)`` is the timed batch; it returns a
  :class:`Batch` whose ``units`` count the work actually driven;
- ``check(state, batch, rec)`` verifies the batch outside the timed
  region and returns a :class:`Checked` (result digest, problems,
  failed units, the simulated-statistics fingerprint, and the program's
  own counters for the traced report).

``rec`` is the span recorder (``tracing.NULL_RECORDER`` when tracing is
off); workloads open spans only around calls they make themselves.
"""

from __future__ import annotations

import hashlib
import re
import shutil
import traceback
from collections import Counter as Tally
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.availability.montecarlo import availability_grid
from repro.core.errors import ServeError
from repro.dcn.flowsim import FlowSimulator, fct_stats, generate_flows
from repro.dcn.spinefree import AggregationBlock, SpineFreeFabric
from repro.dcn.topology_engineering import engineer_trunks
from repro.dcn.traffic import gravity_matrix
from repro.dcn.traffic_engineering import route_demand
from repro.faults.injector import FaultInjector
from repro.obs import Observability
from repro.obs.metrics import exponential_bounds
from repro.optics.mc_sweep import monte_carlo_ber_grid
from repro.optics.pam4 import Pam4LinkModel
from repro.parallel import ResultCache, SweepEngine
from repro.serve import (
    FabricService,
    ServeConfig,
    ServeWorkload,
    StreamingRecordSink,
    replay_committed,
)
from repro.serve.drill import build_failover_timeline, build_fault_timeline, drill_config
from repro.serve.requests import Outcome
from tracing import NULL_RECORDER


def _digest(*parts: object) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
        h.update(b"\0")
    return h.hexdigest()


@dataclass
class Batch:
    """One timed batch: ``units`` driven, ``attempted`` offered."""

    units: int
    attempted: int
    data: object


@dataclass
class Checked:
    digest: str
    problems: List[str] = field(default_factory=list)
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    fingerprint: Dict[str, object] = field(default_factory=dict)
    counts: Dict[str, float] = field(default_factory=dict)


class _Workload:
    """Protocol defaults: no per-batch preparation."""

    def prepare(self, state) -> None:
        return None

    def release(self, ctx) -> None:
        pass


def _serve_counts(reports) -> Dict[str, float]:
    """Per-layer counters from completed :class:`ServeReport` s."""
    offered = sum(r.offered for r in reports)
    hits = sum(r.telemetry_cache_hits for r in reports)
    lookups = hits + sum(r.telemetry_cache_misses for r in reports)
    deposits = sum(r.deposits for r in reports)
    return {
        "serve.admission.refused_share": sum(r.count(Outcome.REJECTED) for r in reports)
        / max(1, offered),
        "serve.queueing.shed_share": sum(r.count(Outcome.SHED) for r in reports)
        / max(1, offered),
        "serve.breaker.trips": sum(r.breaker_trips for r in reports),
        "serve.retry.amplification": sum(r.downstream_attempts for r in reports)
        / max(1, deposits),
        "serve.brownout.transitions": sum(len(r.brownout_transitions) for r in reports),
        "serve.service.telemetry_hit_share": hits / max(1, lookups),
        "serve.workload.rows": offered,
        "serve.replay.commits": sum(len(r.commit_log) for r in reports),
        "control.replication.elections": sum(r.elections for r in reports),
        "control.replication.fencing_rejections": sum(
            r.fencing_rejections for r in reports
        ),
        "control.replication.failovers": sum(r.failovers for r in reports),
    }


# --------------------------------------------------------------------- #
# serve_storm: the overload drill on the solo fast commit plane
# --------------------------------------------------------------------- #


@dataclass
class _StormState:
    seed: int
    config: ServeConfig
    workload: ServeWorkload
    cols: Dict[str, np.ndarray]


class ServeStorm(_Workload):
    """3x admission capacity plus the controller-crash/RPC-timeout storm
    over 2,048 tenants, streaming sink, live metrics registry."""

    name = "serve_storm"
    primaries = 25_000
    tenants = 2_048
    warm_primaries = 3_000

    def setup(self, seed: int, work_dir: Path, rec) -> _StormState:
        config = drill_config(seed=seed, num_tenants=self.tenants)
        workload = ServeWorkload(seed=seed, rate_per_s=1_200.0, num_tenants=self.tenants)
        cols = workload.columns(self.primaries)
        return _StormState(seed, config, workload, cols)

    def _drill(self, st: _StormState, cols: Dict[str, np.ndarray]):
        obs = Observability()
        injector = FaultInjector(seed=st.seed, obs=obs)
        build_fault_timeline(injector, float(cols["t"][-1]))
        service = FabricService(
            st.config, obs=obs, sink=StreamingRecordSink(seed=st.seed)
        )
        return service.run(st.workload.iter_from_columns(cols), faults=injector), injector

    def warm(self, st: _StormState) -> None:
        self._drill(st, st.workload.columns(self.warm_primaries))

    def run(self, st: _StormState, ctx: None, rec) -> Batch:
        report, injector = self._drill(st, st.cols)
        return Batch(report.offered, len(st.cols["t"]), (report, injector))

    def check(self, st: _StormState, batch: Batch, rec) -> Checked:
        report, injector = batch.data
        problems = []
        outcomes = report.aggregates.outcome_counts
        if not sum(outcomes.values()) == report.offered == len(st.cols["t"]):
            problems.append(
                f"partition: {sum(outcomes.values())} outcomes, "
                f"{report.offered} offered, {len(st.cols['t'])} fed"
            )
        with rec.span("serve.replay"):
            replayed = replay_committed(st.config, report.commit_log)
        if replayed != report.state_digest:
            problems.append(f"replay {replayed[:12]} != live {report.state_digest[:12]}")
        if report.committed_ops_lost:
            problems.append(f"{report.committed_ops_lost} committed ops lost")
        counts = _serve_counts([report])
        counts["faults.injector.events"] = len(injector.delivered())
        counts["serve.sink.peak_pending"] = report.aggregates.peak_pending
        return Checked(
            digest=_digest(
                report.outcomes_digest(),
                report.state_digest,
                len(report.commit_log),
                report.faults_digest,
            ),
            problems=problems,
            fingerprint={
                "offered": report.offered,
                "ok": report.count(Outcome.OK),
                "rejected": report.count(Outcome.REJECTED),
                "shed": report.count(Outcome.SHED),
                "sim_p99_ms": report.latency_percentile_ms(0.99),
                "retry_amplification": round(report.retry_amplification, 6),
            },
            counts=counts,
        )


# --------------------------------------------------------------------- #
# serve_failover: the same front end over a 3-replica journaled plane
# --------------------------------------------------------------------- #


@dataclass
class _Drill:
    seed: int
    config: ServeConfig
    workload: ServeWorkload
    cols: Dict[str, np.ndarray]

    @property
    def size(self) -> int:
        return len(self.cols["t"])


class _Fed:
    """Counts the requests the service pulls, so a drill that raises
    part-way still reports the work it drove."""

    def __init__(self, requests) -> None:
        self._it = iter(requests)
        self.count = 0

    def __iter__(self) -> "_Fed":
        return self

    def __next__(self):
        request = next(self._it)
        self.count += 1
        return request


def drill_seeds(seed: int, count: int) -> List[int]:
    """Positional drill seeds: child ``i`` of the workload seed."""
    return [
        int(child.generate_state(1)[0]) % (2**31)
        for child in np.random.SeedSequence(seed).spawn(count)
    ]


#: The failure signatures of the known failover defect (reproductions in
#: NOTES.md).  A drill that fails with one of them counts all of its
#: requests as failed units; any other failure makes the run incorrect.
KNOWN_DEFECT = tuple(
    re.compile(pattern)
    for pattern in (
        r"TopologyError: unknown link sl-rq-\d+ \(at fabric_manager\.py:\d+ in teardown\)",
        r"ConfigurationError: link sl-rq-\d+ already exists "
        r"\(at fabric_manager\.py:\d+ in establish\)",
        r"ServeError: replay diverged: rq-\d+ committed port \d+ but replay would choose \d+",
        r"replay [0-9a-f]{12} != live [0-9a-f]{12}",
    )
)


def known_defect(error: str) -> bool:
    return any(pattern.fullmatch(error) for pattern in KNOWN_DEFECT)


class ServeFailover(_Workload):
    """Independent partition-storm failover drills, ``run_failover_drill``
    shape: 3 replicas, lease 0.15 s, rolling crash/partition/skew, no
    metrics registry.  A drill that fails with a :data:`KNOWN_DEFECT`
    signature counts all of its requests as failed; the batch carries
    on.  Any other failure is a problem that makes the run incorrect."""

    name = "serve_failover"
    #: Drills per batch and their size: one batch of 40 x 5,000-primary
    #: drills fills a 24 s run on a 2-vCPU 2.1 GHz Xeon VM, and 40 drills average
    #: out the ~20% drill-to-drill spread in per-request cost.
    drills = 40
    primaries = 5_000
    replicas = 3
    warm_primaries = 1_000

    def setup(self, seed: int, work_dir: Path, rec) -> List[_Drill]:
        out = []
        for drill_seed in drill_seeds(seed, self.drills):
            config = ServeConfig(
                seed=drill_seed,
                num_controller_replicas=self.replicas,
                replica_lease_s=0.15,
            )
            workload = ServeWorkload(
                seed=drill_seed, rate_per_s=1_200.0, num_tenants=config.num_tenants
            )
            out.append(_Drill(drill_seed, config, workload, workload.columns(self.primaries)))
        return out

    def _drill(self, drill: _Drill, cols) -> Tuple[FabricService, _Fed, object, str]:
        """One drill; requests materialize lazily from the columns (the
        same requests as ``generate``, pinned in tests/serve)."""
        service = FabricService(drill.config)
        injector = FaultInjector(seed=drill.seed)
        build_failover_timeline(injector, float(cols["t"][-1]), self.replicas)
        fed = _Fed(drill.workload.iter_from_columns(cols))
        try:
            return service, fed, service.run(fed, faults=injector), ""
        except Exception as exc:  # classified in check()
            where = traceback.extract_tb(exc.__traceback__)[-1]
            return service, fed, None, (
                f"{type(exc).__name__}: {exc} "
                f"(at {Path(where.filename).name}:{where.lineno} in {where.name})"
            )

    def warm(self, drills: List[_Drill]) -> None:
        self._drill(drills[0], drills[0].workload.columns(self.warm_primaries))

    def run(self, drills: List[_Drill], ctx: None, rec) -> Batch:
        results = [self._drill(d, d.cols) for d in drills]
        return Batch(
            sum(fed.count for _, fed, _, _ in results),
            sum(d.size for d in drills),
            results,
        )

    def check(self, drills: List[_Drill], batch: Batch, rec) -> Checked:
        out = Checked(digest="")
        parts: List[object] = []
        passed = []
        availability = []
        for drill, (service, _, report, error) in zip(drills, batch.data):
            if not error:
                error = self._verify(drill, service, report, rec)
            if error:
                out.failed += drill.size
                out.failures.append(f"drill seed {drill.seed}: {error}")
                if not known_defect(error):
                    out.problems.append(f"drill seed {drill.seed}: not the known defect")
                parts.append((drill.seed, error))
            else:
                passed.append(report)
                parts.append((drill.seed, report.outcomes_digest(), report.state_digest))
                horizon_s = float(drill.cols["t"][-1])
                availability.append(1.0 - report.failover_unavailable_s / horizon_s)
        out.digest = _digest(*parts)
        out.counts = _serve_counts(passed)
        out.counts["serve.workload.rows"] = batch.units
        out.fingerprint = {
            "drills": len(drills),
            "drills_failed": len(out.failures),
            "availability_mean": sum(availability) / max(1, len(availability)),
            "sim_p99_ms_max": max((r.latency_percentile_ms(0.99) for r in passed), default=0.0),
        }
        return out

    @staticmethod
    def _verify(drill: _Drill, service: FabricService, report, rec) -> str:
        if len(report.records) != report.offered or report.offered != drill.size:
            return (
                f"partition: {len(report.records)} outcomes, {report.offered} "
                f"offered, {drill.size} fed"
            )
        try:
            with rec.span("serve.replay"):
                replayed = replay_committed(drill.config, report.commit_log)
        except ServeError as exc:  # the replay refuses a diverged port
            return f"ServeError: {exc}"
        if replayed != report.state_digest:
            return f"replay {replayed[:12]} != live {report.state_digest[:12]}"
        group = service.replication
        if group.state_digest() != group.replay_digest():
            return "replica log replay diverged from leader state"
        if report.committed_ops_lost:
            return f"{report.committed_ops_lost} client-acked commits lost"
        return ""


# --------------------------------------------------------------------- #
# fct_mesh: the §4.2 uniform-mesh vs engineered-trunk FCT comparison
# --------------------------------------------------------------------- #

#: Integer buckets, so the frontier-size quantiles are exact.
_FRONTIER_BOUNDS = tuple(float(i) for i in range(1, 4097))


@dataclass
class _MeshState:
    fabrics: List[Tuple[str, SpineFreeFabric, object]]
    flows: list
    #: per fabric, {(src, dst): best bottleneck capacity over routed paths}
    bottleneck: List[Dict[Tuple[int, int], float]]


def _best_bottleneck(routing, src: int, dst: int) -> float:
    cap = routing.link_capacity_gbps
    options = routing.path_for(src, dst) or [((src, dst), 1.0)]
    return max(
        min(float(cap[a, b]) for a, b in zip(path, path[1:])) for path, _ in options
    )


class FctMesh(_Workload):
    """16 ABs x 16 uplinks, the gravity matrix of the paper's §4.2 example
    (90 Tb/s, seed 3), WCMP routing; the seed draws the flow set, which
    runs on the uniform mesh and on ``engineer_trunks`` trunks."""

    name = "fct_mesh"
    blocks = 16
    uplinks = 16
    total_gbps = 90_000.0
    matrix_seed = 3
    flows = 2_000
    mean_size_gbit = 2_000.0
    duration_s = 0.25
    sim_seed = 7
    warm_flows = 200

    def setup(self, seed: int, work_dir: Path, rec) -> _MeshState:
        blocks = [AggregationBlock(i, uplinks=self.uplinks) for i in range(self.blocks)]
        tm = gravity_matrix(self.blocks, self.total_gbps, seed=self.matrix_seed)
        with rec.span("dcn.topology_engineering"):
            trunks = engineer_trunks(blocks, tm)
        fabrics = []
        for label, fabric in (
            ("uniform", SpineFreeFabric.uniform(blocks)),
            ("engineered", SpineFreeFabric(blocks, trunks)),
        ):
            with rec.span("dcn.traffic_engineering"):
                routing = route_demand(fabric, tm)
            fabrics.append((label, fabric, routing))
        with rec.span("dcn.flowsim.generate"):
            flows = generate_flows(
                tm.demand_gbps,
                self.flows,
                mean_size_gbit=self.mean_size_gbit,
                duration_s=self.duration_s,
                seed=seed,
            )
        pairs = {(f.src, f.dst) for f in flows}
        bottleneck = [
            {pair: _best_bottleneck(routing, *pair) for pair in pairs}
            for _, _, routing in fabrics
        ]
        return _MeshState(fabrics, flows, bottleneck)

    def simulate(self, st: _MeshState, flows, rec, obs=None) -> List[list]:
        out = []
        for _, fabric, routing in st.fabrics:
            sim = FlowSimulator(
                fabric, routing, path_policy="wcmp", seed=self.sim_seed, obs=obs
            )
            with rec.span("dcn.flowsim"):
                out.append(sim.run(flows))
        return out

    def warm(self, st: _MeshState) -> None:
        self.simulate(st, st.flows[: self.warm_flows], rec=NULL_RECORDER)

    def run(self, st: _MeshState, ctx: None, rec) -> Batch:
        obs = None
        if rec.enabled:
            obs = Observability()
            obs.metrics.histogram("flowsim.frontier.flows", bounds=_FRONTIER_BOUNDS)
        records = self.simulate(st, st.flows, rec, obs)
        units = sum(len(r) for r in records)
        return Batch(units, len(st.fabrics) * len(st.flows), (records, obs))

    def check(self, st: _MeshState, batch: Batch, rec) -> Checked:
        records, obs = batch.data
        problems = []
        expected = {f.flow_id for f in st.flows}
        stats = {}
        for (label, _, _), recs, bottleneck in zip(st.fabrics, records, st.bottleneck):
            seen = Tally(r.flow.flow_id for r in recs)
            if set(seen) != expected or max(seen.values()) != 1:
                problems.append(f"{label}: flows not completed exactly once")
            too_fast = [
                r.flow.flow_id
                for r in recs
                if r.fct_s * bottleneck[(r.flow.src, r.flow.dst)]
                < r.flow.size_gbit * (1.0 - 1e-9)
            ]
            if too_fast:
                problems.append(
                    f"{label}: {len(too_fast)} flows beat their bottleneck, "
                    f"first {too_fast[0]}"
                )
            stats[label] = fct_stats(recs)
        counts: Dict[str, float] = {}
        if obs is not None:
            m = obs.metrics
            events = m.value("flowsim.events")
            fallbacks = m.value("flowsim.full_solve_fallbacks")
            pushes = m.value("flowsim.calendar.pushes")
            frontier = m.histogram("flowsim.frontier.flows")
            counts = {
                "dcn.flowsim.events": events,
                "dcn.flowsim.fallbacks": fallbacks,
                "dcn.flowsim.fallback_share": fallbacks / max(1.0, events),
                "dcn.flowsim.calendar_pushes": pushes,
                "dcn.flowsim.stale_share": m.value("flowsim.calendar.stale_pops")
                / max(1.0, pushes),
                "dcn.flowsim.frontier_flows_p50": frontier.quantile(0.5),
                "dcn.flowsim.frontier_flows_p99": frontier.quantile(0.99),
            }
        return Checked(
            digest=_digest(*[[(r.flow.flow_id, r.finish_s) for r in recs] for recs in records]),
            problems=problems,
            fingerprint={
                **{
                    f"{label}_{k}": v
                    for label, s in stats.items()
                    for k, v in s.items()
                },
                "engineered_mean_fct_gain": stats["uniform"]["mean_s"]
                / stats["engineered"]["mean_s"],
            },
            counts=counts,
        )


# --------------------------------------------------------------------- #
# sweep_figs: Fig 11-style MC BER grid + Fig 15b availability grid
# --------------------------------------------------------------------- #

#: 1.05-ratio buckets from 0.1 ms: chunk-time quantiles within 5%.
_CHUNK_MS_BOUNDS = exponential_bounds(start=0.1, factor=1.05, count=300)


@dataclass
class _SweepState:
    seed: int
    template: Path
    work_dir: Path
    batches: int = 0


class SweepFigs(_Workload):
    """Both grids through ``SweepEngine(workers=2, chunk_size=1,
    ship="shm")`` and a fresh on-disk :class:`ResultCache` per batch,
    pre-filled with a prefix of each grid (hits) -- the rest is computed
    and stored (misses)."""

    name = "sweep_figs"
    workers = 2
    powers = tuple(float(p) for p in np.linspace(-12.0, -6.0, 24))
    symbols = 200_000
    power_prefix = 8
    availabilities = (0.99, 0.995, 0.998, 0.999, 0.9995, 0.9999)
    shapes = (1, 2, 4, 8, 16, 32, 64)
    trials = 20_000
    availability_prefix = 2

    @property
    def tasks(self) -> Tuple[int, int]:
        return len(self.powers), len(self.availabilities) * len(self.shapes)

    @property
    def prefix_tasks(self) -> Tuple[int, int]:
        return self.power_prefix, self.availability_prefix * len(self.shapes)

    def engine(self, cache: Optional[ResultCache], obs=None) -> SweepEngine:
        return SweepEngine(
            workers=self.workers, chunk_size=1, ship="shm", cache=cache, obs=obs
        )

    def grids(self, engine: SweepEngine, seed: int, powers, availabilities, rec,
              symbols: Optional[int] = None, trials: Optional[int] = None):
        """Both grids; returns (ber, availability, spares, per-grid run
        stats, per-grid worker task seconds -- empty without a registry)."""
        chunk_ms = None
        if engine.obs.enabled:
            chunk_ms = engine.obs.metrics.histogram("sweep.chunk.duration_ms")
        task_s: List[float] = []
        with rec.span("optics.mc_sweep"):
            ber = monte_carlo_ber_grid(
                Pam4LinkModel(), powers, num_symbols=symbols or self.symbols,
                seed=seed, engine=engine,
            )
        ber_run = engine.last_run
        if chunk_ms is not None:
            task_s.append(chunk_ms.sum / 1e3)
        with rec.span("availability.montecarlo"):
            avail, spares = availability_grid(
                availabilities, self.shapes, trials=trials or self.trials,
                seed=seed, engine=engine,
            )
        if chunk_ms is not None:
            task_s.append(chunk_ms.sum / 1e3 - task_s[0])
        return ber, avail, spares, (ber_run, engine.last_run), task_s

    def setup(self, seed: int, work_dir: Path, rec) -> _SweepState:
        template = work_dir / "cache-template"
        shutil.rmtree(template, ignore_errors=True)
        engine = self.engine(ResultCache(template))
        self.grids(
            engine, seed, self.powers[: self.power_prefix],
            self.availabilities[: self.availability_prefix], rec,
        )
        return _SweepState(seed, template, work_dir)

    def warm(self, st: _SweepState) -> None:
        self.grids(
            self.engine(ResultCache.in_memory()), st.seed, self.powers[:2],
            self.availabilities[:1], NULL_RECORDER, symbols=20_000, trials=2_000,
        )

    def prepare(self, st: _SweepState) -> Path:
        st.batches += 1
        path = st.work_dir / f"cache-batch-{st.batches}"
        shutil.copytree(st.template, path)
        return path

    def release(self, path: Path) -> None:
        shutil.rmtree(path, ignore_errors=True)

    def run(self, st: _SweepState, path: Path, rec) -> Batch:
        obs = None
        if rec.enabled:
            obs = Observability()
            obs.metrics.histogram("sweep.chunk.duration_ms", bounds=_CHUNK_MS_BOUNDS)
        cache = ResultCache(path)
        stored_before = len(cache)
        result = self.grids(
            self.engine(cache, obs), st.seed, self.powers, self.availabilities, rec
        )
        units = result[0].size + result[1].size
        return Batch(units, sum(self.tasks), (result, cache, stored_before, obs))

    def check(self, st: _SweepState, batch: Batch, rec) -> Checked:
        (ber, avail, spares, runs, task_s), cache, stored_before, obs = batch.data
        problems = []
        for run_stats, tasks, prefix in zip(runs, self.tasks, self.prefix_tasks):
            if run_stats.cache_hits + run_stats.cache_misses != run_stats.tasks:
                problems.append(f"hits + misses != tasks: {run_stats}")
            if (run_stats.tasks, run_stats.cache_hits) != (tasks, prefix):
                problems.append(f"expected {tasks} tasks / {prefix} hits: {run_stats}")
        counts: Dict[str, float] = {}
        if obs is not None:
            hist = obs.metrics.histogram("sweep.chunk.duration_ms")
            hits = sum(r.cache_hits for r in runs)
            counts = {
                "parallel.engine.chunks": sum(r.chunks for r in runs),
                "parallel.engine.chunk_ms_p50": hist.quantile(0.5),
                "parallel.engine.chunk_ms_p99": hist.quantile(0.99),
                "parallel.cache.hit_share": hits / max(1, sum(r.tasks for r in runs)),
                "parallel.cache.bytes": sum(
                    int(e["bytes"]) for e in cache.entries()[stored_before:]
                ),
                "parallel.shm.bytes": sum(r.shm_bytes for r in runs),
                "optics.mc_sweep.task_s": task_s[0],
                "availability.montecarlo.task_s": task_s[1],
            }
        return Checked(
            digest=_digest(ber.tobytes(), avail.tobytes(), spares.tobytes()),
            problems=problems,
            fingerprint={
                "ber_min": float(ber.min()),
                "ber_max": float(ber.max()),
                "availability_min": float(avail.min()),
                "spares_total": int(spares.sum()),
            },
            counts=counts,
        )


WORKLOADS = {
    w.name: w for w in (ServeStorm(), ServeFailover(), FctMesh(), SweepFigs())
}
