"""Observed fabric drill: one seeded run exercising every traced path.

The drill wires a single :class:`~repro.obs.Observability` bundle through
the whole control stack and walks it through the lifecycle the paper's
operations story describes -- provisioning, hitless reconfiguration,
retries through injected RPC timeouts, a rolled-back transaction, a
controller crash sweep with WAL recovery, anti-entropy drift repair,
flap damping and quarantine, telemetry loss drift, a fleet BER sweep,
and a scheduling run.  Every phase lands spans on the shared tracer and
counters on the shared registry, so the resulting
:class:`DrillReport` is the one-stop input for the NOC report
(``python -m repro.tools.noc``) and for the tracing-determinism tests:
with a fixed seed the span tree and metric snapshot are byte-stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.control import DurableController, FleetHealthWatchdog, Reconciler
from repro.control.reconcile import ReconcileReport
from repro.core.crossconnect import CrossConnectMap
from repro.core.errors import TransactionError
from repro.core.fabric_manager import FabricManager, SimpleSwitch
from repro.core.ids import LinkId, OcsId
from repro.faults.chaos import ChaosReport, controller_crash_recovery
from repro.faults.resilience import ControlPlaneFaults, ResilientReconfigurer
from repro.obs import Observability
from repro.ocs.optics_model import INSERTION_LOSS_MAX_DB
from repro.ocs.palomar import PalomarOcs
from repro.ocs.telemetry import OcsTelemetry
from repro.optics.fleet import FleetBerSampler
from repro.scheduler.allocator import ReconfigurableAllocator
from repro.scheduler.requests import WorkloadGenerator
from repro.scheduler.simulator import SchedulerMetrics, SchedulerSimulation
from repro.tpu.superpod import Superpod

#: Drill phases, in execution order (each is a ``drill.<name>`` span).
PHASES: Tuple[str, ...] = (
    "provision",
    "reconfigure",
    "retry",
    "rollback",
    "crash_recovery",
    "reconcile",
    "health",
    "telemetry",
    "ber_sweep",
    "scheduler",
    "sweep",
    "serve",
    "failover",
    "twin",
)


@dataclass
class DrillReport:
    """Everything one observed drill produced.

    The interesting state lives on ``obs``: the span tree on
    ``obs.tracer`` and every subsystem's metrics on ``obs.metrics``.
    The sub-reports are kept for direct assertions.
    """

    seed: int
    smoke: bool
    obs: Observability
    phases: Tuple[str, ...]
    chaos: ChaosReport
    reconcile: ReconcileReport
    scheduler: SchedulerMetrics
    notes: Dict[str, float]

    def digests(self) -> Tuple[str, str]:
        """(trace digest, metrics digest) -- the determinism pins."""
        return self.obs.digests()


def _shift_targets(
    mgr: FabricManager, num_ocses: int, norths: Tuple[int, ...], offset: int
) -> Dict[OcsId, CrossConnectMap]:
    """Target maps moving ``norths`` to south ``n + offset`` on every OCS."""
    out: Dict[OcsId, CrossConnectMap] = {}
    for i in range(num_ocses):
        sw = mgr.switch(OcsId(i))
        circuits = dict(sw.state.circuits)
        for n in norths:
            circuits[n] = n + offset
        out[OcsId(i)] = CrossConnectMap.from_circuits(sw.radix, circuits)
    return out


def run_fabric_drill(
    seed: int = 0, *, smoke: bool = False, obs: Optional[Observability] = None
) -> DrillReport:
    """Run the full observed drill; returns the report with its bundle.

    ``smoke`` shrinks every phase for CI (a few seconds total).  Pass an
    existing ``obs`` to accumulate onto it; by default a fresh simulated
    bundle is created so the run is reproducible from the seed alone.
    """
    if obs is None:
        obs = Observability.sim()
    num_ocses = 2 if smoke else 3
    links = 4 if smoke else 6
    moved = tuple(range(3 if smoke else 4))
    ber_ports = 512 if smoke else 2048
    jobs = 24 if smoke else 48
    cubes = 8 if smoke else 16
    notes: Dict[str, float] = {}

    # -- provision: switches on a shared registry, links through the WAL --
    with obs.tracer.span("drill.provision", ocses=num_ocses, links=links):
        mgr = FabricManager(obs=obs)
        telemetries: Dict[int, OcsTelemetry] = {}
        for i in range(num_ocses):
            telemetries[i] = OcsTelemetry(registry=obs.metrics, ocs=f"ocs{i}")
            mgr.add_switch(
                OcsId(i),
                PalomarOcs.build(
                    name=f"noc-ocs{i}", seed=seed + i, telemetry=telemetries[i]
                ),
            )
        ctl = DurableController(manager=mgr, obs=obs)
        for i in range(num_ocses):
            for n in range(links):
                ctl.establish(LinkId(f"lk-{i}-{n}"), OcsId(i), n, n + links)

    # -- reconfigure: clean multi-OCS transaction through the journal.
    # Moving a circuit drops its logical link (re-striping semantics);
    # adopt the landed circuits back so the intent table stays complete.
    with obs.tracer.span("drill.reconfigure"):
        ctl.reconfigure(_shift_targets(mgr, num_ocses, moved, 2 * links))
        for i in range(num_ocses):
            for n in moved:
                ctl.adopt_link(
                    LinkId(f"lk2-{i}-{n}"), OcsId(i), n, n + 2 * links
                )

    # -- retry: injected RPC timeouts absorbed by bounded backoff.  The
    # resilient path programs circuits without retargeting logical links,
    # so it gets its own map-only fixture and leaves the journaled fabric
    # alone for the reconcile/health phases.
    faults = ControlPlaneFaults()
    with obs.tracer.span("drill.retry"):
        rr_mgr = FabricManager(obs=obs)
        for i in range(num_ocses):
            rr_mgr.add_switch(OcsId(i), SimpleSwitch(4 * links))
            for n in range(links):
                rr_mgr.establish(LinkId(f"rr-{i}-{n}"), OcsId(i), n, n + links)
        faults.inject_rpc_timeouts(0, count=2)
        resilient = ResilientReconfigurer(
            manager=rr_mgr, faults=faults, seed=seed, obs=obs
        )
        result = resilient.reconfigure(
            _shift_targets(rr_mgr, num_ocses, moved, 2 * links)
        )
        notes["retry_attempts"] = float(result.total_attempts)

    # -- rollback: retries exhausted on the last switch, exact undo --
    with obs.tracer.span("drill.rollback"):
        faults.inject_rpc_timeouts(num_ocses - 1, count=10)
        try:
            resilient.reconfigure(
                _shift_targets(rr_mgr, num_ocses, moved, links)
            )
            notes["rollback_seen"] = 0.0
        except TransactionError as err:
            notes["rollback_seen"] = float(err.rolled_back)

    # -- crash + recover: the WAL crash sweep, fully traced --
    with obs.tracer.span("drill.crash_recovery"):
        chaos = controller_crash_recovery(
            seed=seed, num_ocses=2, links_per_ocs=4, moved_per_ocs=3, obs=obs
        )

    # -- reconcile: hardware poked behind the controller's back --
    with obs.tracer.span("drill.reconcile"):
        rogue = mgr.switch(OcsId(0))
        rogue.disconnect(moved[0])
        rogue.connect(moved[0], 3 * links + 1)  # wrong peer: drift
        reconcile = Reconciler(manager=mgr, seed=seed, obs=obs).run()
        notes["reconcile_converged"] = float(reconcile.converged)

    # -- health: flap damping to quarantine, decay to release --
    with obs.tracer.span("drill.health"):
        watchdog = FleetHealthWatchdog(obs=obs)
        state = mgr.switch(OcsId(0)).state
        for n in range(links):
            south = state.south_of(n)
            if south is not None:
                watchdog.watch_circuit(0, n, south)
        for _ in range(3):  # 3 flaps: penalty 3000 > suppress 2500
            watchdog.observe_flap(0, 0, now_s=0.0)
        watchdog.observe_flap(0, 1, now_s=0.0)  # one flap: damped only
        quarantines = watchdog.poll(now_s=0.0)
        releases = watchdog.poll(now_s=180.0)  # decayed + past hold-down
        notes["health_actions"] = float(len(quarantines) + len(releases))

    # -- telemetry: loss sweep, one drift anomaly, one over-budget --
    with obs.tracer.span("drill.telemetry"):
        for i in range(num_ocses):
            sw = mgr.switch(OcsId(i))
            for n, s in sorted(sw.state.circuits):
                telemetries[i].observe_loss(n, s, sw.insertion_loss_db(n, s))
        tel = telemetries[0]
        drift_circuit = sorted(mgr.switch(OcsId(0)).state.circuits)[0]
        base = mgr.switch(OcsId(0)).insertion_loss_db(*drift_circuit)
        anomaly = tel.observe_loss(*drift_circuit, base + 1.0)
        if anomaly is not None:
            watchdog.observe_anomaly(0, anomaly, now_s=200.0)
        tel.observe_loss(*drift_circuit, INSERTION_LOSS_MAX_DB + 0.5)
        notes["anomaly_firings"] = float(tel.total_anomaly_firings())

    # -- BER sweep: the fleet distribution with margin gauges --
    with obs.tracer.span("drill.ber_sweep"):
        sampler = FleetBerSampler(num_ports=ber_ports, seed=seed, obs=obs)
        summary = sampler.summarize()
        notes["ber_worst_margin_decades"] = summary["worst_margin_decades"]

    # -- scheduler: a failure-injected run on the reconfigurable policy --
    with obs.tracer.span("drill.scheduler"):
        pod = Superpod(num_cubes=cubes, seed=seed)
        sim = SchedulerSimulation(
            allocator=ReconfigurableAllocator(pod, obs=obs),
            cube_failure_rate_per_s=1.0 / (40 * 3600.0),
            repair_s=3600.0,
            seed=seed,
            obs=obs,
        )
        sched = sim.run(WorkloadGenerator(seed=seed).generate(jobs))

    # -- sweep: the parallel engine + result cache, cold then warm.  A
    # serial engine on an in-memory cache keeps the phase hermetic; the
    # task advances the sim clock so chunk spans have deterministic
    # widths, and the warm pass must be 100% hits.
    with obs.tracer.span("drill.sweep"):
        from repro.parallel import ResultCache, SweepEngine

        sweep_tasks = list(range(8 if smoke else 12))

        def _sweep_task(task: int, task_seed) -> float:
            obs.clock.advance(2.0)
            del task_seed  # identity comes from the task; width from the clock
            return float(task * task)

        engine = SweepEngine(
            workers=1, chunk_size=4, cache=ResultCache.in_memory(obs=obs),
            obs=obs,
        )
        cold = engine.pmap(_sweep_task, sweep_tasks, seed=seed, cache_tag="drill")
        warm = engine.pmap(_sweep_task, sweep_tasks, seed=seed, cache_tag="drill")
        notes["sweep_tasks"] = float(len(sweep_tasks))
        notes["sweep_warm_hits"] = float(engine.last_run.cache_hits)
        notes["sweep_results_equal"] = float(cold == warm)

    # -- serve: the overload-burst serving drill (admission, shedding,
    # retry budget, breaker, brownout) on the shared registry, with the
    # replay-equivalence check built in.
    with obs.tracer.span("drill.serve"):
        from repro.serve.drill import run_serve_drill

        serve_out = run_serve_drill(
            seed=seed, smoke=True, obs=obs,
            num_primaries=1_200 if smoke else 2_400,
        )
        serve_summary = serve_out["summary"]
        notes["serve_offered"] = float(serve_summary["offered"])
        notes["serve_ok"] = float(serve_summary["ok"])
        notes["serve_shed"] = float(serve_summary["shed"])
        notes["serve_breaker_trips"] = float(serve_summary["breaker_trips"])
        notes["serve_recoveries"] = float(serve_summary["recoveries"])
        notes["serve_replay_equal"] = float(
            serve_summary["replay_digest"] == serve_summary["state_digest"]
        )

    # -- failover: the replicated-controller partition storm.  Runs on
    # an isolated bundle (its storm latencies would otherwise pollute
    # the shared serve.latency_ms percentile), then republishes only the
    # failover gauges the NOC SLO gate reads.
    with obs.tracer.span("drill.failover"):
        from repro.serve.drill import run_failover_drill

        failover_obs = Observability.sim()
        failover_out = run_failover_drill(
            seed=seed, smoke=True, obs=failover_obs,
            num_primaries=1_200 if smoke else 2_400,
        )
        for gauge in (
            "serve.failover.p99_s",
            "serve.failover.committed_ops_lost",
            "serve.failover.unavailability",
        ):
            obs.metrics.gauge(gauge).set(failover_obs.metrics.value(gauge))
        failover_summary = failover_out["summary"]
        notes["failover_failovers"] = float(failover_summary["failovers"])
        notes["failover_elections"] = float(failover_summary["elections"])
        notes["failover_committed_ops_lost"] = float(
            failover_summary["committed_ops_lost"]
        )
        notes["failover_availability"] = float(failover_summary["availability"])

    # -- twin: the predictive loop -- record a fleet timeline, stream it
    # through the windowed-aggregation pipeline, train the availability
    # forecaster on a chaos ensemble, and what-if-replay candidate
    # policies.  Runs on an isolated bundle (its replays would pollute
    # the serve percentiles), then republishes the twin SLO gauges.
    with obs.tracer.span("drill.twin"):
        from repro.twin.drill import run_twin_drill

        twin_obs = Observability.sim()
        twin_out = run_twin_drill(seed=seed, smoke=True, obs=twin_obs)
        for gauge in (
            "twin.forecast.miss_rate",
            "twin.forecast.mae_excess",
            "twin.plan.divergence",
        ):
            obs.metrics.gauge(gauge).set(twin_obs.metrics.value(gauge))
        twin_summary = twin_out["summary"]
        notes["twin_timeline_samples"] = float(twin_summary["timeline_samples"])
        notes["twin_aggregates"] = float(twin_summary["aggregates"])
        notes["twin_forecast_beats_naive"] = float(
            twin_summary["twin_forecast_mae_excess"] < 0.0
        )
        notes["twin_plan_divergence"] = float(
            twin_summary["twin_plan_divergence"]
        )
        notes["twin_policies"] = float(len(twin_out["plans"]))

    return DrillReport(
        seed=seed,
        smoke=smoke,
        obs=obs,
        phases=PHASES,
        chaos=chaos,
        reconcile=reconcile,
        scheduler=sched,
        notes=notes,
    )
