"""The pinned perf cases: optimized path vs reference oracle.

Each case builds a deterministic workload at one of two sizes (``full``
for the committed ``BENCH_PERF.json``, ``smoke`` for CI) and exposes an
optimized thunk (vectorized kernel, parallel sweep, or warm cache), a
reference thunk, and a parity function measuring the maximum relative
error between the two results.

Builders take ``(smoke, jobs=None)``; ``jobs`` is the engine worker
count for the parallel-sweep cases (None = ``os.cpu_count()``) and is
ignored by the single-process kernel cases.  Cases with
``requires_cores > 1`` only have meaningful speedups on machines with at
least that many cores -- the harness records the machine's
``cpu_count`` in each result and the baseline check skips gated cases
on smaller machines.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.dcn import flowsim
from repro.dcn.flowsim import (
    FlowSimulator,
    generate_flows,
    max_min_rates,
    max_min_rates_reference,
)
from repro.dcn.spinefree import AggregationBlock, SpineFreeFabric
from repro.dcn.traffic import gravity_matrix
from repro.dcn.traffic_engineering import RoutingSolution, route_demand
from repro.optics.ber import (
    LinkBerSimulator,
    receiver_sensitivity_batch,
    receiver_sensitivity_reference,
)
from repro.optics.fleet import SUPERPOD_RX_PORTS, FleetBerSampler
from repro.optics.mc_sweep import monte_carlo_ber_grid, monte_carlo_ber_grid_serial
from repro.optics.pam4 import DEFAULT_THERMAL_NOISE_W, Pam4LinkModel
from repro.faults.ensemble import chaos_ensemble, chaos_ensemble_serial
from repro.obs.metrics import MetricsRegistry
from repro.parallel import ResultCache, SweepEngine
from repro.serve import FabricService, ServeConfig, ServeWorkload
from repro.serve.requests import RequestKind


class CasePair(NamedTuple):
    """One built workload: thunks to time plus the parity check."""

    vectorized: Callable[[], object]
    reference: Callable[[], object]
    parity: Callable[[object, object], float]
    size: Dict[str, object]


@dataclass(frozen=True)
class PerfCase:
    """A named benchmark with its acceptance floor.

    ``requires_cores`` gates the baseline check: a parallel-speedup case
    cannot beat its serial oracle on fewer cores, so machines below the
    floor record the measurement but are not held to the baseline.
    """

    name: str
    figure: str
    target_speedup: float
    build: Callable[..., CasePair]
    requires_cores: int = 1


def _max_rel_err(a: np.ndarray, b: np.ndarray) -> float:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    scale = np.maximum(np.abs(b), 1e-300)
    return float(np.max(np.abs(a - b) / scale)) if a.size else 0.0


# --------------------------------------------------------------------- #
# Fig 13: fleet BER sweep (6,144 superpod ports in one ber_batch pass)
# --------------------------------------------------------------------- #


def _build_fleet(smoke: bool, jobs: Optional[int] = None) -> CasePair:
    del jobs  # single-process kernel case
    ports = 768 if smoke else SUPERPOD_RX_PORTS
    sampler = FleetBerSampler(num_ports=ports, seed=7)
    return CasePair(
        vectorized=sampler.sample,
        reference=sampler.sample_reference,
        parity=_max_rel_err,
        size={"ports": ports},
    )


# --------------------------------------------------------------------- #
# Fig 11/12: BER waterfall generation (MPI sweep + SFEC curves)
# --------------------------------------------------------------------- #

_FIG11_MPI_LEVELS: Tuple[object, ...] = (None, -35.0, -32.0, -29.0)
_FIG12_MPI_LEVELS: Tuple[float, ...] = (-36.0, -32.0)


def _curves_reference(
    sim: LinkBerSimulator, powers: np.ndarray
) -> Dict[Tuple[object, bool, str], np.ndarray]:
    """Scalar re-derivation of mpi_sweep + sfec_curves: one ``ber`` call
    per (curve, power) point, one ``output_ber`` call per SFEC point."""
    out: Dict[Tuple[object, bool, str], np.ndarray] = {}
    for mpi_db in _FIG11_MPI_LEVELS:
        for oim_on in (False, True):
            model = sim._model(mpi_db, oim_on)
            out[(mpi_db, oim_on, "fig11")] = np.array(
                [model.ber(float(p)) for p in powers]
            )
    for mpi_db in _FIG12_MPI_LEVELS:
        model = sim._model(mpi_db, oim_on=False)
        raw = np.array([model.ber(float(p)) for p in powers])
        out[(mpi_db, False, "fig12")] = raw
        out[(mpi_db, True, "fig12")] = np.array(
            [sim.fec.inner.output_ber(float(min(b, 0.5))) for b in raw]
        )
    return out


def _curves_vectorized(
    sim: LinkBerSimulator, powers: np.ndarray
) -> Dict[Tuple[object, bool, str], np.ndarray]:
    fig11 = sim.mpi_sweep(mpi_levels_db=_FIG11_MPI_LEVELS, rx_powers_dbm=powers)
    fig12 = sim.sfec_curves(mpi_levels_db=_FIG12_MPI_LEVELS, rx_powers_dbm=powers)
    out = {(mpi, oim, "fig11"): c.bers for (mpi, oim), c in fig11.items()}
    out.update({(mpi, sfec, "fig12"): c.bers for (mpi, sfec), c in fig12.items()})
    return out


def _curves_parity(vec: object, ref: object) -> float:
    assert isinstance(vec, dict) and isinstance(ref, dict)
    assert vec.keys() == ref.keys()
    return max(_max_rel_err(vec[k], ref[k]) for k in vec)


def _build_curves(smoke: bool, jobs: Optional[int] = None) -> CasePair:
    del jobs  # single-process kernel case
    points = 33 if smoke else 241
    powers = np.linspace(-15.0, -2.0, points)
    sim = LinkBerSimulator()
    return CasePair(
        vectorized=lambda: _curves_vectorized(sim, powers),
        reference=lambda: _curves_reference(sim, powers),
        parity=_curves_parity,
        size={"power_points": points, "curves": 2 * len(_FIG11_MPI_LEVELS) + 4},
    )


# --------------------------------------------------------------------- #
# Receiver-sensitivity solves: batched bisection vs scalar bisection
# --------------------------------------------------------------------- #


def _build_sensitivity(smoke: bool, jobs: Optional[int] = None) -> CasePair:
    del jobs  # single-process kernel case
    n_mpi, n_thermal = (8, 6) if smoke else (32, 16)
    models = [
        Pam4LinkModel(
            mpi_db=float(mpi),
            thermal_noise_w=DEFAULT_THERMAL_NOISE_W * float(mult),
        )
        for mpi in np.linspace(-40.0, -30.0, n_mpi)
        for mult in np.linspace(0.8, 1.2, n_thermal)
    ]
    return CasePair(
        vectorized=lambda: receiver_sensitivity_batch(models),
        reference=lambda: np.array(
            [receiver_sensitivity_reference(m) for m in models]
        ),
        parity=_max_rel_err,
        size={"models": len(models)},
    )


# --------------------------------------------------------------------- #
# Max-min fair allocation: incidence-matrix kernel vs dict loop
# --------------------------------------------------------------------- #


def _random_allocation_instance(
    num_flows: int, num_links: int, seed: int
) -> Tuple[Dict[int, List[Tuple[int, int]]], Dict[Tuple[int, int], float]]:
    rng = np.random.default_rng(seed)
    links = [(int(i), int(i + 1)) for i in range(num_links)]
    capacity = {link: float(c) for link, c in zip(links, rng.uniform(10.0, 400.0, num_links))}
    flow_paths: Dict[int, List[Tuple[int, int]]] = {}
    for fid in range(num_flows):
        hops = int(rng.integers(1, 6))
        picks = rng.choice(num_links, size=min(hops, num_links), replace=False)
        flow_paths[fid] = [links[int(p)] for p in picks]
    return flow_paths, capacity


def _build_max_min(smoke: bool, jobs: Optional[int] = None) -> CasePair:
    del jobs  # single-process kernel case
    num_flows, num_links = (600, 120) if smoke else (8000, 600)
    flow_paths, capacity = _random_allocation_instance(num_flows, num_links, seed=11)

    def _rates_array(rates: Dict[int, float]) -> np.ndarray:
        return np.array([rates[fid] for fid in sorted(rates)])

    return CasePair(
        vectorized=lambda: max_min_rates(flow_paths, capacity),
        reference=lambda: max_min_rates_reference(flow_paths, capacity),
        parity=lambda a, b: _max_rel_err(_rates_array(a), _rates_array(b)),
        size={"flows": num_flows, "links": num_links},
    )


# --------------------------------------------------------------------- #
# Fluid flow simulation: incremental incidence run vs per-event dict loop
# --------------------------------------------------------------------- #


def _build_flowsim(smoke: bool, jobs: Optional[int] = None) -> CasePair:
    del jobs  # single-process kernel case
    num_flows = 400 if smoke else 2000
    fabric = SpineFreeFabric.uniform(
        [AggregationBlock(i, uplinks=16) for i in range(16)]
    )
    tm = gravity_matrix(16, 3000.0, seed=3)
    routing = route_demand(fabric, tm)
    flows = generate_flows(
        tm.demand_gbps, num_flows, mean_size_gbit=2000.0, duration_s=0.25, seed=9
    )

    def _records_parity(vec: object, ref: object) -> float:
        assert [r.flow.flow_id for r in vec] == [r.flow.flow_id for r in ref]
        return _max_rel_err(
            np.array([r.finish_s for r in vec]), np.array([r.finish_s for r in ref])
        )

    return CasePair(
        vectorized=lambda: FlowSimulator(fabric, routing, seed=7).run(flows),
        reference=lambda: FlowSimulator(fabric, routing, seed=7).run_reference(flows),
        parity=_records_parity,
        size={"flows": num_flows, "blocks": 16, "uplinks": 16},
    )


# --------------------------------------------------------------------- #
# 100k-flow / 65k-port FCT: incremental frontier engine vs per-event
# full solve
# --------------------------------------------------------------------- #


def _metro_routing(
    blocks: int, seed: int
) -> Tuple[SpineFreeFabric, RoutingSolution, np.ndarray]:
    """A synthetic engineered metro at ``blocks`` x 64 uplinks.

    ``route_demand`` is O(n^3) per matrix and infeasible at 1024 blocks,
    so the routing solution is constructed directly: blocks form
    8-block neighborhoods with an in-group ring (1-hop pairs), 2-hop
    paths that bridge adjacent ring links, and a low-rate 2-hop
    cross-group path per neighborhood.  Link sharing -- the thing the
    incremental engine's frontier walk follows -- therefore stays
    mostly neighborhood-local, which is the locality structure
    engineered fabrics actually exhibit.  Trunk capacities come in
    three discrete rates (mixed 300/400/500G bundles, as real metros
    stripe them) rather than a continuum: tied links freeze in shared
    water-filling rounds, which keeps the per-event full solve's round
    count -- and therefore the reference path's wall time at 1,024
    blocks -- bounded.
    """
    group = 8
    rng = np.random.default_rng(seed)
    capacity = np.zeros((blocks, blocks))
    demand = np.zeros((blocks, blocks))
    paths: Dict[Tuple[int, int], List[Tuple[Tuple[int, ...], float]]] = {}
    for base in range(0, blocks, group):
        for k in range(group):
            b = base + k
            n1 = base + (k + 1) % group
            n2 = base + (k + 2) % group
            capacity[b, n1] = float(rng.choice([300.0, 400.0, 500.0]))
            paths[(b, n1)] = [((b, n1), 1.0)]
            demand[b, n1] = 3.0
            paths[(b, n2)] = [((b, n1, n2), 1.0)]
            demand[b, n2] = 2.0
        nxt = (base + group) % blocks
        capacity[base + group - 1, nxt] = float(rng.choice([300.0, 400.0, 500.0]))
        paths[(base + group - 2, nxt)] = [
            ((base + group - 2, base + group - 1, nxt), 1.0)
        ]
        demand[base + group - 2, nxt] = 0.3
    fabric = SpineFreeFabric.uniform(
        [AggregationBlock(i, uplinks=64) for i in range(blocks)]
    )
    routing = RoutingSolution(
        served_gbps=demand.copy(),
        residual_gbps=np.zeros_like(demand),
        link_load_gbps=np.zeros_like(capacity),
        link_capacity_gbps=capacity,
        paths=paths,
    )
    return fabric, routing, demand


def _build_flowsim_100k(smoke: bool, jobs: Optional[int] = None) -> CasePair:
    del jobs  # single-process kernel case
    blocks, num_flows, duration_s = (64, 3_000, 15.0) if smoke else (
        1024,
        100_000,
        30.0,
    )
    fabric, routing, demand = _metro_routing(blocks, seed=17)
    flows = generate_flows(
        demand, num_flows, mean_size_gbit=15.0, duration_s=duration_s, seed=23
    )

    def _records_parity(vec: object, ref: object) -> float:
        assert [r.flow.flow_id for r in vec] == [r.flow.flow_id for r in ref]
        return _max_rel_err(
            np.array([r.finish_s for r in vec]), np.array([r.finish_s for r in ref])
        )

    def _full_solve():
        # A zero fallback threshold makes every event that touches an
        # active flow one full vectorized solve: the per-event baseline
        # the incremental frontier walk is measured against.
        saved = flowsim._INCREMENTAL_MAX_FRONTIER
        flowsim._INCREMENTAL_MAX_FRONTIER = 0
        try:
            return FlowSimulator(fabric, routing, seed=7).run(flows)
        finally:
            flowsim._INCREMENTAL_MAX_FRONTIER = saved

    return CasePair(
        vectorized=lambda: FlowSimulator(fabric, routing, seed=7).run(flows),
        reference=_full_solve,
        parity=_records_parity,
        size={
            "flows": num_flows,
            "blocks": blocks,
            "ports": blocks * 64,
            "links": int(np.count_nonzero(routing.link_capacity_gbps)),
        },
    )


# --------------------------------------------------------------------- #
# Parallel sweeps: SweepEngine fan-out vs the serial oracle
# --------------------------------------------------------------------- #


def _sweep_jobs(jobs: Optional[int]) -> int:
    return jobs if jobs is not None else (os.cpu_count() or 1)


def _exact_parity(vec: object, ref: object) -> float:
    """Sweeps are bit-identical by contract: equal -> 0.0, else inf."""
    import pickle

    vec_list, ref_list = list(vec), list(ref)
    same = len(vec_list) == len(ref_list) and all(
        pickle.dumps(a) == pickle.dumps(b) for a, b in zip(vec_list, ref_list)
    )
    return 0.0 if same else float("inf")


def _build_chaos_ensemble(smoke: bool, jobs: Optional[int] = None) -> CasePair:
    workers = _sweep_jobs(jobs)
    # The crash-recovery sweep is the heaviest scenario per member
    # (~50-100 ms), so per-chunk work dominates pool startup.
    scenario = "controller_crash_recovery"
    num_seeds = 4 if smoke else 8
    seeds = list(range(num_seeds))
    kwargs = {} if smoke else {"num_ocses": 4, "links_per_ocs": 8}
    engine = SweepEngine(workers=workers, chunk_size=1)

    def _digests(reports) -> np.ndarray:
        return np.array([int(r.digest()[:15], 16) for r in reports], dtype=float)

    return CasePair(
        vectorized=lambda: chaos_ensemble(
            scenario, seeds, kwargs=kwargs, engine=engine
        ),
        reference=lambda: chaos_ensemble_serial(scenario, seeds, kwargs=kwargs),
        parity=lambda a, b: _max_rel_err(_digests(a), _digests(b)),
        size={"scenario": scenario, "seeds": num_seeds, "jobs": workers},
    )


def _build_mc_ber_grid(smoke: bool, jobs: Optional[int] = None) -> CasePair:
    workers = _sweep_jobs(jobs)
    points, symbols = (8, 500_000) if smoke else (8, 2_000_000)
    model = Pam4LinkModel()
    powers = np.linspace(-12.0, -6.0, points)
    engine = SweepEngine(workers=workers, chunk_size=1)
    return CasePair(
        vectorized=lambda: monte_carlo_ber_grid(
            model, powers, num_symbols=symbols, seed=7, engine=engine
        ),
        reference=lambda: monte_carlo_ber_grid_serial(
            model, powers, num_symbols=symbols, seed=7
        ),
        parity=_exact_parity,
        size={"points": points, "symbols": symbols, "jobs": workers},
    )


# --------------------------------------------------------------------- #
# Zero-copy task shipping: shm arena vs per-chunk pickling
# --------------------------------------------------------------------- #


def _shm_row_stat(task: Dict[str, object], seed) -> float:
    """A cheap per-task statistic over one row of the shared grid --
    shipping cost, not compute, must dominate this case."""
    rng = np.random.default_rng(seed)
    grid = task["grid"]
    row = grid[int(task["row"]) % grid.shape[0]]
    idx = rng.integers(0, row.size, size=4096)
    return float(row[idx].sum() + np.quantile(row, 0.5))


def _build_pmap_shm(smoke: bool, jobs: Optional[int] = None) -> CasePair:
    workers = _sweep_jobs(jobs)
    side, num_tasks = (512, 8) if smoke else (1448, 16)
    rng = np.random.default_rng(13)
    # One grid shared by every task: the pickle engine re-ships it with
    # every chunk (chunk_size=1 -> num_tasks copies through the pipe);
    # the shm engine packs it into the arena once.
    grid = rng.standard_normal((side, side))
    tasks = [{"grid": grid, "row": i} for i in range(num_tasks)]
    shm_engine = SweepEngine(workers=workers, chunk_size=1, ship="shm")
    pickle_engine = SweepEngine(workers=workers, chunk_size=1)
    return CasePair(
        vectorized=lambda: shm_engine.pmap(_shm_row_stat, tasks, seed=5),
        reference=lambda: pickle_engine.pmap(_shm_row_stat, tasks, seed=5),
        parity=_exact_parity,
        size={
            "grid_mb": round(grid.nbytes / 1e6, 1),
            "tasks": num_tasks,
            "jobs": workers,
        },
    )


# --------------------------------------------------------------------- #
# Result cache: warm content-addressed lookups vs recomputation
# --------------------------------------------------------------------- #


def _build_cache_warm(smoke: bool, jobs: Optional[int] = None) -> CasePair:
    del jobs  # warm lookups are serial either way
    points, symbols = (6, 50_000) if smoke else (8, 200_000)
    model = Pam4LinkModel()
    powers = np.linspace(-12.0, -6.0, points)
    # The tempdir handle rides in the closures so the cache outlives
    # the builder; it is reclaimed when the CasePair is dropped.
    tmp = tempfile.TemporaryDirectory(prefix="perf-sweep-cache-")
    monte_carlo_ber_grid(
        model, powers, num_symbols=symbols, seed=7,
        engine=SweepEngine(workers=1, cache=ResultCache(tmp.name)),
    )

    def warm(_tmp=tmp):
        engine = SweepEngine(workers=1, cache=ResultCache(_tmp.name))
        return monte_carlo_ber_grid(
            model, powers, num_symbols=symbols, seed=7, engine=engine
        )

    return CasePair(
        vectorized=warm,
        reference=lambda: monte_carlo_ber_grid_serial(
            model, powers, num_symbols=symbols, seed=7
        ),
        parity=_exact_parity,
        size={"points": points, "symbols": symbols},
    )


# --------------------------------------------------------------------- #
# Serving soak: brownout (cached telemetry) vs fresh digests per query
# --------------------------------------------------------------------- #


def _build_serve_soak(smoke: bool, jobs: Optional[int] = None) -> CasePair:
    del jobs  # the serving loop is serial by design (deterministic)
    primaries = 600 if smoke else 4_000
    # Below-capacity, fault-free soak.  The mix has no retargeting ops,
    # so both brownout levels commit the same intents in the same order
    # and the final fabric digests must match bit for bit; the only
    # difference is how telemetry is answered (cached vs a fresh
    # ``state_digest`` hash per query -- the dominant soak-path cost).
    workload = ServeWorkload(
        seed=7,
        rate_per_s=250.0,
        num_tenants=64,
        mix={RequestKind.TELEMETRY_QUERY: 0.92, RequestKind.SLICE_ALLOC: 0.08},
        deadlines_s={
            RequestKind.TELEMETRY_QUERY: 5.0,
            RequestKind.SLICE_ALLOC: 5.0,
            RequestKind.SLICE_RELEASE: 5.0,
        },
        slice_cubes=(1, 2),
        slice_hold_mean_s=1.0,
    )
    requests = workload.generate(primaries)

    def _soak(pinned_level: int):
        config = ServeConfig(
            num_tenants=64,
            global_rate_per_s=10_000.0,
            global_burst=2_000.0,
            tenant_rate_per_s=1_000.0,
            tenant_burst=200.0,
            queue_capacity=4_096,
            pinned_brownout=pinned_level,
            seed=7,
        )
        report = FabricService(config).run(requests)
        return (report.state_digest, len(report.commit_log))

    return CasePair(
        vectorized=lambda: _soak(2),
        reference=lambda: _soak(0),
        parity=_exact_parity,
        size={"primaries": primaries, "requests": len(requests)},
    )


# --------------------------------------------------------------------- #
# Metrics hot path: bound series handles vs per-call name resolution
# --------------------------------------------------------------------- #


def _build_metrics_hot_path(smoke: bool, jobs: Optional[int] = None) -> CasePair:
    del jobs  # single-process micro-bench
    increments = 20_000 if smoke else 200_000

    def _bound() -> float:
        registry = MetricsRegistry()
        counter = registry.handle("counter", "bench.hot", outcome="ok")
        for _ in range(increments):
            counter.inc()
        return registry.value("bench.hot", outcome="ok")

    def _named() -> float:
        registry = MetricsRegistry()
        for _ in range(increments):
            registry.counter("bench.hot", outcome="ok").inc()
        return registry.value("bench.hot", outcome="ok")

    return CasePair(
        vectorized=_bound,
        reference=_named,
        parity=_max_rel_err,
        size={"increments": increments},
    )


CASES: Tuple[PerfCase, ...] = (
    PerfCase("fleet_ber_fig13", "Fig 13", 20.0, _build_fleet),
    PerfCase("ber_curves_fig11_12", "Fig 11/12", 5.0, _build_curves),
    PerfCase("receiver_sensitivity", "Fig 11/12 solves", 5.0, _build_sensitivity),
    PerfCase("max_min_rates", "§5 flow fairness", 5.0, _build_max_min),
    PerfCase("flowsim_run", "§5 FCT simulation", 5.0, _build_flowsim),
    PerfCase("flowsim_100k", "§5 FCT at 100k flows", 20.0, _build_flowsim_100k),
    PerfCase(
        "chaos_ensemble_pmap", "chaos ensembles", 1.7, _build_chaos_ensemble,
        requires_cores=2,
    ),
    PerfCase(
        "mc_ber_grid_pmap", "Fig 11a MC grid", 1.7, _build_mc_ber_grid,
        requires_cores=2,
    ),
    PerfCase(
        "pmap_shm", "zero-copy shipping", 1.5, _build_pmap_shm,
        requires_cores=2,
    ),
    PerfCase("sweep_cache_warm", "result cache", 5.0, _build_cache_warm),
    PerfCase("serve_soak", "serving brownout", 1.2, _build_serve_soak),
    PerfCase("metrics_hot_path", "obs hot loops", 1.5, _build_metrics_hot_path),
)
