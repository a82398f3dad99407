"""The pinned perf cases: optimized path vs an independent oracle.

Every case is one whose speedup ratio is the claim: a vectorized kernel
against the scalar reference it replaced, or a parallel sweep against
its serial oracle.  Each builds one deterministic workload at the
figure-scale size recorded in the committed ``BENCH_PERF.json`` and
exposes an optimized thunk, a reference thunk, and a parity function
measuring the maximum relative error between the two results.

The parallel-sweep cases run on a fixed :data:`SWEEP_WORKERS` pool,
which equals their ``requires_cores``; the harness records an explicit
skip for them on machines with fewer cores.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Tuple

import numpy as np

from repro.dcn.flowsim import (
    FlowSimulator,
    generate_flows,
    max_min_rates,
    max_min_rates_reference,
)
from repro.dcn.spinefree import AggregationBlock, SpineFreeFabric
from repro.dcn.traffic import gravity_matrix
from repro.dcn.traffic_engineering import route_demand
from repro.optics.ber import (
    LinkBerSimulator,
    receiver_sensitivity_batch,
    receiver_sensitivity_reference,
)
from repro.optics.fleet import SUPERPOD_RX_PORTS, FleetBerSampler
from repro.optics.mc_sweep import monte_carlo_ber_grid, monte_carlo_ber_grid_serial
from repro.optics.pam4 import DEFAULT_THERMAL_NOISE_W, Pam4LinkModel
from repro.faults.ensemble import chaos_ensemble, chaos_ensemble_serial
from repro.parallel import SweepEngine

#: Worker count of the parallel-sweep cases (and their ``requires_cores``).
SWEEP_WORKERS = 2


class CasePair(NamedTuple):
    """One built workload: thunks to time plus the parity check."""

    vectorized: Callable[[], object]
    reference: Callable[[], object]
    parity: Callable[[object, object], float]
    size: Dict[str, object]


@dataclass(frozen=True)
class PerfCase:
    """A named benchmark; its floor lives in ``baselines.json``.

    ``requires_cores``: a parallel-speedup case cannot beat its serial
    oracle on fewer cores, so machines below it record an explicit skip
    instead of a measurement.
    """

    name: str
    figure: str
    build: Callable[[], CasePair]
    requires_cores: int = 1


def _max_rel_err(a: np.ndarray, b: np.ndarray) -> float:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    scale = np.maximum(np.abs(b), 1e-300)
    return float(np.max(np.abs(a - b) / scale)) if a.size else 0.0


# --------------------------------------------------------------------- #
# Fig 13: fleet BER sweep (6,144 superpod ports in one ber_batch pass)
# --------------------------------------------------------------------- #


def _build_fleet() -> CasePair:
    sampler = FleetBerSampler(num_ports=SUPERPOD_RX_PORTS, seed=7)
    return CasePair(
        vectorized=sampler.sample,
        reference=sampler.sample_reference,
        parity=_max_rel_err,
        size={"ports": SUPERPOD_RX_PORTS},
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


def _build_curves() -> CasePair:
    points = 241
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


def _build_sensitivity() -> CasePair:
    n_mpi, n_thermal = 32, 16
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
# Max-min fair allocation: path-class heap water-filler vs dict loop
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


def _build_max_min() -> CasePair:
    num_flows, num_links = 8000, 600
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
# Fluid flow simulation: incremental path-class run vs per-event dict loop
# --------------------------------------------------------------------- #


def _build_flowsim() -> CasePair:
    num_flows = 2000
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
        vectorized=lambda: FlowSimulator(fabric, routing, "wcmp", seed=7).run(flows),
        reference=lambda: FlowSimulator(fabric, routing, "wcmp", seed=7).run_reference(
            flows
        ),
        parity=_records_parity,
        size={"flows": num_flows, "blocks": 16, "uplinks": 16},
    )


# --------------------------------------------------------------------- #
# Parallel sweeps: SweepEngine fan-out vs the serial oracle
# --------------------------------------------------------------------- #


def _exact_parity(vec: object, ref: object) -> float:
    """Sweeps are bit-identical by contract: equal -> 0.0, else inf."""
    import pickle

    vec_list, ref_list = list(vec), list(ref)
    same = len(vec_list) == len(ref_list) and all(
        pickle.dumps(a) == pickle.dumps(b) for a, b in zip(vec_list, ref_list)
    )
    return 0.0 if same else float("inf")


def _build_chaos_ensemble() -> CasePair:
    # The crash-recovery sweep is the heaviest scenario per member
    # (~50-100 ms), so per-chunk work dominates pool startup.
    scenario = "controller_crash_recovery"
    num_seeds = 8
    seeds = list(range(num_seeds))
    kwargs = {"num_ocses": 4, "links_per_ocs": 8}
    engine = SweepEngine(workers=SWEEP_WORKERS, chunk_size=1)

    def _digests(reports) -> np.ndarray:
        return np.array([int(r.digest()[:15], 16) for r in reports], dtype=float)

    return CasePair(
        vectorized=lambda: chaos_ensemble(
            scenario, seeds, kwargs=kwargs, engine=engine
        ),
        reference=lambda: chaos_ensemble_serial(scenario, seeds, kwargs=kwargs),
        parity=lambda a, b: _max_rel_err(_digests(a), _digests(b)),
        size={"scenario": scenario, "seeds": num_seeds, "jobs": SWEEP_WORKERS},
    )


def _build_mc_ber_grid() -> CasePair:
    points, symbols = 8, 2_000_000
    model = Pam4LinkModel()
    powers = np.linspace(-12.0, -6.0, points)
    engine = SweepEngine(workers=SWEEP_WORKERS, chunk_size=1)
    return CasePair(
        vectorized=lambda: monte_carlo_ber_grid(
            model, powers, num_symbols=symbols, seed=7, engine=engine
        ),
        reference=lambda: monte_carlo_ber_grid_serial(
            model, powers, num_symbols=symbols, seed=7
        ),
        parity=_exact_parity,
        size={"points": points, "symbols": symbols, "jobs": SWEEP_WORKERS},
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


def _build_pmap_shm() -> CasePair:
    side, num_tasks = 1448, 16
    rng = np.random.default_rng(13)
    # One grid shared by every task: the pickle engine re-ships it with
    # every chunk (chunk_size=1 -> num_tasks copies through the pipe);
    # the shm engine packs it into the arena once.
    grid = rng.standard_normal((side, side))
    tasks = [{"grid": grid, "row": i} for i in range(num_tasks)]
    shm_engine = SweepEngine(workers=SWEEP_WORKERS, chunk_size=1, ship="shm")
    pickle_engine = SweepEngine(workers=SWEEP_WORKERS, chunk_size=1)
    return CasePair(
        vectorized=lambda: shm_engine.pmap(_shm_row_stat, tasks, seed=5),
        reference=lambda: pickle_engine.pmap(_shm_row_stat, tasks, seed=5),
        parity=_exact_parity,
        size={
            "grid_mb": round(grid.nbytes / 1e6, 1),
            "tasks": num_tasks,
            "jobs": SWEEP_WORKERS,
        },
    )


CASES: Tuple[PerfCase, ...] = (
    PerfCase("fleet_ber_fig13", "Fig 13", _build_fleet),
    PerfCase("ber_curves_fig11_12", "Fig 11/12", _build_curves),
    PerfCase("receiver_sensitivity", "Fig 11/12 solves", _build_sensitivity),
    PerfCase("max_min_rates", "§5 flow fairness", _build_max_min),
    PerfCase("flowsim_run", "§5 FCT simulation", _build_flowsim),
    PerfCase(
        "chaos_ensemble_pmap", "chaos ensembles", _build_chaos_ensemble,
        requires_cores=SWEEP_WORKERS,
    ),
    PerfCase(
        "mc_ber_grid_pmap", "Fig 11a MC grid", _build_mc_ber_grid,
        requires_cores=SWEEP_WORKERS,
    ),
    PerfCase(
        "pmap_shm", "zero-copy shipping", _build_pmap_shm,
        requires_cores=SWEEP_WORKERS,
    ),
)
