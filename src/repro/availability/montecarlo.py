"""Monte-Carlo validation of the Fig 15b goodput model.

Samples pod states (each cube up iff its 16 hosts are up) and measures
the empirical availability of the slice configurations the analytic model
composes, confirming the configurations meet the 97% target and that the
static fixed-partition survival probabilities match the binomial math.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.errors import ConfigurationError
from repro.availability.goodput import (
    DEFAULT_TARGET,
    POD_CUBES,
    cube_availability,
    spares_for_slice,
)
from repro.parallel import SweepEngine
from repro.tpu.cube import HOSTS_PER_CUBE

#: Upper bound on the transient host-sample buffer.  The naive draw is
#: trials x cubes x 16 doubles (~650 MB at 256 cubes, 20k trials); the
#: chunked sampler below holds at most this many bytes of uniforms at a
#: time while producing the identical RNG stream.
SAMPLE_BUDGET_BYTES = 32 * 2**20


@dataclass
class GoodputMonteCarlo:
    """Samples cube-up states and evaluates slice survival."""

    server_availability: float
    seed: int = 0
    trials: int = 20_000

    def __post_init__(self) -> None:
        if not 0.0 < self.server_availability <= 1.0:
            raise ConfigurationError("server availability must be in (0, 1]")
        if self.trials <= 0:
            raise ConfigurationError("need at least one trial")

    def _cube_states(self, rng: np.random.Generator, num_cubes: int) -> np.ndarray:
        """(trials, num_cubes) booleans: cube up iff all 16 hosts up.

        Samples in bounded trial chunks: ``Generator.random`` fills its
        output sequentially in C order, so drawing consecutive slices
        along the trial axis consumes exactly the stream the one-shot
        draw would -- :meth:`_cube_states_reference` stays the oracle and
        the results are bit-identical, at ~20x less peak memory.
        """
        row_bytes = num_cubes * HOSTS_PER_CUBE * 8
        chunk = max(1, SAMPLE_BUDGET_BYTES // row_bytes)
        if chunk >= self.trials:
            return self._cube_states_reference(rng, num_cubes)
        states = np.empty((self.trials, num_cubes), dtype=bool)
        for start in range(0, self.trials, chunk):
            stop = min(start + chunk, self.trials)
            # Single expression: holding the chunk in a local would keep
            # it alive across the next draw and double the peak.
            states[start:stop] = np.all(
                rng.random((stop - start, num_cubes, HOSTS_PER_CUBE))
                < self.server_availability,
                axis=2,
            )
        return states

    def _cube_states_reference(
        self, rng: np.random.Generator, num_cubes: int
    ) -> np.ndarray:
        """The original one-shot sampler, kept as the RNG-stream oracle."""
        hosts = rng.random((self.trials, num_cubes, HOSTS_PER_CUBE))
        return np.all(hosts < self.server_availability, axis=2)

    def empirical_cube_availability(self) -> float:
        """Check the host->cube availability composition."""
        rng = np.random.default_rng(self.seed)
        states = self._cube_states(rng, 256)
        return float(states.mean())

    def reconfigurable_slice_availability(
        self, cubes_per_slice: int, target: float = DEFAULT_TARGET
    ) -> Tuple[float, int]:
        """(empirical availability of one spared slice, spares used).

        A slice with its dedicated spare pool survives a trial when the
        number of failed cubes in the pool is at most the spare count --
        the reconfigurable fabric swaps failures for spares.
        """
        a_cube = cube_availability(self.server_availability)
        spares = spares_for_slice(cubes_per_slice, a_cube, target)
        rng = np.random.default_rng(self.seed)
        states = self._cube_states(rng, cubes_per_slice + spares)
        failures = (~states).sum(axis=1)
        return float((failures <= spares).mean()), spares

    def static_partition_survival(
        self, cubes_per_slice: int, k: int
    ) -> float:
        """Empirical P(at least k of the fixed slices are fully up)."""
        if k < 0:
            raise ConfigurationError("k must be non-negative")
        num_slices = POD_CUBES // cubes_per_slice
        rng = np.random.default_rng(self.seed)
        states = self._cube_states(rng, num_slices * cubes_per_slice)
        per_slice = states.reshape(self.trials, num_slices, cubes_per_slice)
        slices_up = np.all(per_slice, axis=2).sum(axis=1)
        return float((slices_up >= k).mean())


# ---------------------------------------------------------------------- #
# Availability x shape grids over the sweep engine (Fig 15b)
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class AvailabilityTask:
    """One grid point: a (server availability, slice shape) evaluation.

    Each point carries its own explicit seed, so the grid's values do
    not depend on the engine's seed splitting -- adding rows or columns
    never changes existing cells, and cached cells survive grid growth.
    """

    server_availability: float
    cubes_per_slice: int
    trials: int
    seed: int
    target: float = DEFAULT_TARGET


def _availability_point(task: AvailabilityTask) -> Tuple[float, int]:
    """Worker: empirical availability and spare count for one point."""
    mc = GoodputMonteCarlo(
        server_availability=task.server_availability,
        seed=task.seed,
        trials=task.trials,
    )
    return mc.reconfigurable_slice_availability(task.cubes_per_slice, task.target)


def _grid_tasks(
    server_availabilities: Sequence[float],
    cubes_per_slice: Sequence[int],
    trials: int,
    seed: int,
    target: float,
) -> List[AvailabilityTask]:
    return [
        AvailabilityTask(float(sa), int(cps), int(trials), int(seed), float(target))
        for sa in server_availabilities
        for cps in cubes_per_slice
    ]


def availability_grid(
    server_availabilities: Sequence[float],
    cubes_per_slice: Sequence[int],
    trials: int = 20_000,
    seed: int = 0,
    target: float = DEFAULT_TARGET,
    engine: Optional[SweepEngine] = None,
    cache_tag: Optional[str] = "availability.grid",
) -> Tuple[np.ndarray, np.ndarray]:
    """Empirical (availability, spares) over an availability x shape grid.

    Returns two arrays of shape ``(len(server_availabilities),
    len(cubes_per_slice))`` -- the Fig 15b validation surface, fanned out
    through the engine.  Bit-identical to :func:`availability_grid_serial`
    for any worker count or chunk size.
    """
    # The tasks take binomial tails, which :mod:`repro.availability.goodput`
    # imports lazily; load scipy.stats here so forked pool workers inherit
    # it instead of each importing it again.
    import scipy.stats  # noqa: F401

    engine = engine if engine is not None else SweepEngine(workers=1)
    tasks = _grid_tasks(server_availabilities, cubes_per_slice, trials, seed, target)
    tag = cache_tag if engine.cache is not None else None
    results = engine.pmap(_availability_point, tasks, cache_tag=tag)
    shape = (len(server_availabilities), len(cubes_per_slice))
    availability = np.array([a for a, _ in results]).reshape(shape)
    spares = np.array([s for _, s in results], dtype=int).reshape(shape)
    return availability, spares


def availability_grid_serial(
    server_availabilities: Sequence[float],
    cubes_per_slice: Sequence[int],
    trials: int = 20_000,
    seed: int = 0,
    target: float = DEFAULT_TARGET,
) -> Tuple[np.ndarray, np.ndarray]:
    """The plain-loop oracle for :func:`availability_grid`."""
    tasks = _grid_tasks(server_availabilities, cubes_per_slice, trials, seed, target)
    results = [_availability_point(t) for t in tasks]
    shape = (len(server_availabilities), len(cubes_per_slice))
    availability = np.array([a for a, _ in results]).reshape(shape)
    spares = np.array([s for _, s in results], dtype=int).reshape(shape)
    return availability, spares
