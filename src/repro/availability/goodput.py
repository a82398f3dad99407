"""Goodput vs slice size under server availability (Fig 15b).

Setup (§4.2.2): a 64-cube pod, 16 hosts per cube (a cube works only when
all 16 are up), a 97% system-availability target, and slices of ``c``
cubes (64c TPUs).  Goodput is the fraction of the pod's TPUs inside
slices that meet the availability target.

**Reconfigurable fabric.**  Multi-cube slices reserve *dedicated* spare
cubes -- the fabric swaps a failed cube for a spare without touching
other jobs (job isolation), so each slice's pool must cover its own
failures: the smallest ``s`` with
``P(Binom(c + s, 1 - A_cube) <= s) >= target``.  Single-cube slices draw
from one shared pool instead (any spare substitutes directly), i.e. a
pod-level holdback ``h`` with ``P(failures <= h) >= target``.

**Static fabric.**  The pod is hard-wired into ``64 // c`` fixed slices;
a slice is up only when *its own* ``c`` cubes are all up, and no swap is
possible.  The countable slices are the largest ``k`` with
``P(at least k fixed slices up) >= target``.

These definitions reproduce the paper's anchor points: at 99.9% server
availability a 1024-TPU slice achieves 75% goodput reconfigurable vs 25%
static, and any 2048-TPU slice tops out at 50%.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.core.errors import ConfigurationError
from repro.tpu.cube import HOSTS_PER_CUBE

# scipy.stats (~70 MB resident) is imported inside the functions that
# take binomial tails: the fault, serving and drill layers import this
# package and never call them.

#: Paper's overall system availability target.
DEFAULT_TARGET = 0.97

#: Cubes per pod.
POD_CUBES = 64


def cube_availability(server_availability: float) -> float:
    """A cube is up iff all 16 of its hosts are up."""
    if not 0.0 < server_availability <= 1.0:
        raise ConfigurationError("server availability must be in (0, 1]")
    return server_availability ** HOSTS_PER_CUBE


def _check_slice(cubes_per_slice: int, pod_cubes: int) -> None:
    if cubes_per_slice <= 0 or cubes_per_slice > pod_cubes:
        raise ConfigurationError(
            f"slice size {cubes_per_slice} out of range [1, {pod_cubes}]"
        )


def spares_for_slice(
    cubes_per_slice: int, cube_avail: float, target: float = DEFAULT_TARGET
) -> int:
    """Smallest dedicated spare count meeting the slice availability target."""
    from scipy.stats import binom

    _check_slice(cubes_per_slice, POD_CUBES)
    p_fail = 1.0 - cube_avail
    for spares in range(0, POD_CUBES + 1):
        n = cubes_per_slice + spares
        if float(binom.cdf(spares, n, p_fail)) >= target:
            return spares
    raise ConfigurationError(
        f"no spare count within the pod meets target {target} at "
        f"cube availability {cube_avail:.4f}"
    )


def pooled_holdback(
    pod_cubes: int, cube_avail: float, target: float = DEFAULT_TARGET
) -> int:
    """Smallest pod-level holdback covering failures with the target
    confidence (used for single-cube slices on either fabric)."""
    from scipy.stats import binom

    p_fail = 1.0 - cube_avail
    for h in range(0, pod_cubes + 1):
        if float(binom.cdf(h, pod_cubes, p_fail)) >= target:
            return h
    return pod_cubes


def reconfigurable_goodput(
    cubes_per_slice: int,
    server_availability: float,
    target: float = DEFAULT_TARGET,
    pod_cubes: int = POD_CUBES,
) -> float:
    """Goodput of the reconfigurable lightwave fabric (Fig 15b solid)."""
    _check_slice(cubes_per_slice, pod_cubes)
    a_cube = cube_availability(server_availability)
    if cubes_per_slice == 1:
        usable = pod_cubes - pooled_holdback(pod_cubes, a_cube, target)
        return usable / pod_cubes
    spares = spares_for_slice(cubes_per_slice, a_cube, target)
    slices = pod_cubes // (cubes_per_slice + spares)
    return slices * cubes_per_slice / pod_cubes


def static_goodput(
    cubes_per_slice: int,
    server_availability: float,
    target: float = DEFAULT_TARGET,
    pod_cubes: int = POD_CUBES,
) -> float:
    """Goodput of the static fabric (Fig 15b dashed)."""
    from scipy.stats import binom

    _check_slice(cubes_per_slice, pod_cubes)
    a_cube = cube_availability(server_availability)
    if cubes_per_slice == 1:
        usable = pod_cubes - pooled_holdback(pod_cubes, a_cube, target)
        return usable / pod_cubes
    num_slices = pod_cubes // cubes_per_slice
    q = a_cube ** cubes_per_slice  # one fixed slice fully up
    best_k = 0
    for k in range(1, num_slices + 1):
        if float(binom.sf(k - 1, num_slices, q)) >= target:
            best_k = k
    return best_k * cubes_per_slice / pod_cubes


@dataclass(frozen=True)
class GoodputModel:
    """Convenience wrapper sweeping Fig 15b's axes."""

    target: float = DEFAULT_TARGET
    pod_cubes: int = POD_CUBES

    def curve(
        self,
        server_availability: float,
        slice_cubes: Sequence[int] = (1, 2, 4, 8, 16, 32),
    ) -> Dict[int, Tuple[float, float]]:
        """{cubes_per_slice: (reconfigurable, static)} goodputs."""
        out = {}
        for c in slice_cubes:
            out[c] = (
                reconfigurable_goodput(c, server_availability, self.target, self.pod_cubes),
                static_goodput(c, server_availability, self.target, self.pod_cubes),
            )
        return out

    def advantage(self, cubes_per_slice: int, server_availability: float) -> float:
        """Reconfigurable-to-static goodput ratio (abstract: up to 3x)."""
        static = static_goodput(
            cubes_per_slice, server_availability, self.target, self.pod_cubes
        )
        reconf = reconfigurable_goodput(
            cubes_per_slice, server_availability, self.target, self.pod_cubes
        )
        if static == 0.0:
            return float("inf") if reconf > 0 else 1.0
        return reconf / static
