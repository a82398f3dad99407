"""The TPU v4 superpod: 64 cubes cross-connected by 48 OCSes (Fig A.1).

Wiring convention (Appendix A): for each dimension ``d`` (x, y, z) and
face position ``p`` (the 16 positions of a 4x4 face) there is one OCS.
Every cube lands its "+d" face link at position ``p`` on that OCS's north
port ``cube_index`` and its "-d" face link on south port ``cube_index``.
A torus edge "cube A +d -> cube B -d" is then the circuit
``N[A] -> S[B]`` on each of the 16 OCSes of dimension ``d`` -- including
the self-loop ``N[A] -> S[A]`` that closes a dimension of extent one.

The 16 OCSes of a dimension carry identical cube-level patterns until
hardware drifts (a failed driver board drops one OCS's circuits), so
slice configuration builds one target cross-connect per distinct
pattern in a dimension -- one, on a healthy pod -- and shares it.
Slices over disjoint cube sets touch disjoint ports, so the non-blocking
OCS schedules new slices without disturbing running ones (§4.2.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.core.crossconnect import CrossConnectMap
from repro.core.errors import (
    CapacityError,
    ConfigurationError,
    SchedulingError,
    TopologyError,
)
from repro.core.fabric_manager import FabricManager, SimpleSwitch
from repro.core.ids import CubeId, OcsId, SliceId
from repro.ocs.palomar import PALOMAR_RADIX, PalomarOcs
from repro.tpu.cube import Cube, DIMS, FACE_PORTS
from repro.tpu.slice_topology import SliceTopology

#: Cubes per superpod.
NUM_CUBES = 64

#: OCSes per superpod: 6 faces x 16 positions / 2 (+/- share an OCS).
NUM_OCSES = len(DIMS) * FACE_PORTS


def ocs_index(dim: str, face_pos: int) -> int:
    """OCS serving (dimension, face position)."""
    if dim not in DIMS:
        raise ConfigurationError(f"dim must be one of {DIMS}, got {dim!r}")
    if not 0 <= face_pos < FACE_PORTS:
        raise ConfigurationError(f"face position {face_pos} out of range")
    return DIMS.index(dim) * FACE_PORTS + face_pos


@dataclass
class Superpod:
    """A 4096-chip TPU v4 superpod with a reconfigurable lightwave fabric.

    Args:
        detailed_optics: build full Palomar device models (slower) instead
            of map-only switches.
    """

    num_cubes: int = NUM_CUBES
    detailed_optics: bool = False
    seed: int = 0
    manager: FabricManager = field(default_factory=FabricManager)
    cubes: List[Cube] = field(default_factory=list)
    _slices: Dict[SliceId, SliceTopology] = field(default_factory=dict, repr=False)
    _allocated: Dict[CubeId, SliceId] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if not 1 <= self.num_cubes <= PALOMAR_RADIX:
            raise ConfigurationError(
                f"cube count must be in [1, {PALOMAR_RADIX}], got {self.num_cubes}"
            )
        if not self.cubes:
            self.cubes = [Cube(CubeId(i)) for i in range(self.num_cubes)]
        if len(self.cubes) != self.num_cubes:
            raise ConfigurationError("cube list does not match num_cubes")
        for i in range(NUM_OCSES):
            if self.detailed_optics:
                switch = PalomarOcs.build(name=f"ocs-{i}", seed=self.seed + i)
            else:
                switch = SimpleSwitch(PALOMAR_RADIX)
            self.manager.add_switch(OcsId(i), switch)

    # ------------------------------------------------------------------ #
    # Inventory
    # ------------------------------------------------------------------ #

    def cube(self, cube_id: CubeId) -> Cube:
        if not 0 <= cube_id.index < self.num_cubes:
            raise TopologyError(f"unknown cube {cube_id}")
        return self.cubes[cube_id.index]

    @property
    def num_chips(self) -> int:
        return self.num_cubes * 64

    def allocated_cubes(self) -> Set[CubeId]:
        return set(self._allocated)

    def free_cubes(self) -> List[CubeId]:
        """Unallocated cubes, ascending."""
        return [
            c.cube_id for c in self.cubes if c.cube_id not in self._allocated
        ]

    def healthy_free_cubes(self) -> List[CubeId]:
        """Unallocated cubes whose 16 hosts are all up."""
        return [
            c.cube_id
            for c in self.cubes
            if c.cube_id not in self._allocated and c.healthy
        ]

    def slices(self) -> Tuple[SliceTopology, ...]:
        return tuple(self._slices[k] for k in sorted(self._slices))

    def slice(self, slice_id: SliceId) -> SliceTopology:
        try:
            return self._slices[slice_id]
        except KeyError:
            raise TopologyError(f"unknown slice {slice_id}") from None

    # ------------------------------------------------------------------ #
    # Slice configuration
    # ------------------------------------------------------------------ #

    def configure_slice(self, topology: SliceTopology) -> float:
        """Program the fabric to realize ``topology``; returns duration (ms).

        Every cube must be free and healthy.  Running slices are untouched
        (their circuits appear unchanged in the per-OCS hitless plans).
        """
        if topology.slice_id in self._slices:
            raise SchedulingError(f"slice {topology.slice_id} already configured")
        for cube_id in topology.cube_ids:
            if cube_id in self._allocated:
                raise SchedulingError(
                    f"{cube_id} is already allocated to {self._allocated[cube_id]}"
                )
            if not self.cube(cube_id).healthy:
                raise SchedulingError(f"{cube_id} is unhealthy")
            if cube_id.index >= self.num_cubes:
                raise CapacityError(f"{cube_id} outside this pod")

        targets = self._targets_with(add=[topology])
        duration = self.manager.reconfigure(targets)
        self._slices[topology.slice_id] = topology
        for cube_id in topology.cube_ids:
            self._allocated[cube_id] = topology.slice_id
        return duration

    def release_slice(self, slice_id: SliceId) -> float:
        """Tear down a slice's circuits; returns duration (ms)."""
        topology = self.slice(slice_id)
        targets = self._targets_with(remove=[topology])
        duration = self.manager.reconfigure(targets)
        del self._slices[slice_id]
        for cube_id in topology.cube_ids:
            del self._allocated[cube_id]
        return duration

    def apply_batch(
        self,
        add: Sequence[SliceTopology] = (),
        remove: Sequence[SliceId] = (),
    ) -> float:
        """Apply several slice changes in ONE fabric transaction.

        The cluster scheduler batches placement decisions (§4.2.4): every
        OCS sees a single hitless plan covering all additions and
        removals, so the whole batch costs one mirror-settle round instead
        of one per slice.  Validation runs up front; a bad batch changes
        nothing.
        """
        removals = [self.slice(sid) for sid in remove]
        removed_cubes = {c for t in removals for c in t.cube_ids}
        seen_new: Set[CubeId] = set()
        seen_ids: Set[SliceId] = set()
        for topology in add:
            if topology.slice_id in seen_ids or (
                topology.slice_id in self._slices and topology.slice_id not in set(remove)
            ):
                raise SchedulingError(f"slice {topology.slice_id} already configured")
            seen_ids.add(topology.slice_id)
            for cube_id in topology.cube_ids:
                if cube_id in seen_new:
                    raise SchedulingError(f"{cube_id} appears in two new slices")
                seen_new.add(cube_id)
                allocated_to = self._allocated.get(cube_id)
                if allocated_to is not None and allocated_to not in set(remove):
                    raise SchedulingError(
                        f"{cube_id} is already allocated to {allocated_to}"
                    )
                if not self.cube(cube_id).healthy:
                    raise SchedulingError(f"{cube_id} is unhealthy")
        targets = self._targets_with(add=list(add), remove=removals)
        duration = self.manager.reconfigure(targets)
        for sid, topology in zip(remove, removals):
            del self._slices[sid]
            for cube_id in topology.cube_ids:
                del self._allocated[cube_id]
        for topology in add:
            self._slices[topology.slice_id] = topology
            for cube_id in topology.cube_ids:
                self._allocated[cube_id] = topology.slice_id
        return duration

    def swap_cube(
        self, slice_id: SliceId, bad: CubeId, replacement: Optional[CubeId] = None
    ) -> SliceTopology:
        """Replace one cube of a running slice (the availability lever).

        The replacement must be free and healthy; defaults to the first
        such cube.  The slice's other circuits are preserved where the
        cube-level pattern is unchanged.
        """
        topology = self.slice(slice_id)
        if bad not in topology.cube_ids:
            raise SchedulingError(f"{bad} is not part of {slice_id}")
        if replacement is None:
            candidates = self.healthy_free_cubes()
            if not candidates:
                raise CapacityError("no healthy spare cube available")
            replacement = candidates[0]
        if replacement in self._allocated:
            raise SchedulingError(f"{replacement} is already allocated")
        if not self.cube(replacement).healthy:
            raise SchedulingError(f"{replacement} is unhealthy")
        new_assignment = tuple(
            (coord, replacement if cid == bad else cid)
            for coord, cid in topology.assignment
        )
        new_topology = SliceTopology(
            slice_id=slice_id,
            shape_cubes=topology.shape_cubes,
            assignment=new_assignment,
        )
        targets = self._targets_with(remove=[topology], add=[new_topology])
        self.manager.reconfigure(targets)
        self._slices[slice_id] = new_topology
        del self._allocated[bad]
        self._allocated[replacement] = slice_id
        return new_topology

    # ------------------------------------------------------------------ #
    # Target construction
    # ------------------------------------------------------------------ #

    def _slice_circuits(self, topology: SliceTopology) -> Dict[str, Set[Tuple[int, int]]]:
        """Per-dimension cube-level circuits: {dim: {(north, south)}}."""
        out: Dict[str, Set[Tuple[int, int]]] = {d: set() for d in DIMS}
        for dim, a, b in topology.inter_cube_links():
            out[dim].add((a.index, b.index))
        return out

    def _targets_with(
        self,
        add: Sequence[SliceTopology] = (),
        remove: Sequence[SliceTopology] = (),
    ) -> Dict[OcsId, CrossConnectMap]:
        """Current state plus/minus slices' circuits, for all 48 OCSes.

        OCSes of one dimension holding the same circuits share one target
        map (planning only reads targets), so a healthy dimension builds
        one.  An OCS that drifted from its dimension, e.g. after a driver
        board failure, keeps its own state plus/minus the change.
        """
        added: Dict[str, Set[Tuple[int, int]]] = {d: set() for d in DIMS}
        removed: Dict[str, Set[Tuple[int, int]]] = {d: set() for d in DIMS}
        for topo in add:
            for dim, circuits in self._slice_circuits(topo).items():
                added[dim] |= circuits
        for topo in remove:
            for dim, circuits in self._slice_circuits(topo).items():
                removed[dim] |= circuits
        targets: Dict[OcsId, CrossConnectMap] = {}
        for dim in DIMS:
            built: Dict[FrozenSet[Tuple[int, int]], CrossConnectMap] = {}
            for pos in range(FACE_PORTS):
                oid = OcsId(ocs_index(dim, pos))
                current = self.manager.switch(oid).state.circuits
                target = built.get(current)
                if target is None:
                    circuits = (current - removed[dim]) | added[dim]
                    target = built[current] = CrossConnectMap.from_circuits(
                        PALOMAR_RADIX, dict(sorted(circuits))
                    )
                targets[oid] = target
        return targets

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def topology_graph(self, slice_id: SliceId, level: str = "cube"):
        """The slice's connectivity as a networkx graph.

        ``level="cube"`` yields one node per cube with torus edges between
        them; ``level="chip"`` expands to the full chip-level torus
        (intra-cube electrical edges plus the optical inter-cube edges).
        Useful for adopters who want to run their own graph analyses.
        """
        import networkx as nx

        topology = self.slice(slice_id)
        g = nx.MultiGraph() if level == "cube" else nx.Graph()
        if level == "cube":
            for coord, cid in topology.assignment:
                g.add_node(cid, coord=coord)
            for dim, a, b in topology.inter_cube_links():
                g.add_edge(a, b, dim=dim, kind="optical")
            return g
        if level != "chip":
            raise ConfigurationError(f"level must be 'cube' or 'chip', got {level!r}")
        sx, sy, sz = topology.chip_shape
        wrap = topology.wrap
        for x in range(sx):
            for y in range(sy):
                for z in range(sz):
                    g.add_node((x, y, z))
        for x in range(sx):
            for y in range(sy):
                for z in range(sz):
                    for axis, extent in ((0, sx), (1, sy), (2, sz)):
                        coord = [x, y, z]
                        if coord[axis] + 1 < extent:
                            nxt = list(coord)
                            nxt[axis] += 1
                        elif wrap and extent > 1:
                            nxt = list(coord)
                            nxt[axis] = 0
                        else:
                            continue
                        crosses = (coord[axis] // 4) != (nxt[axis] // 4) or (
                            coord[axis] + 1 == extent and nxt[axis] == 0 and extent > 4
                        )
                        g.add_edge(
                            tuple(coord),
                            tuple(nxt),
                            kind="optical" if crosses else "electrical",
                        )
        return g

    def circuits_for_dim(self, dim: str) -> Set[Tuple[int, int]]:
        """Cube-level circuits currently programmed for ``dim``.

        Raises :class:`TopologyError` when the dimension's OCSes have
        drifted apart (no one set of circuits describes it then), naming
        the face positions that differ from the most common pattern.
        """
        positions: Dict[FrozenSet[Tuple[int, int]], List[int]] = {}
        for pos in range(FACE_PORTS):
            circuits = self.manager.switch(OcsId(ocs_index(dim, pos))).state.circuits
            positions.setdefault(circuits, []).append(pos)
        common = max(positions, key=lambda c: len(positions[c]))
        if len(positions) > 1:
            drifted = sorted(set(range(FACE_PORTS)) - set(positions[common]))
            raise TopologyError(
                f"dimension {dim} has drifted: face positions {drifted} "
                "differ from the others"
            )
        return set(common)

    def total_circuits(self) -> int:
        return self.manager.num_circuits

    def utilization(self) -> float:
        """Fraction of cubes currently allocated to slices."""
        return len(self._allocated) / self.num_cubes

    def __str__(self) -> str:
        return (
            f"Superpod({self.num_cubes} cubes, {len(self._slices)} slices, "
            f"util {self.utilization():.0%})"
        )
