"""A Hypothesis state machine over the Superpod's slice operations.

``configure_slice``, ``release_slice``, ``apply_batch`` and ``swap_cube``
each build one target cross-connect per dimension and hand it to all 16
OCSes of that dimension.  After every step the machine checks the fabric
against an oracle that shares none of that code: the union of the
configured slices' ``inter_cube_links()``.  It also checks that the
memoized state digest equals the one recomputed from nothing, and that
a step rejected with ``SchedulingError`` (or ``CapacityError`` when no
spare cube is left) leaves the pod exactly as it was.
"""

from typing import Dict, Set, Tuple

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core.errors import CapacityError, SchedulingError
from repro.core.fabric_manager import _scratch_state_digest
from repro.core.ids import CubeId, OcsId, SliceId
from repro.tpu.cube import DIMS, FACE_PORTS
from repro.tpu.slice_topology import SliceTopology
from repro.tpu.superpod import Superpod, ocs_index

NUM_CUBES = 8
SHAPES = st.sampled_from(
    [(1, 1, 1), (1, 1, 2), (1, 2, 1), (2, 1, 1), (1, 2, 2), (1, 1, 4)]
)
TAGS = st.sampled_from([f"s{i}" for i in range(6)])
CUBES = st.integers(min_value=0, max_value=NUM_CUBES - 1).map(CubeId)


def slice_topologies():
    """A slice over distinct in-pod cubes (allocated or not: the pod
    has to reject the clashes)."""
    return st.builds(
        lambda tag, shape, cubes, wrap: SliceTopology.compose(
            SliceId(tag), shape, cubes[: shape[0] * shape[1] * shape[2]], wrap=wrap
        ),
        TAGS,
        SHAPES,
        st.permutations([CubeId(i) for i in range(NUM_CUBES)]),
        st.booleans(),
    )


def oracle_circuits(pod: Superpod) -> Dict[str, Set[Tuple[int, int]]]:
    """Per-dimension circuits the configured slices need, from nothing
    but their own torus links."""
    out: Dict[str, Set[Tuple[int, int]]] = {dim: set() for dim in DIMS}
    for topology in pod.slices():
        for dim, a, b in topology.inter_cube_links():
            out[dim].add((a.index, b.index))
    return out


class SuperpodMachine(RuleBasedStateMachine):
    @initialize()
    def build(self):
        self.pod = Superpod(num_cubes=NUM_CUBES)

    def _fingerprint(self):
        pod = self.pod
        return (
            pod.manager.state_digest(),
            pod.slices(),
            dict(pod._allocated),
            pod.manager.stats.transactions,
        )

    def _rejectable(self, step):
        """Run ``step``; a rejection must change nothing."""
        before = self._fingerprint()
        try:
            step()
        except (SchedulingError, CapacityError):
            assert self._fingerprint() == before

    @rule(topology=slice_topologies())
    def configure(self, topology):
        self._rejectable(lambda: self.pod.configure_slice(topology))

    @precondition(lambda self: self.pod.slices())
    @rule(data=st.data())
    def release(self, data):
        topology = data.draw(st.sampled_from(self.pod.slices()))
        self.pod.release_slice(topology.slice_id)

    @rule(
        add=st.lists(slice_topologies(), max_size=2),
        data=st.data(),
    )
    def batch(self, add, data):
        remove = data.draw(
            st.lists(
                st.sampled_from([t.slice_id for t in self.pod.slices()] or [None]),
                max_size=2,
                unique=True,
            ).map(lambda ids: [sid for sid in ids if sid is not None])
        )
        self._rejectable(lambda: self.pod.apply_batch(add=add, remove=remove))

    @precondition(lambda self: self.pod.slices())
    @rule(data=st.data(), replacement=st.one_of(st.none(), CUBES))
    def swap(self, data, replacement):
        topology = data.draw(st.sampled_from(self.pod.slices()))
        bad = data.draw(st.sampled_from(topology.cube_ids))
        self._rejectable(
            lambda: self.pod.swap_cube(topology.slice_id, bad, replacement)
        )

    @rule(cube=CUBES, fail=st.booleans())
    def host_health(self, cube, fail):
        node = self.pod.cube(cube)
        if fail:
            node.fail_host(0)
        else:
            node.repair_host(0)

    @invariant()
    def dimensions_match_the_slices(self):
        want = oracle_circuits(self.pod)
        for dim in DIMS:
            for pos in range(FACE_PORTS):
                state = self.pod.manager.switch(OcsId(ocs_index(dim, pos))).state
                assert state.circuits == want[dim], (dim, pos)

    @invariant()
    def digest_matches_scratch(self):
        manager = self.pod.manager
        assert manager.state_digest() == _scratch_state_digest(manager)


SuperpodMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=15, deadline=None
)
TestSuperpodMachine = SuperpodMachine.TestCase
