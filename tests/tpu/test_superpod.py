"""Tests for repro.tpu.superpod (Fig A.1 wiring + slice management)."""

import pytest

from repro.core.errors import CapacityError, ConfigurationError, SchedulingError, TopologyError
from repro.core.ids import CubeId, OcsId, SliceId
from repro.tpu.slice_topology import SliceTopology
from repro.tpu.superpod import NUM_CUBES, NUM_OCSES, Superpod, ocs_index


def make_slice(shape, cubes, name="s0"):
    return SliceTopology.compose(SliceId(name), shape, cubes)


@pytest.fixture
def pod():
    return Superpod()


class TestWiringArithmetic:
    def test_48_ocses(self):
        assert NUM_OCSES == 48

    def test_ocs_index_mapping(self):
        assert ocs_index("x", 0) == 0
        assert ocs_index("y", 0) == 16
        assert ocs_index("z", 15) == 47

    def test_ocs_index_validation(self):
        with pytest.raises(ConfigurationError):
            ocs_index("w", 0)
        with pytest.raises(ConfigurationError):
            ocs_index("x", 16)

    def test_pod_inventory(self, pod):
        assert pod.num_chips == 4096
        assert len(pod.manager.switch_ids) == 48
        assert len(pod.free_cubes()) == NUM_CUBES


class TestSliceConfiguration:
    def test_full_pod_symmetric_slice(self, pod):
        topo = make_slice((4, 4, 4), [CubeId(i) for i in range(64)])
        duration = pod.configure_slice(topo)
        assert duration > 0
        # Each of the 48 OCSes carries one circuit per cube.
        assert pod.total_circuits() == 48 * 64
        assert pod.utilization() == 1.0

    def test_asymmetric_slice(self, pod):
        topo = make_slice((1, 1, 64), [CubeId(i) for i in range(64)])
        pod.configure_slice(topo)
        z_circuits = pod.circuits_for_dim("z")
        # The z rings chain all 64 cubes: cube i -> cube i+1 mod 64.
        assert (0, 1) in z_circuits
        assert (63, 0) in z_circuits  # wraparound
        # x and y have extent 1: self-loops.
        assert all(n == s for n, s in pod.circuits_for_dim("x"))

    def test_single_cube_slice_self_loops(self, pod):
        topo = make_slice((1, 1, 1), [CubeId(5)])
        pod.configure_slice(topo)
        for dim in ("x", "y", "z"):
            assert pod.circuits_for_dim(dim) == {(5, 5)}

    def test_two_slices_coexist(self, pod):
        """Non-blocking OCS: a new slice never disturbs a running one."""
        a = make_slice((1, 1, 2), [CubeId(0), CubeId(1)], "a")
        b = make_slice((1, 1, 2), [CubeId(2), CubeId(3)], "b")
        pod.configure_slice(a)
        circuits_after_a = pod.circuits_for_dim("z")
        pod.configure_slice(b)
        assert circuits_after_a <= pod.circuits_for_dim("z")
        assert len(pod.slices()) == 2

    def test_overlapping_cubes_rejected(self, pod):
        pod.configure_slice(make_slice((1, 1, 2), [CubeId(0), CubeId(1)], "a"))
        with pytest.raises(SchedulingError):
            pod.configure_slice(make_slice((1, 1, 2), [CubeId(1), CubeId(2)], "b"))

    def test_duplicate_slice_id_rejected(self, pod):
        pod.configure_slice(make_slice((1, 1, 1), [CubeId(0)], "a"))
        with pytest.raises(SchedulingError):
            pod.configure_slice(make_slice((1, 1, 1), [CubeId(1)], "a"))

    def test_unhealthy_cube_rejected(self, pod):
        pod.cube(CubeId(3)).fail_host(0)
        with pytest.raises(SchedulingError):
            pod.configure_slice(make_slice((1, 1, 1), [CubeId(3)]))

    def test_release_restores_capacity(self, pod):
        topo = make_slice((1, 1, 4), [CubeId(i) for i in range(4)])
        pod.configure_slice(topo)
        pod.release_slice(SliceId("s0"))
        assert pod.total_circuits() == 0
        assert len(pod.free_cubes()) == NUM_CUBES

    def test_release_keeps_other_slices(self, pod):
        pod.configure_slice(make_slice((1, 1, 2), [CubeId(0), CubeId(1)], "a"))
        pod.configure_slice(make_slice((1, 1, 2), [CubeId(2), CubeId(3)], "b"))
        pod.release_slice(SliceId("a"))
        assert (2, 3) in pod.circuits_for_dim("z")
        assert (0, 1) not in pod.circuits_for_dim("z")

    def test_a_drifted_ocs_does_not_drag_its_dimension_along(self, pod):
        # A lost circuit on one OCS (a failed driver board, say) must not
        # be torn down on the other 15 OCSes of its dimension by an
        # unrelated slice change, nor re-made on the drifted one.
        pod.configure_slice(make_slice((1, 1, 2), [CubeId(0), CubeId(1)], "a"))
        z0 = pod.manager.switch(OcsId(ocs_index("z", 0))).state
        z1 = pod.manager.switch(OcsId(ocs_index("z", 1))).state
        z0.disconnect(0)
        pod.configure_slice(make_slice((1, 1, 2), [CubeId(4), CubeId(5)], "b"))
        assert z1.circuits == {(0, 1), (1, 0), (4, 5), (5, 4)}
        assert z0.circuits == {(1, 0), (4, 5), (5, 4)}

    def test_a_drifted_dimension_is_reported_not_summarised(self, pod):
        # One OCS of z loses a circuit: no one set of circuits describes
        # z any more, while the untouched y still answers.
        pod.configure_slice(make_slice((1, 1, 2), [CubeId(0), CubeId(1)], "a"))
        pod.manager.switch(OcsId(ocs_index("z", 0))).state.disconnect(0)
        with pytest.raises(TopologyError, match=r"z has drifted: face positions \[0\]"):
            pod.circuits_for_dim("z")
        assert pod.circuits_for_dim("y") == {(0, 0), (1, 1)}

    def test_unknown_slice(self, pod):
        with pytest.raises(TopologyError):
            pod.release_slice(SliceId("ghost"))


class TestCubeSwap:
    def test_swap_replaces_bad_cube(self, pod):
        topo = make_slice((1, 1, 4), [CubeId(i) for i in range(4)])
        pod.configure_slice(topo)
        pod.cube(CubeId(2)).fail_host(0)
        new_topo = pod.swap_cube(SliceId("s0"), CubeId(2))
        assert CubeId(2) not in new_topo.cube_ids
        assert len(new_topo.cube_ids) == 4
        # Fabric reflects the new ring: the replacement sits where cube 2 was.
        replacement = new_topo.cube_at((0, 0, 2))
        assert (1, replacement.index) in pod.circuits_for_dim("z")

    def test_swap_frees_bad_cube(self, pod):
        topo = make_slice((1, 1, 2), [CubeId(0), CubeId(1)])
        pod.configure_slice(topo)
        pod.swap_cube(SliceId("s0"), CubeId(1), CubeId(9))
        assert CubeId(1) in pod.free_cubes()
        assert CubeId(9) in pod.allocated_cubes()

    def test_swap_rejects_foreign_cube(self, pod):
        pod.configure_slice(make_slice((1, 1, 1), [CubeId(0)]))
        with pytest.raises(SchedulingError):
            pod.swap_cube(SliceId("s0"), CubeId(5))

    def test_swap_rejects_allocated_replacement(self, pod):
        pod.configure_slice(make_slice((1, 1, 1), [CubeId(0)], "a"))
        pod.configure_slice(make_slice((1, 1, 1), [CubeId(1)], "b"))
        with pytest.raises(SchedulingError):
            pod.swap_cube(SliceId("a"), CubeId(0), CubeId(1))

    def test_swap_without_spares(self):
        pod = Superpod(num_cubes=2)
        pod.configure_slice(make_slice((1, 1, 2), [CubeId(0), CubeId(1)]))
        with pytest.raises(CapacityError):
            pod.swap_cube(SliceId("s0"), CubeId(0))


class TestHealthTracking:
    def test_healthy_free_cubes_excludes_failed(self, pod):
        pod.cube(CubeId(0)).fail_host(3)
        assert CubeId(0) not in pod.healthy_free_cubes()
        assert CubeId(0) in pod.free_cubes()

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            Superpod(num_cubes=0)
        with pytest.raises(ConfigurationError):
            Superpod(num_cubes=200)
