"""Tests for Superpod.apply_batch and mesh slices."""

import pytest

from repro.core.errors import SchedulingError, TopologyError
from repro.core.ids import CubeId, SliceId
from repro.tpu.slice_topology import SliceTopology
from repro.tpu.superpod import Superpod


def topo(name, shape, cubes, wrap=True):
    return SliceTopology.compose(SliceId(name), shape, cubes, wrap=wrap)


@pytest.fixture
def pod():
    return Superpod(num_cubes=16)


class TestApplyBatch:
    def test_batch_add_two_slices(self, pod):
        a = topo("a", (1, 1, 2), [CubeId(0), CubeId(1)])
        b = topo("b", (1, 1, 2), [CubeId(2), CubeId(3)])
        duration = pod.apply_batch(add=[a, b])
        assert duration > 0
        assert len(pod.slices()) == 2
        # One transaction per OCS, covering both slices.
        assert pod.manager.stats.transactions == 48

    def test_batch_swap_slices_atomically(self, pod):
        a = topo("a", (1, 1, 4), [CubeId(i) for i in range(4)])
        pod.configure_slice(a)
        before = pod.manager.stats.transactions
        b = topo("b", (2, 1, 2), [CubeId(i) for i in range(4)])
        pod.apply_batch(add=[b], remove=[SliceId("a")])
        assert pod.manager.stats.transactions == before + 48
        assert [str(s.slice_id) for s in pod.slices()] == ["b"]
        assert len(pod.allocated_cubes()) == 4

    def test_batch_reuses_freed_cubes(self, pod):
        a = topo("a", (1, 1, 2), [CubeId(0), CubeId(1)])
        pod.configure_slice(a)
        b = topo("b", (1, 1, 2), [CubeId(1), CubeId(5)])  # reuses cube 1
        pod.apply_batch(add=[b], remove=[SliceId("a")])
        assert pod.allocated_cubes() == {CubeId(1), CubeId(5)}

    def test_batch_rejects_cube_conflicts(self, pod):
        a = topo("a", (1, 1, 2), [CubeId(0), CubeId(1)])
        b = topo("b", (1, 1, 2), [CubeId(1), CubeId(2)])
        with pytest.raises(SchedulingError):
            pod.apply_batch(add=[a, b])
        assert pod.slices() == ()
        assert pod.total_circuits() == 0

    def test_batch_rejects_allocated_cube(self, pod):
        pod.configure_slice(topo("a", (1, 1, 1), [CubeId(0)]))
        with pytest.raises(SchedulingError):
            pod.apply_batch(add=[topo("b", (1, 1, 1), [CubeId(0)])])

    def test_batch_rejects_one_slice_id_twice(self, pod):
        # Two new slices under one id would program both slices' circuits
        # while the pod kept only the second.
        a = topo("a", (1, 1, 1), [CubeId(0)])
        a_again = topo("a", (1, 1, 1), [CubeId(1)], wrap=False)
        with pytest.raises(SchedulingError):
            pod.apply_batch(add=[a, a_again])
        assert pod.slices() == ()
        assert pod.total_circuits() == 0

    def test_batch_unknown_removal(self, pod):
        with pytest.raises(TopologyError):
            pod.apply_batch(remove=[SliceId("ghost")])

    def test_batch_rejects_unhealthy(self, pod):
        pod.cube(CubeId(3)).fail_host(0)
        with pytest.raises(SchedulingError):
            pod.apply_batch(add=[topo("a", (1, 1, 1), [CubeId(3)])])

    def test_empty_batch_noop(self, pod):
        duration = pod.apply_batch()
        assert duration == 0.0


class TestMeshSlices:
    def test_mesh_omits_wraparound(self, pod):
        mesh = topo("m", (1, 1, 4), [CubeId(i) for i in range(4)], wrap=False)
        pod.configure_slice(mesh)
        z = pod.circuits_for_dim("z")
        assert (0, 1) in z and (2, 3) in z
        assert (3, 0) not in z  # no wraparound

    def test_mesh_uses_fewer_circuits(self, pod):
        torus = topo("t", (1, 1, 4), [CubeId(i) for i in range(4)])
        mesh = topo("m", (1, 1, 4), [CubeId(i) for i in range(4, 8)], wrap=False)
        pod.configure_slice(torus)
        torus_circuits = pod.total_circuits()
        pod.configure_slice(mesh)
        mesh_circuits = pod.total_circuits() - torus_circuits
        assert mesh_circuits < torus_circuits

    def test_unit_dims_have_no_mesh_self_loops(self, pod):
        mesh = topo("m", (1, 1, 2), [CubeId(0), CubeId(1)], wrap=False)
        pod.configure_slice(mesh)
        # Extent-1 dims contribute nothing in a mesh (no wraparound).
        assert pod.circuits_for_dim("x") == set()
        assert pod.circuits_for_dim("z") == {(0, 1)}

    def test_str_mentions_kind(self):
        mesh = topo("m", (1, 1, 2), [CubeId(0), CubeId(1)], wrap=False)
        assert "mesh" in str(mesh)
        torus = topo("t", (1, 1, 2), [CubeId(0), CubeId(1)])
        assert "torus" in str(torus)
