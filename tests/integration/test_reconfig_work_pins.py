"""Host-independent work pins for fabric transactions.

Wall time on a shared host is noisy; call counts are not.  A transaction
undoes itself through its plans, so it copies no switch state, on commit
or on rollback; and a slice change builds one target map per torus
dimension, not one per OCS.
"""

import pytest

from repro.core.crossconnect import CrossConnectMap
from repro.core.errors import PartialTransactionError, TransactionError
from repro.core.fabric_manager import FabricManager, SimpleSwitch
from repro.core.ids import CubeId, LinkId, OcsId, SliceId
from repro.faults.resilience import (
    ControlPlaneFaults,
    ResilientReconfigurer,
    RetryPolicy,
)
from repro.tpu.cube import DIMS
from repro.tpu.slice_topology import SliceTopology
from repro.tpu.superpod import Superpod


@pytest.fixture
def calls(monkeypatch):
    """Counts of ``CrossConnectMap.copy`` and ``from_circuits`` calls."""
    counts = {"copy": 0, "from_circuits": 0}
    copy = CrossConnectMap.copy
    from_circuits = CrossConnectMap.from_circuits.__func__

    def counted_copy(self):
        counts["copy"] += 1
        return copy(self)

    def counted_from_circuits(cls, radix, circuits):
        counts["from_circuits"] += 1
        return from_circuits(cls, radix, circuits)

    monkeypatch.setattr(CrossConnectMap, "copy", counted_copy)
    monkeypatch.setattr(
        CrossConnectMap, "from_circuits", classmethod(counted_from_circuits)
    )
    return counts


class FailingSwitch(SimpleSwitch):
    """A map-only switch whose programming always raises."""

    def apply_plan(self, plan):
        raise RuntimeError("injected programming failure")


def fleet(last_fails=False):
    mgr = FabricManager()
    for i in range(3):
        failing = last_fails and i == 2
        mgr.add_switch(OcsId(i), FailingSwitch(8) if failing else SimpleSwitch(8))
        mgr.establish(LinkId(f"l{i}"), OcsId(i), 0, 4)
    targets = {
        OcsId(i): CrossConnectMap.from_circuits(8, {0: 5, 1: 1}) for i in range(3)
    }
    return mgr, targets


class TestNoStateCopies:
    def test_commit(self, calls):
        mgr, targets = fleet()
        mgr.reconfigure(targets)
        assert calls["copy"] == 0

    def test_partial_transaction_rollback(self, calls):
        mgr, targets = fleet(last_fails=True)
        with pytest.raises(PartialTransactionError) as err:
            mgr.reconfigure(targets)
        assert err.value.rolled_back
        assert calls["copy"] == 0

    def test_resilient_commit(self, calls):
        mgr, targets = fleet()
        ResilientReconfigurer(manager=mgr).reconfigure(targets)
        assert calls["copy"] == 0

    def test_resilient_rollback(self, calls):
        mgr, targets = fleet()
        faults = ControlPlaneFaults()
        faults.inject_rpc_timeouts(2, count=10)
        txn = ResilientReconfigurer(
            manager=mgr, policy=RetryPolicy(max_retries=1), faults=faults
        )
        with pytest.raises(TransactionError) as err:
            txn.reconfigure(targets)
        assert err.value.rolled_back
        assert calls["copy"] == 0


def test_configure_slice_builds_one_target_per_dimension(calls):
    pod = Superpod(num_cubes=8)
    pod.configure_slice(
        SliceTopology.compose(
            SliceId("a"), (1, 2, 2), [CubeId(i) for i in range(4)]
        )
    )
    assert calls == {"copy": 0, "from_circuits": len(DIMS)}
    pod.release_slice(SliceId("a"))
    assert calls == {"copy": 0, "from_circuits": 2 * len(DIMS)}
