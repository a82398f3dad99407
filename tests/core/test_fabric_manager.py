"""Tests for repro.core.fabric_manager."""

import pytest

from repro.core.crossconnect import CrossConnectMap
from repro.core.errors import (
    ConfigurationError,
    CrossConnectError,
    PartialTransactionError,
    TopologyError,
)
from repro.core.fabric_manager import FabricManager, SimpleSwitch
from repro.core.ids import LinkId, OcsId


class FlakySwitch(SimpleSwitch):
    """A switch whose apply_plan raises on command (programming fault)."""

    def __init__(self, radix: int):
        super().__init__(radix)
        self.fail_next = False

    def apply_plan(self, plan):
        if self.fail_next:
            self.fail_next = False
            raise RuntimeError("injected programming failure")
        return super().apply_plan(plan)


@pytest.fixture
def mgr():
    m = FabricManager()
    m.add_switch(OcsId(0), SimpleSwitch(8))
    m.add_switch(OcsId(1), SimpleSwitch(8))
    return m


class TestInventory:
    def test_add_and_get(self, mgr):
        assert mgr.switch(OcsId(0)).radix == 8
        assert mgr.switch_ids == (OcsId(0), OcsId(1))

    def test_duplicate_rejected(self, mgr):
        with pytest.raises(ConfigurationError):
            mgr.add_switch(OcsId(0), SimpleSwitch(8))

    def test_unknown_switch(self, mgr):
        with pytest.raises(TopologyError):
            mgr.switch(OcsId(9))


class TestLogicalLinks:
    def test_establish_and_lookup(self, mgr):
        link = mgr.establish(LinkId("a-b"), OcsId(0), north=1, south=2)
        assert mgr.link(LinkId("a-b")) == link
        assert mgr.switch(OcsId(0)).state.south_of(1) == 2
        assert mgr.num_circuits == 1

    def test_duplicate_link_rejected(self, mgr):
        mgr.establish(LinkId("x"), OcsId(0), 0, 0)
        with pytest.raises(ConfigurationError):
            mgr.establish(LinkId("x"), OcsId(1), 0, 0)

    def test_teardown(self, mgr):
        mgr.establish(LinkId("x"), OcsId(0), 0, 5)
        mgr.teardown(LinkId("x"))
        assert mgr.num_circuits == 0
        with pytest.raises(TopologyError):
            mgr.link(LinkId("x"))

    def test_teardown_unknown(self, mgr):
        with pytest.raises(TopologyError):
            mgr.teardown(LinkId("nope"))

    def test_links_sorted(self, mgr):
        mgr.establish(LinkId("b"), OcsId(0), 0, 0)
        mgr.establish(LinkId("a"), OcsId(0), 1, 1)
        assert [str(l.link_id) for l in mgr.links] == ["a", "b"]

    def test_verify_links_clean(self, mgr):
        mgr.establish(LinkId("x"), OcsId(0), 0, 5)
        assert mgr.verify_links() == ()

    def test_verify_links_detects_missing(self, mgr):
        mgr.establish(LinkId("x"), OcsId(0), 0, 5)
        mgr.switch(OcsId(0)).state.disconnect(0)  # out-of-band break
        assert mgr.verify_links() == (LinkId("x"),)


class TestTransactions:
    def test_reconfigure_applies_targets(self, mgr):
        target = CrossConnectMap.from_circuits(8, {0: 1, 2: 3})
        duration = mgr.reconfigure({OcsId(0): target})
        assert mgr.switch(OcsId(0)).state == target
        assert duration > 0

    def test_reconfigure_parallel_duration_is_max(self, mgr):
        t0 = CrossConnectMap.from_circuits(8, {0: 1})
        t1 = CrossConnectMap.from_circuits(8, {0: 1, 2: 3})
        duration = mgr.reconfigure({OcsId(0): t0, OcsId(1): t1})
        plans = mgr.plan({OcsId(0): t0, OcsId(1): t1})
        # After application both plans are noops; duration returned earlier
        # equals the max of the individual (equal-batch) plans.
        assert all(p.is_noop for p in plans.values())
        assert duration == pytest.approx(15.0)

    def test_reconfigure_radix_mismatch_aborts(self, mgr):
        bad = CrossConnectMap(16)
        with pytest.raises(CrossConnectError):
            mgr.reconfigure({OcsId(0): bad})
        # No partial application.
        assert mgr.num_circuits == 0

    def test_reconfigure_drops_stale_links(self, mgr):
        mgr.establish(LinkId("x"), OcsId(0), 0, 5)
        target = CrossConnectMap.from_circuits(8, {1: 1})
        mgr.reconfigure({OcsId(0): target})
        with pytest.raises(TopologyError):
            mgr.link(LinkId("x"))

    def test_reconfigure_preserves_matching_links(self, mgr):
        mgr.establish(LinkId("x"), OcsId(0), 0, 5)
        target = CrossConnectMap.from_circuits(8, {0: 5, 1: 1})
        mgr.reconfigure({OcsId(0): target})
        assert mgr.link(LinkId("x")).south == 5

    def test_stats_recorded(self, mgr):
        mgr.reconfigure({OcsId(0): CrossConnectMap.from_circuits(8, {0: 1})})
        assert mgr.stats.transactions == 1
        assert mgr.stats.circuits_made == 1


class TestPartialTransactionRollback:
    @pytest.fixture
    def flaky_mgr(self):
        m = FabricManager()
        for i in range(3):
            m.add_switch(OcsId(i), FlakySwitch(8))
            m.establish(LinkId(f"l{i}"), OcsId(i), 0, 4)
        return m

    def test_failure_on_second_switch_restores_first(self, flaky_mgr):
        targets = {
            OcsId(i): CrossConnectMap.from_circuits(8, {0: 5}) for i in range(3)
        }
        flaky_mgr.switch(OcsId(1)).fail_next = True
        with pytest.raises(PartialTransactionError) as exc:
            flaky_mgr.reconfigure(targets)
        err = exc.value
        assert err.ocs_id == OcsId(1)
        assert err.applied == (OcsId(0),)
        assert err.unapplied == (OcsId(1), OcsId(2))
        assert err.rolled_back
        # Every switch is back at its pre-transaction state: no partial
        # application survives, and the link table still verifies clean.
        for i in range(3):
            assert flaky_mgr.switch(OcsId(i)).state.south_of(0) == 4
        assert flaky_mgr.verify_links() == ()

    def test_failure_on_first_switch_rolls_nothing(self, flaky_mgr):
        targets = {OcsId(0): CrossConnectMap.from_circuits(8, {0: 5})}
        flaky_mgr.switch(OcsId(0)).fail_next = True
        with pytest.raises(PartialTransactionError) as exc:
            flaky_mgr.reconfigure(targets)
        assert exc.value.applied == ()
        assert exc.value.rolled_back  # vacuously restored
        assert flaky_mgr.switch(OcsId(0)).state.south_of(0) == 4

    def test_rollback_carries_on_past_a_failed_undo(self, flaky_mgr):
        plans = flaky_mgr.plan(
            {OcsId(i): CrossConnectMap.from_circuits(8, {0: 5}) for i in range(3)}
        )
        applied = [(oid, plans[oid]) for oid in sorted(plans)]
        for oid, plan in applied:
            flaky_mgr.apply_switch_plan(oid, plan)
        flaky_mgr.switch(OcsId(1)).fail_next = True
        assert not flaky_mgr.rollback(applied)
        assert [flaky_mgr.switch(OcsId(i)).state.south_of(0) for i in range(3)] == [
            4, 5, 4
        ]
        # The undo is neither counted as a reconfiguration nor traced.
        assert flaky_mgr.stats.transactions == 3

    def test_rollback_reports_a_switch_that_drifted(self, flaky_mgr):
        plan = flaky_mgr.plan({OcsId(0): CrossConnectMap.from_circuits(8, {0: 5})})[
            OcsId(0)
        ]
        flaky_mgr.apply_switch_plan(OcsId(0), plan)
        flaky_mgr.switch(OcsId(0)).state.connect(1, 1)  # out-of-band circuit
        assert not flaky_mgr.rollback([(OcsId(0), plan)])
        assert flaky_mgr.switch(OcsId(0)).state.south_of(0) == 4

    def test_chains_original_cause(self, flaky_mgr):
        flaky_mgr.switch(OcsId(0)).fail_next = True
        with pytest.raises(PartialTransactionError) as exc:
            flaky_mgr.reconfigure({OcsId(0): CrossConnectMap.from_circuits(8, {0: 5})})
        assert isinstance(exc.value.__cause__, RuntimeError)


class TestTeardownValidatesFirst:
    def test_drifted_circuit_keeps_record(self, mgr):
        mgr.establish(LinkId("x"), OcsId(0), 0, 5)
        state = mgr.switch(OcsId(0)).state
        state.disconnect(0)
        state.connect(0, 6)  # out-of-band drift to the wrong peer
        with pytest.raises(CrossConnectError):
            mgr.teardown(LinkId("x"))
        # The record survives for the reconciler, and the wrong-peer
        # circuit was not torn down blindly.
        assert mgr.link(LinkId("x")).south == 5
        assert state.south_of(0) == 6
        assert mgr.verify_links() == (LinkId("x"),)

    def test_missing_circuit_keeps_record(self, mgr):
        mgr.establish(LinkId("x"), OcsId(0), 0, 5)
        mgr.switch(OcsId(0)).state.disconnect(0)
        with pytest.raises(CrossConnectError):
            mgr.teardown(LinkId("x"))
        assert mgr.link(LinkId("x")).south == 5


class TestDurability:
    def test_checkpoint_restore_roundtrip(self, mgr):
        mgr.establish(LinkId("x"), OcsId(0), 0, 5)
        mgr.establish(LinkId("y"), OcsId(1), 2, 3)
        snapshot = mgr.checkpoint()
        digest = mgr.state_digest()
        fresh = FabricManager()
        fresh.add_switch(OcsId(0), SimpleSwitch(8))
        fresh.add_switch(OcsId(1), SimpleSwitch(8))
        fresh.restore(snapshot)
        assert fresh.state_digest() == digest
        assert fresh.link(LinkId("y")).north == 2
        assert fresh.verify_links() == ()

    def test_restore_rejects_radix_mismatch(self, mgr):
        snapshot = mgr.checkpoint()
        bad = FabricManager()
        bad.add_switch(OcsId(0), SimpleSwitch(4))
        bad.add_switch(OcsId(1), SimpleSwitch(4))
        with pytest.raises(ConfigurationError):
            bad.restore(snapshot)

    def test_digest_tracks_links_not_just_hardware(self, mgr):
        mgr.establish(LinkId("x"), OcsId(0), 0, 5)
        with_link = mgr.state_digest()
        other = FabricManager()
        other.add_switch(OcsId(0), SimpleSwitch(8))
        other.add_switch(OcsId(1), SimpleSwitch(8))
        other.switch(OcsId(0)).state.connect(0, 5)  # same circuit, no link
        assert other.state_digest() != with_link
