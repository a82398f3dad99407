"""Tests for repro.faults.resilience (retry, backoff, rollback, isolation)."""

import numpy as np
import pytest

from repro.core.crossconnect import CrossConnectMap
from repro.core.errors import ConfigurationError, TransactionError
from repro.core.fabric_manager import FabricManager, SimpleSwitch
from repro.core.ids import LinkId, OcsId
from repro.faults.events import FaultKind, mirror_target, ocs_target
from repro.faults.injector import FaultInjector
from repro.faults.resilience import (
    ControlPlaneFaults,
    ResilientReconfigurer,
    RetryPolicy,
)

RADIX = 8


class RecordingMap(CrossConnectMap):
    """CrossConnectMap spy: logs every port-level mutation."""

    def __init__(self, radix: int):
        super().__init__(radix)
        self.ops = []

    def connect(self, north: int, south: int) -> None:
        self.ops.append(("connect", north, south))
        super().connect(north, south)

    def disconnect(self, north: int) -> int:
        self.ops.append(("disconnect", north))
        return super().disconnect(north)


class SpySwitch:
    """SwitchLike wrapper exposing a RecordingMap as its state."""

    def __init__(self, radix: int):
        self._state = RecordingMap(radix)

    @property
    def radix(self) -> int:
        return self._state.radix

    @property
    def state(self) -> RecordingMap:
        return self._state

    def apply_plan(self, plan) -> float:
        duration = plan.duration_ms()
        plan.apply(self._state)
        return duration


class UndoFailsSwitch(SimpleSwitch):
    """Programs its first plan, then raises on every later one (the undo)."""

    def __init__(self, radix: int):
        super().__init__(radix)
        self.applies = 0

    def apply_plan(self, plan) -> float:
        self.applies += 1
        if self.applies > 1:
            raise RuntimeError("injected undo failure")
        return super().apply_plan(plan)


def make_manager(num_switches=1, spy=False):
    mgr = FabricManager()
    for i in range(num_switches):
        sw = SpySwitch(RADIX) if spy else SimpleSwitch(RADIX)
        mgr.add_switch(OcsId(i), sw)
    return mgr


def target_with(mgr, ocs_id, **circuits):
    """Copy of the switch state with extra circuits n<i>=s applied."""
    target = mgr.switch(ocs_id).state.copy()
    for key, south in circuits.items():
        target.connect(int(key[1:]), south)
    return target


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ConfigurationError):
            RetryPolicy(base_backoff_ms=0.0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff_multiplier=0.5)
        with pytest.raises(ConfigurationError):
            RetryPolicy(jitter_fraction=1.0)

    def test_exponential_growth_and_cap(self):
        policy = RetryPolicy(
            base_backoff_ms=10.0,
            backoff_multiplier=10.0,
            backoff_cap_ms=40.0,
            jitter_fraction=0.0,
        )
        rng = np.random.default_rng(0)
        assert policy.backoff_ms(1, rng) == 10.0
        # 100 ms raw, capped; stays at the cap from then on.
        assert policy.backoff_ms(2, rng) == 40.0
        assert policy.backoff_ms(3, rng) == 40.0

    def test_jitter_is_bounded_and_seeded(self):
        policy = RetryPolicy(jitter_fraction=0.1, backoff_cap_ms=100.0)
        a = policy.backoff_ms(5, np.random.default_rng(4))
        b = policy.backoff_ms(5, np.random.default_rng(4))
        assert a == b
        assert 90.0 <= a <= 110.0


class TestControlPlaneFaults:
    def test_rpc_timeouts_are_consumed(self):
        faults = ControlPlaneFaults()
        faults.inject_rpc_timeouts(0, count=2)
        assert faults.rpc_attempt_fails(0)
        assert faults.rpc_attempt_fails(0)
        assert not faults.rpc_attempt_fails(0)
        assert not faults.rpc_attempt_fails(1)

    def test_injector_attachment_drives_state(self):
        inj = FaultInjector(seed=0)
        faults = ControlPlaneFaults().attach(inj)
        inj.schedule(1.0, FaultKind.RPC_TIMEOUT, ocs_target(2), severity=2.0)
        inj.schedule(2.0, FaultKind.MIRROR_STUCK, mirror_target(0, "N", 3))
        inj.schedule(3.0, FaultKind.MIRROR_STUCK, mirror_target(0, "N", 3), recovery=True)
        inj.advance_to(2.0)
        assert faults.rpc_attempt_fails(2) and faults.rpc_attempt_fails(2)
        assert not faults.rpc_attempt_fails(2)
        assert (0, "N", 3) in faults._stuck
        inj.advance_to(3.0)
        assert (0, "N", 3) not in faults._stuck


class TestTransactions:
    def test_clean_commit_single_attempt(self):
        mgr = make_manager()
        txn = ResilientReconfigurer(manager=mgr)
        result = txn.reconfigure({OcsId(0): target_with(mgr, OcsId(0), n0=1, n2=3)})
        assert result.attempts == {OcsId(0): 1}
        assert result.retries == 0
        assert mgr.switch(OcsId(0)).state.circuits == frozenset({(0, 1), (2, 3)})

    def test_retries_absorb_injected_timeouts(self):
        mgr = make_manager()
        faults = ControlPlaneFaults()
        faults.inject_rpc_timeouts(0, count=2)
        txn = ResilientReconfigurer(
            manager=mgr, policy=RetryPolicy(max_retries=3), faults=faults
        )
        result = txn.reconfigure({OcsId(0): target_with(mgr, OcsId(0), n0=1)})
        assert result.attempts == {OcsId(0): 3}
        assert result.total_attempts == 3
        assert result.retries == 2
        assert result.backoff_ms > 0
        assert mgr.switch(OcsId(0)).state.south_of(0) == 1

    def test_zero_retries_fails_fast(self):
        mgr = make_manager()
        pre = mgr.switch(OcsId(0)).state.copy()
        faults = ControlPlaneFaults()
        faults.inject_rpc_timeouts(0, count=1)
        txn = ResilientReconfigurer(
            manager=mgr, policy=RetryPolicy(max_retries=0), faults=faults
        )
        with pytest.raises(TransactionError) as err:
            txn.reconfigure({OcsId(0): target_with(mgr, OcsId(0), n0=1)})
        assert err.value.attempts == 1
        assert err.value.rolled_back
        assert err.value.ocs_id == OcsId(0)
        assert mgr.switch(OcsId(0)).state == pre

    def test_backoff_cap_reached_sums_exactly(self):
        mgr = make_manager()
        faults = ControlPlaneFaults()
        faults.inject_rpc_timeouts(0, count=3)
        policy = RetryPolicy(
            max_retries=3,
            base_backoff_ms=10.0,
            backoff_multiplier=10.0,
            backoff_cap_ms=40.0,
            jitter_fraction=0.0,
        )
        txn = ResilientReconfigurer(manager=mgr, policy=policy, faults=faults)
        result = txn.reconfigure({OcsId(0): target_with(mgr, OcsId(0), n0=1)})
        # Backoffs before retries 1..3: 10 + cap(100->40) + cap -> 90 ms.
        assert result.backoff_ms == pytest.approx(90.0)
        assert result.attempts == {OcsId(0): 4}

    def test_rollback_restores_exact_pre_transaction_maps(self):
        mgr = make_manager(num_switches=2)
        mgr.establish(LinkId("keep-a"), OcsId(0), 4, 5)
        mgr.establish(LinkId("keep-b"), OcsId(1), 6, 7)
        pre = {oid: mgr.switch(oid).state.copy() for oid in (OcsId(0), OcsId(1))}
        faults = ControlPlaneFaults()
        faults.inject_rpc_timeouts(1, count=10)  # second switch never lands
        txn = ResilientReconfigurer(
            manager=mgr, policy=RetryPolicy(max_retries=2), faults=faults
        )
        targets = {
            OcsId(0): target_with(mgr, OcsId(0), n0=1),
            OcsId(1): target_with(mgr, OcsId(1), n2=3),
        }
        with pytest.raises(TransactionError) as err:
            txn.reconfigure(targets)
        assert err.value.rolled_back
        assert err.value.ocs_id == OcsId(1)
        # Byte-exact restore on both the applied and the failed switch.
        assert mgr.switch(OcsId(0)).state == pre[OcsId(0)]
        assert mgr.switch(OcsId(1)).state == pre[OcsId(1)]
        # Pre-existing links survived the rollback.
        assert {link.link_id for link in mgr.links} == {
            LinkId("keep-a"),
            LinkId("keep-b"),
        }

    def test_failed_undo_still_rolls_back_the_other_switches(self):
        mgr = FabricManager()
        mgr.add_switch(OcsId(0), SimpleSwitch(RADIX))
        mgr.add_switch(OcsId(1), UndoFailsSwitch(RADIX))
        mgr.add_switch(OcsId(2), SimpleSwitch(RADIX))
        for i in range(3):
            mgr.establish(LinkId(f"l{i}"), OcsId(i), 0, 4)
        faults = ControlPlaneFaults()
        faults.inject_rpc_timeouts(2, count=10)  # switch 2 never lands
        txn = ResilientReconfigurer(
            manager=mgr, policy=RetryPolicy(max_retries=1), faults=faults
        )
        targets = {
            OcsId(i): CrossConnectMap.from_circuits(RADIX, {0: 5}) for i in range(3)
        }
        with pytest.raises(TransactionError) as err:
            txn.reconfigure(targets)
        assert not err.value.rolled_back
        assert err.value.ocs_id == OcsId(2)
        # Switch 1's undo raised; switch 0 is still restored, and the
        # link table drops the record switch 1 no longer carries.
        assert mgr.switch(OcsId(0)).state.south_of(0) == 4
        assert mgr.switch(OcsId(1)).state.south_of(0) == 5
        assert mgr.verify_links() == ()
        assert {link.link_id for link in mgr.links} == {LinkId("l0"), LinkId("l2")}

    def test_mirror_stuck_blocks_only_touching_plans(self):
        mgr = make_manager()
        faults = ControlPlaneFaults()
        faults.stick_mirror(0, "N", 6)  # unrelated port: must not interfere
        txn = ResilientReconfigurer(manager=mgr, faults=faults)
        result = txn.reconfigure({OcsId(0): target_with(mgr, OcsId(0), n0=1)})
        assert result.attempts == {OcsId(0): 1}
        faults.stick_mirror(0, "N", 2)
        with pytest.raises(TransactionError) as err:
            txn.reconfigure({OcsId(0): target_with(mgr, OcsId(0), n2=3)})
        assert "mirror stuck" in str(err.value)
        assert err.value.rolled_back


class TestJobIsolation:
    def test_untouched_circuits_never_glitch_mid_retry(self):
        mgr = make_manager(spy=True)
        mgr.establish(LinkId("tenant"), OcsId(0), 0, 0)  # the bystander job
        spy = mgr.switch(OcsId(0)).state
        spy.ops.clear()
        faults = ControlPlaneFaults()
        faults.inject_rpc_timeouts(0, count=2)
        txn = ResilientReconfigurer(
            manager=mgr, policy=RetryPolicy(max_retries=3), faults=faults
        )
        target = mgr.switch(OcsId(0)).state.copy()
        target.connect(1, 2)
        txn.reconfigure({OcsId(0): target})
        assert spy.ops == [("connect", 1, 2)]  # north 0 untouched throughout

    def test_untouched_circuits_survive_rollback_untouched(self):
        mgr = make_manager(spy=True)
        mgr.establish(LinkId("tenant"), OcsId(0), 0, 0)
        mgr.establish(LinkId("victim"), OcsId(0), 1, 1)
        spy = mgr.switch(OcsId(0)).state
        spy.ops.clear()
        faults = ControlPlaneFaults()
        faults.stick_mirror(0, "S", 2)  # the make 1->2 can never land
        txn = ResilientReconfigurer(
            manager=mgr, policy=RetryPolicy(max_retries=1), faults=faults
        )
        target = mgr.switch(OcsId(0)).state.copy()
        target.disconnect(1)
        target.connect(1, 2)
        with pytest.raises(TransactionError):
            txn.reconfigure({OcsId(0): target})
        # The attempt never reached the switch, so nothing moved at all --
        # and in particular the bystander on north 0 was never disturbed.
        assert all(op[1] != 0 for op in spy.ops)
        assert mgr.switch(OcsId(0)).state.south_of(0) == 0
        assert mgr.switch(OcsId(0)).state.south_of(1) == 1
