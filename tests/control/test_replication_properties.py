"""Hypothesis properties of the replicated control plane.

For *any* injected fault timeline (replica crashes, single-node
isolations, group partitions, and clock skews at arbitrary instants),
with a client submitting through failover sweeps and deposed leaders
injecting writes whenever they exist:

- at most one leader commits per epoch (the fencing-token safety pin);
- no client-acknowledged commit is ever lost, at any point in the run;
- nothing the client was told failed ever commits: the committed
  operations are exactly the acknowledged ones, in order;
- after the faults clear, the live state digest equals a from-scratch
  serial replay of the committed log, byte for byte.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import NotLeaderError, QuorumError
from repro.core.fabric_manager import FabricManager, SimpleSwitch
from repro.core.ids import OcsId
from repro.faults.events import (
    FaultKind,
    controller_target,
    network_target,
    partition_groups_param,
)
from repro.faults.injector import FaultInjector
from repro.control.replication import ReplicationGroup

NUM_REPLICAS = 3
HORIZON_S = 8.0
SETTLE_S = HORIZON_S + 3.0  # every clear_after below lands before this

fault_timeline = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=HORIZON_S),
        st.sampled_from(["crash", "isolate", "split", "skew"]),
        st.integers(min_value=0, max_value=NUM_REPLICAS - 1),
        st.floats(min_value=-3.0, max_value=3.0),   # skew magnitude
        st.floats(min_value=0.3, max_value=2.0),    # clear_after_s
    ),
    min_size=0,
    max_size=12,
)


def build_manager() -> FabricManager:
    mgr = FabricManager()
    mgr.add_switch(OcsId(0), SimpleSwitch(16))
    return mgr


def schedule_timeline(injector: FaultInjector, events) -> None:
    for time_s, kind, index, skew, clear_after_s in sorted(
        events, key=lambda e: (e[0], e[1], e[2])
    ):
        if kind == "crash":
            injector.schedule(
                time_s, FaultKind.CONTROLLER_CRASH, controller_target(index),
                severity=1.0, clear_after_s=clear_after_s,
            )
        elif kind == "isolate":
            injector.schedule(
                time_s, FaultKind.NETWORK_PARTITION, controller_target(index),
                clear_after_s=clear_after_s,
            )
        elif kind == "split":
            rest = sorted(set(range(NUM_REPLICAS)) - {index})
            injector.schedule(
                time_s, FaultKind.NETWORK_PARTITION, network_target("control"),
                params=(partition_groups_param([[index], rest]),),
                clear_after_s=clear_after_s,
            )
        else:  # skew
            injector.schedule(
                time_s, FaultKind.CLOCK_SKEW, controller_target(index),
                severity=skew, clear_after_s=clear_after_s,
            )


def submit_with_failover(group: ReplicationGroup, payload, now_s, token) -> bool:
    """The serving layer's breaker edge in miniature: one election sweep
    over client-reachable live replicas, then one retry."""
    for _ in range(2):
        try:
            group.submit(payload, now_s, token=token)
            return True
        except (NotLeaderError, QuorumError):
            pass
        for i in range(NUM_REPLICAS):
            if not group.nodes[i].up or not group.client_reachable(i):
                continue
            try:
                group.elect(i, now_s)
                break
            except QuorumError:
                continue
        else:
            return False
    return False


def run_storm(events, seed: int) -> ReplicationGroup:
    group = ReplicationGroup(
        num_replicas=NUM_REPLICAS, manager_factory=build_manager, lease_s=0.4
    )
    group.elect(0, 0.0)
    injector = FaultInjector(seed=seed)
    group.attach_faults(injector)
    schedule_timeline(injector, events)

    k = 0
    now = 0.0
    while now < SETTLE_S:
        now = round(now + 0.25, 9)
        injector.advance_to(now)
        payload = {"op": "retarget", "changes": [[0, k % 8, 8 + ((k // 3) % 8)]]}
        submit_with_failover(group, payload, now, token=f"op-{k}")
        k += 1
        # Deposed-leader writes: any stale LEADER's in-flight commit must
        # be fenced, never double-applied.  A ReplicationError escaping
        # here IS the two-leaders-per-epoch violation and fails the test.
        for node in group.nodes:
            if node.index == group.leader_index or node.role.value != "leader":
                continue
            try:
                group.submit_as(
                    node.index, {"op": "noop", "reason": "stale"}, now
                )
            except (NotLeaderError, QuorumError):
                pass
        # Acked commits must survive *every* intermediate state, not
        # just the final healed one.
        assert group.committed_ops_lost() == 0
    group.finalize_outage(SETTLE_S)
    return group


@settings(max_examples=20, deadline=None)
@given(events=fault_timeline, seed=st.integers(min_value=0, max_value=50))
def test_no_committed_op_lost_for_any_fault_timeline(events, seed):
    group = run_storm(events, seed)
    assert group.committed_ops_lost() == 0
    assert group.commits == len(group.acked_commits())


@settings(max_examples=20, deadline=None)
@given(events=fault_timeline, seed=st.integers(min_value=0, max_value=50))
def test_at_most_one_leader_commits_per_epoch(events, seed):
    group = run_storm(events, seed)
    leaders = group.epoch_leaders()
    # The mapping is epoch -> the single committing replica; every acked
    # record must agree with it (two leaders in one epoch would have
    # raised ReplicationError inside the run).
    for record in group.acked_commits():
        assert leaders[record.epoch] == record.leader
    # Epochs only move forward in the acked history.
    epochs = [r.epoch for r in group.acked_commits()]
    assert epochs == sorted(epochs)


@settings(max_examples=20, deadline=None)
@given(events=fault_timeline, seed=st.integers(min_value=0, max_value=50))
def test_post_failover_digest_equals_serial_replay(events, seed):
    group = run_storm(events, seed)
    # The storm has cleared by SETTLE_S; one more commit proves the
    # group is serviceable again, then the state machine must equal a
    # from-scratch serial replay of the committed log.
    assert submit_with_failover(
        group, {"op": "noop", "reason": "settle"}, SETTLE_S + 0.25, "settle"
    )
    assert group.state_digest() == group.replay_digest()


@settings(max_examples=20, deadline=None)
@given(events=fault_timeline, seed=st.integers(min_value=0, max_value=50))
def test_committed_operations_are_exactly_the_acked_ones(events, seed):
    group = run_storm(events, seed)
    assert submit_with_failover(
        group, {"op": "noop", "reason": "settle"}, SETTLE_S + 0.25, "settle"
    )
    committed = [
        e.canonical() for e in group.committed_entries() if e.payload["op"] != "noop"
    ]
    acked = [
        r.payload_canonical
        for r in group.acked_commits()
        if json.loads(r.payload_canonical.split("|", 2)[2])["op"] != "noop"
    ]
    assert committed == acked
