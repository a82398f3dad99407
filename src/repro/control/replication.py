"""Replicated control plane: lease-based leadership, fencing, failover.

The paper's fabrics hang off a single SDN controller (Orion); Mission
Apollo's deployment experience says control-plane redundancy -- not
optics -- gates OCS rollout at scale.  This module is that HA layer for
the reproduction: a :class:`ReplicationGroup` of ``2f+1``
:class:`ReplicaNode`\\ s, each owning its own fabric-manager state
machine, kept consistent by a replicated operation log.

The protocol is a lease-flavored cut of the standard quorum recipe
(Raft / Viewstamped Replication), engineered so **safety never depends
on clocks** while **liveness degrades gracefully** when they lie:

- **Epochs are the fencing tokens.**  Every leadership grant and every
  log entry carries a monotonic epoch.  A replica durably promises the
  highest epoch it has seen and refuses appends from anything lower --
  a deposed leader's in-flight write dies as a counted *fencing
  rejection*, never a double-apply.
- **Leases gate elections, not commits.**  A replica only grants a new
  leader's election once the old lease looks expired *on its own
  (possibly skewed) clock*.  Clock skew can therefore delay or hasten
  elections -- a liveness wobble -- but a commit is only acknowledged
  to the client after a **majority** accepted the entry at the leader's
  epoch, so at most one leader can commit at any point in the history
  regardless of what the clocks claim.
- **Whole-suffix shipping with truncation.**  The leader ships its log
  to followers on every append and heartbeat; an accepting follower
  adopts it wholesale (uncommitted divergent suffixes are truncated,
  exactly like Raft's conflict rule).  Elections adopt the most
  complete log -- keyed ``(last entry epoch, length)`` -- among the
  grant quorum, which intersects every past commit quorum, so no
  committed entry is ever lost (Leader Completeness).
- **A no-op barrier entry** is committed at the start of every reign
  (Raft §5.4.2): earlier-epoch entries only become committed as the
  prefix of a current-epoch quorum ack.

State machine: each replica applies committed entries, in order, to its
own :class:`~repro.core.fabric_manager.FabricManager`; the safety pin is
that any replica's ``state_digest()`` equals a from-scratch serial
replay of the committed prefix (:func:`serial_replay_digest`) byte for
byte.

Fault wiring (:meth:`ReplicationGroup.attach_faults`): ``CONTROLLER_CRASH``
kills a replica's volatile state (the durable promise + log survive,
its manager is rebuilt by replay), ``NETWORK_PARTITION`` isolates a
replica or splits the group, ``CLOCK_SKEW`` bends one replica's lease
arithmetic.  Idempotency composes with PR 6's tokens: a committed
``token`` resubmitted after failover replays its entry instead of
appending a second one.
"""

from __future__ import annotations

import enum
import hashlib
import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.core.errors import (
    ConfigurationError,
    NotLeaderError,
    QuorumError,
    ReplicationError,
)
from repro.core.fabric_manager import FabricManager
from repro.core.ids import LinkId, OcsId
from repro.faults.events import (
    FaultEvent,
    FaultKind,
    parse_partition_groups,
    target_index,
)
from repro.faults.injector import FaultInjector
from repro.obs import NULL_OBS, Observability


class Role(enum.Enum):
    LEADER = "leader"
    FOLLOWER = "follower"


@dataclass(frozen=True)
class LogEntry:
    """One replicated operation: ``(epoch, seq)`` is its fencing identity.

    ``epoch`` is the reign that appended it; ``seq`` its log position.
    Two entries at the same seq with different epochs are *different*
    operations -- the lower-epoch one was never committed and is
    truncated when its replica rejoins.
    """

    epoch: int
    seq: int
    payload: Mapping[str, object]

    def canonical(self) -> str:
        body = json.dumps(self.payload, sort_keys=True, separators=(",", ":"))
        return f"{self.epoch}|{self.seq}|{body}"


def apply_entry(manager: FabricManager, payload: Mapping[str, object]) -> None:
    """Apply one committed operation to a replica's state machine.

    The vocabulary matches the serving layer's commit log: ``noop``
    (election barrier), ``establish``/``teardown`` (slice circuits), and
    ``retarget`` (traffic updates: disconnect-then-connect per (ocs,
    north) -> south, last writer wins).
    """
    op = payload["op"]
    if op == "noop":
        return
    if op == "establish":
        manager.establish(
            LinkId(str(payload["link"])),
            OcsId(int(payload["ocs"])),
            int(payload["north"]),
            int(payload["south"]),
        )
        return
    if op == "teardown":
        manager.teardown(LinkId(str(payload["link"])))
        return
    if op == "retarget":
        for ocs_index, north, south in payload["changes"]:
            state = manager.switch(OcsId(int(ocs_index))).state
            north, south = int(north), int(south)
            if state.south_of(north) == south:
                continue
            if state.south_of(north) is not None:
                state.disconnect(north)
            other = state.north_of(south)
            if other is not None:
                state.disconnect(other)
            state.connect(north, south)
        return
    raise ReplicationError(f"unknown replicated op {op!r}")


def serial_replay_digest(
    manager_factory: Callable[[], FabricManager],
    entries: Sequence[LogEntry],
) -> str:
    """State digest of a from-scratch serial replay (the correctness pin)."""
    manager = manager_factory()
    for entry in entries:
        apply_entry(manager, entry.payload)
    return manager.state_digest()


def log_digest(entries: Sequence[LogEntry]) -> str:
    """SHA-256 over canonical entries -- byte-stable log identity."""
    h = hashlib.sha256()
    for entry in entries:
        h.update(entry.canonical().encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


@dataclass
class ReplicaNode:
    """One controller replica: durable log + promise, volatile the rest.

    Durable across crashes (the replica's "disk"): ``promised_epoch``
    and ``log``.  Everything else -- role, lease view, commit/applied
    cursors, the state-machine manager itself -- is volatile and is
    reconstructed after a restart by re-learning the commit index from
    the next leader contact.
    """

    index: int
    manager_factory: Callable[[], FabricManager] = field(repr=False)

    # Durable state.
    promised_epoch: int = 0
    log: List[LogEntry] = field(default_factory=list)

    # Volatile state.
    up: bool = True
    role: Role = Role.FOLLOWER
    epoch: int = 0
    lease_holder: Optional[int] = None
    lease_epoch: int = 0
    lease_expiry_local_s: float = float("-inf")
    commit_index: int = 0
    applied_index: int = 0
    skew_s: float = 0.0
    manager: Optional[FabricManager] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.manager is None:
            self.manager = self.manager_factory()

    # -- clocks and leases --------------------------------------------- #

    def local_now(self, now_s: float) -> float:
        """This replica's (possibly skewed) view of the true time."""
        return now_s + self.skew_s

    def lease_valid(self, now_s: float) -> bool:
        """Does this replica believe some leader currently holds a lease?

        Judged on the replica's *local* clock -- skew makes this view
        wrong in either direction, which is exactly why no safety
        decision may rest on it alone.
        """
        return (
            self.lease_holder is not None
            and self.local_now(now_s) <= self.lease_expiry_local_s
        )

    def grant_lease(self, holder: int, epoch: int, now_s: float, lease_s: float) -> None:
        self.lease_holder = holder
        self.lease_epoch = epoch
        self.lease_expiry_local_s = self.local_now(now_s) + lease_s

    # -- crash / restart ----------------------------------------------- #

    def crash(self) -> None:
        """Lose all volatile state; the durable promise + log survive."""
        self.up = False
        self.role = Role.FOLLOWER
        self.epoch = 0
        self.lease_holder = None
        self.lease_epoch = 0
        self.lease_expiry_local_s = float("-inf")
        self.commit_index = 0
        self.applied_index = 0
        self.manager = None

    def restart(self) -> None:
        """Reboot over surviving durable state; commit index is re-learned
        from the next leader contact, and the manager is rebuilt by
        replaying the committed prefix as it becomes known."""
        self.up = True
        self.manager = self.manager_factory()

    # -- state machine ------------------------------------------------- #

    def apply_committed(self) -> None:
        """Advance the state machine to the commit index."""
        assert self.manager is not None
        while self.applied_index < self.commit_index:
            apply_entry(self.manager, self.log[self.applied_index].payload)
            self.applied_index += 1

    def state_digest(self) -> str:
        assert self.manager is not None
        return self.manager.state_digest()

    @property
    def last_entry_epoch(self) -> int:
        return self.log[-1].epoch if self.log else -1

    @property
    def log_key(self) -> Tuple[int, int]:
        """Completeness order: (last entry epoch, length)."""
        return (self.last_entry_epoch, len(self.log))


@dataclass(frozen=True)
class CommitRecord:
    """One client-acknowledged commit (the loss-accounting ledger)."""

    epoch: int
    seq: int
    leader: int
    time_s: float
    payload_canonical: str


@dataclass
class ReplicationGroup:
    """A primary/standby controller group with quorum commit.

    All inter-replica RPCs are simulated synchronously: a message
    between two replicas is delivered iff both are up and mutually
    reachable under the current partition at the moment of the call.
    Every method that touches leases or commits takes the true
    simulation time ``now_s``; replicas judge leases on their own skewed
    view of it.
    """

    num_replicas: int = 3
    manager_factory: Callable[[], FabricManager] = field(
        default=FabricManager, repr=False
    )
    lease_s: float = 1.0
    obs: Optional[Observability] = field(default=None, repr=False)

    nodes: List[ReplicaNode] = field(init=False, repr=False)
    leader_index: Optional[int] = field(init=False, default=None)

    # Partition state.
    _isolated: Set[int] = field(init=False, default_factory=set, repr=False)
    _groups: Optional[Tuple[Tuple[int, ...], ...]] = field(
        init=False, default=None, repr=False
    )

    # Accounting (all deterministic).
    elections: int = field(init=False, default=0)
    election_failures: int = field(init=False, default=0)
    fencing_rejections: int = field(init=False, default=0)
    lease_refusals: int = field(init=False, default=0)
    commits: int = field(init=False, default=0)
    failover_durations_s: List[float] = field(init=False, default_factory=list)
    unavailable_s: float = field(init=False, default=0.0)
    _outage_start_s: Optional[float] = field(init=False, default=None)
    _acked: List[CommitRecord] = field(init=False, default_factory=list)
    _epoch_leaders: Dict[int, int] = field(init=False, default_factory=dict)
    _tokens: Dict[str, int] = field(init=False, default_factory=dict)

    def __post_init__(self) -> None:
        if self.num_replicas < 1:
            raise ConfigurationError("need at least one replica")
        if self.lease_s <= 0:
            raise ConfigurationError("lease duration must be positive")
        if self.obs is None:
            self.obs = NULL_OBS  # type: ignore[assignment]
        self.nodes = [
            ReplicaNode(index=i, manager_factory=self.manager_factory)
            for i in range(self.num_replicas)
        ]

    # ------------------------------------------------------------------ #
    # Reachability
    # ------------------------------------------------------------------ #

    @property
    def quorum(self) -> int:
        """Majority of the *configured* membership, not of live nodes."""
        return self.num_replicas // 2 + 1

    def reachable(self, a: int, b: int) -> bool:
        """Can replicas ``a`` and ``b`` exchange RPCs right now?"""
        if a == b:
            return True
        if not (self.nodes[a].up and self.nodes[b].up):
            return False
        if a in self._isolated or b in self._isolated:
            return False
        if self._groups is not None:
            for group in self._groups:
                if a in group:
                    return b in group
            return False  # a outside every group: unreachable
        return True

    def client_reachable(self, index: int) -> bool:
        """Can the serving layer (colocated with the client majority)
        reach replica ``index``?  Under a group partition the clients
        sit with the largest group (lowest-indexed on ties)."""
        node = self.nodes[index]
        if not node.up or index in self._isolated:
            return False
        if self._groups is not None:
            majority = max(self._groups, key=lambda g: (len(g), [-i for i in g]))
            return index in majority
        return True

    # ------------------------------------------------------------------ #
    # Election (lease grant quorum + most-complete-log adoption)
    # ------------------------------------------------------------------ #

    def elect(self, candidate: int, now_s: float) -> int:
        """Try to elect ``candidate``; returns the new epoch.

        Raises :class:`~repro.core.errors.QuorumError` when a majority
        cannot be assembled (partition, crashes, or unexpired leases).
        Re-electing the current leader is lease renewal with an epoch
        bump.
        """
        cand = self.nodes[candidate]
        if not cand.up:
            raise QuorumError(f"candidate controller-{candidate} is down")
        peers = [
            n for n in self.nodes if n.up and self.reachable(candidate, n.index)
        ]
        epoch = max(n.promised_epoch for n in peers) + 1
        grants: List[ReplicaNode] = []
        for n in peers:
            if epoch <= n.promised_epoch:
                continue  # a concurrent contender got there first
            if n.lease_valid(now_s) and n.lease_holder != candidate:
                self.lease_refusals += 1
                continue  # someone else's lease still looks live here
            n.promised_epoch = epoch  # durable promise: fences epoch-1 writers
            if n.role is Role.LEADER and n.index != candidate:
                n.role = Role.FOLLOWER
            grants.append(n)
        if len(grants) < self.quorum:
            self.election_failures += 1
            self.obs.metrics.counter("control.replication.election_failures").inc()
            raise QuorumError(
                f"election at epoch {epoch}: {len(grants)}/{self.quorum} grants"
            )
        # Leases are installed only once the quorum is assembled.  A vote
        # alone must not start a lease: a failed candidate holds no
        # authority, and letting its self-grant refresh a lease would let
        # retried elections livelock the group forever (every node holding
        # a perpetually-refreshed lease on itself, refusing all others).
        # A *live* leader's lease is refreshed by its heartbeats/ships,
        # so the refusal window above still protects it.
        for n in grants:
            n.grant_lease(candidate, epoch, now_s, self.lease_s)
        # Leader Completeness: adopt the most complete log in the grant
        # quorum -- it intersects every past commit quorum.
        best = max(grants, key=lambda n: n.log_key)
        if best is not cand:
            cand.log = list(best.log)
            # Durable adoption happens before leadership is exercised.
            cand.promised_epoch = max(cand.promised_epoch, epoch)
        cand.role = Role.LEADER
        cand.epoch = epoch
        self.leader_index = candidate
        self.elections += 1
        self.obs.metrics.counter("control.replication.elections").inc()
        # Barrier: no entry from an earlier reign counts as committed
        # until it is covered by a current-epoch quorum ack (§5.4.2).
        self._append_and_commit(
            cand, {"op": "noop", "reason": "barrier"}, now_s, token=None
        )
        self._close_outage(now_s)
        return epoch

    # ------------------------------------------------------------------ #
    # Replication (whole-suffix shipping + quorum commit)
    # ------------------------------------------------------------------ #

    def _ship(self, leader: ReplicaNode, now_s: float) -> List[ReplicaNode]:
        """Ship the leader's log to every reachable follower.

        Returns the accepting followers.  A follower promised to a
        higher epoch rejects the whole ship -- the fencing rejection
        that makes a deposed leader's writes dead on arrival.
        """
        acked: List[ReplicaNode] = []
        for n in self.nodes:
            if n.index == leader.index:
                continue
            if not n.up or not self.reachable(leader.index, n.index):
                continue
            if leader.epoch < n.promised_epoch:
                self.fencing_rejections += 1
                self.obs.metrics.counter(
                    "control.replication.fencing_rejections"
                ).inc()
                continue
            n.promised_epoch = leader.epoch
            if n.role is Role.LEADER:
                n.role = Role.FOLLOWER  # a deposed leader learns of its successor
            # Whole-log adoption: truncates any divergent (necessarily
            # uncommitted) suffix, exactly like Raft's conflict rule.
            n.log = list(leader.log)
            n.grant_lease(leader.index, leader.epoch, now_s, self.lease_s)
            acked.append(n)
        return acked

    def _commit(
        self, leader: ReplicaNode, acked: Sequence[ReplicaNode], now_s: float
    ) -> None:
        leader.commit_index = len(leader.log)
        leader.apply_committed()
        for n in acked:
            n.commit_index = len(n.log)
            n.apply_committed()

    def _append_and_commit(
        self,
        leader: ReplicaNode,
        payload: Mapping[str, object],
        now_s: float,
        token: Optional[str],
    ) -> LogEntry:
        entry = LogEntry(epoch=leader.epoch, seq=len(leader.log), payload=dict(payload))
        leader.log.append(entry)
        acked = self._ship(leader, now_s)
        if 1 + len(acked) < self.quorum:
            # The client is told this commit failed, so no replica may
            # keep it: a surviving copy would win a later election on
            # log completeness and commit behind the client's back.
            for n in (leader, *acked):
                del n.log[entry.seq:]
            raise QuorumError(
                f"commit at epoch {leader.epoch}: {1 + len(acked)}/{self.quorum} acks"
            )
        prior = self._epoch_leaders.setdefault(entry.epoch, leader.index)
        if prior != leader.index:
            raise ReplicationError(
                f"two leaders committed in epoch {entry.epoch}: "
                f"controller-{prior} and controller-{leader.index}"
            )
        self._commit(leader, acked, now_s)
        self.commits += 1
        self.obs.metrics.counter("control.replication.commits").inc()
        if token is not None:
            self._tokens[token] = entry.seq
        self._acked.append(
            CommitRecord(
                epoch=entry.epoch,
                seq=entry.seq,
                leader=leader.index,
                time_s=now_s,
                payload_canonical=entry.canonical(),
            )
        )
        return entry

    def submit(
        self,
        payload: Mapping[str, object],
        now_s: float,
        *,
        token: Optional[str] = None,
    ) -> LogEntry:
        """Commit one operation through the current leader.

        ``token`` composes with PR 6's idempotency machinery: a token
        whose entry already committed replays that entry instead of
        appending again (safe across failover -- committed entries
        survive by Leader Completeness).
        """
        if token is not None and token in self._tokens:
            seq = self._tokens[token]
            leader = self._best_node()
            self.obs.metrics.counter("control.replication.token_replays").inc()
            return leader.log[seq]
        if self.leader_index is None:
            self.note_outage(now_s)
            raise NotLeaderError("no elected leader")
        leader = self.nodes[self.leader_index]
        if not leader.up:
            self.note_outage(now_s)
            raise NotLeaderError(f"leader controller-{leader.index} is down")
        try:
            if not leader.lease_valid(now_s) or leader.lease_holder != leader.index:
                # The lease lapsed (idle gap or skew): renew in place.
                # If a quorum still follows this leader the renewal
                # succeeds and the write proceeds under the new epoch;
                # otherwise the QuorumError routes to failover.
                self.elect(leader.index, now_s)
            entry = self._append_and_commit(leader, payload, now_s, token)
            self._close_outage(now_s)  # commit capability is back
            return entry
        except QuorumError:
            self.note_outage(now_s)
            raise

    def submit_as(
        self,
        index: int,
        payload: Mapping[str, object],
        now_s: float,
        *,
        token: Optional[str] = None,
    ) -> LogEntry:
        """Commit through a *specific* replica that believes it leads.

        This is the deposed-leader path the fencing machinery exists
        for: a replica whose reign ended (partitioned away during a
        re-election) still carries ``role=LEADER`` and an old epoch, and
        its in-flight writes must die.  Its ships are fenced by the
        higher promises a successor's election installed, so the commit
        cannot reach quorum and raises instead of double-applying.
        Unlike :meth:`submit` this never stamps an outage -- the group
        may be perfectly healthy under its real leader.
        """
        node = self.nodes[index]
        if not node.up:
            raise NotLeaderError(f"controller-{index} is down")
        if node.role is not Role.LEADER:
            raise NotLeaderError(f"controller-{index} is not a leader")
        return self._append_and_commit(node, payload, now_s, token)

    def heartbeat(self, now_s: float) -> bool:
        """Leader lease renewal + follower catch-up; True if it landed."""
        if self.leader_index is None:
            return False
        leader = self.nodes[self.leader_index]
        if not leader.up:
            return False
        acked = self._ship(leader, now_s)
        if 1 + len(acked) < self.quorum:
            return False
        leader.grant_lease(leader.index, leader.epoch, now_s, self.lease_s)
        self._commit(leader, acked, now_s)
        return True

    # ------------------------------------------------------------------ #
    # Introspection / accounting
    # ------------------------------------------------------------------ #

    def _best_node(self) -> ReplicaNode:
        """The most authoritative live view (for reads / loss checks)."""
        if self.leader_index is not None and self.nodes[self.leader_index].up:
            return self.nodes[self.leader_index]
        live = [n for n in self.nodes if n.up] or self.nodes
        return max(live, key=lambda n: (n.log_key, -n.index))

    def live_manager(self) -> FabricManager:
        """The leader's state machine (reads route here)."""
        node = self._best_node()
        assert node.manager is not None
        return node.manager

    def leader_serviceable(self) -> bool:
        """Is there a leader the serving layer can currently reach?"""
        return (
            self.leader_index is not None
            and self.nodes[self.leader_index].up
            and self.client_reachable(self.leader_index)
        )

    def note_outage(self, now_s: float) -> None:
        """Stamp the start of a commit-capability outage (idempotent)."""
        if self._outage_start_s is None:
            self._outage_start_s = now_s

    def _close_outage(self, now_s: float) -> None:
        """Close an open outage window as one completed failover."""
        if self._outage_start_s is None:
            return
        duration = max(0.0, now_s - self._outage_start_s)
        self.failover_durations_s.append(duration)
        self.unavailable_s += duration
        self._outage_start_s = None
        self.obs.metrics.histogram("control.replication.failover_s").observe(duration)

    def finalize_outage(self, now_s: float) -> None:
        """Close an open outage window at the end of a run."""
        if self._outage_start_s is not None:
            self.unavailable_s += max(0.0, now_s - self._outage_start_s)
            self._outage_start_s = None

    def availability(self, horizon_s: float) -> float:
        if horizon_s <= 0:
            return 1.0
        return max(0.0, 1.0 - self.unavailable_s / horizon_s)

    def acked_commits(self) -> Tuple[CommitRecord, ...]:
        return tuple(self._acked)

    def epoch_leaders(self) -> Mapping[int, int]:
        """epoch -> the one replica that committed in it (the safety pin)."""
        return dict(self._epoch_leaders)

    def committed_ops_lost(self) -> int:
        """Client-acked commits absent from the current authority's log.

        The acceptance bar is zero, always: every acknowledged operation
        must survive any sequence of crashes, partitions, and skews.

        Loss is judged against the most complete *durable* log in the
        group (crashed replicas keep their logs on disk), because that
        is what the next election quorum adopts -- the grant quorum
        intersects every commit quorum.  A window where only a stale
        minority is up is unavailability, not loss: nothing can commit
        without a quorum, and the acked entries return with the
        majority's disks.
        """
        log = max(self.nodes, key=lambda n: (n.log_key, -n.index)).log
        lost = 0
        for record in self._acked:
            if (
                record.seq >= len(log)
                or log[record.seq].canonical() != record.payload_canonical
            ):
                lost += 1
        return lost

    def committed_entries(self) -> Tuple[LogEntry, ...]:
        node = self._best_node()
        return tuple(node.log[: node.commit_index])

    def state_digest(self) -> str:
        return self._best_node().state_digest()

    def replay_digest(self) -> str:
        """Serial from-scratch replay of the committed prefix."""
        return serial_replay_digest(self.manager_factory, self.committed_entries())

    # ------------------------------------------------------------------ #
    # Fault wiring
    # ------------------------------------------------------------------ #

    def attach_faults(self, injector: FaultInjector) -> None:
        injector.subscribe(FaultKind.CONTROLLER_CRASH, self._on_crash)
        injector.subscribe(FaultKind.NETWORK_PARTITION, self._on_partition)
        injector.subscribe(FaultKind.CLOCK_SKEW, self._on_skew)

    def _on_crash(self, event: FaultEvent) -> None:
        index = target_index(event.target)
        if not 0 <= index < self.num_replicas:
            return
        node = self.nodes[index]
        if event.recovery:
            if not node.up:
                node.restart()
        else:
            node.crash()
            if self.leader_index == index:
                self.leader_index = None
                self.note_outage(event.time_s)

    def _on_partition(self, event: FaultEvent) -> None:
        if event.target.startswith("net-"):
            if event.recovery:
                self._groups = None
            else:
                groups = event.param("groups")
                if groups is None:
                    raise ReplicationError(
                        "group partition event needs a 'groups' param"
                    )
                self._groups = parse_partition_groups(str(groups))
        else:
            index = target_index(event.target)
            if not 0 <= index < self.num_replicas:
                return
            if event.recovery:
                self._isolated.discard(index)
            else:
                self._isolated.add(index)
        if self.leader_index is not None and not self.client_reachable(
            self.leader_index
        ):
            self.note_outage(event.time_s)

    def _on_skew(self, event: FaultEvent) -> None:
        index = target_index(event.target)
        if not 0 <= index < self.num_replicas:
            return
        if event.recovery:
            self.nodes[index].skew_s = 0.0
        else:
            skew = event.param("skew_s", event.severity)
            self.nodes[index].skew_s = float(skew)  # type: ignore[arg-type]


__all__ = [
    "CommitRecord",
    "LogEntry",
    "ReplicaNode",
    "ReplicationGroup",
    "Role",
    "apply_entry",
    "log_digest",
    "serial_replay_digest",
]
