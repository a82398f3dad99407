"""The overload-robust fabric serving layer.

:class:`FabricService` is a deterministic, simulation-clocked front end
to the durable control plane: tenants stream slice allocations, topology
reconfigurations, traffic-matrix updates, and telemetry queries at it,
open-loop, and it must stay correct -- and explicit about what it drops
-- whatever the offered load and fault timeline look like.

The defenses compose in a fixed order, and every request leaves through
exactly one of them (the *partition invariant*):

1. **admission** (:class:`~repro.serve.admission.FairAdmission`):
   token buckets, per-tenant then global -> ``REJECTED``;
2. **queueing** (:class:`~repro.serve.queueing.BoundedPriorityQueue`):
   bounded, priority-ordered, deterministic worst-victim eviction ->
   ``SHED`` (never silent: every eviction is a :class:`ShedRecord`);
3. **deadline propagation**: a request that cannot finish by its
   deadline is never started, and an attempt that cannot fit is never
   launched -> ``TIMEOUT`` (a timed-out request never commits);
4. **retry budget + circuit breaker** around the commit plane ->
   ``ERROR`` (fast-failed or budget-capped, with the reason recorded);
5. everything else commits and completes -> ``OK``.

Under pressure the :class:`~repro.serve.brownout.BrownoutController`
degrades quality before work: maintenance defers, traffic-matrix
updates coalesce into one batched controller transaction per window
(last-writer-wins per circuit, in arrival order), and telemetry answers
come from a bounded-staleness cache.

**Determinism and replay.**  The service is a serial discrete-event
loop over (arrival, batch-flush, maintenance, serve) events; all
randomness is seeded (retry jitter) or injected
(:class:`~repro.faults.injector.FaultInjector`).  Same seed => byte
identical per-request outcomes (``outcomes_digest``) and the same
commit log; replaying that log serially against a fresh manager
(:func:`replay_committed`) must reproduce ``state_digest()`` exactly.

**Commit planes.**  Every mutation is one
:func:`~repro.control.replication.apply_entry` payload.  A solo
controller applies it straight to its fabric (the *delta plane*: no
log, no quorum); a replicated controller commits it through a
:class:`~repro.control.replication.ReplicationGroup`.  The plane is
fixed at construction; the loop around it is the same.  Both read the
fabric through the memoized ``FabricManager.state_digest()``, and every
run ends by checking it against a from-scratch recomputation.

**Tenant -> fabric mapping.**  Tenant *i* owns north port
``i // num_traffic_ocses`` on traffic OCS ``i % num_traffic_ocses``,
with two private south ports (bank 0/1) -- retargets are collision-free
by construction, so any interleaving of committed updates is
serializable.  Slices get circuits on a dedicated slice OCS (the lowest
free port) and cubes from a free-cube count.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.control.replication import ReplicationGroup, apply_entry
from repro.core.errors import (
    ConfigurationError,
    QuorumError,
    ReplicationError,
    ServeError,
)
from repro.core.fabric_manager import (
    FabricManager,
    SimpleSwitch,
    _scratch_state_digest,
)
from repro.core.ids import JobId, LinkId, OcsId
from repro.faults.events import FaultKind
from repro.faults.injector import FaultInjector
from repro.faults.resilience import RetryPolicy
from repro.obs import NULL_OBS, Observability
from repro.scheduler.requests import JobRequest
from repro.serve.admission import FairAdmission
from repro.serve.breaker import BreakerState, CircuitBreaker
from repro.serve.brownout import BrownoutController
from repro.serve.queueing import BoundedPriorityQueue, ShedRecord
from repro.serve.requests import (
    ADMITTED_OUTCOMES,
    KIND_VALUE,
    OUTCOME_VALUE,
    Outcome,
    RequestKind,
    RequestRecord,
    TenantRequest,
)
from repro.serve.retry import RetryBudget
from repro.serve.sink import (
    FullRecordSink,
    RecordLog,
    StreamAggregates,
    StreamingRecordSink,
)


#: Deterministic service times (ms of simulated server occupancy), per
#: kind; capacity is their admission-weighted mean.
TELEMETRY_FRESH_MS = 2.0
TELEMETRY_CACHED_MS = 0.2
TRAFFIC_UPDATE_MS = 2.5
RECONFIGURE_MS = 3.0
SLICE_ALLOC_MS = 5.0
SLICE_RELEASE_MS = 2.0
NOOP_MS = 0.5
BATCH_MEMBER_MS = 0.3
BATCH_FLUSH_MS = 4.0
RPC_TIMEOUT_MS = 25.0
MAINTENANCE_MS = 6.0

#: Brownout coalescing: a batch flushes this long after its first
#: member arrives, or at once when it holds this many updates.
BATCH_WINDOW_S = 0.2
BATCH_MAX_UPDATES = 32
#: Background maintenance tick, and the telemetry cache's staleness bound.
MAINTENANCE_INTERVAL_S = 5.0
TELEMETRY_TTL_S = 0.5

#: Ports on the dedicated slice OCS.
SLICE_RADIX = 64

#: Per-request attempt clamp (first try included), on top of the
#: shared :class:`~repro.serve.retry.RetryBudget`.
MAX_ATTEMPTS = 4


@dataclass(frozen=True)
class ServeConfig:
    """The serving layer's settings that callers set.

    Everything else is a module constant: the service times, batch,
    maintenance and telemetry-TTL values, the slice radix and the
    attempt clamp here in :mod:`repro.serve.service`, and the brownout
    ladder's thresholds in :mod:`repro.serve.brownout`.
    """

    # Fabric shape.
    num_traffic_ocses: int = 4
    num_tenants: int = 256
    allocator_cubes: int = 64

    # Admission (requests per simulated second).
    global_rate_per_s: float = 400.0
    global_burst: float = 120.0
    tenant_rate_per_s: float = 8.0
    tenant_burst: float = 16.0

    # Queueing.
    queue_capacity: int = 64

    # Retry budget / breaker.
    retry_ratio: float = 0.5
    breaker_threshold: int = 5
    breaker_cooldown_s: float = 0.5

    # Freeze the brownout ladder at one level (None = adaptive).
    pinned_brownout: Optional[int] = None

    # Replicated control plane.  1 = a single controller on the delta
    # commit plane; >= 3 routes every mutation through a lease-held,
    # epoch-fenced ReplicationGroup and turns controller loss into
    # leader failover instead of refusal.
    num_controller_replicas: int = 1
    replica_lease_s: float = 2.0

    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_traffic_ocses < 1 or self.num_tenants < 1:
            raise ConfigurationError("need at least one OCS and one tenant")
        if self.traffic_radix > 512:
            raise ConfigurationError(
                f"traffic radix {self.traffic_radix} unreasonably large; "
                "add traffic OCSes instead"
            )
        if self.queue_capacity < 1:
            raise ConfigurationError("queue capacity must be positive")
        if (
            self.global_rate_per_s <= 0
            or self.global_burst < 1
            or self.tenant_rate_per_s <= 0
            or self.tenant_burst < 1
        ):
            raise ConfigurationError("admission rates and bursts must be positive")
        if self.num_controller_replicas < 1:
            raise ConfigurationError("need at least one controller replica")
        if self.num_controller_replicas > 1 and self.num_controller_replicas % 2 == 0:
            raise ConfigurationError(
                "replica count must be odd (an even group tolerates no more "
                "failures than the next odd size down, but splits worse)"
            )
        if self.replica_lease_s <= 0:
            raise ConfigurationError("replica lease must be positive")

    @property
    def tenants_per_ocs(self) -> int:
        return math.ceil(self.num_tenants / self.num_traffic_ocses)

    @property
    def traffic_radix(self) -> int:
        # Two south banks per tenant slot.
        return 2 * self.tenants_per_ocs

    @property
    def slice_ocs(self) -> OcsId:
        return OcsId(self.num_traffic_ocses)

    def tenant_circuit(self, tenant: str) -> Tuple[OcsId, int]:
        """(ocs, north port) owned by ``tenant`` (id ``t-<index>``)."""
        index = int(tenant.rsplit("-", 1)[1])
        if not 0 <= index < self.num_tenants:
            raise ConfigurationError(f"tenant {tenant} outside population")
        return OcsId(index % self.num_traffic_ocses), index // self.num_traffic_ocses

    def south_for_bank(self, north: int, bank: int) -> int:
        if bank not in (0, 1):
            raise ConfigurationError(f"bank must be 0 or 1, got {bank}")
        return north + bank * self.tenants_per_ocs


def build_serve_manager(
    config: ServeConfig, obs: Optional[Observability] = None
) -> FabricManager:
    """The serving fabric: traffic OCSes (provisioned one circuit per
    tenant, bank 0) plus one dedicated slice OCS.

    Shared by the live service and :func:`replay_committed`, so both
    start from the identical provisioned state.
    """
    manager = FabricManager(obs=obs)
    for i in range(config.num_traffic_ocses):
        manager.add_switch(OcsId(i), SimpleSwitch(config.traffic_radix))
    manager.add_switch(config.slice_ocs, SimpleSwitch(SLICE_RADIX))
    for t in range(config.num_tenants):
        ocs, north = config.tenant_circuit(f"t-{t:03d}")
        manager.switch(ocs).state.connect(north, config.south_for_bank(north, 0))
    return manager


@dataclass(frozen=True, slots=True)
class CommitEntry:
    """One committed state-changing operation, in commit order.

    ``op`` is ``retarget`` (ints = ocs, north, south), ``slice-alloc``
    (ints = port), or ``slice-release`` (ref = the alloc's request id).
    """

    op: str
    request_id: str
    ints: Tuple[int, ...] = ()
    ref: str = ""

    def canonical(self) -> str:
        ints = ",".join(str(i) for i in self.ints)
        return f"{self.op}|{self.request_id}|{ints}|{self.ref}"


@dataclass
class ServeReport:
    """Everything one service run produced, deterministically."""

    config: ServeConfig
    records: RecordLog
    shed_records: List[ShedRecord]
    commit_log: List[CommitEntry]
    offered: int
    downstream_attempts: int
    deposits: int
    retries_granted: int
    retries_denied: int
    breaker_trips: int
    breaker_fast_fails: int
    brownout_transitions: Tuple[Tuple[float, int], ...]
    maintenance_runs: int
    maintenance_deferred: int
    batches_flushed: int
    telemetry_cache_hits: int
    telemetry_cache_misses: int
    recoveries: int
    state_digest: str
    faults_digest: str

    # Replicated-control-plane accounting (all zero in single mode).
    failovers: int = 0
    elections: int = 0
    fencing_rejections: int = 0
    committed_ops_lost: int = 0
    failover_durations_s: Tuple[float, ...] = ()
    failover_unavailable_s: float = 0.0

    #: Streaming-mode roll-up: populated (and ``records`` left empty)
    #: when the service ran with a :class:`StreamingRecordSink`.
    aggregates: Optional[StreamAggregates] = None

    # Lazy caches -- a report is immutable once constructed, so counts
    # and per-outcome sorted latencies are computed at most once.
    _counts: Optional[Dict[Outcome, int]] = field(
        init=False, default=None, repr=False, compare=False
    )
    _sorted_latencies: Dict[Outcome, List[float]] = field(
        init=False, default_factory=dict, repr=False, compare=False
    )

    def count(self, outcome: Outcome) -> int:
        counts = self._counts
        if counts is None:
            if self.aggregates is not None and not self.records:
                counts = dict(self.aggregates.outcome_counts)
            else:
                counts = {o: 0 for o in Outcome}
                for seen in self.records.outcomes():
                    counts[seen] += 1
            self._counts = counts
        return counts.get(outcome, 0)

    @property
    def admitted(self) -> int:
        return sum(self.count(o) for o in ADMITTED_OUTCOMES)

    @property
    def retry_amplification(self) -> float:
        """Observed downstream attempts per service start; provably
        bounded by ``1 + retry_ratio`` (see :mod:`repro.serve.retry`)."""
        return self.downstream_attempts / max(1, self.deposits)

    @property
    def shed_rate(self) -> float:
        return self.count(Outcome.SHED) / max(1, self.offered)

    def latency_percentile_ms(self, q: float, outcome: Outcome = Outcome.OK) -> float:
        lat = self._sorted_latencies.get(outcome)
        if lat is None:
            if self.aggregates is not None and not self.records:
                # Streaming mode: a histogram estimate (<= one 4% bucket
                # above the true order statistic), not an exact sort.
                return self.aggregates.latency_percentile_ms(q, outcome)
            # Sort once per outcome, not once per percentile query.
            lat = self.records.sorted_latencies_ms(outcome)
            self._sorted_latencies[outcome] = lat
        if not lat:
            return 0.0
        return lat[min(len(lat) - 1, int(math.ceil(q * len(lat))) - 1)]

    def outcomes_digest(self) -> str:
        if self.aggregates is not None and not self.records:
            return self.aggregates.outcomes_digest
        return self.records.outcomes_digest()

    def failover_percentile_s(self, q: float) -> float:
        durations = sorted(self.failover_durations_s)
        if not durations:
            return 0.0
        return durations[min(len(durations) - 1, int(math.ceil(q * len(durations))) - 1)]

    def summary(self) -> Dict[str, object]:
        """Flat, JSON-ready roll-up (what the NOC / CI gate consumes)."""
        out = self._base_summary()
        if self.config.num_controller_replicas > 1:
            out.update(
                {
                    "failovers": self.failovers,
                    "elections": self.elections,
                    "fencing_rejections": self.fencing_rejections,
                    "committed_ops_lost": self.committed_ops_lost,
                    "failover_p99_s": round(self.failover_percentile_s(0.99), 6),
                    "failover_unavailable_s": round(self.failover_unavailable_s, 6),
                }
            )
        return out

    def _base_summary(self) -> Dict[str, object]:
        return {
            "offered": self.offered,
            "ok": self.count(Outcome.OK),
            "rejected": self.count(Outcome.REJECTED),
            "shed": self.count(Outcome.SHED),
            "timeout": self.count(Outcome.TIMEOUT),
            "error": self.count(Outcome.ERROR),
            "admitted": self.admitted,
            "serve_p50_ms": round(self.latency_percentile_ms(0.50), 6),
            "serve_p99_ms": round(self.latency_percentile_ms(0.99), 6),
            "serve_shed_rate": round(self.shed_rate, 6),
            "serve_retry_amplification": round(self.retry_amplification, 6),
            "downstream_attempts": self.downstream_attempts,
            "deposits": self.deposits,
            "retries_granted": self.retries_granted,
            "retries_denied": self.retries_denied,
            "breaker_trips": self.breaker_trips,
            "breaker_fast_fails": self.breaker_fast_fails,
            "brownout_transitions": len(self.brownout_transitions),
            "maintenance_runs": self.maintenance_runs,
            "maintenance_deferred": self.maintenance_deferred,
            "batches_flushed": self.batches_flushed,
            "telemetry_cache_hits": self.telemetry_cache_hits,
            "telemetry_cache_misses": self.telemetry_cache_misses,
            "recoveries": self.recoveries,
            "commits": len(self.commit_log),
            "outcomes_digest": self.outcomes_digest(),
            "state_digest": self.state_digest,
            "faults_digest": self.faults_digest,
        }


class _CubeLedger:
    """Free-cube count for slice admission.

    The serve drill never fails cubes, so a slice fits iff ``job.cubes``
    cubes are free -- the verdict a
    :class:`~repro.scheduler.allocator.ReconfigurableAllocator` gives,
    without per-cube placement (which sits outside ``state_digest()``,
    so nothing downstream could observe it).
    """

    __slots__ = ("free",)

    def __init__(self, num_cubes: int) -> None:
        self.free = num_cubes

    def try_allocate(self, job: JobRequest) -> Optional[JobRequest]:
        if job.cubes > self.free:
            return None
        self.free -= job.cubes
        return job

    def release(self, job: JobRequest) -> None:
        self.free += job.cubes


class FabricService:
    """Serial, deterministic serving loop over tenant requests."""

    def __init__(
        self,
        config: ServeConfig,
        obs: Optional[Observability] = None,
        sink: Optional[Union[FullRecordSink, StreamingRecordSink]] = None,
    ) -> None:
        self.config = config
        self.obs = obs if obs is not None else NULL_OBS
        #: Terminal-outcome sink; the default keeps every record (PR-6
        #: behavior), a StreamingRecordSink keeps memory flat at 10^6.
        self._sink = sink if sink is not None else FullRecordSink()
        self.replication: Optional[ReplicationGroup] = None
        self._solo_manager: Optional[FabricManager] = None
        if config.num_controller_replicas > 1:
            # Each replica owns a full provisioned fabric image; the
            # leader's is the one reads see.
            self.replication = ReplicationGroup(
                num_replicas=config.num_controller_replicas,
                manager_factory=lambda: build_serve_manager(config),
                lease_s=config.replica_lease_s,
                obs=self.obs,
            )
            self.replication.elect(0, 0.0)
            self._commit = self._commit_replicated
        else:
            self._solo_manager = build_serve_manager(config, obs=self.obs)
            self._commit = self._commit_solo
        self.admission = FairAdmission(
            global_rate_per_s=config.global_rate_per_s,
            global_burst=config.global_burst,
            tenant_rate_per_s=config.tenant_rate_per_s,
            tenant_burst=config.tenant_burst,
            obs=self.obs,
        )
        self.queue = BoundedPriorityQueue(config.queue_capacity)
        self.breaker = CircuitBreaker(
            failure_threshold=config.breaker_threshold,
            cooldown_s=config.breaker_cooldown_s,
            obs=self.obs,
        )
        self.brownout = BrownoutController(
            pinned_level=config.pinned_brownout, obs=self.obs
        )
        self.budget = RetryBudget(retry_ratio=config.retry_ratio, obs=self.obs)
        self._cubes = _CubeLedger(config.allocator_cubes)
        # Slice circuits are always port<->port on the slice OCS, so the
        # lowest doubly-free port is the min of this heap (range() is
        # ascending, hence already a valid min-heap).
        self._free_ports = list(range(SLICE_RADIX))
        self._retry_policy = RetryPolicy()
        self._rng = np.random.default_rng(config.seed)

        # Bound metric handles: name+label resolution happens once here,
        # not per event (same series objects, same snapshots).
        metrics = self.obs.metrics
        self._outcome_family = metrics.family(
            "counter", "serve.outcomes", "outcome", "kind"
        )
        self._latency_family = metrics.family(
            "histogram", "serve.latency_ms", "outcome"
        )
        self._attempts_counter = metrics.handle("counter", "serve.attempts")
        self._fast_fail_counter = metrics.handle(
            "counter", "serve.breaker.fast_fails"
        )
        self._telemetry_hit_counter = metrics.handle(
            "counter", "serve.telemetry", source="cache"
        )
        self._telemetry_miss_counter = metrics.handle(
            "counter", "serve.telemetry", source="fresh"
        )
        self._batches_counter = metrics.handle(
            "counter", "serve.batches.flushed"
        )
        self._batch_size_hist = metrics.handle("histogram", "serve.batch.size")
        self._maint_runs_counter = metrics.handle(
            "counter", "serve.maintenance.runs"
        )
        self._maint_deferred_counter = metrics.handle(
            "counter", "serve.maintenance.deferred"
        )

        # Mutable run state.
        self._commit_log: List[CommitEntry] = []
        self._allocs: Dict[str, Tuple[JobRequest, int]] = {}
        self._batch: List[TenantRequest] = []
        self._batch_due_s = 0.0
        self._batch_seq = 0
        self._controller_down = False
        self._pending_rpc_timeouts = 0
        self._recoveries = 0
        self._downstream_attempts = 0
        self._breaker_fast_fails = 0
        self._maintenance_runs = 0
        self._maintenance_deferred = 0
        self._batches_flushed = 0
        self._cache_hits = 0
        self._cache_misses = 0
        self._telemetry_cache: Optional[Tuple[str, float]] = None
        self._offered = 0
        self._sim_now = 0.0
        self._failovers = 0
        if self.replication is not None:
            # Open edge of the breaker = leader is gone: elect a standby
            # and re-close, instead of cooling down against a dead primary.
            self.breaker.on_trip = self._on_breaker_trip

    @property
    def manager(self) -> FabricManager:
        """The authoritative fabric view: the replication leader's state
        machine when replicated, the solo manager otherwise."""
        if self.replication is not None:
            return self.replication.live_manager()
        assert self._solo_manager is not None
        return self._solo_manager

    # ------------------------------------------------------------------ #
    # Fault wiring
    # ------------------------------------------------------------------ #

    def attach_faults(self, injector: FaultInjector) -> None:
        if self.replication is not None:
            # Crash / partition / skew semantics live with the group.
            self.replication.attach_faults(injector)
        else:
            injector.subscribe(FaultKind.CONTROLLER_CRASH, self._on_controller_event)
        injector.subscribe(FaultKind.RPC_TIMEOUT, self._on_rpc_timeout_event)

    def _on_controller_event(self, event) -> None:
        # Solo mode only.  A commit applies whole or not at all, so a
        # crash leaves nothing half-programmed: recovery just clears
        # the outage.
        if event.recovery:
            self._controller_down = False
            self._recoveries += 1
            self.obs.metrics.counter("serve.controller.recoveries").inc()
        else:
            self._controller_down = True
            self.obs.metrics.counter("serve.controller.crashes").inc()

    def _on_rpc_timeout_event(self, event) -> None:
        if event.recovery:
            self._pending_rpc_timeouts = 0
        else:
            self._pending_rpc_timeouts += max(1, int(event.severity))

    # ------------------------------------------------------------------ #
    # Bookkeeping
    # ------------------------------------------------------------------ #

    def _record(
        self,
        request: TenantRequest,
        outcome: Outcome,
        finish_s: float,
        *,
        attempts: int = 0,
        detail: str = "",
    ) -> None:
        self._sink.record(
            RequestRecord(
                request=request,
                outcome=outcome,
                finish_s=finish_s,
                attempts=attempts,
                detail=detail,
            )
        )
        self._outcome_family.series(
            OUTCOME_VALUE[outcome], KIND_VALUE[request.kind]
        ).inc()
        self._latency_family.series(OUTCOME_VALUE[outcome]).observe(
            max(0.0, (finish_s - request.arrival_s) * 1e3)
        )

    def _maintain(self, now_s: float) -> bool:
        """Run controller maintenance; False when it cannot run now.
        Replicated, maintenance is the lease heartbeat: renew and catch
        stragglers up."""
        if self.replication is not None:
            return self.replication.heartbeat(now_s)
        return not self._controller_down

    def _observe_pressure(self, now_s: float) -> None:
        # BoundedPriorityQueue.occupancy is already a fill fraction in
        # [0, 1]; feed it to the brownout ladder undiluted.
        occupancy = self.queue.occupancy
        breaker_open = self.breaker.state(now_s) is BreakerState.OPEN
        self.brownout.observe(occupancy, breaker_open, now_s)

    # ------------------------------------------------------------------ #
    # Downstream attempts (retry budget + breaker + deadline, shared by
    # every controller-touching path)
    # ------------------------------------------------------------------ #

    def _attempt_failure(self, t: float) -> Optional[str]:
        """Injected-fault view of one RPC attempt; consumes one pending
        timeout when the burst is active.

        In replicated mode a dead or unreachable leader is not a hard
        failure: the attempt first tries to fail over to a standby, and
        only reports ``controller-down`` when no electable replica is
        reachable (no quorum anywhere the client can see)."""
        if self.replication is not None:
            if not self.replication.leader_serviceable():
                if not self._try_failover(t):
                    return "controller-down"
            if self._pending_rpc_timeouts > 0:
                self._pending_rpc_timeouts -= 1
                return "rpc-timeout"
            return None
        if self._controller_down:
            return "controller-down"
        if self._pending_rpc_timeouts > 0:
            self._pending_rpc_timeouts -= 1
            return "rpc-timeout"
        return None

    def _try_failover(self, t: float) -> bool:
        """Elect the first client-reachable replica; True on success."""
        assert self.replication is not None
        if self.replication.leader_serviceable():
            return True
        self.replication.note_outage(t)
        for index in range(self.replication.num_replicas):
            node = self.replication.nodes[index]
            if not node.up or not self.replication.client_reachable(index):
                continue
            try:
                self.replication.elect(index, t)
            except QuorumError:
                continue
            self._failovers += 1
            self.obs.metrics.counter("serve.failovers").inc()
            return True
        return False

    def _gate_attempt(self, t: float) -> bool:
        """Breaker gate with failover redirection on the open edge.

        A closed (or probing half-open) breaker admits the attempt.  An
        open breaker normally fast-fails -- but in replicated mode, if
        the reason it opened is a dead/unreachable leader, electing a
        standby repairs the cause, so the gate retries the election and
        re-closes on success instead of refusing work for a cooldown.
        """
        if self.breaker.allow(t):
            return True
        if (
            self.replication is not None
            and not self.replication.leader_serviceable()
            and self._try_failover(t)
        ):
            self.breaker.reset()
            return True
        return False

    def _on_breaker_trip(self, now_s: float) -> None:
        if self.replication is None or self.replication.leader_serviceable():
            # Genuine downstream flakiness (e.g. an RPC-timeout burst
            # against a healthy leader): let the breaker cool down.
            return
        if self._try_failover(now_s):
            # The failure cause (a dead leader) was repaired by the
            # election: keep admitting instead of fast-failing through
            # the cooldown.
            self.breaker.reset()

    def _run_attempts(
        self, t: float, deadline_s: float, work_ms: float, apply_fn
    ) -> Tuple[Outcome, float, int, str]:
        """Drive one downstream operation to a terminal outcome.

        Returns ``(outcome, time_after, attempts, detail)``.  ``apply_fn``
        runs only on the successful attempt (and must not raise for
        reasons the fault model covers -- real exceptions propagate,
        they are bugs, not overload).
        """
        attempts = 0
        detail = ""
        work_s = work_ms / 1e3
        rpc_timeout_s = RPC_TIMEOUT_MS / 1e3
        while True:
            if t + work_s > deadline_s:
                return Outcome.TIMEOUT, t, attempts, detail or "deadline"
            if not self._gate_attempt(t):
                self._breaker_fast_fails += 1
                self._fast_fail_counter.inc()
                return Outcome.ERROR, t, attempts, "breaker-open"
            attempts += 1
            self._downstream_attempts += 1
            self._attempts_counter.inc()
            failure = self._attempt_failure(t)
            if failure is None:
                self._sim_now = t
                try:
                    apply_fn()
                except ReplicationError:
                    # The commit could not reach quorum (partition mid-
                    # attempt): a retryable failure, not a bug.
                    failure = "no-quorum"
                else:
                    self.breaker.record_success(t)
                    return Outcome.OK, t + work_s, attempts, detail
            detail = failure
            self.breaker.record_failure(t)
            t += rpc_timeout_s
            if attempts >= MAX_ATTEMPTS:
                return Outcome.ERROR, t, attempts, "retries-exhausted"
            if not self.budget.try_spend():
                return Outcome.ERROR, t, attempts, "retry-budget"
            t += self._retry_policy.backoff_ms(attempts, self._rng) / 1e3

    # ------------------------------------------------------------------ #
    # Per-kind dispatch
    # ------------------------------------------------------------------ #

    def _retarget_target(
        self, request: TenantRequest
    ) -> Tuple[OcsId, int, int]:
        ocs, north = self.config.tenant_circuit(request.tenant)
        south = self.config.south_for_bank(north, int(request.param("bank", 0)))
        return ocs, north, south

    def _commit_solo(self, payload: Dict[str, object], token: str) -> None:
        # The delta plane: the replicas' own apply step, straight onto
        # the one fabric -- no log, no quorum, no plan diff.
        apply_entry(self._solo_manager, payload)

    def _commit_replicated(self, payload: Dict[str, object], token: str) -> None:
        self.replication.submit(payload, self._sim_now, token=token)

    def _commit_retarget(
        self, changes: Dict[Tuple[OcsId, int], int], token: str
    ) -> None:
        self._commit(
            {
                "op": "retarget",
                "changes": sorted(
                    [ocs.index, north, south]
                    for (ocs, north), south in changes.items()
                ),
            },
            token,
        )

    def _dispatch_retarget(self, request: TenantRequest, t: float) -> float:
        ocs, north, south = self._retarget_target(request)
        work_ms = (
            RECONFIGURE_MS
            if request.kind is RequestKind.RECONFIGURE
            else TRAFFIC_UPDATE_MS
        )
        self.budget.deposit()

        def apply() -> None:
            self._commit_retarget({(ocs, north): south}, request.request_id)
            self._commit_log.append(
                CommitEntry(
                    "retarget", request.request_id, (ocs.index, north, south)
                )
            )

        outcome, t_end, attempts, detail = self._run_attempts(
            t, request.deadline_s, work_ms, apply
        )
        self._record(request, outcome, t_end, attempts=attempts, detail=detail)
        return t_end

    def _dispatch_slice_alloc(self, request: TenantRequest, t: float) -> float:
        cubes = int(request.param("cubes", 1))
        job = JobRequest(
            job_id=JobId(request.request_id),
            cubes=cubes,
            duration_s=3600.0,
            arrival_s=request.arrival_s,
        )
        port = self._free_ports[0] if self._free_ports else None
        if port is None or self._cubes.try_allocate(job) is None:
            t_end = t + NOOP_MS / 1e3
            self._record(request, Outcome.ERROR, t_end, detail="capacity")
            return t_end
        self.budget.deposit()

        def apply() -> None:
            self._commit(
                {
                    "op": "establish",
                    "link": f"sl-{request.request_id}",
                    "ocs": self.config.slice_ocs.index,
                    "north": port,
                    "south": port,
                },
                request.request_id,
            )
            heapq.heappop(self._free_ports)  # == port (peeked above)
            self._allocs[request.request_id] = (job, port)
            self._commit_log.append(
                CommitEntry("slice-alloc", request.request_id, (port,))
            )

        outcome, t_end, attempts, detail = self._run_attempts(
            t, request.deadline_s, SLICE_ALLOC_MS, apply
        )
        if outcome is not Outcome.OK:
            # The cube reservation never committed downstream; give it back.
            self._cubes.release(job)
        self._record(request, outcome, t_end, attempts=attempts, detail=detail)
        return t_end

    def _dispatch_slice_release(self, request: TenantRequest, t: float) -> float:
        alloc_id = str(request.param("slice", ""))
        held = self._allocs.get(alloc_id)
        if held is None:
            # Alloc was rejected/shed/timed out (or already released):
            # releasing nothing is success, explicitly.
            t_end = t + NOOP_MS / 1e3
            self._record(request, Outcome.OK, t_end, detail="noop")
            return t_end
        job, port = held
        self.budget.deposit()

        def apply() -> None:
            self._commit(
                {"op": "teardown", "link": f"sl-{alloc_id}"}, request.request_id
            )
            heapq.heappush(self._free_ports, port)
            self._cubes.release(job)
            del self._allocs[alloc_id]
            self._commit_log.append(
                CommitEntry("slice-release", request.request_id, ref=alloc_id)
            )

        outcome, t_end, attempts, detail = self._run_attempts(
            t, request.deadline_s, SLICE_RELEASE_MS, apply
        )
        self._record(request, outcome, t_end, attempts=attempts, detail=detail)
        return t_end

    def _dispatch_telemetry(self, request: TenantRequest, t: float) -> float:
        cached = self._telemetry_cache
        if (
            self.brownout.serve_cached_telemetry
            and cached is not None
            and t - cached[1] <= TELEMETRY_TTL_S
        ):
            self._cache_hits += 1
            self._telemetry_hit_counter.inc()
            t_end = t + TELEMETRY_CACHED_MS / 1e3
            self._record(request, Outcome.OK, t_end, detail="cached")
            return t_end
        self._telemetry_cache = (self.manager.state_digest(), t)
        self._cache_misses += 1
        self._telemetry_miss_counter.inc()
        t_end = t + TELEMETRY_FRESH_MS / 1e3
        self._record(request, Outcome.OK, t_end, detail="fresh")
        return t_end

    # ------------------------------------------------------------------ #
    # Batched (coalesced) traffic updates
    # ------------------------------------------------------------------ #

    def _enqueue_batch_member(self, request: TenantRequest, t: float) -> float:
        if not self._batch:
            self._batch_due_s = t + BATCH_WINDOW_S
        self._batch.append(request)
        t_end = t + BATCH_MEMBER_MS / 1e3
        if len(self._batch) >= BATCH_MAX_UPDATES:
            t_end = self._flush_batch(t_end)
        return t_end

    def _flush_batch(self, t: float) -> float:
        """One controller transaction for the whole window, last-writer
        wins per circuit; members that cannot make their deadline are
        timed out (explicitly) before each attempt."""
        members = self._batch
        self._batch = []
        self._batch_seq += 1
        token = f"batch-{self._batch_seq:05d}"
        flush_s = BATCH_FLUSH_MS / 1e3
        for _ in members:  # every member enters service here
            self.budget.deposit()
        attempts = 0
        while True:
            live = [m for m in members if t + flush_s <= m.deadline_s]
            for expired in (m for m in members if m not in live):
                self._record(
                    expired, Outcome.TIMEOUT, t, attempts=attempts,
                    detail="batch-deadline",
                )
            members = live
            if not members:
                return t
            if not self._gate_attempt(t):
                self._breaker_fast_fails += 1
                self._fast_fail_counter.inc()
                for m in members:
                    self._record(
                        m, Outcome.ERROR, t, attempts=attempts,
                        detail="breaker-open",
                    )
                return t
            attempts += 1
            self._downstream_attempts += 1
            self._attempts_counter.inc()
            failure = self._attempt_failure(t)
            if failure is None:
                self._sim_now = t
                changes: Dict[Tuple[OcsId, int], int] = {}
                for m in members:  # arrival order: last writer wins
                    ocs, north, south = self._retarget_target(m)
                    changes[(ocs, north)] = south
                try:
                    self._commit_retarget(changes, token)
                except ReplicationError:
                    failure = "no-quorum"
                else:
                    for m in members:
                        ocs, north, south = self._retarget_target(m)
                        self._commit_log.append(
                            CommitEntry(
                                "retarget", m.request_id, (ocs.index, north, south)
                            )
                        )
                    self.breaker.record_success(t)
                    t_end = t + flush_s
                    for m in members:
                        self._record(
                            m, Outcome.OK, t_end, attempts=attempts, detail="batched"
                        )
                    self._batches_flushed += 1
                    self._batches_counter.inc()
                    self._batch_size_hist.observe(float(len(members)))
                    return t_end
            self.breaker.record_failure(t)
            t += RPC_TIMEOUT_MS / 1e3
            if attempts >= MAX_ATTEMPTS:
                for m in members:
                    self._record(
                        m, Outcome.ERROR, t, attempts=attempts,
                        detail="retries-exhausted",
                    )
                return t
            if not self.budget.try_spend():
                for m in members:
                    self._record(
                        m, Outcome.ERROR, t, attempts=attempts, detail="retry-budget"
                    )
                return t
            t += self._retry_policy.backoff_ms(attempts, self._rng) / 1e3

    # ------------------------------------------------------------------ #
    # Event loop
    # ------------------------------------------------------------------ #

    def _dispatch(self, request: TenantRequest, t: float) -> float:
        kind = request.kind
        if kind is RequestKind.TELEMETRY_QUERY:
            return self._dispatch_telemetry(request, t)
        if kind is RequestKind.TRAFFIC_UPDATE and self.brownout.coalesce_updates:
            return self._enqueue_batch_member(request, t)
        if kind in (RequestKind.TRAFFIC_UPDATE, RequestKind.RECONFIGURE):
            return self._dispatch_retarget(request, t)
        if kind is RequestKind.SLICE_ALLOC:
            return self._dispatch_slice_alloc(request, t)
        return self._dispatch_slice_release(request, t)

    def run(
        self,
        requests: Union[Sequence[TenantRequest], Iterable[TenantRequest]],
        faults: Optional[FaultInjector] = None,
    ) -> ServeReport:
        """Serve the whole stream; returns the deterministic report.

        ``requests`` may be any iterable in arrival order (e.g.
        :meth:`~repro.serve.workload.ServeWorkload.stream`); nothing is
        pre-materialized.
        """
        if faults is not None:
            self.attach_faults(faults)

        def advance(t: float) -> None:
            if faults is not None:
                faults.advance_to(t)

        INF = math.inf
        queue = self.queue
        stream = iter(requests)
        next_request = next(stream, None)
        with self.obs.tracer.span("serve.run") as span:
            now = 0.0
            server_free = 0.0
            next_maintenance = MAINTENANCE_INTERVAL_S
            # The event calendar, as scalars.  Four candidate events --
            # arrival (0), batch flush (1), maintenance (2), serve (3)
            # -- ordered by (time, index); absent events sit at +inf and
            # each branch invalidates only the candidates it moved.
            while next_request is not None or len(queue) or self._batch:
                arrival_t = next_request.arrival_s if next_request is not None else INF
                when = arrival_t
                what = 0
                if self._batch and self._batch_due_s < when:
                    when = self._batch_due_s
                    what = 1
                if len(queue):
                    serve_t = server_free if server_free > now else now
                    if serve_t < when:
                        when = serve_t
                        what = 3
                # Maintenance joins the calendar only once due (<= the
                # earliest other event) and loses (time, index) ties to
                # arrivals and flushes but beats serves.
                if next_maintenance <= when and (
                    next_maintenance < when or what == 3
                ):
                    when = next_maintenance
                    what = 2
                if when > now:
                    now = when
                advance(when)
                if what == 0:
                    request = next_request
                    next_request = next(stream, None)
                    self._offered += 1
                    self._sink.offered(request)
                    ok, reason = self.admission.admit(request.tenant, when)
                    if not ok:
                        self._record(request, Outcome.REJECTED, when, detail=reason)
                    else:
                        shed = queue.push(request, when)
                        if shed is not None:
                            self._sink.shed(shed)
                            self._record(
                                shed.victim, Outcome.SHED, when,
                                detail=f"displaced-by:{shed.displaced_by}",
                            )
                    self._observe_pressure(when)
                elif what == 1:
                    start = max(when, server_free)
                    advance(start)
                    server_free = self._flush_batch(start)
                elif what == 2:
                    next_maintenance += MAINTENANCE_INTERVAL_S
                    if self.brownout.defer_maintenance or not self._maintain(when):
                        self._maintenance_deferred += 1
                        self._maint_deferred_counter.inc()
                    else:
                        self._maintenance_runs += 1
                        self._maint_runs_counter.inc()
                        server_free = (
                            max(when, server_free) + MAINTENANCE_MS / 1e3
                        )
                else:
                    start = max(when, server_free)
                    advance(start)
                    request = queue.pop()
                    if start > request.deadline_s:
                        self._record(
                            request, Outcome.TIMEOUT, start,
                            detail="expired-in-queue",
                        )
                        server_free = start
                    else:
                        server_free = self._dispatch(request, start)
                    self._observe_pressure(server_free)

            # The service was occupied until server_free: deliver every
            # fault (and recovery) that fired while it was still busy,
            # so a clear scheduled during the final drain is not lost.
            advance(max(now, server_free))
            if self.replication is not None:
                self.replication.finalize_outage(max(now, server_free))
            span.set_attr("requests", self._offered)

            if self._sink.total_recorded != self._offered:
                raise ServeError(
                    f"partition violated: {self._offered} offered, "
                    f"{self._sink.total_recorded} terminal outcomes"
                )
            state_digest = self.manager.state_digest()
            scratch_digest = _scratch_state_digest(self.manager)
            if state_digest != scratch_digest:
                raise ServeError(
                    f"memoized state digest {state_digest[:12]} diverged "
                    f"from fabric state {scratch_digest[:12]}"
                )
            final = self._sink.finalize()
            if isinstance(final, StreamAggregates):
                records = RecordLog()
                shed_records: List[ShedRecord] = []
                aggregates: Optional[StreamAggregates] = final
            else:
                records = final
                shed_records = list(self._sink.shed_records)
                aggregates = None
            report = ServeReport(
                config=self.config,
                records=records,
                shed_records=shed_records,
                aggregates=aggregates,
                commit_log=list(self._commit_log),
                offered=self._offered,
                downstream_attempts=self._downstream_attempts,
                deposits=self.budget.deposits,
                retries_granted=self.budget.retries_granted,
                retries_denied=self.budget.retries_denied,
                breaker_trips=self.breaker.trips,
                breaker_fast_fails=self._breaker_fast_fails,
                brownout_transitions=self.brownout.transitions,
                maintenance_runs=self._maintenance_runs,
                maintenance_deferred=self._maintenance_deferred,
                batches_flushed=self._batches_flushed,
                telemetry_cache_hits=self._cache_hits,
                telemetry_cache_misses=self._cache_misses,
                recoveries=self._recoveries,
                state_digest=state_digest,
                faults_digest=(
                    faults.delivered_digest() if faults is not None else ""
                ),
                failovers=self._failovers,
                **self._replication_accounting(),
            )
            self.obs.metrics.gauge("serve.offered").set(float(report.offered))
            self.obs.metrics.gauge("serve.admitted").set(float(report.admitted))
        return report

    def _replication_accounting(self) -> Dict[str, object]:
        """The report's replicated-plane fields (defaults when solo)."""
        group = self.replication
        if group is None:
            return {}
        return {
            "elections": group.elections,
            "fencing_rejections": group.fencing_rejections,
            "committed_ops_lost": group.committed_ops_lost(),
            "failover_durations_s": tuple(group.failover_durations_s),
            "failover_unavailable_s": group.unavailable_s,
        }


def replay_committed(config: ServeConfig, commit_log: Sequence[CommitEntry]) -> str:
    """Serially replay the commit log against a fresh manager.

    Returns the resulting state digest, which must equal the live run's
    ``state_digest`` -- the acceptance bar for "no silent drops, no
    divergence".  Slice ports are re-derived from replayed state and
    checked against the recorded port, so a drifted port chooser is an
    explicit :class:`~repro.core.errors.ServeError`, not a silently
    different-but-valid fabric.
    """
    manager = build_serve_manager(config)
    for entry in commit_log:
        if entry.op == "retarget":
            ocs_index, north, south = entry.ints
            state = manager.switch(OcsId(ocs_index)).state
            if state.south_of(north) != south:
                if state.south_of(north) is not None:
                    state.disconnect(north)
                other = state.north_of(south)
                if other is not None:
                    state.disconnect(other)
                state.connect(north, south)
        elif entry.op == "slice-alloc":
            (port,) = entry.ints
            state = manager.switch(config.slice_ocs).state
            expected = next(
                (
                    p
                    for p in range(SLICE_RADIX)
                    if state.south_of(p) is None and state.north_of(p) is None
                ),
                None,
            )
            if expected != port:
                raise ServeError(
                    f"replay diverged: {entry.request_id} committed port {port} "
                    f"but replay would choose {expected}"
                )
            manager.establish(
                LinkId(f"sl-{entry.request_id}"), config.slice_ocs, port, port
            )
        elif entry.op == "slice-release":
            manager.teardown(LinkId(f"sl-{entry.ref}"))
        else:
            raise ServeError(f"unknown commit-log op {entry.op!r}")
    return manager.state_digest()
