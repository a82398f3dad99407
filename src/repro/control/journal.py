"""The durable fabric-manager front end and its crash-recovery protocol.

Mission-Apollo-style management plane (§3.2.2): the controller's
volatile state (the logical-link table, in-flight transactions) must be
reconstructible after a crash, because the hardware keeps running -- the
switches hold their mirrors wherever the dead controller left them.

:class:`DurableController` wraps a :class:`~repro.core.fabric_manager.
FabricManager` so that **every intent mutation is journaled before any
switch is touched**:

- single ops (``establish``/``adopt``/``teardown``) are one WAL record
  each -- the record *is* the commit marker, so a crash between the
  append and the hardware apply rolls the op forward on recovery;
- multi-OCS ``reconfigure`` is a transaction: a ``txn-begin`` record
  carries the full targets, per-switch ``txn-apply`` records land as
  each switch is programmed, and a ``txn-commit`` marker seals the
  batch.  Recovery rolls a transaction **forward** when the commit
  marker is durable and **back** when it is not: replay leaves an
  uncommitted transaction's targets out of the intent, and recovery
  drives every switch to the replayed intent -- deterministically,
  whatever subset of switches the crash left programmed.  No
  pre-transaction state is journaled: the intent before ``txn-begin``
  already is it;
- ``checkpoint()`` snapshots the whole control plane into the log and
  compacts everything older.

:func:`recover` is the restart path: repair the WAL tail, load the last
checkpoint, replay the committed suffix into an *intent* model, resolve
the at-most-one open transaction, then drive every switch's hardware to
the intent with hitless plans.  Running it twice is a no-op the second
time (replay idempotence), and the resulting
:meth:`~repro.core.fabric_manager.FabricManager.state_digest` is a pure
function of the journal bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from repro.core.crossconnect import CrossConnectMap
from repro.core.errors import (
    ConfigurationError,
    CrossConnectError,
    IdempotencyError,
    PortInUseError,
    RecoveryError,
    TopologyError,
)
from repro.core.fabric_manager import FabricManager, LogicalLink
from repro.core.ids import LinkId, OcsId
from repro.core.reconfig import plan_reconfiguration
from repro.control.wal import CrashSchedule, WalRecord, WriteAheadLog
from repro.obs import NULL_OBS, Observability

#: WAL record kinds written by the controller.
KIND_CHECKPOINT = "checkpoint"
KIND_OP = "op"
KIND_TXN_BEGIN = "txn-begin"
KIND_TXN_APPLY = "txn-apply"
KIND_TXN_COMMIT = "txn-commit"


def _circuits_payload(circuits: Mapping[int, int]) -> List[List[int]]:
    return [[n, s] for n, s in sorted(circuits.items())]


def _circuits_from_payload(entry) -> Dict[int, int]:
    return {int(n): int(s) for n, s in entry}


#: Sentinel distinguishing "token unknown" from a committed None result.
_TOKEN_MISS = object()


@dataclass
class DurableController:
    """WAL-backed front end to a fabric manager.

    All intent mutations flow through here; the wrapped manager's own
    mutating methods must not be called directly once a controller owns
    it, or the journal and reality diverge (the reconciler will find the
    drift, but recovery correctness is only guaranteed through this
    API).

    Args:
        manager: the fabric manager (its switches are "the hardware").
        wal: the write-ahead log; pass one whose ``storage`` survived a
            crash to :func:`recover` instead of building directly.
        crash: optional deterministic crash schedule shared with the
            WAL (drills); every append and hardware apply is a step.
        token_table_cap: retained idempotency tokens.  This cap is a
            **correctness bound**, not a tuning knob: once the table
            overflows, the oldest token is evicted (observable via the
            ``control.journal.token_evictions`` counter and
            :attr:`tokens_evicted`), and a retry that presents an
            evicted token raises :class:`~repro.core.errors.
            IdempotencyError` instead of silently double-applying.
            Size it above the maximum in-flight retry window.

    **Idempotency tokens.**  Every intent mutation accepts an optional
    ``token``.  The token rides in the journaled payload, so "this
    request committed" and "this token is burned" are the same durable
    fact: retrying a committed request with its original token replays
    the committed result without appending a second journal entry or
    touching hardware again.  Recovery rebuilds the token table from the
    WAL (and checkpoints persist it across compaction), so a client that
    crashed mid-retry can safely retry against the recovered controller.
    """

    manager: FabricManager
    wal: WriteAheadLog = field(default_factory=WriteAheadLog)
    crash: Optional[CrashSchedule] = None
    obs: Optional[Observability] = field(default=None, repr=False)
    token_table_cap: int = 4096
    _tokens: Dict[str, Tuple[object, ...]] = field(
        init=False, default_factory=dict, repr=False
    )
    _evicted_tokens: set = field(init=False, default_factory=set, repr=False)

    def __post_init__(self) -> None:
        if self.obs is None:
            self.obs = NULL_OBS  # type: ignore[assignment]
        self.wal.crash = self.crash
        if self.wal.byte_size == 0:
            # Adoption bootstrap: the genesis checkpoint records the state
            # the controller inherited.  Not crash-instrumented -- the
            # operator watches this one step.
            self.wal.crash = None
            self.wal.append(KIND_CHECKPOINT, self.manager.checkpoint())
            self.wal.crash = self.crash

    # ------------------------------------------------------------------ #
    # Instrumentation
    # ------------------------------------------------------------------ #

    def _step(self, label: str) -> None:
        if self.crash is not None:
            self.crash.step(label)

    # ------------------------------------------------------------------ #
    # Idempotency tokens
    # ------------------------------------------------------------------ #

    def _token_replay(self, token: Optional[str], op: str):
        """Committed result for ``token``, or ``_TOKEN_MISS`` if unseen.

        A token whose table entry was evicted raises loudly: replaying
        it would re-execute a committed mutation, which is exactly the
        double-apply the tokens exist to prevent.
        """
        if token is None:
            return _TOKEN_MISS
        spec = self._tokens.get(token)
        if spec is None:
            if token in self._evicted_tokens:
                self.obs.metrics.counter(
                    "control.journal.token_replay_after_eviction", op=op
                ).inc()
                raise IdempotencyError(
                    f"token {token!r} ({op}) was evicted from the idempotency "
                    f"table (cap {self.token_table_cap}); its committed result "
                    "can no longer be replayed safely -- raise token_table_cap "
                    "above the in-flight retry window"
                )
            return _TOKEN_MISS
        self.obs.metrics.counter("control.journal.token_replays", op=op).inc()
        if spec[0] == "link":
            return LogicalLink(
                LinkId(str(spec[1])), OcsId(int(spec[2])), int(spec[3]), int(spec[4])
            )
        if spec[0] == "duration":
            return float(spec[1])
        return None  # committed teardown

    def _remember(self, token: Optional[str], spec: Tuple[object, ...]) -> None:
        if token is None:
            return
        self._tokens[token] = spec
        self._evicted_tokens.discard(token)
        while len(self._tokens) > self.token_table_cap:
            evicted = next(iter(self._tokens))
            self._tokens.pop(evicted)
            self._evicted_tokens.add(evicted)
            self.obs.metrics.counter("control.journal.token_evictions").inc()

    @property
    def known_tokens(self) -> int:
        return len(self._tokens)

    @property
    def tokens_evicted(self) -> int:
        """Tokens dropped past :attr:`token_table_cap` -- each one is a
        request id that can no longer be retried safely."""
        return len(self._evicted_tokens)

    # ------------------------------------------------------------------ #
    # Single-record ops (the record is the commit marker)
    # ------------------------------------------------------------------ #

    def _check_new_link(self, link_id: LinkId) -> None:
        try:
            self.manager.link(link_id)
        except TopologyError:
            return
        raise ConfigurationError(f"link {link_id} already exists")

    def establish(
        self,
        link_id: LinkId,
        ocs_id: OcsId,
        north: int,
        south: int,
        *,
        token: Optional[str] = None,
    ) -> LogicalLink:
        """Journal then create one circuit + logical link."""
        replay = self._token_replay(token, "establish")
        if replay is not _TOKEN_MISS:
            return replay  # type: ignore[return-value]
        self._check_new_link(link_id)
        sw = self.manager.switch(ocs_id)
        if sw.state.south_of(north) is not None or sw.state.north_of(south) is not None:
            raise PortInUseError(
                f"{ocs_id}: N{north} or S{south} already carries a circuit"
            )
        with self.obs.tracer.span("control.op", op="establish", link=link_id):
            payload = {"op": "establish", "link": str(link_id), "ocs": ocs_id.index,
                       "north": north, "south": south}
            if token is not None:
                payload["token"] = token
            self.wal.append(KIND_OP, payload)
            self._remember(token, ("link", str(link_id), ocs_id.index, north, south))
            self._step("op-durable")
            link = self.manager.establish(link_id, ocs_id, north, south)
            self._step("op-applied")
        self.obs.metrics.counter("control.journal.ops", op="establish").inc()
        return link

    def adopt_link(
        self,
        link_id: LinkId,
        ocs_id: OcsId,
        north: int,
        south: int,
        *,
        token: Optional[str] = None,
    ) -> LogicalLink:
        """Journal then record intent for an already-existing circuit."""
        replay = self._token_replay(token, "adopt")
        if replay is not _TOKEN_MISS:
            return replay  # type: ignore[return-value]
        self._check_new_link(link_id)
        sw = self.manager.switch(ocs_id)
        if sw.state.south_of(north) != south:
            raise CrossConnectError(
                f"{ocs_id}: no circuit N{north} -> S{south} to adopt for {link_id}"
            )
        with self.obs.tracer.span("control.op", op="adopt", link=link_id):
            payload = {"op": "adopt", "link": str(link_id), "ocs": ocs_id.index,
                       "north": north, "south": south}
            if token is not None:
                payload["token"] = token
            self.wal.append(KIND_OP, payload)
            self._remember(token, ("link", str(link_id), ocs_id.index, north, south))
            self._step("op-durable")
            link = self.manager.adopt_link(link_id, ocs_id, north, south)
            self._step("op-applied")
        self.obs.metrics.counter("control.journal.ops", op="adopt").inc()
        return link

    def teardown(self, link_id: LinkId, *, token: Optional[str] = None) -> None:
        """Journal then destroy a logical link and its circuit."""
        replay = self._token_replay(token, "teardown")
        if replay is not _TOKEN_MISS:
            return None
        link = self.manager.link(link_id)
        with self.obs.tracer.span("control.op", op="teardown", link=link_id):
            payload = {"op": "teardown", "link": str(link_id), "ocs": link.ocs.index,
                       "north": link.north, "south": link.south}
            if token is not None:
                payload["token"] = token
            self.wal.append(KIND_OP, payload)
            self._remember(token, ("none",))
            self._step("op-durable")
            self.manager.teardown(link_id)
            self._step("op-applied")
        self.obs.metrics.counter("control.journal.ops", op="teardown").inc()

    # ------------------------------------------------------------------ #
    # Multi-OCS transactions
    # ------------------------------------------------------------------ #

    def reconfigure(
        self,
        targets: Mapping[OcsId, CrossConnectMap],
        *,
        token: Optional[str] = None,
    ) -> float:
        """Journaled multi-OCS reconfiguration.

        ``txn-begin`` (targets) -> per-switch apply +
        ``txn-commit``.  A crash at any point recovers
        deterministically: forward past the commit marker, back before
        it.  The token (if any) rides on ``txn-begin`` but is only
        burned by the commit marker -- a rolled-back transaction leaves
        its token spendable, so the retry re-executes.
        """
        replay = self._token_replay(token, "reconfigure")
        if replay is not _TOKEN_MISS:
            return float(replay)  # type: ignore[arg-type]
        plans = self.manager.plan(targets)
        order = sorted(plans)
        begin_payload = {
            "targets": {
                str(ocs_id.index): _circuits_payload(
                    dict(targets[ocs_id].circuits)
                )
                for ocs_id in order
            },
        }
        if token is not None:
            begin_payload["token"] = token
        self.wal.append(KIND_TXN_BEGIN, begin_payload)
        self._step("txn-begin-durable")
        max_duration = 0.0
        with self.obs.tracer.span("control.txn", switches=len(order)):
            for ocs_id in order:
                duration = self.manager.apply_switch_plan(ocs_id, plans[ocs_id])
                max_duration = max(max_duration, duration)
                self._step("txn-switch-applied")
                self.wal.append(KIND_TXN_APPLY, {"ocs": ocs_id.index})
                self._step("txn-apply-durable")
            self.wal.append(KIND_TXN_COMMIT, {})
            self._remember(token, ("duration", max_duration))
            self._step("txn-commit-durable")
            self.manager.drop_stale_links()
            self.obs.metrics.counter("control.txn.commits").inc()
        return max_duration

    # ------------------------------------------------------------------ #
    # Checkpointing
    # ------------------------------------------------------------------ #

    def checkpoint(self) -> WalRecord:
        """Snapshot the control plane into the log and compact behind it.

        The idempotency-token table rides in the checkpoint payload
        (insertion order preserved, for eviction), so compaction cannot
        forget which requests already committed.
        """
        with self.obs.tracer.span("control.checkpoint"):
            payload = dict(self.manager.checkpoint())
            payload["tokens"] = [
                [tok, *spec] for tok, spec in self._tokens.items()
            ]
            # Evicted tokens are durable too: compaction must not turn
            # "evicted, unsafe to retry" back into "never seen".
            payload["evicted_tokens"] = sorted(self._evicted_tokens)
            record = self.wal.append(KIND_CHECKPOINT, payload)
            self._step("checkpoint-durable")
            self.wal.compact(record.seq)
        self.obs.metrics.counter("control.checkpoint.writes").inc()
        return record

    def state_digest(self) -> str:
        """Digest of the live control-plane state (delegates)."""
        return self.manager.state_digest()


# ---------------------------------------------------------------------- #
# Recovery
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class RecoveryReport:
    """What one crash recovery did, deterministically.

    Attributes:
        records_replayed: committed records applied after the checkpoint.
        checkpoint_seq: seq of the checkpoint the replay started from
            (``-1`` when the log held none).
        tail_bytes_dropped: torn/corrupt tail bytes discarded.
        open_txn: fate of the at-most-one unfinished transaction --
            ``"none"``, ``"rolled-forward"`` (commit marker durable), or
            ``"rolled-back"``.
        switches_repaired: switches whose hardware needed driving.
        circuits_driven: total breaks+makes recovery applied to hardware.
        state_digest: the recovered manager's state digest.
    """

    records_replayed: int
    checkpoint_seq: int
    tail_bytes_dropped: int
    open_txn: str
    switches_repaired: int
    circuits_driven: int
    state_digest: str


def _replay_intent(
    records: Tuple[WalRecord, ...],
) -> Tuple[
    Dict[str, Tuple[int, int, int]],
    Dict[int, Dict[int, int]],
    int,
    str,
    int,
    Dict[str, Tuple[object, ...]],
    set,
]:
    """Fold the committed record suffix into the intent model.

    Returns ``(links, intended_circuits_per_switch, checkpoint_seq,
    open_txn_outcome, replayed_count, tokens, evicted_tokens)``.
    """
    links: Dict[str, Tuple[int, int, int]] = {}
    intended: Dict[int, Dict[int, int]] = {}
    tokens: Dict[str, Tuple[object, ...]] = {}
    evicted: set = set()
    checkpoint_seq = -1
    open_txn: Optional[Mapping[str, object]] = None
    last_outcome = "none"
    replayed = 0

    def drop_stale_links() -> None:
        stale = [
            name
            for name, (ocs, n, s) in links.items()
            if intended.get(ocs, {}).get(n) != s
        ]
        for name in stale:
            del links[name]

    for record in records:
        if record.kind == KIND_CHECKPOINT:
            links.clear()
            intended.clear()
            tokens.clear()
            evicted.clear()
            open_txn = None
            last_outcome = "none"
            replayed = 0
            checkpoint_seq = record.seq
            for key, entry in sorted(record.payload["switches"].items()):  # type: ignore[index]
                intended[int(key)] = _circuits_from_payload(entry["circuits"])
            for name, ocs, n, s in record.payload["links"]:  # type: ignore[index]
                links[str(name)] = (int(ocs), int(n), int(s))
            for tok, *spec in record.payload.get("tokens", []):  # type: ignore[union-attr]
                tokens[str(tok)] = tuple(spec)
            evicted.update(
                str(tok)
                for tok in record.payload.get("evicted_tokens", [])  # type: ignore[union-attr]
            )
            continue
        replayed += 1
        if record.kind == KIND_OP:
            p = record.payload
            ocs, north, south = int(p["ocs"]), int(p["north"]), int(p["south"])
            if p["op"] in ("establish", "adopt"):
                intended.setdefault(ocs, {})[north] = south
                links[str(p["link"])] = (ocs, north, south)
                if "token" in p:
                    tokens[str(p["token"])] = ("link", str(p["link"]), ocs, north, south)
            else:  # teardown
                circuits = intended.get(ocs, {})
                if circuits.get(north) == south:
                    del circuits[north]
                links.pop(str(p["link"]), None)
                if "token" in p:
                    tokens[str(p["token"])] = ("none",)
        elif record.kind == KIND_TXN_BEGIN:
            open_txn = record.payload
        elif record.kind == KIND_TXN_APPLY:
            pass  # informational: which switches were programmed pre-crash
        elif record.kind == KIND_TXN_COMMIT:
            if open_txn is not None:
                for key, entry in sorted(open_txn["targets"].items()):  # type: ignore[index]
                    intended[int(key)] = _circuits_from_payload(entry)
                drop_stale_links()
                if "token" in open_txn:
                    # Replayed transactions report zero duration: the
                    # hardware work happened in the committed execution.
                    tokens[str(open_txn["token"])] = ("duration", 0.0)
                open_txn = None
                last_outcome = "rolled-forward"
        else:
            raise RecoveryError(f"unknown WAL record kind {record.kind!r}")
    if open_txn is not None:
        # No commit marker: the transaction never happened, intent-wise.
        # Hardware the crash left half-programmed is driven back to the
        # replayed intent (which leaves this transaction out) by the
        # drive pass in recover().
        last_outcome = "rolled-back"
    # A record after the checkpoint resurrects its token's committed
    # result, which makes the token replayable again.
    evicted.difference_update(tokens)
    return links, intended, checkpoint_seq, last_outcome, replayed, tokens, evicted


def recover(
    manager: FabricManager,
    storage: bytearray,
    *,
    crash: Optional[CrashSchedule] = None,
    obs: Optional[Observability] = None,
) -> Tuple[DurableController, RecoveryReport]:
    """Restart the controller from surviving WAL media.

    ``manager`` must have the surviving switch devices registered --
    their hardware state is whatever the crash left -- but its volatile
    link table is ignored and rebuilt.  Returns the new controller and a
    deterministic report; raises :class:`~repro.core.errors.
    RecoveryError` if the recovered intent cannot be realized.
    """
    if obs is None:
        obs = NULL_OBS  # type: ignore[assignment]
    with obs.tracer.span("control.recover") as span:
        start_ms = obs.clock.now()
        wal = WriteAheadLog(storage)
        tail_dropped = wal.repair_tail()
        records = wal.records(strict=True)
        (
            links, intended, checkpoint_seq, open_txn, replayed, tokens, evicted,
        ) = _replay_intent(records)

        switches_repaired = 0
        circuits_driven = 0
        for index in sorted(intended):
            ocs_id = OcsId(index)
            try:
                sw = manager.switch(ocs_id)
            except TopologyError:
                raise RecoveryError(
                    f"journal names {ocs_id} but it is not registered with the manager"
                ) from None
            target = CrossConnectMap.from_circuits(sw.radix, intended[index])
            plan = plan_reconfiguration(sw.state, target)
            if not plan.is_noop:
                with obs.tracer.span(
                    "control.recover.drive", ocs=ocs_id,
                    disturbed=plan.num_disturbed,
                ):
                    obs.clock.advance(sw.apply_plan(plan))
                switches_repaired += 1
                circuits_driven += plan.num_disturbed
        manager.replace_links(
            LogicalLink(LinkId(name), OcsId(ocs), north, south)
            for name, (ocs, north, south) in sorted(links.items())
        )
        bad = manager.verify_links()
        if bad:
            raise RecoveryError(
                f"recovery left {len(bad)} link(s) unrealized: "
                f"{', '.join(str(b) for b in bad)}"
            )
        controller = DurableController(
            manager=manager, wal=wal, crash=crash, obs=obs
        )
        # The token table is durable state: rebuilt from the journal so
        # a client retrying across the crash replays, never re-applies.
        # The evicted set rides along so "unsafe to retry" survives too.
        controller._tokens = tokens
        controller._evicted_tokens = evicted
        report = RecoveryReport(
            records_replayed=replayed,
            checkpoint_seq=checkpoint_seq,
            tail_bytes_dropped=tail_dropped,
            open_txn=open_txn,
            switches_repaired=switches_repaired,
            circuits_driven=circuits_driven,
            state_digest=manager.state_digest(),
        )
        span.set_attr("records_replayed", replayed)
        span.set_attr("open_txn", open_txn)
        span.set_attr("switches_repaired", switches_repaired)
        obs.metrics.counter("control.recover.runs").inc()
        obs.metrics.counter("control.recover.records_replayed").inc(replayed)
        obs.metrics.counter("control.recover.circuits_driven").inc(circuits_driven)
        obs.metrics.counter("control.recover.txn_outcome", outcome=open_txn).inc()
        obs.metrics.histogram("control.recover.duration_ms").observe(
            obs.clock.now() - start_ms
        )
    return controller, report
