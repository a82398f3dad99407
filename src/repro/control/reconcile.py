"""Anti-entropy reconciliation: intended links vs. hardware state.

Crash recovery (:mod:`repro.control.journal`) restores the *controller*;
this loop heals the *fabric*.  Divergence between the logical-link table
and the switches' actual cross-connect state creeps in from stuck
mirrors, HV board failures, operators poking devices directly, or a
half-programmed transaction a dead controller left behind.  The
reconciler periodically:

1. **diffs** intent against every switch's live cross-connect state,
   classifying each divergence
   (:class:`DriftKind`): a *missing circuit* (intent with no hardware),
   a *wrong peer* (north port landed on the wrong south port), or an
   *orphan circuit* (hardware nobody intends);
2. builds the **minimal repair plan** -- only drifted switches are
   targeted, and on those, only the drifted circuits are disturbed
   (bystanders ride through untouched, §2.3 job isolation);
3. issues the plan through the **resilient transaction path**
   (:class:`~repro.faults.resilience.ResilientReconfigurer`), so repair
   programming itself retries through RPC timeouts and rolls back
   cleanly on exhaustion, to try again next round.

The loop converges when :meth:`~repro.core.fabric_manager.FabricManager.
verify_links` is empty and no orphans remain.

Scope note: the reconciler treats the logical-link table as the *whole*
intent, so it only suits managers operated through that table (the
durable controller path).  Assemblies that program circuits without
logical links (e.g. the superpod's wiring) would see those circuits as
orphans; point it only at fabrics it owns.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.crossconnect import CrossConnectMap
from repro.core.errors import TransactionError
from repro.core.fabric_manager import FabricManager
from repro.core.ids import LinkId, OcsId
from repro.faults.resilience import (
    ControlPlaneFaults,
    ResilientReconfigurer,
    RetryPolicy,
)
from repro.obs import NULL_OBS, Observability


class DriftKind(enum.Enum):
    """Classification of one intent/hardware divergence."""

    #: An intended link's circuit does not exist on the switch.
    MISSING_CIRCUIT = "missing-circuit"
    #: The link's north port is connected, but to the wrong south port.
    WRONG_PEER = "wrong-peer"
    #: A hardware circuit no logical link claims.
    ORPHAN_CIRCUIT = "orphan-circuit"


@dataclass(frozen=True)
class Drift:
    """One detected divergence.

    Attributes:
        kind: the classification.
        ocs: switch the drift lives on.
        link_id: the intended link (None for orphans).
        north: north port involved.
        want_south: intended south port (None for orphans).
        have_south: observed south port (None when no circuit exists).
    """

    kind: DriftKind
    ocs: OcsId
    link_id: Optional[LinkId]
    north: int
    want_south: Optional[int]
    have_south: Optional[int]

    def __str__(self) -> str:
        who = self.link_id if self.link_id is not None else "(orphan)"
        return (
            f"[{self.kind.value}] {who}@{self.ocs} N{self.north}: "
            f"want S{self.want_south}, have S{self.have_south}"
        )


@dataclass(frozen=True)
class ReconcileReport:
    """Outcome of one :meth:`Reconciler.run` pass."""

    rounds: int
    initial_drifts: Tuple[Drift, ...]
    repaired_circuits: int
    transactions: int
    rollbacks: int
    converged: bool


@dataclass
class Reconciler:
    """The anti-entropy loop over one fabric manager.

    Args:
        manager: the fabric under management.
        policy: retry policy for repair transactions.
        faults: injected control-plane fault state (repairs run through
            it, like any other programming).
        seed: seed for the repair transactions' backoff jitter.
        drop_orphans: tear down hardware circuits no link intends
            (the anti-entropy default); False leaves them in place and
            reports them every round.
    """

    manager: FabricManager
    policy: RetryPolicy = field(default_factory=RetryPolicy)
    faults: Optional[ControlPlaneFaults] = None
    seed: int = 0
    drop_orphans: bool = True
    obs: Optional[Observability] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.obs is None:
            self.obs = NULL_OBS  # type: ignore[assignment]

    # ------------------------------------------------------------------ #
    # Diff
    # ------------------------------------------------------------------ #

    def diff(self) -> Tuple[Drift, ...]:
        """Classify every divergence between intent and hardware."""
        manager = self.manager
        drifts: List[Drift] = []
        claimed: Dict[OcsId, Dict[int, int]] = {
            ocs: {} for ocs in manager.switch_ids
        }
        for link in manager.links:
            if link.ocs not in claimed:
                drifts.append(
                    Drift(DriftKind.MISSING_CIRCUIT, link.ocs, link.link_id,
                          link.north, link.south, None)
                )
                continue
            claimed[link.ocs][link.north] = link.south
            have = manager.switch(link.ocs).state.south_of(link.north)
            if have is None:
                drifts.append(
                    Drift(DriftKind.MISSING_CIRCUIT, link.ocs, link.link_id,
                          link.north, link.south, None)
                )
            elif have != link.south:
                drifts.append(
                    Drift(DriftKind.WRONG_PEER, link.ocs, link.link_id,
                          link.north, link.south, have)
                )
        for ocs, intent in claimed.items():
            for north, south in sorted(manager.switch(ocs).state.circuits):
                if intent.get(north) != south:
                    # Either nobody intends this north port, or it is a
                    # wrong-peer occupation (already reported above via
                    # the link); only unclaimed circuits are orphans.
                    if north not in intent and not self._south_claimed(
                        intent, south
                    ):
                        drifts.append(
                            Drift(DriftKind.ORPHAN_CIRCUIT, ocs, None,
                                  north, None, south)
                        )
        return tuple(drifts)

    @staticmethod
    def _south_claimed(intent: Dict[int, int], south: int) -> bool:
        return south in intent.values()

    # ------------------------------------------------------------------ #
    # Repair
    # ------------------------------------------------------------------ #

    def repair_targets(
        self, drifts: Tuple[Drift, ...]
    ) -> Dict[OcsId, CrossConnectMap]:
        """Minimal per-switch target maps fixing the given drifts.

        Only drifted switches appear; each target starts from the
        switch's current state so undrifted circuits are preserved
        verbatim (and therefore land in the plan's ``unchanged`` set).
        """
        touched = sorted({d.ocs for d in drifts if self._repairable(d)})
        intent: Dict[OcsId, Dict[int, int]] = {ocs: {} for ocs in touched}
        for link in self.manager.links:
            if link.ocs in intent:
                intent[link.ocs][link.north] = link.south
        targets: Dict[OcsId, CrossConnectMap] = {}
        for ocs in touched:
            state = self.manager.switch(ocs).state
            circuits = {n: s for n, s in state.circuits}
            want = intent[ocs]
            if self.drop_orphans:
                claimed_souths = set(want.values())
                circuits = {
                    n: s
                    for n, s in circuits.items()
                    if n in want or s in claimed_souths
                }
            # Clear both ports of every intended circuit, then land it.
            for north, south in sorted(want.items()):
                circuits.pop(north, None)
                circuits = {n: s for n, s in circuits.items() if s != south}
            for north, south in sorted(want.items()):
                circuits[north] = south
            targets[ocs] = CrossConnectMap.from_circuits(state.radix, circuits)
        return targets

    def _repairable(self, drift: Drift) -> bool:
        if drift.kind is DriftKind.ORPHAN_CIRCUIT and not self.drop_orphans:
            return False
        try:
            self.manager.switch(drift.ocs)
        except Exception:
            return False
        return True

    # ------------------------------------------------------------------ #
    # The loop
    # ------------------------------------------------------------------ #

    def run_once(self) -> Tuple[Tuple[Drift, ...], int, bool]:
        """One diff-and-repair pass.

        Returns ``(drifts, circuits_disturbed, rolled_back)``; a rolled
        back repair transaction (injected faults exhausted the retries)
        leaves the fabric for the next round.
        """
        with self.obs.tracer.span("reconcile.round") as span:
            drifts = self.diff()
            span.set_attr("drifts", len(drifts))
            for drift in drifts:
                self.obs.metrics.counter(
                    "reconcile.drifts", kind=drift.kind.value
                ).inc()
            if not any(self._repairable(d) for d in drifts):
                return drifts, 0, False
            targets = self.repair_targets(drifts)
            if not targets:
                return drifts, 0, False
            reconfigurer = ResilientReconfigurer(
                manager=self.manager,
                policy=self.policy,
                faults=self.faults,
                seed=self.seed,
                obs=self.obs,
            )
            try:
                result = reconfigurer.reconfigure(targets)
            except TransactionError:
                self.obs.metrics.counter("reconcile.rollbacks").inc()
                span.set_attr("rolled_back", True)
                return drifts, 0, True
            self.obs.metrics.counter("reconcile.repaired_circuits").inc(
                result.circuits_disturbed
            )
            return drifts, result.circuits_disturbed, False

    def run(self, max_rounds: int = 5) -> ReconcileReport:
        """Diff and repair until clean or ``max_rounds`` is exhausted."""
        initial: Tuple[Drift, ...] = ()
        repaired = 0
        transactions = 0
        rollbacks = 0
        rounds = 0
        with self.obs.tracer.span("reconcile.run", max_rounds=max_rounds) as span:
            for round_index in range(max_rounds):
                drifts, disturbed, rolled_back = self.run_once()
                if round_index == 0:
                    initial = drifts
                if not any(self._repairable(d) for d in drifts):
                    break
                rounds += 1
                transactions += 1
                repaired += disturbed
                rollbacks += 1 if rolled_back else 0
            # Convergence ignores drift the loop is configured not to act on
            # (orphans under drop_orphans=False, unregistered switches).
            converged = not any(
                self._repairable(d) for d in self.diff()
            ) and not self.manager.verify_links()
            span.set_attr("rounds", rounds)
            span.set_attr("converged", converged)
            self.obs.metrics.counter("reconcile.runs").inc()
            if not converged:
                self.obs.metrics.counter("reconcile.unconverged_runs").inc()
        return ReconcileReport(
            rounds=rounds,
            initial_drifts=initial,
            repaired_circuits=repaired,
            transactions=transactions,
            rollbacks=rollbacks,
            converged=converged,
        )
