"""Resilient cross-connect programming: retry, backoff, exact rollback.

§3.2.2 integrates OCSes into the same control plane as electrical
switches; at fleet scale that control plane sees RPC timeouts and stuck
mirrors.  This module turns :class:`~repro.core.fabric_manager.
FabricManager` programming into a *transaction*:

- each switch's hitless plan is attempted with bounded retries,
  exponential backoff and seeded jitter (:class:`RetryPolicy`);
- injected control-plane faults (:class:`ControlPlaneFaults`, fed by
  the :class:`~repro.faults.injector.FaultInjector`) fail individual
  attempts -- an RPC timeout fails a whole per-switch apply, a stuck
  mirror blocks any plan touching its port;
- on retry exhaustion every switch already programmed is rolled back by
  :meth:`~repro.core.fabric_manager.FabricManager.rollback`, which
  applies each plan's *inverse* and checks that the switch holds the
  plan's pre-plan circuits again;
- job isolation holds throughout: circuits in a plan's ``unchanged``
  set are never touched, by the forward plans, the retries, or the
  rollback.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Mapping, Optional, Set, Tuple

import numpy as np

from repro.core.crossconnect import Circuit, CrossConnectMap
from repro.core.errors import ConfigurationError, TransactionError
from repro.core.fabric_manager import FabricManager
from repro.core.ids import OcsId
from repro.core.reconfig import ReconfigPlan
from repro.faults.events import FaultEvent, FaultKind, target_index
from repro.obs import NULL_OBS, Observability


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff with seeded jitter.

    Args:
        max_retries: retries after the first attempt (0 = fail fast; a
            switch gets at most ``max_retries + 1`` attempts).
        base_backoff_ms: delay before the first retry.
        backoff_multiplier: growth factor per retry.
        backoff_cap_ms: ceiling on any single delay (before jitter).
        jitter_fraction: +/- uniform jitter applied to the capped delay,
            drawn from the transaction's seeded stream (deterministic).
    """

    max_retries: int = 3
    base_backoff_ms: float = 10.0
    backoff_multiplier: float = 2.0
    backoff_cap_ms: float = 250.0
    jitter_fraction: float = 0.1

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigurationError("max_retries must be non-negative")
        if self.base_backoff_ms <= 0 or self.backoff_cap_ms <= 0:
            raise ConfigurationError("backoff times must be positive")
        if self.backoff_multiplier < 1.0:
            raise ConfigurationError("backoff multiplier must be >= 1")
        if not 0.0 <= self.jitter_fraction < 1.0:
            raise ConfigurationError("jitter fraction must be in [0, 1)")

    def backoff_ms(self, retry_number: int, rng: np.random.Generator) -> float:
        """Delay before retry ``retry_number`` (1-based), jittered."""
        if retry_number <= 0:
            raise ConfigurationError("retry number is 1-based")
        raw = self.base_backoff_ms * self.backoff_multiplier ** (retry_number - 1)
        capped = min(raw, self.backoff_cap_ms)
        if self.jitter_fraction:
            capped += capped * self.jitter_fraction * float(rng.uniform(-1.0, 1.0))
        return max(capped, 0.0)


@dataclass
class ControlPlaneFaults:
    """Injected control-plane failure state consumed by transactions.

    Feed it directly (:meth:`inject_rpc_timeouts`, :meth:`stick_mirror`)
    or attach it to a :class:`~repro.faults.injector.FaultInjector` with
    :meth:`attach`, after which delivered ``RPC_TIMEOUT`` and
    ``MIRROR_STUCK`` events update it automatically:

    - ``RPC_TIMEOUT`` targeting ``ocs-<i>`` with severity ``k`` makes
      the next ``k`` programming attempts against that switch time out;
    - ``MIRROR_STUCK`` targeting ``ocs-<i>/N<p>`` (or ``S<p>``) blocks
      every plan whose breaks or makes touch that port until the
      recovery edge releases it.
    """

    _pending_timeouts: Dict[int, int] = field(default_factory=dict)
    _stuck: Set[Tuple[int, str, int]] = field(default_factory=set)

    @staticmethod
    def _index(ocs_index) -> int:
        # Accept an OcsId too: it hashes differently from its index, so
        # keying the dict with one would silently never match the
        # transaction's integer-keyed lookups.
        return int(getattr(ocs_index, "index", ocs_index))

    # -- direct injection -------------------------------------------------- #

    def inject_rpc_timeouts(self, ocs_index: int, count: int = 1) -> None:
        """Make the next ``count`` attempts against the switch time out."""
        if count <= 0:
            raise ConfigurationError("timeout count must be positive")
        key = self._index(ocs_index)
        self._pending_timeouts[key] = self._pending_timeouts.get(key, 0) + count

    def stick_mirror(self, ocs_index: int, side: str, port: int) -> None:
        """Freeze one mirror until :meth:`release_mirror`."""
        if side not in ("N", "S"):
            raise ConfigurationError(f"side must be 'N' or 'S', got {side!r}")
        self._stuck.add((self._index(ocs_index), side, port))

    def release_mirror(self, ocs_index: int, side: str, port: int) -> None:
        self._stuck.discard((self._index(ocs_index), side, port))

    # -- injector wiring --------------------------------------------------- #

    def attach(self, injector) -> "ControlPlaneFaults":
        """Subscribe to an injector's control-plane fault events."""
        injector.subscribe(FaultKind.RPC_TIMEOUT, self._on_event)
        injector.subscribe(FaultKind.MIRROR_STUCK, self._on_event)
        return self

    def _on_event(self, event: FaultEvent) -> None:
        index = target_index(event.target)
        if event.kind is FaultKind.RPC_TIMEOUT:
            if not event.recovery:
                self.inject_rpc_timeouts(index, max(1, int(event.severity)))
            return
        # MIRROR_STUCK: target "ocs-<i>/<side><port>"
        _, _, tail = event.target.partition("/")
        side, port = tail[:1], int(tail[1:])
        if event.recovery:
            self.release_mirror(index, side, port)
        else:
            self.stick_mirror(index, side, port)

    # -- queries consumed by the transaction ------------------------------- #

    def rpc_attempt_fails(self, ocs_index: int) -> bool:
        """Consume one pending timeout for the switch, if any."""
        left = self._pending_timeouts.get(ocs_index, 0)
        if left <= 0:
            return False
        if left == 1:
            del self._pending_timeouts[ocs_index]
        else:
            self._pending_timeouts[ocs_index] = left - 1
        return True

    def blocked_circuits(self, ocs_index: int, plan: ReconfigPlan) -> FrozenSet[Circuit]:
        """Breaks/makes of ``plan`` that touch a stuck mirror.

        Unchanged circuits are never inspected: a stuck mirror elsewhere
        cannot disturb them (job isolation).
        """
        stuck_n = {p for (i, s, p) in self._stuck if i == ocs_index and s == "N"}
        stuck_s = {p for (i, s, p) in self._stuck if i == ocs_index and s == "S"}
        if not stuck_n and not stuck_s:
            return frozenset()
        return frozenset(
            (n, s)
            for n, s in plan.breaks | plan.makes
            if n in stuck_n or s in stuck_s
        )


@dataclass(frozen=True)
class TransactionResult:
    """Outcome of one committed resilient transaction."""

    attempts: Mapping[OcsId, int]
    backoff_ms: float
    duration_ms: float
    circuits_disturbed: int
    circuits_preserved: int

    @property
    def total_attempts(self) -> int:
        return sum(self.attempts.values())

    @property
    def retries(self) -> int:
        return sum(max(0, a - 1) for a in self.attempts.values())


@dataclass
class ResilientReconfigurer:
    """Transactional multi-OCS reconfiguration over a fabric manager.

    Commits all-or-nothing: either every switch reaches its target map,
    or (after per-switch retries are exhausted) every programmed switch
    is undone and :class:`~repro.core.errors.TransactionError` is raised
    with ``rolled_back`` telling whether each one verifiably holds its
    pre-transaction circuits again.
    """

    manager: FabricManager
    policy: RetryPolicy = field(default_factory=RetryPolicy)
    faults: Optional[ControlPlaneFaults] = None
    seed: int = 0
    obs: Optional[Observability] = field(default=None, repr=False)
    _rng: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.obs is None:
            self.obs = NULL_OBS  # type: ignore[assignment]
        self._rng = np.random.default_rng(self.seed)

    def reconfigure(
        self, targets: Mapping[OcsId, CrossConnectMap]
    ) -> TransactionResult:
        """Drive the switches to their targets with retry + rollback."""
        plans = self.manager.plan(targets)
        applied: List[Tuple[OcsId, ReconfigPlan]] = []
        attempts: Dict[OcsId, int] = {}
        backoff_total = 0.0
        max_duration = 0.0
        disturbed = preserved = 0
        with self.obs.tracer.span(
            "resilience.txn", switches=len(plans)
        ) as span:
            for ocs_id in sorted(plans):
                plan = plans[ocs_id]
                attempt = 0
                while True:
                    attempt += 1
                    failure = self._attempt_failure(ocs_id, plan)
                    if failure is None:
                        duration = self.manager.apply_switch_plan(ocs_id, plan)
                        max_duration = max(max_duration, duration)
                        attempts[ocs_id] = attempt
                        applied.append((ocs_id, plan))
                        disturbed += plan.num_disturbed
                        preserved += len(plan.unchanged)
                        break
                    self.obs.metrics.counter(
                        "resilience.attempt.failures",
                        reason="rpc-timeout" if failure.startswith("rpc")
                        else "mirror-stuck",
                    ).inc()
                    self.obs.tracer.event(f"{ocs_id} attempt {attempt}: {failure}")
                    if attempt > self.policy.max_retries:
                        # Rollback bypasses the fault model: in the real
                        # control plane the undo program is replayed
                        # until it lands.
                        rolled_back = self.manager.rollback(applied)
                        self.manager.drop_stale_links()
                        self.obs.metrics.counter("resilience.rollbacks").inc()
                        span.set_attr("rolled_back", rolled_back)
                        raise TransactionError(
                            f"programming {ocs_id} failed after {attempt} attempt(s) "
                            f"({failure}); transaction "
                            f"{'rolled back' if rolled_back else 'NOT rolled back'}",
                            ocs_id=ocs_id,
                            attempts=attempt,
                            rolled_back=rolled_back,
                        )
                    backoff = self.policy.backoff_ms(attempt, self._rng)
                    backoff_total += backoff
                    self.obs.clock.advance(backoff)
                    self.obs.metrics.counter("resilience.retries").inc()
                    self.obs.metrics.histogram("resilience.backoff_ms").observe(
                        backoff
                    )
            self.manager.drop_stale_links()
            self.obs.metrics.counter("resilience.commits").inc()
        return TransactionResult(
            attempts=attempts,
            backoff_ms=backoff_total,
            duration_ms=max_duration,
            circuits_disturbed=disturbed,
            circuits_preserved=preserved,
        )

    def _attempt_failure(self, ocs_id: OcsId, plan: ReconfigPlan) -> Optional[str]:
        """Reason the attempt fails under current injected faults, or None."""
        if self.faults is None:
            return None
        if self.faults.rpc_attempt_fails(ocs_id.index):
            return "rpc timeout"
        blocked = self.faults.blocked_circuits(ocs_id.index, plan)
        if blocked:
            n, s = sorted(blocked)[0]
            return f"mirror stuck on circuit N{n}-S{s}"
        return None
