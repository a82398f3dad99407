"""The fabric-manager control plane: programming circuits across many OCSes.

The paper integrates OCSes into the same control/monitoring infrastructure
as electrical switches (§3.2.2).  :class:`FabricManager` is the
reproduction's stand-in for that control plane: it owns a set of switch
devices (anything satisfying :class:`SwitchLike`), a table of *logical
links* (named end-to-end connections), and executes multi-OCS
reconfiguration transactions built from hitless per-OCS plans.

The manager is deliberately independent of the Palomar physics model so it
can drive both the detailed :class:`repro.ocs.palomar.PalomarOcs` and
lightweight map-only switches in tests.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Protocol, Tuple

from repro.core.crossconnect import CrossConnectMap
from repro.core.errors import (
    ConfigurationError,
    CrossConnectError,
    PartialTransactionError,
    TopologyError,
)
from repro.core.ids import LinkId, OcsId
from repro.core.reconfig import ReconfigPlan, ReconfigStats, plan_reconfiguration
from repro.obs import NULL_OBS, Observability


class SwitchLike(Protocol):
    """Minimal interface the fabric manager needs from a switch device."""

    @property
    def radix(self) -> int:
        """Number of duplex ports per side."""

    @property
    def state(self) -> CrossConnectMap:
        """Current cross-connect state (live view)."""

    def apply_plan(self, plan: ReconfigPlan) -> float:
        """Execute a reconfiguration plan; return its duration in ms."""


@dataclass
class SimpleSwitch:
    """A map-only switch used by tests and by the pure control-plane paths."""

    _radix: int
    _state: CrossConnectMap = field(init=False)

    def __post_init__(self) -> None:
        self._state = CrossConnectMap(self._radix)

    @property
    def radix(self) -> int:
        return self._radix

    @property
    def state(self) -> CrossConnectMap:
        return self._state

    def apply_plan(self, plan: ReconfigPlan) -> float:
        duration = plan.duration_ms()
        plan.apply(self._state)
        return duration


@dataclass(frozen=True)
class LogicalLink:
    """A named end-to-end connection realized by one OCS circuit."""

    link_id: LinkId
    ocs: OcsId
    north: int
    south: int

    def __str__(self) -> str:
        return f"{self.link_id}@{self.ocs}[N{self.north}<->S{self.south}]"


class FabricManager:
    """Central controller for a fleet of optical circuit switches.

    Typical use::

        mgr = FabricManager()
        mgr.add_switch(OcsId(0), PalomarOcs.build(seed=1))
        mgr.establish(LinkId("cubeA-cubeB"), OcsId(0), north=3, south=41)
        ...
        mgr.reconfigure({OcsId(0): target_map})
    """

    def __init__(self, obs: Optional[Observability] = None) -> None:
        self._switches: Dict[OcsId, SwitchLike] = {}
        self._links: Dict[LinkId, LogicalLink] = {}
        # state_digest() memo: the (checkpoint key, switch) join order;
        # per key (state map, its version, rendered fragment); the link
        # JSON with the _links_version (bumped at every write to _links)
        # it was rendered at; the last digest.
        self._digest_order: List[Tuple[str, SwitchLike]] = []
        self._fragments: Dict[str, Tuple[CrossConnectMap, int, str]] = {}
        self._links_version = 0
        self._links_json: Tuple[int, str] = (-1, "")
        self._digest = ""
        self.stats = ReconfigStats()
        #: Observability bundle; NULL_OBS (shared no-op) when not supplied,
        #: so the instrumented paths cost one no-op call each.
        self.obs = obs if obs is not None else NULL_OBS

    # ------------------------------------------------------------------ #
    # Inventory
    # ------------------------------------------------------------------ #

    def add_switch(self, ocs_id: OcsId, switch: SwitchLike) -> None:
        """Register a switch under ``ocs_id``."""
        if ocs_id in self._switches:
            raise ConfigurationError(f"{ocs_id} already registered")
        self._switches[ocs_id] = switch
        # json.dumps(sort_keys=True) orders the stringified indices
        # lexicographically ("10" < "2"); state_digest joins likewise.
        self._digest_order.append((str(ocs_id.index), switch))
        self._digest_order.sort(key=lambda item: item[0])

    def switch(self, ocs_id: OcsId) -> SwitchLike:
        """Return the registered switch for ``ocs_id``."""
        try:
            return self._switches[ocs_id]
        except KeyError:
            raise TopologyError(f"unknown switch {ocs_id}") from None

    @property
    def switch_ids(self) -> Tuple[OcsId, ...]:
        return tuple(sorted(self._switches))

    @property
    def num_circuits(self) -> int:
        """Total circuits established across all switches."""
        return sum(sw.state.num_circuits for sw in self._switches.values())

    # ------------------------------------------------------------------ #
    # Logical links
    # ------------------------------------------------------------------ #

    def establish(self, link_id: LinkId, ocs_id: OcsId, north: int, south: int) -> LogicalLink:
        """Create one circuit and record it as a logical link."""
        if link_id in self._links:
            raise ConfigurationError(f"link {link_id} already exists")
        sw = self.switch(ocs_id)
        sw.state.connect(north, south)
        link = LogicalLink(link_id, ocs_id, north, south)
        self._links[link_id] = link
        self._links_version += 1
        self.obs.metrics.counter("fabric.link.establish").inc()
        return link

    def adopt_link(self, link_id: LinkId, ocs_id: OcsId, north: int, south: int) -> LogicalLink:
        """Record a logical link for a circuit that already exists.

        Used after a transaction established the circuit through a
        reconfiguration plan rather than :meth:`establish`.
        """
        if link_id in self._links:
            raise ConfigurationError(f"link {link_id} already exists")
        sw = self.switch(ocs_id)
        if sw.state.south_of(north) != south:
            raise CrossConnectError(
                f"{ocs_id}: no circuit N{north} -> S{south} to adopt for {link_id}"
            )
        link = LogicalLink(link_id, ocs_id, north, south)
        self._links[link_id] = link
        self._links_version += 1
        return link

    def teardown(self, link_id: LinkId) -> None:
        """Destroy a logical link and its circuit.

        Validates first, then mutates: the circuit is disconnected before
        the logical-link record is dropped, so a failure (unknown switch,
        circuit already gone) leaves the record in place where
        :meth:`verify_links` and the reconciler can still see the drift.
        """
        link = self._links.get(link_id)
        if link is None:
            raise TopologyError(f"unknown link {link_id}")
        sw = self.switch(link.ocs)  # may raise; record intentionally kept
        if sw.state.south_of(link.north) != link.south:
            raise CrossConnectError(
                f"{link_id}: circuit N{link.north} -> S{link.south} not present "
                f"on {link.ocs} (drift); record kept for reconciliation"
            )
        sw.state.disconnect(link.north)
        del self._links[link_id]
        self._links_version += 1
        self.obs.metrics.counter("fabric.link.teardown").inc()

    def link(self, link_id: LinkId) -> LogicalLink:
        """Look up a logical link by id."""
        try:
            return self._links[link_id]
        except KeyError:
            raise TopologyError(f"unknown link {link_id}") from None

    @property
    def links(self) -> Tuple[LogicalLink, ...]:
        return tuple(self._links[k] for k in sorted(self._links))

    # ------------------------------------------------------------------ #
    # Transactions
    # ------------------------------------------------------------------ #

    def plan(self, targets: Mapping[OcsId, CrossConnectMap]) -> Dict[OcsId, ReconfigPlan]:
        """Compute per-switch hitless plans toward the given target maps."""
        plans: Dict[OcsId, ReconfigPlan] = {}
        for ocs_id, target in targets.items():
            sw = self.switch(ocs_id)
            if target.radix != sw.radix:
                raise CrossConnectError(
                    f"{ocs_id}: target radix {target.radix} != switch radix {sw.radix}"
                )
            plans[ocs_id] = plan_reconfiguration(sw.state, target)
        return plans

    def reconfigure(self, targets: Mapping[OcsId, CrossConnectMap]) -> float:
        """Atomically drive a set of switches to target maps.

        All plans are computed first (so a bad target aborts the whole
        transaction with no partial state), then applied.  If a switch's
        ``apply_plan`` raises mid-transaction, every switch already
        programmed is restored from the pre-transaction snapshot and a
        :class:`~repro.core.errors.PartialTransactionError` is raised
        listing the applied and unapplied switches.  Switches reconfigure
        in parallel in the real system; the returned duration is
        therefore the *maximum* per-switch duration, not the sum.
        """
        plans = self.plan(targets)
        order = sorted(plans)
        pre_state = {ocs_id: self.switch(ocs_id).state.copy() for ocs_id in order}
        applied: List[OcsId] = []
        max_duration = 0.0
        with self.obs.tracer.span(
            "fabric.reconfigure", switches=len(order)
        ) as span:
            for i, ocs_id in enumerate(order):
                try:
                    duration = self.apply_switch_plan(ocs_id, plans[ocs_id])
                except Exception as err:
                    rolled_back = self._restore_applied(applied, pre_state)
                    self.obs.metrics.counter("fabric.reconfig.rollbacks").inc()
                    span.set_attr("rolled_back", rolled_back)
                    raise PartialTransactionError(
                        f"programming {ocs_id} raised mid-transaction ({err}); "
                        f"applied switches {'restored' if rolled_back else 'NOT restored'}",
                        ocs_id=ocs_id,
                        applied=applied,
                        unapplied=order[i:],
                        rolled_back=rolled_back,
                    ) from err
                applied.append(ocs_id)
                max_duration = max(max_duration, duration)
            self.drop_stale_links()
            self.obs.metrics.counter("fabric.reconfig.commits").inc()
            # The returned latency models parallel switch programming
            # (max, not the span's serialized sum).
            self.obs.metrics.histogram("fabric.reconfig.duration_ms").observe(
                max_duration
            )
        return max_duration

    def _restore_applied(
        self, applied: List[OcsId], pre_state: Mapping[OcsId, CrossConnectMap]
    ) -> bool:
        """Drive already-applied switches back to their pre-transaction maps.

        Returns True when every switch verifiably matches its snapshot
        again; restore failures are swallowed (the caller is already
        raising) and reported as ``False``.
        """
        ok = True
        for ocs_id in reversed(applied):
            sw = self.switch(ocs_id)
            try:
                undo = plan_reconfiguration(sw.state, pre_state[ocs_id])
                if not undo.is_noop:
                    sw.apply_plan(undo)
            except Exception:
                ok = False
                continue
            if sw.state != pre_state[ocs_id]:
                ok = False
        return ok

    def apply_switch_plan(self, ocs_id: OcsId, plan: ReconfigPlan) -> float:
        """Apply one switch's plan and record statistics; returns ms.

        The building block resilient transactions retry per switch
        (:mod:`repro.faults.resilience`); callers composing several
        switch plans should finish with :meth:`drop_stale_links`.
        """
        with self.obs.tracer.span(
            "fabric.apply_plan", ocs=ocs_id, disturbed=plan.num_disturbed
        ):
            duration = self.switch(ocs_id).apply_plan(plan)
            self.obs.clock.advance(duration)
        self.stats.record(plan, duration)
        self.obs.metrics.counter("fabric.plan.applies").inc()
        self.obs.metrics.histogram("fabric.plan.duration_ms").observe(duration)
        return duration

    def drop_stale_links(self) -> None:
        """Remove logical-link records whose circuit no longer exists."""
        stale: List[LinkId] = []
        for link_id, link in self._links.items():
            sw = self._switches.get(link.ocs)
            if sw is None or sw.state.south_of(link.north) != link.south:
                stale.append(link_id)
        for link_id in stale:
            del self._links[link_id]
        if stale:
            self._links_version += 1
            self.obs.metrics.counter("fabric.link.dropped_stale").inc(len(stale))

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def snapshot(self) -> Dict[OcsId, CrossConnectMap]:
        """Deep-copy of every switch's current cross-connect state."""
        return {ocs_id: sw.state.copy() for ocs_id, sw in self._switches.items()}

    def verify_links(self) -> Tuple[LinkId, ...]:
        """Return ids of logical links whose circuit is missing or wrong."""
        bad = []
        for link_id, link in sorted(self._links.items()):
            sw = self._switches.get(link.ocs)
            if sw is None or sw.state.south_of(link.north) != link.south:
                bad.append(link_id)
        return tuple(bad)

    # ------------------------------------------------------------------ #
    # Durability (checkpoint / restore / digests)
    # ------------------------------------------------------------------ #

    def replace_links(self, links: Iterable[LogicalLink]) -> None:
        """Overwrite the logical-link table (recovery / reconciliation).

        Unlike :meth:`establish` this records intent without touching any
        switch: recovery rebuilds the table from the journal and then
        drives hardware toward it.
        """
        self._links = {link.link_id: link for link in links}
        self._links_version += 1

    def checkpoint(self) -> Dict[str, object]:
        """JSON-serializable snapshot of the full control-plane state.

        Captures every switch's circuits and the logical-link table in a
        canonical (sorted) form; feed it back to :meth:`restore`, or hash
        it with :meth:`state_digest`.
        """
        return {
            "switches": {
                str(ocs_id.index): {
                    "radix": sw.radix,
                    "circuits": [[n, s] for n, s in sorted(sw.state.circuits)],
                }
                for ocs_id, sw in sorted(self._switches.items())
            },
            "links": self._link_rows(),
        }

    def _link_rows(self) -> List[List[object]]:
        """The checkpoint's link table: one row per link, sorted by id."""
        return [
            [str(link.link_id), link.ocs.index, link.north, link.south]
            for link in (self._links[k] for k in sorted(self._links))
        ]

    def restore(self, snapshot: Mapping[str, object]) -> None:
        """Drive registered switches and the link table to a checkpoint.

        Every switch named in the snapshot must already be registered
        with a matching radix (devices survive a controller crash; only
        the controller's volatile state is being restored).  Hardware is
        moved with hitless plans, so circuits already in the checkpointed
        position are not disturbed.
        """
        switches: Mapping[str, Mapping[str, object]] = snapshot["switches"]  # type: ignore[assignment]
        for key, entry in sorted(switches.items()):
            ocs_id = OcsId(int(key))
            sw = self.switch(ocs_id)
            if sw.radix != entry["radix"]:
                raise ConfigurationError(
                    f"{ocs_id}: checkpoint radix {entry['radix']} != switch "
                    f"radix {sw.radix}"
                )
            target = CrossConnectMap.from_circuits(
                sw.radix, {int(n): int(s) for n, s in entry["circuits"]}
            )
            undo = plan_reconfiguration(sw.state, target)
            if not undo.is_noop:
                sw.apply_plan(undo)
        self.replace_links(
            LogicalLink(LinkId(str(name)), OcsId(int(ocs)), int(n), int(s))
            for name, ocs, n, s in snapshot["links"]  # type: ignore[union-attr]
        )

    def state_digest(self) -> str:
        """SHA-256 over the canonical checkpoint: equal digests mean the
        switch states and link tables are byte-identical.

        Memoized: the hashed payload, ``json.dumps(checkpoint(),
        sort_keys=True, separators=(",", ":"))``, is joined from one JSON
        fragment per switch plus the link-table JSON.  A switch is
        rendered when first seen (:meth:`add_switch`) and re-rendered
        only when its ``state`` is a different map or that map's
        :attr:`~repro.core.crossconnect.CrossConnectMap.version` moved
        (``connect``, ``disconnect``, ``clear``); the link JSON only when
        the link table was written (:meth:`establish`,
        :meth:`adopt_link`, :meth:`teardown`, :meth:`drop_stale_links`,
        :meth:`replace_links`, :meth:`restore`).  With nothing moved the
        last digest is returned as is.
        :func:`_scratch_state_digest` recomputes it from nothing;
        ``FabricService.run`` and the tests check that the two agree.
        """
        fragments = self._fragments
        moved = False
        for key, sw in self._digest_order:
            state = sw.state
            memo = fragments.get(key)
            if memo is None or memo[0] is not state or memo[1] != state.version:
                circuits = json.dumps(list(state), separators=(",", ":"))
                fragments[key] = (
                    state,
                    state.version,
                    f'"{key}":{{"circuits":{circuits},"radix":{sw.radix}}}',
                )
                moved = True
        links_json = self._links_json
        if links_json[0] != self._links_version:
            links_json = self._links_json = (
                self._links_version,
                json.dumps(self._link_rows(), separators=(",", ":")),
            )
            moved = True
        if moved:
            payload = (
                '{"links":' + links_json[1] + ',"switches":{'
                + ",".join(fragments[key][2] for key, _ in self._digest_order)
                + "}}"
            )
            self._digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
        return self._digest


def _scratch_state_digest(manager: FabricManager) -> str:
    """:meth:`FabricManager.state_digest` recomputed from nothing: the
    SHA-256 of the canonical checkpoint JSON, with no memo involved."""
    payload = json.dumps(manager.checkpoint(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
