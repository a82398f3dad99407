"""The memoized ``FabricManager.state_digest`` against its from-scratch hash.

``state_digest`` re-renders only switches whose state map moved and the
link table only when it was written.  A Hypothesis state machine drives
a mixed fleet (map-only switches, a switch whose programming fails on
command, and a :class:`~repro.ocs.palomar.PalomarOcs`) through every
mutator the memo has to notice -- link establish/adopt/teardown,
multi-switch reconfigurations with and without a mid-transaction
rollback, checkpoint restore, link-table replacement, stale-link drops,
direct ``state.connect/disconnect/clear``, replicated ``retarget``
entries (no-op and moving) and a late ``add_switch`` -- and after every
step the memoized digest must equal the SHA-256 of the canonical
checkpoint recomputed from nothing.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.control.replication import apply_entry
from repro.core.crossconnect import CrossConnectMap
from repro.core.errors import (
    ConfigurationError,
    PartialTransactionError,
    TopologyError,
)
from repro.core.fabric_manager import (
    FabricManager,
    LogicalLink,
    SimpleSwitch,
    _scratch_state_digest,
)
from repro.core.ids import LinkId, OcsId
from repro.ocs.palomar import PalomarOcs

#: Ports the rules touch on every switch (a small window, so circuits
#: collide and links go stale often, also on the radix-136 Palomar).
PORTS = st.integers(min_value=0, max_value=5)
LINK_NAMES = st.sampled_from([f"l{i}" for i in range(6)] + ['q"uote', "ü"])
#: Switch indices: 10 and 11 sort before 2 as checkpoint keys, so the
#: memo's fragment order has to be lexicographic, not numeric.
FLAKY = OcsId(3)
PALOMAR = OcsId(4)
LATE = OcsId(20)


class FlakySwitch(SimpleSwitch):
    """A map-only switch whose next ``apply_plan`` raises on command."""

    def __init__(self, radix: int):
        super().__init__(radix)
        self.fail_next = False

    def apply_plan(self, plan):
        if self.fail_next:
            self.fail_next = False
            raise RuntimeError("injected programming failure")
        return super().apply_plan(plan)


class DigestMemoMachine(RuleBasedStateMachine):
    @initialize(seed=st.integers(min_value=0, max_value=3))
    def build(self, seed):
        self.mgr = FabricManager()
        for index in (0, 2, 10, 11):
            self.mgr.add_switch(OcsId(index), SimpleSwitch(8))
        self.mgr.add_switch(FLAKY, FlakySwitch(8))
        self.mgr.add_switch(PALOMAR, PalomarOcs.build(seed=seed))
        self.checkpoints = []

    def _ocs(self, data):
        return data.draw(st.sampled_from(self.mgr.switch_ids), label="ocs")

    def _circuit(self, data):
        """An existing (ocs, north, south), or None when all are empty."""
        circuits = [
            (ocs, n, s)
            for ocs in self.mgr.switch_ids
            for n, s in self.mgr.switch(ocs).state
        ]
        if not circuits:
            return None
        return data.draw(st.sampled_from(circuits), label="circuit")

    # ------------------------------------------------------------------ #
    # Link table
    # ------------------------------------------------------------------ #

    @rule(data=st.data(), name=LINK_NAMES, north=PORTS, south=PORTS)
    def establish(self, data, name, north, south):
        try:
            self.mgr.establish(LinkId(name), self._ocs(data), north, south)
        except (ConfigurationError, TopologyError):
            pass

    @rule(data=st.data(), name=LINK_NAMES)
    def adopt_link(self, data, name):
        circuit = self._circuit(data)
        if circuit is None:
            return
        try:
            self.mgr.adopt_link(LinkId(name), *circuit)
        except ConfigurationError:
            pass

    @rule(name=LINK_NAMES)
    def teardown_link(self, name):
        try:
            self.mgr.teardown(LinkId(name))
        except TopologyError:
            pass

    @rule(data=st.data())
    def replace_links(self, data):
        links = list(self.mgr.links)
        keep = data.draw(st.lists(st.sampled_from(links), unique=True)) if links else []
        extra = data.draw(
            st.lists(st.tuples(LINK_NAMES, PORTS, PORTS), max_size=2), label="extra"
        )
        names = {link.link_id for link in keep}
        for name, north, south in extra:
            if LinkId(name) not in names:
                names.add(LinkId(name))
                keep.append(LogicalLink(LinkId(name), self._ocs(data), north, south))
        self.mgr.replace_links(keep)

    @rule()
    def drop_stale_links(self):
        self.mgr.drop_stale_links()

    # ------------------------------------------------------------------ #
    # Switch state
    # ------------------------------------------------------------------ #

    @rule(data=st.data(), fail=st.booleans())
    def reconfigure(self, data, fail):
        chosen = data.draw(
            st.lists(st.sampled_from(self.mgr.switch_ids), min_size=1, unique=True),
            label="switches",
        )
        targets = {}
        for ocs in chosen:
            target = self.mgr.switch(ocs).state.copy()
            for north, south in data.draw(
                st.lists(st.tuples(PORTS, PORTS), max_size=3), label="moves"
            ):
                if target.south_of(north) is not None:
                    target.disconnect(north)
                other = target.north_of(south)
                if other is not None:
                    target.disconnect(other)
                target.connect(north, south)
            targets[ocs] = target
        if fail:
            # Switches sort before FLAKY (0, 2) are programmed first, so
            # its failure takes the rollback path for them.
            targets.setdefault(FLAKY, self.mgr.switch(FLAKY).state.copy())
            self.mgr.switch(FLAKY).fail_next = True
        try:
            self.mgr.reconfigure(targets)
        except PartialTransactionError:
            pass
        finally:
            self.mgr.switch(FLAKY).fail_next = False

    @rule()
    def take_checkpoint(self):
        self.checkpoints.append(self.mgr.checkpoint())

    @precondition(lambda self: self.checkpoints)
    @rule(data=st.data())
    def restore(self, data):
        self.mgr.restore(data.draw(st.sampled_from(self.checkpoints)))

    @rule(data=st.data(), north=PORTS, south=PORTS)
    def state_connect(self, data, north, south):
        state = self.mgr.switch(self._ocs(data)).state
        if state.south_of(north) is None and state.north_of(south) is None:
            state.connect(north, south)

    @rule(data=st.data())
    def state_disconnect(self, data):
        circuit = self._circuit(data)
        if circuit is not None:
            self.mgr.switch(circuit[0]).state.disconnect(circuit[1])

    @rule(data=st.data())
    def state_clear(self, data):
        self.mgr.switch(self._ocs(data)).state.clear()

    @rule(data=st.data())
    def noop_retarget(self, data):
        circuit = self._circuit(data)
        if circuit is None:
            return
        ocs, north, south = circuit
        before = self.mgr.switch(ocs).state.version
        apply_entry(
            self.mgr, {"op": "retarget", "changes": [[ocs.index, north, south]]}
        )
        assert self.mgr.switch(ocs).state.version == before

    @rule(data=st.data(), north=PORTS, south=PORTS)
    def retarget(self, data, north, south):
        ocs = self._ocs(data)
        apply_entry(
            self.mgr, {"op": "retarget", "changes": [[ocs.index, north, south]]}
        )

    @precondition(lambda self: LATE not in self.mgr.switch_ids)
    @rule()
    def add_switch(self):
        self.mgr.add_switch(LATE, SimpleSwitch(8))

    # ------------------------------------------------------------------ #

    @invariant()
    def memo_equals_scratch(self):
        assert self.mgr.state_digest() == _scratch_state_digest(self.mgr)


DigestMemoMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)
TestDigestMemo = DigestMemoMachine.TestCase


def test_untouched_manager_returns_the_memoized_digest():
    """Reads with nothing moved re-render nothing: the same string comes
    back, and a retarget that finds its circuit in place keeps it."""
    mgr = FabricManager()
    mgr.add_switch(OcsId(0), SimpleSwitch(4))
    mgr.establish(LinkId("a"), OcsId(0), 1, 2)
    first = mgr.state_digest()
    assert mgr.state_digest() is first
    apply_entry(mgr, {"op": "retarget", "changes": [[0, 1, 2]]})
    assert mgr.state_digest() is first
    apply_entry(mgr, {"op": "retarget", "changes": [[0, 1, 3]]})
    assert mgr.state_digest() == _scratch_state_digest(mgr) != first


def test_version_counts_every_mutation():
    cmap = CrossConnectMap(4)
    assert cmap.version == 0
    cmap.connect(0, 1)
    cmap.disconnect(0)
    cmap.clear()
    assert cmap.version == 3
    assert cmap.copy().version == 0 and cmap == cmap.copy()


def test_a_switch_that_swaps_its_state_map_is_re_rendered():
    """The memo keys a switch on its map's identity as well as its
    version: a fresh map with the same version count is still new."""
    mgr = FabricManager()
    sw = SimpleSwitch(4)
    mgr.add_switch(OcsId(0), sw)
    sw.state.connect(0, 1)
    first = mgr.state_digest()
    sw._state = CrossConnectMap.from_circuits(4, {2: 3})
    assert sw.state.version == 1
    assert mgr.state_digest() == _scratch_state_digest(mgr) != first
