"""Property suite pinning the incremental water-filling engine.

Two implementations of the flow event loop coexist:
``FlowSimulator.run`` (component fills over path classes, with a
one-entry-per-class completion calendar) and ``run_reference`` (the
dict-loop oracle).  Both accept a ``rate_probe`` fired once per event
with the allocation for the current active set, so this suite pins them
together **at every event boundary** -- same event times, same per-flow
rates, exactly -- not just on final completion records.  Tied-bottleneck
freezes, zero-capacity starvation (and the resulting deadlock), and
classes holding many flows with tied sizes and arrivals are all swept
explicitly: none of them may change a single allocation.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import ConfigurationError
from repro.dcn.flowsim import Flow, FlowSimulator, generate_flows
from repro.dcn.spinefree import AggregationBlock, SpineFreeFabric
from repro.dcn.traffic import gravity_matrix
from repro.dcn.traffic_engineering import RoutingSolution, route_demand
from repro.obs import Observability
from tests.dcn.test_flowsim_vectorized import assert_max_min_certificate

seeds = st.integers(min_value=0, max_value=2**31 - 1)


def _build_sim(seed, blocks=6, uplinks=8):
    fabric = SpineFreeFabric.uniform(
        [AggregationBlock(i, uplinks=uplinks) for i in range(blocks)]
    )
    tm = gravity_matrix(blocks, 800.0, seed=seed)
    routing = route_demand(fabric, tm)
    return fabric, routing, tm


def _capture():
    events = []

    def probe(now, rates):
        events.append((now, dict(rates)))

    return events, probe


def _assert_event_streams_equal(a, b):
    """Exact equality of two probe streams: times, keys, and rates."""
    assert len(a) == len(b)
    for (ta, ra), (tb, rb) in zip(a, b):
        assert ta == tb
        assert ra == rb


def _assert_records_equal(a, b):
    assert [r.flow.flow_id for r in a] == [r.flow.flow_id for r in b]
    for ra, rb in zip(a, b):
        assert ra.start_s == rb.start_s
        assert ra.finish_s == rb.finish_s


class TestEventBoundaryParity:
    """incremental == reference, at every event."""

    @given(seeds, st.integers(min_value=1, max_value=120))
    @settings(max_examples=12, deadline=None)
    def test_two_engines_agree_at_every_event(self, seed, num_flows):
        fabric, routing, tm = _build_sim(seed % 1000)
        flows = generate_flows(
            tm.demand_gbps, num_flows, mean_size_gbit=50.0, duration_s=2.0, seed=seed
        )
        ev_inc, p_inc = _capture()
        ev_ref, p_ref = _capture()
        recs_inc = FlowSimulator(fabric, routing, seed=3).run(flows, rate_probe=p_inc)
        recs_ref = FlowSimulator(fabric, routing, seed=3).run_reference(
            flows, rate_probe=p_ref
        )
        _assert_event_streams_equal(ev_inc, ev_ref)
        _assert_records_equal(recs_inc, recs_ref)

    @given(seeds, st.sampled_from([0.001, 0.01, 0.1, 1.0, 10.0]))
    @settings(max_examples=12, deadline=None)
    def test_fallback_threshold_never_changes_allocations(self, seed, duration_s):
        """There is no fallback threshold: every event fills its own
        component, whatever its size.  Arrival windows from 1 ms (all 60
        flows live at once) to 10 s (mostly lone flows) must all produce
        the reference event stream."""
        fabric, routing, tm = _build_sim(seed % 1000)
        flows = generate_flows(
            tm.demand_gbps, 60, mean_size_gbit=80.0, duration_s=duration_s, seed=seed
        )
        ev_inc, p_inc = _capture()
        ev_ref, p_ref = _capture()
        recs_inc = FlowSimulator(fabric, routing, seed=3).run(flows, rate_probe=p_inc)
        recs_ref = FlowSimulator(fabric, routing, seed=3).run_reference(
            flows, rate_probe=p_ref
        )
        _assert_event_streams_equal(ev_inc, ev_ref)
        _assert_records_equal(recs_inc, recs_ref)

    def test_high_concurrency_with_tiny_frontier(self):
        # Dense arrivals (300 flows in 50ms) keep hundreds of flows
        # live at once, exercising the component fills and the per-class
        # calendar re-keying under heavy tied-rate churn.
        fabric, routing, tm = _build_sim(7)
        flows = generate_flows(
            tm.demand_gbps, 300, mean_size_gbit=500.0, duration_s=0.05, seed=4
        )
        recs = FlowSimulator(fabric, routing, seed=3).run(flows)
        recs_ref = FlowSimulator(fabric, routing, seed=3).run_reference(flows)
        _assert_records_equal(recs, recs_ref)

    def test_engineered_metro_matches_per_event_full_solve(self):
        # 3k flows over a 64-block engineered metro, where link sharing
        # stays neighborhood-local and the component walk does real work:
        # the incremental engine must match the per-event full solve of
        # the oracle, bit for bit.
        fabric, routing, demand = _metro_routing(64, seed=17)
        flows = generate_flows(
            demand, 3_000, mean_size_gbit=15.0, duration_s=15.0, seed=23
        )
        recs = FlowSimulator(fabric, routing, seed=7).run(flows)
        recs_full = FlowSimulator(fabric, routing, seed=7).run_reference(flows)
        _assert_records_equal(recs, recs_full)

    def test_sparse_metro_with_long_history_matches_full_solve(self):
        # Few flows live at once, thousands already finished: the regime
        # where a walk over every flow that ever used a link would cost
        # O(history) per event.  The walk visits live flows only; its
        # allocations must still equal one full solve per event.
        fabric, routing, demand = _metro_routing(64, seed=17)
        flows = generate_flows(
            demand, 2_000, mean_size_gbit=15.0, duration_s=40.0, seed=23
        )
        ev_inc, p_inc = _capture()
        ev_full, p_full = _capture()
        recs = FlowSimulator(fabric, routing, seed=7).run(flows, rate_probe=p_inc)
        recs_full = FlowSimulator(fabric, routing, seed=7).run_reference(
            flows, rate_probe=p_full
        )
        _assert_event_streams_equal(ev_inc, ev_full)
        _assert_records_equal(recs, recs_full)
        last_arrival = max(f.arrival_s for f in flows)
        assert sum(r.finish_s < last_arrival for r in recs) >= 1_000
        assert max(len(rates) for _, rates in ev_inc) <= 32


def _metro_routing(blocks, seed):
    """A synthetic engineered metro at ``blocks`` x 64 uplinks.

    ``route_demand`` is O(n^3) per matrix, so the routing solution is
    constructed directly: blocks form 8-block neighborhoods with an
    in-group ring (1-hop pairs), 2-hop paths that bridge adjacent ring
    links, and a low-rate 2-hop cross-group path per neighborhood.  Link
    sharing -- the thing the incremental engine's frontier walk follows
    -- therefore stays mostly neighborhood-local, which is the locality
    structure engineered fabrics actually exhibit.  Trunk capacities
    come in three discrete rates (mixed 300/400/500G bundles, as real
    metros stripe them), so tied links freeze in shared water-filling
    rounds.
    """
    group = 8
    rng = np.random.default_rng(seed)
    capacity = np.zeros((blocks, blocks))
    demand = np.zeros((blocks, blocks))
    paths = {}
    for base in range(0, blocks, group):
        for k in range(group):
            b = base + k
            n1 = base + (k + 1) % group
            n2 = base + (k + 2) % group
            capacity[b, n1] = float(rng.choice([300.0, 400.0, 500.0]))
            paths[(b, n1)] = [((b, n1), 1.0)]
            demand[b, n1] = 3.0
            paths[(b, n2)] = [((b, n1, n2), 1.0)]
            demand[b, n2] = 2.0
        nxt = (base + group) % blocks
        capacity[base + group - 1, nxt] = float(rng.choice([300.0, 400.0, 500.0]))
        paths[(base + group - 2, nxt)] = [
            ((base + group - 2, base + group - 1, nxt), 1.0)
        ]
        demand[base + group - 2, nxt] = 0.3
    fabric = SpineFreeFabric.uniform(
        [AggregationBlock(i, uplinks=64) for i in range(blocks)]
    )
    routing = RoutingSolution(
        served_gbps=demand.copy(),
        residual_gbps=np.zeros_like(demand),
        link_load_gbps=np.zeros_like(capacity),
        link_capacity_gbps=capacity,
        paths=paths,
    )
    return fabric, routing, demand


def _routing_over(capacity, paths, blocks=4):
    """A routing solution with the given ``{(a, b): gbps}`` trunks and
    ``{(src, dst): [(path, weight), ...]}`` paths."""
    matrix = np.zeros((blocks, blocks))
    for (a, b), gbps in capacity.items():
        matrix[a, b] = gbps
    fabric = SpineFreeFabric.uniform(
        [AggregationBlock(i, uplinks=8) for i in range(blocks)]
    )
    routing = RoutingSolution(
        served_gbps=np.zeros_like(matrix),
        residual_gbps=np.zeros_like(matrix),
        link_load_gbps=np.zeros_like(matrix),
        link_capacity_gbps=matrix,
        paths=paths,
    )
    return fabric, routing


#: Five routed pairs over four blocks.  Three split between a direct link
#: and a 2-hop detour, so WCMP spreads their flows over two path classes.
#: No two classes share a link, so each class's rate is its bottleneck
#: capacity over its live flow count in both engines: the order of flows
#: inside a class is under test here, not the fill (see
#: ``test_shared_link_freeze_matches_reference``).
_CROWDED_PATHS = {
    (0, 1): [((0, 1), 2.0), ((0, 2, 1), 1.0)],
    (2, 3): [((2, 3), 1.0), ((2, 0, 3), 1.0)],
    (3, 2): [((3, 2), 1.0), ((3, 1, 2), 1.0)],
    (1, 3): [((1, 3), 1.0)],
    (3, 0): [((3, 0), 1.0)],
}
_CROWDED_CAPACITY = {
    (0, 1): 100.0, (2, 3): 100.0, (3, 2): 100.0, (1, 3): 100.0,
    (0, 2): 200.0, (2, 1): 200.0, (2, 0): 200.0, (0, 3): 200.0,
    (3, 1): 100.0, (1, 2): 100.0, (3, 0): 100.0,
}


@st.composite
def crowded_flows(draw):
    """Up to 60 flows on at most three block pairs, so path classes hold
    many flows, with sizes and arrival times from small sets, so flows
    of one class tie on remaining volume and on finish time.

    A size 1e-12 above 1.0, with arrivals offset to t = 1000 s, makes
    finish times tie after rounding (``now + remaining/rate`` absorbs
    the difference) while the smaller flow sorts first in its class, so
    the lower flow index can sit behind the front of the class.
    """
    pairs = draw(
        st.lists(st.sampled_from(sorted(_CROWDED_PATHS)), min_size=1, max_size=3)
    )
    size = st.sampled_from([0.3, 1.0, 1.0 + 1e-12, 2.0, 3.0])
    base = draw(st.sampled_from([0.0, 1000.0]))
    arrival = st.sampled_from([base, base + 0.005, base + 0.01, base + 0.02])
    specs = draw(
        st.lists(st.tuples(st.sampled_from(pairs), size, arrival), min_size=1, max_size=60)
    )
    return [Flow(k, s, d, g, t) for k, ((s, d), g, t) in enumerate(specs)]


class TestOrderInsideAClass:
    @pytest.mark.parametrize("policy", ["primary", "wcmp"])
    @given(flows=crowded_flows())
    @settings(max_examples=40, deadline=None)
    def test_crowded_classes_match_reference_at_every_event(self, policy, flows):
        # A class's flows stay sorted by remaining volume across drains,
        # and the calendar keys the class by its front flow; ties in
        # size and arrival make several flows of a class finish at once,
        # where the reference argmin picks the lowest flow index.
        fabric, routing = _routing_over(_CROWDED_CAPACITY, _CROWDED_PATHS)
        ev_inc, p_inc = _capture()
        ev_ref, p_ref = _capture()
        recs = FlowSimulator(fabric, routing, policy, seed=3).run(flows, rate_probe=p_inc)
        recs_ref = FlowSimulator(fabric, routing, policy, seed=3).run_reference(
            flows, rate_probe=p_ref
        )
        _assert_event_streams_equal(ev_inc, ev_ref)
        _assert_records_equal(recs, recs_ref)
        # A same-seed simulator draws the same WCMP paths run did.
        twin = FlowSimulator(fabric, routing, policy, seed=3)
        capacity = twin._capacities()
        paths = twin._routed_paths(flows, capacity)
        for _, rates in ev_inc[::5]:
            live = {fid: paths[fid] for fid in rates}
            assert_max_min_certificate(live, capacity, rates)

    def test_rounded_finish_tie_goes_to_the_lower_index(self):
        # Flow 0 is 1e-12 Gbit larger than flow 1, so flow 1 leads their
        # class, but at t = 1000 s both finish times round to the same
        # float: the reference argmin retires flow 0 first.
        fabric, routing = _routing_over(_CROWDED_CAPACITY, _CROWDED_PATHS)
        flows = [Flow(0, 1, 3, 1.0 + 1e-12, 1000.0), Flow(1, 1, 3, 1.0, 1000.0)]
        sim = FlowSimulator(fabric, routing, seed=3)
        recs = sim.run(flows)
        assert recs[0].finish_s == recs[1].finish_s
        _assert_records_equal(recs, sim.run_reference(flows))
        assert [r.flow.flow_id for r in recs] == [0, 1]

    @pytest.mark.xfail(
        strict=True,
        reason="the class filler takes rem - fair*d where the reference "
        "subtracts fair d times; the results can differ in the last bit",
    )
    def test_shared_link_freeze_matches_reference(self):
        # Three flows freeze at 100/3 on (2, 1) and leave the rest of
        # (1, 0) to flow 3: 200 - 3 * (100/3) is 100.0, while three
        # subtractions of 100/3 leave 99.99999999999997.
        fabric, routing = _routing_over(
            {(2, 1): 100.0, (1, 0): 200.0, (0, 2): 200.0},
            {(2, 0): [((2, 1, 0), 1.0)], (1, 2): [((1, 0, 2), 1.0)]},
        )
        flows = [Flow(k, 2, 0, 1.0, 0.0) for k in range(3)] + [Flow(3, 1, 2, 1.0, 0.0)]
        ev_inc, p_inc = _capture()
        ev_ref, p_ref = _capture()
        FlowSimulator(fabric, routing).run(flows, rate_probe=p_inc)
        FlowSimulator(fabric, routing).run_reference(flows, rate_probe=p_ref)
        _assert_event_streams_equal(ev_inc, ev_ref)


class _RiggedCapacitySim(FlowSimulator):
    """A simulator whose lit-link capacities are overridden by the test.

    ``_capacities`` normally drops zero-capacity links (they are dark),
    so genuine starvation cannot be expressed through routing; rigging
    the capacity dict lets the suite drive both engines into
    zero-capacity allocations and the shared deadlock contract.
    """

    _rigged: dict = {}

    def _capacities(self):
        caps = super()._capacities()
        caps.update({k: v for k, v in self._rigged.items() if k in caps})
        return caps


class TestTiesAndStarvation:
    def test_tied_bottlenecks_freeze_together_in_all_engines(self):
        # Uniform capacities + symmetric gravity demand produce many
        # links at exactly the same fair share, so whole groups freeze
        # in one filling round; engines must agree on every event.
        fabric, routing, tm = _build_sim(11, blocks=4, uplinks=4)
        flows = generate_flows(
            tm.demand_gbps, 80, mean_size_gbit=100.0, duration_s=0.2, seed=6
        )
        ev_inc, p_inc = _capture()
        ev_ref, p_ref = _capture()
        FlowSimulator(fabric, routing, seed=3).run(flows, rate_probe=p_inc)
        FlowSimulator(fabric, routing, seed=3).run_reference(flows, rate_probe=p_ref)
        _assert_event_streams_equal(ev_inc, ev_ref)
        # The scenario actually contains tied freezes: some event must
        # allocate the same rate to >= 3 flows at once.
        assert any(
            len(rates) >= 3 and len(set(rates.values())) < len(rates)
            for _, rates in ev_ref
            if rates
        )

    def test_zero_capacity_starvation_deadlocks_identically(self):
        fabric, routing, tm = _build_sim(9, blocks=4, uplinks=4)
        flows = generate_flows(
            tm.demand_gbps, 20, mean_size_gbit=40.0, duration_s=0.5, seed=8
        )
        # Kill every lit link: all flows starve at rate 0.0 and no
        # engine can ever retire them.
        baseline = FlowSimulator(fabric, routing)._capacities()

        class Sim(_RiggedCapacitySim):
            _rigged = {link: 0.0 for link in baseline}

        ref_events, probe = _capture()
        with pytest.raises(ConfigurationError, match="deadlock"):
            Sim(fabric, routing, seed=3).run_reference(flows, rate_probe=probe)
        # Every probed rate is 0.0.
        assert all(r == 0.0 for _, rates in ref_events for r in rates.values())
        # The engine starves identically and observes the same event
        # boundaries before giving up: starved classes never enter the
        # calendar.
        events, probe = _capture()
        with pytest.raises(ConfigurationError, match="deadlock"):
            Sim(fabric, routing, seed=3).run(flows, rate_probe=probe)
        _assert_event_streams_equal(events, ref_events)

    def test_partial_starvation_matches_at_every_event(self):
        # Only some links die: flows over dead links pin at 0.0 while
        # the rest of the fabric drains normally, then the engines must
        # deadlock identically on the survivors.
        fabric, routing, tm = _build_sim(13, blocks=4, uplinks=4)
        flows = generate_flows(
            tm.demand_gbps, 40, mean_size_gbit=40.0, duration_s=0.5, seed=5
        )
        baseline = FlowSimulator(fabric, routing)._capacities()
        dead = sorted(baseline)[:: 3]

        class Sim(_RiggedCapacitySim):
            _rigged = {link: 0.0 for link in dead}

        def simulate(method):
            events, probe = _capture()
            try:
                recs = getattr(Sim(fabric, routing, seed=3), method)(
                    flows, rate_probe=probe
                )
            except ConfigurationError:
                recs = None
            return events, recs

        ref_events, ref_recs = simulate("run_reference")
        # Starvation genuinely occurred at some boundary.
        assert any(
            any(r == 0.0 for r in rates.values()) for _, rates in ref_events
        )
        # Starved classes drop out of the calendar while the rest keep
        # draining.
        events, recs = simulate("run")
        _assert_event_streams_equal(events, ref_events)
        assert (recs is None) == (ref_recs is None)
        if ref_recs is not None:
            _assert_records_equal(recs, ref_recs)


class TestIncrementalInstrumentation:
    def test_frontier_and_fallback_metrics_land(self):
        fabric, routing, tm = _build_sim(3)
        flows = generate_flows(
            tm.demand_gbps, 100, mean_size_gbit=200.0, duration_s=0.1, seed=2
        )
        obs = Observability.sim()
        FlowSimulator(fabric, routing, seed=3, obs=obs).run(flows)
        assert obs.metrics.value("flowsim.events") == 200.0
        snap = obs.metrics.snapshot()
        assert any(k.startswith("flowsim.frontier.flows") for k in snap["histograms"])

    def test_fill_rounds_and_fallbacks_are_pinned(self):
        # Work counts that do not depend on the host.  A round freezes
        # every link at the minimum share together, so the round count
        # is fixed by the allocation: 366 is what the earlier NumPy and
        # dict fills counted on this workload.  The calendar pushes one
        # entry per re-keyed path class, not per flow.
        fabric, routing, tm = _build_sim(3)
        flows = generate_flows(
            tm.demand_gbps, 200, mean_size_gbit=100.0, duration_s=1.0, seed=2
        )
        obs = Observability.sim()
        FlowSimulator(fabric, routing, seed=3, obs=obs).run(flows)
        assert obs.metrics.value("flowsim.fill.rounds") == 366
        assert obs.metrics.value("flowsim.calendar.pushes") == 565

    def test_calendar_stays_lazy(self):
        # Pushes happen only for classes whose rate or front flow
        # changed: the push count must stay far below events x active
        # (the eager re-key worst case).
        fabric, routing, tm = _build_sim(3)
        flows = generate_flows(
            tm.demand_gbps, 200, mean_size_gbit=100.0, duration_s=1.0, seed=2
        )
        obs = Observability.sim()
        FlowSimulator(fabric, routing, seed=3, obs=obs).run(flows)
        pushes = obs.metrics.value("flowsim.calendar.pushes")
        assert 0.0 < pushes
        # Every push is counted, and a completion keeps its winner's
        # class out of the heap until it re-keys it, so the stale
        # entries left are the ones that re-keys superseded.
        stale_share = obs.metrics.value("flowsim.calendar.stale_pops") / pushes
        assert round(stale_share, 3) == 0.294
