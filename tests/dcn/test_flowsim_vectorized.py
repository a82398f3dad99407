"""Property suite pinning the path-class water-filler to the original
dict-based implementations.

``max_min_rates_reference`` and ``FlowSimulator.run_reference`` are the
original implementations kept in-tree as oracles; the filler behind
``max_min_rates`` and ``FlowSimulator.run`` must reproduce their
allocations (to 1e-12) and the event loop's completion orders and event
times (exactly).  A max-min optimality certificate checks allocations
with no oracle at all.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dcn.flowsim import (
    FlowSimulator,
    _index_links,
    _PathClasses,
    _path_classes,
    generate_flows,
    max_min_rates,
    max_min_rates_reference,
)
from repro.dcn.spinefree import AggregationBlock, SpineFreeFabric
from repro.dcn.topology_engineering import engineer_trunks
from repro.dcn.traffic import gravity_matrix
from repro.dcn.traffic_engineering import route_demand
from repro.obs import Observability

RTOL = 1e-12

seeds = st.integers(min_value=0, max_value=2**31 - 1)


def assert_max_min_certificate(flow_paths, capacity, rates, rel=1e-9):
    """Check that ``rates`` is the max-min fair allocation without an
    oracle, in O(flows + links) for bounded path lengths:

    - no link carries more than its capacity x (1 + ``rel``);
    - every flow crosses a saturated link on which its rate is the
      largest of any flow's.

    Flows with no links get no rate.
    """
    load, top = {}, {}
    for fid, links in flow_paths.items():
        if not links:
            assert fid not in rates
            continue
        r = rates[fid]
        assert r >= 0.0
        for link in links:
            load[link] = load.get(link, 0.0) + r
            top[link] = max(top.get(link, 0.0), r)
    for link, total in load.items():
        assert total <= capacity.get(link, 0.0) * (1.0 + rel), link
    for fid, links in flow_paths.items():
        assert not links or any(
            load[link] >= capacity.get(link, 0.0) * (1.0 - rel)
            and rates[fid] >= top[link] * (1.0 - rel)
            for link in links
        ), fid


@st.composite
def shared_path_instances(draw):
    """Flows drawn from a few paths, so most path classes carry many
    flows.  Capacities come from a small set, so bottlenecks tie, and
    include 0.0, so flows starve; some paths have no links."""
    links = [(i, i + 1) for i in range(draw(st.integers(1, 10)))]
    level = st.sampled_from([0.0, 10.0, 30.0, 30.0, 60.0])
    capacity = {link: draw(level) for link in links}
    path = st.lists(st.sampled_from(links), max_size=4, unique=True)
    paths = draw(st.lists(path, min_size=1, max_size=6))
    picks = draw(st.lists(st.integers(0, len(paths) - 1), min_size=1, max_size=60))
    return {fid: list(paths[p]) for fid, p in enumerate(picks)}, capacity


def _random_instance(rng, num_flows, num_links, zero_capacity=False, empty_paths=False):
    links = [(i, i + 1) for i in range(num_links)]
    caps = rng.uniform(1.0, 200.0, num_links)
    if zero_capacity:
        caps[rng.integers(0, num_links)] = 0.0
    capacity = {link: float(c) for link, c in zip(links, caps)}
    flow_paths = {}
    for fid in range(num_flows):
        if empty_paths and rng.random() < 0.2:
            flow_paths[fid] = []
            continue
        hops = int(rng.integers(1, min(5, num_links) + 1))
        picks = rng.choice(num_links, size=hops, replace=False)
        flow_paths[fid] = [links[int(p)] for p in picks]
    return flow_paths, capacity


class TestMaxMinRates:
    @given(
        seeds,
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=1, max_value=12),
        st.booleans(),
        st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_matrix_matches_dict_kernel(self, seed, flows, links, zero_cap, empty):
        rng = np.random.default_rng(seed)
        flow_paths, capacity = _random_instance(rng, flows, links, zero_cap, empty)
        vec = max_min_rates(flow_paths, capacity)
        ref = max_min_rates_reference(flow_paths, capacity)
        assert vec.keys() == ref.keys()
        for fid in ref:
            assert vec[fid] == pytest.approx(ref[fid], rel=RTOL, abs=1e-300)
        assert_max_min_certificate(flow_paths, capacity, vec)

    @given(shared_path_instances(), st.data())
    @settings(max_examples=120, deadline=None)
    def test_fill_rates_on_partial_masks(self, instance, data):
        """A fill allocates the live flows alone: after a masked-out
        subset of flows leaves the path-class table, every live flow
        gets the oracle's allocation for the live set, and it passes
        the certificate.  ``{fid: []}`` flows stay unallocated."""
        flow_paths, capacity = instance
        link_index, cap_vector = _index_links(flow_paths, capacity)
        fids = [fid for fid, path in flow_paths.items() if path]
        class_links, class_of = _path_classes(
            [link_index[l] for l in flow_paths[f]] for f in fids
        )
        table = _PathClasses(cap_vector.tolist(), class_links)
        classes = dict(zip(fids, class_of))
        for c in classes.values():
            table.add(c)
        live = {
            fid: path
            for fid, path in flow_paths.items()
            if data.draw(st.booleans(), label=f"flow {fid} live")
        }
        for fid, c in classes.items():
            if fid not in live:
                table.remove(c)
        class_rates, rounds = table.fill(range(len(link_index)))
        rates = {fid: class_rates[c] for fid, c in classes.items() if fid in live}
        ref = max_min_rates_reference(live, capacity)
        assert rates.keys() == ref.keys()
        for fid in ref:
            assert rates[fid] == pytest.approx(ref[fid], rel=RTOL, abs=1e-300)
        assert_max_min_certificate(live, capacity, rates)
        assert (rounds > 0) == bool(rates)

    @given(shared_path_instances())
    @settings(max_examples=80, deadline=None)
    def test_max_min_rates_on_shared_paths(self, instance):
        flow_paths, capacity = instance
        rates = max_min_rates(flow_paths, capacity)
        ref = max_min_rates_reference(flow_paths, capacity)
        assert rates.keys() == ref.keys()
        for fid in ref:
            assert rates[fid] == pytest.approx(ref[fid], rel=RTOL, abs=1e-300)
        assert_max_min_certificate(flow_paths, capacity, rates)

    def test_shared_bottleneck_splits_evenly(self):
        link = (0, 1)
        rates = max_min_rates({0: [link], 1: [link], 2: [link]}, {link: 30.0})
        assert all(r == pytest.approx(10.0) for r in rates.values())

    def test_zero_capacity_link_starves_its_flows(self):
        dead, live = (0, 1), (1, 2)
        rates = max_min_rates(
            {0: [dead], 1: [live]}, {dead: 0.0, live: 40.0}
        )
        assert rates[0] == 0.0
        assert rates[1] == pytest.approx(40.0)

    def test_multi_bottleneck_water_filling(self):
        # Flow 0 crosses both links; flows 1 and 2 take one each.  The
        # narrow link caps flow 0 and flow 1 at 5, leaving 15 for flow 2.
        a, b = (0, 1), (1, 2)
        rates = max_min_rates(
            {0: [a, b], 1: [a], 2: [b]}, {a: 10.0, b: 20.0}
        )
        ref = max_min_rates_reference(
            {0: [a, b], 1: [a], 2: [b]}, {a: 10.0, b: 20.0}
        )
        assert rates == pytest.approx(ref)
        assert rates[0] == pytest.approx(5.0)
        assert rates[2] == pytest.approx(15.0)

    def test_empty_inputs(self):
        assert max_min_rates({}, {(0, 1): 10.0}) == {}
        assert max_min_rates({0: []}, {(0, 1): 10.0}) == {}


def _build_sim(seed, path_policy="primary", blocks=6, uplinks=8):
    fabric = SpineFreeFabric.uniform(
        [AggregationBlock(i, uplinks=uplinks) for i in range(blocks)]
    )
    tm = gravity_matrix(blocks, 800.0, seed=seed)
    routing = route_demand(fabric, tm)
    return fabric, routing, tm


class TestFlowSimulatorParity:
    @given(seeds, st.integers(min_value=1, max_value=120))
    @settings(max_examples=15, deadline=None)
    def test_run_matches_reference(self, seed, num_flows):
        fabric, routing, tm = _build_sim(seed % 1000)
        flows = generate_flows(
            tm.demand_gbps, num_flows, mean_size_gbit=50.0, duration_s=2.0, seed=seed
        )
        # Fresh same-seed simulators: wcmp path selection advances the RNG.
        recs_v = FlowSimulator(fabric, routing, seed=3).run(flows)
        recs_r = FlowSimulator(fabric, routing, seed=3).run_reference(flows)
        assert [r.flow.flow_id for r in recs_v] == [r.flow.flow_id for r in recs_r]
        for v, r in zip(recs_v, recs_r):
            assert v.finish_s == pytest.approx(r.finish_s, rel=RTOL)
            assert v.start_s == pytest.approx(r.start_s, rel=RTOL)

    @pytest.mark.parametrize("policy", ["primary", "wcmp"])
    def test_run_matches_reference_per_policy(self, policy):
        fabric, routing, tm = _build_sim(5)
        flows = generate_flows(
            tm.demand_gbps, 200, mean_size_gbit=120.0, duration_s=1.0, seed=2
        )
        recs_v = FlowSimulator(fabric, routing, path_policy=policy, seed=3).run(flows)
        recs_r = FlowSimulator(fabric, routing, path_policy=policy, seed=3).run_reference(
            flows
        )
        assert [r.flow.flow_id for r in recs_v] == [r.flow.flow_id for r in recs_r]
        dts = [abs(v.finish_s - r.finish_s) for v, r in zip(recs_v, recs_r)]
        assert max(dts) == 0.0

    def test_high_concurrency_crosses_matrix_kernel(self):
        # Dense arrivals (300 flows in 50 ms) keep hundreds of flows
        # live at once; the component fills must match the oracle.
        fabric, routing, tm = _build_sim(7)
        flows = generate_flows(
            tm.demand_gbps, 300, mean_size_gbit=500.0, duration_s=0.05, seed=4
        )
        recs_v = FlowSimulator(fabric, routing, seed=3).run(flows)
        recs_r = FlowSimulator(fabric, routing, seed=3).run_reference(flows)
        assert [r.flow.flow_id for r in recs_v] == [r.flow.flow_id for r in recs_r]
        assert max(
            abs(v.finish_s - r.finish_s) for v, r in zip(recs_v, recs_r)
        ) == 0.0

    @pytest.mark.parametrize("full_fills", [False, True])
    def test_certificate_holds_at_sampled_events_of_a_dense_mesh(self, full_fills):
        # fct_mesh's shape at 800 of its 2,000 flows: 16 blocks x 16
        # uplinks, the §4.2 gravity matrix on engineered trunks, WCMP
        # paths.  Every event is a component fill; with ``full_fills``
        # the sampled allocations must also equal one fill of every live
        # flow, bit for bit.
        blocks = [AggregationBlock(i, uplinks=16) for i in range(16)]
        tm = gravity_matrix(16, 90_000.0, seed=3)
        fabric = SpineFreeFabric(blocks, engineer_trunks(blocks, tm))
        routing = route_demand(fabric, tm)
        flows = generate_flows(
            tm.demand_gbps, 800, mean_size_gbit=2_000.0, duration_s=0.05, seed=1
        )
        # A same-seed simulator draws the same WCMP paths run will.
        twin = FlowSimulator(fabric, routing, path_policy="wcmp", seed=7)
        capacity = twin._capacities()
        paths = twin._routed_paths(flows, capacity)
        sampled = []

        def probe(now, rates):
            sampled.append(len(rates))
            if len(sampled) % 20 == 1:
                live = {fid: paths[fid] for fid in rates}
                assert_max_min_certificate(live, capacity, rates)
                if full_fills:
                    assert rates == max_min_rates(live, capacity)

        obs = Observability.sim()
        sim = FlowSimulator(fabric, routing, path_policy="wcmp", seed=7, obs=obs)
        sim.run(flows, rate_probe=probe)
        assert len(sampled) == 2 * len(flows) and max(sampled) == len(flows)
        # Every event walks and fills its component.
        frontier = obs.metrics.histogram("flowsim.frontier.flows")
        assert frontier.count == len(sampled)
