"""Property suite pinning the incidence-matrix flow kernels to the
original dict-based implementations.

``max_min_rates_reference`` and ``FlowSimulator.run_reference`` are the
pre-vectorization implementations kept in-tree as oracles; the matrix
paths must reproduce their allocations, completion orders, and event
times exactly (the kernels replicate the scalar op order, so the
comparison tolerance is far tighter than the 1e-12 contract).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dcn.flowsim import (
    FlowSimulator,
    _IncidenceSystem,
    _index_links,
    generate_flows,
    max_min_rates,
    max_min_rates_reference,
)
from repro.dcn.spinefree import AggregationBlock, SpineFreeFabric
from repro.dcn.traffic import gravity_matrix
from repro.dcn.traffic_engineering import route_demand

RTOL = 1e-12

seeds = st.integers(min_value=0, max_value=2**31 - 1)


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

    @given(
        seeds,
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=1, max_value=12),
        st.floats(min_value=0.0, max_value=1.0),
        st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_fill_rates_on_partial_masks(self, seed, flows, links, p_active, zero_cap):
        """``fill_rates`` solves the masked flows in their own compact
        index space: the active flows get the oracle's allocation for
        them alone, every inactive flow exactly 0.0."""
        rng = np.random.default_rng(seed)
        flow_paths, capacity = _random_instance(rng, flows, links, zero_cap, True)
        link_index, cap_vector = _index_links(flow_paths, capacity)
        system = _IncidenceSystem(
            [
                np.array([link_index[l] for l in path], dtype=np.int32)
                for path in flow_paths.values()
            ],
            cap_vector,
        )
        active = rng.random(flows) < p_active
        rates = system.fill_rates(active)
        ref = max_min_rates_reference(
            {fid: path for fid, path in flow_paths.items() if active[fid]}, capacity
        )
        for fid in flow_paths:
            if not active[fid]:
                assert rates[fid] == 0.0
            elif not flow_paths[fid]:
                # No links: the oracle leaves it unallocated.
                assert fid not in ref and rates[fid] == 0.0
            else:
                assert rates[fid] == pytest.approx(ref[fid], rel=RTOL, abs=1e-300)

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
        # Sizes chosen so the active-flow count exceeds the dict-kernel
        # crossover and the incidence kernel actually runs.
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
