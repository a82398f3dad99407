"""Tests for repro.dcn.flowsim."""

import numpy as np
import pytest

from repro.core.errors import ConfigurationError
from repro.dcn.blocks import AggregationBlock
from repro.dcn.flowsim import (
    Flow,
    FlowSimulator,
    fct_stats,
    generate_flows,
    max_min_rates,
)
from repro.dcn.spinefree import SpineFreeFabric
from repro.dcn.topology_engineering import engineer_trunks
from repro.dcn.traffic import gravity_matrix, uniform_matrix
from repro.dcn.traffic_engineering import route_demand


def blocks(n=4, uplinks=6):
    return [AggregationBlock(i, uplinks=uplinks) for i in range(n)]


def make_sim(n=4, uplinks=6, tm=None):
    bs = blocks(n, uplinks)
    fabric = SpineFreeFabric.uniform(bs)
    tm = tm or uniform_matrix(n, 10.0)
    return FlowSimulator(fabric, route_demand(fabric, tm))


class TestMaxMinRates:
    def test_single_flow_gets_capacity(self):
        rates = max_min_rates({1: [(0, 1)]}, {(0, 1): 100.0})
        assert rates[1] == pytest.approx(100.0)

    def test_two_flows_share(self):
        rates = max_min_rates({1: [(0, 1)], 2: [(0, 1)]}, {(0, 1): 100.0})
        assert rates[1] == rates[2] == pytest.approx(50.0)

    def test_max_min_property(self):
        # Flow 1 uses a congested link; flow 2 has a private fat link.
        rates = max_min_rates(
            {1: [(0, 1)], 2: [(0, 1)], 3: [(2, 3)]},
            {(0, 1): 100.0, (2, 3): 400.0},
        )
        assert rates[1] == pytest.approx(50.0)
        assert rates[3] == pytest.approx(400.0)

    def test_multi_hop_bottleneck(self):
        rates = max_min_rates(
            {1: [(0, 1), (1, 2)]}, {(0, 1): 100.0, (1, 2): 30.0}
        )
        assert rates[1] == pytest.approx(30.0)


class TestFlowValidation:
    def test_flow_fields(self):
        with pytest.raises(ConfigurationError):
            Flow(1, 0, 0, 10.0, 0.0)
        with pytest.raises(ConfigurationError):
            Flow(1, 0, 1, 0.0, 0.0)
        with pytest.raises(ConfigurationError):
            Flow(1, 0, 1, 10.0, -1.0)

    @pytest.mark.parametrize("field", ["size_gbit", "arrival_s"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_fields_rejected(self, field, value):
        # NaN slips past ``<= 0`` / ``< 0`` checks, and an infinite size
        # or arrival would surface later as a misleading deadlock.
        fields = {"size_gbit": 10.0, "arrival_s": 0.0, field: value}
        with pytest.raises(ConfigurationError, match=f"{field} must be finite"):
            Flow(1, 0, 1, **fields)


class TestSimulation:
    def test_single_flow_fct(self):
        sim = make_sim()
        cap = sim.fabric.capacity_gbps(0, 1)
        records = sim.run([Flow(0, 0, 1, size_gbit=cap * 2.0, arrival_s=0.0)])
        assert len(records) == 1
        assert records[0].fct_s == pytest.approx(2.0)

    def test_sharing_slows_flows(self):
        sim = make_sim()
        cap = sim.fabric.capacity_gbps(0, 1)
        solo = sim.run([Flow(0, 0, 1, cap, 0.0)])[0].fct_s
        pair = sim.run([Flow(0, 0, 1, cap, 0.0), Flow(1, 0, 1, cap, 0.0)])
        assert max(r.fct_s for r in pair) > solo

    def test_all_flows_complete(self):
        tm = gravity_matrix(4, 500.0, seed=1)
        sim = make_sim(tm=tm)
        flows = generate_flows(tm.demand_gbps, 40, mean_size_gbit=50.0, seed=2)
        records = sim.run(flows)
        assert len(records) == 40
        for r in records:
            assert r.finish_s >= r.start_s >= 0

    def test_empty_flow_list(self):
        with pytest.raises(ConfigurationError):
            make_sim().run([])

    def test_fct_stats(self):
        sim = make_sim()
        cap = sim.fabric.capacity_gbps(0, 1)
        records = sim.run([Flow(i, 0, 1, cap, float(i)) for i in range(4)])
        stats = fct_stats(records)
        assert stats["mean_s"] > 0
        assert stats["p50_s"] <= stats["p99_s"]

    def test_fct_stats_empty(self):
        with pytest.raises(ConfigurationError):
            fct_stats([])


class TestGenerateFlows:
    def test_pair_weighting(self):
        d = np.zeros((3, 3))
        d[0, 1] = 100.0
        d[1, 2] = 1e-9
        flows = generate_flows(d, 200, seed=3)
        pair_counts = sum(1 for f in flows if (f.src, f.dst) == (0, 1))
        assert pair_counts > 190

    def test_arrivals_sorted(self):
        d = uniform_matrix(4, 10.0).demand_gbps
        flows = generate_flows(d, 50, seed=4)
        arrivals = [f.arrival_s for f in flows]
        assert arrivals == sorted(arrivals)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            generate_flows(np.zeros((3, 3)), 10)
        with pytest.raises(ConfigurationError):
            generate_flows(uniform_matrix(3).demand_gbps, 0)


class TestEngineeredVsUniform:
    def test_engineered_improves_fct_on_skewed_traffic(self):
        """§4.2: topology engineering improves flow completion time.

        The benefit needs a fabric wide enough that the uniform mesh
        spreads itself thin (many peers per uplink) and sustained load.
        """
        n = 16
        bs = blocks(n, uplinks=16)
        tm = gravity_matrix(n, total_gbps=90_000.0, concentration=1.0, seed=3)
        flows = generate_flows(
            tm.demand_gbps, 150, mean_size_gbit=200.0, duration_s=5.0, seed=2
        )

        uniform = SpineFreeFabric.uniform(bs)
        engineered = SpineFreeFabric(bs, engineer_trunks(bs, tm))
        fct_uniform = fct_stats(
            FlowSimulator(uniform, route_demand(uniform, tm)).run(flows)
        )
        fct_engineered = fct_stats(
            FlowSimulator(engineered, route_demand(engineered, tm)).run(flows)
        )
        assert fct_engineered["mean_s"] < fct_uniform["mean_s"]
