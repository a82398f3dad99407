"""How ``FlowSimulator.run`` routes its flows.

``run`` routes each (src, dst) pair once and takes every WCMP draw of a
run from one ``Generator.random(k)`` call, searching each pair's CDF;
``run_reference`` keeps one ``Generator.choice`` per flow.  This suite
pins the two to the same paths and the same generator stream, pins the
work ``run`` does per run (host-independent counts: routing lookups
and generator calls), and checks the routed weights both engines
reject.
"""

import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import ConfigurationError
from repro.dcn.flowsim import (
    Flow,
    FlowSimulator,
    _index_links,
    _path_classes,
    generate_flows,
)
from repro.dcn.spinefree import AggregationBlock, SpineFreeFabric
from repro.dcn.traffic import gravity_matrix
from repro.dcn.traffic_engineering import route_demand
from tests.dcn.test_flowsim_incremental import _routing_over

#: Every pair shape the draw distinguishes: several options, with a
#: repeated path (``route_demand`` appends one option per transit chunk)
#: and a zero-weight option among positive ones; a single option (which
#: still draws under WCMP); a zero total (takes the first option, no
#: draw); and an unrouted pair (its direct link, no draw).  The classes
#: that can carry flows are link-disjoint, so the fills agree bit for
#: bit (see ``test_shared_link_freeze_matches_reference``), and every
#: link has its own capacity, so equal capacity vectors pin the links.
_PATHS = {
    (0, 1): [
        ((0, 1), 2.0),
        ((0, 2, 1), 1.0),
        ((0, 3, 1), 0.0),
        ((0, 2, 1), 1.5),
    ],
    (1, 0): [((1, 0), 5.0)],
    (2, 3): [((2, 3), 0.0), ((2, 0, 3), 0.0)],
    (1, 3): [((1, 3), 1.0), ((1, 4, 3), 3.0)],
}
_CAPACITY = {
    (0, 1): 100.0, (0, 2): 210.0, (2, 1): 220.0, (0, 3): 230.0,
    (3, 1): 240.0, (1, 0): 110.0, (2, 3): 120.0, (2, 0): 250.0,
    (1, 3): 130.0, (1, 4): 260.0, (4, 3): 270.0, (3, 2): 140.0,
}
_PAIRS = sorted(_PATHS) + [(3, 2)]


@st.composite
def flow_sets(draw):
    """Two flow lists over every pair shape, ids disjoint, input order
    not arrival order."""
    spec = st.tuples(
        st.sampled_from(_PAIRS),
        st.sampled_from([0.5, 1.0, 2.0]),
        st.sampled_from([0.0, 0.01, 0.02, 0.05]),
    )
    a = draw(st.lists(spec, min_size=1, max_size=30))
    b = draw(st.lists(spec, min_size=1, max_size=30))
    return (
        [Flow(k, s, d, g, t) for k, ((s, d), g, t) in enumerate(a)],
        [Flow(100 + k, s, d, g, t) for k, ((s, d), g, t) in enumerate(b)],
    )


def _record_keys(records):
    return [(r.flow.flow_id, r.start_s, r.finish_s) for r in records]


def _expected_prepare(twin, flows):
    """What ``run`` must route: the reference's per-flow paths, indexed
    into classes and links as the per-flow setup indexed them."""
    capacity = twin._capacities()
    paths = twin._routed_paths(flows, capacity)
    ordered = sorted(flows, key=lambda f: f.arrival_s)
    link_index, cap_vector = _index_links(
        {f.flow_id: paths[f.flow_id] for f in ordered}, capacity
    )
    class_links, class_of = _path_classes(
        [link_index[l] for l in paths[f.flow_id]] for f in ordered
    )
    return ordered, class_of, class_links, cap_vector.tolist()


class TestStreamIdenticalDraw:
    @pytest.mark.parametrize("policy", ["primary", "wcmp"])
    @given(sets=flow_sets())
    @settings(max_examples=40, deadline=None)
    def test_run_draws_the_reference_paths_and_stream(self, policy, sets):
        a, b = sets
        fabric, routing = _routing_over(_CAPACITY, _PATHS, blocks=5)
        prep = FlowSimulator(fabric, routing, policy, seed=11)
        twin = FlowSimulator(fabric, routing, policy, seed=11)
        for flows in (a, b):
            assert prep._prepare(flows) == _expected_prepare(twin, flows)
        assert prep._path_rng.bit_generator.state == twin._path_rng.bit_generator.state

        # The generator continues across runs, so the second run's
        # draws agree only if the first consumed exactly the stream the
        # reference did.
        sim = FlowSimulator(fabric, routing, policy, seed=11)
        ref = FlowSimulator(fabric, routing, policy, seed=11)
        for flows in (a, b):
            assert _record_keys(sim.run(flows)) == _record_keys(ref.run_reference(flows))
        assert sim._path_rng.bit_generator.state == ref._path_rng.bit_generator.state


class _CountingRng:
    """A generator proxy counting ``random`` and ``choice`` calls."""

    def __init__(self, rng):
        self.rng = rng
        self.calls = Counter()

    def random(self, *args, **kwargs):
        self.calls["random"] += 1
        return self.rng.random(*args, **kwargs)

    def choice(self, *args, **kwargs):
        self.calls["choice"] += 1
        return self.rng.choice(*args, **kwargs)


class TestWorkPerRun:
    @pytest.mark.parametrize("policy", ["primary", "wcmp"])
    def test_one_route_lookup_per_pair_and_at_most_one_draw_call(
        self, monkeypatch, policy
    ):
        # A loaded 8-block uniform mesh: ten pairs spill onto 2-hop detours.
        fabric = SpineFreeFabric.uniform(
            [AggregationBlock(i, uplinks=8) for i in range(8)]
        )
        tm = gravity_matrix(8, 20_000.0, seed=3)
        routing = route_demand(fabric, tm)
        flows = generate_flows(tm.demand_gbps, 300, mean_size_gbit=5.0, seed=2)
        lookups = Counter()
        path_for = routing.path_for

        def counted(src, dst):
            lookups[src, dst] += 1
            return path_for(src, dst)

        monkeypatch.setattr(routing, "path_for", counted)
        sim = FlowSimulator(fabric, routing, policy, seed=5)
        rng = sim._path_rng = _CountingRng(sim._path_rng)
        pairs = {(f.src, f.dst) for f in flows}
        assert len(pairs) > 10 and any(len(path_for(*p)) > 1 for p in pairs)
        for run in (1, 2):
            lookups.clear()
            sim.run(flows)
            assert set(lookups) == pairs and set(lookups.values()) == {1}
            assert rng.calls["random"] == (run if policy == "wcmp" else 0)
            assert rng.calls["choice"] == 0

    @pytest.mark.parametrize("seed", range(6))
    def test_dark_link_error_names_the_reference_flow(self, seed):
        # (0, 2) and (2, 1) are dark, so the detour of (0, 1) is too;
        # input order is the reverse of arrival order, and the error
        # names the first offending flow in input order.
        fabric, routing = _routing_over(
            {(0, 1): 100.0, (1, 0): 100.0},
            {(0, 1): [((0, 1), 1.0), ((0, 2, 1), 3.0)], (1, 0): [((1, 0), 1.0)]},
        )
        flows = [
            Flow(k, 0, 1, 1.0, 10.0 - k) if k % 3 else Flow(k, 1, 0, 1.0, 10.0 - k)
            for k in range(10)
        ]
        errors = []
        for engine in ("run", "run_reference"):
            sim = FlowSimulator(fabric, routing, "wcmp", seed=seed)
            with pytest.raises(ConfigurationError, match="dark link") as exc:
                getattr(sim, engine)(flows)
            errors.append(str(exc.value))
        assert errors[0] == errors[1]


class TestRoutedWeights:
    @pytest.mark.parametrize("policy", ["primary", "wcmp"])
    @pytest.mark.parametrize("engine", ["run", "run_reference"])
    @pytest.mark.parametrize(
        "weights",
        [
            [-1.0, 1.0],
            [-1.0, 3.0],
            [math.nan, 1.0],
            [math.inf, 1.0],
            [1.0, -math.inf],
            [1e308, 1e308],
        ],
    )
    def test_bad_weights_rejected_naming_the_pair(self, weights, engine, policy):
        fabric, routing = _routing_over(
            _CAPACITY,
            {(0, 1): [((0, 1), weights[0]), ((0, 2, 1), weights[1])]},
            blocks=5,
        )
        sim = FlowSimulator(fabric, routing, policy, seed=1)
        with pytest.raises(ConfigurationError, match=r"pair \(0, 1\)"):
            getattr(sim, engine)([Flow(0, 0, 1, 1.0, 0.0)])

    def test_zero_total_takes_the_first_option_without_a_draw(self):
        fabric, routing = _routing_over(_CAPACITY, _PATHS, blocks=5)
        sim = FlowSimulator(fabric, routing, "wcmp", seed=1)
        before = sim._path_rng.bit_generator.state
        assert sim._path_for(2, 3) == (2, 3)
        _, _, class_links, cap = sim._prepare([Flow(0, 2, 3, 1.0, 0.0)])
        assert cap == [_CAPACITY[2, 3]] and class_links == [(0,)]
        assert sim._path_rng.bit_generator.state == before
