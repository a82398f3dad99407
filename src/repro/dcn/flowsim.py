"""Max-min fair flow-level simulation: flow completion times.

Flows follow the paths the traffic-engineering router picked for their
block pair; link bandwidth is shared max-min fairly (progressive
filling), and rates are recomputed at every arrival/completion -- the
standard fluid approximation for TCP-like sharing.  Comparing FCTs on an
engineered vs a uniform mesh reproduces the §4.2 "10% improvement in
flow completion time" result.

Two implementations of the event loop coexist:

- :meth:`FlowSimulator.run` -- the **incremental water-filling engine**.
  Per-link sets of active flows, the per-flow rate vector, and a
  completion calendar persist across events; an arrival/departure
  re-solves only the connected component of the flow/link interaction
  graph reachable from the touched links (the affected-subgraph trick),
  falling back to one vectorized :meth:`_IncidenceSystem.fill_rates` solve of the whole
  active set when that frontier exceeds :data:`_INCREMENTAL_MAX_FRONTIER`
  flows.  Max-min progressive filling decomposes exactly over
  components -- the per-link subtraction sequence is identical whether a
  component is solved alone or interleaved in a global solve -- so the
  incremental allocations are bit-exact against the full per-event solve.
- :meth:`FlowSimulator.run_reference` -- the original per-event dict
  loop: the bit-exact oracle for the above.

The allocation kernels follow the same pattern:
:func:`max_min_rates` is the incidence-matrix water-filler and
:func:`max_min_rates_reference` its dict-loop oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.errors import ConfigurationError
from repro.dcn.spinefree import SpineFreeFabric
from repro.dcn.traffic_engineering import RoutingSolution
from repro.obs import resolve_obs

Link = Tuple[int, int]

#: A per-event allocation probe: ``probe(now_s, {flow_id: rate_gbps})``
#: fired once per event iteration with the allocation for the current
#: active set.  The engine/reference parity suite uses it to pin
#: allocations at every event boundary.
RateProbe = Callable[[float, Dict[int, float]], None]

#: Incremental-engine fallback threshold: when the affected component
#: (the "dirty set") reachable from an event's touched links exceeds
#: this many flows, the engine stops walking and re-solves the whole
#: active set with :meth:`_IncidenceSystem.fill_rates` instead.
#: Allocations are identical either way; this bounds the Python frontier
#: walk so dense, all-connected workloads degrade gracefully to the
#: vectorized full solve.  Read at every :meth:`FlowSimulator.run` call,
#: so tests can force fallbacks by patching it.
_INCREMENTAL_MAX_FRONTIER = 96

#: Relative half-width of the calendar's pop re-evaluation window.  Heap
#: keys are projected absolute finish times computed when a flow's rate
#: last changed; the freshly recomputed value can drift from the key by
#: accumulated float rounding (~2^-52 per drain event, so ~1e-11
#: relative after 10^5 events).  Popping every entry within this much of
#: the top and re-evaluating with the oracle's exact arithmetic keeps
#: completion picks bit-identical to a per-event argmin while leaving
#: >100x margin over the drift bound.
_CALENDAR_REL_WINDOW = 4e-9


@dataclass(frozen=True)
class Flow:
    """One flow between aggregation blocks."""

    flow_id: int
    src: int
    dst: int
    size_gbit: float
    arrival_s: float

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise ConfigurationError("flow endpoints must differ")
        if self.size_gbit <= 0:
            raise ConfigurationError("flow size must be positive")
        if self.arrival_s < 0:
            raise ConfigurationError("arrival must be non-negative")


@dataclass(frozen=True)
class FlowRecord:
    """Completion record."""

    flow: Flow
    start_s: float
    finish_s: float

    @property
    def fct_s(self) -> float:
        return self.finish_s - self.flow.arrival_s


def _links_of(path: Tuple[int, ...]) -> List[Link]:
    return [(path[i], path[i + 1]) for i in range(len(path) - 1)]


class _IncidenceSystem:
    """A link x flow incidence structure in flat arrays.

    ``flat`` holds the link index of every (flow, link) membership and
    ``owner`` the flow index of the same entry, both ``int32`` so 65k-port
    link sets stay hot in cache.  Built once and reused across events by
    the simulator.
    """

    __slots__ = ("flat", "owner", "num_flows", "capacity")

    def __init__(self, cols: Sequence[np.ndarray], capacity: np.ndarray) -> None:
        self.num_flows = len(cols)
        self.capacity = np.asarray(capacity, dtype=float)
        lens = np.array([len(c) for c in cols], dtype=np.int32)
        if cols:
            self.flat = np.concatenate(cols).astype(np.int32, copy=False)
            self.owner = np.repeat(
                np.arange(self.num_flows, dtype=np.int32), lens
            )
        else:
            self.flat = np.empty(0, dtype=np.int32)
            self.owner = np.empty(0, dtype=np.int32)

    def fill_rates(self, active: np.ndarray) -> np.ndarray:
        """Progressive-filling max-min allocation over the active flows.

        Entries are compacted once to the active flows, renumbered into
        their local index space; per-link counts start as one
        ``np.bincount`` and each round subtracts what it froze, and the
        frozen entries are dropped, so every round costs only the
        entries still unfrozen.  Every link exactly at the minimum share
        saturates in the same round -- freezing tied bottlenecks
        together matches one-at-a-time progressive filling, since
        removing one tied link's flows leaves every other tied link's
        share unchanged ((c - k*s) / (n - k) == s when c/n == s).
        Returns a rate per flow (0.0 for inactive flows and for flows
        starved by a zero-capacity link).
        """
        num_links = self.capacity.size
        rates = np.zeros(self.num_flows)
        selected = active[self.owner]
        # Storage is int32 (cache footprint at 65k-port link sets); the
        # water-filling rounds index with these arrays repeatedly, and
        # NumPy re-casts non-intp index arrays on every use -- one
        # up-front cast of the compacted entries wins it back.
        flat = self.flat[selected].astype(np.intp, copy=False)
        if not flat.size:
            return rates
        local = np.cumsum(active) - 1
        owner = local[self.owner[selected]]
        local_rates = np.zeros(int(local[-1]) + 1)
        remaining = self.capacity.copy()
        counts = np.bincount(flat, minlength=num_links)
        while flat.size:
            used = counts > 0
            share = np.where(used, remaining / np.where(used, counts, 1), np.inf)
            fair = share.min()
            frozen = np.zeros(local_rates.size, dtype=bool)
            frozen[owner[(share == fair)[flat]]] = True
            entries = frozen[owner]
            decrement = np.bincount(flat[entries], minlength=num_links)
            remaining -= fair * decrement
            np.maximum(remaining, 0.0, out=remaining)
            counts -= decrement
            local_rates[frozen] = fair
            keep = ~entries
            flat = flat[keep]
            owner = owner[keep]
        rates[active] = local_rates
        return rates


def _index_links(
    flow_paths: Dict[int, List[Link]], link_capacity: Dict[Link, float]
) -> Tuple[Dict[Link, int], np.ndarray]:
    """Index every link any flow touches; absent links get 0 capacity."""
    link_index: Dict[Link, int] = {}
    for links in flow_paths.values():
        for link in links:
            if link not in link_index:
                link_index[link] = len(link_index)
    capacity = np.array(
        [link_capacity.get(link, 0.0) for link in link_index], dtype=float
    )
    return link_index, capacity


def max_min_rates(
    flow_paths: Dict[int, List[Link]],
    link_capacity: Dict[Link, float],
) -> Dict[int, float]:
    """Progressive-filling max-min fair allocation.

    Repeatedly saturate the bottleneck link with the smallest fair share
    and freeze its flows.  Runs on a link x flow incidence matrix with
    per-round counts and shares as NumPy array ops; property-tested
    against the dict-loop oracle :func:`max_min_rates_reference`.
    """
    link_index, capacity = _index_links(flow_paths, link_capacity)
    fids = list(flow_paths)
    cols = [
        np.array([link_index[link] for link in flow_paths[fid]], dtype=np.int32)
        for fid in fids
    ]
    system = _IncidenceSystem(cols, capacity)
    active = np.array([len(c) > 0 for c in cols], dtype=bool)
    rates = system.fill_rates(active)
    return {fid: float(rates[i]) for i, fid in enumerate(fids) if active[i]}


def max_min_rates_reference(
    flow_paths: Dict[int, List[Link]],
    link_capacity: Dict[Link, float],
) -> Dict[int, float]:
    """Dict-loop oracle for :func:`max_min_rates` (original implementation).

    Kept for the property suite and the perf-regression harness.
    """
    active = dict(flow_paths)
    remaining = dict(link_capacity)
    rates: Dict[int, float] = {}
    while active:
        counts: Dict[Link, int] = {}
        for links in active.values():
            for link in links:
                counts[link] = counts.get(link, 0) + 1
        bottleneck, share = None, float("inf")
        for link, count in counts.items():
            s = remaining.get(link, 0.0) / count
            if s < share:
                share, bottleneck = s, link
        if bottleneck is None:
            break
        frozen = [
            fid for fid, links in active.items() if bottleneck in links
        ]
        for fid in frozen:
            rates[fid] = share
            for link in active[fid]:
                remaining[link] = max(0.0, remaining[link] - share)
            del active[fid]
    return rates


@dataclass
class FlowSimulator:
    """Fluid flow simulation over a routed spine-free fabric.

    Args:
        path_policy: ``"primary"`` pins every flow of a pair to the
            highest-weight routed path; ``"wcmp"`` hashes each flow onto
            one of the pair's routed paths with probability proportional
            to the routed weight (flow-level weighted-cost multipath).
        seed: seeds the WCMP path draws.
        obs: optional :class:`repro.obs.Observability` bundle; the
            incremental engine lands frontier sizes, dirty fractions,
            full-solve fallbacks, and calendar traffic on it.
    """

    fabric: SpineFreeFabric
    routing: RoutingSolution
    path_policy: str = "primary"
    seed: int = 0
    obs: Optional[object] = None

    def __post_init__(self) -> None:
        if self.path_policy not in ("primary", "wcmp"):
            raise ConfigurationError(
                f"path policy must be 'primary' or 'wcmp', got {self.path_policy!r}"
            )
        self._path_rng = np.random.default_rng(self.seed)
        self._obs = resolve_obs(self.obs)

    def _path_for(self, src: int, dst: int) -> Tuple[int, ...]:
        """Route one flow of the pair per the path policy."""
        options = self.routing.path_for(src, dst)
        if not options:
            return (src, dst)
        if self.path_policy == "primary":
            return max(options, key=lambda pw: pw[1])[0]
        weights = np.array([w for _, w in options], dtype=float)
        total = weights.sum()
        if total <= 0:
            return options[0][0]
        idx = int(self._path_rng.choice(len(options), p=weights / total))
        return options[idx][0]

    def _capacities(self) -> Dict[Link, float]:
        """Lit-link capacities as a dict, in row-major link order.

        One ``np.nonzero`` pass over the capacity matrix instead of the
        O(n^2) Python double loop -- at 65k-port (1k-block) fabrics the
        matrix scan is pure NumPy and only lit links pay Python cost.
        """
        c = np.asarray(self.routing.link_capacity_gbps, dtype=float)
        rows, cols = np.nonzero(c > 0.0)
        keep = rows != cols
        rows, cols = rows[keep], cols[keep]
        values = c[rows, cols]
        return {
            (int(i), int(j)): float(v)
            for i, j, v in zip(rows.tolist(), cols.tolist(), values.tolist())
        }

    def _routed_paths(
        self, flows: Sequence[Flow], capacity: Dict[Link, float]
    ) -> Dict[int, List[Link]]:
        """Route every flow and validate against the lit-link capacities."""
        paths = {f.flow_id: _links_of(self._path_for(f.src, f.dst)) for f in flows}
        for f in flows:
            for link in paths[f.flow_id]:
                if link not in capacity:
                    raise ConfigurationError(
                        f"flow {f.flow_id} routed over dark link {link}"
                    )
        return paths

    def _prepare(
        self, flows: Sequence[Flow]
    ) -> Tuple[List[Flow], List[List[int]], np.ndarray]:
        """Event-loop setup: arrival order, per-flow link-index columns
        (plain lists; callers lift to arrays as needed), and the
        capacity of each indexed link."""
        if not flows:
            raise ConfigurationError("need at least one flow")
        capacity = self._capacities()
        paths = self._routed_paths(flows, capacity)
        ordered = sorted(flows, key=lambda f: f.arrival_s)
        link_index, cap_vector = _index_links(
            {f.flow_id: paths[f.flow_id] for f in ordered}, capacity
        )
        cols = [
            [link_index[link] for link in paths[f.flow_id]] for f in ordered
        ]
        return ordered, cols, cap_vector

    # ------------------------------------------------------------------ #
    # The incremental water-filling engine
    # ------------------------------------------------------------------ #

    def run(
        self, flows: Sequence[Flow], rate_probe: Optional[RateProbe] = None
    ) -> List[FlowRecord]:
        """Simulate until every flow finishes; returns completion records.

        The incremental engine.  Per-event work is proportional to the
        **affected component** -- the flows and links reachable from the
        arriving/completing flow's links through shared active links --
        not to the whole active set:

        - the flows active on each link, the rate vector, and each
          flow's remaining volume persist across events;
        - an arrival/departure walks the affected component -- visiting
          only flows active now, so the cost tracks live work, not the
          flows already finished -- and re-runs progressive filling on
          it alone (max-min allocations decompose exactly over
          components, so this is bit-identical to a full per-event
          solve);
        - when the walk exceeds :data:`_INCREMENTAL_MAX_FRONTIER` flows
          it falls back to one vectorized full solve for that event;
        - projected completions live in an indexed heap with lazy
          invalidation (absolute finish times are invariant while a
          flow's rate is unchanged); a full-solve fallback rebuilds the
          heap in one pass from every positive-rate active flow, so no
          stale entry outlives it; pops re-evaluate an epsilon-window
          of candidates with the oracle's exact arithmetic, so the
          winning flow and its finish time are bit-identical to the
          per-event argmin of :meth:`run_reference`.

        ``rate_probe`` (if given) fires once per event iteration with
        the current allocation; the property suite uses it to pin
        the engine to :meth:`run_reference` at every event boundary.
        """
        ordered, cols_py, cap_vector = self._prepare(flows)
        num_flows = len(ordered)
        num_links = int(cap_vector.size)
        system = _IncidenceSystem(
            [np.asarray(c, dtype=np.int32) for c in cols_py], cap_vector
        )
        # The frontier walk and small-component fills run on plain
        # ints/floats -- at typical component sizes (a handful of flows)
        # interpreter ops beat NumPy call overhead.
        capacity_py = cap_vector.tolist()
        arrivals_py = [f.arrival_s for f in ordered]

        active_np = np.zeros(num_flows, dtype=bool)
        remaining = np.zeros(num_flows)
        start = np.zeros(num_flows)
        rates = np.zeros(num_flows)
        version = [0] * num_flows
        heap: List[Tuple[float, int, int]] = []
        # The flows active on each link now, in arrival order: the walk
        # never visits a flow that has finished or not yet arrived.
        link_flows: List[Dict[int, None]] = [{} for _ in range(num_links)]
        # Compact active-index array (swap-remove) for the sparse drain.
        act_idx = np.empty(num_flows, dtype=np.int32)
        act_pos = [0] * num_flows
        # Scratch for the component walk, reset via touched lists.
        flow_seen = bytearray(num_flows)
        link_seen = bytearray(num_links)

        obs = self._obs
        metrics = obs.metrics
        events_ctr = metrics.counter("flowsim.events")
        fallback_ctr = metrics.counter("flowsim.full_solve_fallbacks")
        stale_ctr = metrics.counter("flowsim.calendar.stale_pops")
        push_ctr = metrics.counter("flowsim.calendar.pushes")
        frontier_hist = metrics.histogram("flowsim.frontier.flows")
        dirty_hist = metrics.histogram("flowsim.dirty_fraction")

        max_frontier = _INCREMENTAL_MAX_FRONTIER
        cursor = 0
        num_active = 0
        now = 0.0
        records: List[FlowRecord] = []
        inf = float("inf")

        def component_from(f: int) -> Optional[Tuple[List[int], List[int]]]:
            """Active flows/links reachable from ``f``'s links, or None
            when the walk exceeds the fallback threshold."""
            comp_links: List[int] = []
            comp_flows: List[int] = []
            stack: List[int] = []
            for l in cols_py[f]:
                if not link_seen[l]:
                    link_seen[l] = 1
                    comp_links.append(l)
                    stack.append(l)
            overflow = False
            while stack:
                for o in link_flows[stack.pop()]:
                    if flow_seen[o]:
                        continue
                    flow_seen[o] = 1
                    comp_flows.append(o)
                    if len(comp_flows) > max_frontier:
                        overflow = True
                        stack.clear()
                        break
                    for l2 in cols_py[o]:
                        if not link_seen[l2]:
                            link_seen[l2] = 1
                            comp_links.append(l2)
                            stack.append(l2)
            for l in comp_links:
                link_seen[l] = 0
            for o in comp_flows:
                flow_seen[o] = 0
            if overflow:
                return None
            return comp_flows, comp_links

        def fill_component(
            comp_flows: List[int], comp_links: List[int]
        ) -> Dict[int, float]:
            """Progressive filling restricted to one component, with the
            same float arithmetic as :meth:`_IncidenceSystem.fill_rates`
            (shares as remaining/count, tied bottlenecks frozen together,
            remaining clamped at zero)."""
            rem = {l: capacity_py[l] for l in comp_links}
            alive = dict.fromkeys(comp_flows)
            out: Dict[int, float] = {}
            while alive:
                counts: Dict[int, int] = {}
                for o in alive:
                    for l in cols_py[o]:
                        counts[l] = counts.get(l, 0) + 1
                fair = inf
                for l, cnt in counts.items():
                    s = rem[l] / cnt
                    if s < fair:
                        fair = s
                frozen = [
                    o
                    for o in alive
                    if any(rem[l] / counts[l] == fair for l in cols_py[o])
                ]
                dec: Dict[int, int] = {}
                for o in frozen:
                    for l in cols_py[o]:
                        dec[l] = dec.get(l, 0) + 1
                for l, d in dec.items():
                    r = rem[l] - fair * d
                    rem[l] = r if r > 0.0 else 0.0
                for o in frozen:
                    out[o] = fair
                    del alive[o]
            return out

        def reallocate(f: int) -> None:
            """Refresh rates after ``f`` arrived/departed: solve the
            affected component (or everything, past the threshold) and
            re-key the calendar for flows whose rate changed."""
            comp = component_from(f)
            if comp is None:
                fallback_ctr.inc()
                frontier_hist.observe(float(num_active))
                dirty_hist.observe(1.0)
                rates[:] = system.fill_rates(active_np)
                # Rebuild the calendar from every live flow in one pass:
                # it drops all stale entries, so versions need no bump.
                sel = act_idx[:num_active]
                sel = sel[rates[sel] > 0.0]
                keys = now + remaining[sel] / rates[sel]
                sel_py = sel.tolist()
                heap[:] = zip(keys.tolist(), sel_py, [version[i] for i in sel_py])
                heapify(heap)
                push_ctr.inc(len(heap))
                return
            comp_flows, _comp_links = comp
            frontier_hist.observe(float(len(comp_flows)))
            if num_active:
                dirty_hist.observe(len(comp_flows) / num_active)
            if not comp_flows:
                return
            for o, r in fill_component(comp_flows, _comp_links).items():
                if r != rates[o]:
                    rates[o] = r
                    version[o] += 1
                    if r > 0.0:
                        push_ctr.inc()
                        heappush(
                            heap, (now + float(remaining[o]) / r, o, version[o])
                        )

        def next_finish() -> Optional[Tuple[float, int]]:
            """Earliest projected completion, re-evaluated freshly.

            Pops every live entry within the drift window of the top and
            recomputes ``now + remaining/rate`` (the oracle's formula on
            the eagerly-drained state); ties resolve to the lowest flow
            index, matching the reference argmin.  The other candidates
            go back re-keyed; the winner stays out, for the caller to
            retire or push back."""
            while heap and heap[0][2] != version[heap[0][1]]:
                heappop(heap)
                stale_ctr.inc()
            if not heap:
                return None
            k0 = heap[0][0]
            mag = k0 if k0 > 1.0 else 1.0
            limit = k0 + _CALENDAR_REL_WINDOW * mag
            cands: List[int] = []
            while heap and heap[0][0] <= limit:
                k, i, v = heappop(heap)
                if v == version[i]:
                    cands.append(i)
                else:
                    stale_ctr.inc()
            best_t, best_i = inf, -1
            fresh: List[Tuple[float, int]] = []
            for i in cands:
                t = now + float(remaining[i]) / float(rates[i])
                fresh.append((t, i))
                if t < best_t or (t == best_t and i < best_i):
                    best_t, best_i = t, i
            for t, i in fresh:
                if i != best_i:
                    heappush(heap, (t, i, version[i]))
            push_ctr.inc(len(fresh) - 1)
            return best_t, best_i

        while cursor < num_flows or num_active > 0:
            events_ctr.inc()
            if rate_probe is not None:
                rate_probe(
                    now,
                    {
                        ordered[int(i)].flow_id: float(rates[int(i)])
                        for i in act_idx[:num_active]
                    },
                )
            next_arrival = arrivals_py[cursor] if cursor < num_flows else inf
            nf = next_finish()
            if nf is None or next_arrival <= nf[0]:
                if nf is not None:
                    push_ctr.inc()
                    heappush(heap, (nf[0], nf[1], version[nf[1]]))
                if cursor >= num_flows:
                    raise ConfigurationError(
                        "deadlock: active flows with zero rate and no arrivals"
                    )
                elapsed = next_arrival - now
                if num_active:
                    sel = act_idx[:num_active]
                    remaining[sel] -= rates[sel] * elapsed
                now = next_arrival
                i = cursor
                cursor += 1
                active_np[i] = True
                act_pos[i] = num_active
                act_idx[num_active] = i
                num_active += 1
                remaining[i] = ordered[i].size_gbit
                start[i] = now
                for l in cols_py[i]:
                    link_flows[l][i] = None
                reallocate(i)
            else:
                finish_t, w = nf
                elapsed = finish_t - now
                sel = act_idx[:num_active]
                remaining[sel] -= rates[sel] * elapsed
                now = finish_t
                active_np[w] = False
                p = act_pos[w]
                last = int(act_idx[num_active - 1])
                act_idx[p] = last
                act_pos[last] = p
                num_active -= 1
                for l in cols_py[w]:
                    del link_flows[l][w]
                version[w] += 1
                rates[w] = 0.0
                records.append(
                    FlowRecord(flow=ordered[w], start_s=float(start[w]), finish_s=now)
                )
                reallocate(w)
        return records

    def run_reference(
        self, flows: Sequence[Flow], rate_probe: Optional[RateProbe] = None
    ) -> List[FlowRecord]:
        """Scalar oracle for :meth:`run`: the original per-event dict loop.

        Rebuilds the active-flow dict and re-runs the dict-based
        progressive filling from scratch at every arrival/completion,
        with an O(n) ``pending.pop(0)``.  Kept for the property suite and
        the perf-regression harness.
        """
        if not flows:
            raise ConfigurationError("need at least one flow")
        capacity = self._capacities()
        paths = self._routed_paths(flows, capacity)
        pending = sorted(flows, key=lambda f: f.arrival_s)
        remaining: Dict[int, float] = {}
        start: Dict[int, float] = {}
        flows_by_id = {f.flow_id: f for f in flows}
        records: List[FlowRecord] = []
        now = 0.0

        while pending or remaining:
            rates = max_min_rates_reference(
                {fid: paths[fid] for fid in remaining}, capacity
            )
            if rate_probe is not None:
                rate_probe(now, dict(rates))
            next_arrival = pending[0].arrival_s if pending else float("inf")
            next_finish, finish_id = float("inf"), None
            for fid, left in remaining.items():
                rate = rates.get(fid, 0.0)
                if rate > 0:
                    t = now + left / rate
                    if t < next_finish:
                        next_finish, finish_id = t, fid
            # ``pending`` guard: with every active flow starved at rate 0
            # and no arrivals left both times are inf, and the completion
            # branch owns the deadlock raise.
            if pending and next_arrival <= next_finish:
                elapsed = next_arrival - now
                for fid in list(remaining):
                    remaining[fid] -= rates.get(fid, 0.0) * elapsed
                now = next_arrival
                flow = pending.pop(0)
                remaining[flow.flow_id] = flow.size_gbit
                start[flow.flow_id] = now
            else:
                if finish_id is None:
                    raise ConfigurationError(
                        "deadlock: active flows with zero rate and no arrivals"
                    )
                elapsed = next_finish - now
                for fid in list(remaining):
                    remaining[fid] -= rates.get(fid, 0.0) * elapsed
                now = next_finish
                del remaining[finish_id]
                records.append(
                    FlowRecord(
                        flow=flows_by_id[finish_id],
                        start_s=start[finish_id],
                        finish_s=now,
                    )
                )
        return records


def fct_stats(records: Sequence[FlowRecord]) -> Dict[str, float]:
    """Mean / p50 / p99 flow completion times."""
    if not records:
        raise ConfigurationError("no records")
    fcts = np.array([r.fct_s for r in records])
    return {
        "mean_s": float(fcts.mean()),
        "p50_s": float(np.percentile(fcts, 50)),
        "p99_s": float(np.percentile(fcts, 99)),
    }


def generate_flows(
    traffic_demand_gbps: np.ndarray,
    num_flows: int,
    mean_size_gbit: float = 80.0,
    duration_s: float = 60.0,
    seed: int = 0,
) -> List[Flow]:
    """Sample flows whose pair frequencies follow a demand matrix."""
    d = np.asarray(traffic_demand_gbps, dtype=float)
    n = d.shape[0]
    if num_flows <= 0:
        raise ConfigurationError("need at least one flow")
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j and d[i, j] > 0]
    if not pairs:
        raise ConfigurationError("demand matrix has no nonzero pairs")
    weights = np.array([d[i, j] for i, j in pairs])
    weights = weights / weights.sum()
    rng = np.random.default_rng(seed)
    chosen = rng.choice(len(pairs), size=num_flows, p=weights)
    arrivals = np.sort(rng.uniform(0.0, duration_s, num_flows))
    sizes = rng.exponential(mean_size_gbit, num_flows) + 1e-3
    return [
        Flow(
            flow_id=k,
            src=pairs[chosen[k]][0],
            dst=pairs[chosen[k]][1],
            size_gbit=float(sizes[k]),
            arrival_s=float(arrivals[k]),
        )
        for k in range(num_flows)
    ]
