"""Max-min fair flow-level simulation: flow completion times.

Flows follow the paths the traffic-engineering router picked for their
block pair; link bandwidth is shared max-min fairly (progressive
filling), and rates are recomputed at every arrival/completion -- the
standard fluid approximation for TCP-like sharing.  Comparing FCTs on an
engineered vs a uniform mesh reproduces the §4.2 "10% improvement in
flow completion time" result.

Two implementations of the event loop coexist:

- :meth:`FlowSimulator.run` -- the **incremental water-filling engine**.
  Flows are grouped into path classes (one per distinct link tuple);
  the live classes on each link, the per-class rate, and a completion
  calendar with one entry per class persist across events; an
  arrival/departure re-fills only the connected component of the
  class/link interaction graph reachable from the touched links (the
  affected-subgraph trick).  Max-min progressive filling decomposes
  exactly over components -- the per-link subtraction sequence is
  identical whether a component is filled alone or inside a global
  fill -- so the incremental allocations are bit-exact against the full
  per-event solve.
- :meth:`FlowSimulator.run_reference` -- the original per-event dict
  loop: the bit-exact oracle for the above.

Both :meth:`FlowSimulator.run` and :func:`max_min_rates` use the one
filler, :meth:`_PathClasses.fill`, a heap-driven water-filler over path
classes; :func:`max_min_rates_reference` is its dict-loop oracle.
"""

from __future__ import annotations

import math
from bisect import bisect_right, insort
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

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

#: Relative half-width of the calendar's pop re-evaluation window.  Heap
#: keys are the projected absolute finish times of each class's front
#: flow, computed when the class's rate or front flow last changed; the
#: freshly recomputed value can drift from the key by accumulated float
#: rounding (~2^-52 per drain event, so ~1e-11 relative after 10^5
#: events).  Popping every class within this much of the top and
#: re-evaluating its flows with the oracle's exact arithmetic keeps
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
        for name in ("size_gbit", "arrival_s"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ConfigurationError(f"flow {name} must be finite, got {value}")
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


def _checked_weights(
    src: int, dst: int, options: Sequence[Tuple[Tuple[int, ...], float]]
) -> np.ndarray:
    """The routed weights of pair ``(src, dst)``, rejected unless each is
    finite and non-negative with a finite total.  Unchecked, a negative
    weight can pick a path silently (``[-1, 1]`` totals 0) and a NaN or
    infinite one fails inside the WCMP draw."""
    weights = np.array([w for _, w in options], dtype=float)
    with np.errstate(over="ignore"):
        total = weights.sum()
    if not (math.isfinite(total) and (weights >= 0.0).all()):
        raise ConfigurationError(
            f"pair ({src}, {dst}) routed weights must be finite and "
            f"non-negative with a finite total, got {weights.tolist()}"
        )
    return weights


def _path_classes(
    paths: Iterable[Sequence[int]],
) -> Tuple[List[Tuple[int, ...]], List[int]]:
    """Group paths (given as link indices) into classes: the distinct
    link tuples in first-appearance order, and the class of each path."""
    index: Dict[Tuple[int, ...], int] = {}
    class_of = [index.setdefault(tuple(p), len(index)) for p in paths]
    return list(index), class_of


class _PathClasses:
    """Flows grouped by path: each distinct link tuple is one class.

    ``links[c]`` is class ``c``'s link-index tuple.  Every flow of a
    class gets the same max-min rate, so fills work on classes.  The
    table keeps the live flow count of each class, and per link its live
    flow count and live classes, so a fill over a set of links closed
    under sharing starts without a rebuild.
    """

    __slots__ = ("capacity", "links", "live", "link_count", "link_classes")

    def __init__(
        self, capacity: List[float], class_links: List[Tuple[int, ...]]
    ) -> None:
        self.capacity = capacity
        self.links = class_links
        self.live = [0] * len(class_links)
        self.link_count = [0] * len(capacity)
        self.link_classes: List[Dict[int, None]] = [{} for _ in capacity]

    def add(self, c: int) -> None:
        self.live[c] += 1
        for l in self.links[c]:
            self.link_count[l] += 1
            self.link_classes[l][c] = None

    def remove(self, c: int) -> None:
        self.live[c] -= 1
        for l in self.links[c]:
            self.link_count[l] -= 1
            if not self.live[c]:
                del self.link_classes[l][c]

    def fill(self, links: Iterable[int]) -> Tuple[Dict[int, float], int]:
        """Progressive-filling max-min allocation of the live classes on
        ``links`` (which must hold every link those classes cross).

        A lazy min-heap of ``(remaining/count, link)`` yields each
        round's fair share; every link at it saturates in the same round
        -- freezing tied bottlenecks together matches one-at-a-time
        filling, since removing one tied link's flows leaves every other
        tied link's share unchanged ((c - k*s) / (n - k) == s when
        c/n == s).  A round updates only the links it touches, each by
        one ``rem - fair * frozen`` clamped at zero: arithmetic that
        depends only on the link's own classes, so a component filled
        alone gets the same bits as in a fill of every live link.
        Returns each class's rate (0.0 when starved by a zero-capacity
        link) and the number of rounds.
        """
        capacity, link_count = self.capacity, self.link_count
        link_classes, class_links, live = self.link_classes, self.links, self.live
        # Per live link: [remaining, unfrozen flows, current share].
        state: Dict[int, List] = {}
        heap: List[Tuple[float, int]] = []
        for l in links:
            n = link_count[l]
            if n:
                r = capacity[l]
                state[l] = [r, n, r / n]
                heap.append((r / n, l))
        heapify(heap)
        out: Dict[int, float] = {}
        rounds = 0
        while heap:
            fair, l = heappop(heap)
            if state[l][2] != fair:
                continue  # superseded by a later re-key
            rounds += 1
            tied = [l]
            while heap and heap[0][0] == fair:
                l = heappop(heap)[1]
                if state[l][2] == fair:
                    tied.append(l)
            dec: Dict[int, int] = {}
            for t in tied:
                for c in link_classes[t]:
                    if c not in out:
                        out[c] = fair
                        m = live[c]
                        for l in class_links[c]:
                            dec[l] = dec.get(l, 0) + m
            for l, d in dec.items():
                st = state[l]
                r = st[0] - fair * d
                st[0] = r = r if r > 0.0 else 0.0
                n = st[1] = st[1] - d
                if n:
                    st[2] = r / n
                    heappush(heap, (st[2], l))
                else:
                    st[2] = -1.0  # saturated: matches no heap key
        return out, rounds


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
    and freeze its flows.  Flows with the same links form one path
    class, and :meth:`_PathClasses.fill` fills the classes; property-tested
    against the dict-loop oracle :func:`max_min_rates_reference`.
    """
    link_index, capacity = _index_links(flow_paths, link_capacity)
    fids = [fid for fid, links in flow_paths.items() if links]
    class_links, class_of = _path_classes(
        [link_index[l] for l in flow_paths[f]] for f in fids
    )
    table = _PathClasses(capacity.tolist(), class_links)
    for c in class_of:
        table.add(c)
    rates, _ = table.fill(range(len(link_index)))
    return {fid: rates[c] for fid, c in zip(fids, class_of)}


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
            fill rounds, and calendar traffic on it.
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
        """Route one flow of the pair per the path policy: the
        reference's draw, one ``rng.choice`` per WCMP flow."""
        options = self.routing.path_for(src, dst)
        if not options:
            return (src, dst)
        weights = _checked_weights(src, dst, options)
        if self.path_policy == "primary":
            return max(options, key=lambda pw: pw[1])[0]
        total = weights.sum()
        if total <= 0:
            return options[0][0]
        idx = int(self._path_rng.choice(len(options), p=weights / total))
        return options[idx][0]

    def _pair_route(
        self, src: int, dst: int
    ) -> Tuple[List[Tuple[int, ...]], Optional[List[float]]]:
        """Route the pair once for :meth:`run`: its candidate paths and,
        when its flows draw, the CDF each draw searches.

        ``Generator.choice(n, p=p)`` takes one ``random()`` ``u`` and
        returns ``cdf.searchsorted(u, side="right")`` with ``cdf =
        p.cumsum(); cdf /= cdf[-1]``; the CDF here is built with the
        same operations, so ``bisect_right(cdf, u)`` picks the option
        :meth:`_path_for` picks from the same ``u``.  A pair that does
        not draw (primary policy, no routed options, zero total weight)
        has one candidate and no CDF.
        """
        options = self.routing.path_for(src, dst)
        if not options:
            return [(src, dst)], None
        weights = _checked_weights(src, dst, options)
        if self.path_policy == "primary":
            return [max(options, key=lambda pw: pw[1])[0]], None
        total = weights.sum()
        if total <= 0:
            return [options[0][0]], None
        cdf = (weights / total).cumsum()
        cdf /= cdf[-1]
        return [p for p, _ in options], cdf.tolist()

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
    ) -> Tuple[List[Flow], List[int], List[Tuple[int, ...]], List[float]]:
        """Event-loop setup, routing each (src, dst) pair once.

        Returns the flows in arrival order, the path class of each, each
        class's link-index tuple, and each indexed link's capacity;
        classes and links are numbered in first appearance over the
        arrival-ordered flows, as :func:`_path_classes` and
        :func:`_index_links` number them.  The WCMP flows that draw take
        their draws in input order from one ``random(k)`` call -- the
        stream :meth:`_routed_paths` consumes with one ``choice`` per
        flow -- and the dark-link check runs once per distinct path,
        still naming the first offending flow in input order.
        """
        if not flows:
            raise ConfigurationError("need at least one flow")
        capacity = self._capacities()
        pair_index: Dict[Link, int] = {}
        flow_pair = [
            pair_index.setdefault((f.src, f.dst), len(pair_index)) for f in flows
        ]
        # Per pair: the ids of its candidate paths, and its CDF (or None).
        path_id: Dict[Tuple[int, ...], int] = {}
        pair_paths: List[List[int]] = []
        pair_cdf: List[Optional[List[float]]] = []
        for src, dst in pair_index:
            candidates, cdf = self._pair_route(src, dst)
            pair_paths.append(
                [path_id.setdefault(tuple(p), len(path_id)) for p in candidates]
            )
            pair_cdf.append(cdf)
        num_draws = sum(1 for p in flow_pair if pair_cdf[p] is not None)
        draws = iter(self._path_rng.random(num_draws).tolist() if num_draws else ())
        flow_path = [
            pair_paths[p][0]
            if pair_cdf[p] is None
            else pair_paths[p][bisect_right(pair_cdf[p], next(draws))]
            for p in flow_pair
        ]
        path_links = [_links_of(path) for path in path_id]
        dark: Dict[int, Link] = {}
        for i, links in enumerate(path_links):
            for link in links:
                if link not in capacity:
                    dark[i] = link
                    break
        if dark:
            for f, i in zip(flows, flow_path):
                if i in dark:
                    raise ConfigurationError(
                        f"flow {f.flow_id} routed over dark link {dark[i]}"
                    )
        order = sorted(range(len(flows)), key=lambda k: flows[k].arrival_s)
        class_index: Dict[int, int] = {}
        class_of = [
            class_index.setdefault(flow_path[k], len(class_index)) for k in order
        ]
        link_index: Dict[Link, int] = {}
        class_links = [
            tuple(
                link_index.setdefault(link, len(link_index))
                for link in path_links[i]
            )
            for i in class_index
        ]
        cap = [capacity[link] for link in link_index]
        return [flows[k] for k in order], class_of, class_links, cap

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

        - setup routes each (src, dst) pair once and takes the run's
          WCMP draws from one ``random(k)`` call, the stream the
          reference's per-flow ``choice`` consumes (:meth:`_prepare`);
        - flows are grouped into path classes, built once; the live
          count of each class, the live classes on each link, each
          class's rate, and each flow's remaining volume persist across
          events;
        - the remaining volumes live in a slab compacted by
          swap-remove, so a drain subtracts ``rate * elapsed`` from a
          contiguous prefix: the same rounded subtraction per flow as a
          gather/scatter over flow indices, and a removal copies a value
          exactly;
        - an arrival/departure walks the affected component over live
          classes -- never a flow that has finished or not yet arrived,
          so the cost tracks live work -- and re-runs progressive
          filling on it alone (max-min allocations decompose exactly
          over components, so this is bit-identical to a full per-event
          solve); every flow of a class drains at the class's rate;
        - each class keeps its live flows weakly sorted by remaining
          volume (arrivals are inserted by bisection; a drain subtracts
          the same rounded ``rate * elapsed`` from every flow of a
          class, which keeps the order), so its front flow finishes
          first;
        - projected completions live in a heap with one entry per
          positive-rate class, keyed by its front flow's absolute finish
          time and invalidated lazily by a per-class version (the key is
          invariant while the class's rate and front flow are
          unchanged); pops re-evaluate every class within an epsilon
          window of the top with the oracle's exact arithmetic, scanning
          each from the front, so the winning flow and its finish time
          are bit-identical to the per-event argmin of
          :meth:`run_reference`.

        ``rate_probe`` (if given) fires once per event iteration with
        the current allocation; the property suite uses it to pin
        the engine to :meth:`run_reference` at every event boundary.
        """
        ordered, class_py, class_links, cap = self._prepare(flows)
        num_flows = len(ordered)
        num_links = len(cap)
        arrivals_py = [f.arrival_s for f in ordered]
        table = _PathClasses(cap, class_links)
        live, link_classes = table.live, table.link_classes
        num_classes = len(class_links)
        class_rate = np.zeros(num_classes)
        class_version = [0] * num_classes
        # The live flows of each class, weakly sorted by remaining volume.
        # With the table's live classes per link, the walk never visits a
        # flow that has finished or not yet arrived.
        class_flows: List[List[int]] = [[] for _ in range(num_classes)]

        start = np.zeros(num_flows)
        # Calendar: (projected finish of the class's front flow, class,
        # class version) for every live positive-rate class.
        heap: List[Tuple[float, int, int]] = []
        # The active slab, compacted by swap-remove: slot p holds flow
        # act_idx[p], its class act_cls[p] and its remaining volume
        # remaining[p], so the drain works on the contiguous prefix;
        # act_pos maps a flow back to its slot.
        remaining = np.zeros(num_flows)
        act_idx = [0] * num_flows
        act_cls = np.empty(num_flows, dtype=np.intp)
        act_pos = [0] * num_flows
        # Scratch for the component walk, reset via touched lists.
        class_seen = bytearray(num_classes)
        link_seen = bytearray(num_links)

        obs = self._obs
        metrics = obs.metrics
        events_ctr = metrics.counter("flowsim.events")
        rounds_ctr = metrics.counter("flowsim.fill.rounds")
        stale_ctr = metrics.counter("flowsim.calendar.stale_pops")
        push_ctr = metrics.counter("flowsim.calendar.pushes")
        frontier_hist = metrics.histogram("flowsim.frontier.flows")
        dirty_hist = metrics.histogram("flowsim.dirty_fraction")

        cursor = 0
        num_active = 0
        now = 0.0
        records: List[FlowRecord] = []
        inf = float("inf")

        def component_from(c0: int) -> Tuple[List[int], int]:
            """Links and live flow count of the component reachable from
            class ``c0``'s links."""
            comp_links: List[int] = []
            comp: List[int] = []
            stack: List[int] = []
            for l in class_links[c0]:
                if not link_seen[l]:
                    link_seen[l] = 1
                    comp_links.append(l)
                    stack.append(l)
            size = 0
            while stack:
                for c in link_classes[stack.pop()]:
                    if class_seen[c]:
                        continue
                    class_seen[c] = 1
                    comp.append(c)
                    size += live[c]
                    for l2 in class_links[c]:
                        if not link_seen[l2]:
                            link_seen[l2] = 1
                            comp_links.append(l2)
                            stack.append(l2)
            for l in comp_links:
                link_seen[l] = 0
            for c in comp:
                class_seen[c] = 0
            return comp_links, size

        def reallocate(c0: int, rekey_c0: bool) -> None:
            """Refresh rates after a flow of class ``c0`` arrived or
            departed: fill the affected component and re-key the calendar
            for every class whose rate changed, and for ``c0`` when its
            front flow changed (``rekey_c0``)."""
            comp_links, size = component_from(c0)
            frontier_hist.observe(float(size))
            if num_active:
                dirty_hist.observe(size / num_active)
            if not size:
                return
            out, rounds = table.fill(comp_links)
            rounds_ctr.inc(rounds)
            pushes = len(heap)
            for c, r in out.items():
                if r != class_rate[c] or (rekey_c0 and c == c0):
                    class_rate[c] = r
                    class_version[c] += 1
                    if r > 0.0:
                        lead = act_pos[class_flows[c][0]]
                        heappush(
                            heap, (now + float(remaining[lead]) / r, c, class_version[c])
                        )
            push_ctr.inc(len(heap) - pushes)

        def next_finish() -> Optional[Tuple[float, int, int]]:
            """Earliest completion ``(time, flow, class)``, re-evaluated
            freshly.

            Pops every live class entry within the drift window of the
            top and scans each class from the front, recomputing
            ``now + remaining/rate`` (the oracle's formula on the
            eagerly-drained state) until a flow is later than the best so
            far; ties resolve to the lowest flow index, matching the
            reference argmin.  The other classes go back re-keyed by
            their front flow; the winner's class stays out, for the
            caller to re-key or push back."""
            while heap and heap[0][2] != class_version[heap[0][1]]:
                heappop(heap)
                stale_ctr.inc()
            if not heap:
                return None
            k0 = heap[0][0]
            mag = k0 if k0 > 1.0 else 1.0
            limit = k0 + _CALENDAR_REL_WINDOW * mag
            best_t, best_i, best_c = inf, -1, -1
            fresh: List[Tuple[float, int]] = []
            while heap and heap[0][0] <= limit:
                _, c, v = heappop(heap)
                if v != class_version[c]:
                    stale_ctr.inc()
                    continue
                r = float(class_rate[c])
                members = class_flows[c]
                fresh.append((now + float(remaining[act_pos[members[0]]]) / r, c))
                for i in members:
                    t = now + float(remaining[act_pos[i]]) / r
                    if t > best_t:
                        break
                    if t < best_t or i < best_i:
                        best_t, best_i, best_c = t, i, c
            for t, c in fresh:
                if c != best_c:
                    heappush(heap, (t, c, class_version[c]))
            push_ctr.inc(len(fresh) - 1)
            return best_t, best_i, best_c

        while cursor < num_flows or num_active > 0:
            events_ctr.inc()
            if rate_probe is not None:
                rate_probe(
                    now,
                    {
                        ordered[i].flow_id: float(class_rate[class_py[i]])
                        for i in act_idx[:num_active]
                    },
                )
            next_arrival = arrivals_py[cursor] if cursor < num_flows else inf
            nf = next_finish()
            if nf is None or next_arrival <= nf[0]:
                if nf is not None:
                    push_ctr.inc()
                    heappush(heap, (nf[0], nf[2], class_version[nf[2]]))
                if cursor >= num_flows:
                    raise ConfigurationError(
                        "deadlock: active flows with zero rate and no arrivals"
                    )
                if num_active:
                    remaining[:num_active] -= class_rate[act_cls[:num_active]] * (
                        next_arrival - now
                    )
                now = next_arrival
                i = cursor
                cursor += 1
                c = class_py[i]
                act_pos[i] = num_active
                act_idx[num_active] = i
                act_cls[num_active] = c
                remaining[num_active] = ordered[i].size_gbit
                num_active += 1
                start[i] = now
                members = class_flows[c]
                insort(members, i, key=lambda j: remaining[act_pos[j]])
                table.add(c)
                reallocate(c, members[0] == i)
            else:
                finish_t, w, c = nf
                remaining[:num_active] -= class_rate[act_cls[:num_active]] * (
                    finish_t - now
                )
                now = finish_t
                p = act_pos[w]
                num_active -= 1
                last = act_idx[num_active]
                act_idx[p] = last
                act_cls[p] = act_cls[num_active]
                remaining[p] = remaining[num_active]
                act_pos[last] = p
                class_flows[c].remove(w)
                table.remove(c)
                records.append(
                    FlowRecord(flow=ordered[w], start_s=float(start[w]), finish_s=now)
                )
                reallocate(c, True)
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
