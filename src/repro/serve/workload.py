"""Seeded open-loop tenant request streams for the serving layer.

Open-loop means arrivals do not wait for responses: the stream keeps
coming at its configured rate whatever the service's backlog looks like
-- exactly the regime admission control and load shedding exist for.

Determinism contract (the same discipline as
:meth:`repro.scheduler.requests.WorkloadGenerator.open_loop`): every
random quantity comes from its own child of one
``np.random.SeedSequence``, and exactly one sample per primary request
is drawn from each stream, in lockstep.  The first *k* requests of a
``generate(n)`` call are therefore identical for every ``n >= k``
(prefix stability), and two generators with equal seeds produce
byte-identical streams.

The mix spans the four tenant verbs of the serving layer; every
``SLICE_ALLOC`` is paired with a ``SLICE_RELEASE`` scheduled one
exponential holding time later (dropped if it would land after the
last primary arrival -- the service drains whatever is still held).
A configurable ``hot_tenant_share`` concentrates load on tenant 0 so
per-tenant fairness has something to push back on.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.errors import ConfigurationError
from repro.serve.requests import RequestKind, TenantRequest

#: Default request mix: telemetry-heavy, mutation-meaningful.
DEFAULT_MIX: Dict[RequestKind, float] = {
    RequestKind.TELEMETRY_QUERY: 0.55,
    RequestKind.TRAFFIC_UPDATE: 0.30,
    RequestKind.RECONFIGURE: 0.09,
    RequestKind.SLICE_ALLOC: 0.06,
}

#: Default per-kind deadlines (seconds after arrival).
DEFAULT_DEADLINES_S: Dict[RequestKind, float] = {
    RequestKind.TELEMETRY_QUERY: 0.40,
    RequestKind.TRAFFIC_UPDATE: 0.60,
    RequestKind.RECONFIGURE: 0.80,
    RequestKind.SLICE_ALLOC: 1.00,
    RequestKind.SLICE_RELEASE: 1.00,
}


@dataclass
class ServeWorkload:
    """Open-loop Poisson tenant-request stream (seeded, prefix-stable).

    Args:
        rate_per_s: mean primary-request arrival rate.
        num_tenants: tenant population; requests carry ``t-<i>`` ids.
        mix: {kind: weight} over the primary kinds (``SLICE_RELEASE``
            is derived, never drawn).
        deadlines_s: per-kind deadline offsets.
        hot_tenant_share: probability mass concentrated on tenant 0
            (the noisy neighbor); the rest is uniform over the others.
        slice_cubes: cube sizes a slice request may ask for.
        slice_hold_mean_s: mean slice holding time (exponential).
    """

    seed: int = 0
    rate_per_s: float = 1000.0
    num_tenants: int = 64
    mix: Dict[RequestKind, float] = field(default_factory=lambda: dict(DEFAULT_MIX))
    deadlines_s: Dict[RequestKind, float] = field(
        default_factory=lambda: dict(DEFAULT_DEADLINES_S)
    )
    hot_tenant_share: float = 0.2
    slice_cubes: Tuple[int, ...] = (1, 2, 4)
    slice_hold_mean_s: float = 2.0

    def __post_init__(self) -> None:
        if self.rate_per_s <= 0:
            raise ConfigurationError("arrival rate must be positive")
        if self.num_tenants < 1:
            raise ConfigurationError("need at least one tenant")
        if not self.mix or any(w < 0 for w in self.mix.values()):
            raise ConfigurationError("mix weights must be non-negative")
        if sum(self.mix.values()) <= 0:
            raise ConfigurationError("mix must have positive total weight")
        if RequestKind.SLICE_RELEASE in self.mix:
            raise ConfigurationError("SLICE_RELEASE is derived, not drawn")
        if not 0.0 <= self.hot_tenant_share < 1.0:
            raise ConfigurationError("hot_tenant_share must be in [0, 1)")
        for kind in set(self.mix) | {RequestKind.SLICE_RELEASE}:
            if self.deadlines_s.get(kind, 0.0) <= 0:
                raise ConfigurationError(f"deadline for {kind.value} must be positive")

    def _streams(self) -> Tuple[np.random.Generator, ...]:
        children = np.random.SeedSequence(self.seed).spawn(6)
        return tuple(np.random.default_rng(c) for c in children)

    def _kinds_and_weights(self) -> Tuple[List[RequestKind], np.ndarray]:
        kinds = sorted(self.mix, key=lambda k: k.value)
        weights = np.array([self.mix[k] for k in kinds], dtype=float)
        weights /= weights.sum()
        return kinds, weights

    def generate(self, num_requests: int) -> List[TenantRequest]:
        """The first ``num_requests`` primaries plus their derived
        releases, merged in arrival order with final seq numbers."""
        return list(self.stream(num_requests))

    def stream(self, num_requests: int) -> Iterator[TenantRequest]:
        """Lazy :meth:`generate`: same requests, same order, same seq
        numbers, without materializing the stream.

        Derived releases wait in a min-heap keyed by ``(arrival, order)``
        and are emitted as soon as the next primary would sort after
        them, so peak buffering is the number of outstanding slice holds
        (``~ rate x alloc share x mean hold``), not the stream length --
        this is what lets the 10^6-request drill start serving without
        pre-allocating a million :class:`TenantRequest` objects.
        """
        if num_requests <= 0:
            raise ConfigurationError("need at least one request")
        inter_rng, tenant_rng, kind_rng, bank_rng, cube_rng, hold_rng = self._streams()
        kinds, weights = self._kinds_and_weights()
        num_kinds = len(kinds)
        release_deadline = self.deadlines_s[RequestKind.SLICE_RELEASE]

        pending: List[Tuple[float, int, TenantRequest]] = []
        seq = 0
        t = 0.0
        for i in range(num_requests):
            # One draw per stream per primary, unconditionally: streams
            # stay in lockstep, so the prefix is stable in num_requests.
            t += float(inter_rng.exponential(1.0 / self.rate_per_s))
            hot = float(tenant_rng.uniform()) < self.hot_tenant_share
            tenant_idx = (
                0
                if hot or self.num_tenants == 1
                else 1 + int(tenant_rng.integers(self.num_tenants - 1))
            )
            kind = kinds[int(kind_rng.choice(num_kinds, p=weights))]
            bank = int(bank_rng.integers(2))
            cubes = int(self.slice_cubes[int(cube_rng.integers(len(self.slice_cubes)))])
            hold_s = float(hold_rng.exponential(self.slice_hold_mean_s))

            # A pending release older than this primary (by the merged
            # (arrival, order) sort key) can never be displaced: emit it.
            while pending and pending[0][:2] < (t, 2 * i):
                _, _, held = heapq.heappop(pending)
                yield TenantRequest(
                    request_id=held.request_id,
                    tenant=held.tenant,
                    kind=held.kind,
                    arrival_s=held.arrival_s,
                    deadline_s=held.deadline_s,
                    params=held.params,
                    seq=seq,
                )
                seq += 1

            request_id = f"rq-{i:06d}"
            tenant = f"t-{tenant_idx:03d}"
            params: Tuple[Tuple[str, object], ...]
            if kind in (RequestKind.TRAFFIC_UPDATE, RequestKind.RECONFIGURE):
                params = (("bank", bank),)
            elif kind is RequestKind.SLICE_ALLOC:
                params = (("cubes", cubes),)
            else:
                params = ()
            yield TenantRequest(
                request_id=request_id,
                tenant=tenant,
                kind=kind,
                arrival_s=t,
                deadline_s=t + self.deadlines_s[kind],
                params=params,  # type: ignore[arg-type]
                seq=seq,
            )
            seq += 1
            if kind is RequestKind.SLICE_ALLOC:
                release_t = t + hold_s
                heapq.heappush(
                    pending,
                    (
                        release_t,
                        2 * i + 1,
                        TenantRequest(
                            request_id=f"rl-{i:06d}",
                            tenant=tenant,
                            kind=RequestKind.SLICE_RELEASE,
                            arrival_s=release_t,
                            deadline_s=release_t + release_deadline,
                            params=(("slice", request_id),),
                        ),
                    ),
                )

        # Open-loop end: the horizon is the final *primary*'s arrival;
        # releases scheduled past it are dropped (the service drains
        # whatever is still held).
        horizon = t
        while pending:
            release_t, _, held = heapq.heappop(pending)
            if release_t > horizon:
                continue
            yield TenantRequest(
                request_id=held.request_id,
                tenant=held.tenant,
                kind=held.kind,
                arrival_s=held.arrival_s,
                deadline_s=held.deadline_s,
                params=held.params,
                seq=seq,
            )
            seq += 1

    def horizon_s(self, num_requests: int) -> float:
        """Arrival time of the final primary -- the fault-timeline and
        open-loop cutoff -- without generating any requests.

        Only the inter-arrival stream is consumed; ``np.cumsum`` over a
        vectorized draw is bit-identical to the sequential accumulation
        in :meth:`stream` (pinned in ``tests/serve/test_workload.py``).
        """
        if num_requests <= 0:
            raise ConfigurationError("need at least one request")
        inter_rng = self._streams()[0]
        draws = inter_rng.exponential(1.0 / self.rate_per_s, size=num_requests)
        return float(np.cumsum(draws)[-1])

    def columns(self, num_requests: int) -> Dict[str, np.ndarray]:
        """The merged stream as flat ndarrays (the shm-shippable form).

        Returns one row per emitted request, in seq order (row index ==
        seq), plus per-primary draw columns:

        - ``t``: arrival time per entry;
        - ``order``: ``2i`` for primary *i*, ``2i + 1`` for its release
          (so ``order >> 1`` recovers the primary index and ``order & 1``
          the release flag);
        - ``tenant_idx``, ``kind_code``, ``bank``, ``cubes``: indexed by
          *primary* index (length ``num_requests``); ``kind_code``
          indexes the value-sorted primary kinds.

        Every scalar draw in :meth:`stream` has a bit-identical
        vectorized counterpart (numpy Generators produce the same values
        batched or repeated), except the tenant stream, whose two draws
        interleave conditionally and are therefore replayed exactly.
        :func:`requests_from_columns` rebuilds byte-identical
        :class:`TenantRequest` objects from this form.
        """
        if num_requests <= 0:
            raise ConfigurationError("need at least one request")
        n = num_requests
        inter_rng, tenant_rng, kind_rng, bank_rng, cube_rng, hold_rng = self._streams()
        kinds, weights = self._kinds_and_weights()

        t = np.cumsum(inter_rng.exponential(1.0 / self.rate_per_s, size=n))
        tenant_idx = np.zeros(n, dtype=np.int64)
        if self.num_tenants == 1:
            tenant_rng.uniform(size=n)  # lockstep draws; everyone is t-000
        else:
            hot_share = self.hot_tenant_share
            spread = self.num_tenants - 1
            uniform = tenant_rng.uniform
            integers = tenant_rng.integers
            for i in range(n):
                # Not vectorizable: the integers draw happens only on
                # the cold branch, so the stream interleaves dynamically.
                if float(uniform()) >= hot_share:
                    tenant_idx[i] = 1 + int(integers(spread))
        kind_code = kind_rng.choice(len(kinds), p=weights, size=n)
        bank = bank_rng.integers(2, size=n)
        cubes = np.asarray(self.slice_cubes, dtype=np.int64)[
            cube_rng.integers(len(self.slice_cubes), size=n)
        ]
        hold = hold_rng.exponential(self.slice_hold_mean_s, size=n)

        alloc_code = (
            kinds.index(RequestKind.SLICE_ALLOC)
            if RequestKind.SLICE_ALLOC in kinds
            else -1
        )
        release_t = t + hold
        horizon = float(t[-1])
        keep = np.nonzero((kind_code == alloc_code) & (release_t <= horizon))[0]
        all_t = np.concatenate([t, release_t[keep]])
        all_order = np.concatenate([np.arange(n) * 2, keep * 2 + 1])
        perm = np.lexsort((all_order, all_t))
        return {
            "t": all_t[perm],
            "order": all_order[perm],
            "tenant_idx": tenant_idx,
            "kind_code": np.asarray(kind_code, dtype=np.int64),
            "bank": np.asarray(bank, dtype=np.int64),
            "cubes": cubes,
        }

    def iter_from_columns(
        self,
        cols: Dict[str, np.ndarray],
        chunk_rows: int = 65_536,
    ) -> Iterator[TenantRequest]:
        """Lazy request stream over :meth:`columns` output.

        Same requests and order as :meth:`stream`, but the draws come
        from the vectorized columns (~4x faster to produce) and at most
        ``chunk_rows`` :class:`TenantRequest` objects are materialized
        at a time -- the feed for the million-request streaming drill.
        """
        total = len(cols["t"])
        for start in range(0, total, chunk_rows):
            yield from self.requests_from_columns(
                cols, range(start, min(start + chunk_rows, total))
            )

    def requests_from_columns(
        self,
        cols: Dict[str, np.ndarray],
        rows: Optional[np.ndarray] = None,
    ) -> List[TenantRequest]:
        """Materialize :class:`TenantRequest` objects from :meth:`columns`.

        ``rows`` selects a subset of entry rows (one of
        :meth:`iter_from_columns`'s chunks); seq numbers stay *global*
        (the row index in the merged stream), so the chunks concatenate
        into exactly the whole stream.
        """
        kinds, _ = self._kinds_and_weights()
        t_col = cols["t"]
        order_col = cols["order"]
        tenant_col = cols["tenant_idx"]
        kind_col = cols["kind_code"]
        bank_col = cols["bank"]
        cubes_col = cols["cubes"]
        release_deadline = self.deadlines_s[RequestKind.SLICE_RELEASE]
        # Requests live until their run's report does, so every request
        # of a tenant shares one name string and equal params share one
        # tuple.
        tenant_names = [f"t-{k:03d}" for k in range(self.num_tenants)]
        bank_params = [(("bank", b),) for b in range(2)]
        cube_params = {c: (("cubes", c),) for c in self.slice_cubes}
        indices = range(len(t_col)) if rows is None else rows
        out: List[TenantRequest] = []
        for row in indices:
            order = int(order_col[row])
            i = order >> 1
            t = float(t_col[row])
            tenant = tenant_names[int(tenant_col[i])]
            if order & 1:
                out.append(
                    TenantRequest(
                        request_id=f"rl-{i:06d}",
                        tenant=tenant,
                        kind=RequestKind.SLICE_RELEASE,
                        arrival_s=t,
                        deadline_s=t + release_deadline,
                        params=(("slice", f"rq-{i:06d}"),),
                        seq=int(row),
                    )
                )
                continue
            kind = kinds[int(kind_col[i])]
            params: Tuple[Tuple[str, object], ...]
            if kind in (RequestKind.TRAFFIC_UPDATE, RequestKind.RECONFIGURE):
                params = bank_params[int(bank_col[i])]
            elif kind is RequestKind.SLICE_ALLOC:
                params = cube_params[int(cubes_col[i])]
            else:
                params = ()
            out.append(
                TenantRequest(
                    request_id=f"rq-{i:06d}",
                    tenant=tenant,
                    kind=kind,
                    arrival_s=t,
                    deadline_s=t + self.deadlines_s[kind],
                    params=params,  # type: ignore[arg-type]
                    seq=int(row),
                )
            )
        return out
