"""Record sinks: where the serving loop's terminal outcomes go.

The PR-6 loop held every :class:`~repro.serve.requests.RequestRecord`
in memory and re-sorted the list at the end -- fine at 10⁵ requests,
hopeless at the ROADMAP's 10⁶-across-thousands-of-tenants drill.  The
service now writes outcomes through a sink:

- :class:`FullRecordSink` keeps the PR-6 behavior (every record, sorted
  by seq at finalize) and is the default, so reports, JSONL exports,
  and every existing test see byte-identical results;
- :class:`StreamingRecordSink` keeps memory flat at any stream length:
  an *incremental* outcomes digest over a bounded seq-reorder window,
  per-outcome counts, fine-grained latency histograms (the percentile
  substrate), and a seeded bounded reservoir of latency samples that can
  feed :mod:`repro.obs.timeseries` afterwards.

**Incremental digest.**  ``outcomes_digest`` hashes canonical outcome
lines sorted by ``(seq, request_id)``.  Outcomes are *decided* out of
order (queued work finishes late), but the set of seqs in flight at any
instant is bounded by queue capacity + one coalescing batch, so the
streaming sink holds only the canonical lines of decided-but-not-yet-
flushable seqs and hashes the contiguous prefix as soon as every older
seq is terminal.  The peak size of that reorder window is recorded
(``peak_pending``) and asserted flat by the property tests.

Both sinks enforce the partition invariant's "exactly one terminal
outcome" half, raising :class:`~repro.core.errors.ServeError` on a
second terminal for the same request.
"""

from __future__ import annotations

import hashlib
import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.core.errors import ConfigurationError, ServeError
from repro.obs.metrics import Histogram, exponential_bounds
from repro.serve.queueing import ShedRecord
from repro.serve.requests import Outcome, RequestRecord, TenantRequest

#: Latency histogram ladder for streaming percentile estimates: 4%
#: geometric steps from 10 µs to ~1.9e3 s, so a quantile read from the
#: bucket upper bound overstates the true latency by at most 4%.
LATENCY_BOUNDS_MS: Tuple[float, ...] = exponential_bounds(
    start=0.01, factor=1.04, count=490
)

#: Default reservoir size: enough samples for stable p99 estimates of a
#: drill-scale stream, small enough to be irrelevant at 10⁶ requests.
DEFAULT_RESERVOIR_SIZE = 4096


class FullRecordSink:
    """Hold every record in memory (the default, PR-6-equivalent)."""

    def __init__(self) -> None:
        self.records: List[RequestRecord] = []
        self.shed_records: List[ShedRecord] = []
        self._terminal: Dict[str, Outcome] = {}

    def offered(self, request: TenantRequest) -> None:
        del request  # arrival order is implied by the records themselves

    def record(self, record: RequestRecord) -> None:
        request_id = record.request.request_id
        seen = self._terminal.get(request_id)
        if seen is not None:
            raise ServeError(
                f"{request_id} reached a second terminal outcome "
                f"({seen.value} then {record.outcome.value})"
            )
        self._terminal[request_id] = record.outcome
        self.records.append(record)

    def shed(self, shed: ShedRecord) -> None:
        self.shed_records.append(shed)

    @property
    def total_recorded(self) -> int:
        return len(self.records)

    def finalize(self) -> List[RequestRecord]:
        # Sorted in place: the report takes this list, so the sink and
        # the report share one list instead of holding two.
        self.records.sort(key=lambda r: r.request.seq)
        return self.records


@dataclass
class StreamAggregates:
    """What a :class:`StreamingRecordSink` distills a run down to."""

    outcome_counts: Dict[Outcome, int]
    outcomes_digest: str
    latency_hists: Dict[Outcome, Histogram]
    #: Seeded reservoir of (finish_s, latency_ms, outcome value) samples
    #: -- the :mod:`repro.obs.timeseries` feed.
    samples: List[Tuple[float, float, str]] = field(default_factory=list)
    shed_count: int = 0
    peak_pending: int = 0
    total: int = 0

    def latency_percentile_ms(self, q: float, outcome: Outcome) -> float:
        """Histogram-estimated percentile (<=4% overstatement; exact for
        the empty case).  Streaming summaries quote this instead of the
        exact order statistic the full-record report computes."""
        hist = self.latency_hists.get(outcome)
        if hist is None or hist.count == 0:
            return 0.0
        return hist.quantile(q)

    def timeseries_rows(self) -> List[Dict[str, object]]:
        """Reservoir samples as JSONL-ready rows for the twin pipeline."""
        return [
            {"t_s": t, "latency_ms": lat, "outcome": outcome}
            for t, lat, outcome in self.samples
        ]


class StreamingRecordSink:
    """Flat-memory aggregation of an arbitrarily long outcome stream.

    Requires workload-assigned seqs: every offered request must carry a
    unique ``seq >= 0`` (the :class:`~repro.serve.workload.ServeWorkload`
    contract), because the incremental digest orders by seq.
    """

    def __init__(
        self, seed: int = 0, reservoir_size: int = DEFAULT_RESERVOIR_SIZE
    ) -> None:
        if reservoir_size < 1:
            raise ConfigurationError("reservoir size must be positive")
        self._hash = hashlib.sha256()
        self._frontier: List[int] = []  # offered seqs, min-heap
        self._pending: Dict[int, bytes] = {}  # decided, awaiting flush
        self._counts: Dict[Outcome, int] = {o: 0 for o in Outcome}
        self._hists: Dict[Outcome, Histogram] = {}
        self._rng = np.random.default_rng(seed)
        self._reservoir: List[Tuple[float, float, str]] = []
        self._reservoir_size = reservoir_size
        self._uniforms: np.ndarray = np.empty(0)
        self._uniform_index = 0
        self._seen = 0
        self._shed_count = 0
        self._total = 0
        self.peak_pending = 0

    def offered(self, request: TenantRequest) -> None:
        seq = request.seq
        if seq < 0:
            raise ServeError(
                "streaming sink needs workload-assigned seqs "
                f"(request {request.request_id} has seq {seq})"
            )
        heapq.heappush(self._frontier, seq)

    def record(self, record: RequestRecord) -> None:
        seq = record.request.seq
        pending = self._pending
        if seq in pending:
            raise ServeError(
                f"{record.request.request_id} reached a second terminal "
                f"outcome ({record.outcome.value})"
            )
        # The trailing newline is part of the hashed stream (see
        # ``outcomes_digest``); appending it here makes the flush a
        # single hash update per line.
        pending[seq] = (record.canonical() + "\n").encode("utf-8")
        if len(pending) > self.peak_pending:
            self.peak_pending = len(pending)
        self._total += 1
        outcome = record.outcome
        self._counts[outcome] += 1
        hist = self._hists.get(outcome)
        if hist is None:
            hist = self._hists[outcome] = Histogram(
                "serve.latency_ms",
                (("outcome", outcome.value),),
                bounds=LATENCY_BOUNDS_MS,
            )
        latency_ms = max(
            0.0, (record.finish_s - record.request.arrival_s) * 1e3
        )
        hist.observe(latency_ms)
        self._sample(record.finish_s, latency_ms, outcome)
        # Flush the contiguous decided prefix: every seq smaller than the
        # frontier minimum is already hashed, so whenever the minimum
        # itself is decided it (and any decided successors) can go.
        frontier = self._frontier
        update = self._hash.update
        while frontier and frontier[0] in pending:
            update(pending.pop(heapq.heappop(frontier)))

    def _sample(self, finish_s: float, latency_ms: float, outcome: Outcome) -> None:
        self._seen += 1
        entry = (finish_s, latency_ms, outcome.value)
        reservoir = self._reservoir
        if len(reservoir) < self._reservoir_size:
            reservoir.append(entry)
            return
        # Algorithm R with the randomness drawn in blocks: one vectorized
        # generator call per 4096 records instead of one scalar call per
        # record (the scalar path dominated the sink's profile).
        index = self._uniform_index
        uniforms = self._uniforms
        if index >= uniforms.shape[0]:
            uniforms = self._uniforms = self._rng.random(4096)
            index = 0
        self._uniform_index = index + 1
        slot = int(uniforms[index] * self._seen)
        if slot < self._reservoir_size:
            reservoir[slot] = entry

    def shed(self, shed: ShedRecord) -> None:
        del shed  # streaming mode keeps the count, not the objects
        self._shed_count += 1

    @property
    def total_recorded(self) -> int:
        return self._total

    @property
    def pending_count(self) -> int:
        """Current reorder-window size (bounded by requests in flight)."""
        return len(self._pending)

    def finalize(self) -> StreamAggregates:
        if self._frontier or self._pending:
            raise ServeError(
                f"{len(self._frontier)} offered request(s) never reached a "
                "terminal outcome (partition violated)"
            )
        return StreamAggregates(
            outcome_counts=dict(self._counts),
            outcomes_digest=self._hash.hexdigest(),
            latency_hists=dict(self._hists),
            samples=list(self._reservoir),
            shed_count=self._shed_count,
            peak_pending=self.peak_pending,
            total=self._total,
        )


__all__ = [
    "DEFAULT_RESERVOIR_SIZE",
    "FullRecordSink",
    "LATENCY_BOUNDS_MS",
    "StreamAggregates",
    "StreamingRecordSink",
]
