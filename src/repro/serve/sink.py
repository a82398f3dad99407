"""Record sinks: where the serving loop's terminal outcomes go.

The PR-6 loop held every :class:`~repro.serve.requests.RequestRecord`
in memory and re-sorted the list at the end -- fine at 10⁵ requests,
hopeless at the ROADMAP's 10⁶-across-thousands-of-tenants drill.  The
service now writes outcomes through a sink:

- :class:`FullRecordSink` keeps the PR-6 behavior (every record, sorted
  by seq at finalize) and is the default, so reports, JSONL exports,
  and every existing test see byte-identical results; at finalize it
  packs them into a column-wise :class:`RecordLog`, under a quarter of
  the memory of the record objects;
- :class:`StreamingRecordSink` keeps memory flat at any stream length:
  an *incremental* outcomes digest over a bounded seq-reorder window,
  per-outcome counts, and fine-grained latency histograms (the
  percentile substrate).

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
from array import array
from collections import deque
from dataclasses import dataclass
from itertools import accumulate, chain, islice
from typing import Deque, Dict, Iterator, List, Sequence, Tuple

import numpy as np

from repro.core.errors import ServeError
from repro.obs.metrics import Histogram, exponential_bounds
from repro.serve.queueing import ShedRecord
from repro.serve.requests import (
    KIND_VALUE,
    OUTCOME_VALUE,
    Outcome,
    RequestRecord,
    TenantRequest,
)

#: Latency histogram ladder for streaming percentile estimates: 4%
#: geometric steps from 10 µs to ~1.9e3 s, so a quantile read from the
#: bucket upper bound overstates the true latency by at most 4%.
LATENCY_BOUNDS_MS: Tuple[float, ...] = exponential_bounds(
    start=0.01, factor=1.04, count=490
)


class RecordLog(Sequence[RequestRecord]):
    """A finished run's terminal records, in arrival order, column-wise.

    A full-record report outlives its run (drills keep theirs to check
    and compare), and as objects one record costs ~330 B: the record,
    its request, three floats, the seq int and the id string.  Here the
    times, seqs and attempt counts sit unboxed in arrays, request ids in
    one packed string, and tenants, kinds, params, outcomes and details
    as codes into tables of their distinct values (~70 B a record).
    Iteration and indexing rebuild equal :class:`RequestRecord` values;
    :meth:`outcomes`, :meth:`rows`, :meth:`outcomes_digest` and
    :meth:`sorted_latencies_ms` read the columns directly.
    """

    __slots__ = ("_ids", "_id_ends", "_seq", "_arrival", "_deadline",
                 "_finish", "_attempts", "_tables", "_codes")

    #: ``_tables`` / ``_codes`` hold tenant, kind, params, outcome and
    #: detail, in that order.
    _OUTCOME = 3

    def __init__(self, records: Sequence[RequestRecord] = ()) -> None:
        requests = [r.request for r in records]
        ids = [q.request_id for q in requests]
        self._ids = "".join(ids)
        self._id_ends = array("I", accumulate(map(len, ids)))
        self._seq = array("q", [q.seq for q in requests])
        self._arrival = array("d", [q.arrival_s for q in requests])
        self._deadline = array("d", [q.deadline_s for q in requests])
        self._finish = array("d", [r.finish_s for r in records])
        self._attempts = array("q", [r.attempts for r in records])
        columns = (
            [q.tenant for q in requests],
            [q.kind for q in requests],
            [q.params for q in requests],
            [r.outcome for r in records],
            [r.detail for r in records],
        )
        tables: List[list] = []
        codes: List[array] = []
        for values in columns:
            # setdefault numbers each distinct value by first appearance,
            # so the dict's key order is the code -> value table.
            index: Dict[object, int] = {}
            codes.append(array("I", [index.setdefault(v, len(index)) for v in values]))
            tables.append(list(index))
        self._tables = tuple(tables)
        self._codes = tuple(codes)

    def __len__(self) -> int:
        return len(self._seq)

    def _rows(self, tenants, kinds, params, outcomes, details) -> Iterator[tuple]:
        """Each record's fields in log order (the :class:`TenantRequest`
        fields, then the :class:`RequestRecord` ones), with the coded
        columns decoded through the given tables."""
        tc, kc, pc, oc, dc = self._codes
        ids, ends = self._ids, self._id_ends
        return zip(
            (ids[start:end] for start, end in zip(chain((0,), ends), ends)),
            map(tenants.__getitem__, tc),
            map(kinds.__getitem__, kc),
            self._arrival,
            self._deadline,
            map(params.__getitem__, pc),
            self._seq,
            map(outcomes.__getitem__, oc),
            self._finish,
            self._attempts,
            map(details.__getitem__, dc),
        )

    def rows(self) -> Iterator[tuple]:
        """``(request_id, tenant, kind, arrival_s, deadline_s, params,
        seq, outcome, finish_s, attempts, detail)`` per record, in log
        order, without building record objects."""
        return self._rows(*self._tables)

    def __iter__(self) -> Iterator[RequestRecord]:
        for (request_id, tenant, kind, arrival_s, deadline_s, param, seq,
             outcome, finish_s, attempts, detail) in self.rows():
            yield RequestRecord(
                TenantRequest(
                    request_id, tenant, kind, arrival_s, deadline_s, param, seq
                ),
                outcome, finish_s, attempts, detail,
            )

    def __getitem__(self, i):
        # Walks the columns up to the index: callers iterate, they do
        # not index in loops.
        if isinstance(i, slice):
            return list(self)[i]
        return next(islice(self, range(len(self))[i], None))

    def outcomes(self) -> Iterator[Outcome]:
        """Each record's outcome, in order, without rebuilding records."""
        return map(self._tables[self._OUTCOME].__getitem__, self._codes[self._OUTCOME])

    def outcomes_digest(self) -> str:
        """:func:`~repro.serve.requests.outcomes_digest` of the records,
        hashed straight off the columns: each distinct kind, params and
        outcome is rendered once, and the lines go in ``(seq,
        request_id)`` order (the log is in seq order; equal seqs, such
        as hand-built requests' ``-1``, are reordered by id)."""
        tenants, kinds, params, outcomes, details = self._tables
        # Each line is ``RequestRecord.canonical()`` + newline, byte for
        # byte (the digest pins in tests/serve/test_fastpath.py hold it).
        lines = (
            f"{request_id}|{tenant}|{kind}|{arrival_s!r}|{deadline_s!r}|"
            f"{param}|{outcome}|{finish_s!r}|{attempts}|{detail}\n"
            for (request_id, tenant, kind, arrival_s, deadline_s, param, _,
                 outcome, finish_s, attempts, detail) in self._rows(
                tenants,
                [KIND_VALUE[k] for k in kinds],
                [",".join(f"{k}={v!r}" for k, v in p) for p in params],
                [OUTCOME_VALUE[o] for o in outcomes],
                details,
            )
        )
        seqs = self._seq
        if len(seqs) > 1 and not (np.diff(np.frombuffer(seqs, dtype="q")) > 0).all():
            ids = (row[0] for row in self.rows())
            keyed = sorted(zip(seqs, ids, range(len(seqs)), lines))
            lines = (line for *_, line in keyed)
        digest = hashlib.sha256()
        # Hash in blocks of lines: one encode per block, and no copy of
        # the whole table's text.
        for block in iter(lambda: "".join(islice(lines, 256)), ""):
            digest.update(block.encode("utf-8"))
        return digest.hexdigest()

    def sorted_latencies_ms(self, outcome: Outcome) -> List[float]:
        """Ascending ``(finish_s - arrival_s) * 1e3`` of the records that
        ended in ``outcome`` (what each record's ``latency_ms`` reads)."""
        table = self._tables[self._OUTCOME]
        if outcome not in table:
            return []
        codes = np.frombuffer(self._codes[self._OUTCOME], dtype="I")
        chosen = codes == table.index(outcome)
        finish = np.frombuffer(self._finish, dtype="d")[chosen]
        arrival = np.frombuffer(self._arrival, dtype="d")[chosen]
        return np.sort((finish - arrival) * 1e3, kind="stable").tolist()


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

    def finalize(self) -> RecordLog:
        # The report takes the packed log; the sink keeps it in place
        # of the record objects, so their memory goes with the run.
        self.records.sort(key=lambda r: r.request.seq)
        log = RecordLog(self.records)
        self.records = log  # type: ignore[assignment]
        self._terminal.clear()
        return log


@dataclass
class StreamAggregates:
    """What a :class:`StreamingRecordSink` distills a run down to."""

    outcome_counts: Dict[Outcome, int]
    outcomes_digest: str
    latency_hists: Dict[Outcome, Histogram]
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


class StreamingRecordSink:
    """Flat-memory aggregation of an arbitrarily long outcome stream.

    Requires workload-assigned seqs ``>= 0``, offered in strictly
    increasing order (the :class:`~repro.serve.workload.ServeWorkload`
    contract, and arrival order in :meth:`FabricService.run`), because
    the incremental digest orders by seq; the offered-but-unflushed seqs
    are then a FIFO.  ``seed`` is accepted and unused: the sink draws no
    randomness.
    """

    def __init__(self, seed: int = 0) -> None:
        del seed
        self._hash = hashlib.sha256()
        self._frontier: Deque[int] = deque()  # offered, unflushed seqs
        self._pending: Dict[int, bytes] = {}  # decided, awaiting flush
        self._counts: Dict[Outcome, int] = {o: 0 for o in Outcome}
        self._hists: Dict[Outcome, Histogram] = {}
        self._shed_count = 0
        self._total = 0
        self._last_offered = -1
        self.peak_pending = 0

    def offered(self, request: TenantRequest) -> None:
        seq = request.seq
        if seq <= self._last_offered:
            raise ServeError(
                "streaming sink needs workload-assigned, increasing seqs "
                f"(request {request.request_id} has seq {seq} after "
                f"{self._last_offered})"
            )
        self._last_offered = seq
        self._frontier.append(seq)

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
        # Flush the contiguous decided prefix: every seq older than the
        # frontier's head is already hashed, so whenever the head itself
        # is decided it (and any decided successors) can go.
        frontier = self._frontier
        update = self._hash.update
        while frontier and frontier[0] in pending:
            update(pending.pop(frontier.popleft()))

    def shed(self, shed: ShedRecord) -> None:
        del shed  # streaming mode keeps the count, not the objects
        self._shed_count += 1

    @property
    def total_recorded(self) -> int:
        return self._total

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
            shed_count=self._shed_count,
            peak_pending=self.peak_pending,
            total=self._total,
        )


__all__ = [
    "FullRecordSink",
    "LATENCY_BOUNDS_MS",
    "StreamAggregates",
    "StreamingRecordSink",
]
