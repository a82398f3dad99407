"""The overload-robust fabric serving layer (admission, backpressure,
retry budgets, circuit breaking, graceful brownout).

Entry points:

- :class:`~repro.serve.service.FabricService` -- the deterministic
  serving loop (see its module docstring for the defense pipeline);
- :class:`~repro.serve.workload.ServeWorkload` -- seeded open-loop
  tenant request streams;
- :func:`~repro.serve.drill.run_serve_drill` -- the overload-burst
  drill behind ``python -m repro.tools.noc serve`` and the NOC report's
  serve phase (``streaming=True`` swaps the
  per-record report for a :class:`~repro.serve.sink.StreamingRecordSink`
  roll-up, flat in memory at 10^6 requests);
- :func:`~repro.serve.drill.run_failover_drill` -- the replicated
  control plane (``num_controller_replicas > 1``) riding out a rolling
  crash / partition / clock-skew storm via lease-based failover
  (``python -m repro.tools.noc failover``).
"""

from repro.serve.admission import FairAdmission, TokenBucket
from repro.serve.breaker import BreakerState, CircuitBreaker
from repro.serve.brownout import BrownoutController
from repro.serve.drill import (
    build_failover_timeline,
    drill_config,
    failover_slos,
    run_failover_drill,
    run_serve_drill,
)
from repro.serve.queueing import BoundedPriorityQueue, ShedRecord
from repro.serve.requests import (
    ADMITTED_OUTCOMES,
    Outcome,
    RequestKind,
    RequestRecord,
    TenantRequest,
    outcomes_digest,
)
from repro.serve.retry import RetryBudget
from repro.serve.service import (
    CommitEntry,
    FabricService,
    ServeConfig,
    ServeReport,
    build_serve_manager,
    replay_committed,
)
from repro.serve.sink import FullRecordSink, StreamAggregates, StreamingRecordSink
from repro.serve.workload import ServeWorkload

__all__ = [
    "ADMITTED_OUTCOMES",
    "BoundedPriorityQueue",
    "BreakerState",
    "BrownoutController",
    "CircuitBreaker",
    "CommitEntry",
    "FabricService",
    "FairAdmission",
    "FullRecordSink",
    "Outcome",
    "RequestKind",
    "RequestRecord",
    "RetryBudget",
    "ServeConfig",
    "ServeReport",
    "ServeWorkload",
    "ShedRecord",
    "StreamAggregates",
    "StreamingRecordSink",
    "TenantRequest",
    "TokenBucket",
    "build_failover_timeline",
    "build_serve_manager",
    "drill_config",
    "failover_slos",
    "outcomes_digest",
    "replay_committed",
    "run_failover_drill",
    "run_serve_drill",
]
