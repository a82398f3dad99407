"""The predictive digital twin: forecasting and what-if SLO planning.

Mission Apollo's deployment experience (PAPERS.md) is blunt about what
operating an OCS fleet at scale actually is: trend-watching and
pre-commit what-if analysis.  This package closes that loop on top of
the streaming time-series layer (:mod:`repro.obs.timeseries`):

- :mod:`repro.twin.timeline` records a **fleet timeline** from a
  serving/failover drill -- time-bucketed offered/ok/shed/latency/
  brownout series plus the replay parameters needed to reconstruct the
  run -- as a JSONL artifact with a byte-stable digest;
- :mod:`repro.twin.forecast` trains lightweight availability/failure
  forecasters (time-weighted EWMA and a seeded logistic model, no heavy
  deps) on chaos-ensemble output and scores them against the naive
  last-value predictor on held-out members;
- :mod:`repro.twin.planner` replays a recorded timeline against a
  proposed :class:`~repro.twin.planner.TwinPolicy` (brownout pin,
  admission scaling, quarantine hold-out, controller replication) and
  reports predicted SLO deltas *before* ``DurableController`` /
  ``ReplicationGroup`` commits the change;
- :mod:`repro.twin.drill` is the end-to-end twin drill behind
  ``python -m repro.tools.noc twin`` and its ``drills`` CI matrix entry.

Everything is sim-clocked and seeded: evaluating the same recorded
timeline against the same policy twice yields byte-identical
predicted-SLO reports (the digest-pinned acceptance test).
"""

from repro.twin.forecast import (
    ForecastEvaluation,
    LogisticForecaster,
    train_availability_forecaster,
)
from repro.twin.planner import PlanReport, TwinPolicy, WhatIfPlanner
from repro.twin.timeline import FleetTimeline, record_fleet_timeline

__all__ = [
    "FleetTimeline",
    "ForecastEvaluation",
    "LogisticForecaster",
    "PlanReport",
    "TwinPolicy",
    "WhatIfPlanner",
    "record_fleet_timeline",
    "train_availability_forecaster",
]
