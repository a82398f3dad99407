"""Perf-regression harness: ratios only where the ratio is the claim.

Every case times an optimized path -- a vectorized kernel or a parallel
sweep -- against the independently derived oracle it replaced (the
scalar paths and serial sweeps are kept in-tree as numerical oracles)
on one pinned, figure-scale workload, checks numerical parity, and
reports ops/sec, wall time, and speedup.  Absolute host throughput of
the end-to-end layers is ``hostbench``'s job, not this suite's.

Entry points:

- ``python -m benchmarks.perf.run`` -- runs every case, writes
  ``BENCH_PERF.json`` at the repo root.
- ``python -m benchmarks.perf.run --check`` -- the same, and fails when
  any case's parity exceeds ``PARITY_RTOL`` (1e-12) or its speedup
  regresses more than 30% against the committed
  ``benchmarks/perf/baselines.json``.
- ``pytest benchmarks/perf`` -- the report and baseline-check plumbing.
"""

from benchmarks.perf.harness import (
    PARITY_RTOL,
    REGRESSION_TOLERANCE,
    check_against_baselines,
    run_suite,
    write_report,
)
from benchmarks.perf.cases import CASES, PerfCase

__all__ = [
    "CASES",
    "PARITY_RTOL",
    "PerfCase",
    "REGRESSION_TOLERANCE",
    "check_against_baselines",
    "run_suite",
    "write_report",
]
