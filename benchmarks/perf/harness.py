"""Timing, reporting, and baseline-regression logic for the perf suite."""

from __future__ import annotations

import gc
import json
import os
import resource
import sys
import timeit
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from benchmarks.perf.cases import CASES, PerfCase
from repro.obs import Observability

#: A case fails the regression check when its measured speedup drops more
#: than 30% below the committed baseline (speedup ratios are much more
#: stable across machines than absolute wall times).
REGRESSION_TOLERANCE = 0.30

#: The optimized-vs-oracle numerical contract: every case's result
#: matches its reference to 1e-12 relative, or the check fails.
PARITY_RTOL = 1e-12

_BASELINES_PATH = Path(__file__).resolve().parent / "baselines.json"
_REPORT_PATH = Path(__file__).resolve().parents[2] / "BENCH_PERF.json"


def timed_call(fn) -> Tuple[object, float]:
    """``(fn(), seconds)`` for one call, timed the way ``timeit`` times
    (``timeit.default_timer``, garbage collection off)."""
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = timeit.default_timer()
        result = fn()
        elapsed = timeit.default_timer() - t0
    finally:
        if gc_was_enabled:
            gc.enable()
    return result, elapsed


def measure_seconds(
    fn,
    repeats: int = 3,
    slow_threshold_s: float = 2.0,
    first_call_s: Optional[float] = None,
) -> float:
    """Best-of wall time per call.

    ``timeit.autorange`` calibrates an inner-loop count so sub-millisecond
    kernels are measured over >=0.2 s of work; slow reference paths (one
    call already above ``slow_threshold_s``) are not re-run.
    ``first_call_s`` is the time of one call the caller already made
    (see :func:`timed_call`): when it is at least the threshold it is the
    measurement -- exactly what a fresh single timed call would return --
    and ``fn`` is not called again.
    """
    if first_call_s is not None and first_call_s >= slow_threshold_s:
        return first_call_s
    timer = timeit.Timer(fn)
    number, total = timer.autorange()
    per_call = total / number
    if per_call >= slow_threshold_s:
        return per_call
    best = total
    for _ in range(repeats - 1):
        best = min(best, timer.timeit(number))
    return best / number


def peak_rss_mb() -> float:
    """Process-wide peak resident set size, in MB.

    ``ru_maxrss`` is a high-water mark, so per-case readings within one
    suite run are monotonic; a flat-memory case is one whose reading
    does not grow past the cases before it.
    """
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KB, macOS bytes.
    scale = 1e-6 if sys.platform == "darwin" else 1e-3
    return round(peak * scale, 3)


def run_case(case: PerfCase) -> Dict[str, object]:
    """Build, parity-check, and time one case.

    Each stage runs under a wall-clock span so the report entry carries a
    per-phase breakdown; the spans wrap the measurement loops from the
    outside and never touch the timed callables themselves.

    A case whose ``requires_cores`` exceeds this machine's core count is
    not run at all: a parallel speedup measured on too few cores is
    noise, and silently recording it would look like coverage.  The
    report instead carries an explicit ``skipped: insufficient_cores``
    record.
    """
    available = os.cpu_count() or 1
    if available < case.requires_cores:
        return {
            "case": case.name,
            "figure": case.figure,
            "skipped": "insufficient_cores",
            "requires_cores": case.requires_cores,
            "cpu_count": available,
        }
    obs = Observability.wall()
    with obs.tracer.span("perf.build", case=case.name):
        pair = case.build()
    with obs.tracer.span("perf.parity", case=case.name):
        vec_result, vec_first_s = timed_call(pair.vectorized)
        ref_result, ref_first_s = timed_call(pair.reference)
        max_rel_err = pair.parity(vec_result, ref_result)
    # A slow path's parity call already is its measurement; only the
    # fast ones are re-run under ``timeit``.
    with obs.tracer.span("perf.time_vectorized", case=case.name):
        vec_s = measure_seconds(pair.vectorized, first_call_s=vec_first_s)
    with obs.tracer.span("perf.time_reference", case=case.name):
        ref_s = measure_seconds(pair.reference, first_call_s=ref_first_s)
    # Normalized to seconds like every other *_s field in the report
    # (these were milliseconds through PR 9).
    phases_s = {
        span.name.removeprefix("perf."): round(span.duration_ms / 1e3, 6)
        for span in obs.tracer.spans()
    }
    return {
        "case": case.name,
        "figure": case.figure,
        "size": pair.size,
        "vectorized_s": vec_s,
        "reference_s": ref_s,
        "vectorized_ops_per_s": 1.0 / vec_s,
        "reference_ops_per_s": 1.0 / ref_s,
        "speedup": ref_s / vec_s,
        "parity_max_rel_err": max_rel_err,
        "requires_cores": case.requires_cores,
        "cpu_count": available,
        "peak_rss_mb": peak_rss_mb(),
        "phases_s": phases_s,
    }


def filter_cases(
    pattern: Optional[str], cases: Sequence[PerfCase] = CASES
) -> List[PerfCase]:
    """Cases whose name contains ``pattern`` (None/empty = all)."""
    if not pattern:
        return list(cases)
    return [case for case in cases if pattern in case.name]


def run_suite(
    cases: Sequence[PerfCase] = CASES, verbose: bool = True
) -> List[Dict[str, object]]:
    results = []
    for case in cases:
        if verbose:
            print(f"[perf] {case.name} ...", flush=True)
        result = run_case(case)
        if verbose:
            if result.get("skipped"):
                print(
                    f"[perf]   SKIPPED ({result['skipped']}): needs "
                    f"{result['requires_cores']} cores, have "
                    f"{result['cpu_count']}",
                    flush=True,
                )
            else:
                print(
                    f"[perf]   vec {result['vectorized_s']:.4f}s "
                    f"ref {result['reference_s']:.4f}s "
                    f"speedup {result['speedup']:.1f}x "
                    f"parity {result['parity_max_rel_err']:.2e}",
                    flush=True,
                )
        results.append(result)
    return results


def write_report(
    results: Sequence[Dict[str, object]], path: Optional[Path] = None
) -> Path:
    """Write the ``BENCH_PERF.json`` artifact."""
    out = path or _REPORT_PATH
    payload = {
        "suite": "benchmarks/perf",
        "regression_tolerance": REGRESSION_TOLERANCE,
        "results": list(results),
    }
    out.write_text(json.dumps(payload, indent=2) + "\n")
    return out


def load_baselines(path: Optional[Path] = None) -> Dict[str, float]:
    source = path or _BASELINES_PATH
    return json.loads(source.read_text())


def check_against_baselines(
    results: Sequence[Dict[str, object]],
    baselines: Optional[Dict[str, float]] = None,
) -> List[str]:
    """Check measured parity and speedups against the contract.

    Returns a list of human-readable failures (empty when everything
    holds).  A case fails when its result diverged from its oracle by
    more than :data:`PARITY_RTOL`, when its speedup fell more than
    :data:`REGRESSION_TOLERANCE` below its committed baseline, or when
    it has no baseline at all (new cases must be baselined when added).
    Results carrying an explicit ``skipped`` marker (``requires_cores``
    above this machine's core count) are exempt.
    """
    if baselines is None:
        baselines = load_baselines()
    failures = []
    for result in results:
        name = str(result["case"])
        if result.get("skipped"):
            continue
        parity = float(result["parity_max_rel_err"])
        if not parity <= PARITY_RTOL:
            failures.append(
                f"{name}: parity max rel err {parity:.2e} above {PARITY_RTOL:.0e}"
            )
        baseline = baselines.get(name)
        if baseline is None:
            failures.append(f"{name}: no baseline recorded")
            continue
        floor = baseline * (1.0 - REGRESSION_TOLERANCE)
        speedup = float(result["speedup"])
        if speedup < floor:
            failures.append(
                f"{name}: speedup {speedup:.2f}x below floor {floor:.2f}x "
                f"(baseline {baseline:.2f}x, tolerance {REGRESSION_TOLERANCE:.0%})"
            )
    return failures
