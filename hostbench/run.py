"""Host-throughput benchmark: four workloads, each isolating one layer.

Usage (from the repository root)::

    python3 hostbench/run.py --workload serve_storm --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off:
``units_per_s`` (median over the timed batches), ``setup_s`` (median
over repeated set-ups) and ``peak_rss_mb``.  ``--trace 1`` makes a
separate traced run that reports per-layer self time, call counts and
the program's own counters, plus the tracing overhead (half the time
untraced, half traced).  The last line of standard output is the JSON
result; the lines before it carry the result digest, the simulated
statistics (a fingerprint that a speed-only change must leave
bit-identical) and any failed units.  See ``hostbench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Set-ups per run: at least 3, and up to 7 while they total under a
#: second, so cheap set-ups get more samples; ``setup_s`` is their median.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 7, 1.0

END_TO_END = (
    ("units_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: The traced report: (metric, unit, better, source).  A source is
#: ``("self", spans)`` / ``("calls", spans)`` summed over span names,
#: or ``("count", key)`` from the workload's checked counters, the
#: recorder's maxima, or the run's own bookkeeping.
PER_LAYER: Tuple[Tuple[str, str, str, tuple], ...] = (
    ("serve.admission.calls", "count", "lower", ("calls", "serve.admission")),
    ("serve.admission.self_s", "s", "lower", ("self", "serve.admission")),
    ("serve.admission.refused_share", "share", "lower", ("count",)),
    ("serve.queueing.calls", "count", "lower", ("calls", "serve.queueing")),
    ("serve.queueing.self_s", "s", "lower", ("self", "serve.queueing")),
    ("serve.queueing.shed_share", "share", "lower", ("count",)),
    ("serve.queueing.depth_max", "count", "lower", ("count",)),
    ("serve.breaker.calls", "count", "lower", ("calls", "serve.breaker")),
    ("serve.breaker.self_s", "s", "lower", ("self", "serve.breaker")),
    ("serve.breaker.trips", "count", "lower", ("count",)),
    ("serve.retry.calls", "count", "lower", ("calls", "serve.retry")),
    ("serve.retry.self_s", "s", "lower", ("self", "serve.retry")),
    ("serve.retry.amplification", "ratio", "lower", ("count",)),
    ("serve.brownout.calls", "count", "lower", ("calls", "serve.brownout")),
    ("serve.brownout.self_s", "s", "lower", ("self", "serve.brownout")),
    ("serve.brownout.transitions", "count", "lower", ("count",)),
    ("serve.sink.calls", "count", "lower", ("calls", "serve.sink")),
    ("serve.sink.self_s", "s", "lower", ("self", "serve.sink")),
    ("serve.sink.peak_pending", "count", "lower", ("count",)),
    ("serve.workload.self_s", "s", "lower", ("self", "serve.workload")),
    ("serve.workload.rows", "count", "higher", ("count",)),
    ("serve.service.self_s", "s", "lower", ("self", "serve.service")),
    ("serve.service.telemetry_hit_share", "share", "higher", ("count",)),
    ("serve.replay.self_s", "s", "lower", ("self", "serve.replay")),
    ("serve.replay.commits", "count", "higher", ("count",)),
    ("faults.injector.calls", "count", "lower", ("calls", "faults.injector")),
    ("faults.injector.self_s", "s", "lower", ("self", "faults.injector")),
    ("faults.injector.events", "count", "higher", ("count",)),
    ("obs.metrics.calls", "count", "lower", ("calls", "obs.metrics")),
    ("obs.metrics.self_s", "s", "lower", ("self", "obs.metrics")),
    ("control.replication.calls", "count", "lower", ("calls", "control.replication")),
    ("control.replication.self_s", "s", "lower", ("self", "control.replication")),
    ("control.replication.elections", "count", "lower", ("count",)),
    ("control.replication.fencing_rejections", "count", "lower", ("count",)),
    ("control.replication.failovers", "count", "lower", ("count",)),
    ("core.fabric_manager.calls", "count", "lower", ("calls", "core.fabric_manager")),
    ("core.fabric_manager.self_s", "s", "lower", ("self", "core.fabric_manager")),
    ("dcn.flowsim.self_s", "s", "lower", ("self", "dcn.flowsim")),
    ("dcn.flowsim.events", "count", "higher", ("count",)),
    ("dcn.flowsim.fallbacks", "count", "lower", ("count",)),
    ("dcn.flowsim.fallback_share", "share", "lower", ("count",)),
    ("dcn.flowsim.calendar_pushes", "count", "lower", ("count",)),
    ("dcn.flowsim.stale_share", "share", "lower", ("count",)),
    ("dcn.flowsim.frontier_flows_p50", "count", "lower", ("count",)),
    ("dcn.flowsim.frontier_flows_p99", "count", "lower", ("count",)),
    ("dcn.flowsim.generate_s", "s", "lower", ("self", "dcn.flowsim.generate")),
    ("dcn.topology_engineering.self_s", "s", "lower", ("self", "dcn.topology_engineering")),
    ("dcn.traffic_engineering.self_s", "s", "lower", ("self", "dcn.traffic_engineering")),
    ("parallel.engine.calls", "count", "lower", ("calls", "parallel.engine")),
    ("parallel.engine.self_s", "s", "lower", ("self", "parallel.engine")),
    ("parallel.engine.wait_s", "s", "lower", ("self", "parallel.engine.wait")),
    ("parallel.engine.chunks", "count", "lower", ("count",)),
    ("parallel.engine.chunk_ms_p50", "ms", "lower", ("count",)),
    ("parallel.engine.chunk_ms_p99", "ms", "lower", ("count",)),
    ("parallel.cache.get_calls", "count", "lower", ("calls", "parallel.cache.get")),
    ("parallel.cache.put_calls", "count", "lower", ("calls", "parallel.cache.put")),
    (
        "parallel.cache.self_s", "s", "lower",
        ("self", "parallel.cache.get", "parallel.cache.put", "parallel.cache.key"),
    ),
    ("parallel.cache.hit_share", "share", "higher", ("count",)),
    ("parallel.cache.bytes", "B", "lower", ("count",)),
    ("parallel.shm.arenas", "count", "lower", ("calls", "parallel.shm")),
    ("parallel.shm.bytes", "B", "lower", ("count",)),
    ("parallel.shm.self_s", "s", "lower", ("self", "parallel.shm")),
    ("optics.mc_sweep.self_s", "s", "lower", ("self", "optics.mc_sweep")),
    ("optics.mc_sweep.task_s", "s", "lower", ("count",)),
    ("availability.montecarlo.self_s", "s", "lower", ("self", "availability.montecarlo")),
    ("availability.montecarlo.task_s", "s", "lower", ("count",)),
    ("bench.residual_s", "s", "lower", ("self", "bench.setup", "bench.batch", "bench.check")),
    ("bench.traced_wall_s", "s", "lower", ("count",)),
    ("bench.accounted_share", "share", "higher", ("count",)),
    ("bench.traced_units_per_s", "1/s", "higher", ("count",)),
    ("bench.untraced_units_per_s", "1/s", "higher", ("count",)),
    ("bench.trace_overhead", "ratio", "lower", ("count",)),
    ("bench.fail_share", "share", "lower", ("count",)),
    ("bench.spans_dropped", "count", "lower", ("count",)),
)


def _patch_targets() -> list:
    """Every class-level call site the program makes into a layer.

    Only entry points: calls a layer makes to itself nest inside the
    outer span, calls it makes into another layer open that layer's own
    span, so self time lands with the layer that spent it.
    """
    import multiprocessing.pool

    from repro.control.replication import ReplicationGroup
    from repro.core.fabric_manager import FabricManager
    from repro.faults.injector import FaultInjector
    from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry, SeriesFamily
    from repro.parallel import ResultCache, SweepEngine
    from repro.parallel.shm import ShmArena
    from repro.serve import (
        BoundedPriorityQueue,
        BrownoutController,
        CircuitBreaker,
        FabricService,
        FairAdmission,
        FullRecordSink,
        RetryBudget,
        ServeWorkload,
        StreamingRecordSink,
    )

    def depth(recorder, queue) -> None:
        recorder.note_max("serve.queueing.depth_max", len(queue))

    table = [
        (FairAdmission, ("admit",), "serve.admission"),
        (BoundedPriorityQueue, ("pop",), "serve.queueing"),
        (CircuitBreaker, ("allow", "state", "record_success", "record_failure", "reset"),
         "serve.breaker"),
        (RetryBudget, ("deposit", "try_spend"), "serve.retry"),
        (BrownoutController, ("observe",), "serve.brownout"),
        (StreamingRecordSink, ("offered", "record", "shed", "finalize"), "serve.sink"),
        (FullRecordSink, ("offered", "record", "shed", "finalize"), "serve.sink"),
        (ServeWorkload, ("generate", "columns", "requests_from_columns"), "serve.workload"),
        (FabricService, ("run",), "serve.service"),
        (FaultInjector, ("advance_to",), "faults.injector"),
        (Counter, ("inc", "add"), "obs.metrics"),
        (Gauge, ("set", "add"), "obs.metrics"),
        (Histogram, ("observe",), "obs.metrics"),
        (SeriesFamily, ("series",), "obs.metrics"),
        (MetricsRegistry, ("counter", "gauge", "histogram", "handle", "family"), "obs.metrics"),
        (
            ReplicationGroup,
            (
                "elect", "submit", "submit_as", "heartbeat", "live_manager",
                "leader_serviceable", "client_reachable", "note_outage",
                "finalize_outage", "committed_ops_lost", "state_digest",
                "replay_digest", "attach_faults",
                # Fault callbacks the group subscribes to the injector.
                "_on_crash", "_on_partition", "_on_skew",
            ),
            "control.replication",
        ),
        (
            FabricManager,
            tuple(
                name for name, value in vars(FabricManager).items()
                if callable(value) and not name.startswith("_")
            ),
            "core.fabric_manager",
        ),
        (SweepEngine, ("pmap",), "parallel.engine"),
        (multiprocessing.pool.IMapIterator, ("next", "__next__"), "parallel.engine.wait"),
        (ResultCache, ("get",), "parallel.cache.get"),
        (ResultCache, ("put",), "parallel.cache.put"),
        (ResultCache, ("key",), "parallel.cache.key"),
        (ShmArena, ("pack",), "parallel.shm"),
    ]
    targets = [(BoundedPriorityQueue, "push", "serve.queueing", depth)]
    for owner, attrs, name in table:
        targets.extend((owner, attr, name, None) for attr in attrs)
    return targets


def _peak_rss_mb() -> float:
    """Peak resident set of this process or any finished child, in MB."""
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak_kb / 1024.0


class _Measured:
    """Bookkeeping for one phase of timed batches."""

    def __init__(self) -> None:
        self.seconds: List[float] = []
        self.rates: List[float] = []
        self.checked: list = []
        self.attempted = 0
        self.failed = 0
        self.wall_s = 0.0


def _measure(workload, state, seconds: float, rec) -> _Measured:
    """Timed batches until ``seconds`` of timed work have run, to within
    half a batch (at least one batch).  Every batch is checked outside
    the timed region; with a live recorder, batch and check each run
    under their own root span."""
    out = _Measured()
    while not out.seconds or sum(out.seconds) + out.seconds[-1] / 2 < seconds:
        ctx = workload.prepare(state)
        gc.collect()
        rec.start_phase("batch")
        start = time.perf_counter()
        with rec.span("bench.batch"):
            batch = workload.run(state, ctx, rec)
        elapsed = time.perf_counter() - start
        rec.start_phase("check")
        with rec.span("bench.check"):
            checked = workload.check(state, batch, rec)
        out.wall_s += time.perf_counter() - start
        workload.release(ctx)
        rec.next_batch()
        out.seconds.append(elapsed)
        out.rates.append(batch.units / elapsed)
        out.checked.append(checked)
        out.attempted += batch.attempted
        out.failed += checked.failed
    return out


def _per_layer(rec, setup_s: List[float], plain: _Measured, traced: _Measured) -> Dict:
    """Per-layer metrics: span totals per set-up plus per batch (check
    included), the workload's counters, and the run's accounting."""
    phases = [
        (rec.totals("setup"), len(setup_s)),
        (rec.totals("batch"), len(traced.seconds)),
        (rec.totals("check"), len(traced.seconds)),
    ]

    def summed(kind: str, names) -> float:
        idx = 0 if kind == "calls" else 1
        return sum(
            sum(totals.get(name, (0, 0.0))[idx] for name in names) / n
            for totals, n in phases
        )

    wall_s = sum(setup_s) / len(setup_s) + traced.wall_s / len(traced.seconds)
    untraced = statistics.median(plain.rates)
    with_spans = statistics.median(traced.rates)
    values = dict(traced.checked[0].counts)
    values.update(rec.maxima)
    listed_self = sum(
        summed("self", source[1:]) for _, _, _, source in PER_LAYER if source[0] == "self"
    )
    values.update(
        {
            "bench.traced_wall_s": wall_s,
            "bench.accounted_share": listed_self / wall_s,
            "bench.traced_units_per_s": with_spans,
            "bench.untraced_units_per_s": untraced,
            "bench.trace_overhead": untraced / with_spans - 1.0,
            "bench.fail_share": traced.failed / traced.attempted,
            "bench.spans_dropped": rec.dropped,
        }
    )
    out = {}
    for name, unit, _, source in PER_LAYER:
        if source[0] == "count":
            value = float(values.get(name, 0.0))
        else:
            value = float(summed(source[0], source[1:]))
        out[name] = {"value": value, "unit": unit}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: program sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import tracing
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(
            f"error: unknown workload {args.workload!r}; "
            f"choose from {sorted(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2

    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-pid{os.getpid()}"
    work_dir = HERE / "_work" / run_id
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        result = _run(
            args, workload, tracing, run_id, work_dir,
            HERE / "_traces" / f"{args.workload}.npz",
        )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def _run(args, workload, tracing, run_id: str, work_dir: Path, trace_path: Path) -> Dict:
    """One run: set-ups, warm-up, timed batches, checks, the result."""
    rec = tracing.SpanRecorder(run_id) if args.trace else tracing.NULL_RECORDER
    targets = _patch_targets() if args.trace else []

    setup_s: List[float] = []
    while len(setup_s) < SETUP_MIN or (
        len(setup_s) < SETUP_MAX and sum(setup_s) < SETUP_BUDGET_S
    ):
        gc.collect()
        rec.start_phase("setup")
        start = time.perf_counter()
        with rec.patched(targets), rec.span("bench.setup"):
            state = workload.setup(args.seed, work_dir, rec)
        setup_s.append(time.perf_counter() - start)
    workload.warm(state)

    if args.trace:
        plain = _measure(workload, state, args.seconds / 2, tracing.NULL_RECORDER)
        with rec.patched(targets):
            measured = _measure(workload, state, args.seconds / 2, rec)
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        rec.dump(trace_path)
    else:
        plain = measured = _measure(workload, state, args.seconds, rec)

    checked = plain.checked + measured.checked if args.trace else measured.checked
    first = checked[0]
    problems = [p for c in checked for p in c.problems]
    digests = sorted({c.digest for c in checked})
    if len(digests) != 1:
        problems.append(f"result digest differs between batches: {digests}")

    print(
        f"workload {args.workload} seed {args.seed} trace {args.trace}: "
        f"{len(measured.seconds)} timed batches, "
        f"{measured.attempted // len(measured.seconds)} units attempted per batch, "
        f"{measured.failed // len(measured.seconds)} failed"
    )
    print(f"result_digest {first.digest}")
    print("fingerprint " + json.dumps(first.fingerprint, sort_keys=True))
    for failure in first.failures:
        print(f"failed: {failure}")
    for problem in problems:
        print(f"problem: {problem}")

    if args.trace:
        metrics = _per_layer(rec, setup_s, plain, measured)
    else:
        values = {
            "units_per_s": statistics.median(measured.rates),
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": _peak_rss_mb(),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return {
        "correct": not problems,
        "attempted": measured.attempted,
        "failed": measured.failed,
        "metrics": metrics,
    }


if __name__ == "__main__":
    sys.exit(main())
