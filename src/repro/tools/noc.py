"""Fleet NOC: the one operator entry point for every observed drill.

``python -m repro.tools.noc [DRILL] [--seed N] [--smoke] [--check]
[--thresholds PATH] [--out-dir DIR]`` runs one seeded drill and renders
what a network operations center would watch, with an SLO section
checked against the committed thresholds in
``benchmarks/slo_thresholds.json``:

- ``fabric`` (the default) -- the observed fabric drill
  (:func:`repro.obs.drill.run_fabric_drill`): metric snapshot, slowest
  spans, per-OCS telemetry, quarantine state; gates every SLO;
- ``serve`` -- the overload-burst serving drill
  (:func:`repro.serve.drill.run_serve_drill`); gates ``serve_*``;
- ``failover`` -- the replicated-control-plane partition storm
  (:func:`repro.serve.drill.run_failover_drill`); gates ``failover_*``
  and ``committed_ops_lost``;
- ``twin`` -- the predictive digital twin
  (:func:`repro.twin.drill.run_twin_drill`): forecast scorecard and
  per-policy predicted SLO deltas; gates ``twin_*``.

A drill gates exactly the thresholds its SLO function reports.  A
missing thresholds file, or one naming an SLO no drill reports, is a
usage error (exit 2).  With ``--check`` an SLO regression exits 1, and
``--check --smoke`` also runs the drill a second time and exits 1 unless
both summaries are equal.  ``--out-dir DIR`` writes
``DIR/<drill>-summary.json`` and one ``DIR/<drill>-<stream>.jsonl`` per
artifact stream (fabric: ``trace``, ``metrics``; serve and failover:
``requests``; twin: ``timeline``, ``plans``, ``aggregates``).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.analysis.tables import render_table
from repro.obs import Observability
from repro.obs.drill import DrillReport, run_fabric_drill
from repro.obs.export import export_metrics, export_trace, write_jsonl
from repro.serve.drill import (
    drill_slos,
    failover_slos,
    report_jsonl_lines,
    run_failover_drill,
    run_serve_drill,
)
from repro.twin.drill import run_twin_drill, twin_slos

#: Default location of the committed SLO thresholds (repo root relative).
DEFAULT_THRESHOLDS = Path(__file__).resolve().parents[3] / "benchmarks" / "slo_thresholds.json"

#: (slo, value, max allowed, ok) -- one row per gated threshold.
SloRows = List[Tuple[str, float, float, bool]]


def _split_series(series: str) -> Tuple[str, Dict[str, str]]:
    """``name{k=v,...}`` -> (name, labels)."""
    if "{" not in series:
        return series, {}
    name, _, rest = series.partition("{")
    labels = dict(pair.split("=", 1) for pair in rest.rstrip("}").split(","))
    return name, labels


def compute_slos(report: DrillReport) -> Dict[str, float]:
    """The headline SLOs, straight off the drill's registry."""
    registry = report.obs.metrics
    loss_obs = registry.sum_counters("ocs.loss.observations")
    anomalies = registry.sum_counters("ocs.anomaly.fired")
    hits = registry.sum_counters("sweep.cache.hits")
    misses = registry.sum_counters("sweep.cache.misses")
    lookups = hits + misses
    serve_offered = registry.sum_counters("serve.outcomes")
    serve_shed = registry.sum_counters("serve.outcomes", outcome="shed")
    serve_attempts = registry.sum_counters("serve.attempts")
    serve_deposits = registry.sum_counters("serve.retry.deposits")
    return {
        "reconfig_p99_ms": registry.histogram("fabric.plan.duration_ms").quantile(0.99),
        "recovery_p99_ms": registry.histogram("control.recover.duration_ms").quantile(0.99),
        "ber_anomaly_rate": anomalies / loss_obs if loss_obs else 0.0,
        "sweep_cache_miss_rate": misses / lookups if lookups else 0.0,
        "sweep_chunk_p99_ms": registry.histogram("sweep.chunk.duration_ms").quantile(0.99),
        "serve_p99_ms": registry.histogram("serve.latency_ms", outcome="ok").quantile(0.99),
        "serve_shed_rate": serve_shed / serve_offered if serve_offered else 0.0,
        "serve_retry_amplification": (
            serve_attempts / serve_deposits if serve_deposits else 0.0
        ),
        # Replicated-control-plane HA (published by the failover drill).
        "failover_p99_s": registry.value("serve.failover.p99_s"),
        "committed_ops_lost": registry.value("serve.failover.committed_ops_lost"),
        "failover_unavailability": registry.value("serve.failover.unavailability"),
        # Digital twin (published by the twin drill phase): forecast
        # coverage gated as a miss rate, forecast skill gated as
        # model-minus-naive MAE (<= 0 means the forecaster earns its
        # keep), and what-if replay divergence (must be exactly 0).
        "twin_forecast_miss_rate": registry.value("twin.forecast.miss_rate"),
        "twin_forecast_mae_excess": registry.value("twin.forecast.mae_excess"),
        "twin_plan_divergence": registry.value("twin.plan.divergence"),
    }


def check_slos(slos: Dict[str, float], thresholds: Dict[str, float]) -> SloRows:
    """(slo, value, max allowed, ok) per threshold; unknown SLOs fail."""
    rows = []
    for name in sorted(thresholds):
        limit = float(thresholds[name])
        value = slos.get(name)
        rows.append((name, value if value is not None else float("nan"),
                     limit, value is not None and value <= limit))
    return rows


def _section(title: str) -> None:
    print()
    print(f"== {title} " + "=" * max(0, 60 - len(title)))


def _slo_section(title: str, slo_rows: SloRows) -> None:
    _section(title)
    print(render_table(
        ["slo", "value", "max allowed", "status"],
        [[name, f"{value:.4f}", f"{limit:.4f}", "ok" if ok else "REGRESSED"]
         for name, value, limit, ok in slo_rows],
    ))


def render_report(report: DrillReport, slo_rows: SloRows, top: int = 10) -> None:
    tracer, registry = report.obs.tracer, report.obs.metrics
    trace_digest, metrics_digest = report.digests()
    print(f"FLEET NOC REPORT  seed={report.seed}"
          f"  mode={'smoke' if report.smoke else 'full'}")
    print(f"spans={tracer.num_spans}  series={registry.num_series}"
          f"  clock={report.obs.clock.now():.1f} ms")
    print(f"trace digest   {trace_digest}")
    print(f"metrics digest {metrics_digest}")

    _slo_section("SLOs", slo_rows)

    _section(f"Slowest spans (top {top})")
    print(render_table(
        ["span", "duration (ms)", "start (ms)", "attrs"],
        [[s.name, f"{s.duration_ms:.1f}", f"{s.start_ms:.1f}",
          ",".join(f"{k}={v}" for k, v in s.attrs) or "-"]
         for s in tracer.slowest(top)],
    ))

    _section("Per-OCS telemetry")
    per_ocs: Dict[str, Dict[str, float]] = {}
    for record in registry.to_records():
        if record["type"] != "counter":
            continue
        name, labels = _split_series(str(record["series"]))
        ocs = labels.get("ocs")
        if ocs is None or not name.startswith("ocs."):
            continue
        per_ocs.setdefault(ocs, {})
        per_ocs[ocs][name] = per_ocs[ocs].get(name, 0.0) + float(record["value"])
    print(render_table(
        ["ocs", "connects", "reconfigs", "disturbed", "loss obs", "anomalies"],
        [[ocs,
          f"{row.get('ocs.circuit.connect', 0):.0f}",
          f"{row.get('ocs.reconfig.transactions', 0):.0f}",
          f"{row.get('ocs.reconfig.circuits_disturbed', 0):.0f}",
          f"{row.get('ocs.loss.observations', 0):.0f}",
          f"{row.get('ocs.anomaly.fired', 0):.0f}"]
         for ocs, row in sorted(per_ocs.items())],
    ))

    _section("Quarantine / health")
    actions = {}
    for record in registry.to_records():
        name, labels = _split_series(str(record["series"]))
        if name == "health.actions":
            actions[labels.get("action", "?")] = float(record["value"])
    held_out = registry.value("health.held_out.fraction")
    if actions:
        print(render_table(
            ["action", "count"],
            [[a, f"{c:.0f}"] for a, c in sorted(actions.items())],
        ))
    print(f"held-out fraction: {held_out:.3f}")

    _section("Metric snapshot (counters and gauges)")
    rows = []
    for record in registry.to_records():
        if record["type"] == "histogram":
            continue
        rows.append([str(record["series"]), record["type"],
                     f"{float(record['value']):g}"])
    print(render_table(["series", "type", "value"], rows))

    _section("Latency histograms")
    hist_rows = []
    for record in registry.to_records():
        if record["type"] != "histogram":
            continue
        name = _split_series(str(record["series"]))[0]
        hist = registry.histogram(name, **_split_series(str(record["series"]))[1])
        hist_rows.append([str(record["series"]), f"{hist.count}",
                          f"{hist.quantile(0.5):.2f}", f"{hist.quantile(0.99):.2f}",
                          f"{hist.max:.2f}"])
    print(render_table(["series", "count", "p50", "p99", "max"], hist_rows))


def render_twin_report(out: Dict[str, object], slo_rows: SloRows) -> None:
    summary: Dict[str, object] = out["summary"]  # type: ignore[assignment]
    forecast: Dict[str, float] = summary["forecast"]  # type: ignore[assignment]
    print(f"DIGITAL TWIN REPORT  seed={summary['seed']}"
          f"  mode={'smoke' if summary['smoke'] else 'full'}")
    print(f"timeline samples={summary['timeline_samples']}"
          f"  aggregates={summary['aggregates']}"
          f"  ensemble members={summary['ensemble_members']}")
    print(f"timeline digest   {summary['timeline_digest']}")
    print(f"aggregates digest {summary['aggregates_digest']}")

    _slo_section("Twin SLOs", slo_rows)

    _section("Availability forecast (held-out chaos ensemble)")
    print(render_table(
        ["metric", "value"],
        [["model", str(summary["forecast_model"])],
         ["model MAE", f"{forecast['model_mae']:.5f}"],
         ["naive last-value MAE", f"{forecast['naive_mae']:.5f}"],
         ["coverage (±{:.2f})".format(forecast["band"]), f"{forecast['coverage']:.3f}"],
         ["held-out members", f"{forecast['n_heldout']:.0f}"],
         ["beats naive", "yes" if forecast["beats_naive"] else "NO"]],
    ))

    _section("What-if plans (predicted SLO deltas vs recorded baseline)")
    rows = []
    for plan in out["plans"]:  # type: ignore[union-attr]
        deltas = plan.deltas
        rows.append([
            plan.policy.name,
            f"{plan.predicted['serve_p99_ms']:.1f}",
            f"{deltas['serve_p99_ms']:+.1f}",
            f"{plan.predicted['serve_shed_rate']:.4f}",
            f"{deltas['serve_shed_rate']:+.4f}",
            f"{plan.predicted['availability']:.4f}",
            f"{deltas['availability']:+.4f}",
            plan.digest()[:12],
        ])
    print(render_table(
        ["policy", "p99 ms", "Δp99", "shed", "Δshed", "avail", "Δavail",
         "digest"],
        rows,
    ))


def render_serve_report(out: Dict[str, Any], slo_rows: SloRows) -> None:
    summary: Dict[str, object] = out["summary"]
    title = "FAILOVER" if "num_replicas" in summary else "SERVE"
    print(f"{title} DRILL REPORT  seed={summary['seed']}"
          f"  mode={'smoke' if summary['smoke'] else 'full'}")
    print(f"outcomes digest {summary['outcomes_digest']}")
    print(f"state digest    {summary['state_digest']}")

    _slo_section("SLOs", slo_rows)

    _section("Summary")
    print(render_table(
        ["key", "value"],
        [[key, str(value)] for key, value in sorted(summary.items())
         if not key.endswith("_digest")],
    ))


def fabric_summary(report: DrillReport) -> Dict[str, object]:
    trace_digest, metrics_digest = report.digests()
    return {
        "seed": report.seed,
        "smoke": report.smoke,
        "slos": compute_slos(report),
        "notes": report.notes,
        "num_spans": report.obs.tracer.num_spans,
        "num_series": report.obs.metrics.num_series,
        "trace_digest": trace_digest,
        "metrics_digest": metrics_digest,
    }


def _write_requests(out: Dict[str, Any], path: Path) -> None:
    path.write_text("\n".join(report_jsonl_lines(out["report"])) + "\n")


@dataclass(frozen=True)
class Drill:
    """One ``noc`` drill: how to run it and what it reports."""

    #: (seed, smoke) -> the drill's result.
    run: Callable[[int, bool], Any]
    #: summary -> SLO values; the drill gates exactly these names.
    slos: Callable[[Dict[str, object]], Dict[str, float]]
    #: stream name -> writer of ``<drill>-<stream>.jsonl``.
    streams: Dict[str, Callable[[Any, Path], None]]
    render: Callable[[Any, SloRows], None]
    #: result -> the JSON-ready summary (also the determinism check).
    summary: Callable[[Any], Dict[str, object]] = itemgetter("summary")


DRILLS: Dict[str, Drill] = {
    "fabric": Drill(
        run=lambda seed, smoke: run_fabric_drill(seed, smoke=smoke),
        slos=itemgetter("slos"),
        streams={
            "trace": lambda r, path: export_trace(
                path, r.obs.tracer, seed=r.seed, smoke=r.smoke),
            "metrics": lambda r, path: export_metrics(
                path, r.obs.metrics, seed=r.seed, smoke=r.smoke),
        },
        render=render_report,
        summary=fabric_summary,
    ),
    "serve": Drill(
        run=lambda seed, smoke: run_serve_drill(seed=seed, smoke=smoke),
        slos=drill_slos,
        streams={"requests": _write_requests},
        render=render_serve_report,
    ),
    "failover": Drill(
        run=lambda seed, smoke: run_failover_drill(seed=seed, smoke=smoke),
        slos=failover_slos,
        streams={"requests": _write_requests},
        render=render_serve_report,
    ),
    "twin": Drill(
        run=lambda seed, smoke: run_twin_drill(
            seed=seed, smoke=smoke, obs=Observability.sim()),
        slos=twin_slos,
        streams={
            "timeline": lambda out, path: write_jsonl(
                path, out["timeline"].to_records()),
            "plans": lambda out, path: write_jsonl(
                path, [p.to_record() for p in out["plans"]]),
            "aggregates": lambda out, path: write_jsonl(path, out["aggregates"]),
        },
        render=render_twin_report,
    ),
}


def reported_slos() -> FrozenSet[str]:
    """Every SLO name some drill reports.

    The fabric drill republishes every subsystem's SLO gauges, so its
    SLO function over an empty registry names them all.
    """
    return frozenset(compute_slos(SimpleNamespace(obs=Observability.sim())))


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.noc", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("drill", nargs="?", default="fabric", choices=list(DRILLS),
                        help="which drill to run (default: fabric)")
    parser.add_argument("--seed", type=int, default=0, help="drill seed")
    parser.add_argument("--smoke", action="store_true",
                        help="small fast drill (the CI parameterization)")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 on an SLO regression; with --smoke, "
                             "also on a nondeterministic rerun")
    parser.add_argument("--thresholds", type=Path, default=DEFAULT_THRESHOLDS,
                        help="SLO thresholds JSON")
    parser.add_argument("--out-dir", type=Path, default=None,
                        help="write <drill>-summary.json and the drill's "
                             "<drill>-<stream>.jsonl artifacts here")
    args = parser.parse_args(argv)

    if not args.thresholds.is_file():
        parser.error(f"thresholds file not found: {args.thresholds}")
    thresholds: Dict[str, float] = json.loads(args.thresholds.read_text())
    unknown = sorted(set(thresholds) - reported_slos())
    if unknown:
        parser.error(f"{args.thresholds} names SLOs no drill reports: "
                     + ", ".join(unknown))

    drill = DRILLS[args.drill]
    result = drill.run(args.seed, args.smoke)
    summary = drill.summary(result)
    slos = drill.slos(summary)
    slo_rows = check_slos(
        slos, {name: limit for name, limit in thresholds.items() if name in slos}
    )
    slo_ok = all(ok for *_, ok in slo_rows)
    deterministic = True
    if args.check and args.smoke:
        # Cheap enough to prove, so prove it: same seed, same summary.
        deterministic = drill.summary(drill.run(args.seed, args.smoke)) == summary
        summary["deterministic"] = deterministic
    summary["slo_ok"] = slo_ok

    drill.render(result, slo_rows)

    if args.out_dir is not None:
        args.out_dir.mkdir(parents=True, exist_ok=True)
        (args.out_dir / f"{args.drill}-summary.json").write_text(
            json.dumps(summary, indent=2, sort_keys=True) + "\n"
        )
        for stream, write in drill.streams.items():
            write(result, args.out_dir / f"{args.drill}-{stream}.jsonl")

    if not args.check:
        return 0
    if not slo_ok:
        print("SLO REGRESSION: one or more SLOs exceed their thresholds",
              file=sys.stderr)
    if not deterministic:
        print("NONDETERMINISM: the same seed produced a different summary",
              file=sys.stderr)
    return 0 if slo_ok and deterministic else 1


if __name__ == "__main__":
    sys.exit(main())
