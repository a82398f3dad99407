"""The operator CLIs run end-to-end, gate their SLOs and write artifacts."""

import dataclasses
import json

import pytest

from repro.tools.noc import DEFAULT_THRESHOLDS, DRILLS, reported_slos
from repro.tools.noc import main as noc_main
from repro.tools.report import main as report_main


def _jsonl(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


def _usage_error(argv) -> int:
    with pytest.raises(SystemExit) as exc:
        noc_main(argv)
    return exc.value.code


class TestReportCli:
    def test_runs_and_exits_zero(self, capsys):
        assert report_main([]) == 0
        out = capsys.readouterr().out
        assert "headline report" in out


class TestNocCli:
    def test_smoke_report_exits_zero(self, capsys):
        assert noc_main(["--smoke"]) == 0
        out = capsys.readouterr().out
        assert "FLEET NOC REPORT" in out
        assert "SLOs" in out
        assert "Per-OCS telemetry" in out

    def test_check_passes_committed_thresholds(self, capsys):
        assert noc_main(["fabric", "--smoke", "--check"]) == 0
        capsys.readouterr()

    def test_check_fails_on_regressed_threshold(self, tmp_path, capsys):
        tight = tmp_path / "slo.json"
        tight.write_text(json.dumps({"reconfig_p99_ms": 0.001}))
        assert noc_main(["--smoke", "--check", "--thresholds", str(tight)]) == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_summary_file(self, tmp_path, capsys):
        assert noc_main(["--smoke", "--out-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        summary = json.loads((tmp_path / "fabric-summary.json").read_text())
        assert summary["slo_ok"] is True
        assert set(summary["slos"]) == reported_slos() == {
            "reconfig_p99_ms", "recovery_p99_ms", "ber_anomaly_rate",
            "sweep_cache_miss_rate", "sweep_chunk_p99_ms",
            "serve_p99_ms", "serve_shed_rate", "serve_retry_amplification",
            "failover_p99_s", "committed_ops_lost", "failover_unavailability",
            "twin_forecast_miss_rate", "twin_forecast_mae_excess",
            "twin_plan_divergence",
        }
        assert summary["slos"]["sweep_cache_miss_rate"] == 0.5
        assert summary["notes"]["sweep_warm_hits"] == summary["notes"]["sweep_tasks"]
        assert summary["num_spans"] > 0
        assert "deterministic" not in summary  # only --check --smoke reruns

    def test_exports_trace_and_metrics(self, tmp_path, capsys):
        assert noc_main(["--smoke", "--out-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        summary = json.loads((tmp_path / "fabric-summary.json").read_text())
        head = _jsonl(tmp_path / "fabric-trace.jsonl")[0]
        assert head["type"] == "meta" and head["stream"] == "trace"
        assert head["schema_version"] >= 1
        assert head["digest"] == summary["trace_digest"]
        head = _jsonl(tmp_path / "fabric-metrics.jsonl")[0]
        assert head["type"] == "meta" and head["stream"] == "metrics"
        assert head["digest"] == summary["metrics_digest"]
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "fabric-metrics.jsonl", "fabric-summary.json", "fabric-trace.jsonl",
        ]


class TestNocServeCli:
    @pytest.mark.parametrize("drill", ["serve", "failover"])
    def test_check_passes_and_writes_one_line_per_request(
        self, drill, tmp_path, capsys
    ):
        assert noc_main([drill, "--smoke", "--check", "--out-dir", str(tmp_path)]) == 0
        assert "REPORT" in capsys.readouterr().out
        summary = json.loads((tmp_path / f"{drill}-summary.json").read_text())
        assert summary["deterministic"] is True and summary["slo_ok"] is True
        requests = _jsonl(tmp_path / f"{drill}-requests.jsonl")
        assert len(requests) == summary["offered"]
        assert len({r["id"] for r in requests}) == summary["offered"]
        assert [r["seq"] for r in requests] == sorted(r["seq"] for r in requests)

    @pytest.mark.parametrize(
        "drill, slo", [("serve", "serve_p99_ms"), ("failover", "failover_p99_s")]
    )
    def test_tight_threshold_exits_one(self, drill, slo, tmp_path, capsys):
        tight = tmp_path / "slo.json"
        tight.write_text(json.dumps({slo: 1e-9}))
        assert noc_main([drill, "--smoke", "--check", "--thresholds", str(tight)]) == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_gates_only_what_the_drill_reports(self, tmp_path, capsys):
        """A fabric-only SLO in the thresholds does not gate the serve
        drill, however tight."""
        tight = tmp_path / "slo.json"
        tight.write_text(json.dumps({"reconfig_p99_ms": -1.0, "serve_p99_ms": 1e9}))
        assert noc_main(["serve", "--smoke", "--check", "--thresholds", str(tight)]) == 0
        out = capsys.readouterr().out
        assert "serve_p99_ms" in out and "reconfig_p99_ms" not in out

    def test_nondeterministic_drill_exits_one(self, monkeypatch, tmp_path, capsys):
        runs = iter(range(2))
        serve = DRILLS["serve"]
        monkeypatch.setitem(DRILLS, "serve", dataclasses.replace(
            serve, summary=lambda out: {**out["summary"], "run": next(runs)}
        ))
        assert noc_main(["serve", "--smoke", "--check", "--out-dir", str(tmp_path)]) == 1
        assert "NONDETERMINISM" in capsys.readouterr().err
        summary = json.loads((tmp_path / "serve-summary.json").read_text())
        assert summary["deterministic"] is False


class TestNocThresholds:
    def test_every_committed_threshold_is_reported_by_some_drill(self):
        committed = set(json.loads(DEFAULT_THRESHOLDS.read_text()))
        assert committed <= reported_slos()
        # Each drill's SLO function names a subset of the fabric drill's.
        summary_keys = {
            "serve": {"serve_p99_ms": 0, "serve_shed_rate": 0,
                      "serve_retry_amplification": 0},
            "failover": {"failover_p99_s": 0, "committed_ops_lost": 0,
                         "failover_unavailability": 0},
            "twin": {"twin_forecast_miss_rate": 0, "twin_forecast_mae_excess": 0,
                     "twin_plan_divergence": 0},
        }
        for drill, summary in summary_keys.items():
            names = set(DRILLS[drill].slos(summary))
            assert names == set(summary) and names <= committed

    def test_missing_thresholds_file_is_a_usage_error(self, tmp_path, capsys):
        missing = tmp_path / "nonexistent" / "slo.json"
        for drill in DRILLS:
            assert _usage_error(
                [drill, "--smoke", "--check", "--thresholds", str(missing)]
            ) == 2
            assert "not found" in capsys.readouterr().err

    def test_unknown_threshold_is_a_usage_error(self, tmp_path, capsys):
        typo = tmp_path / "slo.json"
        typo.write_text(json.dumps({"serve_p99_msec": 350.0}))
        assert _usage_error(["serve", "--smoke", "--check", "--thresholds", str(typo)]) == 2
        assert "serve_p99_msec" in capsys.readouterr().err

    def test_removed_flags_are_rejected(self, capsys):
        for flag in ("--json", "--full", "--top=3", "--trace-out=x", "--profile=failover"):
            assert _usage_error(["--smoke", flag]) == 2
        capsys.readouterr()


class TestNocTwinCli:
    def test_twin_report_and_check_exit_zero(self, capsys):
        assert noc_main(["twin", "--smoke", "--check"]) == 0
        out = capsys.readouterr().out
        assert "DIGITAL TWIN REPORT" in out
        assert "Twin SLOs" in out
        assert "What-if plans" in out

    def test_twin_summary_file(self, tmp_path, capsys):
        assert noc_main(["twin", "--smoke", "--check", "--out-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        summary = json.loads((tmp_path / "twin-summary.json").read_text())
        assert summary["slo_ok"] is True and summary["deterministic"] is True
        assert summary["twin_plan_divergence"] == 0.0
        assert summary["twin_forecast_mae_excess"] < 0.0
        assert summary["policies"] == [
            "pin_brownout_2", "quarantine_eighth", "replicate_3",
        ]

    def test_twin_writes_jsonl_artifacts(self, tmp_path, capsys):
        assert noc_main(["twin", "--smoke", "--out-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        head = _jsonl(tmp_path / "twin-timeline.jsonl")[0]
        assert head["type"] == "meta" and head["stream"] == "timeline"
        plans = _jsonl(tmp_path / "twin-plans.jsonl")
        assert all(p["type"] == "plan" and "predicted" in p for p in plans)
        assert {p["policy"]["name"] for p in plans} == {
            "pin_brownout_2", "quarantine_eighth", "replicate_3",
        }
        head = _jsonl(tmp_path / "twin-aggregates.jsonl")[0]
        assert head["type"] == "meta"

    def test_twin_check_fails_on_tight_threshold(self, tmp_path, capsys):
        tight = tmp_path / "slo.json"
        tight.write_text(json.dumps({"twin_forecast_miss_rate": -1.0}))
        assert noc_main([
            "twin", "--smoke", "--check", "--thresholds", str(tight)
        ]) == 1
        assert "REGRESS" in capsys.readouterr().out
