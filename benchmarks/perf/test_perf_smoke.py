"""Plumbing tests for the perf harness: baselines, the report, and the
``--check`` gate (parity and speedup floors).

Wall-time measurement is deliberately left to the CLI
(``python -m benchmarks.perf.run --check``) so this file stays fast and
deterministic under pytest.  Each case's optimized-vs-oracle parity is
pinned in tier-1 by the kernel's own property suite
(``tests/optics/test_vectorized_kernels.py``,
``tests/dcn/test_flowsim_vectorized.py``,
``tests/parallel/test_determinism.py``, ``tests/parallel/test_shm.py``).
"""

import json

from benchmarks.perf import run
from benchmarks.perf.cases import CASES, CasePair, PerfCase
from benchmarks.perf.harness import (
    PARITY_RTOL,
    check_against_baselines,
    filter_cases,
    load_baselines,
    write_report,
)


def _result(name, speedup=1e9, parity=0.0, **extra):
    return {"case": name, "speedup": speedup, "parity_max_rel_err": parity, **extra}


def test_every_case_has_one_baseline():
    baselines = load_baselines()
    names = {c.name for c in CASES}
    assert {k for k in baselines if not k.startswith("_")} == names
    for name in names:
        assert isinstance(baselines[name], float)


def test_report_and_regression_check(tmp_path):
    results = [_result(c.name) for c in CASES]
    path = write_report(results, path=tmp_path / "BENCH_PERF.json")
    payload = json.loads(path.read_text())
    assert "mode" not in payload
    assert len(payload["results"]) == len(CASES)
    assert check_against_baselines(results) == []


def test_regression_check_flags_slowdowns():
    failures = check_against_baselines([_result(CASES[0].name, speedup=0.01)])
    assert len(failures) == 1 and CASES[0].name in failures[0]


def test_regression_check_flags_missing_baseline():
    failures = check_against_baselines([_result("brand_new_case")])
    assert failures and "no baseline" in failures[0]


def test_regression_check_flags_parity_above_contract():
    """A fast kernel that diverged from its oracle fails the check."""
    name = CASES[0].name
    assert check_against_baselines([_result(name, parity=PARITY_RTOL)]) == []
    for parity in (1e-9, float("inf"), float("nan")):
        failures = check_against_baselines([_result(name, parity=parity)])
        assert len(failures) == 1 and "parity" in failures[0]


def test_regression_check_exempts_only_skipped_records():
    """A core-gated case is exempt only through its explicit skip
    record; a timed record is always held to its baseline."""
    skipped = {
        "case": "chaos_ensemble_pmap",
        "skipped": "insufficient_cores",
        "requires_cores": 2,
        "cpu_count": 1,
    }
    assert check_against_baselines([skipped]) == []
    timed = _result("chaos_ensemble_pmap", speedup=0.5, requires_cores=2, cpu_count=1)
    failures = check_against_baselines([timed])
    assert len(failures) == 1 and "chaos_ensemble_pmap" in failures[0]


def test_run_case_emits_skip_record_on_small_machines(monkeypatch):
    """A core-gated case on a too-small machine yields an explicit
    ``skipped: insufficient_cores`` record instead of a noise speedup,
    and the baseline check exempts it."""
    from benchmarks.perf import harness

    gated = next(c for c in CASES if c.requires_cores > 1)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 1)
    record = harness.run_case(gated)
    assert record["skipped"] == "insufficient_cores"
    assert record["requires_cores"] == gated.requires_cores
    assert record["cpu_count"] == 1
    assert "speedup" not in record
    assert check_against_baselines([record]) == []


def test_run_case_times_a_slow_path_from_its_parity_call(monkeypatch):
    """A thunk whose parity-pass call already takes at least the slow
    threshold (2 s) is measured by that call and never run again; the
    clock is faked so the test takes no real time."""
    from benchmarks.perf import harness

    clock = [0.0]
    calls = {"vectorized": 0, "reference": 0}

    def thunk(name, seconds):
        def call():
            calls[name] += 1
            clock[0] += seconds
            return name

        return call

    monkeypatch.setattr(harness.timeit, "default_timer", lambda: clock[0])
    slow = PerfCase(
        name="fake_slow",
        figure="none",
        build=lambda: CasePair(
            vectorized=thunk("vectorized", 2.0),
            reference=thunk("reference", 25.0),
            parity=lambda a, b: 0.0,
            size={},
        ),
    )
    record = harness.run_case(slow)
    assert calls == {"vectorized": 1, "reference": 1}
    assert record["vectorized_s"] == 2.0
    assert record["reference_s"] == 25.0
    assert record["speedup"] == 12.5
    assert record["parity_max_rel_err"] == 0.0


def test_cli_check_exits_nonzero_on_parity_failure(monkeypatch, tmp_path):
    out = tmp_path / "BENCH_PERF.json"
    name = CASES[0].name

    monkeypatch.setattr(run, "run_suite", lambda cases: [_result(name)])
    assert run.main(["--check", "--filter", name, "--output", str(out)]) == 0
    monkeypatch.setattr(run, "run_suite", lambda cases: [_result(name, parity=1e-6)])
    assert run.main(["--check", "--filter", name, "--output", str(out)]) == 1
    assert json.loads(out.read_text())["results"][0]["parity_max_rel_err"] == 1e-6


def test_filter_cases():
    assert [c.name for c in filter_cases("pmap")] == [
        "chaos_ensemble_pmap",
        "mc_ber_grid_pmap",
        "pmap_shm",
    ]
    assert filter_cases(None) == list(CASES)
    assert filter_cases("no_such_case") == []
