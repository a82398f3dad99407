"""The benchmark's own tests: oracle cross-checks, determinism, the
traced report's accounting, and the sensitivity self-check.

Run from the repository root::

    python3 -m pytest -q hostbench/tests

Workloads run at reduced scale here (instance attributes override the
class sizes), except in the sensitivity check, which runs the
benchmarked instances (``serve_failover`` with 2 of its 40 drills)
through the real measuring loop with short timed regions.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from repro.availability.montecarlo import availability_grid_serial  # noqa: E402
from repro.control.replication import ReplicationGroup  # noqa: E402
from repro.dcn.flowsim import FlowSimulator  # noqa: E402
from repro.optics.mc_sweep import monte_carlo_ber_grid_serial  # noqa: E402
from repro.optics.pam4 import Pam4LinkModel  # noqa: E402
from repro.parallel import ResultCache  # noqa: E402
from repro.core.errors import TopologyError  # noqa: E402
from repro.serve import FabricService, FairAdmission  # noqa: E402
from repro.serve.drill import run_failover_drill, run_serve_drill  # noqa: E402

NULL = tracing.NULL_RECORDER


def _full(name: str):
    """The benchmarked instance of one workload; ``serve_failover`` runs
    2 of its 40 drills, each at the benchmarked size."""
    w = type(workloads.WORKLOADS[name])()
    if name == "serve_failover":
        w.drills = 2
    return w


def _small(name: str):
    """A reduced-scale instance of one workload."""
    w = type(workloads.WORKLOADS[name])()
    if name == "serve_storm":
        w.primaries, w.warm_primaries = 8_000, 1_000
    elif name == "serve_failover":
        w.drills, w.primaries, w.warm_primaries = 2, 4_000, 500
    elif name == "fct_mesh":
        w.flows, w.warm_flows = 400, 50
    else:
        w.symbols, w.trials = 50_000, 4_000
    return w


def _batch(w, seed: int, work_dir: Path, rec=NULL):
    state = w.setup(seed, work_dir, rec)
    ctx = w.prepare(state)
    try:
        batch = w.run(state, ctx, rec)
        return state, batch, w.check(state, batch, rec)
    finally:
        w.release(ctx)


def _bounds() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["bound"] for m in spec["end_to_end"]}


# --------------------------------------------------------------------- #
# Oracle cross-checks (bit for bit)
# --------------------------------------------------------------------- #


def test_fct_mesh_matches_reference_engine(tmp_path):
    w = _small("fct_mesh")
    w.flows = 150
    state = w.setup(3, tmp_path, NULL)
    fast = w.simulate(state, state.flows, NULL)
    for (_, fabric, routing), records in zip(state.fabrics, fast):
        reference = FlowSimulator(
            fabric, routing, path_policy="wcmp", seed=w.sim_seed
        ).run_reference(state.flows)
        assert [(r.flow.flow_id, r.finish_s) for r in records] == [
            (r.flow.flow_id, r.finish_s) for r in reference
        ]


def test_sweep_figs_matches_serial_oracles(tmp_path):
    w = _small("sweep_figs")
    _, batch, checked = _batch(w, 4, tmp_path)
    ber, avail, spares, _, _ = batch.data[0]
    assert not checked.problems
    np.testing.assert_array_equal(
        ber, monte_carlo_ber_grid_serial(Pam4LinkModel(), w.powers, w.symbols, seed=4)
    )
    ref_avail, ref_spares = availability_grid_serial(
        w.availabilities, w.shapes, trials=w.trials, seed=4
    )
    np.testing.assert_array_equal(avail, ref_avail)
    np.testing.assert_array_equal(spares, ref_spares)


def test_serve_storm_matches_the_drill_entry_point(tmp_path):
    w = _small("serve_storm")
    _, batch, checked = _batch(w, 5, tmp_path)
    report, _ = batch.data
    summary = run_serve_drill(
        seed=5, num_primaries=w.primaries, num_tenants=w.tenants, streaming=True
    )["summary"]
    assert not checked.problems
    assert report.outcomes_digest() == summary["outcomes_digest"]
    assert report.state_digest == summary["state_digest"]


def test_serve_failover_matches_the_drill_entry_point(tmp_path):
    w = _small("serve_failover")
    w.primaries = 1_500  # the CI smoke size, which passes
    drills, batch, checked = _batch(w, 6, tmp_path)
    assert checked.failed == 0, checked.failures
    report = batch.data[0][2]
    summary = run_failover_drill(seed=drills[0].seed, num_primaries=w.primaries)["summary"]
    assert report.outcomes_digest() == summary["outcomes_digest"]
    assert report.state_digest == summary["state_digest"]


# --------------------------------------------------------------------- #
# Determinism and checks
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_digest(name, tmp_path):
    w = _small(name)
    first = _batch(w, 8, tmp_path / "a")[2]
    second = _batch(w, 8, tmp_path / "b")[2]
    assert first.digest == second.digest
    assert first.failures == second.failures
    assert not first.problems and not second.problems
    assert _batch(w, 9, tmp_path / "c")[2].digest != first.digest


def test_failover_counts_only_the_known_defect(tmp_path, monkeypatch):
    w = _small("serve_failover")
    w.drills, w.primaries = 1, 1_500
    drills = w.setup(6, tmp_path, NULL)

    monkeypatch.setattr(workloads, "replay_committed", lambda config, log: "0" * 64)
    checked = w.check(drills, w.run(drills, None, NULL), NULL)
    assert checked.failed == drills[0].size and not checked.problems
    monkeypatch.undo()

    for exc in (AttributeError("no attribute 'x'"), TopologyError("unknown link sl-rq-000001")):
        def broken(self, requests, faults=None, exc=exc):
            raise exc

        monkeypatch.setattr(FabricService, "run", broken)
        checked = w.check(drills, w.run(drills, None, NULL), NULL)
        assert checked.failed == drills[0].size
        assert checked.problems == [f"drill seed {drills[0].seed}: not the known defect"]


def test_known_defect_signatures():
    for error in (
        "TopologyError: unknown link sl-rq-001009 (at fabric_manager.py:174 in teardown)",
        "ConfigurationError: link sl-rq-002065 already exists "
        "(at fabric_manager.py:139 in establish)",
        "ServeError: replay diverged: rq-007276 committed port 29 but replay would choose 28",
        "replay aa852cead732 != live 446351fe4707",
    ):
        assert workloads.known_defect(error)
    for error in (
        "KeyError: 'x' (at service.py:10 in run)",
        "TopologyError: unknown link ocs-3 (at fabric_manager.py:174 in teardown)",
        "replica log replay diverged from leader state",
        "3 client-acked commits lost",
        "partition: 10 outcomes, 10 offered, 12 fed",
    ):
        assert not workloads.known_defect(error)


def test_failover_drill_seeds_are_positional():
    assert workloads.drill_seeds(3, 2) == workloads.drill_seeds(3, 4)[:2]
    assert workloads.drill_seeds(3, 2) != workloads.drill_seeds(4, 2)


# --------------------------------------------------------------------- #
# The traced report
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_report_accounts_for_wall_time(name, tmp_path):
    args = argparse.Namespace(workload=name, seed=2, seconds=0.1, trace=1)
    result = run._run(
        args, _small(name), tracing, f"test-{name}", tmp_path, tmp_path / "spans.npz"
    )
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == {m[0] for m in run.PER_LAYER}
    assert result["correct"]
    assert metrics["bench.accounted_share"] == pytest.approx(1.0, abs=0.01)
    assert metrics["bench.trace_overhead"] > -0.5
    owner = {
        "serve_storm": "serve.admission.calls",
        "serve_failover": "control.replication.calls",
        "fct_mesh": "dcn.flowsim.events",
        "sweep_figs": "parallel.cache.get_calls",
    }[name]
    assert metrics[owner] > 0
    idle = {"serve_storm": "dcn.flowsim.self_s", "fct_mesh": "serve.service.self_s",
            "sweep_figs": "control.replication.self_s",
            "serve_failover": "parallel.engine.self_s"}[name]
    assert metrics[idle] == 0.0
    spans = np.load(tmp_path / "spans.npz")
    assert str(spans["run_id"]) == f"test-{name}"
    assert len(spans["name"]) == len(spans["parent"]) == len(spans["end_ns"]) > 0
    assert (spans["end_ns"] >= spans["start_ns"]).all()


def test_spans_nest_and_self_time_subtracts_children():
    rec = tracing.SpanRecorder("unit")

    class Layer:
        def inner(self):
            time.sleep(0.01)

        def outer(self):
            time.sleep(0.01)
            self.inner()

    targets = [(Layer, "outer", "a", None), (Layer, "inner", "b", None)]
    with rec.patched(targets), rec.span("root"):
        Layer().outer()
    assert Layer.__dict__["outer"].__name__ == "outer"  # restored
    totals = rec.totals("setup")
    assert totals["a"][0] == totals["b"][0] == 1
    assert 0.009 < totals["a"][1] < 0.015 and 0.009 < totals["b"][1] < 0.015
    assert list(rec._parent) == [-1, 0, 1]


def test_benchmark_json_lists_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [m[0] for m in run.PER_LAYER]
    assert [m["name"] for m in spec["end_to_end"]] == [m[0] for m in run.END_TO_END]
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("_*"))
    out = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "fct_mesh",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


# --------------------------------------------------------------------- #
# Sensitivity self-check: a fixed delay in one layer's public call moves
# the owning workload past its bound and leaves a bypassing one inside.
# --------------------------------------------------------------------- #


def _delayed(fn, seconds: float):
    def slow(*args, **kwargs):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass
        return fn(*args, **kwargs)

    return slow


def _ratio(w, work_dir: Path, owner, method: str, slow, rounds: int = 5) -> float:
    """units_per_s with the delay over units_per_s without it: the median
    over rounds of paired, back-to-back measurements, so a slow phase of
    the shared host hits both sides of a pair."""
    state = w.setup(1, work_dir, NULL)
    w.warm(state)
    original = owner.__dict__[method]
    ratios = []
    try:
        for _ in range(rounds):
            rate = {}
            for delayed in (False, True):
                setattr(owner, method, slow if delayed else original)
                rate[delayed] = np.median(run._measure(w, state, 1.0, NULL).rates)
            ratios.append(rate[True] / rate[False])
    finally:
        setattr(owner, method, original)
    return float(np.median(ratios))


@pytest.mark.parametrize(
    "owner, method, delay_s, layer_workload, bypass_workload",
    [
        (FairAdmission, "admit", 50e-6, "serve_storm", "sweep_figs"),
        (ReplicationGroup, "submit", 2e-3, "serve_failover", "serve_storm"),
        (FlowSimulator, "run", 2.0, "fct_mesh", "serve_storm"),
        (ResultCache, "get", 0.02, "sweep_figs", "serve_storm"),
    ],
)
def test_sensitivity(owner, method, delay_s, layer_workload, bypass_workload, tmp_path):
    bound = _bounds()["units_per_s"]
    slow = _delayed(owner.__dict__[method], delay_s)
    drop = 1.0 - _ratio(_full(layer_workload), tmp_path / "layer", owner, method, slow)
    drift = _ratio(_full(bypass_workload), tmp_path / "bypass", owner, method, slow) - 1.0
    print(f"{owner.__name__}.{method}: {layer_workload} -{drop:.1%}, "
          f"{bypass_workload} {drift:+.1%} (bound {bound:.0%})")
    assert drop > bound, f"{layer_workload} dropped only {drop:.1%}"
    assert abs(drift) < bound, f"{bypass_workload} moved {drift:+.1%}"
