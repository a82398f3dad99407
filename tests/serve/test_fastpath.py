"""The serving engine against its pins and an independent oracle.

``FabricService.run`` is the one serving loop.  These tests hold it to:

- golden digests recorded from the retired journaled twin loop: outcome
  digest, state digest, the commit log's canonical lines, and
  ``summary()`` for a table of small fault timelines (controller crashes
  with recovery, RPC-timeout bursts), the 10k-request / 2,048-tenant
  drill and the seed-11 smoke drill -- all byte for byte;
- a sequential journaled oracle that shares no event-loop or commit
  plane code with the service: for *any* fault timeline it drives each
  committed entry through a fresh
  :class:`~repro.control.journal.DurableController` (request id as the
  idempotency token), with crashes, torn writes and recoveries at
  Hypothesis-chosen positions and checkpoints at others, and must reach
  the live ``state_digest`` and :func:`replay_committed`;
- the streaming sink's reorder window stays bounded by in-flight work
  (the flat-memory contract), and its digest equals the full-record
  one; the full sink's column-wise ``RecordLog`` rebuilds exactly the
  records it packed, and its digest, latencies and JSONL rows come
  straight off the columns;
- on both commit planes the memoized ``FabricManager.state_digest()``
  equals the from-scratch hash after slice allocs/releases have churned
  the link table, and a run whose memo missed a mutation fails instead
  of reporting.
"""

import dataclasses
import hashlib
import json
from typing import Dict, Set, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.control import journal
from repro.control.journal import DurableController
from repro.control.wal import CrashSchedule
from repro.core.crossconnect import CrossConnectMap
from repro.core.errors import ControllerCrash, ServeError
from repro.core.fabric_manager import _scratch_state_digest
from repro.core.ids import LinkId, OcsId
from repro.faults.events import FaultKind, controller_target
from repro.faults.injector import FaultInjector
from repro.serve.drill import (
    build_fault_timeline,
    drill_config,
    report_jsonl_lines,
    run_serve_drill,
)
from repro.serve.requests import (
    Outcome,
    RequestKind,
    RequestRecord,
    TenantRequest,
    outcomes_digest,
)
from repro.serve.service import (
    CommitEntry,
    FabricService,
    ServeConfig,
    build_serve_manager,
    replay_committed,
)
from repro.serve.sink import FullRecordSink, RecordLog, StreamingRecordSink
from repro.serve.workload import ServeWorkload

CRASH = FaultKind.CONTROLLER_CRASH
TIMEOUT = FaultKind.RPC_TIMEOUT

fault_events = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=1.5),
        st.sampled_from([CRASH, TIMEOUT]),
        st.floats(min_value=1.0, max_value=12.0),   # severity
        st.floats(min_value=0.05, max_value=0.5),   # clear_after_s
    ),
    min_size=0,
    max_size=8,
)

#: (seed, fault timeline) -> (outcomes digest, state digest, SHA-256 of
#: the commit log's canonical lines, SHA-256 of the sorted-key summary
#: JSON), recorded from the journaled twin loop this engine replaced.
#: The 150-request streams end near t = 0.2 s.
GOLDEN_SMALL = {
    (0, ()): (
        "00aded29578dd5a03ecfd6a91a103a728ea23d52b96e4801f6e830d4c0c2f9bf",
        "069202814f8b752b9fa239d3bb081d2a75774c53bd98b5d5efd2ef83bb13ee10",
        "be5a1cf0db9d03290b8c519decaed1c2555f367843352e25dcc01ae2681cd8d2",
        "9c8d12bdad62953edcc4f8e67edfc1e2bb340895605cc35c29c69fb8534d5579",
    ),
    (3, ((0.02, CRASH, 1.0, 0.05),)): (
        "1688f0d5fbcc0fe9bdf4cea89842bcd1fed147c2628cbc5e2f3afef5e7df1566",
        "a87234a189076039a4737d1f713831b554436dde55e182c9cb7be0fa390ce230",
        "0b3ac5d2ff04e5e57f63926e5d6429afe6b7ad53568c33fb8e7956a4fdf60016",
        "2e79846dbe1dfc1fa671cf67cffa8f6feb7f4bc4391b69d168b058f7545cc82e",
    ),
    (7, ((0.05, TIMEOUT, 12.0, 0.3),)): (
        "18035db3dc8dbbb21cbc0da5c436f320b1d396fd669739d4d18d9b79cb5ef366",
        "a4dacda13334e1b4845b0d50fbac73878e7972a616d42d8d966a634f3b9cce8c",
        "e92e9b1b76ba9d1fc4bd6d6aa005d0040d6910f0383b224ef44f8d2d39c8159f",
        "5a45775b81bb0e2e2bde966183ba7e6ffbdf436a794ef3e0d8e0d6676e96345f",
    ),
    (11, ((0.0, CRASH, 4.0, 0.5), (0.01, TIMEOUT, 6.0, 0.1))): (
        "50c1386836bd6339590b7af13e37a2a7b41405a01ee4a3d18490211646694eb2",
        "f447eee6a8690719e5fc06fc13a28aaef9ec4d90762da9406f723ca7543e30e5",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "5d735861f3ed7eacef64ff561a96c8c8dca11ddc82d1ece4cb03969e510b1924",
    ),
    (19, (
        (0.03, CRASH, 2.0, 0.08), (0.12, CRASH, 1.0, 0.05),
        (0.15, TIMEOUT, 3.0, 0.2),
    )): (
        "ae8bdd9637d2b63864c2e3e77ffd2cb2c86531281269b1712ed1f0aa4df1fa9f",
        "12a40a3349d3c9117aff66dcb6b7879c3cd1d2354f5faf61af97631fdd03a628",
        "ecf588343814f8c071e365532f57d93416f146a4dbcb56e26ee639b6df186596",
        "c45b2bf43532753ce21cbc31b7992df936b66abd1cc8d03ce72c0def4ce4bf08",
    ),
    (23, (
        (0.04, TIMEOUT, 1.0, 0.05), (0.06, TIMEOUT, 9.5, 0.4),
        (0.08, CRASH, 7.0, 0.12),
    )): (
        "ac05c0bc5133e2ca3794545c53c1d39dfab1abed2d9038fba5696977fa591c75",
        "31e08829d6997a24b2d561152b1d51d61a2e09407ed0a10392df167c78051bdf",
        "65a726adf687d124512059750c99d08642adb7f6ea8d4f8666f2bf70384442cf",
        "5d306ca43f5aeea2fed785f397657c44cc90c3c31f5adead5e9b652534b01e18",
    ),
    (42, (
        (0.1, CRASH, 1.0, 0.5), (0.1, TIMEOUT, 12.0, 0.5),
        (1.2, CRASH, 3.0, 0.2),
    )): (
        "bab3ae6af48d0a2206fced711544946442921f0bd6d8fcec3bd446edc94da1a8",
        "97f34b5afca62be7b5ca287a000ae61eb178245c2790eb09d4578c9b20b6ab81",
        "a60a4064215e08a868198ded55855638b7a92e82ef830cfbbf2adbea5f8a6413",
        "3f21c0af6497b356f930c7c85a101ecc699af69442e5abbb28a1fd3a62f8dc4e",
    ),
    (50, (
        (0.01, TIMEOUT, 2.0, 0.05), (0.05, CRASH, 1.0, 0.05),
        (0.09, TIMEOUT, 5.0, 0.05), (0.11, CRASH, 1.0, 0.05),
        (0.14, TIMEOUT, 8.0, 0.05), (0.17, CRASH, 1.0, 0.05),
    )): (
        "d988dbbf59db0323ac51c25d9141dc02b29274fae5584ff8e85f3716bd2912bc",
        "6393c9df006c9fb8b504a5ffc3e5fd23dc1fbc1dd20caa32ecea871790d27bd7",
        "97b2151526803f3ddc0dd56f86c80f94d8dd518673a468f4eb3f219a386fe098",
        "0ef111c059c8c48e8fbc764c7dd86542795e8589f2e07b5ff8872f5fffb52f8d",
    ),
}

#: The 10k-primary / 2,048-tenant overload drill at seed 7 (same key).
GOLDEN_DRILL = (
    "79813f375f3e66733e01bf12416bc4d6669af18581c278fa9a8331cbb6e678f6",
    "5e2a4e51ce559a771997f51ebb7fffd15307301d172dc64d0283c2505e32484f",
    "0bd8cff7a0f434b368dde35f29e28cbcf69c683dcdbf6e8d32c3f6c37a803d8c",
    "9534cb7fffdc7fbdb89c63f27157e8b1ee03f351bdb30b436792a3357a4c618b",
)

#: SHA-256 of ``run_serve_drill(seed=11, smoke=True)["summary"]`` as
#: sorted-key JSON (it carries outcomes, state and replay digests).
GOLDEN_SMOKE_SUMMARY = (
    "6f6c7dff6c625d4f3e0f2880bf16fd9c143a35f57d0c5a8f0f8ac0489bde4ea0"
)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _fingerprint(report) -> Tuple[str, str, str, str]:
    return (
        report.outcomes_digest(),
        report.state_digest,
        _sha("\n".join(e.canonical() for e in report.commit_log)),
        _sha(json.dumps(report.summary(), sort_keys=True)),
    )


def _injector(events, seed: int) -> FaultInjector:
    injector = FaultInjector(seed=seed)
    for time_s, kind, severity, clear_after_s in sorted(
        events, key=lambda e: (e[0], e[1].value)
    ):
        injector.schedule(
            time_s, kind, controller_target(),
            severity=severity, clear_after_s=clear_after_s,
        )
    return injector


def _small_run(events, seed: int, sink=None, replicas: int = 1):
    config = ServeConfig(
        num_traffic_ocses=2, num_tenants=16, allocator_cubes=8, seed=seed,
        num_controller_replicas=replicas,
    )
    requests = ServeWorkload(
        seed=seed, rate_per_s=800.0, num_tenants=16
    ).generate(150)
    service = FabricService(config, sink=sink)
    report = service.run(requests, faults=_injector(events, seed))
    return service, report


# --------------------------------------------------------------------- #
# The sequential journaled oracle
# --------------------------------------------------------------------- #


def _journal_entry(controller, manager, config: ServeConfig, entry: CommitEntry):
    """One committed entry as the durable controller's own operation."""
    token = entry.request_id
    if entry.op == "retarget":
        ocs_index, north, south = entry.ints
        target = manager.switch(OcsId(ocs_index)).state.copy()
        if target.south_of(north) is not None:
            target.disconnect(north)
        other = target.north_of(south)
        if other is not None:
            target.disconnect(other)
        target.connect(north, south)
        controller.reconfigure({OcsId(ocs_index): target}, token=token)
    elif entry.op == "slice-alloc":
        (port,) = entry.ints
        controller.establish(
            LinkId(f"sl-{entry.request_id}"), config.slice_ocs, port, port,
            token=token,
        )
    else:
        controller.teardown(LinkId(f"sl-{entry.ref}"), token=token)


def journaled_replay(
    config: ServeConfig,
    commit_log,
    crashes: Dict[int, Tuple[int, int]],
    checkpoints: Set[int],
) -> str:
    """State digest after driving ``commit_log`` through a fresh
    :class:`DurableController`, one entry at a time.

    ``crashes`` maps a log position to ``(step, torn_bytes)``: the
    controller restarts from its WAL just before that entry, the entry's
    first attempt crashes at that controller step (tearing the in-flight
    WAL frame when the step is an append), and after a second restart
    the client retries with the same token -- replayed if the first
    attempt's record survived, applied if it did not.  ``checkpoints``
    compacts the journal before the entries at those positions.  A
    final restart must leave the fabric unchanged.
    """
    manager = build_serve_manager(config)
    controller = DurableController(manager=manager)
    for position, entry in enumerate(commit_log):
        if position in checkpoints:
            controller.checkpoint()
        if position in crashes:
            step, torn_bytes = crashes[position]
            controller, _ = journal.recover(
                manager, controller.wal.storage,
                crash=CrashSchedule(at_step=step, torn_bytes=torn_bytes),
            )
            try:
                _journal_entry(controller, manager, config, entry)
            except ControllerCrash:
                pass
            controller, _ = journal.recover(manager, controller.wal.storage)
        _journal_entry(controller, manager, config, entry)
    before = manager.state_digest()
    journal.recover(manager, controller.wal.storage)
    assert manager.state_digest() == before
    return before


@settings(max_examples=15, deadline=None)
@given(
    events=fault_events,
    seed=st.integers(min_value=0, max_value=50),
    data=st.data(),
)
def test_fast_path_equals_reference_for_any_fault_timeline(events, seed, data):
    """The reference is the journaled oracle: any fault timeline's live
    state equals the durable controller's, whatever its own crashes."""
    service, report = _small_run(events, seed)
    positions = st.integers(min_value=0, max_value=max(0, len(report.commit_log) - 1))
    crashes = data.draw(
        st.dictionaries(
            positions,
            st.tuples(st.integers(1, 4), st.integers(0, 16)),
            max_size=6 if report.commit_log else 0,
        )
    )
    checkpoints = data.draw(
        st.sets(positions, max_size=4 if report.commit_log else 0)
    )
    oracle = journaled_replay(service.config, report.commit_log, crashes, checkpoints)
    assert oracle == report.state_digest
    assert oracle == replay_committed(service.config, report.commit_log)


def test_run_reproduces_golden_small_cases():
    for (seed, events), pinned in GOLDEN_SMALL.items():
        _, report = _small_run(events, seed)
        assert _fingerprint(report) == pinned, (seed, events)


def test_fast_path_equals_reference_at_drill_scale():
    """The 10k-request / 2,048-tenant drill reproduces the journaled
    twin's digests, commit log and summary byte for byte, and the
    journaled oracle reaches the same state (crash and checkpoint
    positions fixed)."""
    num_primaries = 10_000
    config = drill_config(seed=7, num_tenants=2_048)
    workload = ServeWorkload(seed=7, rate_per_s=1_200.0, num_tenants=2_048)
    injector = FaultInjector(seed=7)
    build_fault_timeline(injector, workload.horizon_s(num_primaries))
    report = FabricService(config).run(
        workload.generate(num_primaries), faults=injector
    )
    assert _fingerprint(report) == GOLDEN_DRILL
    crashes = {p: (1 + p % 3, p % 11) for p in range(0, len(report.commit_log), 97)}
    checkpoints = set(range(50, len(report.commit_log), 150))
    oracle = journaled_replay(config, report.commit_log, crashes, checkpoints)
    assert oracle == report.state_digest


class _KeepObjects(FullRecordSink):
    """Keeps the record objects the packed log replaces."""

    def finalize(self):
        self.objects = sorted(self.records, key=lambda r: r.request.seq)
        return super().finalize()


def test_record_log_rebuilds_every_record():
    """The full sink's column-wise log answers exactly what the record
    objects it replaced would: every record, by index, slice and
    iteration, plus the outcomes read off their column."""
    for (seed, events) in GOLDEN_SMALL:
        sink = _KeepObjects()
        _, report = _small_run(events, seed, sink=sink)
        objects, log = sink.objects, report.records
        assert sink.records is log and len(log) == len(objects) > 0
        assert list(log) == objects
        assert log[-1] == objects[-1] and log[3:9] == objects[3:9]
        assert list(log.outcomes()) == [r.outcome for r in objects]
        with pytest.raises(IndexError):
            log[len(log)]


def test_record_log_digest_and_latencies_build_no_records(monkeypatch):
    """The report's digest, percentiles and JSONL read the columns: with
    record construction made to raise, they still give the answers the
    record objects give."""
    seed, events = case = list(GOLDEN_SMALL)[-1]
    sink = _KeepObjects()
    _, report = _small_run(events, seed, sink=sink)
    objects = sink.objects
    expected_lines = report_jsonl_lines(report)

    def refuse(*args, **kwargs):
        raise AssertionError("a RequestRecord was rebuilt")

    monkeypatch.setattr("repro.serve.sink.RequestRecord", refuse)
    assert report.outcomes_digest() == outcomes_digest(objects)
    assert report.outcomes_digest() == GOLDEN_SMALL[case][0]
    for outcome in Outcome:
        lat = sorted(r.latency_ms for r in objects if r.outcome is outcome)
        assert report.records.sorted_latencies_ms(outcome) == lat
    assert report.latency_percentile_ms(0.99) > 0.0
    assert report_jsonl_lines(report) == expected_lines
    with pytest.raises(AssertionError):
        list(report.records)


def test_record_log_digest_orders_equal_seqs_by_id():
    """Hand-built requests all carry ``seq = -1``; the column digest
    reorders them by id, as the record-level digest does."""
    records = [
        RequestRecord(
            TenantRequest(f"r{i}", "t-000", RequestKind.TELEMETRY_QUERY,
                          0.1 * i, 0.1 * i + 1.0, (("n", i),)),
            Outcome.OK if i % 2 else Outcome.SHED, 0.1 * i + 0.5, i % 3,
        )
        for i in (3, 1, 12, 2, 0)
    ]
    log = RecordLog(records)
    assert log.outcomes_digest() == outcomes_digest(records)
    assert log.sorted_latencies_ms(Outcome.OK) == sorted(
        r.latency_ms for r in records if r.outcome is Outcome.OK
    )
    assert log.sorted_latencies_ms(Outcome.ERROR) == []
    assert RecordLog().outcomes_digest() == outcomes_digest([])


def test_first_count_answers_the_outcome_asked_for():
    """The first ``count`` fills the per-outcome cache; it must still
    return the count asked for, not the last record's."""
    _, report = _small_run((), 0)
    fresh = dataclasses.replace(report)
    last = list(report.records.outcomes())[-1]
    other = next(o for o in Outcome if o is not last and report.count(o) != report.count(last))
    assert fresh.count(other) == report.count(other)


def test_streaming_sink_matches_full_records_and_stays_flat():
    for (seed, events), pinned in GOLDEN_SMALL.items():
        sink = StreamingRecordSink()
        service, stream = _small_run(events, seed, sink=sink)
        _, full = _small_run(events, seed)
        aggregates = stream.aggregates
        assert aggregates is not None and not stream.records
        assert aggregates.outcomes_digest == pinned[0]
        assert aggregates.total == full.offered
        for outcome in Outcome:
            assert aggregates.outcome_counts[outcome] == full.count(outcome)
        # Flat memory: the reorder window is bounded by in-flight work
        # (bounded queue, coalescing batch, retry/timeout windows), never
        # by the offered total.
        bound = 3 * (
            service.config.queue_capacity + service.config.batch_max_updates
        )
        assert 0 < aggregates.peak_pending <= bound


@settings(max_examples=10, deadline=None)
@given(
    events=fault_events,
    seed=st.integers(min_value=0, max_value=50),
    replicas=st.sampled_from([1, 3]),
)
def test_memoized_digest_equals_scratch_digest(events, seed, replicas):
    service, report = _small_run(events, seed, replicas=replicas)
    assert (service.replication is None) == (replicas == 1)
    scratch = _scratch_state_digest(service.manager)
    assert service.manager.state_digest() == scratch
    assert report.state_digest == scratch


@pytest.mark.parametrize("replicas", [1, 3])
def test_run_refuses_a_stale_digest_memo(monkeypatch, replicas):
    """Every run checks the memoized digest against a from-scratch one
    before it reports: a connect that skips its version bump leaves the
    memo stale, and the run fails instead of reporting it."""

    def connect_without_bump(self, north, south):
        self._check_range(north, south)
        self._n_to_s[north] = south
        self._s_to_n[south] = north

    monkeypatch.setattr(CrossConnectMap, "connect", connect_without_bump)
    with pytest.raises(ServeError, match="memoized state digest"):
        _small_run([], 0, replicas=replicas)


def test_peak_pending_saturates_independent_of_request_count():
    """The reorder window plateaus once the in-flight pipeline is full:
    quadrupling the offered load leaves peak_pending unchanged."""
    peaks = {}
    for n in (600, 1_200, 2_400):
        config = ServeConfig(
            num_traffic_ocses=2, num_tenants=16, allocator_cubes=8, seed=0
        )
        requests = ServeWorkload(
            seed=0, rate_per_s=800.0, num_tenants=16
        ).generate(n)
        sink = StreamingRecordSink()
        report = FabricService(config, sink=sink).run(requests)
        peaks[n] = report.aggregates.peak_pending
    assert peaks[600] == peaks[1_200] == peaks[2_400]
    assert peaks[2_400] <= 3 * (config.queue_capacity + config.batch_max_updates)


def test_streaming_drill_matches_full_record_drill():
    full = run_serve_drill(seed=11, smoke=True)["summary"]
    assert _sha(json.dumps(full, sort_keys=True)) == GOLDEN_SMOKE_SUMMARY
    stream = run_serve_drill(seed=11, smoke=True, streaming=True)["summary"]
    assert stream["outcomes_digest"] == full["outcomes_digest"]
    assert stream["state_digest"] == full["state_digest"]
    for key in ("offered", "ok", "rejected", "shed", "timeout", "error",
                "admitted", "commits", "replay_digest"):
        assert stream[key] == full[key], key
    assert stream["peak_pending"] > 0
