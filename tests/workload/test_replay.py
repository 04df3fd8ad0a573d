"""Replay and load generation: deterministic schedules, targets, reports."""

from __future__ import annotations

import pytest

from repro.engine import Engine
from repro.errors import ReproError
from repro.serving import Router, ServingConfig
from repro.workload.log import WorkloadRecord
from repro.workload.replay import (
    EngineTarget,
    RouterTarget,
    replay_schedule,
    request_templates,
    run_schedule,
    synthesize_schedule,
)

TRIPLES = [
    ("lot1", "type", "lot"),
    ("lot2", "type", "lot"),
    ("lot3", "type", "lot"),
    ("lot1", "hasAuction", "auction1"),
    ("lot2", "hasAuction", "auction2"),
    ("lot1", "material", "oak", 0.9),
    ("lot2", "material", "oak", 0.4),
    ("lot3", "material", "bronze", 0.8),
]

SOURCES = [
    'a = SELECT [$2="type"] (triples);',
    'b = SELECT [$2="material"] (triples);',
    'c = SELECT [$2="material" and $3="oak"] (triples);',
]


def _record(seq, request):
    return WorkloadRecord(
        seq=seq, kind="plan", fingerprint=f"plan::{seq}", latency_ms=1.0,
        request=request,
    )


def _log_records():
    records = []
    seq = 0
    for repeat, source in zip((4, 2, 1), SOURCES):
        for _ in range(repeat):
            records.append(_record(seq, {"kind": "spinql", "source": source}))
            seq += 1
    return records


@pytest.fixture
def engine():
    return Engine.from_triples(TRIPLES)


class TestScheduleConstruction:
    def test_templates_ranked_by_frequency(self):
        templates = request_templates(_log_records())
        assert [count for _request, count in templates] == [4, 2, 1]
        assert templates[0][0]["source"] == SOURCES[0]

    def test_replay_preserves_log_order(self):
        schedule = replay_schedule(_log_records())
        assert len(schedule.requests) == 7
        assert schedule.requests[0].request["source"] == SOURCES[0]
        assert schedule.requests[-1].request["source"] == SOURCES[2]

    def test_replay_skips_unreplayable_records(self):
        records = _log_records() + [
            WorkloadRecord(seq=99, kind="plan", fingerprint="plan::x", latency_ms=1.0)
        ]
        assert len(replay_schedule(records).requests) == 7

    def test_replay_of_empty_log_raises(self):
        with pytest.raises(ReproError):
            replay_schedule([])

    def test_same_seed_same_hash(self):
        a = synthesize_schedule(_log_records(), num_requests=50, seed=7)
        b = synthesize_schedule(_log_records(), num_requests=50, seed=7)
        assert a.schedule_hash() == b.schedule_hash()
        assert [s.request for s in a.requests] == [s.request for s in b.requests]

    def test_different_seed_different_hash(self):
        a = synthesize_schedule(_log_records(), num_requests=50, seed=7)
        b = synthesize_schedule(_log_records(), num_requests=50, seed=8)
        assert a.schedule_hash() != b.schedule_hash()

    def test_zipf_skew_prefers_hot_templates(self):
        schedule = synthesize_schedule(
            _log_records(), num_requests=300, seed=7, zipf_s=1.5
        )
        counts = {}
        for spec in schedule.requests:
            counts[spec.request["source"]] = counts.get(spec.request["source"], 0) + 1
        assert counts[SOURCES[0]] > counts[SOURCES[2]]

    def test_open_mode_offsets_are_nondecreasing(self):
        schedule = synthesize_schedule(
            _log_records(), num_requests=20, seed=7, mode="open", rate_qps=500.0
        )
        offsets = [spec.offset_ms for spec in schedule.requests]
        assert offsets == sorted(offsets)
        assert offsets[-1] > 0

    def test_unknown_mode_raises(self):
        with pytest.raises(ReproError):
            synthesize_schedule(_log_records(), num_requests=5, seed=1, mode="banana")


class TestRunSchedule:
    def test_closed_loop_against_engine(self, engine):
        schedule = synthesize_schedule(_log_records(), num_requests=20, seed=3)
        report = run_schedule(schedule, EngineTarget(engine), concurrency=4)
        assert report.completed == 20
        assert report.errors == 0
        assert report.throughput_qps > 0
        assert set(report.latency) == {"p50_ms", "p95_ms", "p99_ms", "mean_ms"}

    def test_results_digest_is_deterministic(self, engine):
        schedule = synthesize_schedule(_log_records(), num_requests=20, seed=3)
        first = run_schedule(schedule, EngineTarget(engine), concurrency=4)
        second = run_schedule(
            schedule, EngineTarget(Engine.from_triples(TRIPLES)), concurrency=2
        )
        assert first.results_digest == second.results_digest

    def test_open_loop_runs_to_completion(self, engine):
        schedule = synthesize_schedule(
            _log_records(), num_requests=10, seed=3, mode="open", rate_qps=2000.0
        )
        report = run_schedule(schedule, EngineTarget(engine), concurrency=4)
        assert report.completed == 10
        assert report.mode == "open"

    def test_router_target_records_serve_entries(self, engine):
        router = Router(engine, ServingConfig(max_concurrent=2, max_queue=8))
        schedule = replay_schedule(_log_records())
        report = run_schedule(schedule, RouterTarget(router), concurrency=2)
        assert report.completed == 7
        serves = [e for e in engine.workload_log.snapshot() if e.kind == "serve"]
        assert len(serves) == 7
        assert all(e.fingerprint.startswith("serve::") for e in serves)

    def test_bad_requests_count_as_errors(self, engine):
        records = [_record(0, {"kind": "spinql", "source": "this is not spinql"})]
        schedule = replay_schedule(records)
        report = run_schedule(schedule, RouterTarget(Router(engine)), concurrency=1)
        assert report.completed == 0
        assert report.errors == 1


class TestEndToEndFromEngineLog:
    def test_recorded_traffic_replays_identically(self, engine):
        for source in SOURCES:
            engine.spinql(source).execute()
        schedule = replay_schedule(engine.workload_log.snapshot())
        assert len(schedule.requests) == 3
        fresh = Engine.from_triples(TRIPLES)
        report = run_schedule(schedule, EngineTarget(fresh), concurrency=2)
        assert report.completed == 3
        assert report.errors == 0
