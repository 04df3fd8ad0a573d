"""The workload log: bounded ring buffer, JSONL sink, summaries, engine wiring."""

from __future__ import annotations

import json

import pytest

from repro.engine import Engine
from repro.workload.log import (
    RECORD_SCHEMA_VERSION,
    WorkloadLog,
    WorkloadRecord,
    latency_percentiles,
    load_records,
    summarize,
    top_fingerprints,
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

TRAVERSE = "auctions = TRAVERSE ['hasAuction'] (seeds);"


@pytest.fixture
def engine():
    return Engine.from_triples(TRIPLES)


class TestRingBuffer:
    def test_capacity_bounds_the_buffer(self):
        log = WorkloadLog(capacity=4)
        for index in range(10):
            log.record("plan", f"plan::{index}", 1.0)
        stats = log.statistics()
        assert stats["size"] == 4
        assert stats["appended"] == 10
        assert stats["evicted"] == 6
        # the ring keeps the newest records
        assert [entry.fingerprint for entry in log.snapshot()] == [
            "plan::6",
            "plan::7",
            "plan::8",
            "plan::9",
        ]

    def test_sequence_numbers_are_monotonic(self):
        log = WorkloadLog(capacity=8)
        for _ in range(5):
            log.record("plan", "plan::x", 1.0)
        seqs = [entry.seq for entry in log.snapshot()]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)

    def test_records_carry_the_schema_version(self):
        log = WorkloadLog()
        log.record("plan", "plan::x", 1.0)
        assert log.snapshot()[0].to_dict()["v"] == RECORD_SCHEMA_VERSION


class TestJsonlRoundtrip:
    def test_export_and_load(self, tmp_path):
        log = WorkloadLog(capacity=16)
        log.record("plan", "plan::a", 2.0, rows_out=3, parameters={"seeds": ["lot1"]})
        log.record("search", "search::docs::oak", 1.0, rows_out=2, status="ok")
        path = tmp_path / "log.jsonl"
        log.export(path)
        loaded = load_records(path)
        assert [entry.fingerprint for entry in loaded] == [
            "plan::a",
            "search::docs::oak",
        ]
        assert loaded[0].parameters == {"seeds": ["lot1"]}

    def test_sink_appends_while_recording(self, tmp_path):
        path = tmp_path / "sink.jsonl"
        log = WorkloadLog(capacity=2)
        log.attach_sink(path)
        for index in range(5):
            log.record("plan", f"plan::{index}", 1.0)
        log.close()
        # the sink is unbounded even though the ring evicts
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 5
        assert json.loads(lines[0])["fingerprint"] == "plan::0"

    @pytest.mark.parametrize(
        "extra",
        [
            {"some_future_field": 42},
            # a v2 line from a router that still collapsed requests (before 5.0)
            {"kind": "serve", "v": 2, "collapsed": "follower"},
            # a v2 line from an engine that still estimated plan costs (before 8.0)
            {"v": 2, "cost_units": {"scan": 8.0, "select": 8.0}},
        ],
    )
    def test_unknown_and_old_fields_load_and_summarize(self, tmp_path, extra):
        path = tmp_path / "log.jsonl"
        record = WorkloadRecord(seq=1, kind="plan", fingerprint="plan::x", latency_ms=1.0)
        payload = {**record.to_dict(), **extra}
        path.write_text(json.dumps(payload) + "\n")
        loaded = load_records(path)
        assert len(loaded) == 1
        assert loaded[0].fingerprint == "plan::x"
        assert loaded[0].collapsed == extra.get("collapsed")
        assert loaded[0].cost_units == extra.get("cost_units", {})
        summary = summarize(loaded)
        assert summary["records"] == 1
        assert summary["collapsed"]["followers"] == (1 if "collapsed" in extra else 0)


    def test_old_cost_units_survive_a_reexport(self, tmp_path):
        old = WorkloadRecord(
            seq=1, kind="plan", fingerprint="plan::x", latency_ms=1.0,
            cost_units={"scan": 8.0, "select": 8.0},
        )
        source = tmp_path / "old.jsonl"
        source.write_text(json.dumps(old.to_dict()) + "\n")
        log = WorkloadLog(sink=tmp_path / "copy.jsonl")
        for entry in load_records(source):
            log.record(
                entry.kind, entry.fingerprint, entry.latency_ms, cost_units=entry.cost_units
            )
        log.close()
        (line,) = (tmp_path / "copy.jsonl").read_text().splitlines()
        assert json.loads(line)["v"] == RECORD_SCHEMA_VERSION == 2
        (copied,) = load_records(tmp_path / "copy.jsonl")
        assert copied.cost_units == {"scan": 8.0, "select": 8.0}


class TestSummaries:
    def _records(self):
        return [
            WorkloadRecord(seq=1, kind="plan", fingerprint="plan::a", latency_ms=1.0),
            WorkloadRecord(seq=2, kind="plan", fingerprint="plan::a", latency_ms=3.0),
            WorkloadRecord(seq=3, kind="plan", fingerprint="plan::b", latency_ms=2.0),
            WorkloadRecord(
                seq=4, kind="search", fingerprint="search::x", latency_ms=4.0,
                status="error",
            ),
        ]

    def test_summarize_shape(self):
        summary = summarize(self._records())
        assert summary["records"] == 4
        assert summary["by_kind"] == {"plan": 3, "search": 1}
        assert summary["by_status"] == {"ok": 3, "error": 1}
        assert set(summary["latency"]) == {"p50_ms", "p95_ms", "p99_ms", "mean_ms"}
        assert summary["top_fingerprints"][0]["fingerprint"] == "plan::a"
        assert summary["top_fingerprints"][0]["count"] == 2

    def test_top_fingerprints_orders_by_count_then_name(self):
        ranked = top_fingerprints(self._records(), 10)
        assert [item["fingerprint"] for item in ranked] == [
            "plan::a",
            "plan::b",
            "search::x",
        ]

    def test_percentiles_on_known_data(self):
        # 0..100 inclusive: percentile indices land exactly on their values
        stats = latency_percentiles([float(v) for v in range(101)])
        assert stats["p50_ms"] == 50.0
        assert stats["p95_ms"] == 95.0
        assert stats["p99_ms"] == 99.0
        assert stats["mean_ms"] == 50.0

    def test_percentiles_empty(self):
        stats = latency_percentiles([])
        assert stats["p50_ms"] == 0.0


class TestEngineWiring:
    def test_execute_appends_plan_records(self, engine):
        engine.spinql(TRAVERSE, seeds=["lot1"]).execute()
        records = engine.workload_log.snapshot()
        assert len(records) == 1
        entry = records[0]
        assert entry.kind == "plan"
        assert entry.fingerprint.startswith("plan::")
        assert entry.rows_out == 1
        assert entry.latency_ms > 0
        assert entry.request == {"kind": "spinql", "source": TRAVERSE}
        assert entry.cost_units == {}  # kept in the schema, never set since 8.0

    @pytest.mark.parametrize("kind", ["spinql", "builder", "search", "strategy"])
    def test_no_record_carries_cost_units(self, engine, tmp_path, kind):
        engine.store.register_docs_view(
            "docs", filter_property="type", filter_value="lot",
            text_property="material",
        )
        if kind == "spinql":
            engine.spinql(TRAVERSE, seeds=["lot1"]).execute()
        elif kind == "builder":
            engine.table("triples").where(property="material").execute()
        elif kind == "search":
            engine.search("docs", "oak").execute()
        else:
            engine.strategy("toy", query="oak").execute()
        records = engine.workload_log.snapshot()
        assert records and all(entry.cost_units == {} for entry in records)
        exported = load_records(engine.workload_log.export(tmp_path / "log.jsonl"))
        assert [entry.cost_units for entry in exported] == [{}] * len(records)

    def test_result_cache_statuses_progress(self, engine):
        for _ in range(3):
            engine.spinql(TRAVERSE, seeds=["lot1"]).execute()
        statuses = [entry.result_cache for entry in engine.workload_log.snapshot()]
        # stored on the first miss, served from cache after
        assert statuses == ["miss", "hit", "hit"]

    def test_search_appends_search_records(self, engine):
        engine.store.register_docs_view(
            "docs", filter_property="type", filter_value="lot",
            text_property="material",
        )
        engine.search("docs", "oak").execute()
        records = [e for e in engine.workload_log.snapshot() if e.kind == "search"]
        assert len(records) == 1
        assert records[0].fingerprint == "search::docs::oak"
        assert records[0].request == {"kind": "search", "table": "docs", "query": "oak"}
        assert records[0].rows_out == 2

    def test_statz_surface_in_connect_info(self, engine):
        engine.spinql(TRAVERSE, seeds=["lot1"]).execute()
        info = engine.connect_info()
        assert info["workload_log"]["appended"] == 1
        assert info["result_cache"]["misses"] == 1
        assert info["result_cache"]["entries"] == 1
