"""The result cache: a VersionedLRU storing on the first miss, LRU bound,
invalidation, the binding fingerprint and the engine wiring."""

from __future__ import annotations

import pytest

from repro.engine import Engine
from repro.pra.relation import ProbabilisticRelation
from repro.relational.cache import VersionedLRU
from repro.relational.column import DataType
from repro.relational.relation import Relation
from repro.relational.schema import Field, Schema
from repro.workload.cache import binding_fingerprint

TRIPLES = [
    ("lot1", "type", "lot"),
    ("lot2", "type", "lot"),
    ("lot1", "hasAuction", "auction1"),
    ("lot2", "hasAuction", "auction2"),
]

TRAVERSE = "auctions = TRAVERSE ['hasAuction'] (seeds);"


def _relation(rows):
    plain = Relation.from_rows(Schema([Field("x", DataType.STRING)]), rows)
    return ProbabilisticRelation.lift(plain)


@pytest.fixture
def engine():
    return Engine.from_triples(TRIPLES)


class TestBounds:
    def test_lru_eviction_never_exceeds_max_entries(self):
        cache = VersionedLRU(2)
        for index in range(5):
            cache.put((f"fp{index}", ""), _relation([(str(index),)]), dependencies=frozenset())
        assert len(cache) == 2
        assert cache.statistics.evictions == 3
        assert ("fp4", "") in cache and ("fp3", "") in cache


class TestInvalidation:
    def test_invalidate_table_drops_dependent_entries(self):
        cache = VersionedLRU(4)
        cache.put(("a", ""), _relation([("a",)]), dependencies=frozenset({"triples"}))
        cache.put(("b", ""), _relation([("b",)]), dependencies=frozenset({"docs"}))
        assert cache.invalidate_table("triples") == 1
        assert ("a", "") not in cache
        assert ("b", "") in cache
        assert cache.statistics.invalidations == 1

    def test_still_valid_vetoes_the_store(self):
        cache = VersionedLRU(4)
        stored = cache.put(
            ("a", ""), _relation([("a",)]), dependencies=frozenset(), still_valid=lambda: False
        )
        assert stored is False
        assert ("a", "") not in cache

    def test_clear_forces_a_recompute(self, engine):
        first = engine.spinql(TRAVERSE, seeds=["lot1"]).execute()
        engine.result_cache.clear()
        assert len(engine.result_cache) == 0
        again = engine.spinql(TRAVERSE, seeds=["lot1"]).execute()
        assert again is not first
        assert again.value_rows() == first.value_rows()
        statuses = [entry.result_cache for entry in engine.workload_log.snapshot()]
        assert statuses == ["miss", "miss"]
        assert engine.spinql(TRAVERSE, seeds=["lot1"]).execute() is again


class TestBindingFingerprint:
    def test_empty_bindings(self):
        assert binding_fingerprint(None) == ""
        assert binding_fingerprint({}) == ""

    def test_sorted_and_content_based(self):
        a, b = _relation([("a",)]), _relation([("b",)])
        forward = binding_fingerprint({"x": a, "y": b})
        backward = binding_fingerprint({"y": b, "x": a})
        assert forward == backward
        assert binding_fingerprint({"x": a}) != binding_fingerprint({"x": b})

    def test_same_content_same_fingerprint(self):
        assert binding_fingerprint({"x": _relation([("a",)])}) == binding_fingerprint(
            {"x": _relation([("a",)])}
        )


class TestEngineWiring:
    def test_second_execution_returns_the_cached_object(self, engine):
        first = engine.spinql(TRAVERSE, seeds=["lot1"]).execute()
        second = engine.spinql(TRAVERSE, seeds=["lot1"]).execute()
        assert second is first  # stored on the first miss: the identical object
        assert engine.result_cache.statistics.hits == 1
        assert engine.result_cache.statistics.misses == 1

    def test_third_execution_returns_the_cached_object(self, engine):
        results = [engine.spinql(TRAVERSE, seeds=["lot1"]).execute() for _ in range(3)]
        assert results[2] is results[1] is results[0]  # a hit does not re-store
        assert engine.result_cache.statistics.hits == 2
        assert engine.result_cache.statistics.misses == 1
        assert len(engine.result_cache) == 1

    def test_distinct_bindings_are_distinct_entries(self, engine):
        lot1 = engine.spinql(TRAVERSE, seeds=["lot1"]).execute()
        lot2 = engine.spinql(TRAVERSE, seeds=["lot2"]).execute()
        assert lot1.value_rows() == [("auction1",)]
        assert lot2.value_rows() == [("auction2",)]
        assert len(engine.result_cache) == 2
        assert engine.spinql(TRAVERSE, seeds=["lot2"]).execute() is lot2
        assert engine.spinql(TRAVERSE, seeds=["lot1"]).execute() is lot1
        statuses = [entry.result_cache for entry in engine.workload_log.snapshot()]
        assert statuses == ["miss", "miss", "hit", "hit"]

    def test_result_cache_size_bounds_the_engine_cache(self):
        engine = Engine.from_triples(TRIPLES, result_cache_size=1)
        assert engine.result_cache.max_entries == 1
        engine.spinql(TRAVERSE, seeds=["lot1"]).execute()
        engine.spinql(TRAVERSE, seeds=["lot2"]).execute()
        assert len(engine.result_cache) == 1
        assert engine.result_cache.statistics.evictions == 1
        result = engine.spinql(TRAVERSE, seeds=["lot1"]).execute()  # evicted: recomputed
        assert result.value_rows() == [("auction1",)]
        statuses = [entry.result_cache for entry in engine.workload_log.snapshot()]
        assert statuses == ["miss", "miss", "miss"]

    def test_cached_result_is_bit_identical(self, engine):
        baseline = Engine.from_triples(TRIPLES, result_cache_size=None)
        for _ in range(3):
            cached = engine.spinql(TRAVERSE, seeds=["lot1"]).execute()
            plain = baseline.spinql(TRAVERSE, seeds=["lot1"]).execute()
            assert cached.value_rows() == plain.value_rows()
            assert list(cached.probabilities()) == list(plain.probabilities())

    def test_reload_invalidates_cached_results(self, engine):
        for _ in range(3):
            engine.spinql(TRAVERSE, seeds=["lot1"]).execute()
        assert len(engine.result_cache) == 1
        engine.load_triples([("lot1", "hasAuction", "auction9")])
        result = engine.spinql(TRAVERSE, seeds=["lot1"]).execute()
        assert sorted(result.value_rows()) == [("auction1",), ("auction9",)]

    def test_result_computed_across_a_table_replace_is_not_cached(self, engine):
        """Regression: a result computed on the old triples was stored after the
        replace had invalidated the result cache, and then served forever."""
        triples = engine.database.table(engine.triples_table)
        renamed = Relation.from_rows(
            triples.schema,
            [
                tuple("auction9" if value == "auction1" else value for value in row)
                for row in triples.rows()
            ],
        )
        executor = engine._plan_executor
        execute_plan = executor.execute_plan

        def execute_while_a_writer_replaces_the_triples(plan, bindings, record=None):
            result = execute_plan(plan, bindings, record)
            engine.create_table(engine.triples_table, renamed, replace=True)
            return result

        executor.execute_plan = execute_while_a_writer_replaces_the_triples
        racing = engine.spinql(TRAVERSE, seeds=["lot1"]).execute()  # the racing reader
        executor.execute_plan = execute_plan
        assert racing.value_rows() == [("auction1",)]  # computed before the write
        statuses = [entry.result_cache for entry in engine.workload_log.snapshot()]
        assert statuses == ["bypass"]  # the still_valid veto is logged as a bypass
        assert len(engine.result_cache) == 0
        for _ in range(2):
            result = engine.spinql(TRAVERSE, seeds=["lot1"]).execute()
            assert result.value_rows() == [("auction9",)]

    def test_result_cache_can_be_disabled(self):
        engine = Engine.from_triples(TRIPLES, result_cache_size=None)
        assert engine.result_cache is None
        for _ in range(3):
            engine.spinql(TRAVERSE, seeds=["lot1"]).execute()
        statuses = [e.result_cache for e in engine.workload_log.snapshot()]
        assert statuses == [None, None, None]
