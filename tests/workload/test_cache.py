"""The adaptive result cache: admission, LRU bound, invalidation, engine wiring."""

from __future__ import annotations

import pytest

from repro.engine import Engine
from repro.pra.relation import ProbabilisticRelation
from repro.relational.column import DataType
from repro.relational.relation import Relation
from repro.relational.schema import Field, Schema
from repro.workload.cache import ResultCache, binding_fingerprint

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


class TestAdmission:
    def test_first_sighting_is_bypassed_second_admitted(self):
        cache = ResultCache(max_entries=4)
        value = _relation([("a",)])
        assert cache.store(("fp", ""), value) is False
        assert cache.bypassed == 1
        assert len(cache) == 0
        assert cache.store(("fp", ""), value) is True
        assert cache.admitted == 1
        assert cache.lookup(("fp", "")) is value

    def test_distinct_bindings_share_the_sighting_count(self):
        cache = ResultCache(max_entries=4)
        value = _relation([("a",)])
        assert cache.store(("fp", "x=1"), value) is False
        # same plan fingerprint, different bindings: second sighting admits
        assert cache.store(("fp", "x=2"), value) is True

    def test_threshold_one_admits_immediately(self):
        cache = ResultCache(max_entries=4, admission_threshold=1)
        assert cache.store(("fp", ""), _relation([("a",)])) is True


class TestBounds:
    def test_lru_eviction_never_exceeds_max_entries(self):
        cache = ResultCache(max_entries=2, admission_threshold=1)
        for index in range(5):
            cache.store((f"fp{index}", ""), _relation([(str(index),)]))
        assert len(cache) == 2
        assert cache.statistics.evictions == 3
        assert ("fp4", "") in cache and ("fp3", "") in cache

    def test_sightings_tracker_is_bounded(self):
        cache = ResultCache(max_entries=4)
        for index in range(1000):
            cache.store((f"fp{index}", ""), _relation([("a",)]))
        assert len(cache._sightings) <= cache._sightings_capacity


class TestInvalidation:
    def test_invalidate_table_drops_dependent_entries(self):
        cache = ResultCache(max_entries=4, admission_threshold=1)
        cache.store(("a", ""), _relation([("a",)]), dependencies=frozenset({"triples"}))
        cache.store(("b", ""), _relation([("b",)]), dependencies=frozenset({"docs"}))
        assert cache.invalidate_table("triples") == 1
        assert ("a", "") not in cache
        assert ("b", "") in cache
        assert cache.statistics.invalidations == 1

    def test_clear_resets_entries_and_sightings(self):
        cache = ResultCache(max_entries=4, admission_threshold=1)
        cache.store(("a", ""), _relation([("a",)]))
        cache.clear()
        assert len(cache) == 0
        # sightings were cleared too: the next store starts from scratch
        cache2 = ResultCache(max_entries=4)
        cache2.store(("a", ""), _relation([("a",)]))
        cache2.clear()
        assert cache2.store(("a", ""), _relation([("a",)])) is False


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
    def test_third_execution_returns_the_cached_object(self, engine):
        first = engine.spinql(TRAVERSE, seeds=["lot1"]).execute()
        second = engine.spinql(TRAVERSE, seeds=["lot1"]).execute()
        third = engine.spinql(TRAVERSE, seeds=["lot1"]).execute()
        assert third is second  # served from cache: the identical object
        assert first is not second
        assert engine.result_cache.statistics.hits == 1

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
        assert engine.spinql(TRAVERSE, seeds=["lot1"]).execute().value_rows() == [
            ("auction1",)
        ]  # the first sighting
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

        def execute_while_a_writer_replaces_the_triples(plan, bindings):
            result = execute_plan(plan, bindings)
            engine.create_table(engine.triples_table, renamed, replace=True)
            return result

        executor.execute_plan = execute_while_a_writer_replaces_the_triples
        engine.spinql(TRAVERSE, seeds=["lot1"]).execute()  # the racing reader
        executor.execute_plan = execute_plan
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
