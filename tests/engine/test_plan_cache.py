"""Plan-cache behaviour: hits on repeated parameterized queries, invalidation.

The acceptance criterion of the facade is that repeated parameterized
``Query`` executions skip compile+optimize entirely — observable through the
cache-stats counters asserted here.
"""

import pytest

from repro.engine import Engine
from repro.errors import PRAError
from repro.relational.cache import VersionedLRU

TRIPLES = [
    ("lot1", "type", "lot"),
    ("lot2", "type", "lot"),
    ("lot1", "hasAuction", "auction1"),
    ("lot2", "hasAuction", "auction2"),
    ("lot1", "material", "oak", 0.9),
]

TRAVERSE = "auctions = TRAVERSE ['hasAuction'] (seeds);"


@pytest.fixture
def engine():
    return Engine.from_triples(TRIPLES)


class TestParameterizedReuse:
    def test_same_source_different_bindings_hits_cache(self, engine):
        first = engine.spinql(TRAVERSE, seeds=["lot1"])
        assert first.execute().value_rows() == [("auction1",)]
        stats = engine.plan_cache.statistics
        hits, misses = stats.hits, stats.misses

        second = engine.spinql(TRAVERSE, seeds=["lot2"])
        assert second.execute().value_rows() == [("auction2",)]
        assert stats.hits == hits + 1
        assert stats.misses == misses  # no recompilation

    def test_execute_many_compiles_once(self, engine):
        query = engine.spinql(TRAVERSE, seeds=[])
        stats = engine.plan_cache.statistics
        misses_before = stats.misses
        results = query.execute_many(
            [{"seeds": ["lot1"]}, {"seeds": ["lot2"]}, {"seeds": ["lot1", "lot2"]}]
        )
        assert [result.num_rows for result in results] == [1, 1, 2]
        # one miss for the initial compile; every further execution hits
        assert stats.misses == misses_before + 1
        assert stats.hits >= 2

    def test_plan_fingerprint_independent_of_binding_values(self, engine):
        a = engine.spinql(TRAVERSE, seeds=["lot1"])
        b = engine.spinql(TRAVERSE, seeds=[("lot2", 0.5)])
        assert a.plan.fingerprint() == b.plan.fingerprint()

    def test_unbound_parameter_raises(self, engine):
        query = engine.spinql(TRAVERSE, seeds=["lot1"])
        bare = engine.spinql(TRAVERSE)  # no binding: 'seeds' scans a table
        with pytest.raises(Exception):
            bare.execute()
        # the parameterized plan without a binding at execute time is an error
        program = engine._compile_spinql(TRAVERSE, frozenset({"seeds"}))
        with pytest.raises(PRAError, match="unbound plan parameter"):
            engine._evaluate(program.optimized, {})
        assert query.execute(seeds=["lot2"]).num_rows == 1

    def test_builder_plans_share_optimizer_cache(self, engine):
        chain = engine.table("triples").where(property="type", object="lot").select("subject")
        chain.execute()
        stats = engine.plan_cache.statistics
        hits_before = stats.hits
        chain.execute()
        assert stats.hits == hits_before + 1  # optimized plan reused


class TestInvalidation:
    def test_reload_invalidates_dependent_plans(self, engine):
        query = engine.spinql(TRAVERSE, seeds=["lot1"])
        query.execute()
        stats = engine.plan_cache.statistics
        assert stats.entries > 0
        invalidations_before = stats.invalidations
        engine.load_triples([("lot3", "hasAuction", "auction3")])
        assert stats.invalidations > invalidations_before
        # the query transparently recompiles and sees the new data
        assert query.execute(seeds=["lot3"]).value_rows() == [("auction3",)]

    def test_load_a_reader_triggers_invalidates_cached_results(self):
        engine = Engine.from_triples(
            [
                ("lot1", "type", "lot"),
                ("auction1", "type", "auction"),
                ("lot1", "hasAuction", "auction1"),
            ]
        )
        select = 'hits = SELECT [$2="type"] (triples);'
        for _ in range(3):  # seen often enough for the result cache to admit it
            assert engine.spinql(select).execute().num_rows == 2
        assert engine.result_cache.statistics.hits > 0
        engine.add_triples([("lot2", "type", "lot")])
        engine.store.ensure_loaded()  # what every strategy run calls
        assert engine.database.table("triples").num_rows == 4
        assert engine.spinql(select).execute().num_rows == 3
        assert engine.store.counters()["appends"] == 1

    def test_unrelated_table_does_not_invalidate(self, engine):
        query = engine.spinql(TRAVERSE, seeds=["lot1"])
        query.execute()
        stats = engine.plan_cache.statistics
        invalidations_before = stats.invalidations
        entries_before = stats.entries
        from repro.relational.column import DataType
        from repro.relational.relation import Relation
        from repro.relational.schema import Field, Schema

        unrelated = Relation.from_rows(
            Schema([Field("x", DataType.STRING)]), [("a",), ("b",)]
        )
        engine.create_table("unrelated", unrelated)
        assert stats.invalidations == invalidations_before
        assert stats.entries == entries_before

    def test_search_statistics_invalidate_on_reload(self, engine):
        engine.store.register_docs_view(
            "docs",
            filter_property="type",
            filter_value="lot",
            text_property="material",
        )
        warm = engine.search("docs", "oak").execute()
        assert not warm.statistics_were_cached
        hot = engine.search("docs", "oak").execute()
        assert hot.statistics_were_cached
        engine.load_triples([("lot3", "type", "lot"), ("lot3", "material", "oak", 0.5)])
        cold_again = engine.search("docs", "oak").execute()
        assert not cold_again.statistics_were_cached


class TestPlanCacheUnit:
    """``Engine.plan_cache`` is a bounded :class:`VersionedLRU`."""

    def test_lru_bound(self):
        cache = VersionedLRU(max_entries=2)
        cache.put("a", 1, dependencies=frozenset())
        cache.put("b", 2, dependencies=frozenset())
        cache.put("c", 3, dependencies=frozenset())
        assert len(cache) == 2
        assert cache.get("a") is None
        assert cache.get("c") == 3

    def test_hit_rate_and_counters(self):
        cache = VersionedLRU()
        assert cache.statistics.hit_rate == 0.0
        cache.put("k", "v", dependencies=frozenset({"t"}))
        assert cache.get("k") == "v"
        assert cache.get("missing") is None
        assert cache.statistics.hits == 1
        assert cache.statistics.misses == 1
        assert cache.statistics.hit_rate == 0.5

    def test_invalidate_by_dependency(self):
        cache = VersionedLRU()
        cache.put("k1", 1, dependencies=frozenset({"triples"}))
        cache.put("k2", 2, dependencies=frozenset({"docs"}))
        assert cache.invalidate_table("triples") == 1
        assert "k1" not in cache
        assert "k2" in cache
        assert cache.statistics.invalidations == 1

    def test_clear(self):
        cache = VersionedLRU()
        cache.put("k", 1, dependencies=frozenset())
        cache.clear()
        assert len(cache) == 0
        assert cache.statistics.entries == 0
