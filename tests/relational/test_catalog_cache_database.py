"""Unit tests for the catalog, the shared cache class and the database facade."""

import pytest

from repro.errors import CatalogError
from repro.relational.algebra import Aggregate, AggregateSpec, Scan, Select
from repro.relational.cache import VersionedLRU
from repro.relational.catalog import Catalog
from repro.relational.column import DataType
from repro.relational.database import Database
from repro.relational.expressions import col, lit
from repro.relational.relation import Relation
from repro.relational.schema import Field, Schema


def small_relation(rows=((1, "a"), (2, "b"))):
    schema = Schema([Field("id", DataType.INT), Field("label", DataType.STRING)])
    return Relation.from_rows(schema, rows)


class TestCatalog:
    def test_create_and_lookup_table(self):
        catalog = Catalog()
        catalog.create_table("t", small_relation())
        assert catalog.has_table("t")
        assert catalog.table("t").num_rows == 2
        assert catalog.exists("t")

    def test_duplicate_name_rejected(self):
        catalog = Catalog()
        catalog.create_table("t", small_relation())
        with pytest.raises(CatalogError):
            catalog.create_table("t", small_relation())

    def test_replace_allows_overwrite(self):
        catalog = Catalog()
        catalog.create_table("t", small_relation())
        catalog.create_table("t", small_relation(rows=((3, "c"),)), replace=True)
        assert catalog.table("t").num_rows == 1

    def test_view_registration_and_resolution(self):
        catalog = Catalog()
        catalog.create_table("t", small_relation())
        catalog.create_view("v", Scan("t"))
        assert catalog.has_view("v")
        assert isinstance(catalog.resolve("v"), Scan)
        assert catalog.view_names() == ["v"]
        assert catalog.table_names() == ["t"]

    def test_view_replaces_table_of_same_name(self):
        catalog = Catalog()
        catalog.create_table("x", small_relation())
        catalog.create_view("x", Scan("t"), replace=True)
        assert catalog.has_view("x")
        assert not catalog.has_table("x")

    def test_drop(self):
        catalog = Catalog()
        catalog.create_table("t", small_relation())
        catalog.drop_table("t")
        assert not catalog.exists("t")
        with pytest.raises(CatalogError):
            catalog.drop_table("t")
        with pytest.raises(CatalogError):
            catalog.drop_view("v")

    def test_unknown_lookups_raise(self):
        catalog = Catalog()
        with pytest.raises(CatalogError):
            catalog.table("nope")
        with pytest.raises(CatalogError):
            catalog.view("nope")
        with pytest.raises(CatalogError):
            catalog.resolve("nope")


class TestVersionedLRU:
    """The contract of the one cache class under the plan, result and
    materialization caches."""

    def test_lru_order_and_bound(self):
        cache = VersionedLRU(max_entries=2)
        cache.put("a", 1, dependencies=frozenset())
        cache.put("b", 2, dependencies=frozenset())
        assert cache.get("a") == 1  # touch 'a' so 'b' becomes the eviction victim
        assert cache.keys() == ["b", "a"]
        cache.put("c", 3, dependencies=frozenset())
        assert cache.keys() == ["a", "c"]
        assert "b" not in cache
        assert len(cache) == 2
        assert cache.statistics.evictions == 1
        assert VersionedLRU().put("k", 1, dependencies=frozenset())  # unbounded

    def test_dependency_invalidation_and_clear(self):
        cache = VersionedLRU()
        cache.put("on_t", 1, dependencies=frozenset({"t", "v"}))
        cache.put("on_u", 2, dependencies=frozenset({"u"}))
        assert cache.invalidate_table("t") == 1
        assert "on_t" not in cache
        assert cache.get("on_u") == 2
        assert cache.invalidate_table("nothing") == 0
        cache.clear()
        assert len(cache) == 0
        assert cache.statistics.invalidations == 2
        assert cache.statistics.entries == 0

    def test_counters_and_to_dict(self):
        cache = VersionedLRU()
        assert cache.statistics.hit_rate == 0.0
        assert cache.get("k") is None
        cache.put("k", "v", dependencies=frozenset({"t"}))
        assert "k" in cache  # membership is not a lookup
        assert cache.get("k") == "v"
        assert cache.statistics.lookups == 2
        assert cache.statistics.to_dict() == {
            "hits": 1,
            "misses": 1,
            "invalidations": 0,
            "evictions": 0,
            "entries": 1,
            "hit_rate": pytest.approx(0.5),
        }

    def test_still_valid_false_drops_the_store(self):
        cache = VersionedLRU()
        assert cache.put("stale", 1, dependencies=frozenset(), still_valid=lambda: False) is False
        assert "stale" not in cache
        assert cache.statistics.entries == 0
        assert cache.put("fresh", 2, dependencies=frozenset(), still_valid=lambda: True) is True
        assert cache.get("fresh") == 2


class TestMaterializationCache:
    """``Database.cache``: plan results keyed by plan fingerprint."""

    def test_miss_then_hit(self):
        db = Database()
        db.create_table("t", small_relation())
        plan = Scan("t")
        assert db.cache.get(plan.fingerprint()) is None
        db.execute(plan)
        assert db.cache.get(plan.fingerprint()) is not None
        assert db.cache.statistics.hits == 1
        assert db.cache.statistics.misses == 2
        assert db.cache.statistics.hit_rate == pytest.approx(1 / 3)

    def test_contains_does_not_update_statistics(self):
        db = Database()
        db.create_table("t", small_relation())
        plan = Scan("t")
        db.execute(plan)
        lookups = db.cache.statistics.lookups
        assert plan.fingerprint() in db.cache
        assert db.cache.statistics.lookups == lookups

    def test_invalidate_table_removes_dependent_entries(self):
        db = Database()
        db.create_table("t", small_relation())
        db.create_table("u", small_relation())
        dependent = Select(Scan("t"), col("id").eq(lit(1)))
        independent = Scan("u")
        db.execute(dependent)
        db.execute(independent)
        removed = db.cache.invalidate_table("t")
        assert removed == 1
        assert dependent.fingerprint() not in db.cache
        assert independent.fingerprint() in db.cache

    def test_clear(self):
        db = Database()
        db.create_table("t", small_relation())
        db.execute(Scan("t"))
        db.cache.clear()
        assert len(db.cache) == 0

    def test_lru_eviction(self):
        cache: VersionedLRU[str, Relation] = VersionedLRU(max_entries=2)
        for name in ("a", "b"):
            cache.put(Scan(name).fingerprint(), small_relation(), dependencies=frozenset({name}))
        cache.get(Scan("a").fingerprint())  # touch 'a' so 'b' becomes the eviction victim
        cache.put(Scan("c").fingerprint(), small_relation(), dependencies=frozenset({"c"}))
        assert cache.get(Scan("a").fingerprint()) is not None
        assert cache.get(Scan("b").fingerprint()) is None
        assert cache.get(Scan("c").fingerprint()) is not None


class TestDatabase:
    def test_execute_caches_results(self):
        db = Database()
        db.create_table("t", small_relation())
        plan = Select(Scan("t"), col("id").eq(lit(1)))
        db.execute(plan)
        db.execute(plan)
        assert db.cache.statistics.hits >= 1

    def test_cache_invalidated_on_table_update(self):
        db = Database()
        db.create_table("t", small_relation())
        plan = Aggregate(Scan("t"), [], [AggregateSpec("count", None, "n")])
        first = db.execute(plan)
        assert first.to_dicts()[0]["n"] == 2
        db.create_table("t", small_relation(rows=((1, "a"),)), replace=True)
        second = db.execute(plan)
        assert second.to_dicts()[0]["n"] == 1

    def test_cache_can_be_disabled_per_call(self):
        db = Database()
        db.create_table("t", small_relation())
        plan = Scan("t")
        db.execute(plan, use_cache=False)
        assert db.cache.statistics.lookups == 0

    def test_query_and_materialize_view(self):
        db = Database()
        db.create_table("t", small_relation())
        db.create_view("only_one", Select(Scan("t"), col("id").eq(lit(1))))
        assert db.query("only_one").num_rows == 1
        materialized = db.materialize_view("only_one")
        assert materialized.num_rows == 1
        assert Scan("only_one").fingerprint() in db.cache

    def test_clear_cache(self):
        db = Database()
        db.create_table("t", small_relation())
        db.execute(Scan("t"))
        db.clear_cache()
        assert len(db.cache) == 0

    def test_table_and_view_names(self):
        db = Database()
        db.create_table("t", small_relation())
        db.create_view("v", Scan("t"))
        assert db.table_names() == ["t"]
        assert db.view_names() == ["v"]

    def test_drop_table_and_view(self):
        db = Database()
        db.create_table("t", small_relation())
        db.create_view("v", Scan("t"))
        db.drop_view("v")
        db.drop_table("t")
        assert db.table_names() == []
        assert db.view_names() == []

    def test_create_table_from_dicts(self):
        db = Database()
        schema = Schema.of(a=DataType.INT)
        db.create_table_from_dicts("t", schema, [{"a": 1}, {"a": 2}])
        assert db.table("t").num_rows == 2

    def test_result_computed_across_a_table_replace_is_not_cached(self):
        """Regression: a result computed on the old table was inserted after the
        replace had invalidated the cache, and then served forever."""
        db = Database()
        db.create_table("t", small_relation())
        replacement = small_relation(((7, "x"),))
        execute = db._executor.execute

        def execute_while_a_writer_replaces_the_table(plan):
            result = execute(plan)
            db.create_table("t", replacement, replace=True)
            return result

        db._executor.execute = execute_while_a_writer_replaces_the_table
        assert db.query("t").num_rows == 2  # the racing reader may see the old table
        db._executor.execute = execute
        assert list(db.query("t").rows()) == [(7, "x")]

    def test_catalog_version_counts_definition_changes_only(self):
        catalog = Catalog()
        catalog.create_lazy_table("lazy", small_relation)
        after_create = catalog.version
        catalog.table("lazy")  # hydration changes no content
        assert catalog.version == after_create
        catalog.create_table("t", small_relation())
        catalog.create_view("v", Scan("t"))
        catalog.drop_view("v")
        catalog.drop_table("t")
        catalog.release()
        assert catalog.version == after_create + 5
