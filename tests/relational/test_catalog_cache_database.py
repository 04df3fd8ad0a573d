"""Unit tests for the catalog, the materialization cache and the database facade."""

import pytest

from repro.errors import CatalogError
from repro.relational.algebra import Aggregate, AggregateSpec, Scan, Select
from repro.relational.cache import MaterializationCache
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


class TestMaterializationCache:
    def test_miss_then_hit(self):
        cache = MaterializationCache()
        plan = Scan("t")
        assert cache.get(plan) is None
        cache.put(plan, small_relation())
        assert cache.get(plan) is not None
        assert cache.statistics.hits == 1
        assert cache.statistics.misses == 1
        assert cache.statistics.hit_rate == pytest.approx(0.5)

    def test_contains_does_not_update_statistics(self):
        cache = MaterializationCache()
        plan = Scan("t")
        cache.put(plan, small_relation())
        assert cache.contains(plan)
        assert cache.statistics.lookups == 0

    def test_invalidate_table_removes_dependent_entries(self):
        cache = MaterializationCache()
        dependent = Select(Scan("t"), col("id").eq(lit(1)))
        independent = Scan("u")
        cache.put(dependent, small_relation())
        cache.put(independent, small_relation())
        removed = cache.invalidate_table("t")
        assert removed == 1
        assert cache.get(dependent) is None
        assert cache.get(independent) is not None

    def test_clear(self):
        cache = MaterializationCache()
        cache.put(Scan("t"), small_relation())
        cache.clear()
        assert len(cache) == 0

    def test_lru_eviction(self):
        cache = MaterializationCache(max_entries=2)
        cache.put(Scan("a"), small_relation())
        cache.put(Scan("b"), small_relation())
        cache.get(Scan("a"))  # touch 'a' so 'b' becomes the eviction victim
        cache.put(Scan("c"), small_relation())
        assert cache.get(Scan("a")) is not None
        assert cache.get(Scan("b")) is None
        assert cache.get(Scan("c")) is not None

    def test_size_counters(self):
        cache = MaterializationCache()
        cache.put(Scan("a"), small_relation())
        assert cache.statistics.entries == 1
        assert cache.statistics.cached_rows == 2


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
        assert db.cache.contains(Scan("only_one"))

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
