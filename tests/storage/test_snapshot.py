"""Unit tests for the columnar snapshot subsystem (repro.storage)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.errors import EngineError, SnapshotVersionError, StorageError
from repro.ir.statistics import build_statistics
from repro.relational.column import Column, DataType
from repro.relational.database import Database
from repro.relational.relation import Relation
from repro.relational.schema import Field, Schema
from repro.storage import (
    FORMAT_VERSION,
    open_relation,
    save_relation,
)
from repro.triples.partitioning import (
    PropertyPartitionedStorage,
    SingleTableStorage,
    TypePartitionedStorage,
)
from repro.triples.triple_store import TripleStore

DOCS = [
    (1, "a book about history"),
    (2, "a cake recipe book"),
    (3, "history of cakes and baking"),
]


def _sample_relation() -> Relation:
    schema = Schema([Field("id", DataType.INT), Field("name", DataType.STRING)])
    return Relation(
        schema,
        [Column([3, 1, 2], DataType.INT), Column(["c", "a", "b"], DataType.STRING)],
    )


# -- database snapshots -------------------------------------------------------


def test_database_open_is_lazy_and_hydrates_on_scan(tmp_path):
    database = Database()
    database.create_table("items", _sample_relation())
    database.save(tmp_path / "db")

    reopened = Database.open(tmp_path / "db")
    assert reopened.table_names() == ["items"]
    assert not reopened.catalog.is_hydrated("items")
    assert reopened.table("items") == _sample_relation()
    assert reopened.catalog.is_hydrated("items")


def test_snapshot_string_column_seeds_factorize_cache(tmp_path):
    save_relation(_sample_relation(), tmp_path / "rel")
    column = open_relation(tmp_path / "rel").column("name")
    codes, dictionary = column.factorize()
    assert dictionary[codes].tolist() == ["c", "a", "b"]
    assert list(dictionary) == sorted(dictionary)


def test_snapshot_numeric_columns_are_memmapped(tmp_path):
    save_relation(_sample_relation(), tmp_path / "rel")
    column = open_relation(tmp_path / "rel").column("id")
    assert isinstance(column.values, np.memmap)


def test_create_table_replaces_lazy_table(tmp_path):
    database = Database()
    database.create_table("items", _sample_relation())
    database.save(tmp_path / "db")
    reopened = Database.open(tmp_path / "db")
    replacement = _sample_relation().head(1)
    reopened.create_table("items", replacement, replace=True)
    assert reopened.table("items") == replacement


# -- error paths --------------------------------------------------------------


def test_open_missing_directory_raises_storage_error(tmp_path):
    with pytest.raises(StorageError) as excinfo:
        open_relation(tmp_path / "nowhere")
    assert "nowhere" in str(excinfo.value)


def test_version_mismatch_mentions_rebuild_or_upgrade(tmp_path):
    save_relation(_sample_relation(), tmp_path / "rel")
    manifest_path = tmp_path / "rel" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["format_version"] = FORMAT_VERSION + 1
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(SnapshotVersionError) as excinfo:
        open_relation(tmp_path / "rel")
    message = str(excinfo.value)
    assert "rebuild" in message and "upgrade" in message


def test_wrong_kind_is_rejected(tmp_path):
    save_relation(_sample_relation(), tmp_path / "rel")
    with pytest.raises(StorageError):
        Database.open(tmp_path / "rel")


def test_engine_open_missing_directory_raises_engine_error(tmp_path):
    from repro.engine import Engine

    with pytest.raises(EngineError) as excinfo:
        Engine.open(tmp_path / "missing")
    assert "missing" in str(excinfo.value)


def test_engine_open_version_mismatch_propagates(tmp_path):
    from repro.engine import Engine

    engine = Engine.from_triples([("s", "p", "o")])
    engine.save(tmp_path / "snap")
    manifest_path = tmp_path / "snap" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["format_version"] = FORMAT_VERSION + 1
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(SnapshotVersionError):
        Engine.open(tmp_path / "snap")


# -- collection statistics ----------------------------------------------------


def test_statistics_round_trip(tmp_path):
    statistics = build_statistics(DOCS)
    statistics.save(tmp_path / "stats")
    reopened = statistics.open(tmp_path / "stats")

    assert reopened.num_docs == statistics.num_docs
    assert reopened.doc_ids == statistics.doc_ids
    assert reopened.total_terms == statistics.total_terms
    assert reopened.term_ids == statistics.term_ids
    assert np.array_equal(reopened.doc_lengths, statistics.doc_lengths)
    for term in statistics.term_ids:
        left_docs, left_freqs = statistics.postings_for(term)
        right_docs, right_freqs = reopened.postings_for(term)
        assert np.array_equal(left_docs, right_docs)
        assert np.array_equal(left_freqs, right_freqs)
        assert reopened.df(term) == statistics.df(term)
        assert reopened.robertson_idf(term) == pytest.approx(statistics.robertson_idf(term))


def test_opened_statistics_postings_are_views_of_the_mapped_buffers(tmp_path):
    statistics = build_statistics(DOCS)
    statistics.save(tmp_path / "stats")
    reopened = statistics.open(tmp_path / "stats")

    assert isinstance(reopened.doc_indices, np.memmap)
    assert isinstance(reopened.frequencies, np.memmap)
    for term in statistics.term_ids:
        doc_indices, frequencies = reopened.postings_for(term)
        assert len(doc_indices) == reopened.df(term) > 0
        assert np.shares_memory(doc_indices, reopened.doc_indices)
        assert np.shares_memory(frequencies, reopened.frequencies)


def test_statistics_relations_match_after_round_trip(tmp_path):
    statistics = build_statistics(DOCS)
    statistics.save(tmp_path / "stats")
    reopened = statistics.open(tmp_path / "stats")
    assert reopened.tf_relation() == statistics.tf_relation()
    assert reopened.idf_relation() == statistics.idf_relation()
    assert reopened.doc_len_relation() == statistics.doc_len_relation()


# -- triple store -------------------------------------------------------------

TRIPLES = [
    ("lot1", "type", "lot"),
    ("lot1", "description", "antique wooden clock"),
    ("lot2", "type", "lot"),
    ("lot2", "description", "modern art print", 0.9),
]


def test_lazy_hydration_is_thread_safe(tmp_path):
    """Concurrent first scans of a lazy table run the loader exactly once."""
    from concurrent.futures import ThreadPoolExecutor

    database = Database()
    database.create_table("items", _sample_relation())
    database.save(tmp_path / "db")

    for _ in range(20):
        reopened = Database.open(tmp_path / "db")
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(lambda _: reopened.table("items"), range(8)))
        assert all(result is results[0] for result in results)
        assert results[0] == _sample_relation()


def test_numpy_scalar_objects_keep_their_types(tmp_path):
    """NumPy scalars tag as int/float/bool, not str (they are legal objects)."""
    store = TripleStore(storage=TypePartitionedStorage())
    store.add("a", "count", np.int64(42))
    store.add("a", "ratio", np.float64(0.5))
    store.add("a", "flag", np.bool_(True))
    store.load()
    store.save(tmp_path / "store")
    store.database.save(tmp_path / "db")

    reopened = TripleStore.open(tmp_path / "store", Database.open(tmp_path / "db"))
    objects = {triple.property: triple.object for triple in reopened._triples}
    assert objects["count"] == 42 and isinstance(objects["count"], int)
    assert objects["ratio"] == 0.5 and isinstance(objects["ratio"], float)
    assert objects["flag"] is True


def test_corrupt_engine_manifest_raises_engine_error(tmp_path):
    """A manifest passing the version check but missing keys must not traceback."""
    from repro.engine import Engine

    engine = Engine.from_triples([("s", "p", "o")])
    engine.save(tmp_path / "snap")
    manifest_path = tmp_path / "snap" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    del manifest["triples_table"]
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(EngineError):
        Engine.open(tmp_path / "snap")


def test_resaving_an_opened_engine_keeps_warm_statistics(tmp_path):
    """open -> save must carry pending (unconsumed) statistics loaders along."""
    from repro.engine import Engine
    from repro.relational.column import Column

    engine = Engine.from_triples([("d1", "p", "o")])
    docs = Relation(
        Schema([Field("docID", DataType.STRING), Field("data", DataType.STRING)]),
        [
            Column(["d1", "d2"], DataType.STRING),
            Column(["wooden train", "toy train"], DataType.STRING),
        ],
    )
    engine.create_table("docs", docs)
    expected = engine.search("docs", "train").top(5)

    engine.save(tmp_path / "a")
    first = Engine.open(tmp_path / "a")
    first.save(tmp_path / "b")  # statistics loader pending, never consumed
    second_manifest = json.loads((tmp_path / "b" / "manifest.json").read_text())
    assert len(second_manifest["search_statistics"]) == 1

    second = Engine.open(tmp_path / "b")
    assert second.search("docs", "train").top(5) == expected


def test_failed_triple_hydration_raises_and_retries(tmp_path):
    """A failing loader must raise every time, never cache an empty store."""
    import shutil

    from repro.engine import Engine

    engine = Engine.from_triples([("s", "p", "o"), ("s2", "p", "o2")])
    engine.save(tmp_path / "snap")
    reopened = Engine.open(tmp_path / "snap")
    shutil.rmtree(tmp_path / "snap" / "store" / "triples")
    with pytest.raises(StorageError):
        reopened.store.num_triples
    with pytest.raises(StorageError):  # retry must not yield an empty store
        reopened.store.num_triples


def test_concurrent_triple_hydration_is_consistent(tmp_path):
    """Racing first accesses all see the fully hydrated triple list."""
    from concurrent.futures import ThreadPoolExecutor

    from repro.engine import Engine

    engine = Engine.from_triples([(f"s{i}", "p", f"o{i}") for i in range(50)])
    engine.save(tmp_path / "snap")
    for _ in range(20):
        reopened = Engine.open(tmp_path / "snap")
        with ThreadPoolExecutor(max_workers=4) as pool:
            counts = list(pool.map(lambda _: reopened.store.num_triples, range(4)))
        assert counts == [50, 50, 50, 50]


def test_save_onto_existing_file_raises_storage_error(tmp_path):
    """mkdir failures surface as StorageError, not a raw OSError traceback."""
    from repro.engine import Engine

    target = tmp_path / "occupied"
    target.write_text("not a directory")
    engine = Engine.from_triples([("s", "p", "o")])
    with pytest.raises(StorageError) as excinfo:
        engine.save(target)
    assert "occupied" in str(excinfo.value)


def test_typed_objects_survive_round_trip_and_reload(tmp_path):
    """Int/float objects keep their types, so re-partitioning after open works."""
    store = TripleStore(storage=TypePartitionedStorage())
    store.add("lot1", "price", 42)
    store.add("lot1", "weight", 2.5)
    store.add("lot1", "name", "clock")
    store.load()
    store.save(tmp_path / "store")
    store.database.save(tmp_path / "db")

    database = Database.open(tmp_path / "db")
    reopened = TripleStore.open(tmp_path / "store", database)
    assert reopened.match(property_name="price", obj=42).relation.num_rows == 1

    # adding a triple re-runs storage.load() over the hydrated list; the
    # revived int must land back in the int partition, not the string one
    reopened.add("lot2", "price", 99)
    reopened.load()
    assert reopened.match(property_name="price", obj=42).relation.num_rows == 1
    assert reopened.match(property_name="price", obj=99).relation.num_rows == 1


@pytest.mark.parametrize(
    "storage_factory",
    [SingleTableStorage, PropertyPartitionedStorage, TypePartitionedStorage],
)
def test_triple_store_round_trip_reuses_partitions(tmp_path, storage_factory):
    store = TripleStore(storage=storage_factory())
    store.add_all(TRIPLES)
    store.load()
    store.save(tmp_path / "store")
    store.database.save(tmp_path / "db")

    database = Database.open(tmp_path / "db")
    reopened = TripleStore.open(tmp_path / "store", database)

    assert reopened.storage.name == store.storage.name
    assert reopened.match(property_name="type").relation == store.match(
        property_name="type"
    ).relation
    assert reopened.match(subject="lot2").relation == store.match(subject="lot2").relation
    assert reopened.num_triples == store.num_triples
    assert reopened.properties() == store.properties()
