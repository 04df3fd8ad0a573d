"""Partitioned snapshots: layout, shard self-containment, error paths."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.engine import Engine
from repro.errors import EngineError, StorageError
from repro.relational.column import Column, DataType
from repro.relational.partitioner import HashRangePartitioner, fnv1a_64
from repro.relational.relation import Relation
from repro.relational.schema import Field, Schema
from repro.storage.columnio import read_column
from repro.storage.shards import (
    is_sharded_snapshot,
    read_shard_map,
    shard_rowids,
)
from repro.workloads import generate_auction_triples


@pytest.fixture(scope="module")
def auction_engine_with_docs():
    workload = generate_auction_triples(150, seed=37)
    engine = Engine.from_triples(workload.triples)
    schema = Schema([Field("docID", DataType.STRING), Field("data", DataType.STRING)])
    docs = Relation(
        schema,
        [
            Column(list(workload.lot_descriptions.keys()), DataType.STRING),
            Column(list(workload.lot_descriptions.values()), DataType.STRING),
        ],
    )
    engine.create_table("docs", docs)
    query = " ".join(workload.lot_descriptions["lot1"].split()[:3])
    engine.search("docs", query).execute()  # warm statistics get split into shards
    return engine, query


class TestPartitioner:
    def test_hash_is_stable_across_calls(self):
        assert fnv1a_64("lot42") == fnv1a_64("lot42")
        assert fnv1a_64("lot42") != fnv1a_64("lot43")

    def test_ranges_are_reasonably_balanced(self):
        partitioner = HashRangePartitioner(4)
        hashes = np.asarray([fnv1a_64(f"key{i}") for i in range(2000)], dtype=np.uint64)
        counts = np.bincount(partitioner.shard_of_hashes(hashes), minlength=4)
        assert counts.min() > 0.5 * 2000 / 4

    def test_partition_indices_cover_and_preserve_order(self):
        relation = Relation(
            Schema([Field("k", DataType.STRING)]),
            [Column([f"v{i}" for i in range(100)], DataType.STRING)],
        )
        partitioner = HashRangePartitioner(3)
        parts = partitioner.partition_indices(relation, "k")
        assert sorted(np.concatenate(parts).tolist()) == list(range(100))
        for indices in parts:
            assert np.all(np.diff(indices) > 0) or len(indices) <= 1

    def test_single_shard_takes_everything(self):
        relation = Relation(
            Schema([Field("k", DataType.INT)]),
            [Column(np.arange(10), DataType.INT)],
        )
        parts = HashRangePartitioner(1).partition_indices(relation, "k")
        assert len(parts) == 1 and parts[0].tolist() == list(range(10))

    def test_rejects_zero_shards(self):
        with pytest.raises(StorageError):
            HashRangePartitioner(0)

    @pytest.mark.parametrize(
        "dtype, values",
        [
            (DataType.FLOAT, [float("nan"), 1.0, float("nan"), 2.5, 1.0, -0.0, 0.0]),
            # the hash key is the str form: 1, 1.0 and True land apart, "1" with 1
            (DataType.STRING, ["1", 1, 1.0, True, "a", 1, "1.0", 2]),
        ],
    )
    def test_keys_that_do_not_factorize_hash_their_str_forms(self, dtype, values):
        relation = Relation(Schema([Field("k", dtype)]), [Column(values, dtype)])
        partitioner = HashRangePartitioner(64)
        per_row = np.asarray(
            [fnv1a_64(str(value)) for value in relation.column("k").to_list()], dtype=np.uint64
        )
        expected = partitioner.shard_of_hashes(per_row)
        assert partitioner.assign(relation, "k").tolist() == expected.tolist()
        if dtype is DataType.STRING:
            assert len({int(shard) for shard in expected[[1, 2, 3]]}) == 3


class TestShardedLayout:
    def test_layout_and_shard_map(self, auction_engine_with_docs, tmp_path):
        engine, _query = auction_engine_with_docs
        path = engine.save(tmp_path / "snap", shards=3)
        assert is_sharded_snapshot(path)
        shard_map = read_shard_map(path)
        assert shard_map.num_shards == 3
        assert "docs" in shard_map.shard_keys and "triples" in shard_map.shard_keys
        assert shard_map.shard_keys["docs"] == "docID"
        for directory in shard_map.shard_directories:
            assert (directory / "manifest.json").exists()

    def test_shards_lists_every_shard(self, auction_engine_with_docs, tmp_path):
        engine, _query = auction_engine_with_docs
        shard_map = read_shard_map(engine.save(tmp_path / "snap", shards=4))
        assert shard_map.shards() == [0, 1, 2, 3]

    def test_shard_directory_is_bounds_checked(self, auction_engine_with_docs, tmp_path):
        engine, _query = auction_engine_with_docs
        shard_map = read_shard_map(engine.save(tmp_path / "snap", shards=4))
        assert shard_map.shard_directory(2) == shard_map.shard_directories[2]
        with pytest.raises(StorageError):
            shard_map.shard_directory(4)
        with pytest.raises(StorageError):
            shard_map.shard_directory(-1)

    def test_shard_for_is_deterministic_and_in_range(
        self, auction_engine_with_docs, tmp_path
    ):
        engine, _query = auction_engine_with_docs
        path = engine.save(tmp_path / "snap", shards=4)
        shard_map = read_shard_map(path)
        # placement is a pure function of the key and the manifest
        placements = {key: shard_map.shard_for(key) for key in ("lot1", "lot2", "a")}
        assert all(0 <= shard < 4 for shard in placements.values())
        again = read_shard_map(path)
        assert {key: again.shard_for(key) for key in placements} == placements

    def test_fragments_partition_every_table(self, auction_engine_with_docs, tmp_path):
        engine, _query = auction_engine_with_docs
        path = engine.save(tmp_path / "snap", shards=3)
        shard_map = read_shard_map(path)
        for table in shard_map.table_names:
            source = engine.database.table(table)
            rows: list[np.ndarray] = []
            total = 0
            for shard in range(3):
                fragment = Engine.open_shard(path, shard).database.table(table)
                ids = shard_rowids(shard_map, shard).get(table)
                assert fragment.num_rows == len(ids)
                total += fragment.num_rows
                rows.append(np.asarray(ids))
            assert total == source.num_rows
            combined = np.sort(np.concatenate(rows)) if total else np.empty(0)
            assert combined.tolist() == list(range(source.num_rows))

    def test_shard_is_a_self_contained_engine(self, auction_engine_with_docs, tmp_path):
        engine, query = auction_engine_with_docs
        path = engine.save(tmp_path / "snap", shards=2)
        shard = Engine.open_shard(path, 0)
        # shard-local queries run against the fragment only
        fragment_docs = shard.database.table("docs")
        result = shard.search("docs", query).execute()
        assert len(result.ranked) <= fragment_docs.num_rows
        assert shard.store.num_triples < engine.store.num_triples

    def test_string_dictionaries_hold_only_their_columns_values(
        self, auction_engine_with_docs, tmp_path
    ):
        # fragments carry the whole table's (shared) dictionary in memory;
        # each fragment file must hold only the values it uses
        engine, _query = auction_engine_with_docs
        path = engine.save(tmp_path / "snap", shards=2)
        checked = 0
        for manifest_path in sorted(path.rglob("manifest.json")):
            manifest = json.loads(manifest_path.read_text())
            if manifest["kind"] != "database":
                continue
            for table in manifest["tables"]:
                for entry in table["columns"]:
                    if entry.get("encoding") != "dictionary":
                        continue
                    column = read_column(manifest_path.parent / table["directory"], entry)
                    assert entry["dictionary_size"] == len(set(column.to_list())), table["name"]
                    checked += 1
        assert checked >= 2 * 5  # per shard: triples' three, docs' two

    def test_gathered_tables_are_bit_exact(self, auction_engine_with_docs, tmp_path):
        engine, _query = auction_engine_with_docs
        path = engine.save(tmp_path / "snap", shards=3)
        opened = Engine.open_sharded(path)
        for table in engine.database.table_names():
            assert opened.database.table(table) == engine.database.table(table)
        assert [t.as_row() for t in opened.store._triples] == [
            t.as_row() for t in engine.store._triples
        ]
        opened.close()

    def test_shard_index_out_of_range(self, auction_engine_with_docs, tmp_path):
        engine, _query = auction_engine_with_docs
        path = engine.save(tmp_path / "snap", shards=2)
        with pytest.raises(StorageError):
            Engine.open_shard(path, 5)

    def test_invalid_shard_key_is_reported(self, auction_engine_with_docs, tmp_path):
        engine, _query = auction_engine_with_docs
        with pytest.raises(StorageError, match="shard key"):
            engine.save(tmp_path / "snap", shards=2, shard_keys={"docs": "nope"})


class TestShardMapErrors:
    def _sharded(self, tmp_path):
        workload = generate_auction_triples(40, seed=5)
        engine = Engine.from_triples(workload.triples)
        return engine.save(tmp_path / "snap", shards=2)

    def test_missing_directory(self, tmp_path):
        with pytest.raises(StorageError):
            read_shard_map(tmp_path / "missing")

    def test_plain_snapshot_is_not_a_shard_map(self, tmp_path):
        workload = generate_auction_triples(40, seed=5)
        path = Engine.from_triples(workload.triples).save(tmp_path / "plain")
        assert not is_sharded_snapshot(path)
        with pytest.raises(StorageError):
            read_shard_map(path)

    def test_corrupt_shard_map_raises_storage_error(self, tmp_path):
        path = self._sharded(tmp_path)
        manifest_path = path / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        del manifest["shard_directories"]
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(StorageError, match="malformed"):
            Engine.open_sharded(path)

    def test_truncated_shard_list_raises_storage_error(self, tmp_path):
        path = self._sharded(tmp_path)
        manifest_path = path / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["shard_directories"] = manifest["shard_directories"][:1]
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(StorageError):
            read_shard_map(path)

    def test_unparseable_manifest_raises_storage_error(self, tmp_path):
        path = self._sharded(tmp_path)
        (path / "manifest.json").write_text("{not json")
        with pytest.raises(StorageError):
            Engine.open_sharded(path)


class TestLifecycle:
    def test_close_releases_and_rejects_queries(self, tmp_path):
        workload = generate_auction_triples(60, seed=5)
        path = Engine.from_triples(workload.triples).save(tmp_path / "snap")
        engine = Engine.open(path)
        engine.store.match(property_name="hasAuction")
        engine.close()
        assert engine.closed
        assert engine.database.table_names() == []
        with pytest.raises(EngineError, match="closed"):
            engine.spinql("out = SELECT [$2=\"hasAuction\"] (triples);").execute()
        engine.close()  # idempotent

    def test_context_manager_closes(self, tmp_path):
        workload = generate_auction_triples(60, seed=5)
        path = Engine.from_triples(workload.triples).save(tmp_path / "snap")
        with Engine.open(path) as engine:
            assert not engine.closed
        assert engine.closed

    def test_sharded_close_closes_shard_engines(self, tmp_path):
        workload = generate_auction_triples(60, seed=5)
        path = Engine.from_triples(workload.triples).save(tmp_path / "snap", shards=2)
        engine = Engine.open_sharded(path)
        backends = list(engine._plan_executor.backends)
        engine.close()
        assert all(backend.engine.closed for backend in backends)
