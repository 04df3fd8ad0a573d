"""Offline re-partitioning: a served layout is changed by saving a new one.

A sharded engine serves the layout it was opened with.  To change the
shard count, the engine (or its snapshot) is saved again with
``save(path, shards=N)`` and the new snapshot is opened; these tests hold
that path to the same bit-identity the scatter-gather executors promise.
"""

from __future__ import annotations

import threading

import pytest

from repro.engine import Engine
from repro.errors import StorageError
from repro.relational.column import Column, DataType
from repro.relational.relation import Relation
from repro.relational.schema import Field, Schema
from repro.serving import ServingConfig
from repro.storage.shards import read_shard_map
from repro.workloads import generate_auction_triples

PROGRAM = 'out = SELECT [$2="hasAuction"] (triples);'


@pytest.fixture(scope="module")
def source_and_snapshot(tmp_path_factory):
    workload = generate_auction_triples(120, seed=47)
    engine = Engine.from_triples(workload.triples)
    schema = Schema([Field("docID", DataType.STRING), Field("data", DataType.STRING)])
    engine.create_table(
        "docs",
        Relation(
            schema,
            [
                Column(list(workload.lot_descriptions.keys()), DataType.STRING),
                Column(list(workload.lot_descriptions.values()), DataType.STRING),
            ],
        ),
    )
    query = " ".join(workload.lot_descriptions["lot1"].split()[:3])
    engine.search("docs", query).execute()
    path = engine.save(tmp_path_factory.mktemp("repartition") / "snap", shards=4)
    yield engine, path, query
    engine.close()


def test_open_sharded_rejects_a_plain_snapshot(source_and_snapshot, tmp_path):
    engine, _path, _query = source_and_snapshot
    plain = engine.save(tmp_path / "plain")
    with pytest.raises(StorageError):
        Engine.open_sharded(plain)


@pytest.mark.parametrize("executor", ["sharded", "pool"])
def test_repartition_is_bit_identical(source_and_snapshot, tmp_path, executor):
    engine, path, query = source_and_snapshot
    with Engine.open_sharded(path) as four:
        two = four.save(tmp_path / f"two-{executor}", shards=2)
    config = ServingConfig(workers=2) if executor == "pool" else None
    with Engine.open_sharded(two, executor=executor, config=config) as opened:
        assert opened.executor_info()["shards"] == 2
        assert opened.spinql(PROGRAM).top(8) == engine.spinql(PROGRAM).top(8)
        assert opened.search("docs", query).top(8) == engine.search("docs", query).top(8)


def test_repartition_chain_keeps_shard_keys(source_and_snapshot, tmp_path):
    engine, _path, _query = source_and_snapshot
    expected = engine.spinql(PROGRAM).top(8)
    path = engine.save(tmp_path / "s4", shards=4, shard_keys={"triples": "property"})
    for shards in (2, 3):
        keys = read_shard_map(path).shard_keys
        with Engine.open_sharded(path) as opened:
            assert opened.spinql(PROGRAM).top(8) == expected
            path = opened.save(tmp_path / f"s{shards}", shards=shards, shard_keys=keys)
        shard_map = read_shard_map(path)
        assert shard_map.num_shards == shards
        assert shard_map.shard_keys["triples"] == "property"
    with Engine.open_sharded(path) as opened:
        assert opened.spinql(PROGRAM).top(8) == expected


def test_repartition_leaves_the_source_untouched(source_and_snapshot, tmp_path):
    _engine, path, query = source_and_snapshot
    before = read_shard_map(path)
    with Engine.open_sharded(path) as four:
        expected = four.search("docs", query).top(8)
        four.save(tmp_path / "two", shards=2)
        # the engine keeps serving the layout it was opened with
        assert four.executor_info() == {"executor": "sharded", "shards": 4}
        assert four.search("docs", query).top(8) == expected
    after = read_shard_map(path)
    assert after.num_shards == 4
    assert after.shard_keys == before.shard_keys
    assert after.shard_directories == before.shard_directories


def test_concurrent_queries_on_one_sharded_executor(source_and_snapshot):
    """Threads sharing the in-process scatter-gather executor all answer alike."""
    engine, path, query = source_and_snapshot
    expected = engine.search("docs", query).top(8)
    mismatches: list[object] = []
    errors: list[BaseException] = []

    with Engine.open_sharded(path, result_cache_size=None) as opened:

        def drive() -> None:
            try:
                for _ in range(10):
                    pairs = opened.search("docs", query).top(8)
                    if pairs != expected:
                        mismatches.append(pairs)
            except BaseException as error:  # noqa: BLE001 - reported below
                errors.append(error)

        threads = [threading.Thread(target=drive) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
    assert not errors
    assert not mismatches
