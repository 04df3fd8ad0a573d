"""The ``global-missing`` handshake between the pool and its workers.

A worker caches the global collection statistics per statistics key, so a
steady-state search carries only terms and a key.  A worker asked to rank
for a key it does not hold answers ``global-missing``; the pool then
re-sends the request with the statistics payload.  Both halves are pinned
here: the worker's answer, and the pool's re-send when its bookkeeping
claims a worker holds statistics it never received.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import Engine
from repro.engine.executors import SearchSpec, statistics_key
from repro.ir.ranking import BM25Model
from repro.relational.column import Column, DataType
from repro.relational.relation import Relation
from repro.relational.schema import Field, Schema
from repro.serving.pool import GLOBAL_MISSING
from repro.workloads import generate_auction_triples


@pytest.fixture(scope="module")
def source_and_snapshot(tmp_path_factory):
    workload = generate_auction_triples(100, seed=41)
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
    engine.search("docs", query).execute()  # warm statistics split into the shards
    path = engine.save(tmp_path_factory.mktemp("global-missing") / "snap", shards=2)
    yield engine, path, query
    engine.close()


def _spec(engine: Engine, query: str) -> SearchSpec:
    return SearchSpec(
        table="docs", terms=engine.analyzer.analyze_query(query), top_k=5, model=BM25Model()
    )


def test_worker_without_statistics_answers_global_missing(source_and_snapshot):
    engine, path, query = source_and_snapshot
    opened = Engine.open_sharded(path, executor="pool")
    try:
        pool = opened._plan_executor._pool
        backend = pool.shard_backends()[0]
        message = {"op": "search_many", "specs": [_spec(engine, query)], "shard": backend.shard}
        reply = pool.begin_request(backend.worker, backend.shard, message).reply()
        assert reply["ok"] is False
        assert reply["code"] == GLOBAL_MISSING
    finally:
        opened.close()


def test_pool_resends_statistics_a_worker_was_wrongly_marked_as_holding(
    source_and_snapshot,
):
    engine, path, query = source_and_snapshot
    opened = Engine.open_sharded(path, executor="pool")
    try:
        pool = opened._plan_executor._pool
        assert pool.num_workers == 2
        key = statistics_key(_spec(engine, query))
        for worker in range(pool.num_workers):
            # the first request to each worker now goes out without the payload
            pool.mark_global_installed(worker, key)
        actual = opened.search("docs", query).execute().ranked
        expected = engine.search("docs", query).execute().ranked
        assert list(actual.doc_ids) == list(expected.doc_ids)
        np.testing.assert_array_equal(
            np.asarray(actual.scores).view(np.uint64), np.asarray(expected.scores).view(np.uint64)
        )
        # the re-send installed the statistics: a bare request now succeeds
        backend = pool.shard_backends()[1]
        message = {"op": "search_many", "specs": [_spec(engine, query)], "shard": backend.shard}
        assert pool.begin_request(backend.worker, backend.shard, message).reply()["ok"] is True
    finally:
        opened.close()
