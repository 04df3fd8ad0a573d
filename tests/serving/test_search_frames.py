"""A pool search is one frame per shard, carrying its own global df/cf.

Workers hold no global statistics: the executor sends every shard request
the global document and collection frequencies of that batch's terms.  So
the first search on a fresh pool needs no warm-up exchange with the workers
— each shard gets exactly one ``search_many`` frame — and still ranks
bit-identically to the unsharded engine.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import Engine
from repro.relational.column import Column, DataType
from repro.relational.relation import Relation
from repro.relational.schema import Field, Schema
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
    path = engine.save(tmp_path_factory.mktemp("search-frames") / "snap", shards=2)
    yield engine, path, query
    engine.close()


def test_first_search_is_one_frame_per_shard_and_bit_identical(source_and_snapshot):
    engine, path, query = source_and_snapshot
    opened = Engine.open_sharded(path, executor="pool")
    try:
        pool = opened._plan_executor._pool
        assert pool.num_workers == 2
        frames: list[tuple[int, dict]] = []
        for connection in pool._connections:
            send = connection.send

            def recording(message, worker=connection.worker, send=send):
                frames.append((worker, message))
                return send(message)

            connection.send = recording

        actual = opened.search("docs", query).execute().ranked
        expected = engine.search("docs", query).execute().ranked

        searches = [
            (worker, message) for worker, message in frames if message["op"] == "search_many"
        ]
        assert sorted((worker, message["shard"]) for worker, message in searches) == [
            (0, 0),
            (1, 1),
        ]
        terms = set(engine.analyzer.analyze_query(query))
        for _worker, message in searches:
            assert set(message["global"]["document_frequency"]) <= terms
        assert list(actual.doc_ids) == list(expected.doc_ids)
        np.testing.assert_array_equal(
            np.asarray(actual.scores).view(np.uint64), np.asarray(expected.scores).view(np.uint64)
        )
    finally:
        opened.close()
