"""The batch API through the pool, and a burst of identical router requests.

``search_many`` over the worker pool is bit-identical to request-at-a-time
execution, and every request of an identical concurrent burst executes and
answers exactly like the serial one; a repeated request is a result-cache
hit.  The wire carries no batch frames: the kind that coalesced requests
until 2.0 is refused.
"""

from __future__ import annotations

import threading

import pytest

from repro.engine import Engine
from repro.errors import EngineError
from repro.relational.column import Column, DataType
from repro.relational.relation import Relation
from repro.relational.schema import Field, Schema
from repro.serving import Router, ServingConfig
from repro.serving.codec import encode_tagged, resolve_tagged, split_tagged
from repro.workloads import generate_auction_triples

PROGRAM = 'out = SELECT [$2="hasAuction"] (triples);'


class TestBatchCodec:
    def test_resolve_tagged_refuses_batch_kind(self):
        # "B" carried coalesced request batches until 2.0; a peer still
        # sending it gets a clean protocol error, not a mis-decoded message
        frame = bytearray(encode_tagged(1, {"op": "ping"}))
        frame[8:9] = b"B"
        with pytest.raises(EngineError, match="unknown tagged-frame kind"):
            split_tagged(bytes(frame))
        with pytest.raises(EngineError, match="unknown tagged-frame kind"):
            resolve_tagged(b"B", bytes(frame[9:]))


@pytest.fixture(scope="module")
def source_and_snapshot(tmp_path_factory):
    workload = generate_auction_triples(100, seed=37)
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
    queries = [
        " ".join(text.split()[:3])
        for text in list(workload.lot_descriptions.values())[:6]
    ]
    path = engine.save(tmp_path_factory.mktemp("search-many") / "snap", shards=2)
    return engine, path, queries


@pytest.fixture(scope="module")
def pool_engine(source_and_snapshot):
    _engine, path, _queries = source_and_snapshot
    opened = Engine.open_sharded(path, executor="pool")
    yield opened
    opened.close()


class TestBatchedPoolBitIdentity:
    def test_batched_search_equals_unbatched(self, source_and_snapshot, pool_engine):
        """A ``search_many`` batch of one answers exactly like ``search``."""
        engine, _path, queries = source_and_snapshot
        for query in queries:
            expected = engine.search("docs", query).execute()
            (actual,) = pool_engine.search_many("docs", [query])
            assert list(actual.ranked.doc_ids) == list(expected.ranked.doc_ids)
            assert actual.ranked.scores.tobytes() == expected.ranked.scores.tobytes()

    def test_search_many_equals_per_query_execution(
        self, source_and_snapshot, pool_engine
    ):
        engine, _path, queries = source_and_snapshot
        batch = pool_engine.search_many("docs", queries, top_k=5)
        for query, result in zip(queries, batch):
            expected = engine.search("docs", query, top_k=5).execute()
            assert list(result.ranked.doc_ids) == list(expected.ranked.doc_ids)
            assert result.ranked.scores.tobytes() == expected.ranked.scores.tobytes()

    def test_execute_many_vectorized_matches_generic_path(
        self, source_and_snapshot, pool_engine
    ):
        _engine, _path, queries = source_and_snapshot
        query = pool_engine.search("docs", top_k=4)
        vectorized = query.execute_many([{"query": text} for text in queries])
        elementwise = [query.execute(query=text) for text in queries]
        for fast, slow in zip(vectorized, elementwise):
            assert list(fast.ranked.doc_ids) == list(slow.ranked.doc_ids)
            assert fast.ranked.scores.tobytes() == slow.ranked.scores.tobytes()
        tops = query.top_many(3, [{"query": text} for text in queries])
        assert tops == [query.top(3, query=text) for text in queries]

    def test_mixed_plan_and_search_kinds_in_one_batch(
        self, source_and_snapshot, pool_engine
    ):
        """Plan segments and searches in flight together on the same pipes."""
        engine, _path, queries = source_and_snapshot
        expected_plan = engine.spinql(PROGRAM).top(6)
        expected_search = engine.search("docs", queries[0]).top(6)
        results: dict[str, object] = {}

        def run_plan():
            results["plan"] = pool_engine.spinql(PROGRAM).top(6)

        def run_search():
            results["search"] = pool_engine.search("docs", queries[0]).top(6)

        threads = [threading.Thread(target=run_plan), threading.Thread(target=run_search)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert results["plan"] == expected_plan
        assert results["search"] == expected_search


# ---------------------------------------------------------------------------
# router: a burst of identical requests
# ---------------------------------------------------------------------------


class TestIdenticalRequestBurst:
    def test_burst_answers_like_serial_and_logs_every_request(self, pool_engine):
        router = Router(pool_engine, ServingConfig())
        search = {"kind": "search", "table": "docs", "query": "first lot", "top_k": 3}
        spinql = {"kind": "spinql", "source": PROGRAM, "top_k": 3}
        serial = {"search": router.handle(dict(search)), "spinql": router.handle(dict(spinql))}
        assert serial["search"]["ok"] and serial["spinql"]["ok"]
        burst = [search, spinql] * 8
        served_before = len(
            [entry for entry in pool_engine.workload_log.snapshot() if entry.kind == "serve"]
        )
        barrier = threading.Barrier(len(burst))
        replies: list = [None] * len(burst)

        def send(index: int) -> None:
            barrier.wait()
            replies[index] = router.handle(dict(burst[index]))

        threads = [threading.Thread(target=send, args=(index,)) for index in range(len(burst))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)

        for request, reply in zip(burst, replies):
            assert reply == serial[request["kind"]]
        serves = [entry for entry in pool_engine.workload_log.snapshot() if entry.kind == "serve"]
        assert len(serves) - served_before == len(burst)
        assert [entry.request for entry in serves[served_before:]].count(search) == 8
        assert all(entry.collapsed is None for entry in serves)

    def test_repeated_spinql_is_a_result_cache_hit(self, pool_engine):
        router = Router(pool_engine, ServingConfig())
        request = {"kind": "spinql", "source": 'out = SELECT [$2="type"] (triples);', "top_k": 5}
        first = router.handle(dict(request))
        before = router.health()["result_cache"]
        second = router.handle(dict(request))
        after = router.health()["result_cache"]
        assert first["ok"] and second == first
        assert after["hits"] - before["hits"] == 1
        assert after["misses"] == before["misses"]
        serve = [entry for entry in pool_engine.workload_log.snapshot() if entry.kind == "serve"]
        assert serve[-1].request == request
