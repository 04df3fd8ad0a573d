"""Sharded / pooled execution is bit-identical to the unsharded engine.

The scatter-gather contract (see :mod:`repro.engine.executors`): every
query — SpinQL plans, rank-aware top-k, traversal, keyword search, full
strategies — returns exactly what the single-engine path returns, scores,
row order and ties included, for every shard count.
"""

from __future__ import annotations

import threading
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.locality import extract_segments, match_segment
from repro.engine import Engine
from repro.engine.executors import (
    GATHER_ROW_COLUMN,
    InProcessShard,
    augment_fragment,
    gather_concat,
    gather_top,
)
from repro.ir.ranking import LanguageModel
from repro.pra.plan import PraJoin, PraParam, PraProject, PraScan, PraSelect, PraTop, PraWeight
from repro.pra.assumptions import Assumption
from repro.pra.expressions import PositionalRef
from repro.relational.column import Column, DataType
from repro.relational.expressions import BinaryOp, Literal
from repro.relational.relation import Relation
from repro.relational.schema import Field, Schema
from repro.workloads import (
    generate_auction_triples,
    generate_expert_triples,
    generate_product_triples,
)


def _docs_relation(descriptions: dict) -> Relation:
    schema = Schema([Field("docID", DataType.STRING), Field("data", DataType.STRING)])
    return Relation(
        schema,
        [
            Column(list(descriptions.keys()), DataType.STRING),
            Column(list(descriptions.values()), DataType.STRING),
        ],
    )


def _workload_engines():
    """(name, engine, query) per scenario — toy, auction, experts."""
    toy = generate_product_triples(120, seed=21)
    toy_engine = Engine.from_triples(toy.triples)
    toy_engine.create_table("docs", _docs_relation(toy.descriptions))
    toy_query = " ".join(next(iter(toy.descriptions.values())).split()[:3])

    auction = generate_auction_triples(120, seed=37)
    auction_engine = Engine.from_triples(auction.triples)
    auction_engine.create_table("docs", _docs_relation(auction.lot_descriptions))
    auction_query = " ".join(auction.lot_descriptions["lot1"].split()[:3])

    experts = generate_expert_triples(20, 80, seed=77)
    experts_engine = Engine.from_triples(experts.triples)
    experts_query = experts.query_for_topic(experts.topics[0])

    return [
        ("toy", toy_engine, toy_query),
        ("auction", auction_engine, auction_query),
        ("experts", experts_engine, experts_query),
    ]


@pytest.fixture(scope="module")
def workloads():
    prepared = _workload_engines()
    for _name, engine, query in prepared:
        if "docs" in engine.database.table_names():
            engine.search("docs", query).execute()  # warm stats split into the shards
    return prepared


SPINQL_PROGRAMS = [
    'out = SELECT [$2="type"] (triples);',
    'out = PROJECT INDEPENDENT [$1] ( SELECT [$2="type"] (triples) );',
    'out = JOIN INDEPENDENT [$1=$1] ( SELECT [$2="type"] (triples),'
    ' SELECT [$2="type"] (triples) );',
]


def _assert_relations_identical(actual, expected):
    assert actual.relation.schema.names == expected.relation.schema.names
    assert actual.value_rows() == expected.value_rows()
    np.testing.assert_array_equal(actual.probabilities(), expected.probabilities())


class TestShardedEquivalence:
    @pytest.mark.parametrize("shards", [1, 2, 3])
    def test_all_workloads_all_front_ends(self, workloads, tmp_path, shards):
        for name, engine, query in workloads:
            path = engine.save(tmp_path / f"{name}-{shards}", shards=shards)
            opened = Engine.open_sharded(path)
            try:
                for program in SPINQL_PROGRAMS:
                    _assert_relations_identical(
                        opened.spinql(program).execute(), engine.spinql(program).execute()
                    )
                    assert opened.spinql(program).top(7) == engine.spinql(program).top(7)
                # traversal (parameterized plan)
                subjects = engine.store.subjects()[:5]
                hop_property = "hasAuction" if name == "auction" else (
                    "authoredBy" if name == "experts" else "category"
                )
                expected_hop = engine.traverse(hop_property, subjects).execute()
                actual_hop = opened.traverse(hop_property, subjects).execute()
                _assert_relations_identical(actual_hop, expected_hop)
                # keyword search: full ranking and rank-aware top-k
                if "docs" in engine.database.table_names():
                    expected_full = engine.search("docs", query).execute()
                    actual_full = opened.search("docs", query).execute()
                    assert actual_full.ranked.as_pairs() == expected_full.ranked.as_pairs()
                    expected_top = engine.search("docs", query).top(10)
                    assert opened.search("docs", query).top(10) == expected_top
                # whole strategy runs (coordinator gather path)
                expected_run = engine.strategy(name, query=query).top(10)
                assert opened.strategy(name, query=query).top(10) == expected_run
            finally:
                opened.close()

    def test_search_with_alternative_model(self, workloads, tmp_path):
        _name, engine, query = workloads[1]
        path = engine.save(tmp_path / "lm", shards=3)
        opened = Engine.open_sharded(path)
        try:
            model = LanguageModel(smoothing="dirichlet", mu=500.0)
            expected = engine.search("docs", query, model=model).top(10)
            actual = opened.search("docs", query, model=model).top(10)
            assert actual == expected
        finally:
            opened.close()

    def test_top_k_scatters_at_most_k_per_shard(self, workloads, tmp_path):
        _name, engine, _query = workloads[1]
        path = engine.save(tmp_path / "topk", shards=3)
        opened = Engine.open_sharded(path)
        try:
            k = 5
            opened.spinql('out = SELECT [$2="type"] (triples);').top(k)
            scatter = opened._plan_executor.last_scatter
            assert scatter["segments"] == 1
            for counts in scatter["per_shard_rows"]:
                assert all(count <= k for count in counts)
        finally:
            opened.close()

    def test_search_scatters_at_most_k_candidates_per_shard(self, workloads, tmp_path):
        _name, engine, query = workloads[1]
        path = engine.save(tmp_path / "searchk", shards=3)
        opened = Engine.open_sharded(path)
        try:
            opened.search("docs", query).top(4)
            scatter = opened._plan_executor.last_scatter
            assert all(count <= 4 for count in scatter["per_shard_candidates"])
        finally:
            opened.close()


def _strategy_bits(run) -> tuple[list, list[int]]:
    result = run.result
    return (
        result.relation.column(result.value_columns[0]).to_list(),
        result.probabilities().view(np.uint64).tolist(),
    )


def _psm_segments() -> set[str]:
    shm = Path("/dev/shm")
    return {entry.name for entry in shm.glob("psm_*")} if shm.is_dir() else set()


class TestShardedStrategies:
    """A strategy request is one plan on the engine's executor: in-process
    shards and a worker pool answer the whole result relation bit for bit."""

    @pytest.mark.parametrize("scenario", ["toy", "auction", "experts"])
    def test_prebuilt_strategies_are_bit_identical_on_shards_and_a_pool(
        self, scenario, tmp_path
    ):
        from repro.ir.query_expansion import SynonymExpander
        from repro.serving import ServingConfig
        from tests.strategy.test_lowering import _scenario, _uncertain

        triples, _build, queries = _scenario(scenario)
        triples = _uncertain(triples, 5)
        requests = [(scenario, {})]
        if scenario == "auction":
            words = [w for t in triples if t.property == "description" for w in t.object.split()]
            expander = SynonymExpander({words[0]: [words[3], "antique"], words[5]: [words[8]]})
            requests.append(("expanded-auction", {"expander": expander}))
        segments = _psm_segments()
        local = Engine.from_triples(triples)
        path = local.save(tmp_path / scenario, shards=2)
        sharded = Engine.open_sharded(path)
        pooled = Engine.open_sharded(path, executor="pool", config=ServingConfig(workers=2))
        try:
            for name, kwargs in requests:
                for query in queries[:4]:
                    expected = _strategy_bits(local.strategy(name, query, **kwargs).execute())
                    assert expected[0]
                    for engine in (sharded, pooled):
                        served = engine.strategy(name, query, **kwargs).execute()
                        assert _strategy_bits(served) == expected
                        # the request's one record names the engine's executor
                        executor = engine.workload_log.snapshot()[-1].executor
                        assert executor == engine.executor_info()["executor"]
        finally:
            for engine in (local, sharded, pooled):
                engine.close()
        assert _psm_segments() <= segments


class TestScatterPlanning:
    PARTITIONED = {"triples", "docs"}

    def _partitioned(self, table: str) -> bool:
        return table in self.PARTITIONED

    def test_select_chain_over_partitioned_scan_scatters(self):
        plan = PraSelect(
            PraScan("triples"), BinaryOp("=", PositionalRef(2), Literal("type"))
        )
        segment = match_segment(plan, self._partitioned)
        assert segment is not None and segment.table == "triples"
        assert segment.top_k is None

    def test_top_over_chain_scatters_with_k(self):
        plan = PraTop(PraWeight(PraScan("docs"), 0.5), 7)
        segment = match_segment(plan, self._partitioned)
        assert segment is not None and segment.top_k == 7

    def test_non_partitioned_scan_does_not_scatter(self):
        assert match_segment(PraScan("other"), self._partitioned) is None

    def test_join_splits_into_two_segments(self):
        plan = PraJoin(
            PraSelect(PraScan("triples"), BinaryOp("=", PositionalRef(2), Literal("a"))),
            PraScan("docs"),
            [(1, 1)],
            Assumption.INDEPENDENT,
        )
        segments: list = []
        rewritten = extract_segments(plan, self._partitioned, segments)
        assert len(segments) == 2
        assert isinstance(rewritten, PraJoin)
        assert isinstance(rewritten.left, PraParam) and isinstance(rewritten.right, PraParam)

    def test_merge_above_chain_stays_on_coordinator(self):
        plan = PraProject(PraScan("triples"), [1], Assumption.INDEPENDENT)
        segments: list = []
        rewritten = extract_segments(plan, self._partitioned, segments)
        # the scan scatters; the duplicate-merging projection does not
        assert len(segments) == 1 and segments[0][1].top_k is None
        assert isinstance(rewritten, PraProject)

    def test_inner_top_is_not_absorbed_by_outer_select(self):
        plan = PraSelect(
            PraTop(PraScan("triples"), 3),
            BinaryOp("=", PositionalRef(2), Literal("a")),
        )
        segments: list = []
        rewritten = extract_segments(plan, self._partitioned, segments)
        # TOP must complete globally before the select runs on the coordinator
        assert len(segments) == 1 and segments[0][1].top_k == 3
        assert isinstance(rewritten, PraSelect)


class TestGatherKernels:
    def _fragments(self):
        schema = Schema([Field("k", DataType.STRING)])
        full = Relation(schema, [Column([f"v{i}" for i in range(10)], DataType.STRING)])
        indices = [np.array([0, 3, 4, 9]), np.array([1, 2, 5]), np.array([6, 7, 8])]
        return full, [
            augment_fragment(full.take(part), part) for part in indices
        ]

    def test_gather_concat_restores_original_order(self):
        full, fragments = self._fragments()
        gathered = gather_concat(fragments)
        assert GATHER_ROW_COLUMN not in gathered.relation.schema
        assert gathered.relation.column("k").to_list() == full.column("k").to_list()

    def test_gather_top_takes_global_k_deterministically(self):
        _full, fragments = self._fragments()
        gathered = gather_top(fragments, 4)
        # all probabilities are 1.0, so ties break by value column then row id
        assert gathered.relation.column("k").to_list() == ["v0", "v1", "v2", "v3"]

    def test_gather_concat_with_empty_fragments(self):
        schema = Schema([Field("k", DataType.STRING)])
        full = Relation(schema, [Column(["a", "b"], DataType.STRING)])
        fragments = [
            augment_fragment(full.take(np.array([], dtype=np.int64)), np.array([], dtype=np.int64)),
            augment_fragment(full, np.array([0, 1])),
        ]
        gathered = gather_concat(fragments)
        assert gathered.relation.column("k").to_list() == ["a", "b"]


class TestEngineThreadPool:
    def test_batch_pool_is_reused_and_closed(self):
        workload = generate_auction_triples(60, seed=5)
        engine = Engine.from_triples(workload.triples)
        query = engine.spinql('out = SELECT [$2="hasAuction"] (triples);')
        serial = query.execute_many([{}] * 4)
        pool_a = engine._batch_pool(2)
        concurrent = query.execute_many([{}] * 4, max_workers=2)
        assert engine._batch_pool(2) is pool_a  # reused, not rebuilt per call
        assert [r.value_rows() for r in concurrent] == [r.value_rows() for r in serial]
        engine.close()
        assert engine._thread_pool is None

    def test_batch_pool_grows_for_larger_requests(self):
        workload = generate_auction_triples(40, seed=5)
        engine = Engine.from_triples(workload.triples)
        small = engine._batch_pool(2)
        large = engine._batch_pool(4)
        assert large is not small
        assert engine._batch_pool(3) is large  # still big enough
        engine.close()

    def test_sharded_scatter_runs_on_the_calling_thread(self, tmp_path):
        """The batch pool is the engine's only pool: shards run inline."""
        workload = generate_auction_triples(60, seed=5)
        engine = Engine.from_triples(workload.triples)
        engine.create_table("docs", _docs_relation(workload.lot_descriptions))
        query = " ".join(workload.lot_descriptions["lot1"].split()[:3])
        expected_search = engine.search("docs", query).top(5)
        program = 'out = SELECT [$2="hasAuction"] (triples);'
        expected_top = engine.spinql(program).top(5)
        opened = Engine.open_sharded(engine.save(tmp_path / "snap", shards=2))
        try:
            assert opened.search("docs", query).top(5) == expected_search
            assert opened.spinql(program).top(5) == expected_top
            assert opened._plan_executor.last_scatter["segments"] == 1  # it did scatter
            names = [thread.name for thread in threading.enumerate()]
            assert not [name for name in names if name.startswith("repro-shard")]
            assert not hasattr(opened, "_shard_pool")
        finally:
            opened.close()
            engine.close()


class TestBatchOverSharded:
    def test_execute_many_on_sharded_engine_does_not_deadlock(self, tmp_path):
        """Batch tasks scatter from inside the batch pool's threads.

        The scatter runs inline on each batch thread, so no batch task ever
        waits on a second pool.  This guards against one coming back: a
        bounded scatter pool shared with (or nested under) the batch pool
        deadlocks once every thread holds a batch task blocked on inner
        scatter futures that have no thread left to run on.
        """
        workload = generate_auction_triples(60, seed=5)
        path = Engine.from_triples(workload.triples).save(tmp_path / "snap", shards=2)
        opened = Engine.open_sharded(path)
        try:
            query = opened.spinql('out = SELECT [$2="hasAuction"] (triples);')
            expected = query.execute().value_rows()
            outcome: dict = {}

            def run():
                outcome["results"] = query.execute_many([{}] * 4, max_workers=2)

            worker = threading.Thread(target=run, daemon=True)
            worker.start()
            worker.join(timeout=60)
            assert not worker.is_alive(), "execute_many deadlocked on a sharded engine"
            assert [r.value_rows() for r in outcome["results"]] == [expected] * 4
        finally:
            opened.close()


class TestInProcessShardBackend:
    def test_fragment_and_store_roundtrip(self, tmp_path):
        workload = generate_auction_triples(80, seed=5)
        engine = Engine.from_triples(workload.triples)
        path = engine.save(tmp_path / "snap", shards=2)
        opened = Engine.open_sharded(path)
        try:
            backend = opened._plan_executor.backends[0]
            assert isinstance(backend, InProcessShard)
            relation, rows = backend.fragment("triples")
            assert relation.num_rows == len(rows)
            triples, store_rows = backend.triples_fragment()
            assert len(triples) == len(store_rows)
        finally:
            opened.close()
