"""Strategies as PRA plans: the lowering, its bit identity, and its reuse.

The digests below were recorded from the row-at-a-time block implementations
that preceded the lowering (every result row: ids, probability bits and
order, over a dozen queries per strategy), once with the generators'
certain triples and once with every triple given an uncertain probability.
Each storage layout must reproduce them exactly.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.engine import Engine
from repro.errors import CatalogError
from repro.ir.query_expansion import SynonymExpander
from repro.ir.ranking import BM25Model
from repro.pra.plan import PraRank, PraScan
from repro.strategy import StrategyExecutor
from repro.strategy.blocks import Block, Port, PortKind
from repro.strategy.graph import StrategyGraph
from repro.strategy.library import SelectByTypeBlock
from repro.strategy.prebuilt import (
    build_auction_strategy,
    build_expanded_auction_strategy,
    build_expert_strategy,
    build_toy_strategy,
)
from repro.triples import TripleStore
from repro.triples.partitioning import make_storage
from repro.triples.triple_store import Triple
from repro.workloads import (
    generate_auction_triples,
    generate_expert_triples,
    generate_product_triples,
)

LAYOUTS = ("single-table", "property-partitioned", "type-partitioned")

DIGESTS = {
    ("toy", True): "b2eaf3ce97084f6d",
    ("toy", False): "be34465cd3b57bec",
    ("auction", True): "cf2517f1882bc91b",
    ("auction", False): "3232203dc6b0d5b9",
    ("expanded-auction", True): "e6ff880d1b78e3eb",
    ("expanded-auction", False): "9b15d4ca8c74da0e",
    ("experts", True): "e552d8500e86e42f",
    ("experts", False): "8185a0118014cbcb",
}


def _uncertain(triples, seed):
    rng = np.random.default_rng(seed)
    return [
        Triple(t.subject, t.property, t.object, float(rng.uniform(0.05, 1.0)))
        for t in triples
    ]


def _scenario(name):
    if name == "toy":
        products = generate_product_triples(60, seed=5)
        descriptions = list(products.descriptions.values())
        queries = [" ".join(d.split()[i : i + 2]) for i, d in enumerate(descriptions[:12])]
        return products.triples, build_toy_strategy, queries
    if name == "experts":
        experts = generate_expert_triples(20, 120, seed=3)
        queries = [experts.query_for_topic(topic) for topic in experts.topics]
        return experts.triples, build_expert_strategy, queries
    auctions = generate_auction_triples(300, seed=11)
    lots = list(auctions.lot_descriptions.values())
    queries = [" ".join(d.split()[i : i + 3]) for i, d in enumerate(lots[:12])]
    if name == "auction":
        return auctions.triples, build_auction_strategy, queries
    words = [w for d in lots[:30] for w in d.split()]
    expander = SynonymExpander({words[0]: [words[7], "antique"], words[9]: [words[20]]})
    return auctions.triples, lambda: build_expanded_auction_strategy(expander), queries


def _store(layout, triples):
    store = TripleStore(storage=make_storage(layout))
    store.add_all(triples)
    store.load()
    return store


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("certain", [True, False], ids=["certain", "uncertain"])
@pytest.mark.parametrize("name", ["toy", "auction", "expanded-auction", "experts"])
def test_prebuilt_strategies_are_bit_identical_on_every_layout(name, certain, layout):
    triples, build, queries = _scenario(name)
    executor = StrategyExecutor(_store(layout, triples if certain else _uncertain(triples, 7)))
    digest = hashlib.sha256()
    for query in queries:
        result = executor.run(build(), query=query).result
        digest.update(repr(result.relation.column(result.value_columns[0]).to_list()).encode())
        digest.update(result.probabilities().view(np.uint64).tobytes())
    assert digest.hexdigest()[:16] == DIGESTS[(name, certain)]


def _relation_bits(relation):
    return (
        relation.relation.column(relation.value_columns[0]).to_list(),
        relation.probabilities().view(np.uint64).tolist(),
    )


@pytest.mark.parametrize("layout", LAYOUTS[1:])
def test_traversal_reads_through_every_layout(layout):
    workload = generate_auction_triples(120, seed=4)
    triples = _uncertain(workload.triples, 3)
    lots = workload.lot_ids[::7]
    reference = Engine.from_triples(triples)
    engine = Engine.from_triples(triples, storage=make_storage(layout))
    try:
        for direction in ("forward", "backward"):
            seeds = lots if direction == "forward" else ["auction0", "auction1"]
            expected = reference.traverse("hasAuction", seeds, direction=direction).execute()
            served = engine.traverse("hasAuction", seeds, direction=direction).execute()
            assert served.num_rows > 0
            assert _relation_bits(served) == _relation_bits(expected)
            keyword = "BACKWARD " if direction == "backward" else ""
            source = f"out = TRAVERSE {keyword}['hasAuction'] (seeds);"
            spinql = engine.spinql(source, seeds=seeds).execute()
            assert _relation_bits(spinql) == _relation_bits(expected)
        # the builder hop from a table: lots to their auctions and back
        hop = (
            engine.traverse("hasAuction", lots)
            .traverse("hasAuction", direction="backward")
            .execute()
        )
        expected = (
            reference.traverse("hasAuction", lots)
            .traverse("hasAuction", direction="backward")
            .execute()
        )
        assert _relation_bits(hop) == _relation_bits(expected)
        with pytest.raises(CatalogError):
            engine.table("triples")  # the layout really has no single table
    finally:
        reference.close()
        engine.close()


def test_a_partition_created_by_a_load_reaches_cached_plans():
    engine = Engine.from_triples(
        [("lot1", "type", "lot")], storage=make_storage("property-partitioned")
    )
    source = "out = TRAVERSE ['hasAuction'] (seeds);"
    try:
        assert engine.spinql(source, seeds=["lot1"]).execute().num_rows == 0
        assert engine.strategy("auction", query="oak").execute().result.num_rows == 0
        engine.load_triples(
            [("lot1", "hasAuction", "auction1"), ("lot1", "description", "oak table")]
        )
        reached = engine.spinql(source, seeds=["lot1"]).execute()
        assert reached.relation.column("node").to_list() == ["auction1"]
        assert engine.strategy("auction", query="oak").execute().top(1)[0][0] == "lot1"
    finally:
        engine.close()


@pytest.mark.parametrize("layout", LAYOUTS)
def test_the_first_request_after_a_write_recomputes(layout):
    workload = generate_auction_triples(150, seed=6)
    base, extra = workload.triples[:300], workload.triples[300:]
    engine = Engine.from_triples(base, storage=make_storage(layout))
    try:
        engine.strategy("auction", query="oak table").execute()
        engine.load_triples(extra)
        served = engine.strategy("auction", query="oak table").execute()
        assert served.memoized_blocks == []
        oracle = Engine.from_triples(workload.triples, storage=make_storage(layout))
        try:
            expected = oracle.strategy("auction", query="oak table").execute()
        finally:
            oracle.close()
        assert list(served.result.rows()) == list(expected.result.rows())
        again = engine.strategy(build_auction_strategy(), query="oak table").execute()
        assert sorted(again.memoized_blocks) == sorted(
            ["select_lots", "lot_descriptions", "to_auctions", "auction_descriptions"]
        )
    finally:
        engine.close()


class TestCustomBlocks:
    def test_a_block_that_defines_to_plan_is_cached(self, toy_store):
        class Toys(Block):
            """A user block lowered to the algebra: cached like the library's."""

            def output_port(self):
                return Port("resources", PortKind.RESOURCES)

            def to_plan(self, inputs, storage):
                return SelectByTypeBlock("product").to_plan(inputs, storage)

        graph = StrategyGraph()
        graph.add_block("toys", Toys())
        executor = StrategyExecutor(toy_store)
        cold, warm = executor.run(graph), executor.run(graph)
        assert (cold.memoized_blocks, warm.memoized_blocks) == ([], ["toys"])
        assert warm.result.num_rows == 4


class TestCheckAndExplain:
    def test_check_verifies_the_lowered_strategy(self, toy_store):
        engine = Engine.from_triples(toy_store._triples)
        try:
            report = engine.strategy("auction").check()
            assert report.ok
            assert report.output_columns == [("node", "string")]
        finally:
            engine.close()

    def test_rank_over_the_wrong_arity_is_a_diagnostic(self, toy_store):
        engine = Engine.from_triples(toy_store._triples)
        try:
            report = engine.table("triples").select("subject").rank("train").check()
            assert [d.code for d in report.errors] == ["rank-input-arity"]
            ok = engine.table("triples").select("subject", "object").rank("train").check()
            assert ok.ok
        finally:
            engine.close()

    def test_rank_node_describes_its_configuration(self):
        plan = PraRank(PraScan("docs"), "query", BM25Model(), "english", 5)
        assert plan.describe().splitlines()[0] == "RANK BM25 TOP 5 [$query]"
        other = PraRank(PraScan("docs"), "query", BM25Model(b=0.5), "english", 5)
        assert plan.fingerprint() != other.fingerprint()
