"""Unit tests for strategy blocks, ports and the strategy graph."""

import pytest

from repro.errors import BlockError, PortError, StrategyError
from repro.ir.ranking import TfIdfModel
from repro.strategy.blocks import PortKind, StrategyContext
from repro.strategy.graph import StrategyGraph
from repro.strategy.library import (
    ExtractTextBlock,
    IntersectBlock,
    LimitBlock,
    MixBlock,
    QueryInputBlock,
    RankByTextBlock,
    SelectByPropertyBlock,
    SelectByTypeBlock,
    TraversePropertyBlock,
)
from repro.strategy.render import render_ascii


class TestPortKinds:
    def test_ranked_and_resources_are_interchangeable(self):
        assert PortKind.RANKED.compatible_with(PortKind.RESOURCES)
        assert PortKind.RESOURCES.compatible_with(PortKind.RANKED)

    def test_other_kinds_require_exact_match(self):
        assert PortKind.QUERY.compatible_with(PortKind.QUERY)
        assert not PortKind.QUERY.compatible_with(PortKind.DOCUMENTS)
        assert not PortKind.DOCUMENTS.compatible_with(PortKind.RESOURCES)


class TestBlockExecution:
    def test_query_input_analyzes_query(self, toy_store):
        block = QueryInputBlock()
        context = StrategyContext(store=toy_store, query="Wooden Trains")
        assert block.execute(context, {}) == ["wooden", "train"]

    def test_select_by_type(self, toy_store):
        block = SelectByTypeBlock("product")
        result = block.execute(StrategyContext(store=toy_store), {})
        assert result.num_rows == 4
        assert result.value_columns == ["node"]

    def test_select_by_property(self, toy_store):
        block = SelectByPropertyBlock("category", "toy")
        result = block.execute(StrategyContext(store=toy_store), {})
        assert set(result.relation.column("node").to_list()) == {
            "product1",
            "product3",
            "product4",
        }

    def test_extract_text(self, toy_store):
        resources = SelectByPropertyBlock("category", "toy").execute(
            StrategyContext(store=toy_store), {}
        )
        docs = ExtractTextBlock("description").execute(
            StrategyContext(store=toy_store), {"resources": resources}
        )
        assert docs.value_columns == ["docID", "data"]
        assert docs.num_rows == 3

    def test_extract_text_requires_input(self, toy_store):
        with pytest.raises(BlockError):
            ExtractTextBlock().execute(StrategyContext(store=toy_store), {})

    def test_traverse_property(self, auction_store):
        resources = SelectByTypeBlock("lot").execute(StrategyContext(store=auction_store), {})
        auctions = TraversePropertyBlock("hasAuction").execute(
            StrategyContext(store=auction_store), {"resources": resources}
        )
        assert set(auctions.relation.column("node").to_list()) == {"auction1", "auction2"}

    def test_traverse_describes_its_merge(self):
        independent = TraversePropertyBlock("hasAuction")
        subsumed = TraversePropertyBlock("hasAuction", merge="subsumed")
        assert independent.describe()["merge"] == "independent"
        assert subsumed.describe()["merge"] == "subsumed"
        diagrams = []
        for block in (independent, subsumed):
            graph = StrategyGraph()
            graph.add_block("lots", SelectByTypeBlock("lot"))
            graph.add_block("hop", block)
            graph.connect("lots", "hop")
            diagrams.append(render_ascii(graph))
        assert diagrams[0] != diagrams[1]
        assert "merge=subsumed" in diagrams[1]

    def test_rank_by_text(self, toy_store):
        context = StrategyContext(store=toy_store, query="wooden train")
        resources = SelectByPropertyBlock("category", "toy").execute(context, {})
        docs = ExtractTextBlock().execute(context, {"resources": resources})
        query = QueryInputBlock().execute(context, {})
        ranked = RankByTextBlock().execute(context, {"documents": docs, "query": query})
        assert ranked.value_columns == ["node"]
        top_node = ranked.sorted_by_probability().relation.column("node").to_list()[0]
        assert top_node == "product1"

    def test_rank_by_text_caches_statistics(self, toy_store):
        context = StrategyContext(store=toy_store, query="wooden")
        resources = SelectByPropertyBlock("category", "toy").execute(context, {})
        docs = ExtractTextBlock().execute(context, {"resources": resources})
        block = RankByTextBlock()
        block.execute(context, {"documents": docs, "query": ["wooden"]})
        block.execute(context, {"documents": docs, "query": ["train"]})
        # a second block over the same documents shares the one index
        RankByTextBlock().execute(context, {"documents": docs, "query": ["train"]})
        counters = context.statistics.counters()
        assert (counters["rebuilds"], counters["hits"], counters["entries"]) == (1, 2, 1)

    def test_rank_by_text_sees_edited_text_under_same_ids(self):
        """Regression: statistics were keyed on doc ids only, so a collection
        whose texts changed under the same ids ranked against the old index."""
        from repro.pra.relation import ProbabilisticRelation
        from repro.relational.column import DataType
        from repro.triples.triple_store import TripleStore

        def docs(second_text):
            return ProbabilisticRelation.from_rows(
                ["docID", "data"],
                [DataType.STRING, DataType.STRING],
                [("d1", "wooden train set", 1.0), ("d2", second_text, 1.0)],
            )

        context = StrategyContext(store=TripleStore())
        block = RankByTextBlock()
        before = block.execute(context, {"documents": docs("plastic car"), "query": ["train"]})
        after = block.execute(
            context, {"documents": docs("train train train"), "query": ["train"]}
        )
        assert before.relation.column("node").to_list() == ["d1"]
        assert sorted(after.relation.column("node").to_list()) == ["d1", "d2"]
        assert context.statistics.counters()["rebuilds"] == 2

    def test_rank_by_text_rejects_non_list_query(self, toy_store):
        context = StrategyContext(store=toy_store)
        resources = SelectByPropertyBlock("category", "toy").execute(context, {})
        docs = ExtractTextBlock().execute(context, {"resources": resources})
        with pytest.raises(BlockError):
            RankByTextBlock().execute(context, {"documents": docs, "query": "wooden"})

    def test_rank_by_text_with_alternative_model(self, toy_store):
        context = StrategyContext(store=toy_store)
        resources = SelectByPropertyBlock("category", "toy").execute(context, {})
        docs = ExtractTextBlock().execute(context, {"resources": resources})
        ranked = RankByTextBlock(TfIdfModel()).execute(
            context, {"documents": docs, "query": ["wooden"]}
        )
        assert ranked.num_rows >= 1

    def test_mix_weights_validation(self):
        with pytest.raises(BlockError):
            MixBlock([])
        with pytest.raises(BlockError):
            MixBlock([-1.0, 2.0])
        with pytest.raises(BlockError):
            MixBlock([0.0, 0.0])

    def test_mix_normalizes_weights(self):
        block = MixBlock([7, 3])
        assert block.weights == pytest.approx([0.7, 0.3])

    def test_mix_combines_ranked_lists(self, toy_store):
        from repro.pra.relation import ProbabilisticRelation
        from repro.relational.column import DataType

        left = ProbabilisticRelation.from_rows(
            ["node"], [DataType.STRING], [("a", 1.0), ("b", 0.5)]
        )
        right = ProbabilisticRelation.from_rows(
            ["node"], [DataType.STRING], [("b", 1.0), ("c", 0.5)]
        )
        mixed = MixBlock([0.7, 0.3]).execute(
            StrategyContext(store=toy_store), {"ranked_0": left, "ranked_1": right}
        )
        values = dict(zip(mixed.relation.column("node").to_list(), mixed.probabilities()))
        assert values["a"] == pytest.approx(0.7)
        assert values["b"] == pytest.approx(0.7 * 0.5 + 0.3 * 1.0)
        assert values["c"] == pytest.approx(0.15)

    def test_intersect_block(self, toy_store):
        from repro.pra.relation import ProbabilisticRelation
        from repro.relational.column import DataType

        left = ProbabilisticRelation.from_rows(
            ["node"], [DataType.STRING], [("a", 0.5), ("b", 1.0)]
        )
        right = ProbabilisticRelation.from_rows(["node"], [DataType.STRING], [("b", 0.5)])
        result = IntersectBlock().execute(
            StrategyContext(store=toy_store), {"left": left, "right": right}
        )
        assert result.relation.column("node").to_list() == ["b"]
        assert result.probabilities()[0] == pytest.approx(0.5)

    def test_limit_block(self, toy_store):
        from repro.pra.relation import ProbabilisticRelation
        from repro.relational.column import DataType

        ranked = ProbabilisticRelation.from_rows(
            ["node"], [DataType.STRING], [("a", 0.9), ("b", 0.5), ("c", 0.1)]
        )
        limited = LimitBlock(2).execute(StrategyContext(store=toy_store), {"ranked": ranked})
        assert limited.num_rows == 2
        with pytest.raises(BlockError):
            LimitBlock(0)

    def test_port_payload_type_checked(self, toy_store):
        with pytest.raises(PortError):
            ExtractTextBlock().execute(
                StrategyContext(store=toy_store), {"resources": ["not", "a", "relation"]}
            )


class TestStrategyGraph:
    def build_minimal(self):
        graph = StrategyGraph("test")
        graph.add_block("select", SelectByPropertyBlock("category", "toy"))
        graph.add_block("extract", ExtractTextBlock())
        graph.add_block("query", QueryInputBlock())
        graph.add_block("rank", RankByTextBlock())
        return graph

    def test_duplicate_block_name_rejected(self):
        graph = self.build_minimal()
        with pytest.raises(StrategyError):
            graph.add_block("select", SelectByTypeBlock("product"))

    def test_connect_auto_port(self):
        graph = self.build_minimal()
        graph.connect("select", "extract")
        assert graph.inputs_of("extract") == {"resources": "select"}

    def test_connect_named_port(self):
        graph = self.build_minimal()
        graph.connect("extract", "rank", port="documents")
        graph.connect("query", "rank", port="query")
        assert graph.inputs_of("rank") == {"documents": "extract", "query": "query"}

    def test_connect_unknown_block_or_port(self):
        graph = self.build_minimal()
        with pytest.raises(StrategyError):
            graph.connect("select", "missing")
        with pytest.raises(StrategyError):
            graph.connect("select", "rank", port="nonexistent")

    def test_incompatible_port_kinds_rejected(self):
        graph = self.build_minimal()
        # query output (QUERY) cannot feed the documents port (DOCUMENTS)
        with pytest.raises(PortError):
            graph.connect("query", "rank", port="documents")

    def test_double_connection_rejected(self):
        graph = self.build_minimal()
        graph.connect("select", "extract")
        with pytest.raises(StrategyError):
            graph.connect("query", "extract", port="resources")

    def test_connect_to_block_without_inputs(self):
        graph = self.build_minimal()
        with pytest.raises(StrategyError):
            graph.connect("extract", "select")

    def test_validation_requires_all_ports_connected(self):
        graph = self.build_minimal()
        graph.connect("select", "extract")
        graph.connect("extract", "rank", port="documents")
        with pytest.raises(StrategyError):
            graph.validate()
        graph.connect("query", "rank", port="query")
        graph.validate()

    def test_execution_order_is_topological(self):
        graph = self.build_minimal()
        graph.connect("select", "extract")
        graph.connect("extract", "rank", port="documents")
        graph.connect("query", "rank", port="query")
        order = graph.execution_order()
        assert order.index("select") < order.index("extract") < order.index("rank")

    def test_sinks(self):
        graph = self.build_minimal()
        graph.connect("select", "extract")
        graph.connect("extract", "rank", port="documents")
        graph.connect("query", "rank", port="query")
        assert graph.sinks() == ["rank"]

    def test_cycle_detection(self, toy_store):
        graph = StrategyGraph()
        graph.add_block("a", TraversePropertyBlock("p"))
        graph.add_block("b", TraversePropertyBlock("q"))
        graph.connect("a", "b")
        graph.connect("b", "a")
        with pytest.raises(StrategyError):
            graph.execution_order()
