"""Unit tests for strategy execution, the pre-built strategies and rendering."""

import gc

import pytest

from repro.errors import StrategyError
from repro.ir.query_expansion import SynonymExpander
from repro.strategy.blocks import Block, Port, PortKind
from repro.strategy.executor import StrategyExecutor
from repro.strategy.graph import StrategyGraph
from repro.strategy.library import (
    ExtractTextBlock,
    MixBlock,
    QueryInputBlock,
    SelectByPropertyBlock,
    SelectByTypeBlock,
)
from repro.strategy.prebuilt import (
    build_auction_strategy,
    build_expanded_auction_strategy,
    build_toy_strategy,
)
from repro.strategy.render import render_ascii, render_dot


class TestExecutor:
    def test_runs_toy_strategy(self, toy_store):
        run = StrategyExecutor(toy_store).run(build_toy_strategy(), query="wooden train")
        assert run.query == "wooden train"
        nodes = [node for node, _ in run.top(5)]
        assert nodes[0] == "product1"
        assert set(nodes) <= {"product1", "product3", "product4"}

    def test_block_timings_and_outputs_recorded(self, toy_store):
        run = StrategyExecutor(toy_store).run(build_toy_strategy(), query="train")
        assert set(run.block_timings) == set(build_toy_strategy().block_names())
        assert "rank_bm25" in run.block_outputs
        assert run.elapsed_seconds > 0

    def test_result_sorted_by_probability(self, toy_store):
        run = StrategyExecutor(toy_store).run(build_toy_strategy(), query="train toy")
        probabilities = list(run.result.probabilities())
        assert probabilities == sorted(probabilities, reverse=True)

    def test_multiple_sinks_require_explicit_result_block(self, toy_store):
        graph = StrategyGraph()
        graph.add_block("a", SelectByTypeBlock("product"))
        graph.add_block("b", SelectByPropertyBlock("category", "toy"))
        executor = StrategyExecutor(toy_store)
        with pytest.raises(StrategyError):
            executor.run(graph, query="x")
        run = executor.run(graph, query="x", result_block="b")
        assert run.result.num_rows == 3

    def test_non_relation_result_block_rejected(self, toy_store):
        graph = StrategyGraph()
        graph.add_block("query", QueryInputBlock())
        with pytest.raises(StrategyError):
            StrategyExecutor(toy_store).run(graph, query="x", result_block="query")

    def test_invalid_graph_rejected_before_execution(self, toy_store):
        graph = StrategyGraph()
        graph.add_block("extract", ExtractTextBlock())
        with pytest.raises(StrategyError):
            StrategyExecutor(toy_store).run(graph, query="x")


#: the auction blocks that read the store only, never the request
STORE_ONLY = ["select_lots", "lot_descriptions", "to_auctions", "auction_descriptions"]


class TestBlockMemo:
    """Request-independent blocks run once per data and graph version."""

    def test_store_only_blocks_are_served_from_the_memo(self, auction_store):
        executor = StrategyExecutor(auction_store)
        graph = build_auction_strategy()
        cold = executor.run(graph, query="wooden table")
        warm = executor.run(graph, query="bronze statue")
        assert cold.memoized_blocks == []
        assert sorted(warm.memoized_blocks) == sorted(STORE_ONLY)
        # the ladder indexes every block: memoized ones keep a (near-zero) timing
        assert set(warm.block_timings) == set(graph.block_names())
        for name in STORE_ONLY:
            assert warm.block_outputs[name] is cold.block_outputs[name]
        assert executor.counters() == {
            "hits": 4, "misses": 4, "invalidations": 0, "graphs": 1
        }
        fresh = StrategyExecutor(auction_store).run(build_auction_strategy(), "bronze statue")
        assert list(warm.result.rows()) == list(fresh.result.rows())

    def test_a_block_that_does_not_declare_independence_is_never_memoized(self, toy_store):
        calls = []

        class QueryTaggedSelect(Block):
            """Reads the request like an unknown user block would: default-dependent."""

            def input_ports(self):
                return [Port("resources", PortKind.RESOURCES)]

            def output_port(self):
                return Port("resources", PortKind.RESOURCES)

            def execute(self, context, inputs):
                calls.append(context.query)
                return inputs["resources"]

        graph = StrategyGraph()
        graph.add_block("select", SelectByTypeBlock("product"))
        graph.add_block("custom", QueryTaggedSelect())
        graph.add_block("texts", ExtractTextBlock())  # independent, but below a dependent block
        graph.connect("select", "custom")
        graph.connect("custom", "texts")
        executor = StrategyExecutor(toy_store)
        for query in ("first", "second", "third"):
            run = executor.run(graph, query=query)
        assert calls == ["first", "second", "third"]
        assert run.memoized_blocks == ["select"]

    def test_an_execute_override_does_not_inherit_the_library_declaration(self, toy_store):
        calls = []

        class QueryFilteredSelect(SelectByTypeBlock):
            """Overrides ``execute`` of an independent library block and reads the request."""

            def execute(self, context, inputs):
                calls.append(context.query)
                return super().execute(context, inputs)

        class RenamedSelect(SelectByTypeBlock):
            """Runs the library's own ``execute``: the declaration still covers it."""

        class DeclaredSelect(QueryFilteredSelect):
            request_independent = True

        graph = StrategyGraph()
        graph.add_block("override", QueryFilteredSelect("product"))
        graph.add_block("plain", RenamedSelect("product"))
        graph.add_block("declared", DeclaredSelect("product"))
        executor = StrategyExecutor(toy_store)
        for query in ("first", "second"):
            run = executor.run(graph, query=query, result_block="override")
        # the override ran for every request, the redeclared subclass once
        assert calls == ["first", "first", "second"]
        assert sorted(run.memoized_blocks) == ["declared", "plain"]

    def test_reconfiguring_a_memoized_block_retires_the_memo(self, toy_store):
        graph = StrategyGraph()
        graph.add_block("select", SelectByPropertyBlock("category", "toy"))
        executor = StrategyExecutor(toy_store)
        assert executor.run(graph).result.num_rows == 3
        assert executor.run(graph).memoized_blocks == ["select"]
        graph.block("select").value = "book"
        fresh = StrategyGraph()
        fresh.add_block("select", SelectByPropertyBlock("category", "book"))
        run = executor.run(graph)
        assert run.memoized_blocks == []
        assert list(run.result.rows()) == list(StrategyExecutor(toy_store).run(fresh).result.rows())

    def test_a_memo_dies_with_its_graph(self, toy_store):
        executor = StrategyExecutor(toy_store)
        kept = StrategyGraph()
        kept.add_block("select", SelectByTypeBlock("product"))
        executor.run(kept)
        for _ in range(20):
            throwaway = StrategyGraph()
            throwaway.add_block("select", SelectByTypeBlock("product"))
            executor.run(throwaway)
        del throwaway
        gc.collect()
        assert executor.counters()["graphs"] == 1
        assert executor.run(kept).memoized_blocks == ["select"]

    def test_structural_change_retires_the_memo(self, toy_store):
        graph = StrategyGraph()
        graph.add_block("select", SelectByTypeBlock("product"))
        executor = StrategyExecutor(toy_store)
        executor.run(graph)
        assert executor.run(graph).memoized_blocks == ["select"]
        graph.add_block("toys", SelectByPropertyBlock("category", "toy"))
        run = executor.run(graph, result_block="toys")
        assert run.memoized_blocks == []
        assert executor.counters()["invalidations"] == 1

    def test_data_change_retires_the_memo(self, toy_store):
        graph = StrategyGraph()
        graph.add_block("select", SelectByTypeBlock("product"))
        executor = StrategyExecutor(toy_store)
        assert executor.run(graph).result.num_rows == 4
        assert executor.run(graph).memoized_blocks == ["select"]
        # buffered, not yet loaded: the run materialises it and must see it
        toy_store.add("product5", "type", "product")
        run = executor.run(graph)
        assert run.memoized_blocks == [] and run.result.num_rows == 5
        assert executor.run(graph).memoized_blocks == ["select"]
        executor.clear()
        assert executor.run(graph).memoized_blocks == []


class TestToyStrategy:
    def test_structure_matches_figure2(self):
        graph = build_toy_strategy()
        names = set(graph.block_names())
        assert names == {"select_category", "extract_description", "query", "rank_bm25"}
        assert graph.sinks() == ["rank_bm25"]

    def test_only_toy_products_are_ranked(self, toy_store):
        run = StrategyExecutor(toy_store).run(build_toy_strategy(), query="history of trains")
        nodes = {node for node, _ in run.top(10)}
        # product2 is a book about trains: it must NOT appear, the category
        # filter restricts the collection to toys (the point of the scenario)
        assert "product2" not in nodes

    def test_custom_category(self, toy_store):
        strategy = build_toy_strategy(category="book")
        run = StrategyExecutor(toy_store).run(strategy, query="history of trains")
        assert [node for node, _ in run.top(5)] == ["product2"]


class TestAuctionStrategy:
    def test_structure_matches_figure3(self):
        graph = build_auction_strategy()
        names = set(graph.block_names())
        assert {
            "select_lots",
            "query",
            "lot_descriptions",
            "rank_lots",
            "to_auctions",
            "auction_descriptions",
            "rank_auctions",
            "back_to_lots",
            "mix",
        } == names
        assert graph.sinks() == ["mix"]

    def test_returns_only_lots(self, auction_store):
        run = StrategyExecutor(auction_store).run(build_auction_strategy(), query="antique clock")
        nodes = [node for node, _ in run.top(10)]
        assert nodes and all(node.startswith("lot") for node in nodes)

    def test_own_description_match_ranks_first(self, auction_store):
        run = StrategyExecutor(auction_store).run(
            build_auction_strategy(), query="grandfather clock"
        )
        assert run.top(1)[0][0] == "lot2"

    def test_auction_description_contributes_sibling_lots(self, auction_store):
        # 'vintage furniture' only occurs in auction1's description; both of its
        # lots must be reachable through the right branch
        run = StrategyExecutor(auction_store).run(
            build_auction_strategy(), query="vintage furniture"
        )
        nodes = {node for node, _ in run.top(10)}
        assert {"lot1", "lot2"} <= nodes
        assert "lot3" not in nodes

    def test_weights_change_the_mix(self, auction_store):
        lot_heavy = StrategyExecutor(auction_store).run(
            build_auction_strategy(lot_weight=0.9, auction_weight=0.1), query="antique clocks"
        )
        auction_heavy = StrategyExecutor(auction_store).run(
            build_auction_strategy(lot_weight=0.1, auction_weight=0.9), query="antique clocks"
        )
        assert lot_heavy.top(4) != auction_heavy.top(4)

    def test_expanded_strategy_uses_synonyms(self, auction_store):
        expander = SynonymExpander({"timepiece": ["clock"]})
        strategy = build_expanded_auction_strategy(expander)
        run = StrategyExecutor(auction_store).run(strategy, query="timepiece")
        nodes = {node for node, _ in run.top(10)}
        assert "lot2" in nodes  # found only via the synonym 'clock'

    def test_plain_strategy_misses_synonym_only_query(self, auction_store):
        run = StrategyExecutor(auction_store).run(build_auction_strategy(), query="timepiece")
        assert run.result.num_rows == 0


class TestRendering:
    def test_ascii_contains_blocks_and_edges(self):
        text = render_ascii(build_auction_strategy())
        assert "rank auction lots" in text
        assert "Rank by Text" in text
        assert "mix" in text
        assert "<-- [rank_lots]" in text or "ranked_0 <-- [rank_lots]" in text
        assert "Result block(s): mix" in text

    def test_ascii_of_toy_strategy_mentions_category_filter(self):
        text = render_ascii(build_toy_strategy())
        assert "Select by property" in text
        assert "category" in text and "toy" in text

    def test_dot_output_is_well_formed(self):
        dot = render_dot(build_auction_strategy())
        assert dot.startswith("digraph")
        assert dot.rstrip().endswith("}")
        assert '"rank_lots" -> "mix"' in dot
        assert "Mix" in dot

    def test_mix_block_ports_render_weights(self):
        block = MixBlock([0.7, 0.3])
        ports = block.input_ports()
        assert len(ports) == 2
        assert "0.70" in ports[0].description
