"""Unit tests for strategy execution, the pre-built strategies and rendering."""

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


class TestPlanCache:
    """Blocks whose plans read nothing of the request are served by plan content."""

    def test_store_only_blocks_are_served_from_the_cache(self, auction_store):
        executor = StrategyExecutor(auction_store)
        graph = build_auction_strategy()
        cold = executor.run(graph, query="wooden table")
        warm = executor.run(graph, query="bronze statue")
        assert cold.memoized_blocks == []
        assert sorted(warm.memoized_blocks) == sorted(STORE_ONLY)
        # the ladder indexes every block: served ones keep a (near-zero) timing
        assert set(warm.block_timings) == set(graph.block_names())
        for name in STORE_ONLY:
            assert warm.block_outputs[name] is cold.block_outputs[name]
        fresh = StrategyExecutor(auction_store).run(build_auction_strategy(), "bronze statue")
        assert list(warm.result.rows()) == list(fresh.result.rows())

    def test_a_fresh_graph_per_request_is_served_like_a_kept_one(self, auction_store):
        from repro.engine import Engine

        executor = StrategyExecutor(auction_store)
        executor.run(build_auction_strategy(), query="wooden table")
        fresh = executor.run(build_auction_strategy(), query="bronze statue")
        assert sorted(fresh.memoized_blocks) == sorted(STORE_ONLY)
        engine = Engine.from_triples(auction_store._triples)
        try:
            engine.strategy("auction", query="wooden table").execute()
            named = engine.strategy("auction", query="bronze statue").execute()
            again = engine.strategy(build_auction_strategy(), query="bronze statue").execute()
        finally:
            engine.close()
        assert named.memoized_blocks == fresh.memoized_blocks == again.memoized_blocks

    def test_a_block_that_reads_the_request_is_never_cached(self, toy_store):
        calls = []

        class QueryTaggedSelect(Block):
            """Reads the request like an unknown user block would: runs by execute."""

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
        graph.add_block("texts", ExtractTextBlock())  # store-only, but below a request
        graph.connect("select", "custom")
        graph.connect("custom", "texts")
        executor = StrategyExecutor(toy_store)
        for query in ("first", "second", "third"):
            run = executor.run(graph, query=query)
        assert calls == ["first", "second", "third"]
        assert run.memoized_blocks == ["select"]
        lowered = executor.lower(graph)
        assert [step.name for step in lowered.blocks if step.key is not None] == ["select"]

    def test_an_execute_override_runs_its_own_code_every_time(self, toy_store):
        calls = []

        class QueryFilteredSelect(SelectByTypeBlock):
            """Overrides ``execute`` of a library block and reads the request."""

            def execute(self, context, inputs):
                calls.append(context.query)
                return super().execute(context, inputs)

        class RenamedSelect(SelectByTypeBlock):
            """Keeps the library's plan: cached like the library block."""

        graph = StrategyGraph()
        graph.add_block("override", QueryFilteredSelect("product"))
        graph.add_block("plain", RenamedSelect("product"))
        executor = StrategyExecutor(toy_store)
        for query in ("first", "second"):
            run = executor.run(graph, query=query, result_block="override")
        assert calls == ["first", "second"]
        assert run.memoized_blocks == []
        # a block that does not feed the result block does not run
        executor.run(graph, result_block="plain")
        plain = executor.run(graph, result_block="plain")
        assert plain.memoized_blocks == ["plain"] and calls == ["first", "second"]
        # the override's own execute evaluates the library plan: same rows
        assert list(run.block_outputs["override"].rows()) == list(
            plain.block_outputs["plain"].rows()
        )

    def test_reconfiguring_a_block_changes_its_plan(self, toy_store):
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

    def test_a_structural_change_keeps_the_unchanged_blocks(self, toy_store):
        graph = StrategyGraph()
        graph.add_block("select", SelectByTypeBlock("product"))
        executor = StrategyExecutor(toy_store)
        executor.run(graph)
        graph.add_block("texts", ExtractTextBlock())
        graph.connect("select", "texts")
        assert executor.run(graph).memoized_blocks == ["select"]
        assert executor.run(graph).memoized_blocks == ["select", "texts"]

    def test_data_change_drops_the_cached_outputs(self, toy_store):
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
        toy_store.database.clear_cache()
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
