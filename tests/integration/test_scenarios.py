"""Integration tests: the paper's scenarios end to end.

These tests exercise the full stack — workload generators → triple store →
strategies / SpinQL / keyword search — the way the examples and benchmarks
do, but at a miniature scale so they stay fast.
"""

import pytest

from repro.ir import KeywordSearchEngine
from repro.ir.query_expansion import SynonymExpander
from repro.ir.statistics import RelationalStatisticsBuilder
from repro.spinql import evaluate
from repro.strategy import StrategyExecutor, build_auction_strategy, build_toy_strategy
from repro.triples import TripleStore
from repro.workloads import (
    generate_collection,
    generate_queries,
)
from tests.statistics_equality import assert_statistics_equal


class TestToyScenarioEndToEnd:
    """Section 2: keyword search restricted to descriptions of 'toy' products."""

    def test_generated_catalog_through_strategy(self, product_workload):
        store = TripleStore()
        store.add_all(product_workload.triples)
        store.load()
        toy_products = set(product_workload.products_in_category("toy"))
        assert toy_products, "the generated catalog must contain toy products"
        query_product = sorted(toy_products)[0]
        query = " ".join(product_workload.descriptions[query_product].split()[:3])

        run = StrategyExecutor(store).run(build_toy_strategy(), query=query)
        result_nodes = [node for node, _ in run.top(10)]
        assert result_nodes, "the strategy must return results"
        assert set(result_nodes) <= toy_products
        assert query_product in result_nodes

    def test_spinql_docs_view_equals_strategy_sub_collection(self, product_workload):
        store = TripleStore()
        store.add_all(product_workload.triples)
        store.load()
        source = """
        docs = PROJECT [$1 AS docID, $6 AS data] (
          JOIN INDEPENDENT [$1=$1] (
            SELECT [$2="category" and $3="toy"] (triples),
            SELECT [$2="description"] (triples) ) );
        """
        docs = evaluate(source, store.database)
        expected = set(product_workload.products_in_category("toy"))
        assert set(docs.relation.column("docID").to_list()) == expected

    def test_keyword_search_on_registered_docs_view(self, product_workload):
        store = TripleStore()
        store.add_all(product_workload.triples)
        store.load()
        store.register_docs_view(
            "toy_docs",
            filter_property="category",
            filter_value="toy",
            text_property="description",
        )
        engine = KeywordSearchEngine(store.database, "toy_docs", id_column="docID")
        toy_products = product_workload.products_in_category("toy")
        query = product_workload.descriptions[toy_products[0]].split()[0]
        result = engine.search(query)
        assert len(result.ranked) >= 1
        assert set(result.ranked.doc_ids) <= set(toy_products)


class TestAuctionScenarioEndToEnd:
    """Section 3: rank auction lots by own and auction descriptions."""

    @pytest.fixture(scope="class")
    def loaded_store(self, auction_workload):
        store = TripleStore()
        store.add_all(auction_workload.triples)
        store.load()
        return store

    def test_full_strategy_returns_lots_only(self, loaded_store, auction_workload):
        query = " ".join(
            auction_workload.lot_descriptions[auction_workload.lot_ids[0]].split()[:2]
        )
        run = StrategyExecutor(loaded_store).run(build_auction_strategy(), query=query)
        nodes = [node for node, _ in run.top(20)]
        assert nodes
        assert all(node in auction_workload.lot_ids for node in nodes)

    def test_auction_branch_recalls_sibling_lots(self, loaded_store, auction_workload):
        # pick terms that occur in this auction's description but in no other
        # auction's, so the right branch clearly prefers this auction's lots
        auction = auction_workload.auction_ids[0]
        own_terms = auction_workload.auction_descriptions[auction].split()
        other_terms = set()
        for other in auction_workload.auction_ids[1:]:
            other_terms.update(auction_workload.auction_descriptions[other].split())
        distinctive = [term for term in own_terms if term not in other_terms]
        assert distinctive, "the synthetic auctions must have distinctive terms"
        query = " ".join(distinctive[:2])
        run = StrategyExecutor(loaded_store).run(
            build_auction_strategy(lot_weight=0.2, auction_weight=0.8), query=query
        )
        returned = {node for node, _ in run.top(50)}
        siblings = set(auction_workload.lots_in_auction(auction))
        assert returned & siblings

    def test_repeated_queries_get_faster_after_warmup(self, loaded_store, auction_workload):
        strategy = build_auction_strategy()
        executor = StrategyExecutor(loaded_store)
        queries = [
            " ".join(auction_workload.lot_descriptions[lot].split()[:2])
            for lot in auction_workload.lot_ids[:4]
        ]
        cold = executor.run(strategy, query=queries[0]).elapsed_seconds
        warm = [executor.run(strategy, query=query).elapsed_seconds for query in queries[1:]]
        # the first run builds both on-demand indexes; later runs reuse them
        assert min(warm) < cold

    def test_query_expansion_increases_or_preserves_recall(self, loaded_store, auction_workload):
        lot = auction_workload.lot_ids[0]
        term = auction_workload.lot_descriptions[lot].split()[0]
        synonym = "zzsynonym"
        expander = SynonymExpander({synonym: [term]})
        plain = StrategyExecutor(loaded_store).run(build_auction_strategy(), query=synonym)
        expanded = StrategyExecutor(loaded_store).run(
            build_auction_strategy(expander=expander), query=synonym
        )
        assert expanded.result.num_rows >= plain.result.num_rows
        assert expanded.result.num_rows > 0


class TestKeywordSearchScaling:
    """Section 2.1: hot (materialised statistics) beats cold, and results agree."""

    def test_view_chain_serves_the_same_rankings(self):
        collection = generate_collection(150, average_length=30, seed=7)

        from repro.relational.database import Database

        db = Database()
        db.create_table("docs", collection.to_relation())
        queries = generate_queries(collection.vocabulary, 5, terms_per_query=3, seed=3)

        engine = KeywordSearchEngine(db, "docs")
        views = RelationalStatisticsBuilder(db, "docs").materialize()
        assert_statistics_equal(views, engine.statistics)
        for query in queries:
            served = engine.search(query).ranked
            ranked = engine.model.rank(views, engine.analyze_query(query))
            assert served.doc_ids == ranked.doc_ids
            assert served.scores.tolist() == ranked.scores.tolist()

    def test_cache_makes_second_statistics_build_cheap(self):
        import time

        collection = generate_collection(80, average_length=20, seed=11)
        from repro.relational.database import Database

        db = Database()
        db.create_table("docs", collection.to_relation())
        builder = RelationalStatisticsBuilder(db, "docs")

        started = time.perf_counter()
        cold_statistics = builder.materialize()
        cold = time.perf_counter() - started

        started = time.perf_counter()
        hot_statistics = builder.materialize()
        hot = time.perf_counter() - started
        # the second build reuses the database's materialised views
        assert hot < cold
        assert_statistics_equal(hot_statistics, cold_statistics)


class TestProductCatalogAcrossStorageLayouts:
    def test_same_strategy_results_for_all_layouts(self, product_workload):
        from repro.triples.partitioning import make_storage

        results = {}
        toy_products = product_workload.products_in_category("toy")
        query = product_workload.descriptions[toy_products[0]].split()[0]
        for layout in ("single-table", "property-partitioned", "type-partitioned"):
            store = TripleStore(storage=make_storage(layout))
            store.add_all(product_workload.triples)
            store.load()
            run = StrategyExecutor(store).run(build_toy_strategy(), query=query)
            results[layout] = [node for node, _ in run.top(10)]
        assert results["single-table"] == results["property-partitioned"]
        assert results["single-table"] == results["type-partitioned"]
