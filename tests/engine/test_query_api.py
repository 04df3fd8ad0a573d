"""The lazy Query API: laziness, fluent chaining, explain, bindings."""

import json

import pytest

from repro.engine import Engine, connect
from repro.engine.query import as_probabilistic
from repro.errors import EngineError
from repro.pra.relation import ProbabilisticRelation
from repro.relational.column import Column, DataType
from repro.relational.relation import Relation
from repro.relational.schema import Field, Schema

TRIPLES = [
    ("product1", "type", "product"),
    ("product1", "category", "toy"),
    ("product1", "description", "wooden train set for children"),
    ("product2", "type", "product"),
    ("product2", "category", "book"),
    ("product2", "description", "history of trains and railways"),
    ("product3", "type", "product"),
    ("product3", "category", "toy"),
    ("product3", "description", "plastic toy car with remote control"),
]


@pytest.fixture
def engine():
    return connect().load_triples(TRIPLES)


def result_pairs_reference(result, k):
    """Full-sort-then-slice reference, independent of the rank-aware path."""
    ranked = ProbabilisticRelation(
        result.sorted_by_probability().relation.head(k), validate=False
    )
    nodes = ranked.relation.column(ranked.value_columns[0]).to_list()
    return [(node, float(p)) for node, p in zip(nodes, ranked.probabilities())]


class TestLaziness:
    def test_spinql_does_not_execute_on_construction(self, engine):
        query = engine.spinql("bad = SELECT [$1=\"x\"] (missing_table);")
        # construction is fine; only execution resolves the scan
        with pytest.raises(Exception):
            query.execute()

    def test_builder_chain_is_immutable(self, engine):
        base = engine.table("triples")
        filtered = base.where(property="category")
        assert base.plan is not filtered.plan
        assert base.columns == ["subject", "property", "object"]
        assert filtered.columns == base.columns

    def test_strategy_query_is_reusable_across_queries(self, engine):
        strategy = engine.strategy("toy", category="toy")
        first = strategy.execute(query="wooden train")
        second = strategy.execute(query="remote control")
        assert first.query == "wooden train"
        assert second.query == "remote control"


class TestFluentBuilder:
    def test_where_select_traverse(self, engine):
        rows = (
            engine.table("triples")
            .where(property="category", object="toy")
            .select("subject")
            .traverse("description")
            .execute()
            .value_rows()
        )
        texts = {row[0] for row in rows}
        assert texts == {
            "wooden train set for children",
            "plastic toy car with remote control",
        }

    def test_select_by_position_and_alias(self, engine):
        query = engine.table("triples").select(1, doc=3)
        assert query.columns == ["subject", "doc"]
        result = query.execute()
        assert result.value_columns == ["subject", "doc"]

    def test_where_unknown_column_raises(self, engine):
        with pytest.raises(EngineError, match="unknown column"):
            engine.table("triples").where(nope="x")

    def test_where_without_arguments_raises(self, engine):
        with pytest.raises(EngineError, match="needs a predicate"):
            engine.table("triples").where()

    def test_rank_requires_two_columns(self, engine):
        query = engine.table("triples").select("subject").rank("train")
        with pytest.raises(EngineError, match="two-column"):
            query.execute()

    def test_rank_returns_sorted_probabilities(self, engine):
        ranked = (
            engine.table("triples")
            .where(property="description")
            .select("subject", "object")
            .rank("wooden train")
        )
        pairs = ranked.top(3)
        assert pairs[0][0] == "product1"
        probabilities = [probability for _, probability in pairs]
        assert probabilities == sorted(probabilities, reverse=True)

    def test_rank_query_override_at_execute(self, engine):
        ranked = (
            engine.table("triples")
            .where(property="description")
            .select("subject", "object")
            .rank()
        )
        with pytest.raises(EngineError, match="no query"):
            ranked.execute()
        assert ranked.top(1, query="remote control car")[0][0] == "product3"


class TestTraverseFrontEnd:
    def test_traverse_with_seed_shapes(self, engine):
        for seeds in (["product1"], [("product1", 1.0)], "product1"):
            result = engine.traverse("description", seeds=seeds).execute()
            assert result.value_rows() == [("wooden train set for children",)]

    def test_traverse_backward(self, engine):
        result = engine.traverse(
            "category", seeds=["toy"], direction="backward"
        ).execute()
        assert {row[0] for row in result.value_rows()} == {"product1", "product3"}

    def test_traverse_unbound_seeds_is_reusable(self, engine):
        hop = engine.traverse("category")
        assert hop.execute(seeds=["product1"]).value_rows() == [("toy",)]
        assert hop.execute(seeds=["product2"]).value_rows() == [("book",)]

    def test_invalid_direction_raises(self, engine):
        with pytest.raises(EngineError, match="direction"):
            engine.traverse("category", direction="sideways")


class TestExplain:
    def test_spinql_explain_has_all_sections(self, engine):
        report = engine.spinql(
            'docs = SELECT [$2="description"] (triples);'
        ).explain()
        assert "SpinQL program:" in report
        assert "PRA plan:" in report
        assert "Optimized PRA plan:" in report
        assert "SQL translation:" in report

    def test_optimized_plan_fuses_selections(self, engine):
        report = engine.spinql(
            'a = SELECT [$3="toy"] (SELECT [$2="category"] (triples));'
        ).explain()
        raw, optimized = report.split("Optimized PRA plan:")
        assert optimized.count("SELECT [") == 1  # fused into one conjunction
        assert raw.split("PRA plan:")[1].count("SELECT [") == 2

    def test_strategy_explain_renders_diagram(self, engine):
        diagram = engine.strategy("toy").explain()
        assert "Rank by Text" in diagram

    def test_strategy_explain_reports_what_is_reused(self, engine):
        query = engine.strategy("toy", query="train")
        cold = query.explain()
        assert "select_category: computed on its next run, then served from the cache" in cold
        assert "rank_bm25: runs per request" in cold
        assert "RANK BM25 [$query]" in cold  # each block's plan is printed
        query.execute()
        warm = query.explain()
        assert "select_category: served from the materialization cache" in warm
        assert "extract_description: served from the materialization cache" in warm
        assert "query: runs per request" in warm

    def test_search_explain_reports_statistics_state(self, engine):
        engine.store.register_docs_view(
            "docs",
            filter_property="category",
            filter_value="toy",
            text_property="description",
        )
        query = engine.search("docs", "train")
        assert "cold" in query.explain()
        query.execute()
        assert "hot" in query.explain()

    def test_parameter_rendered_in_sql(self, engine):
        report = engine.spinql(
            "out = TRAVERSE ['category'] (seeds);", seeds=["product1"]
        ).explain()
        assert ":seeds" in report
        assert "Param(seeds)" in report

    def test_explain_top_k_shows_pushed_down_top(self, engine):
        # the weight commutes with TOP, so the optimized plan must show the
        # TOP node pushed below the WEIGHT while the raw plan keeps it on top
        report = engine.spinql(
            'out = WEIGHT [0.5] (PROJECT [$1 AS node] (triples));'
        ).explain(top_k=4)
        raw, optimized = report.split("Optimized PRA plan:")
        raw_plan = raw.split("PRA plan:")[1]
        assert raw_plan.strip().startswith("TOP [4]")
        optimized_lines = [line for line in optimized.splitlines() if line.strip()]
        assert optimized_lines[0].startswith("WEIGHT")
        assert any(line.strip().startswith("TOP [4]") for line in optimized_lines[1:])

    def test_engine_explain_accepts_top_k(self, engine):
        report = engine.explain(
            'out = PROJECT [$1 AS node] (triples);', top_k=2
        )
        assert "TOP [2]" in report

    def test_builder_top_k_explain_shows_top_node(self, engine):
        report = engine.table("triples").select("subject").top_k(3).explain()
        assert "TOP [3]" in report


class TestRankAwareTop:
    def test_builder_top_matches_full_execute(self, engine):
        query = engine.table("triples").where(property="category").select("subject", "object")
        full = result_pairs_reference(query.execute(), 2)
        assert query.top(2) == full

    def test_spinql_top_matches_full_execute(self, engine):
        query = engine.spinql('out = PROJECT [$1 AS node] (triples);')
        full = result_pairs_reference(query.execute(), 3)
        assert query.top(3) == full

    def test_tie_break_is_deterministic_regression(self, engine):
        # equal probabilities: results must come back in value order, not in
        # whatever order evaluation produced the rows
        pairs = engine.table("triples").select("subject").top(3)
        assert [node for node, _ in pairs] == sorted(node for node, _ in pairs)


class TestBindings:
    def test_as_probabilistic_shapes(self):
        from repro.relational.column import DataType
        from repro.relational.relation import Relation
        from repro.relational.schema import Field, Schema

        pairs = as_probabilistic([("a", 0.5), ("b", 1.0)])
        assert pairs.value_rows() == [("a",), ("b",)]
        assert list(pairs.probabilities()) == [0.5, 1.0]

        bare = as_probabilistic(["a", "b"])
        assert list(bare.probabilities()) == [1.0, 1.0]

        relation = Relation.from_rows(Schema([Field("n", DataType.STRING)]), [("x",)])
        lifted = as_probabilistic(relation)
        assert isinstance(lifted, ProbabilisticRelation)

        assert as_probabilistic(pairs) is pairs

    def test_as_probabilistic_rejects_garbage(self):
        with pytest.raises(EngineError):
            as_probabilistic(42)

    def test_undeclared_spinql_parameter_raises(self, engine):
        query = engine.spinql('out = PROJECT [$1 AS n] (triples);')
        with pytest.raises(EngineError, match="undeclared parameters"):
            query.execute(triples=["product1"])  # 'triples' compiled to a scan

    def test_undeclared_builder_parameter_raises(self, engine):
        hop = engine.traverse("category")
        with pytest.raises(EngineError, match="undeclared parameters"):
            hop.execute(seedz=["product1"])

    def test_strategy_unknown_name_raises(self, engine):
        with pytest.raises(EngineError, match="unknown strategy"):
            engine.strategy("nope")

    def test_strategy_graph_with_builder_kwargs_raises(self, engine):
        graph = engine.strategy("toy").graph
        with pytest.raises(EngineError, match="builder keyword"):
            engine.strategy(graph, category="toy")


class TestEngineSession:
    def test_connect_info(self, engine):
        info = engine.connect_info()
        assert info["triples"] == len(TRIPLES)
        assert "triples" in info["tables"]
        engine.spinql('a = SELECT [$2="category"] (triples);').execute()
        info = json.loads(json.dumps(engine.connect_info()))
        for cache in ("plan_cache", "materialization_cache", "result_cache"):
            assert set(info[cache]) >= {"hits", "misses", "evictions", "entries", "hit_rate"}

    def test_from_triples_classmethod(self):
        engine = Engine.from_triples(TRIPLES)
        assert engine.store.num_triples == len(TRIPLES)

    def test_clear_caches_resets_plan_cache(self, engine):
        engine.spinql('a = SELECT [$2="category"] (triples);').execute()
        assert len(engine.plan_cache) > 0
        engine.clear_caches()
        assert len(engine.plan_cache) == 0

    def test_reuse_is_keyed_by_plan_content(self, engine):
        # a name is one lowering in the plan cache: the same graph on every call
        first = engine.strategy("toy", query="train")
        assert engine.strategy("toy", query="car").graph is first.graph
        assert first.execute().memoized_blocks == []
        again = engine.strategy("toy", query="car").execute()
        assert again.memoized_blocks == ["select_category", "extract_description"]
        # builder kwargs build a fresh graph per call; its blocks lower to the
        # same plans, so they are served from the same entries
        kwargs = engine.strategy("toy", category="toy")
        assert kwargs.graph is not first.graph
        assert kwargs.execute().memoized_blocks == ["select_category", "extract_description"]
        # clear_caches drops the lowering and the outputs
        engine.clear_caches()
        cleared = engine.strategy("toy", query="train")
        assert cleared.graph is not first.graph
        assert cleared.execute().memoized_blocks == []

    def test_reuse_statistics_counts_cache_and_registry(self, engine):
        for query in ("wooden train", "remote control", "history"):
            engine.strategy("toy", query=query).execute()
        reuse = engine.reuse_statistics()
        assert set(reuse) == {"materialization_cache", "statistics_registry"}
        assert reuse["materialization_cache"] == engine.database.cache.statistics.to_dict()
        assert engine.statistics_registry.counters() == {
            "hits": 2, "extends": 0, "rebuilds": 1, "evictions": 0, "entries": 1
        }
        assert engine.connect_info()["reuse"] == reuse
        before = reuse["materialization_cache"]["invalidations"]
        engine.load_triples([("product4", "type", "product")])
        # the write dropped the two stored blocks (and the reads below them)
        assert engine.reuse_statistics()["materialization_cache"]["invalidations"] >= before + 2
        assert engine.strategy("toy", query="train").execute().memoized_blocks == []
        engine.clear_caches()
        assert engine.statistics_registry.counters()["entries"] == 0
        assert engine.reuse_statistics()["materialization_cache"]["entries"] == 0

    def test_mutating_the_named_graph_does_not_change_what_the_name_runs(self, engine):
        from repro.strategy.library import SelectByTypeBlock

        shared = engine.strategy("toy", query="wooden train")
        expected = list(shared.execute().result.rows())
        shared.graph.add_block("intruder", SelectByTypeBlock("product"))
        # the name runs its lowering: the plans, not the graph object
        again = engine.strategy("toy", query="wooden train")
        assert list(again.execute().result.rows()) == expected

    def test_by_name_kept_and_fresh_graphs_agree_bit_for_bit(self, engine):
        from repro.strategy.prebuilt import build_toy_strategy

        kept = build_toy_strategy()
        for query in ("wooden train", "remote control", "history of trains"):
            by_name = engine.strategy("toy", query=query).execute()
            by_kept = engine.strategy(kept, query=query).execute()
            fresh = connect().load_triples(TRIPLES).strategy(build_toy_strategy(), query=query)
            expected = list(fresh.execute().result.rows())
            assert list(by_name.result.rows()) == expected
            assert list(by_kept.result.rows()) == expected

    def test_a_named_strategy_shares_the_index_search_built(self):
        from repro.workloads import generate_auction_triples

        workload = generate_auction_triples(60, seed=7)
        engine = Engine.from_triples(workload.triples)
        engine.create_table("docs", Relation(
            Schema([Field("docID", DataType.STRING), Field("data", DataType.STRING)]),
            [
                Column(list(workload.lot_descriptions), DataType.STRING),
                Column(list(workload.lot_descriptions.values()), DataType.STRING),
            ],
        ))
        engine.search("docs", "antique oak").execute()
        before = engine.statistics_registry.counters()
        engine.strategy("auction", query="antique oak").execute()
        after = engine.statistics_registry.counters()
        # the lots index is the docs index; only the auctions index is new
        assert after["entries"] - before["entries"] == 1
        assert (after["hits"] - before["hits"], after["rebuilds"] - before["rebuilds"]) == (1, 1)

    def test_search_and_rank_share_one_index(self, engine):
        engine.store.register_docs_view(
            "docs", filter_property="category", filter_value="toy", text_property="description"
        )
        engine.search("docs", "train").execute()
        engine.table("docs").rank("train").execute()
        registry = engine.reuse_statistics()["statistics_registry"]
        assert (registry["rebuilds"], registry["hits"], registry["entries"]) == (1, 1, 1)

    def test_plan_cache_is_bounded_by_default(self):
        from repro.engine import DEFAULT_MAX_ENTRIES

        engine = connect(plan_cache_size=None).load_triples(TRIPLES)
        for value in range(DEFAULT_MAX_ENTRIES + 40):
            engine.spinql(f'a = SELECT [$3="{value}"] (triples);').execute()
        assert len(engine.plan_cache) == DEFAULT_MAX_ENTRIES
