"""Unit tests for the keyword search engine."""

import pytest

from repro.errors import IndexingError
from repro.ir.query_expansion import SynonymExpander
from repro.ir.ranking import TfIdfModel
from repro.ir.search import KeywordSearchEngine
from repro.ir.statistics import RelationalStatisticsBuilder
from repro.relational.column import DataType
from repro.relational.database import Database
from repro.relational.relation import Relation
from repro.relational.schema import Field, Schema
from tests.statistics_equality import assert_statistics_equal


class TestSearchEngine:
    def test_direct_pipeline_basic_search(self, docs_database):
        engine = KeywordSearchEngine(docs_database, "docs")
        result = engine.search("history of trains")
        assert len(result.ranked) > 0
        assert result.query_terms == ["histori", "of", "train"]

    def test_searches_rank_the_view_chain_statistics(self, docs_database):
        engine = KeywordSearchEngine(docs_database, "docs")
        views = RelationalStatisticsBuilder(docs_database, "docs").materialize()
        assert_statistics_equal(views, engine.statistics)
        for query in ("book about history", "model trains", "cake recipe"):
            served = engine.search(query, top_k=5).ranked
            ranked = engine.model.rank(views, engine.analyze_query(query), top_k=5)
            assert served.doc_ids == ranked.doc_ids
            assert served.scores.tolist() == ranked.scores.tolist()

    def test_statistics_cached_between_queries(self, docs_database):
        engine = KeywordSearchEngine(docs_database, "docs")
        first = engine.search("history")
        second = engine.search("trains")
        assert first.statistics_were_cached is False
        assert second.statistics_were_cached is True

    def test_warm_up_and_invalidate(self, docs_database):
        engine = KeywordSearchEngine(docs_database, "docs")
        engine.warm_up()
        assert engine.search("history").statistics_were_cached is True
        engine.invalidate()
        assert engine.search("history").statistics_were_cached is False

    def test_empty_docs_source_rejected(self):
        db = Database()
        schema = Schema([Field("docID", DataType.INT), Field("data", DataType.STRING)])
        db.create_table("docs", Relation.empty(schema))
        engine = KeywordSearchEngine(db, "docs")
        with pytest.raises(IndexingError):
            engine.search("anything")

    def test_top_k_limits_results(self, docs_database):
        engine = KeywordSearchEngine(docs_database, "docs")
        result = engine.search("history book cake trains", top_k=2)
        assert len(result.ranked) == 2

    def test_alternative_model(self, docs_database):
        engine = KeywordSearchEngine(docs_database, "docs", model=TfIdfModel())
        result = engine.search("cake recipe")
        assert result.top(1)[0][0] == 2

    def test_result_relation_has_probability_column(self, docs_database):
        engine = KeywordSearchEngine(docs_database, "docs")
        relation = engine.search("history").to_relation()
        assert relation.schema.names == ["docID", "score", "p"]
        probabilities = relation.column("p").to_list()
        assert max(probabilities) == pytest.approx(1.0)
        assert all(0 < value <= 1 for value in probabilities)

    def test_search_over_view(self, docs_database):
        from repro.relational.algebra import Scan, Select
        from repro.relational.expressions import col, lit

        docs_database.create_view(
            "history_docs",
            Select(Scan("docs"), col("docID").lt(lit(4))),
        )
        engine = KeywordSearchEngine(docs_database, "history_docs")
        result = engine.search("history")
        assert all(doc < 4 for doc, _ in result.top(10))

    def test_query_expansion_adds_terms(self, docs_database):
        expander = SynonymExpander({"railway": ["train"]})
        engine = KeywordSearchEngine(docs_database, "docs", expander=expander)
        result = engine.search("railway")
        # 'railway' stems to 'railwai'; the synonym 'train' must contribute matches
        assert "train" in result.expanded_terms
        assert len(result.ranked) > 0

    def test_query_is_analysed_like_the_documents(self, docs_database):
        engine = KeywordSearchEngine(docs_database, "docs")
        inflected = engine.search("HISTORIES")
        assert inflected.query_terms == ["histori"]
        plain = engine.search("history").ranked
        assert inflected.ranked.doc_ids == plain.doc_ids
        assert inflected.ranked.scores.tolist() == plain.scores.tolist()

    def test_describe(self, docs_database):
        engine = KeywordSearchEngine(docs_database, "docs")
        description = engine.describe()
        assert description["docs_source"] == "docs"
        assert description["model"]["model"] == "bm25"

    def test_elapsed_time_recorded(self, docs_database):
        engine = KeywordSearchEngine(docs_database, "docs")
        result = engine.search("history")
        assert result.elapsed_seconds >= 0.0
