"""Unit tests for collection statistics (fast builder and relational builder)."""

import numpy as np
import pytest

from repro.errors import IndexingError
from repro.ir.statistics import (
    RelationalStatisticsBuilder,
    build_statistics,
    docs_columns,
)
from repro.relational.column import DataType
from repro.relational.database import Database
from repro.relational.relation import Relation
from repro.relational.schema import Field, Schema
from repro.text.analyzers import StandardAnalyzer
from tests.statistics_equality import assert_statistics_equal

DOCS = [
    (1, "a book about history"),
    (2, "a cake recipe book"),
    (3, "history of cakes and baking"),
]


class TestFastBuilder:
    def test_basic_counts(self):
        stats = build_statistics(DOCS)
        assert stats.num_docs == 3
        assert stats.total_terms == sum(len(text.split()) for _, text in DOCS)
        assert stats.average_doc_length == pytest.approx(stats.total_terms / 3)

    def test_doc_ids_preserved(self):
        stats = build_statistics(DOCS)
        assert stats.doc_ids == [1, 2, 3]

    def test_document_frequency(self):
        stats = build_statistics(DOCS)
        # statistics store analyzed (stemmed) terms: history -> histori, recipe -> recip
        assert stats.df("book") == 2
        assert stats.df("histori") == 2
        assert stats.df("recip") == 1
        assert stats.df("unknown") == 0

    def test_stemming_conflates_cake_and_cakes(self):
        stats = build_statistics(DOCS)
        # 'cake' (doc 2) and 'cakes' (doc 3) share the stem 'cake'
        assert stats.df("cake") == 2

    def test_postings_are_sorted_by_document(self):
        stats = build_statistics(DOCS)
        doc_indices, frequencies = stats.postings_for("book")
        assert list(doc_indices) == sorted(doc_indices)
        assert len(doc_indices) == len(frequencies) == 2

    def test_postings_for_unknown_term_is_empty(self):
        stats = build_statistics(DOCS)
        doc_indices, frequencies = stats.postings_for("zzz")
        assert len(doc_indices) == 0 and len(frequencies) == 0

    def test_term_frequencies(self):
        stats = build_statistics([(1, "train train train car")])
        _, frequencies = stats.postings_for("train")
        assert list(frequencies) == [3]

    def test_robertson_idf_matches_formula(self):
        stats = build_statistics(DOCS)
        df = stats.df("book")
        expected = np.log((3 - df + 0.5) / (df + 0.5))
        assert stats.robertson_idf("book") == pytest.approx(expected)

    def test_robertson_idf_can_be_negative(self):
        # a term present in more than half the documents gets a negative IDF,
        # exactly as the paper's SQL formula computes it
        stats = build_statistics([(1, "common"), (2, "common"), (3, "rare")])
        assert stats.robertson_idf("common") < 0

    def test_smoothed_idf_is_positive(self):
        stats = build_statistics(DOCS)
        assert stats.smoothed_idf("book") > 0
        assert stats.smoothed_idf("missing") == 0.0

    def test_collection_frequency(self):
        stats = build_statistics([(1, "train train"), (2, "train")])
        assert stats.collection_frequency("train") == 3

    def test_custom_analyzer(self):
        analyzer = StandardAnalyzer("none")
        stats = build_statistics([(1, "Running runs")], analyzer)
        assert stats.df("running") == 1
        assert stats.df("run") == 0

    def test_empty_document_contributes_zero_length(self):
        stats = build_statistics([(1, ""), (2, "one term here")])
        assert stats.num_docs == 2
        assert stats.doc_lengths[0] == 0


class TestDocsColumns:
    def test_from_relation(self):
        schema = Schema([Field("docID", DataType.INT), Field("data", DataType.STRING)])
        ids, texts = docs_columns(Relation.from_rows(schema, DOCS))
        stats = build_statistics(list(zip(ids.to_list(), texts.to_list())))
        assert stats.num_docs == 3

    def test_missing_columns_rejected(self):
        schema = Schema([Field("id", DataType.INT), Field("text", DataType.STRING)])
        docs = Relation.from_rows(schema, DOCS)
        with pytest.raises(IndexingError):
            docs_columns(docs)

    def test_custom_column_names(self):
        schema = Schema([Field("id", DataType.INT), Field("text", DataType.STRING)])
        docs = Relation.from_rows(schema, DOCS)
        ids, texts = docs_columns(docs, id_column="id", text_column="text")
        assert ids.to_list() == [1, 2, 3]
        assert texts.to_list() == [text for _, text in DOCS]


class TestRelationalBuilder:
    @pytest.fixture
    def db(self):
        database = Database()
        schema = Schema([Field("docID", DataType.INT), Field("data", DataType.STRING)])
        database.create_table_from_rows("docs", schema, DOCS)
        return database

    def test_matches_fast_builder(self, db):
        builder = RelationalStatisticsBuilder(db, "docs")
        assert_statistics_equal(builder.materialize(), build_statistics(DOCS))

    def test_documents_without_terms_are_counted(self):
        rows = [(1, "a chair"), (2, ""), (3, "?!"), (4, "chairs and tables")]
        database = Database()
        schema = Schema([Field("docID", DataType.INT), Field("data", DataType.STRING)])
        database.create_table_from_rows("docs", schema, rows)
        statistics = RelationalStatisticsBuilder(database, "docs").materialize()
        assert statistics.num_docs == 4
        assert statistics.doc_lengths.tolist() == [2, 0, 0, 3]
        assert_statistics_equal(statistics, build_statistics(rows))

    def test_views_are_registered(self, db):
        builder = RelationalStatisticsBuilder(db, "docs", prefix="docs_")
        builder.materialize()
        assert "docs_term_doc" in db.view_names()
        assert "docs_doc_len" in db.view_names()
        assert "docs_termdict" in db.view_names()

    def test_materialization_is_cached(self, db):
        builder = RelationalStatisticsBuilder(db, "docs")
        builder.materialize()
        hits_before = db.cache.statistics.hits
        builder.materialize()
        assert db.cache.statistics.hits > hits_before

    def test_view_sql_contains_paper_elements(self, db):
        builder = RelationalStatisticsBuilder(db, "docs")
        sql = builder.view_sql()
        assert "tokenize((" in sql["term_doc"]
        assert "stem(lcase(token), 'sb-english')" in sql["term_doc"]
        assert "count(*) AS len" in sql["doc_len"]
        assert "GROUP BY termID, docID" in sql["tf"].replace("\n", " ")

    def test_language_parameter_flows_into_sql(self, db):
        builder = RelationalStatisticsBuilder(db, "docs", language="dutch")
        assert "sb-dutch" in builder.view_sql()["term_doc"]
