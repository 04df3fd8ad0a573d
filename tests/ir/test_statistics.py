"""Unit tests for collection statistics (fast builder and relational builder)."""

import numpy as np
import pytest

from repro.errors import IndexingError
from repro.ir.ranking import BM25Model, LanguageModel, TfIdfModel
from repro.ir.statistics import (
    GlobalStatistics,
    RelationalStatisticsBuilder,
    ShardCollectionStatistics,
    build_statistics,
    docs_columns,
    split_statistics,
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
        database.create_table("docs", Relation.from_rows(schema, DOCS))
        return database

    def test_matches_fast_builder(self, db):
        builder = RelationalStatisticsBuilder(db, "docs")
        assert_statistics_equal(builder.materialize(), build_statistics(DOCS))

    def test_documents_without_terms_are_counted(self):
        rows = [(1, "a chair"), (2, ""), (3, "?!"), (4, "chairs and tables")]
        database = Database()
        schema = Schema([Field("docID", DataType.INT), Field("data", DataType.STRING)])
        database.create_table("docs", Relation.from_rows(schema, rows))
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


SHARD_DOCS = [
    (10, "wooden train set for children"),
    (11, "history of trains and railways"),
    (12, "plastic toy car with remote control"),
    (13, "wooden toy blocks for toddlers, wooden craftsmanship"),
    (14, "cookbook with cake recipes"),
    (15, "a history of wooden toys"),
]

#: ascending global document indices per shard; shard 1 holds one document
SHARD_PARTITION = [np.array([0, 2, 4, 5]), np.array([1]), np.array([3])]


class TestShardStatistics:
    """Split, global reduce and shard-local views against the unsharded statistics."""

    @pytest.fixture
    def whole(self):
        return build_statistics(SHARD_DOCS)

    @pytest.fixture
    def pieces(self, whole):
        return split_statistics(whole, SHARD_PARTITION)

    @pytest.fixture
    def views(self, pieces):
        global_statistics = GlobalStatistics.reduce(pieces)
        return [ShardCollectionStatistics(piece, global_statistics) for piece in pieces]

    def test_split_keeps_each_shards_documents_in_order(self, whole, pieces):
        assert [piece.doc_ids for piece in pieces] == [
            [whole.doc_ids[index] for index in indices.tolist()]
            for indices in SHARD_PARTITION
        ]
        for piece, indices in zip(pieces, SHARD_PARTITION):
            assert piece.doc_lengths.tolist() == whole.doc_lengths[indices].tolist()
            assert piece.total_terms == int(whole.doc_lengths[indices].sum())

    def test_split_postings_map_back_to_the_global_postings(self, whole, pieces):
        for term in whole.term_ids:
            doc_indices, frequencies = whole.postings_for(term)
            expected = dict(zip(doc_indices.tolist(), frequencies.tolist()))
            recovered = {}
            for piece, indices in zip(pieces, SHARD_PARTITION):
                local, local_frequencies = piece.postings_for(term)
                assert local.tolist() == sorted(local.tolist())
                recovered.update(
                    zip(indices[local].tolist(), local_frequencies.tolist())
                )
            assert recovered == expected, term

    def test_a_shard_holds_only_the_terms_of_its_documents(self, pieces):
        assert set(pieces[1].term_ids) == set(build_statistics([SHARD_DOCS[1]]).term_ids)
        assert pieces[1].df("wooden") == 0

    def test_split_rejects_a_partition_that_misses_a_document(self, whole):
        with pytest.raises(IndexingError):
            split_statistics(whole, [np.array([0, 1, 2]), np.array([4, 5])])

    def test_reduce_equals_the_unsharded_totals(self, whole, pieces):
        reduced = GlobalStatistics.reduce(pieces)
        assert reduced.num_docs == whole.num_docs
        assert reduced.total_terms == whole.total_terms
        assert reduced.total_doc_length == int(whole.doc_lengths.sum())
        assert reduced.document_frequency == {
            term: whole.df(term) for term in whole.term_ids
        }
        assert reduced.collection_frequency == {
            term: whole.collection_frequency(term) for term in whole.term_ids
        }

    def test_merging_shard_summaries_in_any_order_equals_reduce(self, pieces):
        summaries = [GlobalStatistics.reduce([piece]) for piece in pieces]
        reduced = GlobalStatistics.reduce(pieces)
        assert GlobalStatistics.merge(summaries) == reduced
        assert GlobalStatistics.merge(summaries[::-1]) == reduced

    def test_payload_round_trip(self, pieces):
        reduced = GlobalStatistics.reduce(pieces)
        assert GlobalStatistics.from_payload(reduced.to_payload()) == reduced

    def test_restricted_to_keeps_the_totals_and_only_the_named_terms(self, pieces):
        reduced = GlobalStatistics.reduce(pieces)
        restricted = reduced.restricted_to(["wooden", "train", "absent"])
        assert (restricted.num_docs, restricted.total_terms, restricted.total_doc_length) == (
            reduced.num_docs,
            reduced.total_terms,
            reduced.total_doc_length,
        )
        assert restricted.document_frequency == {
            "wooden": reduced.document_frequency["wooden"],
            "train": reduced.document_frequency["train"],
        }
        assert set(restricted.collection_frequency) == {"wooden", "train"}

    def test_view_reads_collection_quantities_from_the_global_reduce(self, whole, views):
        for view in views:
            assert view.num_docs == whole.num_docs
            assert view.total_terms == whole.total_terms
            assert view.average_doc_length == whole.average_doc_length
            for term in ("wooden", "histori", "absent"):
                assert view.df(term) == whole.df(term)
                assert view.collection_frequency(term) == whole.collection_frequency(term)

    def test_view_scoring_arrays_stay_shard_local(self, views):
        assert [len(view.doc_ids) for view in views] == [4, 1, 1]
        assert [view.accumulator_size for view in views] == [4, 1, 1]

    @pytest.mark.parametrize(
        "model", [BM25Model(), TfIdfModel(), LanguageModel(mu=10.0)], ids=lambda m: m.name
    )
    def test_shard_scores_equal_the_unsharded_scores(self, whole, views, model):
        terms = ["wooden", "toy", "histori", "train"]
        expected = dict(model.rank(whole, terms).as_pairs())
        sharded = {}
        for view in views:
            sharded.update(model.rank(view, terms).as_pairs())
        assert sharded == expected

    def test_view_of_an_empty_collection_has_zero_average_length(self):
        empty = build_statistics([])
        view = ShardCollectionStatistics(empty, GlobalStatistics.reduce([empty]))
        assert view.num_docs == 0
        assert view.average_doc_length == 0.0
