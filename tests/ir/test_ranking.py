"""Unit tests for the ranking models."""

import numpy as np
import pytest

from repro.errors import RankingError
from repro.ir.ranking import (
    BM25Model,
    BooleanModel,
    LanguageModel,
    RankedList,
    TfIdfModel,
    get_model,
)
from repro.ir.statistics import build_statistics

DOCS = [
    (1, "wooden train set for children"),
    (2, "history of trains and railways"),
    (3, "plastic toy car with remote control"),
    (4, "wooden toy blocks for toddlers, wooden craftsmanship"),
    (5, "cookbook with cake recipes"),
]


@pytest.fixture
def stats():
    return build_statistics(DOCS)


class TestBM25:
    def test_parameter_validation(self):
        with pytest.raises(RankingError):
            BM25Model(k1=-1)
        with pytest.raises(RankingError):
            BM25Model(b=1.5)

    def test_matching_documents_only(self, stats):
        ranked = BM25Model().rank(stats, ["wooden"])
        assert set(ranked.doc_ids) == {1, 4}

    def test_repeated_term_increases_score(self, stats):
        ranked = BM25Model(b=0.0).rank(stats, ["wooden"])
        scores = dict(ranked.as_pairs())
        # doc 4 contains 'wooden' twice, doc 1 once; with b=0 there is no
        # length normalisation so doc 4 must score higher
        assert scores[4] > scores[1]

    def test_saturation_bounds_tf_contribution(self, stats):
        # the saturated tf component is bounded by 1, so the score of a doc
        # for a single term is bounded by its idf
        model = BM25Model()
        ranked = model.rank(stats, ["wooden"])
        idf = abs(stats.robertson_idf("wooden"))
        assert all(abs(score) <= idf + 1e-9 for _, score in ranked.as_pairs())

    def test_length_normalisation_prefers_short_docs(self):
        # extra documents keep df below half the collection so the Robertson
        # IDF stays positive and length normalisation is the deciding factor
        docs = [
            (1, "train"),
            (2, "train " + "filler " * 30),
            (3, "other words entirely"),
            (4, "more unrelated text"),
            (5, "yet another document"),
        ]
        stats = build_statistics(docs)
        ranked = BM25Model(b=0.75).rank(stats, ["train"])
        scores = dict(ranked.as_pairs())
        assert scores[1] > scores[2]

    def test_multi_term_scores_are_summed(self, stats):
        single = dict(BM25Model().rank(stats, ["wooden"]).as_pairs())
        double = dict(BM25Model().rank(stats, ["wooden", "wooden"]).as_pairs())
        for doc_id, score in single.items():
            assert double[doc_id] == pytest.approx(2 * score)

    def test_top_k(self, stats):
        ranked = BM25Model().rank(stats, ["wooden", "toy", "train"], top_k=2)
        assert len(ranked) == 2

    def test_empty_query_or_collection(self, stats):
        assert len(BM25Model().rank(stats, [])) == 0
        empty = build_statistics([(1, "x")])
        assert len(BM25Model().rank(empty, ["missing"])) == 0

    def test_non_negative_idf_option(self):
        docs = [(1, "common"), (2, "common"), (3, "common rare")]
        stats = build_statistics(docs)
        default_scores = BM25Model().rank(stats, ["common"])
        clamped_scores = BM25Model(non_negative_idf=True).rank(stats, ["common"])
        assert all(score <= 0 for _, score in default_scores.as_pairs())
        assert all(score >= 0 for _, score in clamped_scores.as_pairs())

    def test_describe(self):
        description = BM25Model(k1=2.0, b=0.5).describe()
        assert description == {"model": "bm25", "k1": 2.0, "b": 0.5}


class TestTfIdf:
    def test_rare_term_scores_higher_than_common(self, stats):
        model = TfIdfModel()
        rare = dict(model.rank(stats, ["cookbook"]).as_pairs())
        common = dict(model.rank(stats, ["wooden"]).as_pairs())
        assert max(rare.values()) > max(common.values())

    def test_length_normalisation_toggle(self):
        docs = [(1, "train"), (2, "train " + "pad " * 20)]
        stats = build_statistics(docs)
        normalized = dict(TfIdfModel(length_normalized=True).rank(stats, ["train"]).as_pairs())
        raw = dict(TfIdfModel(length_normalized=False).rank(stats, ["train"]).as_pairs())
        assert normalized[1] > normalized[2]
        assert raw[1] == pytest.approx(raw[2])

    def test_scores_positive(self, stats):
        ranked = TfIdfModel().rank(stats, ["wooden", "train"])
        assert all(score > 0 for _, score in ranked.as_pairs())


class TestLanguageModel:
    def test_parameter_validation(self):
        with pytest.raises(RankingError):
            LanguageModel(smoothing="laplace")
        with pytest.raises(RankingError):
            LanguageModel(mu=0)
        with pytest.raises(RankingError):
            LanguageModel(smoothing="jelinek-mercer", lam=1.5)

    def test_dirichlet_prefers_doc_with_term(self, stats):
        ranked = LanguageModel().rank(stats, ["wooden"])
        assert set(ranked.doc_ids) == {1, 4}
        assert all(score > 0 for _, score in ranked.as_pairs())

    def test_jelinek_mercer(self, stats):
        ranked = LanguageModel(smoothing="jelinek-mercer", lam=0.3).rank(stats, ["train"])
        assert len(ranked) >= 1

    def test_higher_tf_scores_higher(self):
        docs = [(1, "train train train other"), (2, "train other filler words")]
        stats = build_statistics(docs)
        ranked = LanguageModel().rank(stats, ["train"])
        scores = dict(ranked.as_pairs())
        assert scores[1] > scores[2]


class TestBooleanModel:
    def test_counts_distinct_matching_terms(self, stats):
        ranked = BooleanModel().rank(stats, ["wooden", "train", "cookbook"])
        scores = dict(ranked.as_pairs())
        assert scores[1] == 2.0  # wooden + train
        assert scores[5] == 1.0  # cookbook only

    def test_term_repetition_in_doc_does_not_matter(self, stats):
        scores = dict(BooleanModel().rank(stats, ["wooden"]).as_pairs())
        assert scores[1] == scores[4] == 1.0


class TestRankAwareTopK:
    """top_k rank() — partial selection and threshold pruning — is exact."""

    MODELS = [
        BM25Model(),
        BM25Model(non_negative_idf=True),
        BooleanModel(),
        TfIdfModel(),
        LanguageModel(),
    ]
    QUERIES = [
        ["wooden"],
        ["wooden", "toy"],
        ["wooden", "train", "toy", "cake"],
        ["trains", "railways", "wooden", "wooden"],
    ]

    def test_top_k_matches_full_rank_slice_bitwise(self, stats):
        for model in self.MODELS:
            for terms in self.QUERIES:
                full = model.rank(stats, terms)
                for k in (1, 2, 3, 10):
                    pruned = model.rank(stats, terms, top_k=k)
                    assert pruned.doc_ids == full.doc_ids[:k], (model.name, terms, k)
                    # exactness contract: identical floats, not approximately
                    assert list(pruned.scores) == list(full.scores[:k])

    def test_boolean_upper_bound_enables_pruning(self, stats):
        assert BooleanModel().term_upper_bound(stats, "wooden") == 1.0

    def test_bm25_upper_bound_is_idf_or_disabled(self, stats):
        model = BM25Model()
        # 'wooden' is rare: positive idf bounds the contribution
        assert model.term_upper_bound(stats, "wooden") == pytest.approx(
            stats.robertson_idf("wooden")
        )
        # a term in most documents has negative Robertson idf: contributions
        # can be negative, so pruning must be disabled for it
        common = BM25Model()
        from repro.ir.statistics import build_statistics as _build

        dense = _build([(i, "wooden thing") for i in range(1, 6)])
        assert dense.robertson_idf("wooden") < 0
        assert common.term_upper_bound(dense, "wooden") is None
        assert BM25Model(non_negative_idf=True).term_upper_bound(dense, "wooden") == 0.0

    def test_top_k_zero_returns_empty(self, stats):
        ranked = BM25Model().rank(stats, ["wooden", "toy"], top_k=0)
        assert len(ranked) == 0


class TestRankedList:
    def test_doc_ids_derive_from_indices_on_first_use(self, stats):
        ranked = BM25Model().rank(stats, ["wooden", "toy", "train"])
        explicit = RankedList(
            [stats.doc_ids[i] for i in ranked.indices.tolist()], ranked.scores, ranked.indices
        )
        # ranking and its derived lists build no identifiers until asked
        derived = [ranked, ranked.top(2), ranked.to_probabilities()]
        assert all(item._doc_ids is None for item in derived)
        assert ranked.as_pairs() == explicit.as_pairs()
        assert ranked.top(2).as_pairs() == explicit.top(2).as_pairs()
        assert list(ranked.to_relation().rows()) == list(explicit.to_relation().rows())
        assert ranked.to_probabilities().doc_ids == explicit.doc_ids
        assert len(ranked) == len(explicit)

    def test_sorted_descending(self, stats):
        ranked = BM25Model().rank(stats, ["wooden", "toy"])
        scores = [score for _, score in ranked.as_pairs()]
        assert scores == sorted(scores, reverse=True)

    def test_to_relation(self, stats):
        relation = BM25Model().rank(stats, ["wooden"]).to_relation()
        assert relation.schema.names == ["docID", "score"]

    def test_to_probabilities_max(self, stats):
        probabilities = TfIdfModel().rank(stats, ["wooden", "toy"]).to_probabilities()
        values = probabilities.scores
        assert values.max() == pytest.approx(1.0)
        assert np.all(values > 0) and np.all(values <= 1.0)

    def test_to_probabilities_sum(self, stats):
        probabilities = TfIdfModel().rank(stats, ["wooden", "toy"]).to_probabilities(method="sum")
        assert probabilities.scores.sum() == pytest.approx(1.0)

    def test_to_probabilities_handles_negative_scores(self):
        docs = [(1, "common"), (2, "common"), (3, "rare")]
        stats = build_statistics(docs)
        ranked = BM25Model().rank(stats, ["common"])
        probabilities = ranked.to_probabilities()
        assert np.all(probabilities.scores > 0)
        assert np.all(probabilities.scores <= 1.0)

    def test_to_probabilities_unknown_method(self, stats):
        ranked = BM25Model().rank(stats, ["wooden"])
        with pytest.raises(RankingError):
            ranked.to_probabilities(method="softmax")

    def test_empty_ranked_list_probabilities(self, stats):
        ranked = BM25Model().rank(stats, ["doesnotoccur"])
        assert len(ranked.to_probabilities()) == 0


class TestModelRegistry:
    def test_get_model_by_name(self):
        assert get_model("bm25").name == "bm25"
        assert get_model("tfidf").name == "tfidf"
        assert get_model("lm").name == "lm"
        assert get_model("boolean").name == "boolean"

    def test_get_model_passes_parameters(self):
        model = get_model("bm25", k1=2.0)
        assert model.k1 == 2.0

    def test_unknown_model(self):
        with pytest.raises(RankingError):
            get_model("pagerank")
