"""A4 (ablation) — on-demand indexing parameters: stemming and stopwords.

Section 2.1 argues for on-demand index construction precisely because
"parameters (e.g. stemming language) are often hard to decide upfront".
This ablation quantifies what switching those parameters costs and changes:
index-build time, vocabulary size, and hot query latency for four analyzer
configurations over the same collection — something the platform makes a
per-scenario choice rather than a load-time commitment.

Expected shape: stemming shrinks the vocabulary and slightly increases build
time (per-token stemmer cost); stopword removal shrinks postings and
therefore query time for frequent terms; switching configurations requires no
data reloading, only rebuilding the on-demand statistics.
"""

import pytest

from repro.bench.harness import measure_latency
from repro.bench.reporting import ResultTable
from repro.ir.ranking import BM25Model
from repro.ir.statistics import build_statistics
from repro.text.analyzers import Analyzer, StandardAnalyzer
from repro.text.stemming.porter import PorterStemmer

ANALYZERS = {
    "lowercase only": Analyzer(),
    "lowercase + porter": Analyzer(stemmer=PorterStemmer()),
    "lowercase + stopwords": Analyzer(remove_stopwords=True),
    "standard (paper: stem(lcase(token)))": StandardAnalyzer("english"),
}


@pytest.fixture(scope="module")
def documents(text_collection):
    return text_collection.documents[:1000]


@pytest.mark.parametrize("analyzer_name", list(ANALYZERS))
def test_a4_index_build(benchmark, analyzer_name, documents):
    analyzer = ANALYZERS[analyzer_name]
    statistics = benchmark.pedantic(
        build_statistics, args=(documents, analyzer), rounds=2, iterations=1
    )
    assert statistics.num_docs == len(documents)


def test_a4_configuration_table(benchmark, documents, text_collection):
    model = BM25Model()
    query_terms_raw = text_collection.vocabulary.frequent_terms(3)

    table = ResultTable(
        "A4 — analyzer configurations over the same 1000 documents",
        ["analyzer", "build (ms)", "vocabulary", "total postings", "hot query (ms)"],
    )
    for name, analyzer in ANALYZERS.items():
        build = measure_latency(lambda a=analyzer: build_statistics(documents, a), repetitions=1)
        statistics = build_statistics(documents, analyzer)
        query_terms = []
        for term in query_terms_raw:
            query_terms.extend(analyzer.analyze(term) or [term])
        query = measure_latency(
            lambda s=statistics, q=query_terms: model.rank(s, q, top_k=10),
            repetitions=5,
            warmup=1,
        )
        postings = len(statistics.doc_indices)
        table.add_row(name, build.mean_ms, statistics.num_terms, postings, query.mean_ms)
    table.print()

    # stemming must shrink the vocabulary relative to the unstemmed pipeline
    unstemmed = build_statistics(documents, ANALYZERS["lowercase only"])
    stemmed = build_statistics(documents, ANALYZERS["lowercase + porter"])
    assert stemmed.num_terms <= unstemmed.num_terms

    statistics = build_statistics(documents, ANALYZERS["standard (paper: stem(lcase(token)))"])
    benchmark(model.rank, statistics, query_terms_raw, top_k=10)
