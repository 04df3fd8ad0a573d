"""Information retrieval on top of the relational engine.

This package implements Section 2.1 of the paper: keyword search expressed
as relational queries over a column store.

* :mod:`repro.ir.statistics` builds the collection statistics the BM25 SQL
  listing materialises as views (``term_doc``, ``doc_len``, ``termdict``,
  ``tf``, ``idf``) — in one pass for every search, and as the listing's
  logical plans over the database, which a property test holds identical.
* :mod:`repro.ir.inverted_index` exposes the term-partitioned posting lists
  of Figure 1 and the "term lookup is a relational join" demonstration.
* :mod:`repro.ir.ranking` provides BM25 (the paper's listing), TF-IDF,
  query-likelihood language models and a boolean baseline behind a common
  interface.
* :mod:`repro.ir.search` ties a database, an analyzer and a ranking model
  into a :class:`~repro.ir.search.KeywordSearchEngine`.
* :mod:`repro.ir.query_expansion` adds the synonym / compound-term expansion
  used by the production strategy of Section 3.
"""

from repro.ir.inverted_index import InvertedIndex
from repro.ir.query_expansion import CompoundExpander, QueryExpander, SynonymExpander
from repro.ir.ranking import BM25Model, BooleanModel, LanguageModel, RankingModel, TfIdfModel
from repro.ir.search import KeywordSearchEngine, SearchResult
from repro.ir.statistics import CollectionStatistics, RelationalStatisticsBuilder, build_statistics

__all__ = [
    "BM25Model",
    "BooleanModel",
    "CollectionStatistics",
    "CompoundExpander",
    "InvertedIndex",
    "KeywordSearchEngine",
    "LanguageModel",
    "QueryExpander",
    "RankingModel",
    "RelationalStatisticsBuilder",
    "SearchResult",
    "SynonymExpander",
    "TfIdfModel",
    "build_statistics",
]
