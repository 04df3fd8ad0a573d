"""The keyword search engine: database + analyzer + ranking model.

:class:`KeywordSearchEngine` reproduces the end-to-end keyword-search pipeline
of Section 2.1.  Given a database and the name of a ``docs(docID, data)``
table or view (possibly defined on the fly by structured filtering, as in the
toy scenario), the engine

1. materialises the collection statistics on demand — either through the
   faithful relational view chain (the paper's CREATE VIEW listing, served by
   the database's materialization cache: *cold* the first time, *hot*
   afterwards) or through a fast vectorised builder producing identical
   statistics;
2. analyses the query string with the same analyzer used for the documents
   (the paper's ``qterms`` view);
3. ranks documents with the configured ranking model (BM25 by default) and
   returns a ``(docID, score, p)`` relation whose ``p`` column is a
   normalised probability, ready for the score-propagation layer of
   Section 2.3.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import Any

from repro.errors import IndexingError, RankingError
from repro.ir.query_expansion import QueryExpander, expanded_terms
from repro.ir.ranking import BM25Model, RankingModel
from repro.ir.ranking.base import RankedList
from repro.ir.registry import StatisticsRegistry
from repro.ir.statistics import (
    CollectionStatistics,
    RelationalStatisticsBuilder,
    docs_columns,
)
from repro.relational.column import Column, DataType
from repro.relational.database import Database
from repro.relational.relation import Relation
from repro.text.analyzers import Analyzer, StandardAnalyzer


@dataclass
class SearchResult:
    """The outcome of one query: the ranked list plus execution metadata."""

    query: str
    query_terms: list[str]
    ranked: RankedList
    elapsed_seconds: float
    statistics_were_cached: bool
    expanded_terms: list[str] = field(default_factory=list)

    def to_relation(self) -> Relation:
        """Return ``(docID, score, p)`` with ``p`` the max-normalised score."""
        relation = self.ranked.to_relation()
        probabilities = self.ranked.to_probabilities().scores
        return relation.with_column("p", Column(probabilities, DataType.FLOAT))

    def top(self, k: int) -> list[tuple[Any, float]]:
        """Return the top ``k`` (docID, score) pairs."""
        return self.ranked.top(k).as_pairs()


class KeywordSearchEngine:
    """Keyword search over a ``docs(docID, data)`` table or view."""

    def __init__(
        self,
        database: Database,
        docs_source: str,
        *,
        analyzer: Analyzer | None = None,
        model: RankingModel | None = None,
        pipeline: str = "direct",
        language: str = "english",
        id_column: str = "docID",
        text_column: str = "data",
        expander: QueryExpander | None = None,
        statistics_prefix: str = "",
        registry: StatisticsRegistry | None = None,
    ):
        if pipeline not in ("direct", "relational"):
            raise RankingError(
                f"unknown pipeline {pipeline!r}; use 'direct' or 'relational'"
            )
        self.database = database
        self.docs_source = docs_source
        self.analyzer = analyzer if analyzer is not None else StandardAnalyzer(language)
        self.model = model if model is not None else BM25Model()
        self.pipeline = pipeline
        self.language = language
        self.id_column = id_column
        self.text_column = text_column
        self.expander = expander
        self.statistics_prefix = statistics_prefix or f"{docs_source}_"
        # where direct-pipeline statistics come from; an engine passes its own
        # so searchers and rank() over the same documents share one index
        self.registry = registry if registry is not None else StatisticsRegistry()
        self._statistics: CollectionStatistics | None = None
        self._statistics_loader: Callable[[], CollectionStatistics] | None = None

    # -- statistics management --------------------------------------------------------

    @property
    def statistics(self) -> CollectionStatistics:
        """The collection statistics, built on first access ("cold") and reused ("hot")."""
        if self._statistics is None:
            self._statistics = self._build_statistics()
        return self._statistics

    @property
    def is_warm(self) -> bool:
        """True once the collection statistics have been materialised."""
        return self._statistics is not None

    @property
    def statistics_available(self) -> bool:
        """True when statistics exist or a snapshot loader is pending.

        Unlike :attr:`is_warm` this counts an adopted-but-unconsumed snapshot
        loader, so re-saving an opened engine keeps its warm statistics.
        """
        return self._statistics is not None or self._statistics_loader is not None

    def invalidate(self) -> None:
        """Discard the statistics (e.g. after the docs source changed)."""
        self._statistics = None
        self._statistics_loader = None

    def warm_up(self) -> CollectionStatistics:
        """Force statistics materialisation and return them (the "hot" state)."""
        return self.statistics

    def adopt_statistics_loader(self, loader: Callable[[], CollectionStatistics]) -> None:
        """Serve the next statistics request from ``loader`` (snapshot warm-up).

        The loader replaces one rebuild only; :meth:`invalidate` discards it,
        so a changed docs source still triggers a true rebuild.
        """
        self._statistics = None
        self._statistics_loader = loader

    def _build_statistics(self) -> CollectionStatistics:
        if self._statistics_loader is not None:
            loader, self._statistics_loader = self._statistics_loader, None
            return loader()
        docs = self.database.query(self.docs_source)
        if docs.num_rows == 0:
            raise IndexingError(
                f"docs source {self.docs_source!r} is empty; nothing to index"
            )
        if self.pipeline == "relational":
            builder = RelationalStatisticsBuilder(
                self.database,
                self.docs_source,
                language=self.language,
                prefix=self.statistics_prefix,
            )
            return builder.materialize()
        ids, texts = docs_columns(docs, self.id_column, self.text_column)
        return self.registry.get(ids, texts, self.analyzer)

    # -- querying ---------------------------------------------------------------------

    def analyze_query(self, query: str) -> list[str]:
        """Normalise a query string into terms (the paper's ``qterms`` view)."""
        return self.analyzer.analyze_query(query)

    def query_terms(self, query: str) -> tuple[list[str], list[str], list[str]]:
        """Analyse and (optionally) expand a query string.

        Returns ``(base_terms, expanded_terms, terms)`` where ``terms`` is
        the final ranking input.  Shared by :meth:`search_many` and the
        sharded scatter path, which analyses on the coordinator and ranks on
        the shards.
        """
        base_terms = self.analyze_query(query)
        added: list[str] = []
        if self.expander is not None:
            added = expanded_terms(self.analyzer, self.expander, query, base_terms)
        terms = base_terms + [term for term in added if term not in base_terms]
        return list(base_terms), added, terms

    def search(self, query: str, *, top_k: int | None = None) -> SearchResult:
        """Run a keyword query and return the ranked result.

        With ``top_k`` the scorer is rank-aware: it selects the ``k`` best
        documents with a partial sort instead of ordering every match, and
        models with bounded non-negative term contributions prune hopeless
        candidates early (threshold-style).  The returned documents, scores
        and tie-breaking are identical to ranking everything and slicing.
        A single query is a batch of one (:meth:`search_many`).
        """
        return self.search_many([query], top_k=top_k)[0]

    def search_many(
        self, queries: Sequence[str], *, top_k: int | None = None
    ) -> list[SearchResult]:
        """Run a batch of keyword queries through one vectorized scoring pass.

        Every term appearing anywhere in the batch has its posting list
        sliced and scored exactly once (cross-query term deduplication via
        :meth:`RankingModel.rank_many`), so B co-arriving queries cost one
        pass over the shared postings instead of B.  Each result is
        bit-identical to ranking that query alone; a batch of one is
        exactly :meth:`RankingModel.rank`.
        """
        started = time.perf_counter()
        cached = self._statistics is not None
        statistics = self.statistics
        analyzed = [self.query_terms(query) for query in queries]
        ranked_lists = self.model.rank_many(
            statistics, [(terms, top_k) for _, _, terms in analyzed]
        )
        elapsed = time.perf_counter() - started
        return [
            SearchResult(
                query=query,
                query_terms=list(base_terms),
                ranked=ranked,
                elapsed_seconds=elapsed,
                statistics_were_cached=cached,
                expanded_terms=expanded_terms,
            )
            for query, (base_terms, expanded_terms, _), ranked in zip(
                queries, analyzed, ranked_lists
            )
        ]

    def search_terms(self, terms: Sequence[str], *, top_k: int | None = None) -> RankedList:
        """Rank already-analyzed terms (used by the strategy compiler)."""
        return self.model.rank(self.statistics, terms, top_k=top_k)

    def describe(self) -> dict[str, Any]:
        """Return a description of the engine configuration."""
        return {
            "docs_source": self.docs_source,
            "pipeline": self.pipeline,
            "language": self.language,
            "model": self.model.describe(),
            "analyzer": self.analyzer.describe(),
            "expansion": self.expander.describe() if self.expander is not None else None,
        }
