"""The ranking-model interface and the ranked-list result type."""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.errors import RankingError
from repro.ir.statistics import CollectionStatistics
from repro.relational.column import Column, DataType
from repro.relational.relation import Relation
from repro.relational.schema import Field, Schema


@dataclass
class RankedList:
    """A ranked list of documents: parallel identifiers, scores and indices.

    ``indices`` are the documents' dense indices in the ranked collection
    (:class:`~repro.ir.statistics.CollectionStatistics`), which map a ranked
    document back to its row without looking its identifier up.
    """

    doc_ids: list[Any]
    scores: np.ndarray
    indices: np.ndarray

    @classmethod
    def empty(cls) -> "RankedList":
        """A ranked list of no documents."""
        return cls([], np.empty(0, dtype=np.float64), np.empty(0, dtype=np.int64))

    def __len__(self) -> int:
        return len(self.doc_ids)

    def top(self, k: int) -> "RankedList":
        """Return the ``k`` highest-scoring entries (already sorted)."""
        return RankedList(self.doc_ids[:k], self.scores[:k], self.indices[:k])

    def as_pairs(self) -> list[tuple[Any, float]]:
        """Return ``(docID, score)`` pairs in rank order."""
        return [(doc_id, float(score)) for doc_id, score in zip(self.doc_ids, self.scores)]

    def to_relation(self, *, score_column: str = "score") -> Relation:
        """Return the ranked list as a ``(docID, score)`` relation."""
        doc_dtype = DataType.of_value(self.doc_ids[0]) if self.doc_ids else DataType.INT
        schema = Schema([Field("docID", doc_dtype), Field(score_column, DataType.FLOAT)])
        return Relation(
            schema,
            [
                Column(self.doc_ids, doc_dtype),
                Column(self.scores.astype(np.float64), DataType.FLOAT),
            ],
        )

    def to_probabilities(self, *, method: str = "max") -> "RankedList":
        """Normalise scores into ``(0, 1]`` so they can act as tuple probabilities.

        ``method`` is ``"max"`` (divide by the maximum score, the default used
        by the Rank-by-Text strategy block) or ``"sum"`` (scores sum to one).
        Scores that are not strictly positive (BM25's Robertson IDF can go
        negative on very small collections) are first shifted so the lowest
        score maps to a small positive probability and the highest to the top
        of the range — the ranking order is always preserved.
        """
        if len(self.scores) == 0:
            return RankedList.empty()
        scores = self.scores.astype(np.float64).copy()
        epsilon = 1e-9
        minimum = scores.min()
        if minimum <= 0:
            spread = scores.max() - minimum
            offset = spread * 0.01 if spread > 0 else 1.0
            scores = scores - minimum + offset
        scores = np.clip(scores, epsilon, None)
        if method == "max":
            scores = scores / scores.max()
        elif method == "sum":
            scores = scores / scores.sum()
        else:
            raise RankingError(f"unknown normalisation method {method!r}")
        return RankedList(list(self.doc_ids), scores, self.indices)


class _BatchTermCache:
    """Per-batch memo of posting slices, contributions and term bounds.

    One instance is shared across every query of a :meth:`RankingModel.rank_many`
    batch: a term appearing in several queries has its posting list fetched
    and scored exactly once (cross-query term deduplication).
    """

    __slots__ = ("postings", "bounds")

    def __init__(self) -> None:
        self.postings: dict[str, tuple] = {}
        self.bounds: dict[str, float | None] = {}


class RankingModel:
    """Base class for ranking models.

    Subclasses implement :meth:`term_score`, the contribution of one query
    term to one document; :meth:`rank` accumulates contributions over the
    postings of each query term (the relational formulation's
    ``GROUP BY docID / SUM``) and sorts.

    When ``top_k`` is requested, :meth:`rank` is *rank-aware*: the final
    selection uses a partial sort (``np.argpartition``) instead of ordering
    every matching document, and — for models that can bound their per-term
    contributions via :meth:`term_upper_bound` — a threshold-style early
    termination in the accumulation loop stops admitting *new* candidate
    documents once the remaining terms can no longer lift an unseen document
    into the top ``k``.  Both optimisations are exact: the returned documents,
    scores and tie-breaking are bit-identical to the full evaluation, which
    the property-based equivalence suite asserts.
    """

    name = "abstract"

    #: whether :meth:`term_score` is *elementwise*: each document's
    #: contribution depends only on that document's own posting entry, so
    #: scoring a subset of a posting list equals scoring the full list and
    #: slicing.  All built-in models are elementwise; a custom model that is
    #: not must set this to ``False``, which makes :meth:`rank_many` fall
    #: back to per-query :meth:`rank` instead of sharing scored postings.
    elementwise = True

    def rank(
        self,
        statistics: CollectionStatistics,
        query_terms: Sequence[str],
        *,
        top_k: int | None = None,
    ) -> RankedList:
        """Rank all documents matching at least one query term."""
        return self._rank_with_cache(statistics, query_terms, top_k, None)

    def rank_many(
        self,
        statistics: CollectionStatistics,
        queries: Sequence[tuple[Sequence[str], int | None]],
    ) -> list[RankedList]:
        """Rank a batch of ``(query_terms, top_k)`` queries in one pass.

        Terms shared across the batch have their posting lists sliced and
        scored once (see :class:`_BatchTermCache`); each returned list is
        bit-identical to calling :meth:`rank` on that query alone, which is
        exactly what non-elementwise models fall back to.
        """
        if not self.elementwise or len(queries) <= 1:
            return [
                self.rank(statistics, terms, top_k=top_k) for terms, top_k in queries
            ]
        cache = _BatchTermCache()
        return [
            self._rank_with_cache(statistics, terms, top_k, cache)
            for terms, top_k in queries
        ]

    def _rank_with_cache(
        self,
        statistics: CollectionStatistics,
        query_terms: Sequence[str],
        top_k: int | None,
        cache: _BatchTermCache | None,
    ) -> RankedList:
        if statistics.num_docs == 0 or not query_terms:
            return RankedList.empty()

        def upper_bound(term: str) -> float | None:
            if cache is None:
                return self.term_upper_bound(statistics, term)
            if term not in cache.bounds:
                cache.bounds[term] = self.term_upper_bound(statistics, term)
            return cache.bounds[term]

        def postings(term: str) -> tuple:
            # returns (doc_indices, frequencies, contributions-or-None); the
            # cached path pre-scores the full posting list so pruning can
            # slice contributions instead of recomputing (elementwise only)
            if cache is None:
                doc_indices, frequencies = statistics.postings_for(term)
                return doc_indices, frequencies, None
            entry = cache.postings.get(term)
            if entry is None:
                doc_indices, frequencies = statistics.postings_for(term)
                contributions = (
                    self.term_score(statistics, term, doc_indices, frequencies)
                    if len(doc_indices)
                    else None
                )
                entry = (doc_indices, frequencies, contributions)
                cache.postings[term] = entry
            return entry

        # Per-term contribution bounds enable threshold-style pruning.  The
        # suffix sums give, for each position, the best total score a document
        # first seen at that term could still reach.
        suffix_bounds: np.ndarray | None = None
        if top_k is not None and top_k > 0 and len(query_terms) > 1:
            bounds = [upper_bound(term) for term in query_terms]
            if all(bound is not None for bound in bounds):
                suffix_bounds = np.cumsum(np.asarray(bounds, dtype=np.float64)[::-1])[::-1]

        # sized to the *local* posting slots: on a shard-local statistics view
        # num_docs is the global count (the formulas need it) but the posting
        # arrays only index this collection's own documents
        accumulator = np.zeros(statistics.accumulator_size, dtype=np.float64)
        matched = np.zeros(statistics.accumulator_size, dtype=bool)
        matched_count = 0
        for position, term in enumerate(query_terms):
            doc_indices, frequencies, contributions = postings(term)
            if len(doc_indices) == 0:
                continue
            if (
                suffix_bounds is not None
                and position > 0
                and top_k is not None
                and matched_count >= top_k
            ):
                # kth-largest running score is a lower bound on the final
                # kth-largest (remaining contributions are non-negative by the
                # term_upper_bound contract); a document first seen from here
                # on scores at most suffix_bounds[position]
                current = accumulator[matched]
                threshold = np.partition(current, len(current) - top_k)[len(current) - top_k]
                if suffix_bounds[position] < threshold:
                    keep = matched[doc_indices]
                    doc_indices = doc_indices[keep]
                    frequencies = frequencies[keep]
                    if contributions is not None:
                        contributions = contributions[keep]
                    if len(doc_indices) == 0:
                        continue
            if contributions is None:
                contributions = self.term_score(statistics, term, doc_indices, frequencies)
            accumulator[doc_indices] += contributions
            matched[doc_indices] = True
            if suffix_bounds is not None:
                matched_count = int(np.count_nonzero(matched))
        matching_indices = np.nonzero(matched)[0]
        if len(matching_indices) == 0:
            return RankedList.empty()
        scores = accumulator[matching_indices]
        if top_k is not None and 0 < top_k < len(matching_indices):
            # partial selection: keep every document tied with the kth-largest
            # score, then sort only those — the stable sort over the (index-
            # ordered) candidates reproduces the full sort's tie-breaking
            boundary = len(scores) - top_k
            kth_largest = scores[np.argpartition(scores, boundary)[boundary]]
            keep = scores >= kth_largest
            matching_indices = matching_indices[keep]
            scores = scores[keep]
        order = np.argsort(-scores, kind="stable")
        ranked_indices = matching_indices[order]
        ranked_scores = scores[order]
        if top_k is not None:
            ranked_indices = ranked_indices[:top_k]
            ranked_scores = ranked_scores[:top_k]
        doc_ids = list(map(statistics.doc_ids.__getitem__, ranked_indices.tolist()))
        return RankedList(doc_ids, ranked_scores, ranked_indices)

    def term_score(
        self,
        statistics: CollectionStatistics,
        term: str,
        doc_indices: np.ndarray,
        frequencies: np.ndarray,
    ) -> np.ndarray:
        """Return the per-document contribution of ``term`` (vectorised)."""
        raise NotImplementedError

    def term_upper_bound(
        self, statistics: CollectionStatistics, term: str
    ) -> float | None:
        """An upper bound on any document's contribution from ``term``.

        Returning a float ``ub`` asserts that every per-document contribution
        of this term lies in ``[0, ub]`` — both the bound and the
        non-negativity matter, since the early-termination threshold treats
        running scores as lower bounds on final scores.  Models whose
        contributions can be negative (or unbounded without per-term maxima)
        must return ``None``, which disables pruning but keeps the partial
        top-k selection.
        """
        return None

    def describe(self) -> dict[str, Any]:
        """Return the model name and parameters (used in benchmark reports)."""
        return {"model": self.name}
