"""On-demand inverted indexes and the Figure 1 demonstration.

Figure 1 of the paper shows that an inverted index *is* a relational table
``(term, doc, pos)`` and that term lookup *is* an inner join between a query
relation and that table.  This module provides:

* :class:`InvertedIndex` — a positional index built on demand from a
  ``docs(docID, data)`` relation (or any ``(docID, text)`` pairs) with a
  configurable analyzer, exposed both as posting lists and as the relational
  table of Figure 1b;
* :func:`term_lookup_join` — the literal "term look-up as a join" of the
  figure, implemented with the engine's join operator.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

import numpy as np

from repro.errors import IndexingError
from repro.relational.algebra import Join, Values
from repro.relational.column import Column, DataType
from repro.relational.database import Database
from repro.relational.relation import Relation
from repro.relational.schema import Field, Schema
from repro.text.analyzers import Analyzer, StandardAnalyzer


class InvertedIndex:
    """A positional inverted index built on demand.

    The index maps each term to its posting list: the ``(document, position)``
    pairs at which the term occurs, exactly as in Figure 1a of the paper.
    """

    def __init__(self, analyzer: Analyzer | None = None):
        self.analyzer = analyzer if analyzer is not None else StandardAnalyzer()
        self._postings: dict[str, list[tuple[Any, int]]] = {}
        self._doc_ids: list[Any] = []
        self._doc_lengths: dict[Any, int] = {}

    # -- construction -------------------------------------------------------------

    @classmethod
    def from_documents(
        cls,
        documents: Sequence[tuple[Any, str]],
        analyzer: Analyzer | None = None,
    ) -> "InvertedIndex":
        """Build an index from ``(docID, text)`` pairs."""
        index = cls(analyzer)
        for doc_id, text in documents:
            index.add_document(doc_id, text)
        return index

    @classmethod
    def from_relation(
        cls,
        docs: Relation,
        analyzer: Analyzer | None = None,
        *,
        id_column: str = "docID",
        text_column: str = "data",
    ) -> "InvertedIndex":
        """Build an index from a ``docs(docID, data)`` relation."""
        if id_column not in docs.schema or text_column not in docs.schema:
            raise IndexingError(
                f"docs relation must have columns {id_column!r} and {text_column!r}, "
                f"got {docs.schema.names}"
            )
        ids = docs.column(id_column).to_list()
        texts = docs.column(text_column).to_list()
        return cls.from_documents(list(zip(ids, texts)), analyzer)

    def add_document(self, doc_id: Any, text: str) -> None:
        """Add one document to the index."""
        if doc_id in self._doc_lengths:
            raise IndexingError(f"document {doc_id!r} was already indexed")
        terms = self.analyzer.analyze(text)
        self._doc_ids.append(doc_id)
        self._doc_lengths[doc_id] = len(terms)
        for position, term in enumerate(terms):
            self._postings.setdefault(term, []).append((doc_id, position))

    # -- lookup ----------------------------------------------------------------------

    @property
    def num_documents(self) -> int:
        return len(self._doc_ids)

    @property
    def vocabulary(self) -> list[str]:
        return sorted(self._postings)

    def posting_list(self, term: str) -> list[tuple[Any, int]]:
        """Return the ``(doc, pos)`` posting list of ``term`` (Figure 1a).

        ``term`` may be either raw query text or an already-normalized
        vocabulary term.  The raw spelling is tried first: stemming is not
        idempotent (e.g. Porter maps "agreed" to "agre" but re-stems "agre"
        to "agr"), so re-analyzing a vocabulary term can miss its postings.
        """
        postings = self._postings.get(term)
        if postings is None:
            postings = self._postings.get(self._normalize(term), [])
        return list(postings)

    def document_frequency(self, term: str) -> int:
        """Number of distinct documents containing ``term``."""
        return len({doc for doc, _ in self.posting_list(term)})

    def term_frequency(self, term: str, doc_id: Any) -> int:
        """Number of occurrences of ``term`` in document ``doc_id``."""
        return sum(1 for doc, _ in self.posting_list(term) if doc == doc_id)

    def doc_length(self, doc_id: Any) -> int:
        return self._doc_lengths.get(doc_id, 0)

    def matching_documents(self, terms: Sequence[str]) -> set[Any]:
        """Documents containing at least one of ``terms`` (disjunctive match)."""
        matches: set[Any] = set()
        for term in terms:
            matches.update(doc for doc, _ in self.posting_list(term))
        return matches

    def _normalize(self, term: str) -> str:
        analyzed = self.analyzer.analyze(term)
        return analyzed[0] if analyzed else term

    # -- relational form (Figure 1b) --------------------------------------------------

    def to_relation(self) -> Relation:
        """Return the index as the ``(term, doc, pos)`` relation of Figure 1b."""
        terms: list[str] = []
        docs: list[Any] = []
        positions: list[int] = []
        for term in sorted(self._postings):
            for doc_id, position in self._postings[term]:
                terms.append(term)
                docs.append(doc_id)
                positions.append(position)
        doc_dtype = DataType.of_value(docs[0]) if docs else DataType.INT
        schema = Schema(
            [
                Field("term", DataType.STRING),
                Field("doc", doc_dtype),
                Field("pos", DataType.INT),
            ]
        )
        return Relation(
            schema,
            [
                Column(np.asarray(terms, dtype=object), DataType.STRING),
                Column(docs, doc_dtype),
                Column(positions, DataType.INT),
            ],
        )


def query_terms_relation(terms: Sequence[str]) -> Relation:
    """Return a single-column ``(term)`` relation holding the query terms."""
    schema = Schema([Field("term", DataType.STRING)])
    return Relation(schema, [Column(list(terms), DataType.STRING)])


def term_lookup_join(
    database: Database,
    index_relation: Relation,
    query_terms: Sequence[str],
) -> Relation:
    """Figure 1b: term lookup as an inner join on ``term``.

    The query terms become a tiny relation which is joined against the
    term-doc table; the result lists every occurrence of every query term.
    """
    plan = Join(
        Values(query_terms_relation(list(query_terms)), label="query"),
        Values(index_relation, label="term_doc"),
        conditions=[("term", "term")],
    )
    return database.execute(plan, use_cache=False)
