"""Collection statistics: the materialised views of the paper's BM25 listing.

Section 2.1 derives keyword search from a ``docs(docID, data)`` table through
a chain of views::

    term_doc  — stemmed, lower-cased (term, docID) pairs from ``tokenize``
    doc_len   — document lengths, 0 for a document without terms
    termdict  — distinct terms numbered with ``row_number()``
    tf        — integer term frequencies per (termID, docID)
    idf       — Robertson/Sparck-Jones inverse document frequency per termID

Two builders produce these statistics:

* :func:`build_statistics` computes them in a single pass over the
  documents; every search ranks against its result;
* :class:`RelationalStatisticsBuilder` constructs the *literal* logical plans
  (the reproduction's equivalent of the CREATE VIEW statements) and executes
  them through the database, exercising the on-demand materialization cache.
  It is the executable form of "keyword search as relational queries": a
  property test holds its statistics array-identical to
  :func:`build_statistics`.

The resulting :class:`CollectionStatistics` is the input of every ranking
model in :mod:`repro.ir.ranking`.  It stores the ``tf`` view once, packed:
per-term offsets plus one document-index and one frequency array, the same
three arrays a snapshot writes and memmaps back.  Every builder — bulk,
append (:func:`extend_statistics`), relational, shard split — ends in the
same packing step, and df is the difference of consecutive offsets.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any

import numpy as np

from repro.errors import IndexingError
from repro.relational.algebra import (
    Aggregate,
    AggregateSpec,
    Distinct,
    Join,
    LogicalPlan,
    Project,
    Scan,
    TableFunctionScan,
)
from repro.relational.column import Column
from repro.relational.database import Database
from repro.relational.expressions import FunctionCall, col
from repro.relational.relation import Relation
from repro.text.analyzers import Analyzer, StandardAnalyzer


@dataclass
class CollectionStatistics:
    """Per-collection statistics required by the ranking models.

    Documents are identified both by their original identifier (``doc_ids``)
    and by a dense internal index (0..num_docs-1) used in the posting arrays.

    The postings are the ``tf(termID, docID, tf)`` view stored term-major as
    three arrays — the layout a snapshot writes and memmaps back: term ``t``'s
    documents are ``doc_indices[offsets[t]:offsets[t + 1]]`` (ascending) and
    its term frequencies are the same slice of ``frequencies``.  Term ids are
    dense and start at 1 like the paper's ``row_number()``, so slot 0 of
    ``offsets`` is an empty term.
    """

    doc_ids: list[Any]
    doc_lengths: np.ndarray
    term_ids: dict[str, int]
    offsets: np.ndarray = field(repr=False)
    doc_indices: np.ndarray = field(repr=False)
    frequencies: np.ndarray = field(repr=False)
    total_terms: int

    # -- derived quantities --------------------------------------------------

    @cached_property
    def document_frequency(self) -> np.ndarray:
        """df per term id (``document_frequency[term_ids[term]]``)."""
        return np.diff(self.offsets)

    def collection_frequencies(self) -> np.ndarray:
        """cf per term id: the sum of each term's frequencies (exact int64)."""
        sums = np.concatenate([[0], np.cumsum(self.frequencies, dtype=np.int64)])
        return sums[self.offsets[1:]] - sums[self.offsets[:-1]]

    @property
    def num_docs(self) -> int:
        return len(self.doc_ids)

    @property
    def accumulator_size(self) -> int:
        """How many dense document slots the posting arrays index into.

        Equal to :attr:`num_docs` here; the sharded view overrides
        ``num_docs`` to the *global* count (ranking formulas need it) while
        keeping this local, so per-shard scoring arrays stay O(shard).
        """
        return len(self.doc_ids)

    @property
    def num_terms(self) -> int:
        return len(self.term_ids)

    def doc_positions(self) -> dict[Any, int]:
        """``docID -> dense index`` for the posting arrays, built once."""
        cache: dict[Any, int] | None = getattr(self, "_doc_position_cache", None)
        if cache is None:
            cache = {doc_id: position for position, doc_id in enumerate(self.doc_ids)}
            self._doc_position_cache = cache
        return cache

    def doc_rows(self) -> np.ndarray:
        """For each dense index, ``doc_positions()`` of its docID, built once.

        A docID occurring more than once maps to its last position, as in
        :meth:`doc_positions`; a ranked list's ``indices`` map to rows
        through this array with one gather.
        """
        cache: np.ndarray | None = getattr(self, "_doc_row_cache", None)
        if cache is None:
            positions = self.doc_positions()
            cache = np.fromiter(
                map(positions.__getitem__, self.doc_ids), dtype=np.int64, count=len(self.doc_ids)
            )
            self._doc_row_cache = cache
        return cache

    @property
    def average_doc_length(self) -> float:
        if self.num_docs == 0:
            return 0.0
        return float(self.doc_lengths.mean())

    def term_id(self, term: str) -> int | None:
        """Return the internal term identifier of ``term`` or ``None`` if absent."""
        return self.term_ids.get(term)

    def postings_for(self, term: str) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(doc_indices, frequencies)`` for ``term`` (empty arrays if absent).

        The arrays are slices of the packed postings, not copies.
        """
        term_id = self.term_ids.get(term)
        if term_id is None:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        start, stop = self.offsets[term_id], self.offsets[term_id + 1]
        return self.doc_indices[start:stop], self.frequencies[start:stop]

    def df(self, term: str) -> int:
        """Return the document frequency of ``term`` (0 if absent)."""
        term_id = self.term_ids.get(term)
        if term_id is None:
            return 0
        return int(self.document_frequency[term_id])

    def robertson_idf(self, term: str) -> float:
        """Robertson/Sparck-Jones IDF: ``log((N - df + 0.5) / (df + 0.5))``.

        This is the formula of the paper's ``idf`` view.  It can be negative
        for terms occurring in more than half the documents; the BM25 model
        keeps that behaviour to stay faithful to the listing.
        """
        df = self.df(term)
        if df == 0:
            return 0.0
        n = self.num_docs
        return float(np.log((n - df + 0.5) / (df + 0.5)))

    def smoothed_idf(self, term: str) -> float:
        """Plain smoothed IDF ``log(1 + N / df)`` used by the TF-IDF model."""
        df = self.df(term)
        if df == 0:
            return 0.0
        return float(np.log(1.0 + self.num_docs / df))

    def collection_frequency(self, term: str) -> int:
        """Total number of occurrences of ``term`` in the collection."""
        _, frequencies = self.postings_for(term)
        return int(frequencies.sum())


def _term_column(offsets: np.ndarray) -> np.ndarray:
    """The term id of every posting, in packed order."""
    return np.repeat(np.arange(len(offsets) - 1, dtype=np.int64), np.diff(offsets))


def _pack(
    num_terms: int, terms: np.ndarray, doc_indices: np.ndarray, frequencies: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(term, doc, tf)`` postings as ``(offsets, doc_indices, frequencies)``.

    The one packing step behind every builder: a stable sort by term id, so
    each term keeps its postings in the order given — callers hand them over
    ascending by document — plus the offsets of the ``num_terms`` dense ids.
    """
    order = np.argsort(terms, kind="stable")
    offsets = np.zeros(num_terms + 2, dtype=np.int64)
    np.cumsum(np.bincount(terms, minlength=num_terms + 1), out=offsets[1:])
    return (
        offsets,
        np.asarray(doc_indices, dtype=np.int64)[order],
        np.asarray(frequencies, dtype=np.int64)[order],
    )


# ---------------------------------------------------------------------------
# Sharded collections: split, global reduce, shard-local scoring views
# ---------------------------------------------------------------------------


@dataclass
class GlobalStatistics:
    """Collection-wide quantities reduced across shard-local statistics.

    Per-shard ranking needs the *global* document count, document/collection
    frequencies and total term count to produce scores bit-identical to the
    unsharded engine; everything here is an exact integer reduce (sums of
    int64 counts), so merge order can never perturb a score.
    """

    num_docs: int
    total_terms: int
    total_doc_length: int
    document_frequency: dict[str, int]
    collection_frequency: dict[str, int]

    @classmethod
    def reduce(cls, shard_statistics: Sequence["CollectionStatistics"]) -> "GlobalStatistics":
        """Merge shard-local statistics into the global view (df/cf/N sums)."""
        document_frequency: dict[str, int] = {}
        collection_frequency: dict[str, int] = {}
        for statistics in shard_statistics:
            dfs = statistics.document_frequency.tolist()
            cfs = statistics.collection_frequencies().tolist()
            for term, term_id in statistics.term_ids.items():
                document_frequency[term] = document_frequency.get(term, 0) + dfs[term_id]
                collection_frequency[term] = collection_frequency.get(term, 0) + cfs[term_id]
        return cls(
            num_docs=sum(statistics.num_docs for statistics in shard_statistics),
            total_terms=sum(statistics.total_terms for statistics in shard_statistics),
            total_doc_length=sum(
                int(statistics.doc_lengths.sum()) for statistics in shard_statistics
            ),
            document_frequency=document_frequency,
            collection_frequency=collection_frequency,
        )

    @classmethod
    def merge(cls, parts: Sequence["GlobalStatistics"]) -> "GlobalStatistics":
        """Reduce per-shard summaries (exact integer sums, order-insensitive)."""
        document_frequency: dict[str, int] = {}
        collection_frequency: dict[str, int] = {}
        for part in parts:
            for term, count in part.document_frequency.items():
                document_frequency[term] = document_frequency.get(term, 0) + count
            for term, count in part.collection_frequency.items():
                collection_frequency[term] = collection_frequency.get(term, 0) + count
        return cls(
            num_docs=sum(part.num_docs for part in parts),
            total_terms=sum(part.total_terms for part in parts),
            total_doc_length=sum(part.total_doc_length for part in parts),
            document_frequency=document_frequency,
            collection_frequency=collection_frequency,
        )

    def restricted_to(self, terms: Iterable[str]) -> "GlobalStatistics":
        """The same collection totals with df/cf for ``terms`` only.

        What one shard request needs: a batch ranks only its own terms, so it
        carries their global df/cf instead of the whole vocabulary's.
        """
        wanted = set(terms)
        return GlobalStatistics(
            num_docs=self.num_docs,
            total_terms=self.total_terms,
            total_doc_length=self.total_doc_length,
            document_frequency={
                term: self.document_frequency[term]
                for term in wanted
                if term in self.document_frequency
            },
            collection_frequency={
                term: self.collection_frequency[term]
                for term in wanted
                if term in self.collection_frequency
            },
        )

    def to_payload(self) -> dict[str, Any]:
        """A pickle-friendly form (a shard's summary, a pool search's df/cf)."""
        return {
            "num_docs": self.num_docs,
            "total_terms": self.total_terms,
            "total_doc_length": self.total_doc_length,
            "document_frequency": self.document_frequency,
            "collection_frequency": self.collection_frequency,
        }

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "GlobalStatistics":
        return cls(
            num_docs=int(payload["num_docs"]),
            total_terms=int(payload["total_terms"]),
            total_doc_length=int(payload["total_doc_length"]),
            document_frequency=dict(payload["document_frequency"]),
            collection_frequency=dict(payload["collection_frequency"]),
        )


class ShardCollectionStatistics(CollectionStatistics):
    """Shard-local postings scored against global collection statistics.

    ``doc_ids``/``doc_lengths`` and the postings describe only this shard's
    documents (indices are shard-local), while every collection-wide
    quantity a ranking model reads — ``num_docs``, ``average_doc_length``,
    ``df``, ``collection_frequency``, ``total_terms`` — comes from the
    :class:`GlobalStatistics` reduce.  A model scoring a shard through this
    view therefore computes, document by document, exactly the numbers the
    unsharded engine computes: the per-term inputs (idf, avgdl, background
    probabilities) are scalar-identical and the per-document arithmetic is
    element-wise.
    """

    def __init__(self, local: CollectionStatistics, global_statistics: GlobalStatistics):
        super().__init__(
            doc_ids=local.doc_ids,
            doc_lengths=local.doc_lengths,
            term_ids=local.term_ids,
            offsets=local.offsets,
            doc_indices=local.doc_indices,
            frequencies=local.frequencies,
            total_terms=global_statistics.total_terms,
        )
        self.global_statistics = global_statistics

    @property
    def num_docs(self) -> int:  # type: ignore[override]
        return self.global_statistics.num_docs

    @property
    def accumulator_size(self) -> int:  # type: ignore[override]
        """Scoring arrays stay O(shard): posting indices are shard-local."""
        return len(self.doc_ids)

    @property
    def average_doc_length(self) -> float:  # type: ignore[override]
        if self.global_statistics.num_docs == 0:
            return 0.0
        # identical to float(concatenated_lengths.mean()): the lengths are
        # int64, so every partial sum is exact and the single division matches
        return float(
            np.float64(self.global_statistics.total_doc_length)
            / np.float64(self.global_statistics.num_docs)
        )

    def df(self, term: str) -> int:
        return self.global_statistics.document_frequency.get(term, 0)

    def collection_frequency(self, term: str) -> int:
        return self.global_statistics.collection_frequency.get(term, 0)


def split_statistics(
    statistics: CollectionStatistics, shard_doc_indices: Sequence[np.ndarray]
) -> list[CollectionStatistics]:
    """Split statistics into shard-local pieces by document partition.

    ``shard_doc_indices[s]`` holds the (ascending) global document indices
    assigned to shard ``s`` — the same per-table row partition the sharded
    snapshot layout uses for the docs table, so shard-local document index
    ``i`` corresponds to global index ``shard_doc_indices[s][i]``.  Each shard
    numbers its terms densely in global id order; its postings are the
    global ones filtered to its documents and remapped to shard-local indices.
    """
    num_docs = statistics.num_docs
    assignment = np.full(num_docs, -1, dtype=np.int64)
    local_index = np.zeros(num_docs, dtype=np.int64)
    for shard, indices in enumerate(shard_doc_indices):
        assignment[indices] = shard
        local_index[indices] = np.arange(len(indices), dtype=np.int64)
    if num_docs and np.any(assignment < 0):
        raise IndexingError("shard document partition does not cover every document")

    terms_by_id = [""] * (statistics.num_terms + 1)
    for term, term_id in statistics.term_ids.items():
        terms_by_id[term_id] = term
    posting_terms = _term_column(statistics.offsets)
    posting_shards = assignment[statistics.doc_indices]
    pieces: list[CollectionStatistics] = []
    for shard, indices in enumerate(shard_doc_indices):
        keep = posting_shards == shard
        kept_terms = posting_terms[keep]
        present = np.unique(kept_terms)  # ascending global ids
        offsets, doc_indices, frequencies = _pack(
            len(present),
            np.searchsorted(present, kept_terms) + 1,
            local_index[statistics.doc_indices[keep]],
            statistics.frequencies[keep],
        )
        lengths = np.asarray(statistics.doc_lengths[indices], dtype=np.int64)
        pieces.append(
            CollectionStatistics(
                doc_ids=[statistics.doc_ids[index] for index in indices],
                doc_lengths=lengths,
                term_ids={
                    terms_by_id[term_id]: local
                    for local, term_id in enumerate(present.tolist(), start=1)
                },
                offsets=offsets,
                doc_indices=doc_indices,
                frequencies=frequencies,
                total_terms=int(lengths.sum()),
            )
        )
    return pieces


# ---------------------------------------------------------------------------
# Fast vectorised builder
# ---------------------------------------------------------------------------


def build_statistics(
    documents: Sequence[tuple[Any, str]],
    analyzer: Analyzer | None = None,
) -> CollectionStatistics:
    """Compute collection statistics in one pass over ``(docID, text)`` pairs.

    Each pair is one document, in the order given — also a pair whose text
    analyzes to no term (its length is 0) and a docID given twice (two
    documents).
    """
    empty = CollectionStatistics(
        doc_ids=[],
        doc_lengths=np.empty(0, dtype=np.int64),
        term_ids={},
        offsets=np.zeros(2, dtype=np.int64),
        doc_indices=np.empty(0, dtype=np.int64),
        frequencies=np.empty(0, dtype=np.int64),
        total_terms=0,
    )
    return extend_statistics(empty, documents, analyzer)


def extend_statistics(
    base: CollectionStatistics,
    documents: Sequence[tuple[Any, str]],
    analyzer: Analyzer | None = None,
) -> CollectionStatistics:
    """Statistics of ``base``'s documents followed by ``documents``.

    Only the appended documents are analyzed.  Term ids continue in
    first-seen order, lengths are exact integer updates, and ``base``'s
    postings and the new ones are re-packed in one stable pass — appended
    documents index past every document of ``base``, so each term's postings
    stay sorted by document.  The result equals what :func:`build_statistics`
    computes over the whole collection, array for array (the bulk builder
    *is* this function applied to an empty base).  ``base`` is left
    untouched, so a reader still ranking against it is never disturbed.
    """
    analyzer = analyzer if analyzer is not None else StandardAnalyzer()
    doc_ids: list[Any] = list(base.doc_ids)
    tail_lengths: list[int] = []
    term_ids: dict[str, int] = dict(base.term_ids)
    # the appended (term, doc, tf) postings, document by document
    tail_terms: list[int] = []
    tail_docs: list[int] = []
    tail_frequencies: list[int] = []

    for doc_index, (doc_id, text) in enumerate(documents, start=base.num_docs):
        terms = analyzer.analyze(text)
        doc_ids.append(doc_id)
        tail_lengths.append(len(terms))
        counts: dict[int, int] = {}
        for term in terms:
            term_id = term_ids.setdefault(term, len(term_ids) + 1)
            counts[term_id] = counts.get(term_id, 0) + 1
        tail_terms.extend(counts)
        tail_frequencies.extend(counts.values())
        tail_docs.extend([doc_index] * len(counts))

    offsets, doc_indices, frequencies = _pack(
        len(term_ids),
        np.concatenate([_term_column(base.offsets), np.asarray(tail_terms, dtype=np.int64)]),
        np.concatenate([base.doc_indices, np.asarray(tail_docs, dtype=np.int64)]),
        np.concatenate([base.frequencies, np.asarray(tail_frequencies, dtype=np.int64)]),
    )
    return CollectionStatistics(
        doc_ids=doc_ids,
        doc_lengths=np.concatenate(
            [base.doc_lengths, np.asarray(tail_lengths, dtype=np.int64)]
        ),
        term_ids=term_ids,
        offsets=offsets,
        doc_indices=doc_indices,
        frequencies=frequencies,
        total_terms=base.total_terms + int(sum(tail_lengths)),
    )


def docs_columns(
    docs: Relation, id_column: str = "docID", text_column: str = "data"
) -> tuple[Column, Column]:
    """The id and text columns of a ``docs(docID, data)`` relation."""
    if id_column not in docs.schema or text_column not in docs.schema:
        raise IndexingError(
            f"docs relation must have columns {id_column!r} and {text_column!r}, "
            f"got {docs.schema.names}"
        )
    return docs.column(id_column), docs.column(text_column)


# ---------------------------------------------------------------------------
# Faithful relational builder (the paper's CREATE VIEW chain)
# ---------------------------------------------------------------------------


class RelationalStatisticsBuilder:
    """Builds the paper's statistics views as logical plans over a database.

    The builder registers the views ``<prefix>term_doc``, ``<prefix>doc_len``
    and ``<prefix>termdict`` in the database catalog, defined as in Section
    2.1 except that ``doc_len`` keeps every docs row (see
    :meth:`doc_len_plan`), and materialises them through the database's
    on-demand cache (so the first materialisation is "cold" and later ones
    are "hot").  :meth:`view_sql` prints those views and the ``tf`` and
    ``idf`` views of the listing.  With unique docIDs, :meth:`materialize`
    equals :func:`build_statistics` with ``StandardAnalyzer(language)``.
    """

    def __init__(
        self,
        database: Database,
        docs_source: str,
        *,
        language: str = "english",
        prefix: str = "",
    ):
        self.database = database
        self.docs_source = docs_source
        self.language = language
        self.prefix = prefix

    # -- view names --------------------------------------------------------------

    def _name(self, base: str) -> str:
        return f"{self.prefix}{base}"

    @property
    def term_doc_view(self) -> str:
        return self._name("term_doc")

    @property
    def doc_len_view(self) -> str:
        return self._name("doc_len")

    @property
    def termdict_view(self) -> str:
        return self._name("termdict")

    @property
    def tf_view(self) -> str:
        return self._name("tf")

    @property
    def idf_view(self) -> str:
        return self._name("idf")

    # -- plan construction ----------------------------------------------------------

    def term_doc_plan(self) -> LogicalPlan:
        """``SELECT stem(lcase(token), 'sb-<lang>') AS term, docID FROM tokenize(docs)``."""
        tokenized = TableFunctionScan(Scan(self.docs_source), "tokenize")
        stemmed = Project(
            tokenized,
            [
                (
                    "term",
                    FunctionCall(
                        "stem",
                        [FunctionCall("lcase", [col("token")]), f"sb-{self.language}"],
                    ),
                ),
                ("docID", col("docID")),
            ],
        )
        return stemmed

    def doc_len_plan(self) -> LogicalPlan:
        """Every docs row with its length: ``docs LEFT JOIN`` the paper's counts.

        The paper's ``SELECT docID, count(*) AS len FROM term_doc GROUP BY
        docID`` drops a document whose text has no term, so it is left-joined
        to the docs relation; ``coalesce`` makes such a document's length 0
        (the engine's left join already yields 0, a SQL database NULL).
        """
        counted = Aggregate(
            Scan(self.term_doc_view),
            keys=["docID"],
            aggregates=[AggregateSpec("count", None, "len")],
        )
        joined = Join(
            Project(Scan(self.docs_source), [("docID", col("docID"))]),
            Project(counted, [("counted", col("docID")), ("len", col("len"))]),
            conditions=[("docID", "counted")],
            how="left",
        )
        return Project(
            joined,
            [("docID", col("docID")), ("len", FunctionCall("coalesce", [col("len"), 0]))],
        )

    def termdict_plan(self) -> LogicalPlan:
        """Distinct terms; termIDs are assigned during materialisation."""
        return Distinct(Project(Scan(self.term_doc_view), [("term", col("term"))]))

    def tf_plan(self) -> LogicalPlan:
        """``SELECT termID, docID, count(*) AS tf FROM term_doc JOIN termdict GROUP BY ...``."""
        joined = Join(
            Scan(self.term_doc_view),
            Scan(self.termdict_view),
            conditions=[("term", "term")],
        )
        return Aggregate(
            joined,
            keys=["termID", "docID"],
            aggregates=[AggregateSpec("count", None, "tf")],
        )

    def idf_plan(self) -> LogicalPlan:
        """Robertson IDF per termID, computed from the ``tf`` view.

        The paper uses a correlated scalar subquery ``(SELECT count(*) FROM
        doc_len)``; the engine has no subqueries, so the document count is
        computed during materialisation and injected as a literal — the
        resulting relation is identical.
        """
        return Aggregate(
            Scan(self.tf_view),
            keys=["termID"],
            aggregates=[AggregateSpec("count", None, "df")],
        )

    # -- registration and materialisation ----------------------------------------------

    def register_views(self) -> None:
        """Register all statistics views in the database catalog.

        Re-registering an identical view definition is skipped so that
        repeated materialisations keep their cache entries (the "hot" path).
        """
        views = {
            self.term_doc_view: self.term_doc_plan(),
            self.doc_len_view: self.doc_len_plan(),
            self.termdict_view: self.termdict_plan(),
        }
        for name, plan in views.items():
            if self.database.catalog.has_view(name):
                existing = self.database.catalog.view(name)
                if existing.fingerprint() == plan.fingerprint():
                    continue
            self.database.create_view(name, plan, replace=True)

    def materialize(self) -> CollectionStatistics:
        """Materialise the view chain through the database and assemble statistics.

        Every intermediate relation passes through the database's
        materialization cache, so repeated calls are served from cache until a
        base table changes (the paper's hot/cold distinction).
        """
        self.register_views()
        term_doc = self.database.query(self.term_doc_view)
        doc_len = self.database.query(self.doc_len_view)
        distinct_terms = self.database.query(self.termdict_view)

        # Assign termIDs in first-seen order of the distinct-term relation,
        # mirroring the paper's row_number() over the distinct terms.
        term_ids = {
            term: position + 1
            for position, term in enumerate(distinct_terms.column("term").to_list())
        }

        doc_ids = doc_len.column("docID").to_list()
        doc_index = {doc_id: position for position, doc_id in enumerate(doc_ids)}
        lengths = np.asarray(doc_len.column("len").to_list(), dtype=np.int64)

        # Term frequencies from the term_doc relation (equivalent to the tf
        # view): one (termID, docID) key per row, counted — np.unique returns
        # the keys term-major and ascending by document, the packed order.
        terms = term_doc.column("term").to_list()
        docs = term_doc.column("docID").to_list()
        term_column = np.fromiter((term_ids[term] for term in terms), np.int64, len(terms))
        doc_column = np.fromiter((doc_index[doc] for doc in docs), np.int64, len(docs))
        stride = max(len(doc_ids), 1)
        keys, counts = np.unique(term_column * stride + doc_column, return_counts=True)
        offsets, doc_indices, frequencies = _pack(
            len(term_ids), keys // stride, keys % stride, counts
        )
        return CollectionStatistics(
            doc_ids=doc_ids,
            doc_lengths=lengths,
            term_ids=term_ids,
            offsets=offsets,
            doc_indices=doc_indices,
            frequencies=frequencies,
            total_terms=int(lengths.sum()),
        )

    def view_sql(self) -> dict[str, str]:
        """Return the CREATE VIEW SQL for every statistics view (documentation aid)."""
        from repro.relational.sqlgen import view_definition

        return {
            self.term_doc_view: view_definition(self.term_doc_view, self.term_doc_plan()),
            self.doc_len_view: view_definition(self.doc_len_view, self.doc_len_plan()),
            self.termdict_view: view_definition(self.termdict_view, self.termdict_plan()),
            self.tf_view: view_definition(self.tf_view, self.tf_plan()),
            self.idf_view: view_definition(self.idf_view, self.idf_plan()),
        }
