"""Plan executors: local, sharded scatter-gather, and worker-pool execution.

:meth:`Engine._execute_plan` no longer evaluates plans directly — it hands
the *optimized* plan to the engine's executor, one of three implementations
of the same interface:

* :class:`LocalExecutor` — the single-engine path (exactly the old
  behaviour): evaluate the plan against the engine's own database.
* :class:`ShardedExecutor` — scatter-gather over per-shard engines opened
  from a partitioned snapshot *in this process*.
* :class:`PoolExecutor` — the same scatter-gather over a pool of persistent
  worker processes, each memmapping its own shard
  (:mod:`repro.serving.pool`).

**The bit-identity contract.**  Sharded execution must return exactly what
the unsharded engine returns — scores, rows and tie order.  The merge
kernels (``group_codes``/``group_segments``) are input-row-order-sensitive
(stable sorts, first-seen group numbering), so the executors never let a
duplicate-merging operator see shard-reordered input.  Instead:

* only **row-local** plan segments are scattered — maximal
  ``SELECT``/``WEIGHT`` chains directly above a scan of a partitioned
  table, optionally capped by a single ``TOP`` (the shape the PR-3
  optimizer produces by pushing TOP past weights and fusing selects);
* every scattered fragment carries a hidden trailing value column holding
  each row's **original row index** (appended after the real value columns,
  so 1-based positional references are unchanged);
* the gather step reassembles fragments **in original row order** (concat +
  sort by the hidden column, then drop it) — bit-exactly the relation the
  unsharded plan would have produced at that point — and the remainder of
  the plan runs on the coordinator.

For a ``TOP k`` segment each shard returns at most ``k`` candidates and the
gather takes the global top ``k`` with the same deterministic tie order
(probability descending, value columns ascending, original row index last —
which is exactly the stable-input-order tie-break of the local path).

Keyword search scatters differently: each shard ranks its own documents
against **global** collection statistics
(:class:`~repro.ir.statistics.ShardCollectionStatistics`), so per-document
scores are bit-identical, and the ranked merge breaks score ties by global
document index — the same order the unsharded accumulator produces.  There
is one search path: a single query is a batch of one
(:meth:`ScatterGatherExecutor.search_many`).

**One fan-out.**  Every scatter puts all shard requests out first (the
``begin_*`` methods), then collects the results, on the calling thread.
Pool shards put a frame on a worker's pipe, so the workers overlap;
in-process shards compute eagerly inside ``begin_*``.  No thread pool is
involved — under the GIL one would only add hand-off cost.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.analysis.locality import FRAGMENT_PARAM, ScatterSegment, extract_segments
from repro.errors import EngineError
from repro.ir.ranking import BM25Model, LanguageModel
from repro.ir.ranking.base import RankedList, RankingModel
from repro.ir.statistics import CollectionStatistics, GlobalStatistics, ShardCollectionStatistics
from repro.pra import operators as pra_operators
from repro.pra.evaluator import PRAEvaluator, Record
from repro.pra.plan import PraPlan
from repro.pra.relation import PROBABILITY_COLUMN, ProbabilisticRelation
from repro.relational.column import Column, DataType
from repro.relational.relation import Relation

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine import Engine
    from repro.storage.shards import ShardMap, ShardRowids

#: hidden trailing value column carrying original row indices through a scatter
GATHER_ROW_COLUMN = "__shard_row__"


# ---------------------------------------------------------------------------
# search specs (shared by the engine facade, the executors, and the workers)
# ---------------------------------------------------------------------------


@dataclass
class SearchSpec:
    """Everything a shard needs to rank one keyword query."""

    table: str
    terms: list[str]
    top_k: int | None = None
    id_column: str = "docID"
    text_column: str = "data"
    model: RankingModel | None = None


def statistics_key(spec: SearchSpec) -> tuple:
    """Which collection statistics a search ranks against.

    The executor keys its merged global statistics by it, and the engine
    groups a batch by it: specs with one key rank against the same df/cf
    tables, so they can share one shard request.
    """
    return (spec.table, spec.id_column, spec.text_column)


def model_from_descriptor(descriptor: dict[str, Any] | None) -> RankingModel | None:
    """Rebuild a ranking model from its ``describe()`` dict (JSON requests).

    An absent descriptor gives the default model, a fresh BM25; an unknown
    model name gives ``None``, which the router answers with a 400.
    """
    if descriptor is None:
        return BM25Model()
    name = descriptor.get("model")
    if name == "bm25":
        return BM25Model(k1=float(descriptor["k1"]), b=float(descriptor["b"]))
    if name == "lm":
        return LanguageModel(
            smoothing=str(descriptor["smoothing"]),
            mu=float(descriptor["mu"]),
            lam=float(descriptor["lambda"]),
        )
    return None


# ---------------------------------------------------------------------------
# gather kernels
# ---------------------------------------------------------------------------


def augment_fragment(relation: Relation, rowids: np.ndarray) -> ProbabilisticRelation:
    """Lift a table fragment and append its original-row-index column.

    The index column sits *after* the real value columns and *before* ``p``,
    so 1-based positional references in predicates are unchanged, and the
    deterministic tie-break (value columns in order, index last) reproduces
    the stable input-order tie-break of unsharded evaluation.
    """
    lifted = ProbabilisticRelation.lift(relation)
    augmented = (
        lifted.values_relation()
        .with_column(GATHER_ROW_COLUMN, Column(np.asarray(rowids, dtype=np.int64), DataType.INT))
        .with_column(PROBABILITY_COLUMN, Column(lifted.probabilities(), DataType.FLOAT))
    )
    return ProbabilisticRelation(augmented, validate=False)


def _concat_results(results: Sequence[ProbabilisticRelation]) -> Relation:
    relation = results[0].relation
    for result in results[1:]:
        relation = relation.concat(result.relation)
    return relation


def _drop_row_column(relation: Relation) -> ProbabilisticRelation:
    return ProbabilisticRelation(relation.without_column(GATHER_ROW_COLUMN), validate=False)


def gather_concat(results: Sequence[ProbabilisticRelation]) -> ProbabilisticRelation:
    """Reassemble row-local shard results in exact original row order."""
    relation = _concat_results(results)
    if relation.num_rows:
        order = np.argsort(
            np.asarray(relation.column(GATHER_ROW_COLUMN).values, dtype=np.int64),
            kind="stable",
        )
        relation = relation.take(order)
    return _drop_row_column(relation)


def gather_top(results: Sequence[ProbabilisticRelation], k: int) -> ProbabilisticRelation:
    """Merge per-shard top-k candidate lists into the global top ``k``.

    Each input holds at most ``k`` rows; the merge reuses the rank-aware
    top-k kernel, whose tie order (probability descending, value columns
    ascending — original row index last, thanks to the hidden column) is
    exactly the local path's stable tie-break.
    """
    merged = ProbabilisticRelation(_concat_results(results), validate=False)
    return _drop_row_column(pra_operators.top(merged, k).relation)


def merge_ranked(
    shard_results: Sequence[tuple[list[Any], np.ndarray, np.ndarray]],
    top_k: int | None,
) -> RankedList:
    """Merge per-shard ranked lists deterministically.

    Each entry is ``(doc_ids, scores, global_doc_indices)``.  The merged
    order is score descending with ties broken by ascending global document
    index — identical to the unsharded accumulator's stable sort over
    index-ordered documents.
    """
    doc_ids: list[Any] = []
    scores_parts: list[np.ndarray] = []
    index_parts: list[np.ndarray] = []
    for ids, scores, indices in shard_results:
        doc_ids.extend(ids)
        scores_parts.append(np.asarray(scores, dtype=np.float64))
        index_parts.append(np.asarray(indices, dtype=np.int64))
    if not doc_ids:
        return RankedList.empty()
    scores = np.concatenate(scores_parts)
    indices = np.concatenate(index_parts)
    order = np.lexsort((indices, -scores))
    if top_k is not None:
        order = order[:top_k]
    return RankedList([doc_ids[i] for i in order], scores[order], indices[order])


def rank_shard_many(
    statistics: CollectionStatistics,
    global_statistics: GlobalStatistics,
    doc_rowids: np.ndarray,
    queries: Sequence[tuple[Sequence[str], int | None]],
    model: RankingModel,
) -> list[tuple[list[Any], np.ndarray, np.ndarray]]:
    """Rank a batch of queries over one shard in a single vectorized pass.

    The shard statistics view and the doc-position map are built once for
    the whole batch, and :meth:`RankingModel.rank_many` shares scored
    posting slices across queries.  Each returned triple is
    ``(doc_ids, scores, global_doc_indices)`` for the shard's (at most
    ``top_k``) best documents, with scores bit-identical to what the
    unsharded engine computes for them, whatever else is in the batch.
    """
    shard_view = ShardCollectionStatistics(statistics, global_statistics)
    ranked_lists = model.rank_many(shard_view, queries)
    position_of = statistics.doc_positions()  # built once per statistics object
    results = []
    for ranked in ranked_lists:
        global_indices = np.asarray(
            [doc_rowids[position_of[doc_id]] for doc_id in ranked.doc_ids],
            dtype=np.int64,
        )
        results.append(
            (
                list(ranked.doc_ids),
                np.asarray(ranked.scores, dtype=np.float64),
                global_indices,
            )
        )
    return results


def gather_table(backends: Sequence[Any], table: str) -> Relation:
    """Reconstruct the full unsharded table from shard fragments, bit-exactly.

    Fragments preserve ascending original row order, so concatenating them
    and sorting by the per-shard original-row-index arrays reproduces the
    source table's exact rows and order.  This is the coordinator's lazy
    hydration path for plan shapes that cannot scatter (joins, merges).
    """
    parts = [pending.result() for pending in [b.begin_fragment(table) for b in backends]]
    relation = parts[0][0]
    for fragment, _rows in parts[1:]:
        relation = relation.concat(fragment)
    rows = np.concatenate([np.asarray(rows, dtype=np.int64) for _fragment, rows in parts])
    if len(rows):
        relation = relation.take(np.argsort(rows, kind="stable"))
    return relation


def gather_triples(backends: Sequence[Any]) -> list:
    """Reconstruct the full triple list from shard fragments, in source order."""
    triples: list = []
    rows_parts: list[np.ndarray] = []
    for backend in backends:
        fragment, rows = backend.triples_fragment()
        triples.extend(fragment)
        rows_parts.append(np.asarray(rows, dtype=np.int64))
    if not triples:
        return []
    order = np.argsort(np.concatenate(rows_parts), kind="stable")
    return [triples[index] for index in order]


# ---------------------------------------------------------------------------
# shard backends
# ---------------------------------------------------------------------------


class _Immediate:
    """An already-computed pending reply (the in-process ``begin_*`` shape).

    In-process backends have no wire to pipeline over, so their ``begin_*``
    methods compute eagerly and wrap the value; callers treat the result
    uniformly with :class:`repro.serving.pool._PendingReply`.
    """

    def __init__(self, value: Any):
        self._value = value

    def result(self, timeout: float | None = None) -> Any:
        return self._value


class InProcessShard:
    """A shard backend over a shard engine opened in this process."""

    def __init__(self, engine: "Engine", rowids: "ShardRowids"):
        self.engine = engine
        self.rowids = rowids
        self._evaluator = PRAEvaluator(engine.database)
        self._fragments: dict[str, ProbabilisticRelation] = {}

    def _augmented(self, table: str) -> ProbabilisticRelation:
        fragment = self._fragments.get(table)
        if fragment is None:
            fragment = augment_fragment(self.engine.database.table(table), self.rowids.get(table))
            self._fragments[table] = fragment
        return fragment

    def evaluate_segment(self, plan: PraPlan, table: str) -> ProbabilisticRelation:
        return self._evaluator.evaluate(plan, bindings={FRAGMENT_PARAM: self._augmented(table)})

    def begin_segment(self, plan: PraPlan, table: str) -> _Immediate:
        return _Immediate(self.evaluate_segment(plan, table))

    def fragment(self, table: str) -> tuple[Relation, np.ndarray]:
        return self.engine.database.table(table), self.rowids.get(table)

    def begin_fragment(self, table: str) -> _Immediate:
        return _Immediate(self.fragment(table))

    def triples_fragment(self) -> tuple[list, np.ndarray]:
        return list(self.engine.store._triples), self.rowids.get_store()

    def _searcher(self, spec: SearchSpec):
        return self.engine._search_engine(
            spec.table,
            model=None,
            expander=None,
            id_column=spec.id_column,
            text_column=spec.text_column,
        )

    def statistics_summary(self, spec: SearchSpec) -> GlobalStatistics:
        return GlobalStatistics.reduce([self._searcher(spec).statistics])

    def begin_statistics_summary(self, spec: SearchSpec) -> _Immediate:
        return _Immediate(self.statistics_summary(spec))

    def search_shard(
        self, spec: SearchSpec, global_statistics: GlobalStatistics
    ) -> tuple[list[Any], np.ndarray, np.ndarray]:
        return self.search_shard_many([spec], global_statistics)[0]

    def search_shard_many(
        self, specs: Sequence[SearchSpec], global_statistics: GlobalStatistics
    ) -> list[tuple[list[Any], np.ndarray, np.ndarray]]:
        """Rank a batch of same-key specs in one pass (see :func:`rank_shard_many`)."""
        first = specs[0]
        model = first.model if first.model is not None else BM25Model()
        return rank_shard_many(
            self._searcher(first).statistics,
            global_statistics,
            self.rowids.get(first.table),
            [(spec.terms, spec.top_k) for spec in specs],
            model,
        )

    def begin_search_many(
        self, specs: Sequence[SearchSpec], global_statistics: GlobalStatistics
    ) -> _Immediate:
        return _Immediate(self.search_shard_many(specs, global_statistics))

    def close(self) -> None:
        self._fragments.clear()
        self.engine.close()


# ---------------------------------------------------------------------------
# executors
# ---------------------------------------------------------------------------


class PlanExecutor:
    """The interface :meth:`Engine._execute_plan` dispatches to."""

    kind = "abstract"

    def execute_plan(
        self,
        plan: PraPlan,
        bindings: Mapping[str, Any] | None = None,
        record: Record | None = None,
    ) -> ProbabilisticRelation:
        """Evaluate ``plan``; ``record`` is the evaluation's record (see
        :meth:`PRAEvaluator.evaluate`) wherever the coordinator evaluates."""
        raise NotImplementedError

    def search_many(self, specs: Sequence[SearchSpec]) -> list[RankedList] | None:
        """Sharded ranking for a same-key batch, or ``None`` for the local path."""
        return None

    def describe(self) -> dict[str, Any]:
        return {"executor": self.kind}

    def health(self) -> dict[str, Any]:
        """Liveness detail for serving endpoints; extends :meth:`describe`."""
        return self.describe()

    def close(self) -> None:
        """Release executor resources (worker pools, shard engines)."""


class LocalExecutor(PlanExecutor):
    """Single-engine evaluation: the pre-sharding behaviour, unchanged."""

    kind = "local"

    def __init__(self, engine: "Engine"):
        self._engine = engine

    def execute_plan(
        self,
        plan: PraPlan,
        bindings: Mapping[str, Any] | None = None,
        record: Record | None = None,
    ) -> ProbabilisticRelation:
        return self._engine._evaluator.evaluate(plan, bindings=bindings or None, record=record)


class ScatterGatherExecutor(PlanExecutor):
    """Shared scatter-gather logic over a set of shard backends."""

    kind = "scatter-gather"

    def __init__(self, engine: "Engine", shard_map: "ShardMap", backends: Sequence[Any]):
        self._engine = engine
        self.shard_map = shard_map
        self.backends = list(backends)
        self._global_statistics: dict[tuple, GlobalStatistics] = {}
        self.last_scatter: dict[str, Any] = {}

    # -- plans ------------------------------------------------------------------

    def execute_plan(
        self,
        plan: PraPlan,
        bindings: Mapping[str, Any] | None = None,
        record: Record | None = None,
    ) -> ProbabilisticRelation:
        segments: list[tuple[str, ScatterSegment]] = []
        rewritten = extract_segments(plan, self.shard_map.is_partitioned, segments)
        self.last_scatter = {
            "segments": len(segments),
            "tables": [segment.table for _name, segment in segments],
        }
        gathered: dict[str, ProbabilisticRelation] = {}
        shard_counts: list[list[int]] = []
        for name, segment in segments:
            shard_plan, table = segment.shard_plan(), segment.table
            results = self._fan_out(
                lambda backend, plan=shard_plan, table=table: backend.begin_segment(plan, table)
            )
            shard_counts.append([result.num_rows for result in results])
            gathered[name] = segment.gather(results)
        if segments:
            self.last_scatter["per_shard_rows"] = shard_counts
        merged = {**(bindings or {}), **gathered}
        return self._engine._evaluator.evaluate(rewritten, bindings=merged or None, record=record)

    def _fan_out(self, begin: Callable[[Any], Any]) -> list[Any]:
        """Start ``begin`` on every backend, then collect every result.

        All requests go out before the first result is awaited, so pool
        workers overlap; an in-process backend has already computed by the
        time its ``begin`` returns.  Both happen on the calling thread.
        """
        return [pending.result() for pending in [begin(b) for b in self.backends]]

    # -- search -----------------------------------------------------------------

    _statistics_key = staticmethod(statistics_key)

    def has_global_statistics(self, spec: SearchSpec) -> bool:
        """True once the global reduce for this table/config has been merged."""
        return self._statistics_key(spec) in self._global_statistics

    def _merged_global(self, spec: SearchSpec) -> GlobalStatistics:
        key = self._statistics_key(spec)
        cached = self._global_statistics.get(key)
        if cached is None:
            summaries = self._fan_out(lambda backend: backend.begin_statistics_summary(spec))
            cached = GlobalStatistics.merge(summaries)
            self._global_statistics[key] = cached
        return cached

    def search_many(self, specs: Sequence[SearchSpec]) -> list[RankedList] | None:
        """Sharded ranking for a batch of same-key specs, or ``None``.

        All specs must share one :func:`statistics_key` (the engine groups
        before dispatching); each shard answers the whole batch through its
        vectorized kernel, and every merged list is bit-identical to the
        unsharded ranking of that spec alone.  A single search is a batch
        of one.  Shards hold no global statistics: every request brings
        the global df/cf its terms need.
        """
        if not specs:
            return []
        first = specs[0]
        if not self.shard_map.is_partitioned(first.table):
            return None
        key = self._statistics_key(first)
        if any(self._statistics_key(spec) != key for spec in specs[1:]):
            raise EngineError("search_many requires specs sharing one statistics key")
        # each shard request carries the global df/cf of the batch's own terms
        global_statistics = self._merged_global(first).restricted_to(
            term for spec in specs for term in spec.terms
        )
        per_backend = self._fan_out(
            lambda backend: backend.begin_search_many(specs, global_statistics)
        )
        self.last_scatter = {
            "search": first.table,
            "batch": len(specs),
            "per_shard_candidates": [
                sum(len(ids) for ids, _scores, _rows in shard) for shard in per_backend
            ],
        }
        return [
            merge_ranked([shard[index] for shard in per_backend], spec.top_k)
            for index, spec in enumerate(specs)
        ]

    # -- lifecycle ---------------------------------------------------------------

    def describe(self) -> dict[str, Any]:
        return {"executor": self.kind, "shards": self.shard_map.num_shards}

    def close(self) -> None:
        errors: list[BaseException] = []
        for backend in self.backends:
            try:
                backend.close()
            except BaseException as error:  # noqa: BLE001 - collect, then re-raise
                errors.append(error)
        self.backends = []
        if errors:
            raise errors[0]


class ShardedExecutor(ScatterGatherExecutor):
    """Scatter-gather over per-shard engines living in this process."""

    kind = "sharded"


class PoolExecutor(ScatterGatherExecutor):
    """Scatter-gather over persistent worker processes (one per shard set).

    Backends are :class:`repro.serving.pool.PoolShard` proxies; the pool
    itself (process lifecycle, pipes, codec) lives in
    :mod:`repro.serving.pool`.
    """

    kind = "pool"

    def __init__(self, engine: "Engine", shard_map: "ShardMap", pool: Any):
        super().__init__(engine, shard_map, pool.shard_backends())
        self._pool = pool

    def describe(self) -> dict[str, Any]:
        description = super().describe()
        description["workers"] = self._pool.num_workers
        description["shm_threshold"] = self._pool.shm_threshold
        description["replicas"] = self._pool.replicas
        return description

    def health(self) -> dict[str, Any]:
        """Describe plus per-worker liveness (no worker round-trips)."""
        description = self.describe()
        description["worker_liveness"] = self._pool.liveness()
        description["replication"] = self._pool.replication()
        return description

    def close(self) -> None:
        self.backends = []
        self._pool.close()
