"""The unified engine facade: one entry point over SpinQL, PRA and search.

The paper's pitch is that structured querying, graph traversal and IR
ranking live in *one* algebra.  :class:`Engine` makes that true at the API
level: it owns the relational :class:`~repro.relational.database.Database`,
the probabilistic :class:`~repro.triples.triple_store.TripleStore`, the
analyzer/ranking configuration and the caches, and every front end returns a
lazy :class:`~repro.engine.query.Query`:

* ``engine.spinql(text, **bindings)`` — SpinQL programs with named
  parameters;
* ``engine.search(table, query)`` — keyword search (warm statistics are
  shared across queries);
* ``engine.traverse(property, seeds)`` — graph traversal;
* ``engine.strategy("auction", query=...)`` — block-based strategies, by
  name or as a :class:`~repro.strategy.graph.StrategyGraph`, each block
  lowered to a PRA plan;
* ``engine.table("docs").where(...).rank(...)`` — the fluent builder.

Internally every relation-producing front end lowers to one shared pipeline:
parse/build → PRA plan → optimize → evaluate.  Compiled programs and
optimized plans are memoized in the fingerprint-keyed ``plan_cache`` (a
:class:`~repro.relational.cache.VersionedLRU`), so repeated parameterized
queries skip compilation and optimization entirely::

    from repro import connect

    engine = connect().load_triples(triples)
    ranked = engine.strategy("toy", query="wooden train").top(10)

**Rank-aware evaluation.**  ``query.top(k)`` on a plan-backed query does not
execute the plan and sort everything: the plan is wrapped in a
:class:`~repro.pra.plan.PraTop` node, the optimizer pushes that node towards
the leaves, and evaluation selects the ``k`` best rows with a partial-sort
kernel (``np.argpartition``).  Pushdown applies where probability
monotonicity makes it exact — through positive ``WEIGHT`` nodes, across
nested ``TOP`` nodes, and into the branches of a SUBSUMED (max-merge)
``UNITE`` with duplicate-free sides — and provably stops everywhere else:
``TOP`` never crosses ``BAYES``, ``SUBTRACT``, ``SELECT``, ``PROJECT``,
``JOIN`` or a union under the INDEPENDENT/DISJOINT merges, because each has
a counterexample where pruning early changes the answer (see
:mod:`repro.pra.optimizer`).  The keyword-search scorer is rank-aware too:
with ``top_k`` set it uses the same partial selection, plus threshold-style
early termination for models that can bound per-term contributions (BM25
with non-negative IDF, boolean).  All of this is exact — results, scores and
tie-breaking are identical to full evaluation.

**Determinism.**  Ranked results break probability ties by the value
columns, so equal inputs always produce equal output order, in one thread or
many.

**Concurrency guarantees.**  One ``Engine`` may be shared by many threads:
the plan cache and the materialization cache are lock-guarded (counters
never lose updates, inserts are atomic), evaluation itself is read-only, and
``query.execute_many(batches, max_workers=N)`` /
``engine.execute_many(query, batches, max_workers=N)`` fan evaluation out on
a ``ThreadPoolExecutor`` after compiling once — results always return in
batch order, so concurrent execution is observationally identical to serial.
Data loading (``load_triples``, ``create_table``) is *not* designed to run
concurrently with queries; quiesce queries before reloading.

This facade is the repository's public API.  The underlying layers
(:mod:`repro.spinql`, :mod:`repro.pra`, :mod:`repro.ir`,
:mod:`repro.strategy`, :mod:`repro.triples`) remain importable and supported
for advanced use; see the deprecation policy in :mod:`repro`.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections.abc import Iterable, Mapping, Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.errors import EngineError, ReproError
from repro.engine.executors import (
    InProcessShard,
    LocalExecutor,
    PlanExecutor,
    PoolExecutor,
    SearchSpec,
    ShardedExecutor,
    gather_table,
    gather_triples,
)
from repro.engine.query import (
    Query,
    RankedQuery,
    SearchQuery,
    SpinQLQuery,
    StrategyQuery,
    TableQuery,
    _coerce_bindings,
    as_probabilistic,
)
from repro.ir.registry import StatisticsRegistry
from repro.pra.evaluator import PRAEvaluator
from repro.pra.optimizer import optimize_pra
from repro.pra.plan import PraParam, PraPlan, PraScan, scan_tables
from repro.pra.relation import PROBABILITY_COLUMN, ProbabilisticRelation
from repro.relational.cache import VersionedLRU
from repro.relational.database import Database
from repro.relational.relation import Relation
from repro.spinql.compiler import CompiledScript, compile_script
from repro.strategy.executor import LoweredStrategy, StrategyExecutor
from repro.strategy.graph import StrategyGraph
from repro.text.analyzers import StandardAnalyzer
from repro.triples.triple_store import TripleStore
from repro.workload.cache import ResultCache, binding_fingerprint
from repro.workload.cost import CostModel
from repro.workload.log import WorkloadLog

__all__ = [
    "CompiledProgram",
    "Engine",
    "Query",
    "RankedQuery",
    "SearchQuery",
    "SpinQLQuery",
    "StrategyQuery",
    "TableQuery",
    "as_probabilistic",
    "connect",
]

#: what an engine bounds its plan cache to unless told otherwise.  Every
#: distinct SpinQL source and every top-k variant of a plan is one entry, so
#: an unbounded cache grows for the life of a server; E14's mixed workload
#: (2,000 request templates) peaks below 400 live entries, which this keeps
#: resident while a one-off-query stream can no longer grow without limit.
DEFAULT_MAX_ENTRIES = 512


@dataclass
class CompiledProgram:
    """A compiled SpinQL program plus its optimized final plan."""

    source: str
    compiled: CompiledScript
    plan: PraPlan
    optimized: PraPlan


def _strategy_builders() -> dict[str, Any]:
    from repro.strategy.prebuilt import (
        build_auction_strategy,
        build_expanded_auction_strategy,
        build_expert_strategy,
        build_toy_strategy,
    )

    return {
        "toy": build_toy_strategy,
        "auction": build_auction_strategy,
        "expanded-auction": build_expanded_auction_strategy,
        "experts": build_expert_strategy,
    }


class Engine:
    """The session-style facade over the whole reproduction stack."""

    def __init__(
        self,
        database: Database | None = None,
        *,
        storage: Any | None = None,
        triples_table: str = "triples",
        language: str = "english",
        plan_cache_size: int | None = None,  # None: the plan cache's default bound
        result_cache_size: int | None = 256,
        workload_log_capacity: int = 2048,
        cost_model: CostModel | None = None,
    ):
        self.store = TripleStore(database, storage=storage, table_name=triples_table)
        self.database = self.store.database
        self.triples_table = triples_table
        self.language = language
        self.analyzer = StandardAnalyzer(language)
        self.plan_cache: VersionedLRU[str, Any] = VersionedLRU(
            plan_cache_size if plan_cache_size is not None else DEFAULT_MAX_ENTRIES
        )
        # the workload subsystem: every execution is logged, repeated plan
        # evaluations may be answered from the result cache, and the cost
        # model (calibratable from the log) estimates plans for explain
        self.workload_log = WorkloadLog(capacity=workload_log_capacity)
        self.result_cache = (
            ResultCache(max_entries=result_cache_size) if result_cache_size else None
        )
        # the caches whose entries depend on tables (the database keeps its own)
        self._table_caches = tuple(
            cache for cache in (self.plan_cache, self.result_cache) if cache is not None
        )
        self.cost_model = cost_model if cost_model is not None else CostModel()
        # what survives a request (see "What is reused" in the README): one
        # statistics registry for keyword search, rank() and every strategy's
        # rank nodes; strategy block outputs live in the database's
        # materialization cache, keyed by plan content
        self.statistics_registry = StatisticsRegistry()
        self._evaluator = PRAEvaluator(self.database, self.statistics_registry)
        self.executor = StrategyExecutor(self.store, self.statistics_registry)
        self._search_engines: dict[tuple, Any] = {}
        self._plan_executor: PlanExecutor = LocalExecutor(self)
        self._thread_pool: ThreadPoolExecutor | None = None
        self._thread_pool_size = 0
        self._retired_pools: list[ThreadPoolExecutor] = []
        self._lifecycle_lock = threading.Lock()
        # guards _search_engines; Engine is shareable across threads
        self._registry_lock = threading.Lock()
        # online-reconfiguration state: requests check the executor out for
        # their whole run, so an atomic swap drains in-flight work on the old
        # executor while new requests route on the new one (epoch semantics)
        self._executor_lock = threading.Lock()
        self._executor_drained = threading.Condition(self._executor_lock)
        self._executor_leases: dict[int, int] = {}
        self._retired_executors: dict[int, PlanExecutor] = {}
        self._serving_config: Any | None = None
        self._snapshot_path: Path | None = None
        self._blueprint_manager: Any | None = None
        self._closed = False

    # -- construction -----------------------------------------------------------------

    @classmethod
    def from_triples(cls, triples: Iterable, **kwargs: Any) -> "Engine":
        """Build an engine, load ``triples`` and materialize storage in one call."""
        return cls(**kwargs).load_triples(triples)

    def connect_info(self) -> dict[str, Any]:
        """A description of the session (tables, caches, configuration)."""
        return {
            "triples": self.store.num_triples,
            "tables": self.database.table_names(),
            "views": self.database.view_names(),
            "language": self.language,
            "plan_cache": self.plan_cache.statistics.to_dict(),
            "materialization_cache": self.database.cache.statistics.to_dict(),
            "result_cache": (
                self.result_cache.to_dict() if self.result_cache is not None else None
            ),
            "workload_log": self.workload_log.statistics(),
            "reuse": self.reuse_statistics(),
        }

    def reuse_statistics(self) -> dict[str, dict[str, Any]]:
        """Counters of everything kept between requests and across writes.

        ``materialization_cache``: results kept by plan fingerprint (strategy
        blocks and subplans without a request binding, store reads) served
        (``hits``), computed (``misses``) and dropped by a write
        (``invalidations``); ``statistics_registry``: collection statistics
        served as they were (``hits``), extended by the appended rows only
        (``extends``), built in full (``rebuilds``) or evicted.
        """
        return {
            "materialization_cache": self.database.cache.statistics.to_dict(),
            "statistics_registry": self.statistics_registry.counters(),
        }

    # -- data loading ----------------------------------------------------------------

    def add_triples(self, triples: Iterable) -> "Engine":
        """Buffer triples (tuples of length 3/4 or :class:`Triple`); chainable."""
        self.store.add_all(triples)
        return self

    def load(self) -> "Engine":
        """(Re)materialize buffered triples and invalidate dependent caches."""
        self.store.load()
        self._on_data_changed()
        return self

    def load_triples(self, triples: Iterable) -> "Engine":
        """Buffer and materialize in one step; chainable."""
        return self.add_triples(triples).load()

    def create_table(self, name: str, relation: Relation, *, replace: bool = False) -> "Engine":
        """Register a base table in the database; invalidates dependent caches."""
        self.database.create_table(name, relation, replace=replace)
        self._invalidate_tables([name])
        self._invalidate_search_statistics(name)
        return self

    def _on_data_changed(self) -> None:
        self._invalidate_tables(self.database.table_names() + self.database.view_names())
        self._invalidate_search_statistics()

    def _invalidate_tables(self, names: list[str]) -> None:
        for cache in self._table_caches:
            for name in names:
                cache.invalidate_table(name)

    def _invalidate_search_statistics(self, table: str | None = None) -> None:
        with self._registry_lock:
            searchers = list(self._search_engines.items())
        for (source, *_rest), searcher in searchers:
            if table is None or source == table:
                searcher.invalidate()

    def clear_caches(self) -> None:
        """Drop every cached plan and materialized result (cold-start state)."""
        for cache in self._table_caches:
            cache.clear()
        self.database.clear_cache()
        self._invalidate_search_statistics()
        self.statistics_registry.clear()

    # -- lifecycle --------------------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Release every resource this session owns.

        Shuts down the engine's thread pool and its executor (in-process
        shard engines or worker processes), drops caches, and releases the
        catalog's table references so memmap-backed snapshot buffers can be
        unmapped.  A closed engine rejects further queries; closing twice is
        a no-op.
        """
        if self._closed:
            return
        self._closed = True
        with self._lifecycle_lock:
            pools = [self._thread_pool, *self._retired_pools]
            self._thread_pool = None
            self._retired_pools = []
            self._thread_pool_size = 0
        for pool in pools:
            if pool is not None:
                pool.shutdown(wait=True)
        with self._executor_lock:
            retired = list(self._retired_executors.values())
            self._retired_executors.clear()
            self._executor_leases.clear()
        for executor in retired:
            try:
                executor.close()
            except ReproError:  # pragma: no cover - already-dead workers
                pass
        try:
            self._plan_executor.close()
        finally:
            for cache in self._table_caches:
                cache.clear()
            self.workload_log.close()
            with self._registry_lock:
                self._search_engines.clear()
            self.statistics_registry.clear()
            self.database.clear_cache()
            self.database.catalog.release()
            self.store._triples_list = []
            self.store._triples_loader = None
            self.store._loaded = False

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def _require_open(self) -> None:
        if self._closed:
            raise EngineError("engine is closed; open a new session to run queries")

    # -- executor leases and online reconfiguration -----------------------------------

    def _checkout_executor(self) -> PlanExecutor:
        """The current executor, leased for one request (pair with release)."""
        with self._executor_lock:
            executor = self._plan_executor
            key = id(executor)
            self._executor_leases[key] = self._executor_leases.get(key, 0) + 1
            return executor

    def _release_executor(self, executor: PlanExecutor) -> None:
        """Return a lease; the last lease of a retired executor closes it."""
        retired: PlanExecutor | None = None
        with self._executor_lock:
            key = id(executor)
            count = self._executor_leases.get(key, 0) - 1
            if count > 0:
                self._executor_leases[key] = count
            else:
                self._executor_leases.pop(key, None)
                retired = self._retired_executors.pop(key, None)
                self._executor_drained.notify_all()
        if retired is not None:
            retired.close()

    def swap_executor(
        self, new_executor: PlanExecutor, *, drain_timeout: float = 30.0
    ) -> PlanExecutor:
        """Atomically install ``new_executor``; drain and close the old one.

        The install is the atomic step: every request that checks out after
        it routes on the new executor (new epoch), while requests already
        in flight finish on the old one.  This method then waits up to
        ``drain_timeout`` seconds for those leases to drain; either way the
        old executor is closed exactly once — immediately when drained, or
        by the final lease holder's release.  Returns the old executor.
        """
        self._require_open()
        with self._executor_lock:
            old = self._plan_executor
            self._plan_executor = new_executor
            key = id(old)
            if self._executor_leases.get(key, 0) > 0:
                self._retired_executors[key] = old
                deadline = time.monotonic() + drain_timeout
                while self._executor_leases.get(key, 0) > 0:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        # still draining: the final release closes it
                        return old
                    self._executor_drained.wait(remaining)
                self._retired_executors.pop(key, None)
        # drained (or never leased): close here; executor close is idempotent,
        # so a racing final release closing it first is harmless
        old.close()
        return old

    def reshard(
        self,
        shards: int,
        *,
        out: str | Path | None = None,
        drain_timeout: float = 30.0,
    ) -> dict[str, Any]:
        """Re-partition the served snapshot to ``shards`` shards, online.

        Builds the new layout in the background from the current immutable
        snapshot, then atomically swaps the versioned shard map (monotonic
        epoch): in-flight requests drain on the old epoch, new requests
        route on the new one — no downtime, bit-identical results.  Only
        engines opened with :meth:`open_sharded` can reshard.  Returns a
        summary dict (old/new epoch, shard counts, output path).
        """
        return self.blueprint_manager().reshard(
            shards, out=out, drain_timeout=drain_timeout
        )

    def blueprint_manager(self) -> Any:
        """The engine's blueprint manager (serialized serving transitions)."""
        from repro.serving.blueprint import BlueprintManager

        self._require_open()
        if getattr(self._plan_executor, "shard_map", None) is None:
            raise EngineError(
                "online resharding needs a sharded engine; open the snapshot "
                "with Engine.open_sharded first"
            )
        with self._executor_lock:
            if self._blueprint_manager is None:
                self._blueprint_manager = BlueprintManager(self)
            return self._blueprint_manager

    def _batch_pool(self, max_workers: int) -> ThreadPoolExecutor:
        """The engine's one thread pool, behind ``execute_many``/``top_many``.

        Created lazily and reused across calls, so thread lifecycle is paid
        once per engine instead of once per call; :meth:`close` shuts it
        down.  It only ever grows: an outgrown pool is retired, not shut
        down, because a concurrent caller may already hold a reference and
        be about to submit.  Batch tasks on a sharded engine scatter from
        inside these threads, inline — the scatter step has no pool of its
        own to wait on, so a full batch pool cannot deadlock.
        """
        with self._lifecycle_lock:
            self._require_open()
            if self._thread_pool is None or self._thread_pool_size < max_workers:
                if self._thread_pool is not None:
                    self._retired_pools.append(self._thread_pool)
                self._thread_pool = ThreadPoolExecutor(
                    max_workers=max_workers, thread_name_prefix="repro-engine"
                )
                self._thread_pool_size = max_workers
            return self._thread_pool

    # -- persistence ------------------------------------------------------------------

    def save(
        self,
        path: str | Path,
        *,
        shards: int | None = None,
        shard_keys: Mapping[str, str] | None = None,
    ) -> Path:
        """Snapshot the whole session: tables, triples, config, warm caches.

        The snapshot is a versioned directory (see :mod:`repro.storage`);
        :meth:`open` restores it with lazy, memmap-backed hydration, so a
        worker process boots from it in milliseconds instead of re-parsing
        CSV/text.

        With ``shards=N`` the snapshot is written in the *partitioned*
        layout instead (see :mod:`repro.storage.shards`): every base table
        is split by hash range on its shard key (first column unless
        overridden via ``shard_keys``), postings of warm collection
        statistics are split by the document partition, and each shard is a
        self-contained snapshot directory under a top-level shard map.
        Open it with :meth:`open_sharded` (scatter-gather execution),
        :meth:`open_shard` (one shard as a standalone engine), or serve it
        with :mod:`repro.serving`.
        """
        if shards is not None:
            from repro.storage.shards import save_sharded_engine

            return save_sharded_engine(
                self, path, shards=shards, shard_keys=dict(shard_keys or {})
            )
        from repro.storage.engine_io import save_engine

        return save_engine(self, path)

    @classmethod
    def open(cls, path: str | Path, *, mmap: bool = True, **engine_kwargs: Any) -> "Engine":
        """Open a snapshot written by :meth:`save`.

        Tables, the triple list and saved collection statistics hydrate
        lazily; compiled SpinQL sources recorded in the snapshot are
        recompiled to warm the plan cache.  Raises
        :class:`~repro.errors.EngineError` (naming the offending path) for
        missing/corrupt snapshots and
        :class:`~repro.errors.SnapshotVersionError` with a "rebuild or
        upgrade" message on a format-version mismatch.
        """
        from repro.storage.engine_io import open_engine

        return open_engine(path, mmap=mmap, **engine_kwargs)

    @classmethod
    def open_shard(
        cls, path: str | Path, shard: int, *, mmap: bool = True
    ) -> "Engine":
        """Open one shard of a partitioned snapshot as a standalone engine.

        The shard is a complete engine over its fragment of the data —
        useful for worker processes and for inspecting a partition; for
        global answers use :meth:`open_sharded`.
        """
        from repro.storage.shards import open_shard

        return open_shard(path, shard, mmap=mmap)

    @classmethod
    def open_sharded(
        cls,
        path: str | Path,
        *,
        executor: str = "sharded",
        config: Any | None = None,
        **engine_kwargs: Any,
    ) -> "Engine":
        """Open a partitioned snapshot behind a scatter-gather executor.

        ``executor="sharded"`` memmaps every shard in this process;
        ``executor="pool"`` boots persistent worker processes fed over
        pipelined pipes, with replication, failover and self-healing
        restarts governed by ``config``, a
        :class:`~repro.serving.config.ServingConfig` (``None``: the
        defaults).  Worker replies at or above ``config.shm_threshold``
        bytes travel through shared memory where the platform supports it,
        and on the pipe codec otherwise.  Either way the returned engine
        answers every query bit-identically
        to the unsharded engine: row-local plan segments (select/weight
        chains, rank-aware TOP) and keyword ranking scatter to the shards;
        everything else runs on the coordinator over gather-reconstructed
        tables.  The engine supports online re-sharding via
        :meth:`reshard`.  Raises :class:`~repro.errors.StorageError` for a
        missing or corrupt shard map.
        """
        from repro.serving.config import ServingConfig
        from repro.storage.format import read_manifest
        from repro.storage.shards import read_shard_map
        from repro.storage.snapshot import read_table_schemas
        from repro.triples.partitioning import make_storage

        resolved = config if config is not None else ServingConfig()
        shard_map = read_shard_map(path)
        manifest = read_manifest(shard_map.shard_directory(0), "engine")
        engine = cls(
            triples_table=manifest["triples_table"],
            language=manifest["language"],
            **engine_kwargs,
        )
        engine._serving_config = resolved
        engine._snapshot_path = Path(path)
        engine._plan_executor = engine._build_shard_executor(shard_map, executor, resolved)

        # coordinator tables hydrate on demand by gathering shard fragments
        # back into exact original row order (the bit-identity fallback path);
        # fragment schemas equal the unsharded table's, so shard 0's manifest
        # declares each lazy table's schema for hydration-free verification.
        # The closures read the executor through the engine so an online
        # reshard re-points them at the new layout's backends automatically.
        schemas = read_table_schemas(shard_map.shard_directory(0) / "database")
        for name in shard_map.table_names:
            engine.database.catalog.create_lazy_table(
                name,
                lambda name=name: gather_table(engine._plan_executor.backends, name),
                schema=schemas.get(name),
            )

        # the triple store reuses the shard layout's storage strategy; the
        # triple list itself gathers lazily on first access
        store_manifest = read_manifest(shard_map.shard_directory(0) / "store", "triple-store")
        storage = make_storage(store_manifest["storage"]["name"])
        storage.restore_state(store_manifest["storage"]["state"])
        engine.store.storage = storage
        engine.store.table_name = store_manifest["table_name"]
        engine.store.adopt_snapshot(lambda: gather_triples(engine._plan_executor.backends))

        for entry in manifest["spinql"]:
            engine._compile_spinql(entry["source"], frozenset(entry["parameters"]))
        return engine

    def _build_shard_executor(
        self, shard_map: Any, executor: str, config: Any
    ) -> PlanExecutor:
        """One scatter-gather executor over ``shard_map`` (shared with reshard)."""
        from repro.storage.shards import shard_rowids

        if executor == "pool":
            from repro.serving.pool import WorkerPool

            pool = WorkerPool(shard_map, config, on_event=self._log_serving_event)
            return PoolExecutor(self, shard_map, pool)
        if executor == "sharded":
            backends = [
                InProcessShard(
                    Engine.open(shard_map.shard_directory(index), mmap=config.mmap),
                    shard_rowids(shard_map, index),
                )
                for index in shard_map.shards()
            ]
            return ShardedExecutor(self, shard_map, backends)
        raise EngineError(f"unknown executor {executor!r}; use 'sharded' or 'pool'")

    def _log_serving_event(self, name: str, detail: dict[str, Any]) -> None:
        """Record a failover/restart/swap event in the workload log."""
        try:
            self.workload_log.record(
                "event",
                f"event::{name}",
                0.0,
                request={"event": name, **detail},
                executor=self._plan_executor.kind,
                status="ok",
            )
        except Exception:  # noqa: BLE001 - events must never break serving
            pass

    # -- front ends -------------------------------------------------------------------

    def spinql(self, source: str, **bindings: Any) -> SpinQLQuery:
        """A lazy SpinQL query; keyword arguments become named parameters."""
        return SpinQLQuery(self, source, bindings)

    def search(
        self,
        table: str,
        query: str | None = None,
        *,
        model: Any | None = None,
        pipeline: str = "direct",
        top_k: int | None = None,
        expander: Any | None = None,
        id_column: str = "docID",
        text_column: str = "data",
    ) -> SearchQuery:
        """Lazy keyword search over a docs table/view, sharing warm statistics."""
        return SearchQuery(
            self,
            table,
            query,
            model=model,
            pipeline=pipeline,
            top_k=top_k,
            expander=expander,
            id_column=id_column,
            text_column=text_column,
        )

    def table(self, name: str) -> TableQuery:
        """Start a fluent builder chain over a table or view."""
        return TableQuery(self, PraScan(name), self._value_columns_of(name))

    def traverse(
        self,
        property_name: str,
        seeds: Any | None = None,
        *,
        direction: str = "forward",
        merge: str = "independent",
    ) -> TableQuery:
        """Lazy graph traversal from ``seeds`` (any :func:`as_probabilistic` shape).

        Without ``seeds`` the query keeps a free ``seeds`` parameter, so one
        compiled traversal can be executed against many seed sets::

            hop = engine.traverse("hasAuction")
            hop.execute(seeds=["lot1", "lot2"])
        """
        bindings = {} if seeds is None else {"seeds": as_probabilistic(seeds)}
        start = TableQuery(self, PraParam("seeds"), ["node"], bindings)
        return start.traverse(property_name, direction=direction, merge=merge)

    def strategy(
        self,
        graph: StrategyGraph | str,
        query: str = "",
        *,
        result_block: str | None = None,
        parameters: Mapping[str, Any] | None = None,
        **builder_kwargs: Any,
    ) -> StrategyQuery:
        """A lazy strategy execution; ``graph`` is a graph or a prebuilt name.

        Known names: ``toy``, ``auction``, ``expanded-auction``, ``experts``.
        A name without ``builder_kwargs`` resolves to the strategy's lowering,
        one plan per block, kept in the plan cache until a table it scans
        changes, so a request by name neither builds nor lowers a graph.
        ``builder_kwargs`` are forwarded to the prebuilt builder for a fresh
        graph per call.  Either way, blocks whose plans read nothing of the
        request are served from the materialization cache by plan content.
        """
        name: str | None = None
        lowered: LoweredStrategy | None = None
        if isinstance(graph, str):
            builders = _strategy_builders()
            try:
                builder = builders[graph]
            except KeyError:
                raise EngineError(
                    f"unknown strategy {graph!r}; known strategies: {sorted(builders)}"
                ) from None
            if builder_kwargs:
                graph = builder(**builder_kwargs)
            else:
                name, lowered = graph, self._named_strategy(graph, builder)
                graph = lowered.graph
        elif builder_kwargs:
            raise EngineError(
                "builder keyword arguments are only valid with a strategy name, "
                "not a pre-built graph"
            )
        return StrategyQuery(
            self,
            graph,
            query,
            result_block=result_block,
            parameters=parameters,
            name=name,
            lowered=lowered,
        )

    def _named_strategy(self, name: str, builder: Any) -> LoweredStrategy:
        """The lowering of prebuilt ``name``, from the plan cache."""
        key = f"strategy::{name}"
        cached = self.plan_cache.get(key)
        if cached is not None:
            return cached
        self.store.ensure_loaded()
        still_valid = self.database.catalog.unchanged()
        lowered = self.executor.lower(builder())
        self.plan_cache.put(
            key, lowered, dependencies=lowered.tables(), still_valid=still_valid
        )
        return lowered

    def explain(self, source: str, *, top_k: int | None = None, **bindings: Any) -> str:
        """Shorthand for ``engine.spinql(source, **bindings).explain()``.

        With ``top_k``, the report shows the plan under a ``TOP k`` root and
        where the optimizer pushed it.
        """
        return self.spinql(source, **bindings).explain(top_k=top_k)

    def analyze(
        self,
        source_or_plan: "str | PraPlan",
        *,
        top_k: int | None = None,
        hydrate: bool = True,
        **bindings: Any,
    ):
        """Statically verify a SpinQL program or PRA plan without executing it.

        Returns an :class:`~repro.analysis.diagnostics.AnalysisReport`: the
        derived output schema, typed error/warning/note diagnostics with plan
        provenance, and — on a sharded engine — the shard-safety
        classification the scatter-gather executor itself uses.  No data is
        read unless ``hydrate`` forces lazy schemas to resolve (set
        ``hydrate=False`` to keep the check purely in-memory; unknowable
        schemas then surface as ``unknown-schema`` warnings instead of false
        "ok"s).
        """
        if isinstance(source_or_plan, PraPlan):
            return self._verify_plan(
                self._optimize_plan(source_or_plan),
                bindings=_coerce_bindings(bindings),
                hydrate=hydrate,
            )
        return self.spinql(source_or_plan, **bindings).check(top_k=top_k, hydrate=hydrate)

    def _verify_plan(
        self,
        plan: PraPlan,
        *,
        bindings: Mapping[str, ProbabilisticRelation] | None = None,
        parameters: Iterable[str] = (),
        hydrate: bool = True,
    ):
        """Run the static verifier over ``plan`` against this engine's catalog.

        The shard-safety classification is enabled exactly when this engine
        executes through a scatter-gather executor, using the executor's own
        ``shard_map.is_partitioned`` — verifier and executor can never
        disagree about which plans scatter.
        """
        from repro.analysis.verifier import CatalogSchemaProvider, verify_plan

        shard_map = getattr(self._plan_executor, "shard_map", None)
        return verify_plan(
            plan,
            schema_provider=CatalogSchemaProvider(self.database, hydrate=hydrate),
            functions=self.database.functions,
            parameters=parameters,
            bindings=bindings,
            partitioned=shard_map.is_partitioned if shard_map is not None else None,
        )

    def execute_many(
        self,
        query: Query,
        param_batches: Iterable[Mapping[str, Any]],
        *,
        max_workers: int | None = None,
    ) -> list[Any]:
        """Execute ``query`` once per parameter set, optionally on a thread pool.

        Compilation and optimization run once; with ``max_workers`` greater
        than one the evaluations run concurrently.  Results always come back
        in batch order, identical to serial execution.
        """
        return query.execute_many(param_batches, max_workers=max_workers)

    # -- shared pipeline ---------------------------------------------------------------

    def _compile_spinql(self, source: str, parameters: frozenset[str]) -> CompiledProgram:
        key = f"spinql::{self.triples_table}::{','.join(sorted(parameters))}::{source}"
        cached = self.plan_cache.get(key)
        if cached is not None:
            return cached
        still_valid = self.database.catalog.unchanged()
        compiled = compile_script(source, parameters=parameters, storage=self.store.storage)
        plan = compiled.final_plan
        program = CompiledProgram(
            source=source,
            compiled=compiled,
            plan=plan,
            optimized=optimize_pra(plan),
        )
        dependencies = frozenset().union(
            *(scan_tables(statement) for statement in compiled.plans.values())
        )
        self.plan_cache.put(
            key, program, dependencies=dependencies, still_valid=still_valid
        )
        return program

    def _optimize_plan(self, plan: PraPlan) -> PraPlan:
        key = f"pra::{plan.fingerprint()}"
        cached = self.plan_cache.get(key)
        if cached is not None:
            return cached
        still_valid = self.database.catalog.unchanged()
        optimized = optimize_pra(plan)
        self.plan_cache.put(
            key, optimized, dependencies=scan_tables(plan), still_valid=still_valid
        )
        return optimized

    # -- the workload feedback loop -----------------------------------------------

    def _table_rows(self, name: str) -> float | None:
        """Row count for cost estimation — from memory only, never from disk.

        Lazy snapshot tables and views answer ``None`` (sizing them would
        force hydration), which the cost model maps to its default estimate.
        """
        catalog = self.database.catalog
        try:
            if catalog.has_table(name) and catalog.is_hydrated(name):
                return float(catalog.table(name).num_rows)
        except ReproError:
            return None
        return None

    def estimate_cost(self, plan: PraPlan):
        """The cost model's estimate for ``plan`` against this catalog."""
        return self.cost_model.estimate(plan, self._table_rows)

    def calibrate_cost_model(self, *, min_samples: int = 8) -> bool:
        """Fit the cost model's coefficients from this engine's workload log.

        Returns True when enough logged executions carried unit vectors to
        solve the fit.  Coefficients only affect *estimates* — never which
        plan runs, and never results.
        """
        return self.cost_model.calibrate(
            self.workload_log.snapshot(), min_samples=min_samples
        )

    def _record_execution(
        self,
        *,
        kind: str,
        fingerprint: str,
        started: float,
        rows_out: int | None,
        status: str = "ok",
        request: dict[str, Any] | None = None,
        parameters: str | None = None,
        result_cache: str | None = None,
        cost_units: dict[str, float] | None = None,
        tables: Iterable[str] = (),
        executor: PlanExecutor | None = None,
    ) -> None:
        """Append one record to the workload log (never raises into queries)."""
        known_rows = [self._table_rows(name) for name in tables]
        sized = [rows for rows in known_rows if rows is not None]
        used = executor if executor is not None else self._plan_executor
        scatter = getattr(used, "last_scatter", None) or {}
        fanout = 0
        if scatter.get("segments") or scatter.get("search"):
            fanout = len(getattr(used, "backends", []))
        self.workload_log.record(
            kind,
            fingerprint,
            (time.perf_counter() - started) * 1000.0,
            rows_out=rows_out,
            rows_in=int(sum(sized)) if sized else None,
            parameters=parameters or None,
            request=request,
            result_cache=result_cache,
            executor=used.kind,
            shard_fanout=fanout,
            status=status,
            cost_units=cost_units or {},
        )

    def _evaluate(
        self,
        plan: PraPlan,
        bindings: Mapping[str, ProbabilisticRelation] | None = None,
        *,
        kind: str = "plan",
        request: dict[str, Any] | None = None,
    ) -> ProbabilisticRelation:
        """Run an (already optimized) plan through the engine's executor.

        Every call is logged to :attr:`workload_log`; with the result cache
        enabled, a repeat of the same (plan fingerprint, bound parameters)
        returns the previously computed relation — the identical object, so
        a hit is bit-identical to recomputation by construction.
        """
        self._require_open()
        started = time.perf_counter()
        bound = bindings or None
        fingerprint = "plan::" + _short_digest(plan.fingerprint())
        cache_key: tuple[str, str] | None = None
        cache_status: str | None = None
        if self.result_cache is not None:
            params = binding_fingerprint(bound)
            if params is not None:
                cache_key = (plan.fingerprint(), params)
                cached = self.result_cache.lookup(cache_key)
                if cached is not None:
                    self._record_execution(
                        kind=kind,
                        fingerprint=fingerprint,
                        started=started,
                        rows_out=cached.num_rows,
                        request=request,
                        parameters=params or None,
                        result_cache="hit",
                        tables=scan_tables(plan),
                    )
                    return cached
                cache_status = "miss"
        still_valid = self.database.catalog.unchanged()
        executor = self._checkout_executor()
        try:
            result = executor.execute_plan(plan, bound)
        except Exception:
            self._record_execution(
                kind=kind,
                fingerprint=fingerprint,
                started=started,
                rows_out=None,
                status="error",
                request=request,
                result_cache=cache_status,
                tables=scan_tables(plan),
                executor=executor,
            )
            raise
        finally:
            self._release_executor(executor)
        if cache_key is not None and self.result_cache is not None:
            admitted = self.result_cache.store(
                cache_key, result, dependencies=scan_tables(plan), still_valid=still_valid
            )
            cache_status = "miss" if admitted else "bypass"
        self._record_execution(
            kind=kind,
            fingerprint=fingerprint,
            started=started,
            rows_out=result.num_rows,
            request=request,
            parameters=cache_key[1] if cache_key else None,
            result_cache=cache_status,
            cost_units=self.cost_model.estimate(plan, self._table_rows).per_kind_units,
            tables=scan_tables(plan),
            executor=executor,
        )
        return result

    def _execute_plan(
        self, plan: PraPlan, bindings: Mapping[str, ProbabilisticRelation] | None = None
    ) -> ProbabilisticRelation:
        return self._evaluate(self._optimize_plan(plan), bindings)

    def executor_info(self) -> dict[str, Any]:
        """A description of the plan executor (kind, shard/worker counts)."""
        return self._plan_executor.describe()

    def _search_sharded_many(
        self,
        *,
        table: str,
        queries: Sequence[str],
        model: Any | None,
        pipeline: str,
        top_k: int | None,
        expander: Any | None,
        id_column: str,
        text_column: str,
    ) -> list[Any] | None:
        """Scatter a keyword-query batch to the shards, or ``None`` locally.

        Query analysis and expansion run on the coordinator (they only need
        the analyzer and the expander).  The whole batch rides one scatter:
        every shard ranks all B queries against the global statistics
        through its vectorized multi-query kernel (shared posting slices),
        so each merged result is bit-identical to the unsharded search.
        """
        from repro.ir.search import SearchResult

        self._require_open()
        executor = self._checkout_executor()
        try:
            if not isinstance(executor, (ShardedExecutor, PoolExecutor)):
                return None
            started = time.perf_counter()
            searcher = self._search_engine(
                table,
                model=model,
                pipeline=pipeline,
                expander=expander,
                id_column=id_column,
                text_column=text_column,
            )
            analyzed = [searcher.query_terms(query) for query in queries]
            specs = [
                SearchSpec(
                    table=table,
                    terms=list(terms),
                    top_k=top_k,
                    pipeline=pipeline,
                    id_column=id_column,
                    text_column=text_column,
                    model=model,
                )
                for _base, _expanded, terms in analyzed
            ]
            was_warm = executor.has_global_statistics(specs[0])
            ranked_lists = executor.search_many(specs)
        finally:
            self._release_executor(executor)
        if ranked_lists is None:
            return None
        elapsed = time.perf_counter() - started
        return [
            SearchResult(
                query=query,
                query_terms=list(base_terms),
                ranked=ranked,
                elapsed_seconds=elapsed,
                statistics_were_cached=was_warm,
                expanded_terms=list(expanded_terms),
            )
            for query, (base_terms, expanded_terms, _terms), ranked in zip(
                queries, analyzed, ranked_lists
            )
        ]

    def search_many(
        self,
        table: str,
        queries: Sequence[str],
        *,
        model: Any | None = None,
        pipeline: str = "direct",
        top_k: int | None = None,
        expander: Any | None = None,
        id_column: str = "docID",
        text_column: str = "data",
    ) -> list[Any]:
        """Run a batch of keyword queries through one vectorized scoring pass.

        On a sharded/pool engine the batch scatters as one multi-query
        request per shard; locally it runs through
        :meth:`KeywordSearchEngine.search_many`.  Either way each result is
        bit-identical to ranking that query alone, and every query still
        gets its own workload-log record.  This is the one search path:
        :meth:`SearchQuery.execute` is a batch of one.
        """
        queries = list(queries)
        if not queries:
            return []
        started = time.perf_counter()
        requests = [
            {"kind": "search", "table": table, "query": query}
            | ({"top_k": top_k} if top_k is not None else {})
            for query in queries
        ]
        try:
            results = self._search_sharded_many(
                table=table,
                queries=queries,
                model=model,
                pipeline=pipeline,
                top_k=top_k,
                expander=expander,
                id_column=id_column,
                text_column=text_column,
            )
            if results is None:
                searcher = self._search_engine(
                    table,
                    model=model,
                    pipeline=pipeline,
                    expander=expander,
                    id_column=id_column,
                    text_column=text_column,
                )
                results = searcher.search_many(queries, top_k=top_k)
        except Exception:
            for query, request in zip(queries, requests):
                self._record_execution(
                    kind="search",
                    fingerprint=f"search::{table}::{query}",
                    started=started,
                    rows_out=None,
                    status="error",
                    request=request,
                )
            raise
        for query, request, result in zip(queries, requests, results):
            self._record_execution(
                kind="search",
                fingerprint=f"search::{table}::{query}",
                started=started,
                rows_out=len(result.ranked),
                request=request,
            )
        return results

    def _value_columns_of(self, name: str) -> list[str]:
        try:
            relation = self.database.table(name)
        except ReproError:
            relation = self.database.query(name)
        return [column for column in relation.schema.names if column != PROBABILITY_COLUMN]

    def _search_engine(
        self,
        table: str,
        *,
        model: Any | None,
        pipeline: str,
        expander: Any | None,
        id_column: str,
        text_column: str,
    ):
        from repro.ir.search import KeywordSearchEngine

        model_key = repr(model.describe()) if model is not None else "default"
        expander_key = id(expander) if expander is not None else None
        key = (table, pipeline, model_key, expander_key, id_column, text_column)
        with self._registry_lock:
            searcher = self._search_engines.get(key)
        if searcher is None:
            searcher = KeywordSearchEngine(
                self.database,
                table,
                model=model,
                pipeline=pipeline,
                language=self.language,
                id_column=id_column,
                text_column=text_column,
                expander=expander,
                registry=self.statistics_registry,
            )
            with self._registry_lock:
                # a concurrent builder may have won the race; keep its searcher
                searcher = self._search_engines.setdefault(key, searcher)
        return searcher


def _short_digest(text: str) -> str:
    """A compact, process-stable digest for workload-log fingerprints."""
    return hashlib.sha1(text.encode("utf-8")).hexdigest()[:16]


def connect(database: Database | None = None, **kwargs: Any) -> Engine:
    """Open an engine session (the EVA-style ``connect()`` entry point)."""
    return Engine(database, **kwargs)
