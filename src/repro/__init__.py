"""repro: Industrial-strength Information Retrieval on Databases.

A from-scratch Python reproduction of the platform described in

    Cornacchia, Hildebrand, de Vries, Dorssers.
    "Challenges for industrial-strength Information Retrieval on Databases."
    EDBT/ICDT 2017 workshops.

Quickstart — one engine, every front end::

    from repro import connect

    engine = connect().load_triples(
        [
            ("product1", "category", "toy"),
            ("product1", "description", "wooden train set for children"),
            ("product2", "category", "toy"),
            ("product2", "description", "plastic toy car with remote control"),
        ]
    )
    for node, p in engine.strategy("toy", query="wooden train").top(5):
        print(node, p)

The package is organised along the paper's sections:

* :mod:`repro.engine` — **the public API**: the :class:`Engine` facade and
  lazy :class:`~repro.engine.query.Query` objects over every front end;
* :mod:`repro.relational` — the columnar relational engine (the MonetDB
  stand-in);
* :mod:`repro.text` — tokenizer and stemmers (the paper's two UDFs);
* :mod:`repro.ir` — keyword search as relational queries (Section 2.1);
* :mod:`repro.triples` — the flexible triple data model and partitioning
  strategies (Section 2.2);
* :mod:`repro.pra` — the probabilistic relational algebra with tuple-level
  uncertainty (Section 2.3);
* :mod:`repro.spinql` — the SpinQL query language and its SQL translation
  (Section 2.3);
* :mod:`repro.strategy` — block-based search strategies (Section 2.4), with
  the toy (Figure 2) and auction (Figure 3) strategies pre-built;
* :mod:`repro.analysis` — static analysis, new in 1.4: a plan verifier
  (schema/type/assumption inference with typed diagnostics, surfaced as
  ``Query.check()`` / ``Engine.analyze()`` / the ``check`` CLI subcommand
  and a serving pre-dispatch gate), the duplicate-freeness lattice, the
  shard-safety classification the executors consume, and the repo-invariant
  lint engine behind ``scripts/repro_lint.py``;
* :mod:`repro.storage` — persistent columnar snapshots: versioned,
  memmap-backed serialization of the whole engine state
  (``Engine.save``/``Engine.open``), new in 1.2; partitioned (sharded)
  snapshots (``Engine.save(path, shards=N)``) new in 1.3;
* :mod:`repro.serving` — multi-process serving, new in 1.3: worker pools
  over sharded snapshots, scatter-gather executors, and an
  admission-controlled HTTP router (``python -m repro serve``); 1.7 adds
  shard replicas with transparent failover, a self-healing worker
  supervisor, and the unified :class:`~repro.serving.ServingConfig`; 1.8
  adds vectorized multi-query search (``search_many``), result-invisible
  by construction.  A served engine keeps the layout it was opened with;
  re-partitioning is offline (``python -m repro shard``);
* :mod:`repro.workload` — workload awareness, new in 1.5: a bounded query
  log with a JSONL sink (``Engine.workload_log``, ``GET /statz``), a
  deterministic replay/load generator (verbatim or Zipf-synthesized,
  closed- or open-loop), and a result cache (``Engine.result_cache``)
  whose answers are bit-identical to recomputation by construction;
* :mod:`repro.workloads` — synthetic data generators standing in for the
  paper's proprietary collections;
* :mod:`repro.bench` — the benchmark harness.

Deprecation and stability policy
--------------------------------

:class:`Engine` / :func:`connect` are the supported entry points from
version 1.1 on.  The hand-wired layer entry points re-exported below
(``Database``, ``TripleStore``, ``KeywordSearchEngine``,
``StrategyExecutor``, …) remain importable and functional — they are what
the facade itself is built from — but new cross-layer features (batching,
caching, routing) land on the facade only.  Shims are kept for at least two
minor versions after an entry point is superseded, and removals are
announced in ``CHANGES.md``.

The storage API (``save``/``open`` on :class:`Engine`,
:class:`~repro.relational.database.Database`,
:class:`~repro.triples.triple_store.TripleStore` and
:class:`~repro.ir.statistics.CollectionStatistics`, plus the functions in
:mod:`repro.storage`) is **stable** from 1.2: the Python signatures follow
the deprecation policy above.  3.0 removes the snapshot path of
:class:`~repro.ir.inverted_index.InvertedIndex` (see ``CHANGES.md``) and
stores :class:`~repro.ir.statistics.CollectionStatistics` postings as the
packed arrays its snapshots already held.  The *on-disk format* is versioned
separately via ``repro.storage.FORMAT_VERSION``; snapshots are only
guaranteed readable by the library version that wrote them, and a mismatch
raises :class:`~repro.errors.SnapshotVersionError` with a "rebuild or
upgrade" message rather than guessing at layouts.  Treat snapshots as a
fast boot medium, not an archival format — the CSV/text sources stay
canonical.

Version 1.3 bumps ``FORMAT_VERSION`` to 2 for the partitioned layout
(shard maps, per-shard row-index relations, statistics split by document
partition).  Version-1 snapshots are refused with the "rebuild or upgrade"
message — re-save them from source data (``Engine.save``) or read them
with a 1.2 library; there is no in-place migration, by policy: snapshots
are cheap to rebuild and silent partial upgrades are not.

The diagnostics API (:func:`repro.analysis.verify_plan`,
:class:`~repro.analysis.AnalysisReport`,
:class:`~repro.analysis.Diagnostic`, ``Query.check()``,
``Engine.analyze()``) is **stable** from 1.4 under the same policy.
Diagnostic *codes* and the report/dict shapes are append-only: codes are
never renamed or removed, an error never silently becomes a warning, and
new codes may appear in any minor release.  The human-readable message
*text* is not part of the stable surface — match on ``Diagnostic.code``
and ``severity``, not on message strings.  The lint rule names
(``RL001``–``RL007``) follow the same append-only rule.

The workload-record schema (:class:`repro.workload.WorkloadRecord` and the
JSONL lines ``WorkloadLog.export`` writes) is **stable** from 1.5 and
versioned in-band: every line carries a ``v`` field, fields are
append-only, and readers (``load_records``) ignore fields they do not
know, so logs written by newer minors stay replayable by older ones.
Record ``kind`` values (``plan``/``search``/``strategy``/``serve``, plus
``event`` for serving lifecycle records from 1.7) and fingerprint prefixes
follow the same append-only rule.  Latencies and schedule hashes are
derived from monotonic clocks and canonical JSON only — never from
wall-clock time — so exported logs and ``Schedule.schedule_hash()`` values
are comparable across hosts and runs.

Version 1.7 unifies serving configuration under one frozen dataclass,
:class:`repro.serving.ServingConfig`: every serving entry point
(:class:`~repro.serving.WorkerPool`, ``Engine.open_sharded``,
:class:`~repro.serving.Router`, the ``serve`` CLI) accepts
``config=ServingConfig(...)``.  The 1.7 shim for the superseded per-call
keyword arguments (``workers=``, ``mmap=``, ``transport=``,
``shm_threshold=``, ``max_concurrent=``, ``max_queue=``) was removed in
2.0 as announced: pass ``config=ServingConfig(...)``.

Version 1.8 adds vectorized multi-query search and in-flight request
collapsing, both **result-invisible by contract**: batched execution is
bit-identical to request-at-a-time execution, and collapsing returns the
leader's exact reply — behavior differences are bugs, not configuration
surprises.  A single search request *is* a batch of one: every layer,
from ``SearchQuery.execute`` to the worker, runs the ``search_many`` path.  The workload-record
schema moves to ``v`` = 2 by appending one field (``collapsed``:
``"leader"``/``"follower"``/absent), which v1 readers ignore per the
append-only rule above.

Version 2.0 removes serving and optimizer options no default deployment
used: opt-in write-coalescing of wire frames (with its batch frame
kind), the reply-transport name (``shm_threshold`` is the one
reply-transport setting), and the cost model's two decision thresholds
(the optimizer always pushes ``TOP`` and partitioned tables always
scatter).  ``CHANGES.md`` names every removed field, flag and keyword.

The three caches share one class,
:class:`~repro.relational.cache.VersionedLRU`, and are reached as
``Engine.plan_cache``, ``Engine.result_cache`` and ``Database.cache``;
their former per-cache classes were internals and are gone without
aliases (``CHANGES.md`` lists them).

Version 4.0 keeps one statistics path and one plan rewriter.  Every search
ranks against :func:`~repro.ir.statistics.build_statistics`; the Section 2.1
view chain, :class:`~repro.ir.statistics.RelationalStatisticsBuilder`, stays
public and is tested array-identical to it.  Removed without a shim: the
``pipeline=`` keyword of ``Engine.search``, ``Engine.search_many``,
:class:`~repro.engine.query.SearchQuery` and :class:`KeywordSearchEngine`,
with ``KeywordSearchEngine.pipeline``, its ``statistics_prefix=`` keyword,
the ``"pipeline"`` key of its ``describe()`` and ``SearchSpec.pipeline``;
the module ``repro.relational.optimizer`` (``optimize``), with the
``optimize_plans=`` keyword and attribute of :class:`Database` — plan
rewriting lives in :mod:`repro.pra.optimizer`; the
``CollectionStatistics`` methods ``doc_len_relation``,
``termdict_relation``, ``tf_relation`` and ``idf_relation``, and
``repro.ir.statistics.statistics_from_relation``.  Engine snapshots no
longer write a ``pipeline`` field; a 3.x snapshot's relational statistics
entry is skipped on open and rebuilt on first search.  A property partition
whose name is not made of letters, digits and ``_`` gets a new, one-to-one
table name, so a 3.x property-partitioned snapshot holding one is rebuilt
from source data.

Version 5.0 keeps only the serving mechanisms the traffic uses.  The router
no longer collapses identical in-flight requests: every admitted request
takes an execution slot, dispatches and logs one ``serve`` record.  Removed
without a shim: ``ServingConfig.collapse_requests``, the ``serve`` flag
``--no-collapse``, and the ``collapse_hits``/``collapse_leaders`` router
counters.  ``Engine.result_cache`` is a plain
:class:`~repro.relational.cache.VersionedLRU` that stores a result on its
first miss; ``repro.workload.ResultCache`` (with ``admission_threshold``
and the ``admitted``/``bypassed`` counters) is gone.  The workload-record
field ``collapsed`` stays in the schema, append-only, and is never set.

Version 6.0 serves a sharded engine on the layout it was opened with: its
executor is set by ``Engine.open_sharded`` and closed by ``Engine.close``,
and requests read it without a lease.  To change the shard count,
re-partition offline (``Engine.save(path, shards=N)`` or ``python -m repro
shard``) and open or serve the new snapshot.  Removed without a shim: the
online re-sharding API (its CLI subcommand, the engine's re-sharding,
executor-swap and layout-manager methods, and the module that held the
layout manager, with its two ``repro.serving`` exports), and the shard
map's layout version counter, with its key in ``executor_info()``, in
``/statz``'s ``executor`` entry and in a worker's ping reply.
``CHANGES.md`` names every removed name.

Version 7.0 evaluates a strategy request as one plan, its result block's,
through the path of every engine plan; only that block and the blocks above
it run, and a request logs one record with a ``plan::`` fingerprint.  The
lowering's per-block evaluation fields and its ``plan()``/``tables()``
methods are gone (``CHANGES.md`` names them).

Version 8.0 removes the per-operator cost model, which estimated plans and
steered none.  Removed without a shim: the workload package's ``cost``
module with its model and estimate classes, the ``cost_model=`` keyword and
attribute of :class:`Engine` with its estimating and calibrating methods,
the "Cost estimate" section of ``explain``, and the ``cost`` key of
``explain_data()`` and of ``repro explain --json`` (``CHANGES.md`` names
every removed name).  The workload-record field ``cost_units`` stays in the
schema, append-only, and is always ``{}``.
"""

from repro.errors import EngineError, ReproError
from repro.engine import (
    Engine,
    Query,
    SearchQuery,
    SpinQLQuery,
    StrategyQuery,
    TableQuery,
    connect,
)
from repro.relational import Database, Relation
from repro.pra import ProbabilisticRelation
from repro.triples import TripleStore
from repro.ir import KeywordSearchEngine
from repro.strategy import (
    StrategyExecutor,
    StrategyGraph,
    build_auction_strategy,
    build_toy_strategy,
)

__version__ = "8.0.0"

__all__ = [
    # the public facade
    "Engine",
    "EngineError",
    "Query",
    "SearchQuery",
    "SpinQLQuery",
    "StrategyQuery",
    "TableQuery",
    "connect",
    # layer entry points (supported; see the deprecation policy above)
    "Database",
    "KeywordSearchEngine",
    "ProbabilisticRelation",
    "Relation",
    "ReproError",
    "StrategyExecutor",
    "StrategyGraph",
    "TripleStore",
    "build_auction_strategy",
    "build_toy_strategy",
    "__version__",
]
