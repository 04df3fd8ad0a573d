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
* :mod:`repro.analysis` — static analysis: the plan verifier behind
  ``Query.check()``, the duplicate-freeness lattice, the shard-safety
  classification the executors consume, and the repo-invariant lint engine
  behind ``scripts/repro_lint.py``;
* :mod:`repro.storage` — persistent columnar snapshots (plain and sharded)
  of the whole engine state, behind ``Engine.save``/``Engine.open``;
* :mod:`repro.serving` — multi-process serving: replicated worker pools
  over sharded snapshots and an admission-controlled HTTP router
  (``python -m repro serve``);
* :mod:`repro.workload` — the query log, its replay/load generator and the
  result cache;
* :mod:`repro.workloads` — synthetic data generators standing in for the
  paper's proprietary collections;
* :mod:`repro.bench` — the benchmark harness.

Public API and stability policy
-------------------------------

The supported API is the :class:`Engine` / :func:`connect` facade, the
lazy query classes it returns, and the snapshot functions of
:mod:`repro.storage`; ``repro`` exports nothing else but the two error
classes and ``__version__``.  The layer classes the facade is built from
(``Database``, ``TripleStore``, ``KeywordSearchEngine``,
``StrategyExecutor``, …) stay importable from their own packages, without
a stability promise.  Removals happen only in a major version, and
``CHANGES.md`` names every removed name.  Snapshots carry
``repro.storage.FORMAT_VERSION`` and are readable only by a library that
writes the same version (a mismatch raises
:class:`~repro.errors.SnapshotVersionError` telling you to rebuild); the
source data stays canonical.  Diagnostic codes, lint rule names and the
workload-record fields (every JSONL line carries its schema version ``v``)
are append-only.
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

__version__ = "9.0.0"

__all__ = [
    "Engine",
    "EngineError",
    "Query",
    "ReproError",
    "SearchQuery",
    "SpinQLQuery",
    "StrategyQuery",
    "TableQuery",
    "connect",
    "__version__",
]
