"""The workload subsystem: logging, replay, result caching.

The ROADMAP's "workload-aware engine" item in three cooperating parts —
each usable on its own, designed to feed each other:

* :mod:`repro.workload.log` — a bounded, lock-guarded ring buffer of
  structured :class:`~repro.workload.log.WorkloadRecord` entries (plan
  fingerprint, parameters, latency, rows in/out, cache hits, executor,
  shard fan-out), with an optional JSONL sink.  Every
  ``Query.execute``/``top`` and every serving-router request appends one;
  ``engine.workload_log``, ``GET /statz`` and ``repro workload`` expose it.
* :mod:`repro.workload.replay` — a replay/load-generation harness: replay
  a recorded log verbatim, or synthesize traffic from it with Zipfian
  skew over the observed request templates, under open- or closed-loop
  arrival.  A fixed seed yields a byte-identical schedule
  (:meth:`~repro.workload.replay.Schedule.schedule_hash`), so load tests
  are reproducible; reports carry throughput and p50/p95/p99.
* :mod:`repro.workload.cache` — the key of the result cache
  (``Engine.result_cache``, a :class:`~repro.relational.cache.VersionedLRU`
  keyed by plan fingerprint and bound parameters, storing on the first
  miss and invalidated by table dependency exactly like the plan cache).
  Cached results are bit-identical to recomputation.

The JSONL record schema is part of the public API surface — see the
stability policy in :mod:`repro`.
"""

from repro.workload.cache import binding_fingerprint
from repro.workload.log import (
    WorkloadLog,
    WorkloadRecord,
    load_records,
    summarize,
    top_fingerprints,
)
from repro.workload.replay import (
    EngineTarget,
    HttpTarget,
    LoadReport,
    RequestSpec,
    RouterTarget,
    Schedule,
    replay_schedule,
    run_schedule,
    synthesize_schedule,
)

__all__ = [
    "EngineTarget",
    "HttpTarget",
    "LoadReport",
    "RequestSpec",
    "RouterTarget",
    "Schedule",
    "WorkloadLog",
    "WorkloadRecord",
    "binding_fingerprint",
    "load_records",
    "replay_schedule",
    "run_schedule",
    "summarize",
    "synthesize_schedule",
    "top_fingerprints",
]
