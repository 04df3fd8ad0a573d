"""Multi-process serving: worker pools and the request router.

This package turns a partitioned snapshot (:mod:`repro.storage.shards`)
into a serving deployment:

* :mod:`repro.serving.codec` — a small length-prefixed binary codec for
  plans and relations, plus the tagged (request-id-prefixed) frames the
  pool pipelines over every router↔worker pipe;
* :mod:`repro.serving.shm` — the shared-memory result path: large reply
  frames travel out-of-band through ``multiprocessing.shared_memory``
  segments, with only a control frame on the pipe (inline fallback when
  the platform lacks shared memory);
* :mod:`repro.serving.worker` — the worker process main loop: memmap the
  assigned shards, answer segment-evaluation / statistics / batched
  search (``search_many``; one query is a batch of one) / fragment
  requests, keeping nothing between requests but the opened shards;
* :mod:`repro.serving.pool` — :class:`WorkerPool`: spawns persistent
  workers, assigns shards, multiplexes pipelined requests (the transport
  behind :class:`~repro.engine.executors.PoolExecutor`, whose scatter puts
  every shard's request on the wire, then collects, from the calling
  thread);
* :mod:`repro.serving.router` — :class:`Router`: owns the engine (sharded
  or pooled) and admission-queues requests;
* :mod:`repro.serving.frontend` — the asyncio HTTP front end
  (``POST /query``, ``GET /healthz``, ``GET /statz``): parse and admit on
  the event loop, execute admitted requests on a small thread pool.

The CLI front end is ``python -m repro serve``.  A served engine keeps the
layout it was opened with: to change the shard count, re-partition the
snapshot offline (``python -m repro shard``) and restart ``serve`` on it.
"""

from repro.serving.config import ServingConfig
from repro.serving.pool import WorkerPool
from repro.serving.router import Router

__all__ = ["Router", "ServingConfig", "WorkerPool"]
