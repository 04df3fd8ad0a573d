"""The shard worker process: memmap assigned shards, answer pool requests.

``worker_main`` is the entry point the :class:`~repro.serving.pool.WorkerPool`
spawns.  Each worker owns a disjoint set of shards of one partitioned
snapshot; per shard it opens a standalone engine (``Engine.open_shard`` —
memmap-backed, so N workers on one host share the OS page cache) wrapped in
the same :class:`~repro.engine.executors.InProcessShard` backend the
in-process sharded executor uses.  The request loop speaks the *tagged*
frames of :mod:`repro.serving.codec` over a ``multiprocessing`` connection:
each request carries an 8-byte id the reply echoes, so the pool can keep
many requests in flight per worker, and replies at or above the
shared-memory threshold travel out-of-band (:mod:`repro.serving.shm`) with
only a control frame on the pipe.

=========== =================================================================
op          behaviour
=========== =================================================================
ping        liveness check; returns the worker's pid and shard set
segment     evaluate a row-local plan segment against one shard's fragment
stats       the shard's collection-statistics summary (df/cf/doc-count)
search_many rank a query batch (a single search is a batch of one) against
            the global df/cf the request carries for its terms, in one
            vectorized pass; ids/scores/rows per query
fragment    one shard's fragment of a table, plus its original row indices
store       one shard's slice of the triple list, plus original indices
close       drain and exit cleanly
=========== =================================================================

A worker keeps nothing between requests beyond its opened shards: every
``search_many`` brings the global statistics of its own terms, so a freshly
(re)started worker answers the first search it gets.

Failures never kill the loop: any exception is reported back as an
``{"ok": False, "error": ...}`` reply and the worker keeps serving — only a
closed pipe (the router went away) or ``close`` ends the process.
"""

from __future__ import annotations

import os
import traceback
from typing import Any

from repro.serving.codec import encode_tagged, resolve_tagged, split_tagged


def _open_backend(snapshot_path: str, shard: int, mmap: bool):
    from repro.engine import Engine
    from repro.engine.executors import InProcessShard
    from repro.storage.shards import read_shard_map, shard_rowids

    shard_map = read_shard_map(snapshot_path)
    return InProcessShard(
        Engine.open(shard_map.shard_directory(shard), mmap=mmap),
        shard_rowids(shard_map, shard),
    )


def worker_main(
    snapshot_path: str,
    shards: list[int],
    connection: Any,
    *,
    mmap: bool = True,
    shm_threshold: int | None = None,
) -> None:
    """Serve shard requests until the connection closes or ``close`` arrives."""
    from repro.ir.statistics import GlobalStatistics
    from repro.serving.shm import ShmTransport

    backends: dict[int, Any] = {}
    reply_transport = ShmTransport(shm_threshold)

    def backend(shard: int):
        if shard not in shards:
            raise ValueError(f"shard {shard} is not assigned to this worker ({shards})")
        opened = backends.get(shard)
        if opened is None:
            opened = _open_backend(snapshot_path, shard, mmap)
            backends[shard] = opened
        return opened

    def handle(message: dict[str, Any]) -> dict[str, Any]:
        op = message["op"]
        if op == "ping":
            return {"ok": True, "value": {"pid": os.getpid(), "shards": list(shards)}}
        if op == "segment":
            result = backend(message["shard"]).evaluate_segment(
                message["plan"], message["table"]
            )
            return {"ok": True, "value": result}  # the codec packs the relation
        if op == "stats":
            summary = backend(message["shard"]).statistics_summary(message["spec"])
            return {"ok": True, "value": summary.to_payload()}
        if op == "search_many":
            ranked = backend(message["shard"]).search_shard_many(
                message["specs"], GlobalStatistics.from_payload(message["global"])
            )
            return {
                "ok": True,
                "value": [
                    {"doc_ids": doc_ids, "scores": scores, "rows": rows}
                    for doc_ids, scores, rows in ranked
                ],
            }
        if op == "fragment":
            relation, rows = backend(message["shard"]).fragment(message["table"])
            return {"ok": True, "value": {"relation": relation, "rows": rows}}
        if op == "store":
            triples, rows = backend(message["shard"]).triples_fragment()
            return {"ok": True, "value": {"triples": triples, "rows": rows}}
        raise ValueError(f"unknown worker op {op!r}")

    def safe_handle(message: dict[str, Any]) -> dict[str, Any]:
        try:
            return handle(message)
        except BaseException as error:  # noqa: BLE001 - reported to the router
            return {
                "ok": False,
                "error": f"{type(error).__name__}: {error}",
                "traceback": traceback.format_exc(),
            }

    try:
        while True:
            try:
                data = connection.recv_bytes()
            except (EOFError, OSError):
                break
            request_id, kind, body = split_tagged(data)
            message = resolve_tagged(kind, body)
            closing = message.get("op") == "close"
            reply = {"ok": True, "value": None} if closing else safe_handle(message)
            try:
                connection.send_bytes(
                    encode_tagged(request_id, reply, transport=reply_transport)
                )
            except (BrokenPipeError, OSError):
                break
            if closing:
                break
    finally:
        for opened in backends.values():
            try:
                opened.close()
            except Exception:  # noqa: BLE001 - best-effort shutdown
                pass
        try:
            connection.close()
        except OSError:
            pass
