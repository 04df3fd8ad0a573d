"""Serving smoke check: router + workers over a sharded toy snapshot.

Boots the full serving stack — partitioned snapshot, worker pool, router,
asyncio HTTP front end — runs a stream of queries over the socket, and
asserts the answers are identical to in-process execution.  Exits non-zero
on any mismatch, so CI can gate on it.

With ``--replicas 2 --kill-worker`` the check also exercises failover:
one worker is SIGKILLed halfway through the query stream and every
subsequent answer must still come back correct (re-routed to the
surviving replica) with zero client-visible errors.  ``--shm-threshold 0``
sends every worker reply through shared memory; ``--burst`` ends with 32
identical concurrent requests that must each answer bit-identically to
in-process execution.

Usage::

    python scripts/serving_smoke.py [--shards 2] [--workers 2] [--lots 200]
                                    [--shm-threshold BYTES]
                                    [--replicas 2] [--kill-worker]
                                    [--burst]
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import tempfile
import urllib.request
from pathlib import Path


def main() -> int:
    scratch = Path(tempfile.mkdtemp(prefix="repro-serving-smoke-"))
    try:
        return run(scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def run(scratch: Path) -> int:
    """The smoke check, writing its snapshot under ``scratch``."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--shards", type=int, default=2)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--lots", type=int, default=200)
    parser.add_argument(
        "--shm-threshold",
        type=int,
        default=None,
        help="reply bytes at/above which replies use shared memory "
             "(0 sends every reply that way; default: the library's)",
    )
    parser.add_argument(
        "--replicas",
        type=int,
        default=1,
        help="replicas per shard (2+ enables transparent failover)",
    )
    parser.add_argument(
        "--kill-worker",
        action="store_true",
        help="SIGKILL one worker mid-run; requires --replicas >= 2",
    )
    parser.add_argument(
        "--burst",
        action="store_true",
        help="finish with a burst of 32 identical concurrent requests "
             "(asserts bit-identity)",
    )
    args = parser.parse_args()
    if args.kill_worker and args.replicas < 2:
        parser.error("--kill-worker requires --replicas >= 2")

    from repro.engine import Engine
    from repro.relational.column import Column, DataType
    from repro.relational.relation import Relation
    from repro.relational.schema import Field, Schema
    from repro.serving import Router, ServingConfig
    from repro.workloads import generate_auction_triples

    workload = generate_auction_triples(args.lots, seed=37)
    source = Engine.from_triples(workload.triples)
    schema = Schema([Field("docID", DataType.STRING), Field("data", DataType.STRING)])
    source.create_table(
        "docs",
        Relation(
            schema,
            [
                Column(list(workload.lot_descriptions.keys()), DataType.STRING),
                Column(list(workload.lot_descriptions.values()), DataType.STRING),
            ],
        ),
    )
    queries = [
        " ".join(description.split()[:3])
        for description in list(workload.lot_descriptions.values())[:8]
    ]
    source.search("docs", queries[0]).execute()

    snapshot = scratch / "snapshot"
    source.save(snapshot, shards=args.shards)
    print(f"sharded snapshot: {snapshot} ({args.shards} shards)")

    config = ServingConfig(
        workers=args.workers,
        replicas=args.replicas,
        shm_threshold=args.shm_threshold,
        max_concurrent=args.workers,
    )
    engine = Engine.open_sharded(snapshot, executor="pool", config=config)
    router = Router(engine)
    server, _thread = router.start(port=0)
    port = server.server_address[1]
    print(f"router: http://127.0.0.1:{port} {engine.executor_info()}")

    def ask_search(query: str) -> dict:
        request = urllib.request.Request(
            f"http://127.0.0.1:{port}/query",
            data=json.dumps(
                {"kind": "search", "table": "docs", "query": query, "top_k": 5}
            ).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        return json.loads(urllib.request.urlopen(request, timeout=60).read())

    failures = 0
    killed_pid: int | None = None
    try:
        health = json.loads(
            urllib.request.urlopen(f"http://127.0.0.1:{port}/healthz", timeout=30).read()
        )
        assert health["ok"], health

        for index, query in enumerate(queries):
            if args.kill_worker and index == len(queries) // 2 and killed_pid is None:
                victim = engine._plan_executor._pool._processes[0]
                killed_pid = victim.pid
                os.kill(killed_pid, signal.SIGKILL)
                victim.join(timeout=10)
                print(f"killed worker pid={killed_pid}; continuing the query stream")
            reply = ask_search(query)
            expected = [
                [doc_id, score] for doc_id, score in source.search("docs", query).top(5)
            ]
            if not reply.get("ok") or reply["results"] != expected:
                failures += 1
                print(f"MISMATCH for {query!r}:\n  served   {reply}\n  expected {expected}")
            else:
                print(f"ok: {query!r} -> {reply['results'][0]}")

        program = 'out = SELECT [$2="hasAuction"] (triples);'
        request = urllib.request.Request(
            f"http://127.0.0.1:{port}/query",
            data=json.dumps({"kind": "spinql", "source": program, "top_k": 5}).encode(),
            headers={"Content-Type": "application/json"},
        )
        reply = json.loads(urllib.request.urlopen(request, timeout=60).read())
        expected = [[item, p] for item, p in source.spinql(program).top(5)]
        if not reply.get("ok") or reply["results"] != expected:
            failures += 1
            print(f"MISMATCH for spinql:\n  served   {reply}\n  expected {expected}")
        else:
            print(f"ok: spinql top-5 -> {reply['results'][0]}")

        stats = router.statistics()
        print(f"router statistics: {stats}")
        assert stats["served"] == len(queries) + 1

        if args.burst:
            from concurrent.futures import ThreadPoolExecutor

            burst_query = queries[0]
            expected = [
                [doc_id, score]
                for doc_id, score in source.search("docs", burst_query).top(5)
            ]
            with ThreadPoolExecutor(max_workers=16) as burst:
                replies = list(burst.map(ask_search, [burst_query] * 32))
            for reply in replies:
                if not reply.get("ok") or reply["results"] != expected:
                    failures += 1
                    print(f"MISMATCH in burst:\n  served   {reply}\n  expected {expected}")
            stats = router.statistics()
            print(f"burst of 32 identical requests: served={stats['served']}")
            assert stats["served"] == len(queries) + 1 + len(replies)

        if killed_pid is not None:
            health = json.loads(
                urllib.request.urlopen(
                    f"http://127.0.0.1:{port}/healthz", timeout=30
                ).read()
            )
            replication = health["executor"].get("replication", {})
            print(
                f"after kill: degraded={health.get('degraded')} "
                f"restarts={replication.get('restarts')}"
            )
    finally:
        server.shutdown()
        server.server_close()
        router.close()

    if failures:
        print(f"FAILED: {failures} mismatches")
        return 1
    if killed_pid is not None:
        print(
            "serving smoke passed: zero client-visible errors with one worker "
            "SIGKILLed mid-run (failover re-routed to the surviving replica)"
        )
    else:
        print("serving smoke passed: socket answers identical to in-process execution")
    return 0


if __name__ == "__main__":
    sys.exit(main())
