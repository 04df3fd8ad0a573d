"""E12 — scatter-gather top-k over an N-shard snapshot, and pool throughput.

The partition-aware engine's two acceptance claims:

* **Pushdown**: a rank-aware ``TOP k`` (and a top-k keyword search) over a
  sharded snapshot ships *at most k candidates per shard* to the gather —
  asserted from the executor's scatter report — while staying bit-identical
  to the unsharded engine;
* **Scaling**: with persistent worker processes
  (:class:`~repro.engine.executors.PoolExecutor`), concurrent query
  throughput scales over the single-process engine.  Like E10's thread
  assertion, the scaling assertion is gated on actually having cores: on a
  1-core CI container the measurement still runs and is reported, but the
  assertion is skipped.

Results land in ``BENCH_E12.json`` through the shared artifact writer
(under ``$BENCH_ARTIFACT_DIR``, default ``bench-artifacts/``).
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

import artifacts
from repro.bench.reporting import ResultTable
from repro.engine import Engine
from repro.relational.column import Column, DataType
from repro.relational.relation import Relation
from repro.relational.schema import Field, Schema
from repro.workloads import generate_auction_triples
from tests.leaks import no_leaked_resources  # noqa: F401  (autouse fixture)

LOTS = 800
SHARDS = 4
SEED = 37
TOP_K = 10
STREAM = 24  # queries per throughput run


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


@pytest.fixture(scope="module")
def sharded_setup(tmp_path_factory):
    workload = generate_auction_triples(LOTS, seed=SEED)
    engine = Engine.from_triples(workload.triples)
    schema = Schema([Field("docID", DataType.STRING), Field("data", DataType.STRING)])
    engine.create_table(
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
        for description in list(workload.lot_descriptions.values())[:STREAM]
    ]
    engine.search("docs", queries[0]).execute()  # warm stats → split into shards
    path = engine.save(tmp_path_factory.mktemp("e12") / "snapshot", shards=SHARDS)
    yield engine, path, queries
    engine.close()


def test_e12_scatter_gather_topk_candidates(benchmark, sharded_setup):
    """Per-shard candidate counts never exceed k; results stay bit-identical."""
    engine, path, queries = sharded_setup
    opened = Engine.open_sharded(path)
    try:
        program = 'out = SELECT [$2="hasAuction"] (triples);'
        expected_plan = engine.spinql(program).top(TOP_K)
        assert opened.spinql(program).top(TOP_K) == expected_plan
        plan_scatter = dict(opened._plan_executor.last_scatter)
        for counts in plan_scatter["per_shard_rows"]:
            assert all(count <= TOP_K for count in counts)

        expected_search = engine.search("docs", queries[0]).top(TOP_K)
        assert opened.search("docs", queries[0]).top(TOP_K) == expected_search
        search_scatter = dict(opened._plan_executor.last_scatter)
        assert all(count <= TOP_K for count in search_scatter["per_shard_candidates"])

        table = ResultTable(
            f"E12 — per-shard candidates for TOP {TOP_K} over {SHARDS} shards",
            ["query", "per-shard candidates", "total shipped", "bound"],
        )
        plan_counts = plan_scatter["per_shard_rows"][0]
        table.add_row("spinql TOP", str(plan_counts), sum(plan_counts), TOP_K * SHARDS)
        counts = search_scatter["per_shard_candidates"]
        table.add_row("search top-k", str(counts), sum(counts), TOP_K * SHARDS)
        table.print()

        artifacts.write_metrics(
            "E12",
            {
                "shards": SHARDS,
                "top_k": TOP_K,
                "plan_per_shard_candidates": plan_counts,
                "search_per_shard_candidates": counts,
                "bit_identical": True,
            },
        )
        benchmark(lambda: opened.spinql(program).top(TOP_K))
    finally:
        opened.close()


def _throughput(engine: Engine, queries, *, concurrency: int) -> tuple[float, list[float]]:
    """(queries/second, per-query latencies in ms) for a top-k search stream."""
    def one(query: str) -> float:
        begun = time.perf_counter()
        engine.search("docs", query).top(TOP_K)
        return (time.perf_counter() - begun) * 1000.0

    started = time.perf_counter()
    if concurrency <= 1:
        latencies = [one(query) for query in queries]
    else:
        with ThreadPoolExecutor(max_workers=concurrency) as clients:
            latencies = list(clients.map(one, queries))
    return len(queries) / (time.perf_counter() - started), latencies


def _search_many_throughput(engine: Engine, queries) -> tuple[float, list[float]]:
    """(queries/second, amortized per-query latencies) via ``search_many``."""
    started = time.perf_counter()
    engine.search_many("docs", queries, top_k=TOP_K)
    elapsed = time.perf_counter() - started
    per_query_ms = elapsed * 1000.0 / len(queries)
    return len(queries) / elapsed, [per_query_ms] * len(queries)


def test_e12_pool_throughput_scaling(benchmark, sharded_setup):
    """Worker-pool throughput vs the single-process engine (core-gated)."""
    engine, path, queries = sharded_setup
    pooled = Engine.open_sharded(path, executor="pool")
    try:
        # warm both paths (statistics merge, worker spin-up)
        engine.search("docs", queries[0]).top(TOP_K)
        pooled.search("docs", queries[0]).top(TOP_K)
        # bit-identity of the pooled single-query and vectorized multi-query
        # paths against the in-process engine
        expected = engine.search("docs", queries[1]).top(TOP_K)
        assert pooled.search("docs", queries[1]).top(TOP_K) == expected
        many = pooled.search_many("docs", queries, top_k=TOP_K)
        for query, result in zip(queries, many):
            assert result.top(TOP_K) == engine.search("docs", query).top(TOP_K)

        single, single_lat = _throughput(engine, queries, concurrency=1)
        pool_serial, pool_serial_lat = _throughput(pooled, queries, concurrency=1)
        pool_concurrent, pool_concurrent_lat = _throughput(
            pooled, queries, concurrency=SHARDS
        )
        pool_many, pool_many_lat = _search_many_throughput(pooled, queries)
        cores = _usable_cores()

        table = ResultTable(
            f"E12 — search throughput, {SHARDS}-shard pool vs single process "
            f"({cores} cores)",
            ["mode", "queries/s", "p50 ms", "p95 ms", "p99 ms", "vs single"],
        )
        for label, qps, latencies in (
            ("single process", single, single_lat),
            ("pool, 1 client", pool_serial, pool_serial_lat),
            (f"pool, {SHARDS} clients", pool_concurrent, pool_concurrent_lat),
            ("pool, search_many", pool_many, pool_many_lat),
        ):
            summary = artifacts.latency_summary(latencies)
            table.add_row(
                label,
                f"{qps:.1f}",
                f"{summary['p50_ms']:.2f}",
                f"{summary['p95_ms']:.2f}",
                f"{summary['p99_ms']:.2f}",
                qps / single,
            )
        table.print()

        best_pool = max(pool_serial, pool_concurrent, pool_many)
        artifacts.write_metrics(
            "E12",
            {
                "cores": cores,
                "shm_threshold": pooled.executor_info().get("shm_threshold"),
                "single_process_qps": round(single, 2),
                "pool_serial_qps": round(pool_serial, 2),
                "pool_concurrent_qps": round(pool_concurrent, 2),
                "pool_search_many_qps": round(pool_many, 2),
                # the IPC-gap headline: best pool mode over the in-process
                # engine (1.0 would mean the pool costs nothing)
                "pool_vs_single_ratio": round(best_pool / single, 4),
                "single_process_latency": artifacts.latency_summary(single_lat),
                "pool_serial_latency": artifacts.latency_summary(pool_serial_lat),
                "pool_concurrent_latency": artifacts.latency_summary(pool_concurrent_lat),
                "pool_search_many_latency": artifacts.latency_summary(pool_many_lat),
            },
        )
        benchmark(lambda: pooled.search("docs", queries[0]).top(TOP_K))

        if cores < SHARDS:
            pytest.skip(
                f"pool-scaling assertion needs >= {SHARDS} usable cores, got {cores} "
                f"(measured: single {single:.1f} q/s, pool {pool_concurrent:.1f} q/s)"
            )
        assert pool_concurrent > single
    finally:
        pooled.close()
