"""E10 — rank-aware top-k and concurrent batch execution.

The paper's production deployment answers every request with a *ranked page*
— nobody reads 8M ranked lots — and serves peaks of 450 requests/minute.
This benchmark measures the two serving-side mechanisms this reproduction
adds for that shape of load:

* **rank-aware ``top(k)``**: the auction strategy's ranked relation, scaled
  to production-like cardinality, answered through the ``np.argpartition``
  partial-sort kernel versus the full deterministic sort a naive ``top``
  performs;
* **TOP pushdown**: the weighted SUBSUMED mix evaluated with the optimizer's
  pushed-down ``TOP`` (each branch pruned before the union) versus full
  materialisation of the mix followed by sort-and-slice;
* **concurrent ``execute_many``**: one parameterized traversal replayed over
  a batch of seed sets, serial versus a 4-worker thread pool.

The ``>= 2x`` thread-scaling assertion only runs where it is physically
possible: threads need at least 4 usable cores *and* a calibration probe
showing that numpy kernels actually release the GIL on this machine (CI
containers are often pinned to one core, where every thread pool is a
slowdown).  The correctness assertions — identical results, deterministic
ordering — always run.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.bench.harness import measure_latency
from repro.bench.reporting import ResultTable
from repro.pra.assumptions import Assumption
from repro.pra.evaluator import PRAEvaluator
from repro.pra.optimizer import optimize_pra
from repro.pra.plan import PraProject, PraTop, PraUnite, PraValues, PraWeight
from repro.pra.relation import ProbabilisticRelation
from repro.relational.column import Column, DataType
from repro.relational.database import Database
from repro.relational.relation import Relation
from repro.relational.schema import Field, Schema

#: production stand-in cardinality for the ranked-relation kernels
SCALED_ROWS = 200_000
TOP_K = 10
WORKERS = 4


@pytest.fixture(scope="module")
def scaled_auction_ranking(auction_engine, auction_workload_bench):
    """The auction strategy's ranked relation, tiled to production-like size.

    The strategy runs once at bench scale (3000 lots); its ranked result is
    then replicated with distinct node suffixes and deterministically
    jittered probabilities, preserving the real score distribution's shape.
    """
    query = " ".join(auction_workload_bench.lot_descriptions["lot1"].split()[:3])
    run = auction_engine.strategy("auction", query=query).execute()
    nodes = run.result.relation.column(run.result.value_columns[0]).to_list()
    probabilities = run.result.probabilities()

    rng = np.random.default_rng(1729)
    repeats = SCALED_ROWS // len(nodes) + 1
    tiled_nodes = np.array(
        [f"{node}~{copy}" for copy in range(repeats) for node in nodes],
        dtype=object,
    )[:SCALED_ROWS]
    tiled_p = np.tile(probabilities, repeats)[:SCALED_ROWS]
    jitter = rng.uniform(0.5, 1.0, SCALED_ROWS)
    tiled_p = np.clip(tiled_p * jitter, 0.0, 1.0)

    schema = Schema([Field("node", DataType.STRING), Field("p", DataType.FLOAT)])
    relation = Relation(
        schema,
        [Column(tiled_nodes, DataType.STRING), Column(tiled_p, DataType.FLOAT)],
    )
    return ProbabilisticRelation(relation, validate=False)


def test_e10_topk_vs_full_sort(benchmark, scaled_auction_ranking):
    """``top(10)`` on the (scaled) auction ranking vs the full-sort baseline."""
    ranking = scaled_auction_ranking

    def full_sort_baseline():
        return ProbabilisticRelation(
            ranking.sorted_by_probability().relation.head(TOP_K), validate=False
        )

    def rank_aware():
        return ranking.top(TOP_K)

    assert list(rank_aware().rows()) == list(full_sort_baseline().rows())

    baseline = measure_latency(full_sort_baseline, repetitions=3, warmup=1)
    partial = measure_latency(rank_aware, repetitions=3, warmup=1)
    # min is robust against one-sided noise (GC pauses, CPU steal on shared
    # CI runners only ever add time), so the asserted ratio never flakes low
    speedup = baseline.min_ms / partial.min_ms

    table = ResultTable(
        f"E10 — top({TOP_K}) over the auction ranking at {SCALED_ROWS:,} rows",
        ["path", "mean (ms)", "speedup"],
    )
    table.add_row("full deterministic sort + slice", f"{baseline.min_ms:.2f}", "1.0x")
    table.add_row("argpartition top-k kernel", f"{partial.min_ms:.2f}", f"{speedup:.1f}x")
    table.print()

    assert speedup >= 3.0

    benchmark(rank_aware)


def test_e10_top_pushdown_through_mix(benchmark, scaled_auction_ranking):
    """The weighted mix under a pushed-down TOP vs full materialisation."""
    ranking = scaled_auction_ranking

    def branch(weight_factor):
        # PROJECT SUBSUMED merges duplicate lots, making the side provably
        # duplicate-free — the precondition for pushing TOP into the union
        return PraWeight(
            PraProject(
                PraValues(ranking, label="branch"),
                [1],
                Assumption.SUBSUMED,
                output_names=["node"],
            ),
            weight_factor,
        )

    plan = PraTop(PraUnite(branch(0.7), branch(0.3), Assumption.SUBSUMED), TOP_K)
    optimized = optimize_pra(plan)
    # the pushdown must have pruned both branches below their weights
    assert "TOP" in optimized.children()[0].children()[0].describe()

    evaluator = PRAEvaluator(Database())

    def full_materialisation():
        mixed = evaluator.evaluate(plan.child)
        return ProbabilisticRelation(
            mixed.sorted_by_probability().relation.head(TOP_K), validate=False
        )

    def pushed_down():
        return evaluator.evaluate(optimized)

    assert list(pushed_down().rows()) == list(full_materialisation().rows())

    # one warm-up each, then the two sides interleaved so a burst of load
    # from elsewhere on the box slows both alike; the minimum of each side
    # is its uncontended time
    full_materialisation()
    pushed_down()
    naive_ms, pushed_ms = [], []
    for _ in range(7):
        for timings, run in ((naive_ms, full_materialisation), (pushed_ms, pushed_down)):
            started = time.perf_counter()
            run()
            timings.append((time.perf_counter() - started) * 1000.0)
    speedup = min(naive_ms) / min(pushed_ms)

    table = ResultTable(
        f"E10 — TOP pushdown through the weighted mix ({SCALED_ROWS:,} rows/branch)",
        ["path", "min of 7 (ms)", "speedup"],
    )
    table.add_row("materialise mix, sort, slice", f"{min(naive_ms):.1f}", "1.0x")
    table.add_row("TOP pushed into both branches", f"{min(pushed_ms):.1f}", f"{speedup:.1f}x")
    table.print()

    assert speedup >= 3.0

    benchmark(pushed_down)


# ---------------------------------------------------------------------------
# Concurrent batch execution
# ---------------------------------------------------------------------------


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _thread_scaling_probe() -> float:
    """Measured speedup of 4 threads running a GIL-releasing numpy kernel."""
    rng = np.random.default_rng(7)
    arrays = [rng.random(1_000_000) for _ in range(WORKERS)]

    def work(values):
        return np.sort(values)

    started = time.perf_counter()
    for values in arrays:
        work(values)
    serial = time.perf_counter() - started

    with ThreadPoolExecutor(max_workers=WORKERS) as pool:
        started = time.perf_counter()
        list(pool.map(work, arrays))
        parallel = time.perf_counter() - started
    return serial / parallel if parallel > 0 else 0.0


def test_e10_concurrent_execute_many(benchmark, auction_engine, auction_workload_bench):
    """4-worker ``execute_many`` vs serial on a parameterized traversal."""
    lots = auction_workload_bench.lot_ids
    rng = np.random.default_rng(99)
    batches = [
        {"seeds": [lots[index] for index in rng.integers(0, len(lots), 4000)]}
        for _ in range(12)
    ]
    query = auction_engine.spinql(
        "auctions = TRAVERSE ['hasAuction'] (seeds);", seeds=[]
    )
    query.execute(seeds=batches[0]["seeds"])  # warm compile + caches

    serial_started = time.perf_counter()
    serial_results = query.execute_many(batches)
    serial_seconds = time.perf_counter() - serial_started

    concurrent_started = time.perf_counter()
    concurrent_results = query.execute_many(batches, max_workers=WORKERS)
    concurrent_seconds = time.perf_counter() - concurrent_started

    # deterministic ordering: element i of the concurrent run answers batch i
    assert [sorted(map(tuple, result.rows())) for result in concurrent_results] == [
        sorted(map(tuple, result.rows())) for result in serial_results
    ]

    speedup = serial_seconds / concurrent_seconds if concurrent_seconds > 0 else 0.0
    cores = _usable_cores()
    probe = _thread_scaling_probe()

    table = ResultTable(
        f"E10 — execute_many over {len(batches)} parameter batches",
        ["mode", "total (ms)", "throughput (batches/s)"],
    )
    table.add_row("serial", f"{serial_seconds * 1000:.1f}", f"{len(batches) / serial_seconds:.1f}")
    table.add_row(
        f"{WORKERS} workers",
        f"{concurrent_seconds * 1000:.1f}",
        f"{len(batches) / concurrent_seconds:.1f}",
    )
    table.add_row("speedup", f"{speedup:.2f}x", f"(probe {probe:.2f}x on {cores} cores)")
    table.print()

    benchmark(lambda: query.execute_many(batches[:4], max_workers=WORKERS))

    if cores < WORKERS or probe < 2.0:
        pytest.skip(
            f"thread-scaling assertion needs >= {WORKERS} usable cores and a "
            f"GIL-releasing probe >= 2x; got {cores} cores, probe {probe:.2f}x "
            f"(measured execute_many speedup: {speedup:.2f}x)"
        )
    assert speedup >= 2.0
