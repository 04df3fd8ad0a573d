"""Concurrency: thread-safe caches, concurrent batch execution, determinism.

One :class:`~repro.engine.Engine` is hammered from many threads with a mix of
cached (repeated parameterized) and uncached (distinct-source) queries.  The
contract under test:

* every thread observes exactly the same results as serial execution;
* the plan-cache counters stay consistent — every lookup is counted exactly
  once (no lost ``+= 1`` updates), the entry count matches the distinct
  programs compiled, and the LRU order never corrupts;
* ``execute_many``/``top_many`` with ``max_workers`` return results in batch
  order, identical to their serial runs.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.engine import Engine
from repro.strategy.prebuilt import build_auction_strategy

TRIPLES = [
    ("lot1", "type", "lot"),
    ("lot2", "type", "lot"),
    ("lot3", "type", "lot"),
    ("lot1", "hasAuction", "auction1"),
    ("lot2", "hasAuction", "auction2"),
    ("lot3", "hasAuction", "auction1"),
    ("lot1", "material", "oak", 0.9),
    ("lot2", "material", "oak", 0.4),
    ("lot3", "material", "bronze", 0.8),
]

TRAVERSE = "auctions = TRAVERSE ['hasAuction'] (seeds);"

#: distinct sources so cold compiles and warm replays interleave
SOURCES = [
    'a = SELECT [$2="type"] (triples);',
    'b = SELECT [$2="material"] (triples);',
    'c = SELECT [$2="material" and $3="oak"] (triples);',
    'd = PROJECT [$1 AS node] (SELECT [$2="hasAuction"] (triples));',
]

SEED_SETS = [["lot1"], ["lot2"], ["lot3"], ["lot1", "lot2"], ["lot2", "lot3"]]


@pytest.fixture
def engine():
    return Engine.from_triples(TRIPLES)


def _result_key(result):
    return sorted(map(tuple, result.rows()))


class TestPlanCacheStress:
    THREADS = 8
    ITERATIONS = 25

    def _workload(self, engine, worker: int):
        """One thread's query mix; returns comparable result snapshots."""
        snapshots = []
        for iteration in range(self.ITERATIONS):
            source = SOURCES[(worker + iteration) % len(SOURCES)]
            snapshots.append(_result_key(engine.spinql(source).execute()))
            seeds = SEED_SETS[(worker * 3 + iteration) % len(SEED_SETS)]
            snapshots.append(
                _result_key(engine.spinql(TRAVERSE, seeds=seeds).execute(seeds=seeds))
            )
        return snapshots

    def test_hammered_engine_matches_serial_and_keeps_counters(self, engine):
        serial_engine = Engine.from_triples(TRIPLES)
        expected = [
            self._workload(serial_engine, worker) for worker in range(self.THREADS)
        ]

        barrier = threading.Barrier(self.THREADS)
        results: list = [None] * self.THREADS
        errors: list = []

        def run(worker: int):
            try:
                barrier.wait()
                results[worker] = self._workload(engine, worker)
            except Exception as error:  # pragma: no cover - failure reporting
                errors.append(error)

        threads = [
            threading.Thread(target=run, args=(worker,)) for worker in range(self.THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert not errors
        assert results == expected

        stats = engine.plan_cache.statistics
        # one plan-cache lookup per spinql execution: no lost counter updates
        executions = self.THREADS * self.ITERATIONS * 2
        assert stats.lookups == executions
        distinct_programs = len(SOURCES) + 1  # + the parameterized traversal
        # racing threads may each compile a program they both missed, but
        # never more than once per thread, and every miss is counted
        assert distinct_programs <= stats.misses <= distinct_programs * self.THREADS
        assert stats.hits == executions - stats.misses
        assert stats.entries == distinct_programs
        assert len(engine.plan_cache) == distinct_programs

    def test_concurrent_invalidation_keeps_cache_usable(self, engine):
        stop = threading.Event()
        errors: list = []

        def query_loop():
            try:
                while not stop.is_set():
                    engine.spinql(TRAVERSE, seeds=["lot1"]).execute()
            except Exception as error:  # pragma: no cover - failure reporting
                errors.append(error)

        def invalidate_loop():
            try:
                for _ in range(200):
                    engine.plan_cache.invalidate_table("triples")
            except Exception as error:  # pragma: no cover - failure reporting
                errors.append(error)

        workers = [threading.Thread(target=query_loop) for _ in range(3)]
        invalidator = threading.Thread(target=invalidate_loop)
        for thread in workers:
            thread.start()
        invalidator.start()
        invalidator.join()
        stop.set()
        for thread in workers:
            thread.join()

        assert not errors
        stats = engine.plan_cache.statistics
        assert stats.lookups == stats.hits + stats.misses
        assert engine.spinql(TRAVERSE, seeds=["lot1"]).execute().num_rows == 1


class TestResultCacheStress:
    """8 threads mixing execution with result-cache invalidation and clears.

    The result cache may be invalidated or cleared at any moment by a
    concurrent writer; the contract is that every observed result is still
    bit-identical to serial execution (a stale answer is the one failure
    mode a result cache must never have) and that the hit/miss counters
    stay consistent — exactly one lookup per cacheable execution.
    """

    THREADS = 8
    ITERATIONS = 30

    def _mix(self, engine, worker: int):
        snapshots = []
        for iteration in range(self.ITERATIONS):
            step = (worker + iteration) % 4
            if step == 3 and worker % 2 == 0:
                engine.result_cache.invalidate_table("triples")
            elif step == 3:
                engine.clear_caches()
            source = SOURCES[(worker + iteration) % len(SOURCES)]
            result = engine.spinql(source).execute()
            snapshots.append(
                (_result_key(result), [round(p, 12) for p in result.probabilities()])
            )
            seeds = SEED_SETS[(worker * 3 + iteration) % len(SEED_SETS)]
            snapshots.append(
                (_result_key(engine.spinql(TRAVERSE, seeds=seeds).execute(seeds=seeds)), None)
            )
        return snapshots

    def test_mixed_execute_invalidate_clear_is_bit_identical(self, engine):
        serial_engine = Engine.from_triples(TRIPLES, result_cache_size=None)
        expected = [
            self._serial_mix(serial_engine, worker) for worker in range(self.THREADS)
        ]

        barrier = threading.Barrier(self.THREADS)
        results: list = [None] * self.THREADS
        errors: list = []

        def run(worker: int):
            try:
                barrier.wait()
                results[worker] = self._mix(engine, worker)
            except Exception as error:  # pragma: no cover - failure reporting
                errors.append(error)

        threads = [
            threading.Thread(target=run, args=(worker,)) for worker in range(self.THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert not errors
        assert results == expected

        stats = engine.result_cache.statistics
        # one cache lookup per execution, none lost to races
        executions = self.THREADS * self.ITERATIONS * 2
        assert stats.hits + stats.misses == executions
        assert 0 <= stats.entries <= engine.result_cache.max_entries

        # after the stress, invalidation still works: new data, new answer
        engine.load_triples([("lot4", "hasAuction", "auction1")])
        fresh = engine.spinql(TRAVERSE, seeds=["lot4"]).execute()
        assert fresh.value_rows() == [("auction1",)]

    def _serial_mix(self, engine, worker: int):
        """The same query mix as _mix, without the cache churn calls."""
        snapshots = []
        for iteration in range(self.ITERATIONS):
            source = SOURCES[(worker + iteration) % len(SOURCES)]
            result = engine.spinql(source).execute()
            snapshots.append(
                (_result_key(result), [round(p, 12) for p in result.probabilities()])
            )
            seeds = SEED_SETS[(worker * 3 + iteration) % len(SEED_SETS)]
            snapshots.append(
                (_result_key(engine.spinql(TRAVERSE, seeds=seeds).execute(seeds=seeds)), None)
            )
        return snapshots


class TestConcurrentBatches:
    def test_execute_many_concurrent_equals_serial(self, engine):
        query = engine.spinql(TRAVERSE, seeds=[])
        batches = [{"seeds": seeds} for seeds in SEED_SETS * 4]
        serial = query.execute_many(batches)
        concurrent = query.execute_many(batches, max_workers=4)
        assert [_result_key(result) for result in concurrent] == [
            _result_key(result) for result in serial
        ]

    def test_engine_execute_many_delegates(self, engine):
        query = engine.spinql(TRAVERSE, seeds=[])
        batches = [{"seeds": seeds} for seeds in SEED_SETS]
        results = engine.execute_many(query, batches, max_workers=2)
        assert [_result_key(result) for result in results] == [
            _result_key(query.execute(seeds=batch["seeds"])) for batch in batches
        ]

    def test_top_many_concurrent_equals_serial(self, engine):
        query = engine.traverse("hasAuction")
        batches = [{"seeds": seeds} for seeds in SEED_SETS * 2]
        serial = query.top_many(2, batches)
        concurrent = query.top_many(2, batches, max_workers=4)
        assert concurrent == serial
        # deterministic batch ordering: element i always answers batch i
        for pairs, batch in zip(concurrent, batches):
            expected = query.top(2, seeds=batch["seeds"])
            assert pairs == expected

    def test_concurrent_execution_compiles_once(self, engine):
        query = engine.spinql(TRAVERSE, seeds=[])
        stats = engine.plan_cache.statistics
        misses_before = stats.misses
        query.execute_many(
            [{"seeds": seeds} for seeds in SEED_SETS * 3], max_workers=4
        )
        # _prepare() compiled serially before the pool spun up
        assert stats.misses == misses_before + 1


class TestStrategyReuseStress:
    """8 threads run one auction graph while a writer keeps loading lots.

    What the engine keeps between requests (the graph's block memo, the one
    statistics registry of every rank block) is shared by all of them.  A request that
    overlaps a load may see either side of it; the contract under test is
    that nothing of that is *kept*: once the writer is done every answer is
    bit-identical to an engine bulk-built over the final data, and every
    counter accounts for exactly the work that was asked for.
    """

    THREADS = 8
    LOADS = 12
    QUERIES = ["oak table", "bronze statue", "antique clock", "silver spoon"]

    @staticmethod
    def _base():
        triples = [("auction1", "description", "antique furniture and clocks"),
                   ("auction2", "description", "silver bronze and statues")]
        for lot in range(12):
            name = f"lot{lot}"
            triples += [
                (name, "type", "lot"),
                (name, "hasAuction", f"auction{1 + lot % 2}"),
                (name, "description", ["oak table", "bronze statue", "silver spoon"][lot % 3]),
            ]
        return triples

    @staticmethod
    def _batch(index: int):
        name = f"new{index}"
        return [
            (name, "type", "lot"),
            (name, "hasAuction", f"auction{1 + index % 2}"),
            (name, "description", f"antique oak clock number {index}"),
        ]

    def test_nothing_torn_is_kept_and_counters_add_up(self):
        import sys

        engine = Engine.from_triples(self._base())
        graph = build_auction_strategy()  # one graph, shared by every thread
        stop = threading.Event()
        barrier = threading.Barrier(self.THREADS + 1)
        runs = [0] * self.THREADS
        errors: list = []

        def reader(worker: int):
            try:
                barrier.wait(timeout=30)
                while not stop.is_set():
                    query = self.QUERIES[(worker + runs[worker]) % len(self.QUERIES)]
                    engine.strategy(graph, query=query).execute()
                    runs[worker] += 1
            except Exception as error:  # pragma: no cover - failure reporting
                errors.append(error)

        def wait_for_runs(count: int):
            # paced by the readers, so every load lands among running requests
            deadline = time.monotonic() + 60
            while sum(runs) < count and time.monotonic() < deadline and not errors:
                time.sleep(0.001)

        def writer():
            try:
                barrier.wait(timeout=30)
                for index in range(self.LOADS):
                    wait_for_runs(self.THREADS * (index + 1))
                    engine.load_triples(self._batch(index))
                wait_for_runs(sum(runs) + self.THREADS)
            except Exception as error:  # pragma: no cover - failure reporting
                errors.append(error)
            finally:
                stop.set()

        threads = [threading.Thread(target=reader, args=(w,)) for w in range(self.THREADS)]
        threads.append(threading.Thread(target=writer))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
            stop.set()
        assert not any(thread.is_alive() for thread in threads)
        assert not errors

        total_runs = sum(runs)
        assert total_runs >= self.THREADS * (self.LOADS + 1)
        # four store-only blocks per run, each served from the memo or run
        memo = engine.reuse_statistics()["block_memo"]
        assert memo["hits"] + memo["misses"] == 4 * total_runs and memo["graphs"] == 1
        # two rank blocks per run, each one lookup in the engine's registry
        registry = engine.statistics_registry.counters()
        assert registry["hits"] + registry["extends"] + registry["rebuilds"] == 2 * total_runs

        final = self._base() + [t for i in range(self.LOADS) for t in self._batch(i)]
        oracle = Engine.from_triples(final)
        for _ in range(2):  # the second pass is served from the memo
            for query in self.QUERIES:
                served = engine.strategy(graph, query=query).execute()
                expected = oracle.strategy("auction", query=query).execute()
                assert list(served.result.rows()) == list(expected.result.rows())
        assert sorted(served.memoized_blocks) == sorted(
            ["select_lots", "lot_descriptions", "to_auctions", "auction_descriptions"]
        )

    def test_by_name_from_a_cold_engine_the_threads_share_one_graph(self):
        import sys

        engine = Engine.from_triples(self._base())
        barrier = threading.Barrier(self.THREADS)
        graphs: dict[int, object] = {}
        answers: dict[int, list] = {}
        errors: list = []

        def reader(worker: int):
            try:
                barrier.wait(timeout=30)
                rows = []
                for round_ in range(3):
                    query = self.QUERIES[(worker + round_) % len(self.QUERIES)]
                    named = engine.strategy("auction", query=query)
                    graphs.setdefault(worker, named.graph)
                    assert named.graph is graphs[worker]
                    rows.append((query, list(named.execute().result.rows())))
                answers[worker] = rows
            except Exception as error:  # pragma: no cover - failure reporting
                errors.append(error)

        threads = [threading.Thread(target=reader, args=(w,)) for w in range(self.THREADS)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors

        # the first-call race settled on one graph, and one memo for it
        assert len({id(graph) for graph in graphs.values()}) == 1
        assert engine.reuse_statistics()["block_memo"]["graphs"] == 1
        oracle = Engine.from_triples(self._base())
        for rows in answers.values():
            for query, served in rows:
                fresh = oracle.strategy(build_auction_strategy(), query=query).execute()
                assert served == list(fresh.result.rows())
