"""Replicated serving: replica routing, failover, and self-healing."""

from __future__ import annotations

import os
import signal
import time

import pytest

from repro.engine import Engine
from repro.errors import EngineError
from repro.relational.column import Column, DataType
from repro.relational.relation import Relation
from repro.relational.schema import Field, Schema
from repro.serving import Router, ServingConfig, WorkerPool
from repro.storage.shards import read_shard_map
from repro.workloads import generate_auction_triples

PROGRAM = 'out = SELECT [$2="hasAuction"] (triples);'

#: failover tests must not race the supervisor's restarts
NO_HEAL = ServingConfig(replicas=2, restart_workers=False)


@pytest.fixture(scope="module")
def source_and_snapshot(tmp_path_factory):
    workload = generate_auction_triples(100, seed=43)
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
    query = " ".join(workload.lot_descriptions["lot1"].split()[:3])
    engine.search("docs", query).execute()
    path = engine.save(tmp_path_factory.mktemp("replication") / "snap", shards=2)
    yield engine, path, query
    engine.close()


def wait_until(predicate, timeout=30.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


class TestReplicaTopology:
    def test_replicas_multiply_workers(self, source_and_snapshot):
        _engine, path, _query = source_and_snapshot
        with WorkerPool(read_shard_map(path), NO_HEAL) as pool:
            assert pool.base_workers == 2 and pool.num_workers == 4
            # each shard is served by one slot per replica rank
            assert pool.replica_slots(0) == [0, 2]
            assert pool.replica_slots(1) == [1, 3]
            # every worker reports its shard set
            pings = pool.ping()
            assert [entry["shards"] for entry in pings] == [[0], [1], [0], [1]]
            assert {entry["replica"] for entry in pool.liveness()} == {0, 1}

    def test_executor_info_reports_replicas(self, source_and_snapshot):
        _engine, path, _query = source_and_snapshot
        opened = Engine.open_sharded(path, executor="pool", config=NO_HEAL)
        try:
            info = opened.executor_info()
            assert info["replicas"] == 2 and info["workers"] == 4
        finally:
            opened.close()

    def test_replicated_results_are_bit_identical(self, source_and_snapshot):
        engine, path, query = source_and_snapshot
        opened = Engine.open_sharded(path, executor="pool", config=NO_HEAL)
        try:
            assert opened.spinql(PROGRAM).top(8) == engine.spinql(PROGRAM).top(8)
            assert opened.search("docs", query).top(8) == engine.search("docs", query).top(8)
        finally:
            opened.close()


class TestFailover:
    def test_sigkill_of_one_worker_is_invisible(self, source_and_snapshot):
        engine, path, query = source_and_snapshot
        opened = Engine.open_sharded(path, executor="pool", config=NO_HEAL)
        try:
            expected_spinql = engine.spinql(PROGRAM).top(8)
            expected_search = engine.search("docs", query).top(8)
            assert opened.spinql(PROGRAM).top(8) == expected_spinql
            pool = opened._plan_executor._pool
            # kill one replica of every shard: slots 0 and 1 (replica rank 0)
            for slot in (0, 1):
                victim = pool._processes[slot]
                os.kill(victim.pid, signal.SIGKILL)
                victim.join(timeout=10)
            for _ in range(3):
                assert opened.spinql(PROGRAM).top(8) == expected_spinql
                assert opened.search("docs", query).top(8) == expected_search
            assert pool.degraded
        finally:
            opened.close()

    def test_worker_dead_before_first_request(self, source_and_snapshot):
        """Regression: death between spawn and first reply == mid-request death."""
        _engine, path, query = source_and_snapshot
        opened = Engine.open_sharded(path, executor="pool", config=NO_HEAL)
        try:
            pool = opened._plan_executor._pool
            # no request has touched any worker yet; kill a replica of shard 0
            victim = pool._processes[0]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=10)
            # the very first request must route/fail over, not error out
            assert len(opened.spinql(PROGRAM).top(5)) == 5
            assert len(opened.search("docs", query).top(5)) == 5
        finally:
            opened.close()

    def test_all_replicas_dead_surfaces_clean_error(self, source_and_snapshot):
        _engine, path, _query = source_and_snapshot
        opened = Engine.open_sharded(path, executor="pool", config=NO_HEAL)
        try:
            pool = opened._plan_executor._pool
            for process in pool._processes:
                os.kill(process.pid, signal.SIGKILL)
                process.join(timeout=10)
            with pytest.raises(EngineError, match="died|replica"):
                opened.spinql(PROGRAM).execute()
        finally:
            opened.close()

    def test_pinned_requests_do_not_fail_over(self, source_and_snapshot):
        _engine, path, _query = source_and_snapshot
        with WorkerPool(read_shard_map(path), NO_HEAL) as pool:
            victim = pool._processes[0]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=10)
            # an explicit worker index pins the request: the death surfaces
            with pytest.raises(EngineError, match="died"):
                pool.request(0, 0, {"op": "ping"})
            # while unpinned routing still answers from the live replica
            assert pool.pick_worker(0) == 2

    def test_failover_events_are_observable(self, source_and_snapshot):
        _engine, path, _query = source_and_snapshot
        events: list[tuple[str, dict]] = []
        pool = WorkerPool(
            read_shard_map(path),
            NO_HEAL,
            on_event=lambda name, detail: events.append((name, detail)),
        )
        try:
            victim = pool._processes[0]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=10)
            # make the dead worker the *preferred* first attempt (not pinned):
            # the send fails and the request fails over to the live replica
            reply = pool.begin_request(0, 0, {"op": "ping"}, pinned=False).result()
            assert reply["shards"] == [0]
        finally:
            pool.close()
        failovers = [detail for name, detail in events if name == "failover"]
        assert failovers and failovers[0]["shard"] == 0


class TestSelfHealing:
    def test_supervisor_restarts_dead_worker(self, source_and_snapshot):
        engine, path, query = source_and_snapshot
        config = ServingConfig(
            replicas=2,
            health_interval_seconds=0.05,
            restart_backoff_seconds=0.05,
            restart_backoff_cap_seconds=0.2,
        )
        events: list[str] = []
        pool = WorkerPool(
            read_shard_map(path),
            config,
            on_event=lambda name, detail: events.append(name),
        )
        try:
            victim = pool._processes[0]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=10)
            assert pool.degraded
            assert wait_until(lambda: not pool.degraded), "worker was not restarted"
            liveness = pool.liveness()
            assert all(entry["alive"] for entry in liveness)
            assert liveness[0]["restarts"] == 1
            assert pool.replication()["restarts"] == 1
            # the restarted worker actually serves its shard again
            assert pool.request(0, 0, {"op": "ping"})["shards"] == [0]
            assert "worker-dead" in events and "worker-restart" in events
        finally:
            pool.close()

    def test_restart_budget_exhaustion_marks_failed(self, source_and_snapshot):
        _engine, path, _query = source_and_snapshot
        config = ServingConfig(
            replicas=2,
            health_interval_seconds=0.05,
            restart_backoff_seconds=0.01,
            restart_backoff_cap_seconds=0.05,
            max_restarts=0,
        )
        pool = WorkerPool(read_shard_map(path), config)
        try:
            victim = pool._processes[0]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=10)
            assert wait_until(lambda: pool.replication()["failed_workers"] == [0])
            assert pool.degraded
            # the surviving replica keeps the shard answerable
            assert pool.begin_request(None, 0, {"op": "ping"}).result()["shards"] == [0]
        finally:
            pool.close()

    def test_degraded_flag_reaches_health_endpoints(self, source_and_snapshot):
        _engine, path, _query = source_and_snapshot
        opened = Engine.open_sharded(path, executor="pool", config=NO_HEAL)
        try:
            router = Router(opened)
            assert router.health()["degraded"] is False
            victim = opened._plan_executor._pool._processes[0]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=10)
            assert router.health()["degraded"] is True
            stats = router.stats()
            assert stats["degraded"] is True
            assert stats["replication"]["replicas"] == 2
        finally:
            opened.close()

    def test_lifecycle_events_land_in_workload_log(self, source_and_snapshot):
        _engine, path, query = source_and_snapshot
        config = ServingConfig(
            replicas=2,
            health_interval_seconds=0.05,
            restart_backoff_seconds=0.05,
            restart_backoff_cap_seconds=0.2,
        )
        opened = Engine.open_sharded(path, executor="pool", config=config)
        try:
            pool = opened._plan_executor._pool
            victim = pool._processes[0]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=10)
            opened.search("docs", query).top(5)  # may fail over -> event record
            assert wait_until(lambda: not pool.degraded)
            records = [
                entry for entry in opened.workload_log.snapshot() if entry.kind == "event"
            ]
            names = {entry.request["event"] for entry in records}
            assert "worker-restart" in names
            assert all(entry.fingerprint.startswith("event::") for entry in records)
        finally:
            opened.close()
