"""Worker pool and router: parity, admission control, crash handling."""

from __future__ import annotations

import json
import multiprocessing
import socket
import threading
import urllib.error
import urllib.request

import pytest

from repro.engine import Engine
from repro.errors import EngineError
from repro.relational.column import Column, DataType
from repro.relational.relation import Relation
from repro.relational.schema import Field, Schema
from repro.serving import Router, ServingConfig
from repro.serving import shm
from repro.workloads import generate_auction_triples

PROGRAM = 'out = SELECT [$2="hasAuction"] (triples);'


@pytest.fixture(scope="module")
def source_and_snapshot(tmp_path_factory):
    workload = generate_auction_triples(100, seed=37)
    engine = Engine.from_triples(workload.triples)
    schema = Schema([Field("docID", DataType.STRING), Field("data", DataType.STRING)])
    docs = Relation(
        schema,
        [
            Column(list(workload.lot_descriptions.keys()), DataType.STRING),
            Column(list(workload.lot_descriptions.values()), DataType.STRING),
        ],
    )
    engine.create_table("docs", docs)
    query = " ".join(workload.lot_descriptions["lot1"].split()[:3])
    engine.search("docs", query).execute()
    path = engine.save(tmp_path_factory.mktemp("serving") / "snap", shards=2)
    return engine, path, query


@pytest.fixture(scope="module")
def pool_engine(source_and_snapshot):
    _engine, path, _query = source_and_snapshot
    opened = Engine.open_sharded(path, executor="pool")
    yield opened
    opened.close()


class TestPoolExecutor:
    def test_pool_parity_with_unsharded(self, source_and_snapshot, pool_engine):
        engine, _path, query = source_and_snapshot
        assert pool_engine.executor_info()["executor"] == "pool"
        assert pool_engine.spinql(PROGRAM).top(8) == engine.spinql(PROGRAM).top(8)
        assert pool_engine.search("docs", query).top(8) == engine.search("docs", query).top(8)
        expected = engine.spinql(PROGRAM).execute()
        actual = pool_engine.spinql(PROGRAM).execute()
        assert actual.value_rows() == expected.value_rows()

    def test_fewer_workers_than_shards(self, source_and_snapshot):
        engine, path, _query = source_and_snapshot
        opened = Engine.open_sharded(path, executor="pool", config=ServingConfig(workers=1))
        try:
            info = opened.executor_info()
            assert info["workers"] == 1 and info["shards"] == 2
            assert opened.spinql(PROGRAM).top(5) == engine.spinql(PROGRAM).top(5)
        finally:
            opened.close()

    def test_worker_crash_surfaces_as_engine_error(self, source_and_snapshot):
        _engine, path, _query = source_and_snapshot
        # restart_workers=False: this test asserts the *unhealed* failure
        # mode, so the supervisor must not resurrect the workers mid-assert
        opened = Engine.open_sharded(
            path, executor="pool", config=ServingConfig(restart_workers=False)
        )
        try:
            opened.spinql(PROGRAM).top(3)  # workers are live
            pool = opened._plan_executor._pool
            for process in pool._processes:
                process.kill()
                process.join(timeout=10)
            with pytest.raises(EngineError, match="died"):
                opened.spinql(PROGRAM).execute()
        finally:
            opened.close()


class TestRouter:
    def test_search_request_matches_in_process_results(self, source_and_snapshot, pool_engine):
        engine, _path, query = source_and_snapshot
        router = Router(pool_engine)
        reply = router.handle(
            {"kind": "search", "table": "docs", "query": query, "top_k": 5}
        )
        assert reply["ok"]
        expected = [[doc, score] for doc, score in engine.search("docs", query).top(5)]
        assert reply["results"] == expected

    def test_spinql_request(self, pool_engine):
        router = Router(pool_engine)
        reply = router.handle({"kind": "spinql", "source": PROGRAM, "top_k": 3})
        assert reply["ok"] and len(reply["results"]) == 3

    def test_info_request(self, pool_engine):
        reply = Router(pool_engine).handle({"kind": "info"})
        assert reply["ok"] and reply["executor"]["executor"] == "pool"

    def test_unknown_kind_and_engine_errors_are_contained(self, pool_engine):
        router = Router(pool_engine)
        assert not router.handle({"kind": "nope"})["ok"]
        reply = router.handle({"kind": "spinql", "source": "not valid spinql"})
        assert not reply["ok"] and reply["status"] == 400

    def test_pre_dispatch_gate_rejects_broken_plans_with_diagnostics(self, pool_engine):
        # syntactically valid but statically broken: the verifier gate must
        # answer 400 with the diagnostics instead of a worker round-trip
        router = Router(pool_engine)
        reply = router.handle(
            {"kind": "spinql", "source": 'out = SELECT [$9="x"] (triples);', "top_k": 3}
        )
        assert not reply["ok"] and reply["status"] == 400
        assert reply["error"] == "plan failed static verification"
        codes = [d["code"] for d in reply["analysis"]["diagnostics"]]
        assert "position-out-of-range" in codes

    def test_pre_dispatch_gate_passes_clean_plans_through(self, pool_engine):
        router = Router(pool_engine)
        reply = router.handle({"kind": "spinql", "source": PROGRAM, "top_k": 3})
        assert reply["ok"]

    def test_admission_control_sheds_load(self, pool_engine):
        router = Router(pool_engine, ServingConfig(max_concurrent=1, max_queue=1))
        # fill the admission window by hand, then verify shedding
        assert router._admit() and router._admit()
        shed = router.handle({"kind": "info"})
        assert not shed["ok"] and shed["status"] == 503
        router._release()
        router._release()
        assert router.handle({"kind": "info"})["ok"]
        assert router.statistics()["shed"] == 1

    def test_healthz_shape(self, pool_engine):
        health = Router(pool_engine).health()
        assert health["ok"]
        # worker liveness from the pool executor
        assert health["executor"]["executor"] == "pool"
        liveness = health["executor"]["worker_liveness"]
        assert len(liveness) == pool_engine.executor_info()["workers"]
        assert all(worker["alive"] for worker in liveness)
        # admission-queue depth plus both cache counter blocks
        router_stats = health["router"]
        assert {"in_flight", "queue_depth", "served", "shed"} <= set(router_stats)
        assert {"hits", "misses", "entries", "hit_rate"} <= set(health["plan_cache"])
        assert {"hits", "misses", "entries", "hit_rate"} <= set(health["result_cache"])

    def test_statz_summarizes_served_traffic(self, pool_engine):
        router = Router(pool_engine)
        before = router.stats()["workload"]["log"]["appended"]
        router.handle({"kind": "spinql", "source": PROGRAM, "top_k": 3})
        stats = router.stats()
        assert stats["ok"]
        workload = stats["workload"]
        assert workload["log"]["appended"] > before
        assert {"by_kind", "by_status", "latency", "result_cache"} <= set(workload)
        serves = [
            item
            for item in workload["top_fingerprints"]
            if item["fingerprint"].startswith("serve::")
        ]
        assert serves  # the handled request was logged as a serve record
        # the engine's reuse counters ride along (materialization cache,
        # registry, and the store's writes: none on an opened snapshot)
        assert {"materialization_cache", "statistics_registry", "triple_store"} == set(
            stats["reuse"]
        )
        assert stats["reuse"]["triple_store"] == {
            "appends": 0, "full_loads": 0, "rows_appended": 0
        }

    def test_http_front_end(self, source_and_snapshot, pool_engine):
        engine, _path, query = source_and_snapshot
        router = Router(pool_engine)
        server, _thread = router.start(port=0)
        port = server.server_address[1]
        try:
            health = json.loads(
                urllib.request.urlopen(f"http://127.0.0.1:{port}/healthz").read()
            )
            assert health["ok"] and health["executor"]["executor"] == "pool"
            assert health["result_cache"] is not None
            statz = json.loads(
                urllib.request.urlopen(f"http://127.0.0.1:{port}/statz").read()
            )
            assert statz["ok"] and "workload" in statz
            request = urllib.request.Request(
                f"http://127.0.0.1:{port}/query",
                data=json.dumps(
                    {"kind": "search", "table": "docs", "query": query, "top_k": 4}
                ).encode("utf-8"),
                headers={"Content-Type": "application/json"},
            )
            reply = json.loads(urllib.request.urlopen(request).read())
            expected = [[doc, score] for doc, score in engine.search("docs", query).top(4)]
            assert reply["ok"] and reply["results"] == expected
            bad = urllib.request.Request(
                f"http://127.0.0.1:{port}/query", data=b"{broken", method="POST"
            )
            with pytest.raises(urllib.error.HTTPError) as caught:
                urllib.request.urlopen(bad)
            assert caught.value.code == 400
            caught.value.close()  # an HTTPError holds the response's socket
        finally:
            server.shutdown()
            server.server_close()


class TestRequestValidation:
    """Client mistakes are 400s naming the problem, never 500-shaped crashes."""

    def test_missing_query_field_is_a_clean_400(self, pool_engine):
        reply = Router(pool_engine).handle({"kind": "search", "table": "docs", "top_k": 3})
        assert not reply["ok"] and reply["status"] == 400
        assert "'query'" in reply["error"]

    def test_non_string_query_is_a_clean_400(self, pool_engine):
        reply = Router(pool_engine).handle(
            {"kind": "search", "table": "docs", "query": 7, "top_k": 3}
        )
        assert not reply["ok"] and reply["status"] == 400
        assert "'query'" in reply["error"]

    def test_missing_source_field_is_a_clean_400(self, pool_engine):
        reply = Router(pool_engine).handle({"kind": "spinql", "top_k": 3})
        assert not reply["ok"] and reply["status"] == 400
        assert "'source'" in reply["error"]


class TestHTTPErrorMapping:
    """The asyncio front end's error taxonomy over a real socket."""

    @pytest.fixture()
    def http_port(self, pool_engine):
        router = Router(pool_engine)
        server, _thread = router.start(port=0)
        yield server.server_address[1]
        server.shutdown()
        server.server_close()

    def test_unknown_path_is_404(self, http_port):
        with pytest.raises(urllib.error.HTTPError) as caught:
            urllib.request.urlopen(f"http://127.0.0.1:{http_port}/nope")
        assert caught.value.code == 404
        assert b"unknown path" in caught.value.read()

    def test_missing_query_field_is_400_naming_the_field(self, http_port):
        request = urllib.request.Request(
            f"http://127.0.0.1:{http_port}/query",
            data=json.dumps({"kind": "search", "table": "docs"}).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as caught:
            urllib.request.urlopen(request)
        assert caught.value.code == 400
        assert b"'query'" in caught.value.read()

    def test_non_object_body_is_400(self, http_port):
        request = urllib.request.Request(
            f"http://127.0.0.1:{http_port}/query", data=b"[1, 2, 3]", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as caught:
            urllib.request.urlopen(request)
        assert caught.value.code == 400
        assert b"JSON object" in caught.value.read()

    def test_malformed_content_length_is_400_naming_the_header(self, http_port):
        # urllib always sends a well-formed Content-Length, so speak raw HTTP
        with socket.create_connection(("127.0.0.1", http_port), timeout=30) as client:
            client.sendall(
                b"POST /query HTTP/1.1\r\n"
                b"Host: test\r\n"
                b"Content-Length: banana\r\n"
                b"Connection: close\r\n\r\n"
            )
            response = b""
            while True:
                chunk = client.recv(65536)
                if not chunk:
                    break
                response += chunk
        status_line = response.split(b"\r\n", 1)[0]
        assert b"400" in status_line
        assert b"Content-Length" in response and b"banana" in response

    def test_malformed_request_line_is_400(self, http_port):
        with socket.create_connection(("127.0.0.1", http_port), timeout=30) as client:
            client.sendall(b"NONSENSE\r\nConnection: close\r\n\r\n")
            response = b""
            while True:
                chunk = client.recv(65536)
                if not chunk:
                    break
                response += chunk
        assert b"400" in response.split(b"\r\n", 1)[0]


class TestCorruptReplyHandling:
    def test_corrupt_reply_is_attributed_and_poisons_the_connection(
        self, source_and_snapshot
    ):
        _engine, path, _query = source_and_snapshot
        # the supervisor would restart the poisoned worker and erase the
        # fail-fast state this test asserts; keep it off
        opened = Engine.open_sharded(
            path, executor="pool", config=ServingConfig(restart_workers=False)
        )
        try:
            pool = opened._plan_executor._pool
            pool.ping()  # workers are live
            # splice our own pipe in front of worker 0 and answer the next
            # request by echoing its id with a body the codec must reject
            victim = pool._connections[0]
            original = victim.connection
            parent, child = multiprocessing.Pipe(duplex=True)
            victim.connection = parent

            def echo_garbage():
                request = child.recv_bytes()
                child.send_bytes(request[:8] + b"I" + b"\x00\x00\x00\x08not a frame")

            thread = threading.Thread(target=echo_garbage, daemon=True)
            thread.start()
            with pytest.raises(EngineError, match="corrupt reply") as caught:
                pool.request(0, 0, {"op": "ping"})
            message = str(caught.value)
            assert "worker 0" in message and "shard 0" in message
            thread.join(timeout=10)
            # the connection is poisoned: follow-ups fail fast with the
            # attributed worker-died error instead of reading garbage
            with pytest.raises(EngineError, match="died"):
                pool.request(0, 0, {"op": "ping"})
            original.close()  # the real worker sees EOF and exits
            child.close()
        finally:
            opened.close()


class TestTransports:
    def test_pool_reports_its_reply_transport(self, pool_engine):
        expected = shm.SHM_MIN_BYTES if shm.shared_memory_available() else None
        assert pool_engine.executor_info()["shm_threshold"] == expected

    # these replies are far below the default threshold, so None keeps every
    # one inline on the pipe; 0 sends every reply through shared memory
    @pytest.mark.parametrize("transport,threshold", [("inline", None), ("shm", 0)])
    def test_forced_transport_parity(self, source_and_snapshot, transport, threshold):
        engine, path, query = source_and_snapshot
        if transport == "shm" and not shm.shared_memory_available():
            pytest.skip("multiprocessing.shared_memory unavailable")
        opened = Engine.open_sharded(
            path, executor="pool", config=ServingConfig(shm_threshold=threshold)
        )
        try:
            assert opened.search("docs", query).top(8) == engine.search("docs", query).top(8)
            assert opened.spinql(PROGRAM).top(8) == engine.spinql(PROGRAM).top(8)
            expected = engine.spinql(PROGRAM).execute()
            assert opened.spinql(PROGRAM).execute().value_rows() == expected.value_rows()
        finally:
            opened.close()
