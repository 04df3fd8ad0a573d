"""Closing the serving stack leaves nothing behind and logs nothing.

* A pool whose replies all travel through shared memory
  (``shm_threshold=0``) must unlink every segment it was handed —
  including the worker's close acknowledgement, which ``WorkerPool.close``
  drains on its own — also after many threads shared the engine's one
  executor (there is no per-request lease to return).
* ``AsyncHTTPFrontEnd.shutdown()`` with a keep-alive client still
  connected must end that connection quietly instead of leaving its task
  for ``asyncio.run`` to cancel (which logs a ``CancelledError``).
* The smoke scripts remove the temp directory they staged their snapshot
  or log in, whether they pass or fail.
"""

from __future__ import annotations

import http.client
import json
import logging
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.engine import Engine
from repro.pra.plan import PraTop
from repro.relational.column import Column, DataType
from repro.relational.relation import Relation
from repro.relational.schema import Field, Schema
from repro.serving import Router, ServingConfig
from repro.serving.shm import shared_memory_available
from repro.workloads import generate_auction_triples

SHM_DIR = Path("/dev/shm")
REPO = Path(__file__).resolve().parents[2]


def _segments() -> set[str]:
    return {path.name for path in SHM_DIR.glob("psm_*")}


needs_shm = pytest.mark.skipif(
    not SHM_DIR.is_dir() or not shared_memory_available(),
    reason="needs POSIX shared memory under /dev/shm",
)


def _source() -> tuple[Engine, str]:
    """An auction engine with a ``docs`` table, and one of its queries."""
    workload = generate_auction_triples(60, seed=37)
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
    query = " ".join(next(iter(workload.lot_descriptions.values())).split()[:3])
    return source, query


@needs_shm
def test_shm_reply_pool_leaks_no_segment(tmp_path):
    source, query = _source()
    path = source.save(tmp_path / "snap", shards=2)
    before = _segments()
    engine = Engine.open_sharded(
        path, executor="pool", config=ServingConfig(shm_threshold=0)
    )
    try:
        assert engine.search("docs", query).top(5) == source.search("docs", query).top(5)
        engine._plan_executor._pool.ping()
    finally:
        engine.close()
    assert _segments() - before == set()


@needs_shm
def test_concurrent_plans_share_one_executor_and_leak_no_segment(tmp_path):
    source, _query = _source()
    path = source.save(tmp_path / "snap", shards=2)
    select = source.spinql('out = SELECT [$2="hasAuction"] (triples);').plan
    plans = [select, PraTop(select, 5)] * 8
    expected = [source._execute_plan(plan) for plan in plans]

    before = _segments()
    # no result cache: every request goes through the executor
    engine = Engine.open_sharded(
        path, executor="pool", config=ServingConfig(shm_threshold=0), result_cache_size=None
    )
    try:
        with ThreadPoolExecutor(max_workers=8) as threads:
            answers = list(threads.map(engine._execute_plan, plans))
    finally:
        engine.close()
    for answer, reference in zip(answers, expected):
        assert answer.relation.schema.names == reference.relation.schema.names
        assert answer.value_rows() == reference.value_rows()
        assert answer.probabilities().tobytes() == reference.probabilities().tobytes()
    assert _segments() - before == set()


def test_shutdown_with_a_keep_alive_client_logs_no_cancellation(caplog):
    router = Router(Engine.from_triples([("lot1", "description", "oak chair")]))
    server, thread = router.start(port=0)
    client = http.client.HTTPConnection("127.0.0.1", server.server_address[1], timeout=30)
    try:
        client.request("POST", "/query", body=json.dumps({"kind": "info"}))
        response = client.getresponse()
        assert response.status == 200 and json.loads(response.read())["ok"]
        # the client keeps its connection open across the shutdown
        with caplog.at_level(logging.DEBUG):
            server.shutdown()
            thread.join(timeout=10)
        assert not thread.is_alive()
    finally:
        server.server_close()
        client.close()
        router.close()
    assert "CancelledError" not in caplog.text


@pytest.mark.parametrize(
    "script, argv",
    [
        ("serving_smoke.py", ["--lots", "40", "--workers", "1"]),
        ("workload_smoke.py", ["--lots", "40", "--requests", "10"]),
    ],
)
def test_smoke_script_removes_its_temp_directory(tmp_path, script, argv):
    completed = subprocess.run(
        [sys.executable, str(REPO / "scripts" / script), *argv],
        capture_output=True,
        text=True,
        timeout=300,
        env={**os.environ, "PYTHONPATH": str(REPO / "src"), "TMPDIR": str(tmp_path)},
    )
    assert completed.returncode == 0, completed.stderr
    assert list(tmp_path.glob("repro-*")) == []
