"""Closing the serving stack leaves nothing behind and logs nothing.

* A pool whose replies all travel through shared memory
  (``shm_threshold=0``) must unlink every segment it was handed —
  including the worker's close acknowledgement, which ``WorkerPool.close``
  drains on its own.
* ``AsyncHTTPFrontEnd.shutdown()`` with a keep-alive client still
  connected must end that connection quietly instead of leaving its task
  for ``asyncio.run`` to cancel (which logs a ``CancelledError``).
"""

from __future__ import annotations

import http.client
import json
import logging
from pathlib import Path

import pytest

from repro.engine import Engine
from repro.relational.column import Column, DataType
from repro.relational.relation import Relation
from repro.relational.schema import Field, Schema
from repro.serving import Router, ServingConfig
from repro.serving.shm import shared_memory_available
from repro.workloads import generate_auction_triples

SHM_DIR = Path("/dev/shm")


def _segments() -> set[str]:
    return {path.name for path in SHM_DIR.glob("psm_*")}


@pytest.mark.skipif(
    not SHM_DIR.is_dir() or not shared_memory_available(),
    reason="needs POSIX shared memory under /dev/shm",
)
def test_shm_reply_pool_leaks_no_segment(tmp_path):
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
    path = source.save(tmp_path / "snap", shards=2)
    query = " ".join(next(iter(workload.lot_descriptions.values())).split()[:3])

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
