"""The router: admission control plus an asyncio HTTP front end.

A :class:`Router` owns one engine — typically opened with
``Engine.open_sharded(path, executor="pool")`` so queries scatter across
the worker pool — and exposes two surfaces:

* :meth:`Router.handle` — the in-process request API: one JSON-shaped dict
  in, one JSON-shaped dict out.  Requests pass an **admission queue**: at
  most ``max_concurrent`` requests execute at once and at most
  ``max_queue`` may wait; beyond that the router sheds load with a
  ``503``-shaped refusal instead of queueing unboundedly.
* :meth:`Router.serve` / :meth:`Router.start` — an asyncio HTTP server
  (:class:`~repro.serving.frontend.AsyncHTTPFrontEnd`, standard library
  only): ``POST /query`` with a JSON request body, ``GET /healthz``
  reporting admission-queue depth, worker liveness and cache counters, and
  ``GET /statz`` serving the engine's workload-log summary (hot
  fingerprints, latency percentiles, cache hit rates).  Parsing and
  admission run on the event loop; only admitted requests occupy an
  executor thread.

Every handled request is appended to the engine's workload log as a
``serve`` record carrying the request payload itself, so a router's traffic
can be replayed or synthesized into load by :mod:`repro.workload.replay`.

Request kinds::

    {"kind": "search", "table": "docs", "query": "wooden train",
     "top_k": 10, "model": {"model": "bm25", "k1": 1.2, "b": 0.75}}
    {"kind": "spinql", "source": "out = ...;", "top_k": 10}
    {"kind": "info"}

Responses are ``{"ok": true, ...}`` or ``{"ok": false, "error": ...,
"status": <http-ish code>}``; the HTTP layer maps ``status`` onto the
response code.  The taxonomy is strict: **400** for anything the client
got wrong (malformed JSON or ``Content-Length``, a missing ``query`` /
``source`` field, an unknown model or request kind, a plan that fails
static verification), **503** for admission-queue overload, and **500**
only for genuinely unexpected engine-side failures.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from typing import TYPE_CHECKING, Any

from repro.engine.executors import model_from_descriptor
from repro.engine.query import result_pairs
from repro.errors import ReproError
from repro.serving.config import ServingConfig

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine import Engine
    from repro.serving.frontend import AsyncHTTPFrontEnd


class Router:
    """Admission-controlled request dispatch over one (sharded) engine."""

    def __init__(self, engine: "Engine", config: ServingConfig | None = None):
        if config is None:
            # an engine opened with open_sharded(config=...) carries the
            # deployment's config; reuse it unless the caller passes one
            config = getattr(engine, "_serving_config", None) or ServingConfig()
        self.config = config
        self.engine = engine
        self.max_concurrent = config.max_concurrent
        self.max_queue = config.max_queue
        self._execution_slots = threading.BoundedSemaphore(config.max_concurrent)
        self._admitted = 0
        self._admitted_lock = threading.Lock()
        self._served = 0
        self._shed = 0

    # -- admission ----------------------------------------------------------------

    def _admit(self) -> bool:
        with self._admitted_lock:
            if self._admitted >= self.max_concurrent + self.max_queue:
                self._shed += 1
                return False
            self._admitted += 1
            return True

    def _release(self) -> None:
        with self._admitted_lock:
            self._admitted -= 1
            self._served += 1

    def statistics(self) -> dict[str, Any]:
        with self._admitted_lock:
            return {
                "in_flight": self._admitted,
                "served": self._served,
                "shed": self._shed,
                "queue_depth": max(0, self._admitted - self.max_concurrent),
                "max_concurrent": self.max_concurrent,
                "max_queue": self.max_queue,
            }

    # -- introspection ------------------------------------------------------------

    def health(self) -> dict[str, Any]:
        """The ``/healthz`` payload: admission, liveness and cache counters."""
        engine = self.engine
        result_cache = engine.result_cache
        executor = engine._plan_executor.health()
        return {
            "ok": True,
            "executor": executor,
            # degraded = serving with fewer live replicas than configured
            # (a worker is dead, restarting, or failed); clients keep
            # getting answers via failover while the supervisor heals
            "degraded": bool(executor.get("replication", {}).get("degraded", False)),
            "router": self.statistics(),
            "plan_cache": engine.plan_cache.statistics.to_dict(),
            "result_cache": (
                result_cache.statistics.to_dict() if result_cache is not None else None
            ),
        }

    def stats(self) -> dict[str, Any]:
        """The ``/statz`` payload: the workload-log summary plus router counters."""
        executor = self.engine._plan_executor.health()
        return {
            "ok": True,
            "workload": self.engine.workload_log.summary(),
            "router": self.statistics(),
            "degraded": bool(executor.get("replication", {}).get("degraded", False)),
            "replication": executor.get("replication"),
            "reuse": self.engine.reuse_statistics(),
        }

    # -- request handling ---------------------------------------------------------

    def handle(self, request: dict[str, Any]) -> dict[str, Any]:
        """Dispatch one request dict; never raises for request-level errors."""
        if not self._admit():
            return self._overloaded()
        return self._run_admitted(request)

    def _overloaded(self) -> dict[str, Any]:
        return {
            "ok": False,
            "status": 503,
            "error": (
                f"router overloaded: {self.max_concurrent} in flight plus "
                f"{self.max_queue} queued"
            ),
        }

    def _run_admitted(self, request: dict[str, Any]) -> dict[str, Any]:
        """Execute a request that already holds an admission slot.

        Split from :meth:`handle` so the asyncio front end can admit (and
        shed) on the event loop and push only admitted work onto executor
        threads.  Callers must have taken a slot via ``_admit``; this
        method always releases it.
        """
        started = time.perf_counter()
        try:
            with self._execution_slots:
                reply = self._dispatch(request)
        except ReproError as error:
            reply = {"ok": False, "status": 400, "error": str(error)}
        except Exception as error:  # noqa: BLE001 - the router must not die
            reply = {
                "ok": False,
                "status": 500,
                "error": f"{type(error).__name__}: {error}",
            }
        finally:
            self._release()
        self._record(request, reply, started)
        return reply

    def _record(self, request: dict[str, Any], reply: dict[str, Any], started: float) -> None:
        """Append a ``serve`` record for this request to the engine's log."""
        try:
            canonical = json.dumps(request, sort_keys=True, default=str)
            self.engine.workload_log.record(
                "serve",
                "serve::" + hashlib.sha1(canonical.encode("utf-8")).hexdigest()[:16],
                (time.perf_counter() - started) * 1000.0,
                rows_out=len(reply.get("results", [])) if reply.get("ok") else None,
                request=request,
                executor=self.engine.executor_info().get("executor"),
                status="ok" if reply.get("ok") else "error",
            )
        except Exception:  # noqa: BLE001 - logging must never fail a request
            pass

    def _dispatch(self, request: dict[str, Any]) -> dict[str, Any]:
        kind = request.get("kind")
        if kind == "search":
            return self._handle_search(request)
        if kind == "spinql":
            return self._handle_spinql(request)
        if kind == "info":
            return {
                "ok": True,
                "engine": _jsonable(self.engine.connect_info()),
                "executor": self.engine.executor_info(),
                "router": self.statistics(),
            }
        return {"ok": False, "status": 400, "error": f"unknown request kind {kind!r}"}

    def _handle_search(self, request: dict[str, Any]) -> dict[str, Any]:
        table = request.get("table", "docs")
        query = request.get("query")
        if not isinstance(query, str):
            # a missing field is the client's mistake, not a server fault —
            # it must never surface as a KeyError-shaped 500
            return {
                "ok": False,
                "status": 400,
                "error": "search request is missing the required 'query' field",
            }
        top_k = request.get("top_k")
        descriptor = request.get("model")
        model = model_from_descriptor(descriptor)
        if descriptor is not None and model is None:
            return {
                "ok": False,
                "status": 400,
                "error": f"unknown ranking model {descriptor.get('model')!r}",
            }
        result = self.engine.search(table, query, model=model, top_k=top_k).execute()
        pairs = result.top(top_k) if top_k is not None else result.ranked.as_pairs()
        return {
            "ok": True,
            "query": query,
            "terms": result.query_terms,
            "results": [[doc_id, float(score)] for doc_id, score in pairs],
        }

    def _handle_spinql(self, request: dict[str, Any]) -> dict[str, Any]:
        source = request.get("source")
        if not isinstance(source, str):
            return {
                "ok": False,
                "status": 400,
                "error": "spinql request is missing the required 'source' field",
            }
        top_k = request.get("top_k")
        query = self.engine.spinql(source)
        # pre-dispatch gate: statically verify before the plan ever reaches
        # the executor.  hydrate=False keeps the gate off the disk — snapshot
        # tables carry manifest-declared schemas, so the gate still sees full
        # column/dtype information; anything the catalog genuinely cannot
        # resolve degrades to a warning, never to a false rejection.
        report = query.check(top_k=top_k, hydrate=False)
        if not report.ok:
            return {
                "ok": False,
                "status": 400,
                "error": "plan failed static verification",
                "analysis": report.to_dict(),
            }
        if top_k is not None:
            pairs = query.top(top_k)
        else:
            pairs = result_pairs(query.execute())
        return {
            "ok": True,
            "results": [[_jsonable(item), float(p)] for item, p in pairs],
        }

    # -- the HTTP front end -------------------------------------------------------

    def serve(self, host: str | None = None, port: int | None = None) -> "AsyncHTTPFrontEnd":
        """Build (but do not start) the asyncio HTTP server for this router.

        ``host``/``port`` default to the router's :class:`ServingConfig`.
        The returned object follows the ``ThreadingHTTPServer`` lifecycle
        contract — ``server_address`` (resolved already, so ``port=0``
        works), ``serve_forever()``, thread-safe ``shutdown()``, and
        ``server_close()`` — see
        :class:`~repro.serving.frontend.AsyncHTTPFrontEnd`.
        """
        from repro.serving.frontend import AsyncHTTPFrontEnd

        host = host if host is not None else self.config.host
        port = port if port is not None else self.config.port
        return AsyncHTTPFrontEnd(self, host, port)

    def start(
        self, host: str | None = None, port: int | None = None
    ) -> tuple["AsyncHTTPFrontEnd", threading.Thread]:
        """Start the HTTP server on a daemon thread; returns (server, thread)."""
        server = self.serve(host, port)
        thread = threading.Thread(
            target=server.serve_forever, name="repro-router-http", daemon=True
        )
        thread.start()
        return server, thread

    def close(self) -> None:
        """Close the engine (and with it any worker pool it owns)."""
        self.engine.close()


def _jsonable(value: Any) -> Any:
    """Best-effort conversion of engine metadata into JSON-safe values."""
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)
