"""Replay and load generation: turn a workload log back into traffic.

Two ways to build a :class:`Schedule`:

* :func:`replay_schedule` — re-issue a recorded log verbatim, in its
  original order;
* :func:`synthesize_schedule` — generate ``num_requests`` requests from
  the log's distinct request templates with **Zipfian skew** (templates
  ranked by observed frequency; template at rank ``r`` drawn with
  probability proportional to ``1 / r**zipf_s``) under **closed-loop**
  (fixed concurrency, next request starts when a slot frees) or
  **open-loop** (seeded exponential inter-arrivals at ``rate_qps``,
  requests start on schedule regardless of completions) arrival.

Schedules are deterministic: the same log, seed and parameters produce an
identical request sequence, and :meth:`Schedule.schedule_hash` (SHA-256
over the canonical JSON of the schedule) makes that checkable from CI —
two runs agree on the hash or one of them is wrong.

:func:`run_schedule` drives a schedule against any *target* — an
in-process engine (:class:`EngineTarget`), an in-process router
(:class:`RouterTarget`), or a live HTTP router (:class:`HttpTarget`) —
and reports throughput plus p50/p95/p99 latency in a :class:`LoadReport`.
Open-loop latency is measured from the request's *scheduled* arrival, so
queueing delay under overload is visible (the coordinated-omission-safe
convention).
"""

from __future__ import annotations

import hashlib
import json
import random
import threading
import time
import urllib.error
import urllib.request
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.errors import ReproError
from repro.workload.log import WorkloadRecord, latency_percentiles

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine import Engine
    from repro.serving.router import Router

#: request kinds the harness knows how to re-issue
REPLAYABLE_KINDS = ("spinql", "search", "strategy")


@dataclass(frozen=True)
class RequestSpec:
    """One request to issue: a router-shaped payload plus its arrival time."""

    request: dict[str, Any]
    offset_ms: float = 0.0  # scheduled arrival; 0 under closed-loop

    def canonical(self) -> str:
        return json.dumps(
            {"request": self.request, "offset_ms": round(self.offset_ms, 6)},
            sort_keys=True,
        )


@dataclass
class Schedule:
    """A deterministic request sequence plus the knobs that produced it."""

    requests: list[RequestSpec]
    mode: str = "closed"  # "closed" | "open"
    seed: int | None = None
    zipf_s: float | None = None
    rate_qps: float | None = None

    def schedule_hash(self) -> str:
        """SHA-256 over the canonical schedule; equal hash ⇔ equal schedule."""
        digest = hashlib.sha256()
        digest.update(self.mode.encode("utf-8"))
        for spec in self.requests:
            digest.update(spec.canonical().encode("utf-8"))
            digest.update(b"\n")
        return digest.hexdigest()

    def describe(self) -> dict[str, Any]:
        return {
            "requests": len(self.requests),
            "mode": self.mode,
            "seed": self.seed,
            "zipf_s": self.zipf_s,
            "rate_qps": self.rate_qps,
            "schedule_hash": self.schedule_hash(),
        }


@dataclass
class LoadReport:
    """What one schedule run measured."""

    completed: int
    errors: int
    elapsed_seconds: float
    latency: dict[str, float]
    mode: str
    concurrency: int
    results_digest: str = ""

    @property
    def throughput_qps(self) -> float:
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.completed / self.elapsed_seconds

    def to_dict(self) -> dict[str, Any]:
        return {
            "completed": self.completed,
            "errors": self.errors,
            "elapsed_seconds": self.elapsed_seconds,
            "throughput_qps": self.throughput_qps,
            "latency": dict(self.latency),
            "mode": self.mode,
            "concurrency": self.concurrency,
            "results_digest": self.results_digest,
        }


# ---------------------------------------------------------------------------
# schedule construction
# ---------------------------------------------------------------------------


def request_templates(records: Sequence[WorkloadRecord]) -> list[tuple[dict[str, Any], int]]:
    """Distinct replayable request payloads with observed frequencies.

    Templates are ordered by descending frequency (canonical JSON breaks
    ties), so template rank — the Zipf variable — is deterministic.
    """
    counts: dict[str, int] = {}
    payloads: dict[str, dict[str, Any]] = {}
    for entry in records:
        request = entry.request
        if not request or request.get("kind") not in REPLAYABLE_KINDS:
            continue
        key = json.dumps(request, sort_keys=True)
        counts[key] = counts.get(key, 0) + 1
        payloads.setdefault(key, request)
    ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    return [(payloads[key], count) for key, count in ranked]


def replay_schedule(records: Sequence[WorkloadRecord]) -> Schedule:
    """A schedule that re-issues the log's replayable requests in order."""
    requests = [
        RequestSpec(request=entry.request)
        for entry in records
        if entry.request and entry.request.get("kind") in REPLAYABLE_KINDS
    ]
    if not requests:
        raise ReproError("no replayable requests in the log")
    return Schedule(requests=requests, mode="closed")


def synthesize_schedule(
    records: Sequence[WorkloadRecord],
    *,
    num_requests: int,
    seed: int,
    mode: str = "closed",
    zipf_s: float = 1.1,
    rate_qps: float = 50.0,
) -> Schedule:
    """Generate traffic shaped like the log, deterministically from ``seed``."""
    if mode not in ("closed", "open"):
        raise ReproError(f"unknown arrival mode {mode!r}; use 'closed' or 'open'")
    if num_requests < 1:
        raise ReproError("num_requests must be >= 1")
    templates = request_templates(records)
    if not templates:
        raise ReproError("no replayable requests in the log to synthesize from")
    rng = random.Random(seed)
    weights = [1.0 / (rank + 1) ** zipf_s for rank in range(len(templates))]
    offset_ms = 0.0
    requests: list[RequestSpec] = []
    for _ in range(num_requests):
        template, _count = rng.choices(templates, weights=weights, k=1)[0]
        if mode == "open":
            offset_ms += rng.expovariate(rate_qps) * 1000.0
        requests.append(RequestSpec(request=dict(template), offset_ms=offset_ms))
    return Schedule(
        requests=requests, mode=mode, seed=seed, zipf_s=zipf_s, rate_qps=rate_qps
    )


# ---------------------------------------------------------------------------
# targets
# ---------------------------------------------------------------------------


class EngineTarget:
    """Issue requests straight into an :class:`~repro.engine.Engine`."""

    def __init__(self, engine: "Engine"):
        self.engine = engine

    def __call__(self, request: dict[str, Any]) -> dict[str, Any]:
        kind = request.get("kind")
        top_k = request.get("top_k")
        if kind == "spinql":
            query = self.engine.spinql(request["source"])
            if top_k is not None:
                return {"ok": True, "results": query.top(top_k)}
            return {"ok": True, "rows": query.execute().num_rows}
        if kind == "search":
            search = self.engine.search(request.get("table", "docs"), request["query"])
            if top_k is not None:
                return {"ok": True, "results": search.top(top_k)}
            return {"ok": True, "rows": len(search.execute().ranked)}
        if kind == "strategy":
            run = self.engine.strategy(request["name"], query=request.get("query", ""))
            if top_k is not None:
                return {"ok": True, "results": run.top(top_k)}
            return {"ok": True, "rows": run.execute().output.num_rows}
        return {"ok": False, "error": f"unknown request kind {kind!r}"}


class RouterTarget:
    """Issue requests through an in-process :class:`~repro.serving.Router`."""

    def __init__(self, router: "Router"):
        self.router = router

    def __call__(self, request: dict[str, Any]) -> dict[str, Any]:
        return self.router.handle(request)


class HttpTarget:
    """Issue requests against a live router's ``POST /query`` endpoint."""

    def __init__(self, base_url: str, *, timeout: float = 30.0):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    def __call__(self, request: dict[str, Any]) -> dict[str, Any]:
        body = json.dumps(request).encode("utf-8")
        http_request = urllib.request.Request(
            f"{self.base_url}/query",
            data=body,
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(http_request, timeout=self.timeout) as reply:
                return json.loads(reply.read())
        except urllib.error.HTTPError as error:
            return {"ok": False, "status": error.code, "error": str(error)}


# ---------------------------------------------------------------------------
# the runner
# ---------------------------------------------------------------------------


def run_schedule(
    schedule: Schedule,
    target: Callable[[dict[str, Any]], dict[str, Any]],
    *,
    concurrency: int = 4,
) -> LoadReport:
    """Drive ``schedule`` against ``target`` and measure latency/throughput.

    Closed-loop: ``concurrency`` workers each take the next request as
    soon as their previous one finishes.  Open-loop: requests launch at
    their scheduled offsets (latency then includes any wait for a free
    worker, making overload visible rather than hiding it).
    """
    if concurrency < 1:
        raise ReproError("concurrency must be >= 1")
    latencies: list[float] = [0.0] * len(schedule.requests)
    outcomes: list[bool] = [False] * len(schedule.requests)
    digests: list[str] = [""] * len(schedule.requests)

    def issue(index: int, spec: RequestSpec, scheduled_start: float) -> None:
        reply = target(spec.request)
        finished = time.perf_counter()
        latencies[index] = (finished - scheduled_start) * 1000.0
        outcomes[index] = bool(reply.get("ok"))
        digests[index] = _digest_reply(reply)

    started = time.perf_counter()
    if schedule.mode == "open":
        threads: list[threading.Thread] = []
        slots = threading.Semaphore(concurrency)

        def launch(index: int, spec: RequestSpec, scheduled_start: float) -> None:
            with slots:
                issue(index, spec, scheduled_start)

        for index, spec in enumerate(schedule.requests):
            scheduled = started + spec.offset_ms / 1000.0
            delay = scheduled - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            thread = threading.Thread(
                target=launch, args=(index, spec, scheduled), daemon=True
            )
            thread.start()
            threads.append(thread)
        for thread in threads:
            thread.join()
    else:
        next_index = 0
        index_lock = threading.Lock()

        def worker() -> None:
            nonlocal next_index
            while True:
                with index_lock:
                    if next_index >= len(schedule.requests):
                        return
                    index = next_index
                    next_index += 1
                issue(index, schedule.requests[index], time.perf_counter())

        workers = [
            threading.Thread(target=worker, daemon=True)
            for _ in range(min(concurrency, len(schedule.requests)))
        ]
        for thread in workers:
            thread.start()
        for thread in workers:
            thread.join()
    elapsed = time.perf_counter() - started

    digest = hashlib.sha256()
    for item in digests:
        digest.update(item.encode("utf-8"))
        digest.update(b"\n")
    return LoadReport(
        completed=sum(outcomes),
        errors=len(outcomes) - sum(outcomes),
        elapsed_seconds=elapsed,
        latency=latency_percentiles(list(latencies)),
        mode=schedule.mode,
        concurrency=concurrency,
        results_digest=digest.hexdigest(),
    )


def _digest_reply(reply: dict[str, Any]) -> str:
    """A canonical digest of a reply's *answer* (results/rows, not timing)."""
    payload = {
        "ok": bool(reply.get("ok")),
        "results": reply.get("results"),
        "rows": reply.get("rows"),
    }
    try:
        return json.dumps(payload, sort_keys=True, default=str)
    except (TypeError, ValueError):
        return repr(payload)
