"""The benchmark's own load generator.

`repro.workload.replay.HttpTarget` opens a TCP connection per request and its
open-loop mode spawns a thread per request, so both would measure the
generator.  This one keeps one keep-alive `http.client` connection per client
thread, never runs more client threads than the box has cores, and times an
open-loop request from the moment it was *due*, so a stall in the server is
charged to every arrival it delayed (and `lag` says how late the generator
itself ran).

A :class:`Schedule` is a finite, seeded list of :class:`RequestSpec`; equal
seeds give equal `schedule_hash()`.  The program under test only ever sees the
generated payloads.
"""

from __future__ import annotations

import bisect
import hashlib
import http.client
import itertools
import json
import threading
import time
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from typing import Any


@dataclass(frozen=True)
class RequestSpec:
    """One generated request: what to send and (open loop) when it is due."""

    index: int
    op: str  # "search" | "spinql" | "relation" | "strategy" | "ingest"
    payload: dict[str, Any]
    due_s: float = 0.0  # offset from the start of the run; 0 in a closed loop


@dataclass(frozen=True)
class Schedule:
    """A named, seeded, finite request list."""

    workload: str
    seed: int
    mode: str  # "closed" | "open"
    requests: tuple[RequestSpec, ...]

    def schedule_hash(self) -> str:
        """SHA-256 over the canonical JSON of every request (seed-deterministic)."""
        digest = hashlib.sha256()
        digest.update(f"{self.workload}|{self.mode}|".encode())
        for spec in self.requests:
            digest.update(
                json.dumps(
                    [spec.index, spec.op, spec.due_s, spec.payload], sort_keys=True
                ).encode()
            )
        return digest.hexdigest()


@dataclass
class Sample:
    """The observed outcome of one request."""

    index: int
    op: str
    due: float  # perf_counter time the request was due (== sent in a closed loop)
    sent: float
    done: float
    ok: bool
    results: Any = None  # kept only where the correctness gate or the digest needs it

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1000.0


class ZipfSampler:
    """Draw ranks 0..n-1 with probability proportional to 1/(rank+1)**s."""

    def __init__(self, n: int, s: float):
        weights = [1.0 / (rank**s) for rank in range(1, n + 1)]
        total = sum(weights)
        self._cdf = list(itertools.accumulate(weight / total for weight in weights))
        self._last = n - 1

    def draw(self, rng) -> int:
        return min(bisect.bisect_left(self._cdf, rng.random()), self._last)


def percentile(ordered: Sequence[float], q: float) -> float:
    """The ``q`` quantile (0..1) of an ascending sequence, linearly interpolated."""
    if not ordered:
        raise ValueError("percentile of an empty sample")
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def results_digest(samples: Iterable[Sample], count: int) -> str:
    """SHA-256 over the replies of the first ``count`` requests, in index order.

    Time-bounded runs complete different numbers of requests, so the digest
    covers a fixed prefix: two runs with the same seed must print the same
    digest whenever both got past request ``count``.
    """
    kept = sorted(
        (sample.index, sample.results) for sample in samples if sample.index < count
    )
    return hashlib.sha256(json.dumps(kept, sort_keys=True).encode()).hexdigest()


class HttpClient:
    """One keep-alive connection to the server under test."""

    def __init__(self, address: tuple[str, int], timeout: float = 60.0):
        self._connection = http.client.HTTPConnection(*address, timeout=timeout)

    def post(self, payload: dict[str, Any]) -> tuple[int, dict[str, Any]]:
        self._connection.request(
            "POST",
            "/query",
            body=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        response = self._connection.getresponse()
        return response.status, json.loads(response.read())

    def get(self, path: str) -> tuple[int, dict[str, Any]]:
        self._connection.request("GET", path)
        response = self._connection.getresponse()
        return response.status, json.loads(response.read())

    def close(self) -> None:
        self._connection.close()


def _send(
    client: HttpClient, spec: RequestSpec, due: float | None, keep: Callable[[int], bool]
) -> Sample:
    """Send one request; ``due`` is ``None`` in a closed loop (due when sent)."""
    sent = time.perf_counter()
    try:
        status, reply = client.post(spec.payload)
        ok = status == 200 and bool(reply.get("ok"))
    except (OSError, http.client.HTTPException, ValueError):
        ok, reply = False, {}
    done = time.perf_counter()
    results = reply.get("results") if ok and keep(spec.index) else None
    return Sample(spec.index, spec.op, sent if due is None else due, sent, done, ok, results)


def _run_threads(targets: list[Callable[[], None]]) -> None:
    threads = [threading.Thread(target=target, daemon=True) for target in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def run_closed_http(
    address: tuple[str, int],
    requests: Sequence[RequestSpec],
    *,
    clients: int,
    seconds: float,
    keep: Callable[[int], bool],
) -> list[Sample]:
    """``clients`` closed-loop connections; client ``c`` sends requests c, c+clients, ...

    Each client sends its next request only after the previous reply, until
    ``seconds`` have passed.  The request a client sends is a function of its
    position alone, so replies are reproducible whatever the interleaving.
    """
    lanes: list[list[Sample]] = [[] for _ in range(clients)]
    stop_at = time.perf_counter() + seconds

    def client_loop(lane: int) -> None:
        client = HttpClient(address)
        try:
            for spec in requests[lane::clients]:
                if time.perf_counter() >= stop_at:
                    break
                lanes[lane].append(_send(client, spec, None, keep))
        finally:
            client.close()

    _run_threads([lambda lane=lane: client_loop(lane) for lane in range(clients)])
    return sorted(itertools.chain.from_iterable(lanes), key=lambda sample: sample.index)


def run_open_http(
    address: tuple[str, int],
    requests: Sequence[RequestSpec],
    *,
    clients: int,
    keep: Callable[[int], bool],
) -> list[Sample]:
    """Send every request at its due time over ``clients`` keep-alive connections.

    A client claims the next unsent request, sleeps until it is due and sends
    it; when every connection is busy the next arrival goes out late, and its
    latency still counts from the due time.
    """
    lanes: list[list[Sample]] = [[] for _ in range(clients)]
    pending = iter(requests)
    claim_lock = threading.Lock()
    started = time.perf_counter() + 0.05  # every client is connected before t=0

    def client_loop(lane: int) -> None:
        client = HttpClient(address)
        try:
            while True:
                with claim_lock:
                    spec = next(pending, None)
                if spec is None:
                    return
                due = started + spec.due_s
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                lanes[lane].append(_send(client, spec, due, keep))
        finally:
            client.close()

    _run_threads([lambda lane=lane: client_loop(lane) for lane in range(clients)])
    return sorted(itertools.chain.from_iterable(lanes), key=lambda sample: sample.index)


def run_closed_inproc(
    requests: Sequence[RequestSpec],
    call: Callable[[RequestSpec], Any],
    *,
    seconds: float,
    keep: Callable[[int], bool],
) -> list[Sample]:
    """One in-process caller: run ``call(spec)`` back to back for ``seconds``."""
    samples: list[Sample] = []
    stop_at = time.perf_counter() + seconds
    for spec in requests:
        sent = time.perf_counter()
        if sent >= stop_at:
            break
        try:
            results = call(spec)
            ok = True
        except Exception:  # noqa: BLE001 - a failed operation is counted, not fatal
            results, ok = None, False
        done = time.perf_counter()
        samples.append(
            Sample(spec.index, spec.op, sent, sent, done, ok, results if keep(spec.index) else None)
        )
    return samples
