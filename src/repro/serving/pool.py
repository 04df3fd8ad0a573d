"""The worker pool: replicated, self-healing shard processes.

:class:`WorkerPool` spawns persistent processes over a partitioned
snapshot and multiplexes codec-framed requests over one duplex pipe per
worker.  Each worker memmaps its shards (OS page cache shared across
workers on one host), so pool start-up is O(process spawn), not O(data).

**Replication.**  With ``replicas=R`` every shard is served by ``R``
workers (``base * R`` processes for ``base`` worker slots per replica
rank).  Requests route to the **least-outstanding live replica**; a
request whose worker dies — before the first reply or mid-request — or
whose connection is poisoned by a corrupt frame is transparently retried
on a surviving replica (excluded-runner pattern: each attempt excludes the
workers already tried, bounded by ``retry_budget``).  Retries are safe by
construction: snapshots are immutable, so every replica computes the
bit-identical answer.  Requests issued with an explicit worker index
(``request(worker, ...)``) stay **pinned** — they attribute failures to
that worker instead of failing over, which is what crash tests and the
close path want.

**Self-healing.**  A supervisor thread health-checks workers every
``health_interval_seconds`` and restarts dead ones from the immutable
snapshot with exponential backoff (``restart_backoff_seconds`` doubled per
consecutive restart, capped), up to ``max_restarts`` per slot; a slot that
exhausts its budget is marked failed.  A restarted worker joins routing only
after it has answered one ping, so requests never queue on a process that is
still starting.  :attr:`degraded` is true while any slot is dead or failed —
surfaced via ``/healthz`` and ``/statz``.
Failovers, deaths, restarts and failures are reported to the pool's
observer callback as structured events (the engine wires this into the
workload log).

**Pipelining.**  Every request frame carries an 8-byte request id
(:func:`~repro.serving.codec.encode_tagged`); receiving is
leader/follower per connection, so many requests can be in flight on one
pipe at once — the send lock is held only for the write, never for the
round trip.

**Result transport.**  Small replies travel inline on the pipe; replies at
or above the shared-memory threshold are published to
:mod:`repro.serving.shm` segments by the worker and only a control frame
crosses the pipe (``ServingConfig.shm_threshold`` sets the size; ``0``
sends every reply through shared memory).  A search request carries the
global df/cf of its own terms, so a worker holds no statistics beyond its
shards' and any live replica can answer any search with one frame.

:meth:`WorkerPool.shard_backends` returns one :class:`PoolShard` proxy per
shard.  It offers the ``begin_*`` half of the backend interface
:class:`~repro.engine.executors.InProcessShard` implements — the only half
the scatter step calls — so :class:`~repro.engine.executors.PoolExecutor`
reuses the scatter-gather logic unchanged.  Every search, single or
batched, is one ``search_many`` request per shard.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeout
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from repro.errors import EngineError
from repro.serving.codec import encode_tagged, resolve_tagged, split_tagged
from repro.serving.config import ServingConfig
from repro.serving.shm import ShmTransport

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.executors import SearchSpec
    from repro.ir.statistics import GlobalStatistics
    from repro.storage.shards import ShardMap

_JOIN_TIMEOUT_SECONDS = 5.0

#: how long a restarted worker may take to answer its first ping
_READY_TIMEOUT_SECONDS = 10.0

#: how long a failover will wait for the supervisor to restart a replica
#: when every replica of a shard is momentarily down (self-healing only)
_REPLICA_WAIT_SECONDS = 5.0


class _WorkerDied(Exception):
    """Internal marker: the connection to a worker is unusable."""


#: how long a receive leader blocks in ``poll`` before re-checking state
_POLL_SECONDS = 0.1


class _WorkerConnection:
    """One duplex pipe to a worker process, multiplexed by request id.

    Receiving is leader/follower, not a dedicated reader thread: whichever
    waiting caller holds the receive lock drains frames (resolving futures
    by request id) until its own reply arrives, then hands leadership to
    the next waiter via the turnstile condition.  In the common serial case
    the caller that sent the request also reads the reply — no cross-thread
    hand-off, which on a busy host saves two context switches per reply.
    """

    def __init__(self, worker: int, connection: Any, process: Any):
        self.worker = worker
        self.connection = connection
        self.process = process
        self.pid = process.pid
        self._send_lock = threading.Lock()
        self._state_lock = threading.Lock()
        self._recv_lock = threading.Lock()
        self._turnstile = threading.Condition()
        self._pending: dict[int, Future] = {}
        self._next_id = 0
        self._death: str | None = None

    # -- sending -----------------------------------------------------------------

    def send(self, message: dict[str, Any]) -> Future:
        """Issue one request; returns a future resolving to (kind, body).

        Raises :class:`_WorkerDied` synchronously when the connection is
        already dead **or the write itself fails** — a worker that died
        between accept and first reply surfaces here exactly like a
        mid-request death, so callers handle both through one path.
        """
        with self._state_lock:
            if self._death is not None:
                raise _WorkerDied(self._death)
            self._next_id += 1
            request_id = self._next_id
            future: Future = Future()
            self._pending[request_id] = future
        try:
            with self._send_lock:
                self.connection.send_bytes(encode_tagged(request_id, message))
        except (BrokenPipeError, ConnectionResetError, OSError, ValueError) as error:
            self.mark_dead(f"pipe write failed: {error!r}")
            raise _WorkerDied(self._death or f"pipe write failed: {error!r}") from error
        return future

    def outstanding(self) -> int:
        """In-flight request count (the least-outstanding routing signal)."""
        with self._state_lock:
            return len(self._pending)

    # -- receiving ---------------------------------------------------------------

    def wait(self, future: Future, timeout: float | None = None) -> tuple[bytes, bytes]:
        """Wait for ``future``'s reply frame, draining the pipe if leading.

        Raises the future's exception (:class:`_WorkerDied`) on a dead
        connection and :class:`concurrent.futures.TimeoutError` on expiry.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while not future.done():
            if deadline is not None and time.monotonic() >= deadline:
                break
            if self._recv_lock.acquire(blocking=False):
                try:
                    self._lead(future, deadline)
                finally:
                    self._recv_lock.release()
                    with self._turnstile:
                        self._turnstile.notify_all()
            else:
                with self._turnstile:
                    # re-check under the turnstile lock: the leader may have
                    # exited between our failed acquire and this wait, and
                    # its notify_all requires the lock we now hold — so a
                    # free receive lock or a done future cannot be missed
                    if future.done() or not self._recv_lock.locked():
                        continue
                    self._turnstile.wait(_POLL_SECONDS)
        return future.result(timeout=0)

    def _lead(self, future: Future, deadline: float | None) -> None:
        """Drain reply frames until ``future`` resolves (or death/deadline)."""
        while not future.done() and self._death is None:
            try:
                if deadline is not None:
                    # bounded wait: poll so the deadline is honored even if
                    # the worker never replies (close() uses this path)
                    if time.monotonic() >= deadline:
                        return
                    if not self.connection.poll(_POLL_SECONDS):
                        continue
                data = self.connection.recv_bytes()
            except (EOFError, OSError):
                self.mark_dead("connection closed")
                return
            try:
                reply_id, kind, body = split_tagged(data)
            except EngineError as error:
                self.mark_dead(f"sent an unreadable frame: {error}")
                return
            with self._state_lock:
                target = self._pending.pop(reply_id, None)
            if target is not None and not target.done():
                target.set_result((kind, body))
                if target is not future:
                    with self._turnstile:
                        self._turnstile.notify_all()

    def mark_dead(self, reason: str) -> None:
        """Fail every in-flight request and reject all future ones."""
        with self._state_lock:
            if self._death is None:
                self._death = reason
            pending = list(self._pending.values())
            self._pending.clear()
        for future in pending:
            if not future.done():
                future.set_exception(_WorkerDied(reason))
        with self._turnstile:
            self._turnstile.notify_all()

    @property
    def death(self) -> str | None:
        return self._death

    def shutdown(self) -> None:
        try:
            self.connection.close()
        except OSError:
            pass


class _PendingReply:
    """One in-flight request: resolves, fails over, attributes errors."""

    def __init__(
        self,
        pool: "WorkerPool",
        worker: int,
        shard: int,
        op: str | None,
        future: Future,
        transform: Callable[[Any], Any] | None = None,
        *,
        connection: _WorkerConnection | None = None,
        message: dict[str, Any] | None = None,
        pinned: bool = True,
        attempted: set[int] | None = None,
        retries_left: int = 0,
    ):
        self._pool = pool
        self.worker = worker
        self.shard = shard
        self.op = op
        self._future = future
        self._transform = transform
        self.connection = connection
        self.message = message
        self.pinned = pinned
        # connection identities (not slot indices): a supervisor restart puts
        # a fresh connection in the slot, which is fair game to retry
        self.attempted = attempted if attempted is not None else set()
        self.retries_left = retries_left

    def reply(self, timeout: float | None = None) -> dict[str, Any]:
        """The decoded raw reply dict (``ok`` may be false)."""
        return self._pool._resolve(self, timeout)

    def result(self, timeout: float | None = None) -> Any:
        """The reply's value; raises attributed ``EngineError`` on failure."""
        value = self._pool._unwrap(self, self.reply(timeout))
        return self._transform(value) if self._transform is not None else value


def _ranked_lists(value: Any) -> list[tuple[list[Any], np.ndarray, np.ndarray]]:
    """A ``search_many`` reply as ``(doc_ids, scores, global_rows)`` per query."""
    return [
        (
            list(entry["doc_ids"]),
            np.asarray(entry["scores"], dtype=np.float64),
            np.asarray(entry["rows"], dtype=np.int64),
        )
        for entry in value
    ]


class PoolShard:
    """Backend proxy for one shard served by the pool's replica set.

    Every ``begin_*`` method puts the request on the wire immediately and
    returns a pending reply, so the scatter step overlaps all workers from
    one thread.  The pool picks the serving replica per request (least
    outstanding), so the proxy survives individual worker deaths
    transparently.
    """

    def __init__(self, pool: "WorkerPool", worker: int, shard: int):
        self._pool = pool
        self.worker = worker  # home slot (replica 0); routing may pick others
        self.shard = shard

    def _begin(
        self, message: dict[str, Any], transform: Callable[[Any], Any] | None = None
    ) -> _PendingReply:
        message["shard"] = self.shard
        return self._pool.begin_request(None, self.shard, message, transform)

    def begin_segment(self, plan: Any, table: str) -> _PendingReply:
        return self._begin({"op": "segment", "plan": plan, "table": table})

    def begin_statistics_summary(self, spec: "SearchSpec") -> _PendingReply:
        from repro.ir.statistics import GlobalStatistics

        return self._begin({"op": "stats", "spec": spec}, GlobalStatistics.from_payload)

    def begin_search_many(
        self, specs: "list[SearchSpec]", global_statistics: "GlobalStatistics"
    ) -> _PendingReply:
        """One wire request ranking a whole query batch on this shard.

        All specs must share one statistics key (same table and columns)
        — the executor groups before calling — and ``global_statistics``
        holds the df/cf of their terms.  The worker answers through its
        vectorized multi-query kernel with a single reply.
        """
        return self._begin(
            {
                "op": "search_many",
                "specs": list(specs),
                "global": global_statistics.to_payload(),
            },
            _ranked_lists,
        )

    def begin_fragment(self, table: str) -> _PendingReply:
        return self._begin(
            {"op": "fragment", "table": table},
            lambda value: (value["relation"], np.asarray(value["rows"], dtype=np.int64)),
        )

    def triples_fragment(self) -> tuple[list, np.ndarray]:
        value = self._begin({"op": "store"}).result()
        return list(value["triples"]), np.asarray(value["rows"], dtype=np.int64)

    def close(self) -> None:
        """Workers are shared between shards; the pool owns their lifecycle."""


class WorkerPool:
    """Replicated worker processes serving the shards of one snapshot.

    ``config.workers`` sets the **base** worker count (default: one per
    shard, never more than the shard count); ``config.replicas`` multiplies
    it, so ``base * replicas`` processes run and every shard is served by
    ``replicas`` of them.  Requests route to the least-outstanding live
    replica and fail over on death; a supervisor thread restarts dead
    workers from the immutable snapshot (see the module docstring).
    """

    def __init__(
        self,
        shard_map: "ShardMap",
        config: ServingConfig | None = None,
        *,
        on_event: Callable[[str, dict[str, Any]], None] | None = None,
    ):
        config = config if config is not None else ServingConfig()
        self.config = config
        self.shard_map = shard_map
        self._observer = on_event
        num_shards = shard_map.num_shards
        requested = config.workers if config.workers is not None else num_shards
        self.base_workers = max(1, min(requested, num_shards))
        self.replicas = config.replicas
        self.num_workers = self.base_workers * self.replicas
        self._assignment: dict[int, int] = {
            shard: shard % self.base_workers for shard in shard_map.shards()
        }
        self._closed = False
        # the reply policy workers derive from config.shm_threshold; None
        # where the platform has no shared memory and every reply is inline
        policy = ShmTransport(config.shm_threshold)
        self.shm_threshold = policy.threshold if policy.enabled else None

        self._context = multiprocessing.get_context(config.start_method)
        self._lock = threading.Lock()
        self._restarts: dict[int, int] = {}
        self._restart_at: dict[int, float] = {}
        self._failed: dict[int, str] = {}
        self._processes: list[Any] = []
        self._connections: list[_WorkerConnection] = []
        for worker in range(self.num_workers):
            process, connection = self._spawn(worker)
            self._processes.append(process)
            self._connections.append(connection)
        self._stop = threading.Event()
        self._supervisor: threading.Thread | None = None
        if config.restart_workers:
            self._supervisor = threading.Thread(
                target=self._supervise, daemon=True, name="repro-pool-supervisor"
            )
            self._supervisor.start()

    def _spawn(self, worker: int) -> tuple[Any, _WorkerConnection]:
        """Start the process for slot ``worker`` over its assigned shards."""
        from repro.serving.worker import worker_main

        assigned = sorted(
            shard
            for shard, owner in self._assignment.items()
            if owner == worker % self.base_workers
        )
        parent, child = self._context.Pipe(duplex=True)
        process = self._context.Process(
            target=worker_main,
            args=(str(self.shard_map.path), assigned, child),
            kwargs={
                "mmap": self.config.mmap,
                "shm_threshold": self.config.shm_threshold,
            },
            daemon=True,
            name=f"repro-shard-worker-{worker}",
        )
        process.start()
        child.close()
        return process, _WorkerConnection(worker, parent, process)

    # -- replica routing ---------------------------------------------------------

    def replica_slots(self, shard: int) -> list[int]:
        """The worker slots serving ``shard``, replica 0 first."""
        home = self._assignment[shard]
        return [rank * self.base_workers + home for rank in range(self.replicas)]

    def pick_worker(self, shard: int, exclude: set[int] | None = None) -> int | None:
        """The least-outstanding live replica for ``shard`` (None if all dead).

        ``exclude`` holds *connection identities* (``id(connection)``), not
        slot indices: a slot whose worker has been restarted since a failed
        attempt carries a fresh connection and is eligible again.
        """
        exclude = exclude or set()
        best: tuple[int, int] | None = None
        for slot in self.replica_slots(shard):
            with self._lock:
                if slot in self._failed:
                    continue
            connection = self._connections[slot]
            if id(connection) in exclude:
                continue
            if connection.death is not None or not connection.process.is_alive():
                continue
            load = (connection.outstanding(), slot)
            if best is None or load < best:
                best = load
        return None if best is None else best[1]

    def _await_replica(self, shard: int, attempted: set[int]) -> int | None:
        """Wait briefly for the supervisor to restart a replica of ``shard``.

        Only when self-healing is on: a momentary total outage of a shard's
        replicas (all mid-restart) should stall the request for a beat, not
        surface an error the supervisor is about to make untrue.
        """
        if not self.config.restart_workers:
            return None
        deadline = time.monotonic() + _REPLICA_WAIT_SECONDS
        while time.monotonic() < deadline and not self._closed:
            worker = self.pick_worker(shard, exclude=attempted)
            if worker is not None:
                return worker
            time.sleep(0.02)
        return None

    # -- request multiplexing ----------------------------------------------------

    def begin_request(
        self,
        worker: int | None,
        shard: int,
        message: dict[str, Any],
        transform: Callable[[Any], Any] | None = None,
        *,
        pinned: bool | None = None,
    ) -> _PendingReply:
        """Put one request on a replica's pipe; returns the pending reply.

        ``worker=None`` routes to the least-outstanding live replica of
        ``shard``.  An explicit worker index pins the request to that
        worker (no failover) unless ``pinned=False`` makes it merely the
        preferred first attempt.
        """
        if self._closed:
            raise EngineError("worker pool is closed")
        op = message.get("op")
        if pinned is None:
            pinned = worker is not None
        budget = 0 if pinned else self.config.retry_budget
        attempted: set[int] = set()  # id(connection) per attempt
        while True:
            if worker is None:
                worker = self.pick_worker(shard, exclude=attempted)
                if worker is None:
                    worker = self._await_replica(shard, attempted)
                if worker is None:
                    raise self._no_replica_error(shard, op)
            connection = self._connections[worker]
            attempted.add(id(connection))
            try:
                future = connection.send(message)
                break
            except _WorkerDied as died:
                if pinned or budget <= 0:
                    raise self._died_error(worker, shard, op, str(died)) from died
                budget -= 1
                self._emit(
                    "failover",
                    {
                        "shard": shard,
                        "op": op,
                        "from_worker": worker,
                        "stage": "send",
                        "reason": str(died),
                    },
                )
                worker = None
        return _PendingReply(
            self,
            worker,
            shard,
            op,
            future,
            transform,
            connection=connection,
            message=message,
            pinned=pinned,
            attempted=attempted,
            retries_left=budget,
        )

    def request(self, worker: int, shard: int, message: dict[str, Any]) -> Any:
        """Send one codec frame to ``worker`` (pinned) and wait for its reply."""
        return self.begin_request(worker, shard, message).result()

    def _failover(self, pending: _PendingReply, reason: str) -> bool:
        """Re-route ``pending`` to a surviving replica; False when impossible."""
        if pending.pinned or pending.message is None or self._closed:
            return False
        while pending.retries_left > 0:
            worker = self.pick_worker(pending.shard, exclude=pending.attempted)
            if worker is None:
                worker = self._await_replica(pending.shard, pending.attempted)
            if worker is None:
                return False
            pending.retries_left -= 1
            connection = self._connections[worker]
            pending.attempted.add(id(connection))
            try:
                future = connection.send(pending.message)
            except _WorkerDied:
                continue
            self._emit(
                "failover",
                {
                    "shard": pending.shard,
                    "op": pending.op,
                    "from_worker": pending.worker,
                    "to_worker": worker,
                    "stage": "reply",
                    "reason": reason,
                },
            )
            pending.worker = worker
            pending.connection = connection
            pending._future = future
            return True
        return False

    def _resolve(self, pending: _PendingReply, timeout: float | None) -> dict[str, Any]:
        """Wait for a pending reply's frame and decode it (shm-aware).

        A worker death — or a poisoned connection — triggers transparent
        failover to a surviving replica for un-pinned requests, bounded by
        the retry budget; pinned requests surface the attributed error.
        """
        while True:
            connection = pending.connection or self._connections[pending.worker]
            try:
                kind, body = connection.wait(pending._future, timeout)
            except _WorkerDied as died:
                if self._failover(pending, str(died)):
                    continue
                raise self._died_error(
                    pending.worker, pending.shard, pending.op, str(died)
                ) from died
            try:
                return resolve_tagged(kind, body)
            except EngineError as error:
                # a corrupt reply frame means the transport itself can no
                # longer be trusted: poison the connection so later requests
                # get the clean worker-died error, then fail over if allowed
                connection.mark_dead(f"sent a corrupt reply frame: {error}")
                if self._failover(pending, f"corrupt reply: {error}"):
                    continue
                raise EngineError(
                    f"shard worker {pending.worker} (serving shard {pending.shard}) sent a "
                    f"corrupt reply to {pending.op!r}: {error}; the connection has been "
                    "closed — restart the pool to recover"
                ) from error

    def _unwrap(self, pending: _PendingReply, reply: dict[str, Any]) -> Any:
        if not reply.get("ok"):
            raise EngineError(
                f"shard worker {pending.worker} failed {pending.op!r} for shard "
                f"{pending.shard}: {reply.get('error')}"
            )
        return reply.get("value")

    def _died_error(self, worker: int, shard: int, op: str | None, reason: str) -> EngineError:
        with self._lock:  # a replaced process is closed under the lock
            exitcode = None if self._closed else self._processes[worker].exitcode
        return EngineError(
            f"shard worker {worker} (serving shard {shard}) died "
            f"(exit code {exitcode}) during {op!r}: {reason}; "
            "restart the pool to recover"
        )

    def _no_replica_error(self, shard: int, op: str | None) -> EngineError:
        return EngineError(
            f"every replica serving shard {shard} has died; request {op!r} has no "
            f"surviving worker (replicas={self.replicas}) — waiting for the "
            "supervisor to restart one, or restart the pool to recover"
        )

    # -- self-healing ------------------------------------------------------------

    def _emit(self, name: str, detail: dict[str, Any]) -> None:
        observer = self._observer
        if observer is None:
            return
        try:
            observer(name, dict(detail))
        except Exception:  # noqa: BLE001 - observers must never break serving
            pass

    def _supervise(self) -> None:
        """Health-check loop: detect dead workers, restart with backoff."""
        while not self._stop.wait(self.config.health_interval_seconds):
            if self._closed:
                return
            self._heal(time.monotonic())

    def _heal(self, now: float) -> None:
        for worker in range(self.num_workers):
            if self._closed:
                return
            connection = self._connections[worker]
            dead = connection.death is not None or not connection.process.is_alive()
            if not dead:
                continue
            due = False
            failed_now = False
            scheduled_delay: float | None = None
            with self._lock:
                if worker in self._failed:
                    continue
                count = self._restarts.get(worker, 0)
                if count >= self.config.max_restarts:
                    self._failed[worker] = (
                        f"restart budget exhausted after {count} restarts"
                    )
                    failed_now = True
                else:
                    scheduled = self._restart_at.get(worker)
                    if scheduled is None:
                        scheduled_delay = min(
                            self.config.restart_backoff_cap_seconds,
                            self.config.restart_backoff_seconds * (2**count),
                        )
                        self._restart_at[worker] = now + scheduled_delay
                    else:
                        due = now >= scheduled
            # emit outside the lock: observers may inspect pool state
            if failed_now:
                self._emit(
                    "worker-failed",
                    {"worker": worker, "restarts": self.config.max_restarts},
                )
            elif scheduled_delay is not None:
                self._emit(
                    "worker-dead",
                    {
                        "worker": worker,
                        "reason": connection.death or "process exited",
                        "restart_in_seconds": scheduled_delay,
                    },
                )
            elif due:
                self._restart(worker)

    def _restart(self, worker: int) -> None:
        """Replace slot ``worker``'s process with a fresh one (same shards)."""
        old_connection = self._connections[worker]
        old_process = self._processes[worker]
        old_connection.mark_dead("worker is being restarted")
        old_connection.shutdown()
        if old_process.is_alive():
            old_process.terminate()
        old_process.join(timeout=_JOIN_TIMEOUT_SECONDS)
        process, connection = self._spawn(worker)
        # the slot takes the new worker only once it has answered a ping: a
        # starting worker has nothing outstanding, so least-outstanding
        # routing would queue requests on it while it is still importing —
        # and a failure there costs each of them a retry
        if not self._answers_first_ping(connection):
            connection.mark_dead("did not answer its first ping")
            process.terminate()
        with self._lock:
            self._processes[worker] = process
            self._connections[worker] = connection
            # readers of a slot's process hold the lock, so none still uses it
            _release(old_process)
            self._restarts[worker] = self._restarts.get(worker, 0) + 1
            self._restart_at.pop(worker, None)
            count = self._restarts[worker]
        self._emit("worker-restart", {"worker": worker, "pid": process.pid, "restarts": count})

    def _answers_first_ping(self, connection: _WorkerConnection) -> bool:
        """Whether a just-spawned worker answers a ping before the timeout.

        Gives up early when the pool closes, so ``close()`` never waits on a
        starting worker.
        """
        deadline = time.monotonic() + _READY_TIMEOUT_SECONDS
        try:
            future = connection.send({"op": "ping"})
            while not self._closed and time.monotonic() < deadline:
                try:
                    # resolved, not just received: a shm reply is unlinked here
                    resolve_tagged(*connection.wait(future, _POLL_SECONDS))
                    return True
                except FutureTimeout:
                    continue
        except (_WorkerDied, EngineError):
            pass
        return False

    @property
    def degraded(self) -> bool:
        """True while any worker slot is dead, restarting, or failed."""
        with self._lock:
            if self._failed:
                return True
        for connection in list(self._connections):
            if connection.death is not None or not connection.process.is_alive():
                return True
        return False

    def replication(self) -> dict[str, Any]:
        """Replication + self-healing posture for health/stats endpoints."""
        with self._lock:
            restarts = sum(self._restarts.values())
            failed = sorted(self._failed)
        return {
            "replicas": self.replicas,
            "base_workers": self.base_workers,
            "degraded": self.degraded,
            "restarts": restarts,
            "failed_workers": failed,
            "retry_budget": self.config.retry_budget,
            "self_healing": self.config.restart_workers,
        }

    # -- introspection -----------------------------------------------------------

    def ping(self) -> list[dict[str, Any]]:
        """Liveness info from every worker (pid + assigned shards)."""
        return [
            self.request(worker, -1, {"op": "ping"}) for worker in range(self.num_workers)
        ]

    def liveness(self) -> list[dict[str, Any]]:
        """Per-worker process liveness without a worker round-trip.

        Unlike :meth:`ping` this never blocks on a busy or wedged worker —
        it only inspects the child processes — so health endpoints can call
        it on every request.
        """
        with self._lock:
            restarts = dict(self._restarts)
            failed = dict(self._failed)
        report = []
        for worker in range(self.num_workers):
            connection = self._connections[worker]
            report.append(
                {
                    "worker": worker,
                    "pid": connection.pid,
                    "alive": connection.death is None and connection.process.is_alive(),
                    "shards": sorted(
                        shard
                        for shard, owner in self._assignment.items()
                        if owner == worker % self.base_workers
                    ),
                    "replica": worker // self.base_workers,
                    "restarts": restarts.get(worker, 0),
                    "failed": failed.get(worker),
                }
            )
        return report

    def shard_backends(self) -> list[PoolShard]:
        """One backend proxy per shard, in shard order."""
        return [
            PoolShard(self, self._assignment[shard], shard)
            for shard in self.shard_map.shards()
        ]

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        """Stop the supervisor, ask every worker to exit, then reap."""
        if self._closed:
            return
        self._closed = True
        self._stop.set()
        if self._supervisor is not None:
            # the supervisor may be mid-restart; joining first means the
            # process/connection lists are stable for the sweep below
            self._supervisor.join(timeout=_JOIN_TIMEOUT_SECONDS)
        for connection in self._connections:
            try:
                # wait() (not Future.result) so this thread leads the receive
                # and actually drains the worker's acknowledgement frame, then
                # resolve it: at a low shm_threshold the ack is a shm segment
                # that only its consumer unlinks
                resolve_tagged(
                    *connection.wait(connection.send({"op": "close"}), _JOIN_TIMEOUT_SECONDS)
                )
            except Exception:  # noqa: BLE001 - the worker may already be gone
                pass
            finally:
                # dead before its process is closed: readers check death first
                connection.mark_dead("the pool is closed")
                connection.shutdown()
        for process in self._processes:
            process.join(timeout=_JOIN_TIMEOUT_SECONDS)
            if process.is_alive():  # pragma: no cover - stuck worker safety net
                process.terminate()
                process.join(timeout=_JOIN_TIMEOUT_SECONDS)
            _release(process)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def _release(process: Any) -> None:
    """Close an exited worker's ``Process``: its two pipe fds otherwise stay
    open until the object is garbage-collected."""
    if not process.is_alive():  # close() refuses a process that still runs
        process.close()
