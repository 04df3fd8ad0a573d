"""An asyncio HTTP/1.1 front end over the router's admission queue.

The original front end was a ``ThreadingHTTPServer`` — one OS thread per
connection, spawned at accept time, which under concurrent load costs a
thread stack and a scheduler entry per idle keep-alive connection.  This
module replaces it with a single-threaded asyncio accept/parse loop:
connections are coroutines (cheap, no stack per connection), requests are
parsed and **admission-checked on the event loop**, and only admitted work
crosses into a small thread pool where the blocking engine call runs.

Overload therefore sheds at the socket, immediately: a ``503`` is written
without ever touching the executor, so a flood of requests cannot exhaust
threads before the admission queue says no — the failure the old
thread-per-connection design had by construction.

The public surface mimics exactly the ``ThreadingHTTPServer`` contract the
CLI, tests and smoke scripts already use: :attr:`server_address` is
resolved at construction (so ``port=0`` callers learn the bound port before
starting), :meth:`serve_forever` blocks the calling thread,
:meth:`shutdown` (thread-safe) stops the loop and waits for it, and
:meth:`server_close` releases the listening socket.

Error taxonomy (mirrors :class:`~repro.serving.router.Router`):

* ``400`` — client errors: malformed JSON, a malformed ``Content-Length``
  header, missing required fields (named in the error)
* ``404`` — unknown path
* ``413`` — request body larger than :data:`MAX_BODY_BYTES`
* ``503`` — admission queue full (shed before execution)
* ``500`` — unexpected engine-side failures
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover
    from repro.serving.router import Router

#: request bodies above this are refused with a 413 before being read
MAX_BODY_BYTES = 64 * 1024 * 1024

#: maximum size of the request line + headers block
MAX_HEADER_BYTES = 64 * 1024


class AsyncHTTPFrontEnd:
    """Asyncio HTTP server with a ``ThreadingHTTPServer``-shaped facade."""

    def __init__(
        self,
        router: "Router",
        host: str = "127.0.0.1",
        port: int = 8080,
        *,
        max_workers: int | None = None,
    ):
        self._router = router
        # bind synchronously so port=0 resolves before serve_forever starts
        self._socket = socket.create_server((host, port), backlog=128)
        self.server_address = self._socket.getsockname()[:2]
        # size the blocking-call pool from the deployment's ServingConfig:
        # max_concurrent admitted requests plus slack for /healthz and /statz
        # probes, which must keep answering while every slot is busy
        configured = getattr(router, "config", None)
        admitted = configured.max_concurrent if configured is not None else router.max_concurrent
        workers = max_workers if max_workers is not None else admitted + 4
        self._executor = ThreadPoolExecutor(
            max_workers=max(2, workers), thread_name_prefix="repro-serve"
        )
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._readers: dict[asyncio.Task, asyncio.StreamReader] = {}
        self._started = threading.Event()
        self._finished = threading.Event()
        self._closed = False

    # -- lifecycle (the ThreadingHTTPServer contract) -----------------------------

    def serve_forever(self) -> None:
        """Run the accept loop on the calling thread until :meth:`shutdown`."""
        asyncio.run(self._main())

    def shutdown(self) -> None:
        """Stop the accept loop from any thread; blocks until it exits."""
        loop, stop = self._loop, self._stop
        if loop is not None and stop is not None and not self._finished.is_set():
            try:
                loop.call_soon_threadsafe(stop.set)
            except RuntimeError:  # pragma: no cover - loop already closed
                pass
        if self._started.is_set():
            self._finished.wait(timeout=10.0)

    def server_close(self) -> None:
        """Release the listening socket and the worker threads."""
        if self._closed:
            return
        self._closed = True
        try:
            self._socket.close()
        except OSError:  # pragma: no cover - already closed
            pass
        self._executor.shutdown(wait=False)

    # -- the event loop -----------------------------------------------------------

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        server = await asyncio.start_server(
            self._serve_connection, sock=self._socket, limit=MAX_HEADER_BYTES
        )
        self._started.set()
        try:
            async with server:
                await self._stop.wait()
                # keep-alive clients may still hold connections open: stop
                # accepting, end every connection's input and let its task
                # finish (a request in flight is still answered), so none is
                # left for asyncio.run to cancel, and log, on the way out
                server.close()
                for reader in self._readers.values():
                    reader.feed_eof()
                await asyncio.gather(*self._readers, return_exceptions=True)
        finally:
            self._finished.set()

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._readers[task] = reader
        try:
            while True:
                keep_alive = await self._serve_one(reader, writer)
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-request
        finally:
            self._readers.pop(task, None)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - teardown race
                pass

    async def _serve_one(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> bool:
        """Parse and answer one request; returns whether to keep the connection."""
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError as partial:
            if partial.partial:
                raise  # mid-request EOF: drop the connection
            return False  # clean close between requests
        except asyncio.LimitOverrunError:
            await self._respond(
                writer,
                {"ok": False, "status": 400, "error": "request headers too large"},
                keep_alive=False,
            )
            return False
        try:
            method, path, headers = _parse_head(head)
        except ValueError as error:
            await self._respond(
                writer, {"ok": False, "status": 400, "error": str(error)}, keep_alive=False
            )
            return False
        keep_alive = headers.get("connection", "").lower() != "close"

        raw_length = headers.get("content-length", "0")
        try:
            length = int(raw_length)
            if length < 0:
                raise ValueError
        except ValueError:
            # a malformed header is a client error, not a server crash
            await self._respond(
                writer,
                {
                    "ok": False,
                    "status": 400,
                    "error": f"malformed Content-Length header: {raw_length!r}",
                },
                keep_alive=False,
            )
            return False
        if length > MAX_BODY_BYTES:
            await self._respond(
                writer,
                {
                    "ok": False,
                    "status": 413,
                    "error": f"request body of {length} bytes exceeds {MAX_BODY_BYTES}",
                },
                keep_alive=False,
            )
            return False
        body = await reader.readexactly(length) if length else b""

        payload = await self._route(method, path, body)
        await self._respond(writer, payload, keep_alive=keep_alive)
        return keep_alive

    async def _route(self, method: str, path: str, body: bytes) -> dict[str, Any]:
        from repro.serving.router import _jsonable

        router = self._router
        loop = asyncio.get_running_loop()
        if method == "GET" and path == "/healthz":
            return _jsonable(await loop.run_in_executor(self._executor, router.health))
        if method == "GET" and path == "/statz":
            return _jsonable(await loop.run_in_executor(self._executor, router.stats))
        if method == "POST" and path == "/query":
            try:
                request = json.loads(body or b"{}")
            except json.JSONDecodeError as error:
                return {"ok": False, "status": 400, "error": f"invalid JSON: {error}"}
            if not isinstance(request, dict):
                return {
                    "ok": False,
                    "status": 400,
                    "error": "request body must be a JSON object",
                }
            # admission happens here, on the event loop: overload is answered
            # with a 503 without consuming an executor thread
            if not router._admit():
                return router._overloaded()
            return await loop.run_in_executor(
                self._executor, router._run_admitted, request
            )
        return {"ok": False, "status": 404, "error": "unknown path"}

    async def _respond(
        self, writer: asyncio.StreamWriter, payload: dict[str, Any], *, keep_alive: bool
    ) -> None:
        status = payload.get("status", 200) if not payload.get("ok") else 200
        body = json.dumps(payload).encode("utf-8")
        # shed responses tell well-behaved clients (including the replay
        # load generator) when to come back instead of hammering the queue
        retry_after = "Retry-After: 1\r\n" if status == 503 else ""
        writer.write(
            (
                f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"{retry_after}"
                f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
                "\r\n"
            ).encode("ascii")
            + body
        )
        await writer.drain()


_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


def _parse_head(head: bytes) -> tuple[str, str, dict[str, str]]:
    """Parse the request line + headers; raises ``ValueError`` on malformed input."""
    try:
        text = head.decode("latin-1")
    except UnicodeDecodeError as error:  # pragma: no cover - latin-1 never fails
        raise ValueError(f"undecodable request head: {error}") from error
    lines = text.split("\r\n")
    parts = lines[0].split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/"):
        raise ValueError(f"malformed request line: {lines[0]!r}")
    method, path, _version = parts
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, separator, value = line.partition(":")
        if not separator:
            raise ValueError(f"malformed header line: {line!r}")
        headers[name.strip().lower()] = value.strip()
    return method, path, headers
