"""Lifecycle of the server under test: ``python -m repro serve`` as a subprocess.

Two things found while probing are handled here and logged in FINDINGS.md:
the launch uses ``python -u`` because the JSON banner is block-buffered on a
pipe (a reader would wait forever), and callers close their keep-alive
connections *before* :meth:`ServerProcess.stop`, because shutting down with
one open logs a ``CancelledError`` traceback.

The server runs in its own session so the whole process group (coordinator,
workers, the multiprocessing resource tracker) can be killed together;
:meth:`ServerProcess.stop` then reports any survivor or leaked ``/dev/shm``
segment.  Workers whose coordinator has gone are orphans; ``run.py``'s
supervisor adopts them and waits for each, so none is left even as a zombie.
"""

from __future__ import annotations

import json
import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

from loadgen import HttpClient

_SHM_DIR = Path("/dev/shm")


def _shm_segments() -> set[str]:
    try:
        return set(os.listdir(_SHM_DIR))
    except OSError:
        return set()


def descendants(root: int) -> list[int]:
    """Every live descendant pid of ``root`` (Linux ``/proc``; empty elsewhere)."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:
            continue
        # the command name is parenthesised and may contain spaces
        parent = int(stat.rsplit(")", 1)[1].split()[1])
        children.setdefault(parent, []).append(int(entry))
    found, frontier = [], [root]
    while frontier:
        pid = frontier.pop()
        for child in children.get(pid, []):
            found.append(child)
            frontier.append(child)
    return found


def peak_rss_mb(pids: list[int]) -> float:
    """Sum of the peak resident set sizes (``VmHWM``) of ``pids``, in MiB."""
    total_kb = 0
    for pid in pids:
        try:
            status = Path("/proc", str(pid), "status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
    return total_kb / 1024.0


class ServerProcess:
    """One running ``repro serve`` over a sharded snapshot."""

    def __init__(
        self, snapshot: Path, work_dir: Path, source_dir: Path, cpus: set[int] | None = None
    ):
        """``cpus`` confines the server and everything it starts to those cores."""
        self._shm_before = _shm_segments()
        self._log = open(work_dir / "server.stderr.log", "ab")  # noqa: SIM115 - closed in stop()
        env = dict(os.environ, PYTHONPATH=str(source_dir), TMPDIR=str(work_dir))
        own_cpus = os.sched_getaffinity(0)
        if cpus:  # a child inherits the mask of the thread that starts it
            os.sched_setaffinity(0, cpus)
        try:
            self.process = subprocess.Popen(
                [
                    sys.executable, "-u", "-m", "repro", "serve",
                    "--from-snapshot", str(snapshot),
                    "--json", "--port", "0", "--max-concurrent", "2",
                ],
                stdout=subprocess.PIPE,
                stderr=self._log,
                env=env,
                start_new_session=True,
            )
        finally:
            os.sched_setaffinity(0, own_cpus)
        self._pids: list[int] = [self.process.pid]
        self.info: dict[str, Any] = {}
        self.address: tuple[str, int] = ("127.0.0.1", 0)

    def wait_ready(self, timeout: float = 60.0) -> None:
        """Read the JSON banner, then poll ``/healthz`` until the server answers."""
        deadline = time.perf_counter() + timeout
        stream = self.process.stdout
        banner = b""
        while True:
            remaining = deadline - time.perf_counter()
            if remaining <= 0 or self.process.poll() is not None:
                self.stop()
                raise RuntimeError(f"server did not print its banner: {banner[-500:]!r}")
            if select.select([stream], [], [], min(remaining, 0.5))[0]:
                banner += os.read(stream.fileno(), 65536)
                try:
                    self.info = json.loads(banner)
                    break
                except json.JSONDecodeError:
                    continue
        host, port = self.info["endpoint"].rsplit("/", 1)[1].rsplit(":", 1)
        self.address = (host, int(port))
        while True:
            client = HttpClient(self.address, timeout=5.0)
            try:
                status, health = client.get("/healthz")
                if status == 200 and health.get("ok"):
                    return
            except OSError:
                pass
            finally:
                client.close()
            if time.perf_counter() > deadline:
                self.stop()
                raise RuntimeError("server never answered /healthz")
            time.sleep(0.02)

    def pids(self) -> list[int]:
        """The coordinator and every descendant seen so far (workers spawn lazily)."""
        known = set(self._pids)
        self._pids.extend(pid for pid in descendants(self.process.pid) if pid not in known)
        return list(self._pids)

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.pids())

    def stop(self) -> dict[str, Any]:
        """Kill the process group and report survivors and leaked shm segments."""
        pids = self.pids() if self.process.poll() is None else list(self._pids)
        try:
            os.killpg(self.process.pid, signal.SIGTERM)
        except ProcessLookupError:
            pass
        try:
            self.process.wait(timeout=5.0)
        except subprocess.TimeoutExpired:
            pass
        survivors = _wait_gone(pids, 5.0)
        if survivors:
            for pid in survivors:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            _wait_gone(survivors, 5.0)
        self.process.wait()
        if self.process.stdout is not None:
            self.process.stdout.close()
        self._log.close()
        return {
            "needed_sigkill": survivors,
            "leaked_shm": sorted(_shm_segments() - self._shm_before),
        }


def _wait_gone(pids: list[int], timeout: float) -> list[int]:
    """Poll until every pid has ended (they are not our children, so no ``wait``);
    returns the ones still alive at the deadline."""
    deadline = time.perf_counter() + timeout
    alive = [pid for pid in pids if alive_pid(pid)]
    while alive and time.perf_counter() < deadline:
        time.sleep(0.02)
        alive = [pid for pid in alive if alive_pid(pid)]
    return alive


def alive_pid(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie waiting to be reaped."""
    try:
        stat = Path("/proc", str(pid), "stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"
