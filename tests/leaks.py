"""A leak gate: after each test, nothing it started may still be around.

Checked once the test and its fixtures have torn down, with a grace period
for processes and threads that are already on their way out: no new child
process of this one, no new ``repro-*`` thread and no new ``/dev/shm/psm_*``
shared-memory segment.  Import :func:`no_leaked_resources` into a
directory's ``conftest.py`` to apply it to every test there.
"""

from __future__ import annotations

import glob
import os
import threading
import time
from multiprocessing import resource_tracker

import pytest

GRACE_SECONDS = 2.0


def _running_children() -> set[int]:
    children: set[int] = set()
    for path in glob.glob(f"/proc/{os.getpid()}/task/*/children"):
        try:
            with open(path) as handle:
                children.update(int(pid) for pid in handle.read().split())
        except OSError:  # the thread exited while we looked
            continue
    running = set()
    for pid in children:
        try:
            with open(f"/proc/{pid}/stat") as handle:
                # the state follows the parenthesised command name; Z is exited
                state = handle.read().rsplit(")", 1)[1].split()[0]
        except (OSError, IndexError):
            continue
        if state != "Z":
            running.add(pid)
    # the resource tracker lives as long as this process, by design
    return running - {resource_tracker._resource_tracker._pid}


def _repro_threads() -> set[str]:
    return {
        f"{thread.name} ({thread.ident})"
        for thread in threading.enumerate()
        if thread.name.startswith("repro-") and thread.is_alive()
    }


def _shm_segments() -> set[str]:
    return set(glob.glob("/dev/shm/psm_*"))


def _resources() -> dict[str, set]:
    return {
        "child processes": _running_children(),
        "repro-* threads": _repro_threads(),
        "/dev/shm/psm_* segments": _shm_segments(),
    }


def _leaks(before: dict[str, set]) -> dict[str, set]:
    return {
        kind: found - before[kind]
        for kind, found in _resources().items()
        if found - before[kind]
    }


@pytest.fixture(autouse=True)
def no_leaked_resources():
    before = _resources()
    yield
    deadline = time.monotonic() + GRACE_SECONDS
    leaks = _leaks(before)
    while leaks and time.monotonic() < deadline:
        time.sleep(0.05)
        leaks = _leaks(before)
    assert not leaks, f"left behind after the test: {leaks}"
