"""E14: the repository's end-to-end benchmark (see README.md next to this file).

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1 [--quick]

boots the real stack, drives one named workload (or all four when
``--workload`` is omitted), checks answers against a local reference engine
and prints every metric by name with its unit.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` — the end-to-end metrics of BENCHMARK.json with ``--trace 0``,
its per-layer metrics with ``--trace 1``.

The script defines the benchmark; it claims no gain (every record it writes
ends with ``"claim": null``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SOURCE_DIR = ROOT / "src"
RESULTS_DIR = HERE / "results"
HISTORY_LIMIT = 400  # records kept in results/history.jsonl
SUPERVISED = "E2E_SUPERVISED"  # set in the environment of the child that runs the workload
WATCHDOG_SECONDS = 170  # a run that has not ended by then is stopped (the driver allows 180)


def log(message: str) -> None:
    print(f"[e2e] {message}", file=sys.stderr, flush=True)


def cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def calibration() -> dict[str, float]:
    """Two fixed kernels timed on this box, so numbers from different boxes
    (or a noisy moment on the same box) can be told apart from code changes."""
    import numpy as np

    values = np.random.default_rng(0).random(1_000_000)
    numpy_times, python_times = [], []
    for _ in range(3):
        started = time.perf_counter()
        np.sort(values)
        numpy_times.append(time.perf_counter() - started)
        started = time.perf_counter()
        total = 0
        for number in range(500_000):
            total += number
        python_times.append(time.perf_counter() - started)
    return {
        "numpy_sort_1m_ms": min(numpy_times) * 1000.0,
        "python_loop_500k_ms": min(python_times) * 1000.0,
    }


def environment() -> dict[str, Any]:
    import numpy

    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or "unknown"
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "cores": cores(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "commit": commit,
        "calibration": calibration(),
    }


def append_history(record: dict[str, Any], path: Path) -> None:
    """Append one record; the file keeps its last ``HISTORY_LIMIT`` records."""
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = path.read_text().splitlines() if path.exists() else []
    lines.append(json.dumps(record))
    path.write_text("\n".join(lines[-HISTORY_LIMIT:]) + "\n")


def declared_metrics(trace: bool) -> list[dict[str, Any]]:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return declared["per_layer" if trace else "end_to_end"]


def print_result(result: dict[str, Any]) -> None:
    name = result["workload"]
    print(f"== {name} seed={result['seed']} trace={int(result['trace'])} ==")
    print(f"schedule_hash  {result['schedule_hash']}")
    if "results_digest" in result:
        complete = "" if result.get("digest_complete") else "  (partial: run too short)"
        print(f"results_digest {result['results_digest']}{complete}")
    print(
        f"attempted {result['attempted']}  succeeded {result['attempted'] - result['failed']}"
        f"  failed {result['failed']}  correct {result['correct']}"
    )
    for section in ("metrics", "detail"):
        for metric, entry in result.get(section, {}).items():
            if isinstance(entry, dict) and "value" in entry:
                count = f"  n={entry['n']}" if "n" in entry else ""
                print(f"{metric:<44} {entry['value']:>14.4f} {entry['unit']}{count}")


def contract_line(result: dict[str, Any], trace: bool) -> str:
    """The driver's result line: exactly the metrics BENCHMARK.json declares."""
    metrics = {}
    for declared in declared_metrics(trace):
        entry = result["metrics"][declared["name"]]
        metrics[declared["name"]] = {"value": entry["value"], "unit": declared["unit"]}
    return json.dumps(
        {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics,
        }
    )


def _become_subreaper() -> bool:
    """Make this process adopt every orphaned descendant (Linux prctl), so a
    worker that outlives its coordinator becomes our child and can be waited for."""
    try:
        import ctypes

        pr_set_child_subreaper = 36
        return ctypes.CDLL(None, use_errno=True).prctl(pr_set_child_subreaper, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):  # pragma: no cover - non-Linux
        return False


def _reap(blocking: bool) -> bool:
    """Wait for one ended child (own or adopted); False when there is none."""
    try:
        pid, _status = os.waitpid(-1, 0 if blocking else os.WNOHANG)
    except ChildProcessError:
        return False
    return pid != 0


def _stop_descendants(grace: float = 3.0) -> list[int]:
    """Leave no process behind: give what the run left over ``grace`` seconds to
    end by itself (a multiprocessing resource tracker unlinks its shared-memory
    segments once its owners are gone), kill the rest, and wait for every one
    of them.  Returns the pids that had to be killed."""
    from server import alive_pid, descendants

    deadline = time.perf_counter() + grace
    killed: list[int] = []
    while True:
        while _reap(blocking=False):
            pass
        live = [pid for pid in descendants(os.getpid()) if alive_pid(pid)]
        if not live:
            break
        if time.perf_counter() >= deadline:
            for pid in live:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            killed.extend(pid for pid in live if pid not in killed)
        time.sleep(0.02)
    while _reap(blocking=True):  # only ended children are left to wait for
        pass
    return killed


class _Interrupted(Exception):
    pass


def supervise(argv: list[str]) -> int:
    """Run one workload in a child process and outlive everything it starts.

    A workload starts a server that starts workers that start a resource
    tracker.  Whichever way the run ends (result, exception, signal, watchdog)
    this process, which adopts their orphans, stops what is left and waits
    until each has ended before it exits itself, so nothing a run started is
    still there when the next run begins.
    """

    def interrupt(signum, _frame):
        raise _Interrupted(signal.Signals(signum).name)

    interrupts = (signal.SIGTERM, signal.SIGINT, signal.SIGHUP, signal.SIGALRM)
    adopting = _become_subreaper()
    for signum in interrupts:
        signal.signal(signum, interrupt)
    signal.alarm(WATCHDOG_SECONDS)
    status = None
    child = None
    try:
        child = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), *argv],
            env={**os.environ, SUPERVISED: "1"},
        )
        while status is None:  # also reaps adopted orphans as stopped servers leave them
            pid, raw = os.waitpid(-1, 0)
            if pid == child.pid:
                status = os.waitstatus_to_exitcode(raw)
    except _Interrupted as reason:
        log(f"{reason}: stopping the run")
    finally:
        for signum in interrupts:
            signal.signal(signum, signal.SIG_IGN)
        if child is not None:
            if status is None:
                child.kill()
            child.returncode = status if status is not None else -signal.SIGKILL
        killed = _stop_descendants(grace=3.0 if status is not None else 0.0)
        if child is not None:  # an interrupted child leaves its scratch space behind
            shutil.rmtree(HERE / ".work" / f"run-{child.pid}", ignore_errors=True)
        if killed:
            log(f"{len(killed)} process(es) outlived the run and were killed: {killed}")
        if not adopting:
            log("warning: not a subreaper here; an orphan of the run may outlive it")
    if status is None:
        return 3
    return status if status >= 0 else 128 - status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0)
    parser.add_argument("--quick", action="store_true",
                        help="300-lot corpora, one set-up, 1 s per workload (the smoke test)")
    parser.add_argument("--out", type=Path, default=RESULTS_DIR / "history.jsonl",
                        help="JSON-lines file the run's records are appended to")
    args = parser.parse_args()

    program = (SOURCE_DIR / "repro" / "__init__.py").is_file()
    if not program or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: {ROOT} holds no program to benchmark (src/repro is missing)",
              file=sys.stderr)
        return 2
    if cores() < 2:
        print("error: the benchmark needs at least 2 cores (load generator + server)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE_DIR))

    import tracing
    import workloads

    if args.workload == "all":
        return run_all(args, list(workloads.RUNNERS))
    if os.environ.get(SUPERVISED) != "1":
        return supervise(sys.argv[1:])
    if args.workload not in workloads.RUNNERS:
        print(f"error: unknown workload {args.workload!r}; known: {list(workloads.RUNNERS)}",
              file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds
    if seconds is None:
        seconds = 1.0 if args.quick else declared["run_seconds"]
    trace = bool(args.trace)
    work_dir = HERE / ".work" / f"run-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    stamp = environment()
    log(f"cores={stamp['cores']} python={stamp['python']} numpy={stamp['numpy']} "
        f"commit={stamp['commit'][:12]} calibration={stamp['calibration']}")
    ctx = workloads.Context(
        seed=args.seed,
        seconds=seconds,
        sizes=workloads.QUICK if args.quick else workloads.FULL,
        work_dir=work_dir,
        results_dir=args.out.parent,
        source_dir=SOURCE_DIR,
        log=log,
    )
    started = time.perf_counter()
    try:
        result = (tracing.TRACERS if trace else workloads.RUNNERS)[args.workload](ctx)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    result.update(trace=trace, seconds=seconds, quick=args.quick,
                  wall_s=time.perf_counter() - started)
    print_result(result)
    append_history({**result, "environment": stamp, "claim": None}, args.out)
    print(contract_line(result, trace))
    return 0 if result["correct"] else 1


def run_all(args: argparse.Namespace, names: list[str]) -> int:
    """Every workload in turn, each in a fresh process (as the driver runs them),
    so one workload's memory and caches never show in the next one's numbers."""
    forwarded = ["--seed", str(args.seed), "--trace", str(args.trace), "--out", str(args.out)]
    if args.seconds is not None:
        forwarded += ["--seconds", str(args.seconds)]
    if args.quick:
        forwarded.append("--quick")
    lines, status = {}, 0
    for name in names:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, *forwarded],
            stdout=subprocess.PIPE, text=True,
        )
        *report, last = done.stdout.strip().splitlines() or [""]
        print("\n".join(report))
        if done.returncode != 0:
            status = 1
            continue
        lines[name] = json.loads(last)
    print(json.dumps({"workloads": lines, "claim": None}))
    return status


if __name__ == "__main__":  # workers use the spawn start method and re-import __main__
    raise SystemExit(main())
