"""The shared benchmark-artifact writer: one ``BENCH_<id>.json`` per benchmark.

Every benchmark's output — the :class:`~repro.bench.reporting.ResultTable`
sweeps it prints and any headline metrics it reports — lands in
``$BENCH_ARTIFACT_DIR`` (default: ``bench-artifacts/`` under the current
directory, which is git-ignored) as ``BENCH_E10.json``, ``BENCH_A2.json``,
… so every run's numbers are machine-readable files CI can archive and
diff, without a test run ever rewriting tracked files.

Tables are collected automatically: the autouse fixture in
``benchmarks/conftest.py`` records every ``ResultTable.print()`` call and
appends the tables to the module's artifact.  Benchmarks with scalar
acceptance numbers additionally call :func:`write_metrics` themselves.

The first write of a session truncates each artifact, so files never
accumulate stale runs.
"""

from __future__ import annotations

import json
import os
import re
from pathlib import Path
from typing import Any

_MODULE_ID = re.compile(r"test_([ae]\d+)", re.IGNORECASE)

#: artifacts truncated (fresh) so far in this interpreter session
_fresh: set[str] = set()


def artifact_dir() -> Path:
    return Path(os.environ.get("BENCH_ARTIFACT_DIR", "bench-artifacts"))


def benchmark_id(module_name: str) -> str | None:
    """``benchmarks.test_e10_topk`` → ``E10``; ``None`` for non-benchmarks."""
    match = _MODULE_ID.search(module_name.rsplit(".", 1)[-1])
    return match.group(1).upper() if match else None


def _artifact_path(bench_id: str) -> Path:
    return artifact_dir() / f"BENCH_{bench_id}.json"


def _load(bench_id: str) -> dict[str, Any]:
    path = _artifact_path(bench_id)
    if bench_id in _fresh and path.exists():
        try:
            return json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            pass
    return {"benchmark": bench_id, "tables": [], "metrics": {}}


def _store(bench_id: str, payload: dict[str, Any]) -> Path:
    path = _artifact_path(bench_id)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True), encoding="utf-8")
    _fresh.add(bench_id)
    return path


def append_tables(bench_id: str, tables: list[Any]) -> Path:
    """Append printed result tables to the benchmark's artifact."""
    payload = _load(bench_id)
    for table in tables:
        payload["tables"].append(
            {"title": table.title, "columns": list(table.columns), "rows": table.rows}
        )
    return _store(bench_id, payload)


def write_metrics(bench_id: str, metrics: dict[str, Any]) -> Path:
    """Merge headline metrics (acceptance numbers) into the artifact."""
    payload = _load(bench_id)
    payload["metrics"].update(metrics)
    return _store(bench_id, payload)


def latency_summary(latencies_ms: list[float]) -> dict[str, float]:
    """Round-tripped p50/p95/p99/mean for a latency sample, in milliseconds.

    One convention for every benchmark artifact: the nearest-rank
    percentiles from :func:`repro.workload.log.latency_percentiles`,
    rounded for stable, diffable JSON.
    """
    from repro.workload.log import latency_percentiles

    return {
        key: round(value, 3)
        for key, value in latency_percentiles(list(latencies_ms)).items()
    }
