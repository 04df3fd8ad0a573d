"""The workload log: a bounded ring buffer of structured query records.

Every executed query — SpinQL/builder plans, keyword searches, strategy
runs, serving-router requests — appends one :class:`WorkloadRecord` to the
engine's :class:`WorkloadLog`.  The log is the observability substrate the
rest of :mod:`repro.workload` feeds on: the replay harness rebuilds request
templates from the ``request`` payloads.

Design constraints (RL006 enforces the first two repo-wide):

* **bounded** — the buffer is a ``collections.deque(maxlen=capacity)``;
  a long-running server can never grow it without bound.  Records evicted
  from the ring are still counted (``statistics()["appended"]``) and, with
  a JSONL sink attached, still on disk.
* **lock-guarded** — one engine is shared by many threads; every mutation
  (sequence assignment, append, sink write) runs under one lock.
* **no wall clock** — records carry a monotonic sequence number instead of
  a timestamp, so a replayed log is byte-identical run to run (RL004's
  no-wall-clock rule extends to this package).  Latencies are measured by
  callers with ``time.perf_counter``.
"""

from __future__ import annotations

import json
import threading
from collections import Counter, deque
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, IO

#: the shape every record serialises to; see the stability note in ``repro``.
#: v2 (additive, 1.8): ``collapsed`` — "leader"/"follower" under the 1.8–4.x
#: in-flight request collapsing; 5.0 removed collapsing and leaves it ``None``.
#: ``cost_units`` held a plan's per-operator cost-model units before 8.0,
#: which removed the cost model and leaves it ``{}``
RECORD_SCHEMA_VERSION = 2

DEFAULT_CAPACITY = 2048


@dataclass(frozen=True)
class WorkloadRecord:
    """One executed request, as the engine saw it.

    ``request`` is the replayable payload (the same dict shapes the serving
    router accepts), present for the front-end kinds the replay harness can
    re-issue; internal evaluations carry ``None``.
    """

    seq: int
    kind: str  # "plan" | "search" | "strategy" | "serve"
    fingerprint: str
    latency_ms: float
    rows_out: int | None = None
    rows_in: int | None = None
    parameters: str | None = None  # binding fingerprint, if any were bound
    request: dict[str, Any] | None = None
    result_cache: str | None = None  # "hit" | "miss" | "bypass" | None (off)
    executor: str | None = None
    shard_fanout: int = 0
    status: str = "ok"
    cost_units: dict[str, float] = field(default_factory=dict)
    collapsed: str | None = None  # "leader" | "follower" in logs written before 5.0

    def to_dict(self) -> dict[str, Any]:
        payload = asdict(self)
        payload["v"] = RECORD_SCHEMA_VERSION
        return payload

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "WorkloadRecord":
        known = set(cls.__dataclass_fields__)
        return cls(**{key: value for key, value in payload.items() if key in known})


class WorkloadLog:
    """A thread-safe ring buffer of :class:`WorkloadRecord` entries.

    The ring keeps the most recent ``capacity`` records; ``attach_sink``
    additionally streams every record to a JSONL file as it is appended,
    so a full trace survives the ring's eviction.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY, *, sink: str | Path | None = None):
        if capacity < 1:
            raise ValueError("workload log capacity must be >= 1")
        self.capacity = capacity
        self._records: deque[WorkloadRecord] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._next_seq = 0
        self._appended = 0
        self._sink: IO[str] | None = None
        self._sink_path: Path | None = None
        if sink is not None:
            self.attach_sink(sink)

    # -- recording ---------------------------------------------------------------

    def record(self, kind: str, fingerprint: str, latency_ms: float, **fields: Any) -> WorkloadRecord:
        """Append one record; the sequence number is assigned atomically."""
        with self._lock:
            entry = WorkloadRecord(
                seq=self._next_seq,
                kind=kind,
                fingerprint=fingerprint,
                latency_ms=float(latency_ms),
                **fields,
            )
            self._next_seq += 1
            self._appended += 1
            self._records.append(entry)
            if self._sink is not None:
                self._sink.write(json.dumps(entry.to_dict(), sort_keys=True) + "\n")
                self._sink.flush()
        return entry

    # -- sinks -------------------------------------------------------------------

    def attach_sink(self, path: str | Path) -> None:
        """Stream every future record to ``path`` as JSON lines (appending)."""
        with self._lock:
            if self._sink is not None:
                self._sink.close()
            self._sink_path = Path(path)
            self._sink = self._sink_path.open("a", encoding="utf-8")

    def close(self) -> None:
        """Detach and close the sink, if any; the ring stays readable."""
        with self._lock:
            if self._sink is not None:
                self._sink.close()
                self._sink = None
                self._sink_path = None

    # -- reading -----------------------------------------------------------------

    def snapshot(self) -> list[WorkloadRecord]:
        """The ring's current records, oldest first."""
        with self._lock:
            return list(self._records)

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def statistics(self) -> dict[str, Any]:
        with self._lock:
            return {
                "capacity": self.capacity,
                "size": len(self._records),
                "appended": self._appended,
                "evicted": self._appended - len(self._records),
                "sink": str(self._sink_path) if self._sink_path is not None else None,
            }

    def export(self, path: str | Path) -> Path:
        """Write the ring's current records to ``path`` as JSON lines."""
        records = self.snapshot()
        target = Path(path)
        with target.open("w", encoding="utf-8") as handle:
            for entry in records:
                handle.write(json.dumps(entry.to_dict(), sort_keys=True) + "\n")
        return target

    def summary(self, *, top: int = 10) -> dict[str, Any]:
        """Aggregate statistics over the ring (see :func:`summarize`)."""
        payload = summarize(self.snapshot(), top=top)
        payload["log"] = self.statistics()
        return payload

    def top_fingerprints(self, n: int = 10) -> list[dict[str, Any]]:
        return top_fingerprints(self.snapshot(), n)


# ---------------------------------------------------------------------------
# standalone record analytics (shared by WorkloadLog, the CLI, and tests)
# ---------------------------------------------------------------------------


def load_records(path: str | Path) -> list[WorkloadRecord]:
    """Read a JSONL export (``WorkloadLog.export`` or a sink file)."""
    records = []
    with Path(path).open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(WorkloadRecord.from_dict(json.loads(line)))
    return records


def latency_percentiles(latencies_ms: list[float]) -> dict[str, float]:
    """Nearest-rank p50/p95/p99 plus the mean, in milliseconds."""
    if not latencies_ms:
        return {"p50_ms": 0.0, "p95_ms": 0.0, "p99_ms": 0.0, "mean_ms": 0.0}
    ordered = sorted(latencies_ms)

    def rank(q: float) -> float:
        index = max(0, min(len(ordered) - 1, round(q * (len(ordered) - 1))))
        return float(ordered[index])

    return {
        "p50_ms": rank(0.50),
        "p95_ms": rank(0.95),
        "p99_ms": rank(0.99),
        "mean_ms": float(sum(ordered) / len(ordered)),
    }


def top_fingerprints(records: list[WorkloadRecord], n: int = 10) -> list[dict[str, Any]]:
    """The ``n`` most frequent fingerprints with count and latency totals."""
    counts: Counter[str] = Counter(entry.fingerprint for entry in records)
    totals: dict[str, float] = {}
    kinds: dict[str, str] = {}
    for entry in records:
        totals[entry.fingerprint] = totals.get(entry.fingerprint, 0.0) + entry.latency_ms
        kinds.setdefault(entry.fingerprint, entry.kind)
    ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))[:n]
    return [
        {
            "fingerprint": fingerprint,
            "kind": kinds[fingerprint],
            "count": count,
            "total_ms": totals[fingerprint],
            "mean_ms": totals[fingerprint] / count,
        }
        for fingerprint, count in ranked
    ]


def summarize(records: list[WorkloadRecord], *, top: int = 10) -> dict[str, Any]:
    """Counts, latency percentiles, cache hit rates and hot fingerprints."""
    by_kind = Counter(entry.kind for entry in records)
    by_status = Counter(entry.status for entry in records)
    cache = Counter(entry.result_cache for entry in records if entry.result_cache)
    lookups = cache.get("hit", 0) + cache.get("miss", 0)
    return {
        "records": len(records),
        "by_kind": dict(sorted(by_kind.items())),
        "by_status": dict(sorted(by_status.items())),
        "latency": latency_percentiles([entry.latency_ms for entry in records]),
        "result_cache": {
            "hits": cache.get("hit", 0),
            "misses": cache.get("miss", 0),
            "bypassed": cache.get("bypass", 0),
            "hit_rate": (cache.get("hit", 0) / lookups) if lookups else 0.0,
        },
        "shard_fanout_max": max((entry.shard_fanout for entry in records), default=0),
        "collapsed": {
            "leaders": sum(1 for entry in records if entry.collapsed == "leader"),
            "followers": sum(1 for entry in records if entry.collapsed == "follower"),
        },
        "top_fingerprints": top_fingerprints(records, top),
    }
