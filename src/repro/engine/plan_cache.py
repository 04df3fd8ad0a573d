"""The engine's plan cache: compiled and optimized plans keyed by fingerprint.

Where the relational layer's :class:`~repro.relational.cache.MaterializationCache`
stores query *results*, this cache stores query *plans*: compiled SpinQL
programs and optimized PRA plans, keyed by deterministic fingerprints (the
source text for programs, :meth:`~repro.pra.plan.PraPlan.fingerprint` for
plans).  Repeated parameterized queries therefore skip parsing, compilation
and optimization entirely — only evaluation runs per binding set.

Entries record the base tables their plan scans.  Replacing a table (e.g.
reloading the triple store) invalidates exactly the dependent entries, since
plans built through the fluent builder resolve column names against the table
schema at build time and would silently go stale otherwise.

The cache is thread-safe: every operation — lookup, insert, invalidation,
the LRU bookkeeping and the statistics counters — runs under one re-entrant
lock, so concurrent :meth:`~repro.engine.query.Query.execute_many` workers
never lose counter updates or corrupt the LRU order.  Two threads that miss
the same key concurrently may both compile and insert (the second insert
wins); that is safe because entries are deterministic functions of their key.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any


#: what an engine bounds its plan cache to unless told otherwise.  Every
#: distinct SpinQL source and every top-k variant of a plan is one entry, so
#: an unbounded cache grows for the life of a server; E14's mixed workload
#: (2,000 request templates) peaks below 400 live entries, which this keeps
#: resident while a one-off-query stream can no longer grow without limit.
DEFAULT_MAX_ENTRIES = 512


@dataclass
class PlanCacheStatistics:
    """Counters describing plan-cache effectiveness."""

    hits: int = 0
    misses: int = 0
    invalidations: int = 0
    entries: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups

    def to_dict(self) -> dict[str, Any]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "entries": self.entries,
            "hit_rate": self.hit_rate,
        }


@dataclass
class _PlanEntry:
    value: Any
    dependencies: frozenset[str] = field(default_factory=frozenset)
    uses: int = 0


class PlanCache:
    """An LRU-bounded, thread-safe cache of compiled/optimized plans."""

    def __init__(self, max_entries: int | None = None):
        self._entries: dict[str, _PlanEntry] = {}
        self._order: list[str] = []
        self._max_entries = max_entries
        self._lock = threading.RLock()
        self.statistics = PlanCacheStatistics()

    def get(self, key: str) -> Any | None:
        """Return the cached value for ``key`` or ``None`` on a miss."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.statistics.misses += 1
                return None
            self.statistics.hits += 1
            entry.uses += 1
            self._order.remove(key)
            self._order.append(key)
            return entry.value

    def put(self, key: str, value: Any, *, dependencies: frozenset[str] = frozenset()) -> None:
        """Store ``value`` under ``key``, recording the tables it depends on."""
        with self._lock:
            if key not in self._entries:
                self._order.append(key)
            self._entries[key] = _PlanEntry(value=value, dependencies=dependencies)
            if self._max_entries is not None:
                while len(self._entries) > self._max_entries:
                    oldest = self._order.pop(0)
                    del self._entries[oldest]
            self.statistics.entries = len(self._entries)

    def invalidate_table(self, table_name: str) -> int:
        """Drop every cached plan that depends on ``table_name``."""
        with self._lock:
            stale = [
                key
                for key, entry in self._entries.items()
                if table_name in entry.dependencies
            ]
            for key in stale:
                del self._entries[key]
                self._order.remove(key)
            self.statistics.invalidations += len(stale)
            self.statistics.entries = len(self._entries)
            return len(stale)

    def clear(self) -> None:
        """Drop every cached plan."""
        with self._lock:
            self.statistics.invalidations += len(self._entries)
            self._entries.clear()
            self._order.clear()
            self.statistics.entries = 0

    def keys(self) -> list[str]:
        """A snapshot of the cached keys, least-recently used first."""
        with self._lock:
            return list(self._order)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries
