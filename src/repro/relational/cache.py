"""The one cache every layer shares: a dependency-invalidated, bounded LRU.

Section 2.2 of the paper describes an *"adaptive, query-driven set of 'cache'
tables, each corresponding to a specific sub-query on the original data.
When the same computation is requested several times, its full result is
already materialized."*  :class:`VersionedLRU` is that mechanism, written
once and used three times:

* ``Database.cache`` — materialised logical-plan results keyed by plan
  fingerprint.  The IR layer funnels its collection-statistics plans through
  it, which is the paper's Section 2.1 observation that *"most of the SQL
  queries above are independent of query-terms"*: the first query of a
  session is "cold" and later ones are "hot";
* ``Engine.plan_cache`` — compiled SpinQL programs and optimized PRA plans;
* ``Engine.result_cache`` — evaluated PRA plans keyed by plan and
  :func:`~repro.workload.cache.binding_fingerprint`, stored on the first
  miss.

Every entry records the tables and views it was derived from, so replacing
a table drops exactly the dependent entries.  A result computed while a
table was being replaced must not be inserted *after* that table's
invalidation ran, or it would be served forever: callers read the catalog
version before computing and pass ``still_valid``, which :meth:`put` asks
under the cache lock.

One re-entrant lock guards every lookup, insert, invalidation, the LRU order
and the counters, so concurrent queries can share one cache.  Two threads
that miss the same key may both compute and insert (the second insert wins);
that is safe because entries are deterministic functions of their key.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Callable, Hashable
from dataclasses import dataclass
from typing import Any, Generic, TypeVar

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")


@dataclass
class CacheStatistics:
    """Counters describing cache effectiveness (reported by the benchmarks)."""

    hits: int = 0
    misses: int = 0
    invalidations: int = 0
    evictions: int = 0
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
            "evictions": self.evictions,
            "entries": self.entries,
            "hit_rate": self.hit_rate,
        }


class VersionedLRU(Generic[K, V]):
    """A thread-safe LRU whose entries are dropped when a table they read changes.

    ``max_entries=None`` leaves the cache unbounded; otherwise inserting past
    the bound evicts the least-recently-used entry.
    """

    def __init__(self, max_entries: int | None = None):
        self._entries: OrderedDict[K, tuple[V, frozenset[str]]] = OrderedDict()
        self.max_entries = max_entries
        self._lock = threading.RLock()
        self.statistics = CacheStatistics()

    def get(self, key: K) -> V | None:
        """Return the cached value for ``key`` or ``None`` on a miss."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.statistics.misses += 1
                return None
            self.statistics.hits += 1
            self._entries.move_to_end(key)
            return entry[0]

    def put(
        self,
        key: K,
        value: V,
        *,
        dependencies: frozenset[str],
        still_valid: Callable[[], bool] | None = None,
    ) -> bool:
        """Store ``value`` under ``key``; returns False if ``still_valid`` vetoed it.

        ``dependencies`` names every table or view the value was derived
        from.  ``still_valid`` is asked under the lock, so a value computed
        before a concurrent write is dropped rather than stored after the
        write's invalidation.
        """
        with self._lock:
            if still_valid is not None and not still_valid():
                return False
            self._entries[key] = (value, dependencies)
            self._entries.move_to_end(key)
            if self.max_entries is not None:
                while len(self._entries) > self.max_entries:
                    self._entries.popitem(last=False)
                    self.statistics.evictions += 1
            self.statistics.entries = len(self._entries)
            return True

    def invalidate_table(self, table_name: str) -> int:
        """Drop every entry that depends on ``table_name``; returns how many."""
        with self._lock:
            stale = [
                key
                for key, (_value, dependencies) in self._entries.items()
                if table_name in dependencies
            ]
            for key in stale:
                del self._entries[key]
            self.statistics.invalidations += len(stale)
            self.statistics.entries = len(self._entries)
            return len(stale)

    def clear(self) -> None:
        """Drop every entry."""
        with self._lock:
            self.statistics.invalidations += len(self._entries)
            self._entries.clear()
            self.statistics.entries = 0

    def keys(self) -> list[K]:
        """A snapshot of the cached keys, least-recently used first."""
        with self._lock:
            return list(self._entries)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: K) -> bool:
        with self._lock:
            return key in self._entries
