"""On-demand materialization cache.

Section 2.2 of the paper describes an *"adaptive, query-driven set of 'cache'
tables, each corresponding to a specific sub-query on the original data.
When the same computation is requested several times, its full result is
already materialized."*  This module implements exactly that mechanism for
the reproduction's engine: logical plans are fingerprinted, and the
materialised result of a fingerprint is stored and reused.

The same cache also implements the paper's observation in Section 2.1 that
*"most of the SQL queries above are independent of query-terms, which allows
to materialize intermediate results for reuse in different search scenarios
on the same data"* — the IR layer funnels its collection-statistics plans
through this cache, so the first query of a session is "cold" and subsequent
queries are "hot".
"""

from __future__ import annotations

import threading
from collections.abc import Callable
from dataclasses import dataclass, field

from repro.relational.algebra import LogicalPlan
from repro.relational.relation import Relation


@dataclass
class CacheStatistics:
    """Counters describing cache effectiveness (reported by the benchmarks)."""

    hits: int = 0
    misses: int = 0
    invalidations: int = 0
    entries: int = 0
    cached_rows: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups


@dataclass
class _CacheEntry:
    relation: Relation
    fingerprint: str
    uses: int = 0
    dependencies: frozenset[str] = field(default_factory=frozenset)


class MaterializationCache:
    """Query-driven cache of materialised plan results.

    Entries are keyed by plan fingerprint.  Each entry records the set of
    base-table names the plan depends on so that updating a base table
    invalidates exactly the affected entries.  An optional ``max_entries``
    bound evicts the least-recently-used entry when exceeded.

    All operations are lock-guarded, matching the plan cache's thread-safety
    contract, so concurrent query evaluation can share one cache.
    """

    def __init__(self, max_entries: int | None = None):
        self._entries: dict[str, _CacheEntry] = {}
        self._order: list[str] = []
        self._max_entries = max_entries
        self._lock = threading.RLock()
        self.statistics = CacheStatistics()

    # -- lookup / insert ----------------------------------------------------------

    def get(self, plan: LogicalPlan) -> Relation | None:
        """Return the cached result for ``plan`` or ``None`` on a miss."""
        fingerprint = plan.fingerprint()
        with self._lock:
            entry = self._entries.get(fingerprint)
            if entry is None:
                self.statistics.misses += 1
                return None
            self.statistics.hits += 1
            entry.uses += 1
            self._touch(fingerprint)
            return entry.relation

    def put(
        self,
        plan: LogicalPlan,
        relation: Relation,
        dependencies: frozenset[str] | None = None,
        *,
        still_valid: Callable[[], bool] | None = None,
    ) -> None:
        """Store the materialised ``relation`` for ``plan``.

        ``dependencies`` overrides the default dependency set (the base
        tables scanned directly by the plan); the database passes the
        transitive closure through views so that updating a base table also
        invalidates results cached for views defined over it.

        ``still_valid`` is asked under the cache lock, and a ``False`` drops
        the result instead of storing it: a result computed while a table
        was being replaced must not be inserted *after* that table's
        invalidation ran, or it would be served forever.
        """
        fingerprint = plan.fingerprint()
        if dependencies is None:
            dependencies = frozenset(_scan_dependencies(plan))
        with self._lock:
            if still_valid is not None and not still_valid():
                return
            if fingerprint not in self._entries:
                self._order.append(fingerprint)
            self._entries[fingerprint] = _CacheEntry(
                relation=relation, fingerprint=fingerprint, dependencies=dependencies
            )
            self._refresh_size_counters()
            self._evict_if_needed()

    def contains(self, plan: LogicalPlan) -> bool:
        """Return True if a result for ``plan`` is materialised (no statistics update)."""
        with self._lock:
            return plan.fingerprint() in self._entries

    # -- invalidation --------------------------------------------------------------

    def invalidate_table(self, table_name: str) -> int:
        """Drop every cached entry that depends on ``table_name``.

        Returns the number of entries removed.
        """
        with self._lock:
            stale = [
                fingerprint
                for fingerprint, entry in self._entries.items()
                if table_name in entry.dependencies
            ]
            for fingerprint in stale:
                del self._entries[fingerprint]
                self._order.remove(fingerprint)
            self.statistics.invalidations += len(stale)
            self._refresh_size_counters()
            return len(stale)

    def clear(self) -> None:
        """Drop every cached entry."""
        with self._lock:
            self.statistics.invalidations += len(self._entries)
            self._entries.clear()
            self._order.clear()
            self._refresh_size_counters()

    # -- introspection ---------------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def fingerprints(self) -> list[str]:
        with self._lock:
            return list(self._order)

    # -- internals --------------------------------------------------------------------

    def _touch(self, fingerprint: str) -> None:
        self._order.remove(fingerprint)
        self._order.append(fingerprint)

    def _evict_if_needed(self) -> None:
        if self._max_entries is None:
            return
        while len(self._entries) > self._max_entries:
            oldest = self._order.pop(0)
            # only reachable from put()/clear(), which hold self._lock
            del self._entries[oldest]  # repro-lint: disable=RL003
        self._refresh_size_counters()

    def _refresh_size_counters(self) -> None:
        self.statistics.entries = len(self._entries)
        self.statistics.cached_rows = sum(
            entry.relation.num_rows for entry in self._entries.values()
        )


def _scan_dependencies(plan: LogicalPlan) -> set[str]:
    """Collect the names of all base tables/views scanned by ``plan``."""
    from repro.relational.algebra import Scan

    names: set[str] = set()
    stack = [plan]
    while stack:
        node = stack.pop()
        if isinstance(node, Scan):
            names.add(node.table)
        stack.extend(node.children())
    return names
