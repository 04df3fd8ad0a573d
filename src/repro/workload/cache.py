"""The adaptive result cache: evaluated relations keyed by plan + parameters.

Where the engine's plan cache memoizes *plans*, this cache memoizes
*results*: the :class:`~repro.pra.relation.ProbabilisticRelation` an
optimized plan evaluated to, keyed by ``(plan fingerprint, binding
fingerprint)``.  A hit skips the executor entirely — no scatter, no worker
round-trip — and returns the exact relation object computed before, so a
cached answer is bit-identical to recomputation by construction (property
tests enforce it end to end).

**Adaptive admission.**  A result is only *stored* once its plan
fingerprint has been seen ``admission_threshold`` times (default: twice).
One-shot queries — ad-hoc exploration, unique parameter values — therefore
never evict the entries that are actually hot; the fingerprint sighting
counts live in a bounded LRU of their own, so the admission tracker cannot
grow without bound either.

**Storage and invalidation** are the shared
:class:`~repro.relational.cache.VersionedLRU`: entries record the base
tables their plan scans, the engine invalidates them from exactly the hooks
that invalidate the plan cache — ``create_table``, triple-store reload,
``clear_caches`` — and a result computed across a concurrent write is
dropped instead of stored (``still_valid``), so a cached result can never
outlive the data it was computed from.
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Hashable, Mapping
from typing import Any

from repro.pra.relation import ProbabilisticRelation
from repro.relational.cache import VersionedLRU


def binding_fingerprint(
    bindings: Mapping[str, ProbabilisticRelation] | None,
) -> str | None:
    """A deterministic key for a set of bound parameter relations.

    Returns ``None`` when any bound relation cannot be fingerprinted by
    content — the caller must then treat the execution as uncacheable
    rather than risk serving a stale or wrong answer.
    """
    if not bindings:
        return ""
    parts: list[str] = []
    for name in sorted(bindings):
        value = bindings[name]
        try:
            content: Hashable = value.relation.content_fingerprint()
        except Exception:  # noqa: BLE001 - unhashable content => uncacheable
            return None
        parts.append(f"{name}={content}")
    return ";".join(parts)


class ResultCache:
    """An admission policy in front of one size-bounded :class:`VersionedLRU`."""

    def __init__(self, max_entries: int = 256, *, admission_threshold: int = 2):
        if max_entries < 1:
            raise ValueError("result cache max_entries must be >= 1")
        if admission_threshold < 1:
            raise ValueError("admission_threshold must be >= 1")
        self.max_entries = max_entries
        self.admission_threshold = admission_threshold
        self.admitted = 0
        self.bypassed = 0  # stores skipped by the admission policy
        self._results: VersionedLRU[tuple[str, str], ProbabilisticRelation] = VersionedLRU(
            max_entries
        )
        # fingerprint -> sighting count; bounded so ad-hoc traffic cannot
        # grow the admission tracker without limit
        self._sightings_capacity = max(max_entries * 4, 64)
        self._sightings: VersionedLRU[str, int] = VersionedLRU(self._sightings_capacity)
        # makes one admission decision (sighting, counters, store) atomic
        self._admission_lock = threading.Lock()
        self.statistics = self._results.statistics

    def lookup(self, key: tuple[str, str]) -> ProbabilisticRelation | None:
        """The cached result for ``key``, or ``None`` (counted as a miss)."""
        return self._results.get(key)

    def store(
        self,
        key: tuple[str, str],
        value: ProbabilisticRelation,
        *,
        dependencies: frozenset[str] = frozenset(),
        still_valid: Callable[[], bool] | None = None,
    ) -> bool:
        """Offer a computed result; returns True if it was admitted.

        Admission is adaptive: the result is kept only once the plan
        fingerprint's sighting count reaches ``admission_threshold`` (the
        lookup that preceded this store counts as one sighting).  An admitted
        result is still dropped when ``still_valid`` says a write overtook it.
        """
        fingerprint = key[0]
        with self._admission_lock:
            if key in self._results:
                return True  # a concurrent execution already stored it
            count = (self._sightings.get(fingerprint) or 0) + 1
            self._sightings.put(fingerprint, count, dependencies=frozenset())
            if count < self.admission_threshold:
                self.bypassed += 1
                return False
            if not self._results.put(
                key, value, dependencies=dependencies, still_valid=still_valid
            ):
                return False
            self.admitted += 1
            return True

    def invalidate_table(self, table_name: str) -> int:
        """Drop every cached result whose plan depends on ``table_name``."""
        return self._results.invalidate_table(table_name)

    def clear(self) -> None:
        """Drop every cached result and the admission sighting counts."""
        with self._admission_lock:
            self._results.clear()
            self._sightings.clear()

    def to_dict(self) -> dict[str, Any]:
        """The storage counters plus the admission policy's."""
        return {
            **self.statistics.to_dict(),
            "admitted": self.admitted,
            "bypassed": self.bypassed,
        }

    def __len__(self) -> int:
        return len(self._results)

    def __contains__(self, key: tuple[str, str]) -> bool:
        return key in self._results
