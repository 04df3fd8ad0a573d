"""The result cache's key for bound parameters.

``Engine.result_cache`` memoizes *results*: the
:class:`~repro.pra.relation.ProbabilisticRelation` an optimized plan
evaluated to, keyed by ``(plan fingerprint, binding fingerprint)``.  It is a
plain :class:`~repro.relational.cache.VersionedLRU`, like the plan cache: a
result is stored on its first miss, invalidated by the tables its plan
scans, and dropped instead of stored when a concurrent write overtook it
(``still_valid``).  A hit returns the exact relation object computed before,
so a cached answer is bit-identical to recomputation by construction.
"""

from __future__ import annotations

from collections.abc import Hashable, Mapping

from repro.pra.relation import ProbabilisticRelation


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
