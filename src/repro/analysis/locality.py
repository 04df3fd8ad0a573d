"""Row-locality analysis: which parts of a plan may scatter across shards.

**The bit-identity contract.**  Sharded execution must return exactly what
the unsharded engine returns — scores, rows and tie order.  The merge
kernels are input-row-order-sensitive, so only **row-local** plan segments
may be scattered: maximal ``SELECT``/``WEIGHT`` chains directly above a scan
of a partitioned table, optionally capped by a single ``TOP``.  Everything
else must run on the coordinator over gathered (original-row-order) input.

This module is the single source of truth for that judgment.  It used to
live inside :mod:`repro.engine.executors`; it now sits in the analysis layer
so the static verifier can *classify* a plan (scatterable segments vs.
coordinator remainder) with exactly the same code path the
``ShardedExecutor``/``PoolExecutor`` use to *execute* it — the two can never
disagree, because :func:`classify` and
:meth:`~repro.engine.executors.ScatterGatherExecutor.execute_plan` both call
:func:`extract_segments`.  Import the planning names from here.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.errors import EngineError
from repro.pra.plan import (
    PraParam,
    PraPlan,
    PraScan,
    PraSelect,
    PraTop,
    PraWeight,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.pra.relation import ProbabilisticRelation

#: parameter name binding a shard's augmented fragment into a segment plan
FRAGMENT_PARAM = "__shard_fragment__"


@dataclass
class ScatterSegment:
    """One scatterable subtree: a row-local chain over a partitioned scan."""

    plan: PraPlan  # the original subtree (chain, optionally under one TOP)
    table: str
    top_k: int | None = None  # set when the subtree root is a TOP node

    def shard_plan(self) -> PraPlan:
        """The per-shard plan: the same chain with the scan leaf replaced
        by the fragment parameter."""
        return _replace_scan(self.plan, PraParam(FRAGMENT_PARAM))

    def gather(self, results: "Sequence[ProbabilisticRelation]") -> "ProbabilisticRelation":
        # the gather kernels live with the executors; importing lazily keeps
        # the analysis layer free of any engine dependency
        from repro.engine.executors import gather_concat, gather_top

        if self.top_k is not None:
            return gather_top(results, self.top_k)
        return gather_concat(results)


def _chain_table(plan: PraPlan, partitioned: Callable[[str], bool]) -> str | None:
    """The partitioned table under a pure SELECT/WEIGHT chain, else ``None``."""
    node = plan
    while isinstance(node, (PraSelect, PraWeight)):
        node = node.child
    if isinstance(node, PraScan) and partitioned(node.table):
        return node.table
    return None


def _replace_scan(plan: PraPlan, leaf: PraPlan) -> PraPlan:
    if isinstance(plan, PraScan):
        return leaf
    if isinstance(plan, (PraSelect, PraWeight, PraTop)):
        return plan.with_children([_replace_scan(plan.child, leaf)])
    raise EngineError(f"cannot scatter plan node {type(plan).__name__}")


def match_segment(plan: PraPlan, partitioned: Callable[[str], bool]) -> ScatterSegment | None:
    """Match the largest scatterable segment rooted at ``plan``."""
    if isinstance(plan, PraTop):
        table = _chain_table(plan.child, partitioned)
        if table is not None:
            return ScatterSegment(plan, table, top_k=plan.k)
    table = _chain_table(plan, partitioned)
    if table is not None:
        return ScatterSegment(plan, table)
    return None


def extract_segments(
    plan: PraPlan,
    partitioned: Callable[[str], bool],
    segments: list[tuple[str, ScatterSegment]],
) -> PraPlan:
    """Replace every scatterable segment with a gather parameter.

    Returns the rewritten coordinator plan; ``segments`` collects
    ``(parameter name, segment)`` pairs in discovery order.
    """
    segment = match_segment(plan, partitioned)
    if segment is not None:
        name = f"__gather_{len(segments)}__"
        segments.append((name, segment))
        return PraParam(name)
    children = plan.children()
    if not children:
        return plan
    rebuilt = [extract_segments(child, partitioned, segments) for child in children]
    if all(new is old for new, old in zip(rebuilt, children)):
        return plan
    return plan.with_children(rebuilt)


# ---------------------------------------------------------------------------
# static classification
# ---------------------------------------------------------------------------


@dataclass
class LocalityReport:
    """Static shard-safety classification of one plan.

    Produced by :func:`classify` via the same :func:`extract_segments` walk
    the scatter-gather executors run at dispatch time, so the classification
    is bit-identical to the runtime decision by construction.
    """

    #: scatterable segments in discovery order
    segments: list[ScatterSegment] = field(default_factory=list)
    #: the gather parameter name of each segment, aligned with ``segments``
    parameter_names: list[str] = field(default_factory=list)
    #: the rewritten remainder that runs on the coordinator
    coordinator_plan: PraPlan | None = None

    @property
    def scatterable(self) -> bool:
        """True when at least one subtree ships to the shards."""
        return bool(self.segments)

    @property
    def fully_scattered(self) -> bool:
        """True when the whole plan is one segment (coordinator only gathers)."""
        return len(self.segments) == 1 and isinstance(self.coordinator_plan, PraParam)

    def render(self) -> str:
        if not self.scatterable:
            return "scatter: coordinator-only (no row-local segment over a partitioned table)"
        parts = []
        for segment in self.segments:
            capped = f", top {segment.top_k}" if segment.top_k is not None else ""
            parts.append(f"{segment.table}{capped}")
        where = "whole plan" if self.fully_scattered else "segments"
        return f"scatter: {len(self.segments)} segment(s) over [{', '.join(parts)}] ({where})"

    def to_dict(self) -> dict[str, Any]:
        return {
            "scatterable": self.scatterable,
            "fully_scattered": self.fully_scattered,
            "segments": [
                {"parameter": name, "table": segment.table, "top_k": segment.top_k}
                for name, segment in zip(self.parameter_names, self.segments)
            ],
        }


def classify(plan: PraPlan, partitioned: Callable[[str], bool]) -> LocalityReport:
    """Statically classify ``plan`` against a shard layout.

    ``partitioned`` is the shard map's membership test
    (:meth:`~repro.storage.shards.ShardMap.is_partitioned`).  The walk is the
    executors' own :func:`extract_segments`, so a plan the report labels
    scatterable is exactly a plan the executors scatter.
    """
    collected: list[tuple[str, ScatterSegment]] = []
    coordinator = extract_segments(plan, partitioned, collected)
    return LocalityReport(
        segments=[segment for _name, segment in collected],
        parameter_names=[name for name, _segment in collected],
        coordinator_plan=coordinator,
    )
