"""Strategy blocks: typed ports, execution context and the block base class.

Blocks communicate through *ports*.  Each port has a :class:`PortKind`; the
graph validator refuses connections between incompatible kinds, which is the
API equivalent of the visual designer only letting compatible blocks snap
together.

Port payloads at execution time:

* ``RESOURCES`` — a probabilistic relation with a single ``node`` value
  column: a set of graph resources with probabilities;
* ``DOCUMENTS`` — a probabilistic relation ``(docID, data, p)``: a text
  sub-collection defined on the fly;
* ``QUERY`` — a list of query terms (strings); in plans, the request's
  keyword query binding (:data:`~repro.pra.plan.QUERY_PARAM`);
* ``RANKED`` — the same shape as ``RESOURCES``; the distinction is semantic
  (probabilities carry relevance information) and kept for diagram fidelity,
  the two kinds are mutually connectable.
"""

from __future__ import annotations

import enum
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Any

from repro.errors import BlockError, PortError
from repro.ir.registry import StatisticsRegistry
from repro.pra.evaluator import PRAEvaluator
from repro.pra.plan import QUERY_PARAM, PraParam, PraPlan
from repro.pra.relation import ProbabilisticRelation
from repro.relational.database import Database
from repro.triples.partitioning import StorageStrategy
from repro.triples.triple_store import TripleStore


class PortKind(enum.Enum):
    """The kind of payload a port produces or consumes."""

    RESOURCES = "resources"
    DOCUMENTS = "documents"
    QUERY = "query"
    RANKED = "ranked"

    def compatible_with(self, other: "PortKind") -> bool:
        """RANKED and RESOURCES are interchangeable; other kinds must match exactly."""
        interchangeable = {PortKind.RESOURCES, PortKind.RANKED}
        if self in interchangeable and other in interchangeable:
            return True
        return self is other


@dataclass(frozen=True)
class Port:
    """A named, typed input or output of a block."""

    name: str
    kind: PortKind
    description: str = ""


@dataclass
class StrategyContext:
    """Everything a block may need at execution time."""

    store: TripleStore
    query: str = ""
    parameters: dict[str, Any] = field(default_factory=dict)
    #: where ranking gets collection statistics; the executor passes its own
    #: registry, so indexes outlive the request
    statistics: StatisticsRegistry = field(default_factory=StatisticsRegistry)

    @property
    def database(self) -> Database:
        return self.store.database


class Block:
    """Base class of all strategy building blocks.

    Subclasses declare their ports via :meth:`input_ports` / :meth:`output_port`
    and say what the block computes in one of two ways:

    * :meth:`to_plan` lowers the block to a PRA plan over its inputs' plans.
      The executor evaluates that plan, and a block whose plan (with its
      ancestors') reads nothing of the request is served from the database's
      materialization cache, keyed by the plan's fingerprint, until a table
      it scans changes.  Whatever configures the block must show in the plan.
    * :meth:`execute` computes the output payload from the input payloads.
      It runs on every request and is never cached.

    The most derived of the two definitions is the one the executor uses, so
    a subclass that overrides :meth:`execute` of a library block runs its own
    code.  :meth:`execute` of a block that defines only :meth:`to_plan`
    evaluates the plan over the given payloads.
    """

    #: human-readable label shown in rendered diagrams
    label = "Block"

    def input_ports(self) -> Sequence[Port]:
        """The block's input ports, in display order (left to right)."""
        return []

    def output_port(self) -> Port:
        """The block's single output port."""
        raise NotImplementedError

    def to_plan(self, inputs: dict[str, PraPlan], storage: StorageStrategy) -> PraPlan:
        """The block's PRA plan over its inputs' plans; ``storage`` is the
        store's layout, through which the store is read."""
        raise NotImplementedError

    def execute(self, context: StrategyContext, inputs: dict[str, Any]) -> Any:
        """Produce the output payload from the input payloads.

        Evaluates :meth:`to_plan` with every input port bound to its payload
        (a query port to its terms) and the request's query bound to
        :data:`~repro.pra.plan.QUERY_PARAM`.
        """
        context.store.ensure_loaded()
        bindings: dict[str, Any] = {QUERY_PARAM: context.query}
        placeholders: dict[str, PraPlan] = {}
        for port in self.input_ports():
            payload = self._require_input(inputs, port.name)
            if port.kind is PortKind.QUERY:
                if not isinstance(payload, list):
                    raise BlockError(f"the {port.name!r} input must be a list of terms")
            else:
                self._require_resources(payload, port=port.name)
            bindings[port.name] = payload
            placeholders[port.name] = PraParam(port.name)
        plan = self.to_plan(placeholders, context.store.storage)
        evaluator = PRAEvaluator(context.database, context.statistics)
        return evaluator.evaluate(plan, bindings=bindings)

    def describe(self) -> dict[str, Any]:
        """Return the block's configuration (used by the renderer)."""
        return {}

    # -- helpers for subclasses ------------------------------------------------------

    def _require_input(self, inputs: dict[str, Any], name: str) -> Any:
        try:
            return inputs[name]
        except KeyError:
            raise BlockError(
                f"block {self.label!r} is missing its {name!r} input"
            ) from None

    @staticmethod
    def _require_resources(payload: Any, *, port: str) -> ProbabilisticRelation:
        if not isinstance(payload, ProbabilisticRelation):
            raise PortError(
                f"port {port!r} expected a probabilistic relation, got {type(payload).__name__}"
            )
        return payload

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.describe()})"
