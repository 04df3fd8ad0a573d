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
* ``QUERY`` — a list of query terms (strings);
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
from repro.pra.relation import ProbabilisticRelation
from repro.relational.database import Database
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
    #: where ranking blocks get collection statistics; the executor passes
    #: its own registry, so indexes outlive the request
    statistics: StatisticsRegistry = field(default_factory=StatisticsRegistry)

    @property
    def database(self) -> Database:
        return self.store.database


class Block:
    """Base class of all strategy building blocks.

    Subclasses declare their ports via :meth:`input_ports` / :meth:`output_port`
    and implement :meth:`execute`, which receives the context and a mapping of
    input-port name to payload and returns the output payload.
    """

    #: human-readable label shown in rendered diagrams
    label = "Block"

    #: True when :meth:`execute` reads nothing of the request — neither
    #: ``context.query`` nor ``context.parameters`` — so its output depends
    #: only on its inputs and the stored data.  The executor reuses the output
    #: of such a block across requests while all its ancestors are
    #: request-independent too and the data is unchanged.  The default is
    #: *dependent*: a block that does not say otherwise is run every time,
    #: and a subclass that overrides :meth:`execute` has to say it again — the
    #: declaration covers the ``execute`` of the class that made it.  Whatever
    #: configures the block must show in :meth:`describe`, which the executor
    #: compares to tell a reconfigured block from the one it memoized.
    request_independent = False

    def input_ports(self) -> Sequence[Port]:
        """The block's input ports, in display order (left to right)."""
        return []

    def output_port(self) -> Port:
        """The block's single output port."""
        raise NotImplementedError

    def execute(self, context: StrategyContext, inputs: dict[str, Any]) -> Any:
        """Produce the output payload from the input payloads."""
        raise NotImplementedError

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
