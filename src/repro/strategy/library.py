"""The standard block library.

These are the building blocks that appear in the paper's two strategies:

* Figure 2 (toy scenario): *Select by property* (category = toy), *Extract
  text* (description), *Query input*, *Rank by Text BM25*;
* Figure 3 (auction scenario): *Select by type* (lot), *Traverse property*
  (hasAuction, forward and backward), *Extract text*, two *Rank by Text*
  blocks and a weighted *Mix*.

Every block lowers to a PRA plan over its inputs' plans (``to_plan``), so a
strategy is one plan per block in the probabilistic relational algebra, and
"all the operations in this strategy propagate probabilities through the
graph" (Section 3) without any block-specific code.  The store is read
through its layout (:meth:`StorageStrategy.pattern_plan
<repro.triples.partitioning.StorageStrategy.pattern_plan>`).
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

from repro.errors import BlockError
from repro.ir.query_expansion import QueryExpander
from repro.ir.ranking import RankingModel
from repro.pra.assumptions import Assumption
from repro.pra.plan import (
    QUERY_PARAM,
    PraJoin,
    PraParam,
    PraPlan,
    PraProject,
    PraRank,
    PraTop,
    PraUnite,
    PraWeight,
)
from repro.strategy.blocks import Block, Port, PortKind, StrategyContext
from repro.text.analyzers import StandardAnalyzer
from repro.triples.graph import traverse_plan
from repro.triples.partitioning import StorageStrategy
from repro.triples.triple_store import TYPE_PROPERTY


def _subjects(matched: PraPlan) -> PraPlan:
    """The subjects of a triple pattern as ``(node, p)``.

    A resource matched twice is one resource with its most probable match
    (SUBSUMED), so every other resource keeps its probability bit for bit.
    """
    return PraProject(matched, [1], Assumption.SUBSUMED, output_names=["node"])


class QueryInputBlock(Block):
    """Provides the query keywords (the right-hand input of Figure 2)."""

    label = "Query input"

    def __init__(self, *, language: str = "english"):
        self.language = language
        self.analyzer = StandardAnalyzer(language)

    def output_port(self) -> Port:
        return Port("query", PortKind.QUERY, "analyzed query terms")

    def to_plan(self, inputs: dict[str, PraPlan], storage: StorageStrategy) -> PraPlan:
        """The request's keyword query, bound per request."""
        return PraParam(QUERY_PARAM)

    def execute(self, context: StrategyContext, inputs: dict[str, Any]) -> list[str]:
        """The port payload: the analyzed query terms."""
        return self.analyzer.analyze_query(context.query)

    def describe(self) -> dict[str, Any]:
        return {"language": self.language}


class SelectByTypeBlock(Block):
    """Select graph resources of a given type (``(?, type, <type>)`` triples)."""

    label = "Select by type"

    def __init__(self, type_name: str):
        self.type_name = type_name

    def output_port(self) -> Port:
        return Port("resources", PortKind.RESOURCES, f"resources of type {self.type_name}")

    def to_plan(self, inputs: dict[str, PraPlan], storage: StorageStrategy) -> PraPlan:
        return _subjects(storage.pattern_plan(TYPE_PROPERTY, self.type_name))

    def describe(self) -> dict[str, Any]:
        return {"type": self.type_name}


class SelectByPropertyBlock(Block):
    """Select resources whose ``property`` equals ``value`` (the category=toy filter)."""

    label = "Select by property"

    def __init__(self, property_name: str, value: str):
        self.property_name = property_name
        self.value = value

    def output_port(self) -> Port:
        return Port(
            "resources",
            PortKind.RESOURCES,
            f"resources with {self.property_name} = {self.value}",
        )

    def to_plan(self, inputs: dict[str, PraPlan], storage: StorageStrategy) -> PraPlan:
        return _subjects(storage.pattern_plan(self.property_name, self.value))

    def describe(self) -> dict[str, Any]:
        return {"property": self.property_name, "value": self.value}


class IntersectBlock(Block):
    """Keep resources present in both inputs (probabilities multiplied)."""

    label = "Intersect"

    def input_ports(self) -> Sequence[Port]:
        return [
            Port("left", PortKind.RESOURCES, "first resource set"),
            Port("right", PortKind.RESOURCES, "second resource set"),
        ]

    def output_port(self) -> Port:
        return Port("resources", PortKind.RESOURCES, "resources in both inputs")

    def to_plan(self, inputs: dict[str, PraPlan], storage: StorageStrategy) -> PraPlan:
        joined = PraJoin(
            self._require_input(inputs, "left"),
            self._require_input(inputs, "right"),
            [(1, 1)],
            Assumption.INDEPENDENT,
        )
        return PraProject(joined, [1], Assumption.INDEPENDENT, output_names=["node"])


class TraversePropertyBlock(Block):
    """Traverse one property edge, forward or backward, propagating probabilities."""

    label = "Traverse property"

    def __init__(self, property_name: str, *, backward: bool = False, merge: str = "independent"):
        self.property_name = property_name
        self.backward = backward
        self.merge = Assumption.parse(merge)

    def input_ports(self) -> Sequence[Port]:
        return [Port("resources", PortKind.RESOURCES, "start resources")]

    def output_port(self) -> Port:
        direction = "backward" if self.backward else "forward"
        return Port(
            "resources",
            PortKind.RESOURCES,
            f"resources reached via {self.property_name} ({direction})",
        )

    def to_plan(self, inputs: dict[str, PraPlan], storage: StorageStrategy) -> PraPlan:
        return traverse_plan(
            self._require_input(inputs, "resources"),
            self.property_name,
            storage,
            backward=self.backward,
            merge=self.merge,
        )

    def describe(self) -> dict[str, Any]:
        return {
            "property": self.property_name,
            "direction": "backward" if self.backward else "forward",
        }


class ExtractTextBlock(Block):
    """Turn resources into a document collection by extracting a text property.

    The output is the on-the-fly ``docs(docID, data, p)`` sub-collection of
    Sections 2.2/2.3: the probability of each document is the product of the
    resource's probability and the text triple's probability.
    """

    label = "Extract text"

    def __init__(self, text_property: str = "description"):
        self.text_property = text_property

    def input_ports(self) -> Sequence[Port]:
        return [Port("resources", PortKind.RESOURCES, "resources to extract text from")]

    def output_port(self) -> Port:
        return Port("documents", PortKind.DOCUMENTS, f"text of property {self.text_property}")

    def to_plan(self, inputs: dict[str, PraPlan], storage: StorageStrategy) -> PraPlan:
        joined = PraJoin(
            self._require_input(inputs, "resources"),
            storage.pattern_plan(self.text_property),
            [(1, 1)],
            Assumption.INDEPENDENT,
        )
        # the node, then the triple's object (after its subject and property)
        return PraProject(
            joined, [1, 4], Assumption.INDEPENDENT, output_names=["docID", "data"]
        )

    def describe(self) -> dict[str, Any]:
        return {"text_property": self.text_property}


class RankByTextBlock(Block):
    """Rank a document collection against the query (the *Rank by Text BM25* block).

    The block ranks the sub-collection it receives against on-demand
    collection statistics (two distinct inputs are two distinct indexes, as
    in Section 3), normalises the scores into probabilities and multiplies
    them with the documents' prior probabilities (a
    :class:`~repro.pra.plan.PraRank` node).  Statistics come from the
    evaluator's :class:`~repro.ir.registry.StatisticsRegistry`, keyed on the
    content of the id and text columns: repeated queries over the same
    sub-collection reuse the index (hot vs. cold), an edited text never does.
    The query text is analyzed in the block's ``language``.
    """

    label = "Rank by Text"

    def __init__(
        self,
        model: RankingModel | None = None,
        *,
        language: str = "english",
        top_k: int | None = None,
        expander: QueryExpander | None = None,
    ):
        from repro.ir.ranking import BM25Model

        self.model = model if model is not None else BM25Model()
        self.language = language
        self.top_k = top_k
        self.expander = expander

    def input_ports(self) -> Sequence[Port]:
        return [
            Port("documents", PortKind.DOCUMENTS, "the collection to rank"),
            Port("query", PortKind.QUERY, "the query terms"),
        ]

    def output_port(self) -> Port:
        return Port("ranked", PortKind.RANKED, f"documents ranked by {self.model.name}")

    def to_plan(self, inputs: dict[str, PraPlan], storage: StorageStrategy) -> PraPlan:
        # the query port only says where the request enters the diagram: the
        # node ranks against the request's query binding
        self._require_input(inputs, "query")
        return PraRank(
            self._require_input(inputs, "documents"),
            QUERY_PARAM,
            self.model,
            self.language,
            self.top_k,
            self.expander,
        )

    def describe(self) -> dict[str, Any]:
        return {
            "model": self.model.describe(),
            "language": self.language,
            "top_k": self.top_k,
            "expansion": self.expander.describe() if self.expander is not None else None,
        }


class MixBlock(Block):
    """Mix several ranked lists via a weighted linear combination (Figure 3, step 4)."""

    label = "Mix"

    def __init__(self, weights: Sequence[float], *, normalize: bool = True):
        if not weights:
            raise BlockError("Mix requires at least one weight")
        if any(weight < 0 for weight in weights):
            raise BlockError("Mix weights must be non-negative")
        total = float(sum(weights))
        if total <= 0:
            raise BlockError("Mix weights must not all be zero")
        self.weights = [float(w) / total if normalize else float(w) for w in weights]

    def input_ports(self) -> Sequence[Port]:
        return [
            Port(f"ranked_{index}", PortKind.RANKED, f"ranked list {index} (weight {weight:.2f})")
            for index, weight in enumerate(self.weights)
        ]

    def output_port(self) -> Port:
        return Port("ranked", PortKind.RANKED, "weighted linear combination")

    def to_plan(self, inputs: dict[str, PraPlan], storage: StorageStrategy) -> PraPlan:
        weighted = [
            PraWeight(self._require_input(inputs, f"ranked_{index}"), weight)
            for index, weight in enumerate(self.weights)
        ]
        combined = weighted[0]
        for other in weighted[1:]:
            combined = PraUnite(combined, other, Assumption.DISJOINT)
        return combined

    def describe(self) -> dict[str, Any]:
        return {"weights": self.weights}


class LimitBlock(Block):
    """Keep only the top-k results of a ranked list."""

    label = "Limit"

    def __init__(self, count: int):
        if count < 1:
            raise BlockError("Limit requires a positive count")
        self.count = count

    def input_ports(self) -> Sequence[Port]:
        return [Port("ranked", PortKind.RANKED, "ranked list to truncate")]

    def output_port(self) -> Port:
        return Port("ranked", PortKind.RANKED, f"top {self.count} results")

    def to_plan(self, inputs: dict[str, PraPlan], storage: StorageStrategy) -> PraPlan:
        return PraTop(self._require_input(inputs, "ranked"), self.count)

    def describe(self) -> dict[str, Any]:
        return {"count": self.count}
