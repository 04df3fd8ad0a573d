"""The standard block library.

These are the building blocks that appear in the paper's two strategies:

* Figure 2 (toy scenario): *Select by property* (category = toy), *Extract
  text* (description), *Query input*, *Rank by Text BM25*;
* Figure 3 (auction scenario): *Select by type* (lot), *Traverse property*
  (hasAuction, forward and backward), *Extract text*, two *Rank by Text*
  blocks and a weighted *Mix*.

Every block consumes and produces probabilistic relations, so "all the
operations in this strategy propagate probabilities through the graph"
(Section 3) without any block-specific code.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

from repro.errors import BlockError
from repro.ir.query_expansion import QueryExpander
from repro.ir.ranking import RankingModel
from repro.ir.ranking.base import RankedList
from repro.pra import operators as pra_operators
from repro.pra.assumptions import Assumption
from repro.pra.relation import PROBABILITY_COLUMN, ProbabilisticRelation
from repro.relational.column import Column, DataType
from repro.relational.relation import Relation
from repro.relational.schema import Field, Schema
from repro.strategy.blocks import Block, Port, PortKind, StrategyContext
from repro.text.analyzers import StandardAnalyzer
from repro.triples.graph import GraphNavigator


def _nodes_relation(rows: list[tuple[str, float]]) -> ProbabilisticRelation:
    schema = Schema([Field("node", DataType.STRING), Field(PROBABILITY_COLUMN, DataType.FLOAT)])
    return ProbabilisticRelation(Relation.from_rows(schema, rows), validate=False)


class QueryInputBlock(Block):
    """Provides the query keywords (the right-hand input of Figure 2)."""

    label = "Query input"

    def __init__(self, *, language: str = "english"):
        self.language = language
        self.analyzer = StandardAnalyzer(language)

    def output_port(self) -> Port:
        return Port("query", PortKind.QUERY, "analyzed query terms")

    def execute(self, context: StrategyContext, inputs: dict[str, Any]) -> list[str]:
        return self.analyzer.analyze_query(context.query)

    def describe(self) -> dict[str, Any]:
        return {"language": self.language}


class SelectByTypeBlock(Block):
    """Select graph resources of a given type (``(?, type, <type>)`` triples)."""

    label = "Select by type"
    request_independent = True

    def __init__(self, type_name: str):
        self.type_name = type_name

    def output_port(self) -> Port:
        return Port("resources", PortKind.RESOURCES, f"resources of type {self.type_name}")

    def execute(self, context: StrategyContext, inputs: dict[str, Any]) -> ProbabilisticRelation:
        selected = context.store.subjects_of_type(self.type_name)
        relation = selected.relation.rename({"subject": "node"})
        return ProbabilisticRelation(relation, validate=False)

    def describe(self) -> dict[str, Any]:
        return {"type": self.type_name}


class SelectByPropertyBlock(Block):
    """Select resources whose ``property`` equals ``value`` (the category=toy filter)."""

    label = "Select by property"
    request_independent = True

    def __init__(self, property_name: str, value: str):
        self.property_name = property_name
        self.value = value

    def output_port(self) -> Port:
        return Port(
            "resources",
            PortKind.RESOURCES,
            f"resources with {self.property_name} = {self.value}",
        )

    def execute(self, context: StrategyContext, inputs: dict[str, Any]) -> ProbabilisticRelation:
        matched = context.store.match(property_name=self.property_name, obj=self.value)
        relation = matched.relation.select_columns(["subject", PROBABILITY_COLUMN])
        relation = relation.rename({"subject": "node"})
        return ProbabilisticRelation(relation, validate=False)

    def describe(self) -> dict[str, Any]:
        return {"property": self.property_name, "value": self.value}


class IntersectBlock(Block):
    """Keep resources present in both inputs (probabilities multiplied)."""

    label = "Intersect"
    request_independent = True

    def input_ports(self) -> Sequence[Port]:
        return [
            Port("left", PortKind.RESOURCES, "first resource set"),
            Port("right", PortKind.RESOURCES, "second resource set"),
        ]

    def output_port(self) -> Port:
        return Port("resources", PortKind.RESOURCES, "resources in both inputs")

    def execute(self, context: StrategyContext, inputs: dict[str, Any]) -> ProbabilisticRelation:
        left = self._require_resources(self._require_input(inputs, "left"), port="left")
        right = self._require_resources(self._require_input(inputs, "right"), port="right")
        joined = pra_operators.join(left, right, [("node", "node")], Assumption.INDEPENDENT)
        return pra_operators.project(
            joined, [joined.value_columns[0]], Assumption.INDEPENDENT, output_names=["node"]
        )


class TraversePropertyBlock(Block):
    """Traverse one property edge, forward or backward, propagating probabilities."""

    label = "Traverse property"
    request_independent = True

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

    def execute(self, context: StrategyContext, inputs: dict[str, Any]) -> ProbabilisticRelation:
        start = self._require_resources(self._require_input(inputs, "resources"), port="resources")
        navigator = GraphNavigator(context.store, assumption=self.merge)
        return navigator.traverse(start, self.property_name, backward=self.backward)

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
    request_independent = True

    def __init__(self, text_property: str = "description"):
        self.text_property = text_property

    def input_ports(self) -> Sequence[Port]:
        return [Port("resources", PortKind.RESOURCES, "resources to extract text from")]

    def output_port(self) -> Port:
        return Port("documents", PortKind.DOCUMENTS, f"text of property {self.text_property}")

    def execute(self, context: StrategyContext, inputs: dict[str, Any]) -> ProbabilisticRelation:
        resources = self._require_resources(
            self._require_input(inputs, "resources"), port="resources"
        )
        texts = context.store.select_property(self.text_property)
        joined = pra_operators.join(
            resources, texts, [("node", "subject")], Assumption.INDEPENDENT
        )
        object_column = [name for name in joined.value_columns if name.startswith("object")][-1]
        docs = pra_operators.project(
            joined,
            [joined.value_columns[0], object_column],
            Assumption.INDEPENDENT,
            output_names=["docID", "data"],
        )
        return docs

    def describe(self) -> dict[str, Any]:
        return {"text_property": self.text_property}


class RankByTextBlock(Block):
    """Rank a document collection against the query (the *Rank by Text BM25* block).

    The block ranks the sub-collection it receives against on-demand
    collection statistics (two distinct inputs are two distinct indexes, as
    in Section 3), normalises the scores into probabilities and multiplies
    them with the documents' prior probabilities.  Statistics come from the
    context's :class:`~repro.ir.registry.StatisticsRegistry`, keyed on the
    content of the id and text columns: repeated queries over the same
    sub-collection reuse the index (hot vs. cold), an edited text never does.
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
        self.analyzer = StandardAnalyzer(language)

    def input_ports(self) -> Sequence[Port]:
        return [
            Port("documents", PortKind.DOCUMENTS, "the collection to rank"),
            Port("query", PortKind.QUERY, "the query terms"),
        ]

    def output_port(self) -> Port:
        return Port("ranked", PortKind.RANKED, f"documents ranked by {self.model.name}")

    def execute(self, context: StrategyContext, inputs: dict[str, Any]) -> ProbabilisticRelation:
        docs = self._require_resources(self._require_input(inputs, "documents"), port="documents")
        query_terms = self._require_input(inputs, "query")
        if not isinstance(query_terms, list):
            raise BlockError("the 'query' input must be a list of terms")
        if self.expander is not None:
            # Expansion dictionaries use natural-language terms, so seed the
            # expander with the raw query tokens from the context as well as
            # the analyzed terms, and analyze whatever it adds.
            raw_tokens = [
                token.lower()
                for token in self.analyzer.tokenizer.iter_tokens(context.query)
            ]
            seeds = list(dict.fromkeys(raw_tokens + list(query_terms)))
            additions: list[str] = []
            for addition in self.expander.expand(seeds):
                analyzed = self.analyzer.analyze(addition)
                additions.extend(analyzed if analyzed else [addition])
            query_terms = list(query_terms) + [
                term for term in dict.fromkeys(additions) if term not in query_terms
            ]

        doc_ids = docs.relation.column("docID")
        statistics = context.statistics.get(
            doc_ids, docs.relation.column("data"), self.analyzer
        )
        ranked: RankedList = self.model.rank(statistics, query_terms, top_k=self.top_k)
        # the statistics index documents in the collection's row order, so a
        # ranked document maps back to its row (its prior, its node) by index
        rows = statistics.doc_rows()[ranked.indices]
        combined = ranked.to_probabilities().scores * docs.probabilities()[rows]
        schema = Schema([Field("node", DataType.STRING), Field(PROBABILITY_COLUMN, DataType.FLOAT)])
        relation = Relation(
            schema,
            [doc_ids.take(rows).cast(DataType.STRING), Column(combined, DataType.FLOAT)],
        )
        return ProbabilisticRelation(relation, validate=False)

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
    request_independent = True

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

    def execute(self, context: StrategyContext, inputs: dict[str, Any]) -> ProbabilisticRelation:
        combined: ProbabilisticRelation | None = None
        for index, weight in enumerate(self.weights):
            payload = self._require_resources(
                self._require_input(inputs, f"ranked_{index}"), port=f"ranked_{index}"
            )
            weighted = pra_operators.weight(payload, weight)
            if combined is None:
                combined = weighted
            else:
                combined = pra_operators.unite(combined, weighted, Assumption.DISJOINT)
        assert combined is not None
        return combined.sorted_by_probability()

    def describe(self) -> dict[str, Any]:
        return {"weights": self.weights}


class LimitBlock(Block):
    """Keep only the top-k results of a ranked list."""

    label = "Limit"
    request_independent = True

    def __init__(self, count: int):
        if count < 1:
            raise BlockError("Limit requires a positive count")
        self.count = count

    def input_ports(self) -> Sequence[Port]:
        return [Port("ranked", PortKind.RANKED, "ranked list to truncate")]

    def output_port(self) -> Port:
        return Port("ranked", PortKind.RANKED, f"top {self.count} results")

    def execute(self, context: StrategyContext, inputs: dict[str, Any]) -> ProbabilisticRelation:
        ranked = self._require_resources(self._require_input(inputs, "ranked"), port="ranked")
        return ranked.top(self.count)

    def describe(self) -> dict[str, Any]:
        return {"count": self.count}
