"""Evaluation of PRA plans against a relational database.

The evaluator resolves :class:`~repro.pra.plan.PraScan` nodes through the
database catalog, lifting ordinary relations to probability 1.0, and applies
the probability-combination kernels of :mod:`repro.pra.operators` node by
node.  The positional column references used by SpinQL are resolved against
the value columns of each intermediate relation.

:class:`~repro.pra.plan.PraParam` nodes are resolved against the ``bindings``
mapping passed to :meth:`PRAEvaluator.evaluate`, which is how the engine
facade executes one compiled plan against many different parameter values.
A :class:`~repro.pra.plan.PraRank` node reads its keyword query from the same
mapping (a string) and its collection statistics from the evaluator's
:class:`~repro.ir.registry.StatisticsRegistry`.

An evaluation may keep a *record* of the nodes its caller names, by
identity: each is evaluated once, so a subplan that two parents share runs
once, and its entry (:class:`Evaluated`) gives its output and timing.  Only
the named nodes' outputs are kept, so the others are freed as soon as their
parents have read them.
"""

from __future__ import annotations

import time
from collections.abc import Mapping
from typing import Any, NamedTuple

from repro.errors import PRAError
from repro.ir.query_expansion import expanded_terms
from repro.ir.registry import StatisticsRegistry
from repro.pra import operators as pra_operators
from repro.pra.plan import (
    PraBayes,
    PraJoin,
    PraParam,
    PraPlan,
    PraProject,
    PraRank,
    PraScan,
    PraSelect,
    PraSubtract,
    PraTop,
    PraUnite,
    PraValues,
    PraWeight,
)
from repro.pra.relation import PROBABILITY_COLUMN, ProbabilisticRelation
from repro.relational.column import Column, DataType
from repro.relational.database import Database
from repro.relational.relation import Relation
from repro.relational.schema import Field, Schema
from repro.text.analyzers import StandardAnalyzer


class Evaluated(NamedTuple):
    """A node of an evaluation's record: its output, and the
    ``time.perf_counter()`` its evaluation began at and the seconds it took,
    its children's included."""

    output: Any
    started: float
    seconds: float


#: an evaluation's record: ``id(node)`` -> its entry, ``None`` until evaluated
Record = dict[int, Evaluated | None]


class PRAEvaluator:
    """Evaluates PRA plans against a :class:`~repro.relational.database.Database`."""

    def __init__(self, database: Database, statistics: StatisticsRegistry | None = None):
        self.database = database
        #: where RANK nodes get the statistics of the collections they rank
        self.statistics = statistics if statistics is not None else StatisticsRegistry()

    def evaluate(
        self,
        plan: PraPlan,
        *,
        bindings: Mapping[str, Any] | None = None,
        record: Record | None = None,
    ) -> ProbabilisticRelation:
        """Evaluate ``plan`` and return the resulting probabilistic relation.

        ``bindings`` maps :class:`~repro.pra.plan.PraParam` names to the
        probabilistic relations to substitute for them, and the query name
        of each :class:`~repro.pra.plan.PraRank` to its keyword query.
        ``record``, when given, serves each node it holds an entry for and
        enters each node it names that this call evaluates.
        """
        if record is None or id(plan) not in record:
            return self._evaluate(plan, bindings, record)
        entry = record[id(plan)]
        if entry is not None:
            return entry.output
        started = time.perf_counter()
        output = self._evaluate(plan, bindings, record)
        record[id(plan)] = Evaluated(output, started, time.perf_counter() - started)
        return output

    def _evaluate(
        self, plan: PraPlan, bindings: Mapping[str, Any] | None, record: Record | None
    ) -> ProbabilisticRelation:
        if isinstance(plan, PraScan):
            relation = self.database.query(plan.table)
            return ProbabilisticRelation.lift(relation)
        if isinstance(plan, PraValues):
            return plan.relation
        if isinstance(plan, PraParam):
            if bindings is None or plan.name not in bindings:
                available = sorted(bindings) if bindings else []
                raise PRAError(
                    f"unbound plan parameter {plan.name!r}; bound parameters: {available}"
                )
            return bindings[plan.name]
        if not isinstance(plan, PraPlan):
            raise PRAError(f"unknown PRA plan node {type(plan).__name__}")
        inputs = [
            self.evaluate(child, bindings=bindings, record=record) for child in plan.children()
        ]
        if isinstance(plan, PraSelect):
            return pra_operators.select(inputs[0], plan.predicate, self.database.functions)
        if isinstance(plan, PraProject):
            columns = self._resolve_positions(inputs[0], plan.positions)
            return pra_operators.project(
                inputs[0], columns, plan.assumption, output_names=plan.output_names
            )
        if isinstance(plan, PraJoin):
            left, right = inputs
            conditions = [
                (
                    self._resolve_position(left, left_position),
                    self._resolve_position(right, right_position),
                )
                for left_position, right_position in plan.conditions
            ]
            return pra_operators.join(left, right, conditions, plan.assumption)
        if isinstance(plan, PraUnite):
            return pra_operators.unite(*inputs, plan.assumption)
        if isinstance(plan, PraSubtract):
            return pra_operators.subtract(*inputs)
        if isinstance(plan, PraBayes):
            evidence = self._resolve_positions(inputs[0], plan.evidence_positions)
            return pra_operators.bayes(inputs[0], evidence)
        if isinstance(plan, PraWeight):
            return pra_operators.weight(inputs[0], plan.factor)
        if isinstance(plan, PraTop):
            return pra_operators.top(inputs[0], plan.k)
        if isinstance(plan, PraRank):
            query = (bindings or {}).get(plan.query)
            if not isinstance(query, (str, list)):
                raise PRAError(
                    f"RANK needs its query {plan.query!r} bound to a string or a term list"
                )
            return self._rank(plan, inputs[0], query)
        raise PRAError(f"unknown PRA plan node {type(plan).__name__}")

    def _rank(
        self, plan: PraRank, docs: ProbabilisticRelation, query: str | list[str]
    ) -> ProbabilisticRelation:
        """Rank ``docs`` (two value columns: id, text) against ``query``.

        ``query`` is the query text, or its terms already analyzed.  The
        statistics index the documents in row order, so a ranked document
        maps back to its row (its prior, its id) by index.
        """
        if len(docs.value_columns) != 2:
            raise PRAError(f"RANK expects (id, text) columns, got {docs.value_columns}")
        analyzer = StandardAnalyzer(plan.language)
        if isinstance(query, str):
            text, terms = query, analyzer.analyze_query(query)
        else:
            text, terms = "", list(query)
        if plan.expander is not None:
            added = expanded_terms(analyzer, plan.expander, text, terms)
            terms = terms + [term for term in added if term not in terms]
        id_name, text_name = docs.value_columns
        doc_ids = docs.relation.column(id_name)
        statistics = self.statistics.get(doc_ids, docs.relation.column(text_name), analyzer)
        ranked = plan.model.rank(statistics, terms, top_k=plan.top_k)
        rows = statistics.doc_rows()[ranked.indices]
        combined = ranked.to_probabilities().scores * docs.probabilities()[rows]
        relation = Relation(
            _RANKED_SCHEMA,
            [doc_ids.take(rows).cast(DataType.STRING), Column(combined, DataType.FLOAT)],
        )
        return ProbabilisticRelation(relation, validate=False)

    # -- helpers --------------------------------------------------------------------

    @staticmethod
    def _resolve_position(relation: ProbabilisticRelation, position: int) -> str:
        value_columns = relation.value_columns
        if position < 1 or position > len(value_columns):
            raise PRAError(
                f"positional reference ${position} out of range; the relation has "
                f"{len(value_columns)} value columns ({value_columns})"
            )
        return value_columns[position - 1]

    @classmethod
    def _resolve_positions(
        cls, relation: ProbabilisticRelation, positions: tuple[int, ...]
    ) -> list[str]:
        return [cls._resolve_position(relation, position) for position in positions]


_RANKED_SCHEMA = Schema([Field("node", DataType.STRING), Field(PROBABILITY_COLUMN, DataType.FLOAT)])

