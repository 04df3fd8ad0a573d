"""Probability-combination kernels for the PRA operators.

Each function takes probabilistic relations and returns a probabilistic
relation, implementing the semantics described in Section 2.3 of the paper
and in Fuhr & Rölleke (1997):

* selection keeps tuple probabilities unchanged;
* projection merges duplicate value-tuples under an assumption;
* join multiplies probabilities of matching tuples (independent events);
* union merges tuples occurring in either input under an assumption;
* subtraction keeps left tuples weighted by the complement of the right;
* the relational Bayes operator normalises probabilities within evidence
  groups (Roelleke et al., 2008), turning frequencies into conditional
  probabilities;
* weighting scales probabilities by a constant (the *Mix* block's weights).
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

import numpy as np

from repro.errors import PRAError, ProbabilityError
from repro.pra.assumptions import Assumption
from repro.pra.relation import PROBABILITY_COLUMN, ProbabilisticRelation
from repro.relational.column import Column, DataType, group_rows
from repro.relational.expressions import Expression
from repro.relational.functions import FunctionRegistry
from repro.relational.operators import group_codes, group_segments, hash_join_indices
from repro.relational.relation import Relation


def select(
    input_relation: ProbabilisticRelation,
    predicate: Expression,
    functions: FunctionRegistry,
) -> ProbabilisticRelation:
    """Probabilistic selection: filter rows, probabilities unchanged."""
    relation = input_relation.relation
    if relation.num_rows == 0:
        return input_relation
    mask = predicate.evaluate(relation, functions)
    if mask.dtype is not DataType.BOOL:
        raise PRAError("selection predicate must evaluate to a boolean column")
    return ProbabilisticRelation(relation.filter(mask.values), validate=False)


def project(
    input_relation: ProbabilisticRelation,
    columns: Sequence[str],
    assumption: Assumption = Assumption.INDEPENDENT,
    *,
    output_names: Sequence[str] | None = None,
) -> ProbabilisticRelation:
    """Probabilistic projection with duplicate merging.

    Duplicate value-tuples produced by the projection are merged into a single
    output tuple whose probability is the disjunction of the duplicates'
    probabilities under ``assumption``.
    """
    for name in columns:
        if name == PROBABILITY_COLUMN:
            raise PRAError("the probability column cannot be projected explicitly")
    relation = input_relation.relation
    projected = relation.select_columns(list(columns))
    if output_names is not None:
        if len(output_names) != len(columns):
            raise PRAError("output_names must match the projected columns")
        projected = projected.rename(dict(zip(columns, output_names)))
    probabilities = input_relation.probabilities()

    codes, representatives = group_codes(projected, projected.schema.names)
    num_groups = len(representatives)
    if num_groups and projected.num_rows:
        order, starts = group_segments(codes, num_groups)
        sorted_probabilities = probabilities[order]
        if assumption is Assumption.INDEPENDENT:
            merged = 1.0 - np.multiply.reduceat(1.0 - sorted_probabilities, starts)
        elif assumption is Assumption.DISJOINT:
            merged = np.minimum(np.add.reduceat(sorted_probabilities, starts), 1.0)
        else:
            merged = np.maximum.reduceat(sorted_probabilities, starts)
    else:
        merged = np.empty(0, dtype=np.float64)

    values = projected.take(representatives)
    column = Column(merged.astype(np.float64), DataType.FLOAT)
    return ProbabilisticRelation(
        values.with_column(PROBABILITY_COLUMN, column), validate=False
    )


def join(
    left: ProbabilisticRelation,
    right: ProbabilisticRelation,
    conditions: Sequence[tuple[str, str]],
    assumption: Assumption = Assumption.INDEPENDENT,
) -> ProbabilisticRelation:
    """Probabilistic equi-join: matching tuples conjoin their probabilities.

    Under the (default) independence assumption the output probability is the
    product ``p_left * p_right`` — exactly the ``t1.p * t2.p`` of the SQL the
    paper's SpinQL example translates to.
    """
    left_relation = left.values_relation()
    right_relation = right.values_relation()
    left_indices, right_indices = hash_join_indices(
        left_relation,
        right_relation,
        [pair[0] for pair in conditions],
        [pair[1] for pair in conditions],
    )
    combined_schema = left_relation.schema.concat(right_relation.schema)
    left_rows = left_relation.take(left_indices)
    right_rows = right_relation.take(right_indices)
    columns = list(left_rows.columns().values()) + list(right_rows.columns().values())
    values = Relation(combined_schema, columns)

    left_probabilities = left.probabilities()[left_indices]
    right_probabilities = right.probabilities()[right_indices]
    if assumption is Assumption.INDEPENDENT:
        probabilities = left_probabilities * right_probabilities
    elif assumption is Assumption.SUBSUMED:
        probabilities = np.minimum(left_probabilities, right_probabilities)
    else:
        raise PRAError("a disjoint join always yields probability zero; not supported")

    column = Column(probabilities.astype(np.float64), DataType.FLOAT)
    return ProbabilisticRelation(values.with_column(PROBABILITY_COLUMN, column), validate=False)


def unite(
    left: ProbabilisticRelation,
    right: ProbabilisticRelation,
    assumption: Assumption = Assumption.INDEPENDENT,
) -> ProbabilisticRelation:
    """Probabilistic union: tuples present in either input, probabilities disjoined.

    Output tuples appear in order of first occurrence (left rows, then right
    rows); the occurrences of one tuple are combined in that same order, one
    pairwise :meth:`Assumption.combine_or` at a time, so duplicate keys on
    either side merge exactly as a row-at-a-time fold would.  Tuples are
    equal when their values are equal in Python, also across sides whose
    column types differ (``1`` is ``1.0``, ``"1"`` is not ``1``); the output
    takes the left side's schema, holding each tuple's first-seen values.
    """
    if len(left.value_columns) != len(right.value_columns):
        raise PRAError(
            "union requires inputs with the same number of value columns, got "
            f"{left.value_columns} and {right.value_columns}"
        )
    left_values = left.values_relation()
    right_values = right.values_relation()
    if left_values.schema.compatible_with(right_values.schema):
        values = left_values.concat(right_values)
        codes, representatives = group_codes(values, values.schema.names)
    else:
        values = _pooled_values(left_values, right_values)
        codes, representatives = group_rows(
            list(left_values.columns().values()), list(right_values.columns().values())
        )
    probabilities = np.concatenate([left.probabilities(), right.probabilities()])
    merged = probabilities[representatives]
    if len(representatives) < len(codes):
        order, starts = group_segments(codes, len(representatives))
        sizes = np.diff(np.append(starts, len(codes)))
        # round n folds every group's n-th occurrence into its running value:
        # the same pairwise combination, in the same order, as the row fold
        active = np.nonzero(sizes > 1)[0]
        occurrence = 1
        while len(active):
            nth = probabilities[order[starts[active] + occurrence]]
            if assumption is Assumption.INDEPENDENT:
                merged[active] = 1.0 - (1.0 - merged[active]) * (1.0 - nth)
            elif assumption is Assumption.DISJOINT:
                merged[active] = np.minimum(merged[active] + nth, 1.0)
            else:
                merged[active] = np.maximum(merged[active], nth)
            occurrence += 1
            active = active[sizes[active] > occurrence]
    column = Column(merged, DataType.FLOAT)
    return ProbabilisticRelation(
        values.take(representatives).with_column(PROBABILITY_COLUMN, column), validate=False
    )


def _pooled_values(left: Relation, right: Relation) -> Relation:
    """``right``'s rows after ``left``'s, as ``left``'s types hold the values.

    The sides' column types differ, so the values pass through Python
    objects: an INT column takes a FLOAT side's values as ``Column`` converts
    them, a STRING column keeps another side's numbers as they are.
    """
    return Relation(
        left.schema,
        [
            Column(
                np.concatenate([column.values.astype(object), other.values.astype(object)]),
                column.dtype,
            )
            for column, other in zip(left.columns().values(), right.columns().values())
        ],
    )


def subtract(
    left: ProbabilisticRelation,
    right: ProbabilisticRelation,
) -> ProbabilisticRelation:
    """Probabilistic difference: ``P(left and not right)`` per value-tuple."""
    if len(left.value_columns) != len(right.value_columns):
        raise PRAError("subtraction requires inputs with the same number of value columns")
    right_probability: dict[tuple[Any, ...], float] = {}
    for row, probability in zip(right.value_rows(), right.probabilities()):
        existing = right_probability.get(row, 0.0)
        right_probability[row] = Assumption.INDEPENDENT.combine_or(existing, float(probability))

    probabilities = left.probabilities().copy()
    for index, row in enumerate(left.value_rows()):
        if row in right_probability:
            probabilities[index] *= 1.0 - right_probability[row]
    return left.with_probabilities(probabilities)


def bayes(
    input_relation: ProbabilisticRelation,
    evidence_columns: Sequence[str],
) -> ProbabilisticRelation:
    """The relational Bayes operator: normalise probabilities within evidence groups.

    For each group of tuples sharing the same values of ``evidence_columns``,
    probabilities are divided by the group total, yielding conditional
    probabilities ``P(tuple | evidence)``.  With an empty ``evidence_columns``
    the whole relation forms one group (global normalisation).
    """
    probabilities = input_relation.probabilities()
    if input_relation.num_rows == 0:
        return input_relation
    codes, representatives = group_codes(input_relation.relation, list(evidence_columns))
    num_groups = max(len(representatives), 1)
    totals = np.bincount(codes, weights=probabilities, minlength=num_groups)
    row_totals = totals[codes]
    normalised = np.divide(
        probabilities,
        row_totals,
        out=np.zeros(len(probabilities), dtype=np.float64),
        where=row_totals > 0,
    )
    return input_relation.with_probabilities(normalised)


def weight(input_relation: ProbabilisticRelation, factor: float) -> ProbabilisticRelation:
    """Scale every tuple probability by ``factor`` (the Mix block's weights)."""
    if factor < 0 or factor > 1:
        raise ProbabilityError(
            f"weight factor must lie in [0, 1] to keep probabilities valid, got {factor}"
        )
    return input_relation.scaled(factor)


def top(input_relation: ProbabilisticRelation, k: int) -> ProbabilisticRelation:
    """Rank-aware top-k: the ``k`` most probable tuples, deterministically ordered.

    Exactly equivalent to a full deterministic sort (probability descending,
    ties broken by value columns ascending) followed by a ``k``-row slice,
    but evaluated with the partial-sort kernel of
    :meth:`~repro.pra.relation.ProbabilisticRelation.top`.
    """
    if k < 0:
        raise PRAError(f"top-k requires a non-negative k, got {k}")
    return input_relation.top(k)
