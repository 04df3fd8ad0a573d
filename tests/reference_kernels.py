"""Row-at-a-time reference kernels: the oracle the columnar operators are checked against.

Each function computes one relational or PRA operator the obvious way —
Python dicts keyed on row tuples, one row at a time — so its behaviour is
Python's equality (``NaN`` equals nothing, ``"1"`` is not ``1``, ``1`` is
``1.0``) and Python's arithmetic, with no factorization, sorting or
segmented reduction in between.  The production kernels in
:mod:`repro.relational.operators`, :mod:`repro.relational.relation` and
:mod:`repro.pra.operators` must agree with these on every input, orderable
or not; ``tests/relational/test_kernel_equivalence.py``,
``tests/pra/test_operators.py`` and ``tests/property/test_plan_equivalence.py``
hold them to it.  :func:`str_sort_order` is the string order the sort kernel
kept before STRING columns carried their codes, and :func:`string_columns`
builds the same values uncoded, coded and coded against a shared dictionary.
"""

from __future__ import annotations

from collections import OrderedDict, defaultdict
from collections.abc import Sequence
from typing import Any

import numpy as np

from repro.errors import PlanError
from repro.pra.assumptions import Assumption
from repro.pra.relation import PROBABILITY_COLUMN, ProbabilisticRelation
from repro.relational.algebra import AggregateSpec
from repro.relational.column import Column, DataType
from repro.relational.relation import Relation
from repro.relational.schema import Field, Schema

# ---------------------------------------------------------------------------
# relational operators
# ---------------------------------------------------------------------------


def join_indices_rows(
    left: Relation,
    right: Relation,
    left_keys: Sequence[str],
    right_keys: Sequence[str],
    how: str = "inner",
) -> tuple[np.ndarray, np.ndarray]:
    """Row-at-a-time equi-join: ``hash_join_indices``' reference."""
    right_key_columns = [right.column(name).to_list() for name in right_keys]
    table: dict[tuple[Any, ...], list[int]] = defaultdict(list)
    for row_index in range(right.num_rows):
        key = tuple(column[row_index] for column in right_key_columns)
        table[key].append(row_index)
    left_key_columns = [left.column(name).to_list() for name in left_keys]
    left_out: list[int] = []
    right_out: list[int] = []
    for row_index in range(left.num_rows):
        key = tuple(column[row_index] for column in left_key_columns)
        matches = table.get(key)
        if matches:
            for match in matches:
                left_out.append(row_index)
                right_out.append(match)
        elif how == "left":
            left_out.append(row_index)
            right_out.append(-1)
    return (
        np.asarray(left_out, dtype=np.int64),
        np.asarray(right_out, dtype=np.int64),
    )


def aggregate_relation_rows(
    relation: Relation,
    keys: Sequence[str],
    aggregates: Sequence[AggregateSpec],
) -> Relation:
    """Row-at-a-time aggregation: ``aggregate_relation``'s reference."""
    key_columns = [relation.column(name) for name in keys]
    groups: dict[tuple[Any, ...], list[int]] = defaultdict(list)
    if keys:
        key_lists = [column.to_list() for column in key_columns]
        for row_index in range(relation.num_rows):
            group_key = tuple(values[row_index] for values in key_lists)
            groups[group_key].append(row_index)
    else:
        groups[()] = list(range(relation.num_rows))

    ordered_keys = list(groups.keys())

    fields: list[Field] = []
    columns: list[Column] = []
    for position, name in enumerate(keys):
        dtype = relation.schema.dtype_of(name)
        values = [group_key[position] for group_key in ordered_keys]
        fields.append(Field(name, dtype))
        columns.append(Column(values, dtype))

    for spec in aggregates:
        values, dtype = _evaluate_aggregate(relation, spec, ordered_keys, groups)
        fields.append(Field(spec.output_name, dtype))
        columns.append(Column(values, dtype))

    return Relation(Schema(fields), columns)


def _evaluate_aggregate(
    relation: Relation,
    spec: AggregateSpec,
    ordered_keys: list[tuple[Any, ...]],
    groups: dict[tuple[Any, ...], list[int]],
) -> tuple[list[Any], DataType]:
    if spec.function == "count":
        return [len(groups[key]) for key in ordered_keys], DataType.INT

    if spec.input_column is None:
        raise PlanError(f"aggregate {spec.function!r} requires an input column")
    column = relation.column(spec.input_column)
    values_list = column.to_list()

    results: list[Any] = []
    for key in ordered_keys:
        group_values = [values_list[index] for index in groups[key]]
        if not group_values:
            results.append(0)
            continue
        if spec.function == "sum":
            results.append(sum(group_values))
        elif spec.function == "avg":
            results.append(float(sum(group_values)) / len(group_values))
        elif spec.function == "min":
            results.append(min(group_values))
        elif spec.function == "max":
            results.append(max(group_values))

    if spec.function == "avg":
        return results, DataType.FLOAT
    if spec.function == "sum" and column.dtype is DataType.INT:
        return results, DataType.INT
    if spec.function == "sum":
        return results, DataType.FLOAT
    return results, column.dtype


def distinct_rows(relation: Relation) -> Relation:
    """Row-at-a-time duplicate removal: ``Relation.distinct``'s reference."""
    seen: set[tuple[Any, ...]] = set()
    keep = np.zeros(relation.num_rows, dtype=bool)
    for index, row in enumerate(relation.rows()):
        if row not in seen:
            seen.add(row)
            keep[index] = True
    return relation.filter(keep)


# ---------------------------------------------------------------------------
# PRA operators
# ---------------------------------------------------------------------------


def project_merge_rows(
    projected: Relation,
    probabilities: np.ndarray,
    assumption: Assumption,
) -> ProbabilisticRelation:
    """Row-at-a-time duplicate merge of an already projected relation:
    ``project``'s reference."""
    merged: "OrderedDict[tuple[Any, ...], float]" = OrderedDict()
    for index, row in enumerate(projected.rows()):
        probability = float(probabilities[index])
        if row in merged:
            merged[row] = assumption.combine_or(merged[row], probability)
        else:
            merged[row] = probability

    fields = list(projected.schema.fields) + [Field(PROBABILITY_COLUMN, DataType.FLOAT)]
    rows = [tuple(row) + (probability,) for row, probability in merged.items()]
    return ProbabilisticRelation(Relation.from_rows(Schema(fields), rows), validate=False)


def unite_rows(
    left: ProbabilisticRelation,
    right: ProbabilisticRelation,
    assumption: Assumption,
) -> ProbabilisticRelation:
    """Row-at-a-time union: ``unite``'s reference."""
    merged: "OrderedDict[tuple[Any, ...], float]" = OrderedDict()
    for side in (left, right):
        for row, probability in zip(side.value_rows(), side.probabilities()):
            if row in merged:
                merged[row] = assumption.combine_or(merged[row], float(probability))
            else:
                merged[row] = float(probability)

    fields = list(left.values_relation().schema.fields) + [
        Field(PROBABILITY_COLUMN, DataType.FLOAT)
    ]
    rows = [tuple(row) + (probability,) for row, probability in merged.items()]
    return ProbabilisticRelation(Relation.from_rows(Schema(fields), rows), validate=False)


def bayes_rows(
    input_relation: ProbabilisticRelation,
    evidence_columns: Sequence[str],
    probabilities: np.ndarray,
) -> ProbabilisticRelation:
    """Row-at-a-time evidence grouping: ``bayes``' reference."""
    if evidence_columns:
        values = input_relation.relation.select_columns(list(evidence_columns))
        keys = list(values.rows())
    else:
        keys = [()] * input_relation.num_rows
    totals: dict[tuple[Any, ...], float] = {}
    for key, probability in zip(keys, probabilities):
        totals[key] = totals.get(key, 0.0) + float(probability)
    normalised = np.empty(len(probabilities), dtype=np.float64)
    for index, (key, probability) in enumerate(zip(keys, probabilities)):
        total = totals[key]
        normalised[index] = float(probability) / total if total > 0 else 0.0
    return input_relation.with_probabilities(normalised)


def string_columns(parts: Sequence[Sequence[Any]], coding: str) -> list[Column]:
    """One STRING column per part: uncoded, each coded on its own, or all coded
    against one dictionary object that also holds values no part has."""
    if coding == "uncoded":
        return [Column(part, DataType.STRING) for part in parts]
    if coding == "own":
        columns = [Column(part, DataType.STRING) for part in parts]
        for column in columns:
            column.factorize()
        return columns
    unused = ["zz-unused", "0-unused"]
    whole = Column([value for part in parts for value in part] + unused, DataType.STRING)
    whole.factorize()
    columns, start = [], 0
    for part in parts:
        columns.append(whole.slice(start, start + len(part)))
        start += len(part)
    return columns


def str_sort_order(relation: Relation, keys: Sequence[tuple[str, bool]]) -> np.ndarray:
    """The row order ``Relation.sort_by`` gave before columns carried codes:
    every STRING key compared as NumPy fixed-width ``str``."""
    order = np.arange(relation.num_rows)
    for name, ascending in reversed(keys):
        column = relation.column(name)
        values = column.values[order]
        if column.dtype is DataType.STRING:
            values = np.asarray(values, dtype=str)
        if ascending:
            positions = np.argsort(values, kind="stable")
        else:
            _, codes = np.unique(values, return_inverse=True)
            positions = np.argsort(-codes, kind="stable")
        order = order[positions]
    return order
