"""Physical execution of logical plans.

The :class:`Executor` walks a :class:`~repro.relational.algebra.LogicalPlan`
bottom-up and produces a :class:`~repro.relational.relation.Relation` for
every node.  Execution is column-at-a-time over NumPy arrays: selection
evaluates the predicate once over the whole input and applies the resulting
boolean mask; the equi-join dictionary-encodes both key sides into a shared
integer domain, sorts the build side's codes once, and probes with
``np.searchsorted`` range lookups; aggregation factorizes the group keys
into dense codes and evaluates ``count``/``sum``/``avg``/``min``/``max``
with ``np.bincount`` and ``np.ufunc.reduceat`` over the argsorted codes.

Columns cache their dictionary codes (see
:meth:`~repro.relational.column.Column.factorize`), so repeated joins
against the same relation — e.g. the term-lookup join of Figure 1 — pay the
encoding cost only once.  Key values no dictionary can order (NaN, mixed
types) are coded by :func:`~repro.relational.column.key_codes` with one
dict pass instead, so every input takes the same kernel; the row-at-a-time
reference kernels the tests compare against live in
``tests/reference_kernels.py``.

This mirrors the execution model of the column store the paper runs on; the
goal is that the *relative* performance behaviour (e.g. materialised
intermediate results vs. recomputation, join-input sizes, query-term count)
matches the shapes the paper reports.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from typing import Any

import numpy as np

from repro.errors import PlanError
from repro.relational.algebra import (
    Aggregate,
    AggregateSpec,
    Distinct,
    Join,
    Limit,
    LogicalPlan,
    Project,
    Scan,
    Select,
    Sort,
    TableFunctionScan,
    Union,
    Values,
)
from repro.relational.column import Column, DataType, group_rows, key_codes
from repro.relational.functions import FunctionRegistry
from repro.relational.relation import Relation
from repro.relational.schema import Field, Schema


class Executor:
    """Executes logical plans against a table resolver and a function registry."""

    def __init__(
        self,
        resolve_table: Callable[[str], Relation | LogicalPlan],
        functions: FunctionRegistry,
    ):
        self._resolve_table = resolve_table
        self._functions = functions

    # -- public API ----------------------------------------------------------

    def execute(self, plan: LogicalPlan) -> Relation:
        """Execute ``plan`` and return the resulting relation."""
        if isinstance(plan, Scan):
            return self._execute_scan(plan)
        if isinstance(plan, Values):
            return plan.relation
        if isinstance(plan, Select):
            return self._execute_select(plan)
        if isinstance(plan, Project):
            return self._execute_project(plan)
        if isinstance(plan, Join):
            return self._execute_join(plan)
        if isinstance(plan, Aggregate):
            return self._execute_aggregate(plan)
        if isinstance(plan, Sort):
            return self._execute_sort(plan)
        if isinstance(plan, Limit):
            return self.execute(plan.child).head(plan.count)
        if isinstance(plan, Distinct):
            return self.execute(plan.child).distinct()
        if isinstance(plan, Union):
            return self.execute(plan.left).concat(self.execute(plan.right))
        if isinstance(plan, TableFunctionScan):
            return self._execute_table_function(plan)
        raise PlanError(f"unknown plan node {type(plan).__name__}")

    # -- node implementations --------------------------------------------------

    def _execute_scan(self, plan: Scan) -> Relation:
        resolved = self._resolve_table(plan.table)
        if isinstance(resolved, Relation):
            return resolved
        return self.execute(resolved)

    def _execute_select(self, plan: Select) -> Relation:
        child = self.execute(plan.child)
        if child.num_rows == 0:
            return child
        mask_column = plan.predicate.evaluate(child, self._functions)
        if mask_column.dtype is not DataType.BOOL:
            raise PlanError(
                f"selection predicate must be boolean, got {mask_column.dtype.value}"
            )
        return child.filter(mask_column.values)

    def _execute_project(self, plan: Project) -> Relation:
        child = self.execute(plan.child)
        fields = []
        columns = []
        for name, expression in plan.columns:
            column = expression.evaluate(child, self._functions)
            fields.append(Field(name, column.dtype))
            columns.append(column)
        return Relation(Schema(fields), columns)

    def _execute_join(self, plan: Join) -> Relation:
        left = self.execute(plan.left)
        right = self.execute(plan.right)
        left_keys = [pair[0] for pair in plan.conditions]
        right_keys = [pair[1] for pair in plan.conditions]
        left_indices, right_indices = hash_join_indices(
            left, right, left_keys, right_keys, how=plan.how
        )
        joined_left = left.take(left_indices)
        combined_schema = left.schema.concat(right.schema)
        columns = list(joined_left.columns().values())
        for position in range(right.num_columns):
            columns.append(_take_or_null(right.column_at(position), right_indices))
        return Relation(combined_schema, columns)

    def _execute_aggregate(self, plan: Aggregate) -> Relation:
        child = self.execute(plan.child)
        return aggregate_relation(child, plan.keys, plan.aggregates)

    def _execute_sort(self, plan: Sort) -> Relation:
        child = self.execute(plan.child)
        return child.sort_by([(key.column, key.ascending) for key in plan.keys])

    def _execute_table_function(self, plan: TableFunctionScan) -> Relation:
        child = self.execute(plan.child)
        function = self._functions.table(plan.function)
        return function.apply(child)


# ---------------------------------------------------------------------------
# Join and aggregation kernels (shared with the PRA evaluator)
# ---------------------------------------------------------------------------


def hash_join_indices(
    left: Relation,
    right: Relation,
    left_keys: Sequence[str],
    right_keys: Sequence[str],
    how: str = "inner",
) -> tuple[np.ndarray, np.ndarray]:
    """Compute matching row indices for an equi-join.

    Returns two integer arrays of equal length: positions into ``left`` and
    positions into ``right``.  For a left outer join, unmatched left rows are
    emitted with a right index of ``-1``.  Output pairs are ordered by left
    row, then by right row within each left row.
    """
    if len(left_keys) != len(right_keys) or not left_keys:
        raise PlanError("join requires at least one (left, right) key pair")
    codes = key_codes(
        [left.column(name) for name in left_keys], [right.column(name) for name in right_keys]
    )
    left_codes, right_codes = codes[: left.num_rows], codes[left.num_rows :]
    order = np.argsort(right_codes, kind="stable")
    sorted_codes = right_codes[order]
    starts = np.searchsorted(sorted_codes, left_codes, side="left")
    ends = np.searchsorted(sorted_codes, left_codes, side="right")
    counts = ends - starts
    if how == "left":
        # unmatched left rows point one past the sorted build side, where a
        # sentinel -1 is appended, and emit exactly one output row
        unmatched = counts == 0
        starts = np.where(unmatched, len(order), starts)
        counts = np.where(unmatched, 1, counts)
        order = np.concatenate([order, np.asarray([-1], dtype=np.int64)])
    total = int(counts.sum())
    left_out = np.repeat(np.arange(left.num_rows, dtype=np.int64), counts)
    if total == 0:
        return left_out, np.empty(0, dtype=np.int64)
    output_starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    offsets = np.arange(total, dtype=np.int64) - np.repeat(output_starts, counts)
    right_out = order[np.repeat(starts, counts) + offsets]
    return left_out, right_out.astype(np.int64, copy=False)


def _take_or_null(column: Column, indices: np.ndarray) -> Column:
    """``column`` at ``indices``, with a type-appropriate null surrogate at each -1.

    The engine has no true NULL; left-join misses become 0 / 0.0 / "" / False,
    which is sufficient for the plans used in this reproduction.
    """
    misses = indices < 0
    if not misses.any():
        return column.take(indices)
    if column.dtype is DataType.STRING:
        surrogate: Any = ""
    elif column.dtype is DataType.FLOAT:
        surrogate = 0.0
    elif column.dtype is DataType.INT:
        surrogate = 0
    else:
        surrogate = False
    if len(column) == 0:
        return Column.constant(surrogate, len(indices), column.dtype)
    values = column.take(np.where(misses, 0, indices)).values.copy()
    values[misses] = surrogate
    return Column(values, column.dtype)


_AGGREGATE_OUTPUT_TYPES = {
    "count": DataType.INT,
    "sum": None,  # same as input (INT stays INT, FLOAT stays FLOAT)
    "avg": DataType.FLOAT,
    "min": None,
    "max": None,
}


def group_codes(relation: Relation, keys: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """Assign each row of ``relation`` a dense group id in first-seen order.

    Returns ``(codes, representatives)``: ``codes[i]`` is the group of row
    ``i`` (``0 .. G-1``, numbered in order of each group's first occurrence)
    and ``representatives[g]`` is the row index of group ``g``'s first row.
    With empty ``keys`` every row belongs to one global group.

    Rows group by Python equality of their key values (see
    :func:`~repro.relational.column.group_rows`), so any key columns group.
    """
    num_rows = relation.num_rows
    if not keys:
        return np.zeros(num_rows, dtype=np.int64), np.zeros(min(num_rows, 1), dtype=np.int64)
    return group_rows([relation.column(name) for name in keys])


def group_segments(codes: np.ndarray, num_groups: int) -> tuple[np.ndarray, np.ndarray]:
    """Return ``(order, segment_starts)`` for segmented reductions over groups.

    ``order`` stably sorts rows by group code (preserving row order within
    each group) and ``segment_starts[g]`` is the offset of group ``g``'s
    first row in the sorted view — the index array ``np.ufunc.reduceat``
    expects.  Requires every group ``0 .. num_groups-1`` to be non-empty.
    """
    order = np.argsort(codes, kind="stable")
    segment_starts = np.searchsorted(codes[order], np.arange(num_groups))
    return order, segment_starts


def aggregate_relation(
    relation: Relation,
    keys: Sequence[str],
    aggregates: Sequence[AggregateSpec],
) -> Relation:
    """Group ``relation`` by ``keys`` and evaluate ``aggregates`` per group.

    Output groups appear in order of first occurrence of their key values.
    """
    for spec in aggregates:
        if spec.function not in _AGGREGATE_OUTPUT_TYPES:
            raise PlanError(f"unknown aggregate function {spec.function!r}")
    codes, representatives = group_codes(relation, keys)
    num_groups = len(representatives) if keys else 1

    # one stable sort by group code shared by every reduceat-based aggregate
    order: np.ndarray | None = None
    segment_starts: np.ndarray | None = None
    if relation.num_rows and any(spec.function != "count" for spec in aggregates):
        order, segment_starts = group_segments(codes, num_groups)

    fields: list[Field] = []
    columns: list[Column] = []
    for name in keys:
        fields.append(Field(name, relation.schema.dtype_of(name)))
        columns.append(relation.column(name).take(representatives))

    for spec in aggregates:
        values, dtype = _aggregate_column(
            relation, spec, codes, num_groups, order, segment_starts
        )
        fields.append(Field(spec.output_name, dtype))
        columns.append(Column(values, dtype))

    return Relation(Schema(fields), columns)


def _aggregate_column(
    relation: Relation,
    spec: AggregateSpec,
    codes: np.ndarray,
    num_groups: int,
    order: np.ndarray | None,
    segment_starts: np.ndarray | None,
) -> tuple[np.ndarray | list[Any], DataType]:
    if spec.function == "count":
        counts = np.bincount(codes, minlength=num_groups).astype(np.int64)
        return counts, DataType.INT

    if spec.input_column is None:
        raise PlanError(f"aggregate {spec.function!r} requires an input column")
    column = relation.column(spec.input_column)

    if spec.function == "avg":
        output_dtype = DataType.FLOAT
    elif spec.function == "sum":
        output_dtype = DataType.INT if column.dtype is DataType.INT else DataType.FLOAT
    else:
        output_dtype = column.dtype

    if relation.num_rows == 0:
        # the global group over an empty input aggregates to the 0 surrogate
        return [0] * num_groups, output_dtype

    values = column.values
    if spec.function in ("sum", "avg"):
        if column.dtype is DataType.STRING:
            raise TypeError(f"cannot {spec.function} a string column")
        if column.dtype is DataType.BOOL:
            values = values.astype(np.int64)
        sums = np.add.reduceat(values[order], segment_starts)
        if spec.function == "sum":
            return sums, output_dtype
        counts = np.bincount(codes, minlength=num_groups)
        return sums.astype(np.float64) / counts, output_dtype
    reducer = np.minimum if spec.function == "min" else np.maximum
    return reducer.reduceat(values[order], segment_starts), output_dtype
