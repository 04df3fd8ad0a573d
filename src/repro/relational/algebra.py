"""Logical relational algebra plans.

A query in the engine is a tree of :class:`LogicalPlan` nodes.  Plans are
immutable descriptions; they are executed as written by
:mod:`repro.relational.operators`, rendered to SQL by
:mod:`repro.relational.sqlgen`, and fingerprinted by
:mod:`repro.relational.cache` for on-demand materialization.

The node set matches what the paper's SQL listings require: scans, selection,
projection (with computed expressions), equi-joins, grouping/aggregation,
sorting, limiting, distinct, union, constant relations and table-function
scans (for ``tokenize``).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Any

from repro.errors import PlanError
from repro.relational.expressions import Expression
from repro.relational.relation import Relation


class LogicalPlan:
    """Base class for logical plan nodes."""

    def children(self) -> list["LogicalPlan"]:
        """Return the child plans of this node."""
        return []

    def with_children(self, children: Sequence["LogicalPlan"]) -> "LogicalPlan":
        """Return a copy of this node with its children replaced."""
        raise NotImplementedError

    def fingerprint(self) -> str:
        """Return a deterministic string identifying this plan (for caching)."""
        raise NotImplementedError

    def describe(self, indent: int = 0) -> str:
        """Return a human-readable, indented plan description."""
        lines = ["  " * indent + self._describe_self()]
        for child in self.children():
            lines.append(child.describe(indent + 1))
        return "\n".join(lines)

    def _describe_self(self) -> str:
        return type(self).__name__


@dataclass(frozen=True)
class Scan(LogicalPlan):
    """Scan a named base table or view from the catalog."""

    table: str

    def with_children(self, children: Sequence[LogicalPlan]) -> "Scan":
        if children:
            raise PlanError("Scan has no children")
        return self

    def fingerprint(self) -> str:
        return f"scan({self.table})"

    def _describe_self(self) -> str:
        return f"Scan({self.table})"


@dataclass(frozen=True)
class Values(LogicalPlan):
    """A constant, already-materialised relation embedded in the plan."""

    relation: Relation
    label: str = "values"

    def with_children(self, children: Sequence[LogicalPlan]) -> "Values":
        if children:
            raise PlanError("Values has no children")
        return self

    def fingerprint(self) -> str:
        content = self.relation.content_fingerprint()
        return f"values({self.label}:{self.relation.schema.names}:{content})"

    def _describe_self(self) -> str:
        return f"Values({self.label}, rows={self.relation.num_rows})"


@dataclass(frozen=True)
class Select(LogicalPlan):
    """Filter rows by a boolean predicate expression."""

    child: LogicalPlan
    predicate: Expression

    def children(self) -> list[LogicalPlan]:
        return [self.child]

    def with_children(self, children: Sequence[LogicalPlan]) -> "Select":
        (child,) = children
        return Select(child, self.predicate)

    def fingerprint(self) -> str:
        return f"select({self.predicate.to_sql()})[{self.child.fingerprint()}]"

    def _describe_self(self) -> str:
        return f"Select({self.predicate.to_sql()})"


@dataclass(frozen=True)
class Project(LogicalPlan):
    """Compute output columns from expressions over the input.

    ``columns`` maps output column names to expressions.  Projection both
    narrows and computes, covering the SQL ``SELECT expr AS name`` clause.
    """

    child: LogicalPlan
    columns: tuple[tuple[str, Expression], ...]

    def __init__(self, child: LogicalPlan, columns: Sequence[tuple[str, Expression]]):
        object.__setattr__(self, "child", child)
        object.__setattr__(self, "columns", tuple(columns))

    def children(self) -> list[LogicalPlan]:
        return [self.child]

    def with_children(self, children: Sequence[LogicalPlan]) -> "Project":
        (child,) = children
        return Project(child, self.columns)

    def fingerprint(self) -> str:
        rendered = ",".join(f"{name}={expr.to_sql()}" for name, expr in self.columns)
        return f"project({rendered})[{self.child.fingerprint()}]"

    def _describe_self(self) -> str:
        rendered = ", ".join(f"{expr.to_sql()} AS {name}" for name, expr in self.columns)
        return f"Project({rendered})"


@dataclass(frozen=True)
class Join(LogicalPlan):
    """Equi-join of two inputs on pairs of column names.

    ``conditions`` is a sequence of ``(left column, right column)`` pairs; all
    pairs must match for a row combination to qualify (conjunctive equi-join,
    which is what every query in the paper uses).  ``how`` is ``"inner"`` or
    ``"left"``.
    """

    left: LogicalPlan
    right: LogicalPlan
    conditions: tuple[tuple[str, str], ...]
    how: str = "inner"

    def __init__(
        self,
        left: LogicalPlan,
        right: LogicalPlan,
        conditions: Sequence[tuple[str, str]],
        how: str = "inner",
    ):
        if how not in ("inner", "left"):
            raise PlanError(f"unsupported join type {how!r}")
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        object.__setattr__(self, "conditions", tuple(conditions))
        object.__setattr__(self, "how", how)

    def children(self) -> list[LogicalPlan]:
        return [self.left, self.right]

    def with_children(self, children: Sequence[LogicalPlan]) -> "Join":
        left, right = children
        return Join(left, right, self.conditions, self.how)

    def fingerprint(self) -> str:
        conditions = ",".join(f"{left}={right}" for left, right in self.conditions)
        return (
            f"join({self.how};{conditions})"
            f"[{self.left.fingerprint()}|{self.right.fingerprint()}]"
        )

    def _describe_self(self) -> str:
        conditions = ", ".join(f"{left} = {right}" for left, right in self.conditions)
        return f"Join({self.how}, {conditions})"


@dataclass(frozen=True)
class AggregateSpec:
    """A single aggregate: ``function(input) AS output``.

    Supported functions: ``count`` (input may be ``None`` for ``count(*)``),
    ``sum``, ``avg``, ``min``, ``max``.
    """

    function: str
    input_column: str | None
    output_name: str

    def fingerprint(self) -> str:
        return f"{self.function}({self.input_column or '*'})->{self.output_name}"


@dataclass(frozen=True)
class Aggregate(LogicalPlan):
    """Group by key columns and compute aggregates per group.

    With an empty ``keys`` tuple the node computes global aggregates over the
    whole input (one output row), matching SQL's aggregate-without-GROUP-BY.
    """

    child: LogicalPlan
    keys: tuple[str, ...]
    aggregates: tuple[AggregateSpec, ...]

    def __init__(
        self,
        child: LogicalPlan,
        keys: Sequence[str],
        aggregates: Sequence[AggregateSpec],
    ):
        object.__setattr__(self, "child", child)
        object.__setattr__(self, "keys", tuple(keys))
        object.__setattr__(self, "aggregates", tuple(aggregates))

    def children(self) -> list[LogicalPlan]:
        return [self.child]

    def with_children(self, children: Sequence[LogicalPlan]) -> "Aggregate":
        (child,) = children
        return Aggregate(child, self.keys, self.aggregates)

    def fingerprint(self) -> str:
        aggregates = ",".join(spec.fingerprint() for spec in self.aggregates)
        return f"aggregate({','.join(self.keys)};{aggregates})[{self.child.fingerprint()}]"

    def _describe_self(self) -> str:
        aggregates = ", ".join(
            f"{spec.function}({spec.input_column or '*'}) AS {spec.output_name}"
            for spec in self.aggregates
        )
        keys = ", ".join(self.keys) if self.keys else "<global>"
        return f"Aggregate(keys=[{keys}], {aggregates})"


@dataclass(frozen=True)
class SortKey:
    """A sort key: column name plus direction."""

    column: str
    ascending: bool = True

    def fingerprint(self) -> str:
        return f"{self.column}:{'asc' if self.ascending else 'desc'}"


@dataclass(frozen=True)
class Sort(LogicalPlan):
    """Sort the input by one or more keys."""

    child: LogicalPlan
    keys: tuple[SortKey, ...]

    def __init__(self, child: LogicalPlan, keys: Sequence[SortKey]):
        object.__setattr__(self, "child", child)
        object.__setattr__(self, "keys", tuple(keys))

    def children(self) -> list[LogicalPlan]:
        return [self.child]

    def with_children(self, children: Sequence[LogicalPlan]) -> "Sort":
        (child,) = children
        return Sort(child, self.keys)

    def fingerprint(self) -> str:
        keys = ",".join(key.fingerprint() for key in self.keys)
        return f"sort({keys})[{self.child.fingerprint()}]"

    def _describe_self(self) -> str:
        keys = ", ".join(key.fingerprint() for key in self.keys)
        return f"Sort({keys})"


@dataclass(frozen=True)
class Limit(LogicalPlan):
    """Keep only the first ``count`` rows of the input."""

    child: LogicalPlan
    count: int

    def children(self) -> list[LogicalPlan]:
        return [self.child]

    def with_children(self, children: Sequence[LogicalPlan]) -> "Limit":
        (child,) = children
        return Limit(child, self.count)

    def fingerprint(self) -> str:
        return f"limit({self.count})[{self.child.fingerprint()}]"

    def _describe_self(self) -> str:
        return f"Limit({self.count})"


@dataclass(frozen=True)
class Distinct(LogicalPlan):
    """Remove duplicate rows."""

    child: LogicalPlan

    def children(self) -> list[LogicalPlan]:
        return [self.child]

    def with_children(self, children: Sequence[LogicalPlan]) -> "Distinct":
        (child,) = children
        return Distinct(child)

    def fingerprint(self) -> str:
        return f"distinct[{self.child.fingerprint()}]"


@dataclass(frozen=True)
class Union(LogicalPlan):
    """Concatenate two type-compatible inputs (SQL ``UNION ALL``)."""

    left: LogicalPlan
    right: LogicalPlan

    def children(self) -> list[LogicalPlan]:
        return [self.left, self.right]

    def with_children(self, children: Sequence[LogicalPlan]) -> "Union":
        left, right = children
        return Union(left, right)

    def fingerprint(self) -> str:
        return f"union[{self.left.fingerprint()}|{self.right.fingerprint()}]"


@dataclass(frozen=True)
class TableFunctionScan(LogicalPlan):
    """Apply a registered table function (e.g. ``tokenize``) to the child's output."""

    child: LogicalPlan
    function: str
    options: tuple[tuple[str, Any], ...] = field(default_factory=tuple)

    def __init__(
        self,
        child: LogicalPlan,
        function: str,
        options: Sequence[tuple[str, Any]] = (),
    ):
        object.__setattr__(self, "child", child)
        object.__setattr__(self, "function", function)
        object.__setattr__(self, "options", tuple(options))

    def children(self) -> list[LogicalPlan]:
        return [self.child]

    def with_children(self, children: Sequence[LogicalPlan]) -> "TableFunctionScan":
        (child,) = children
        return TableFunctionScan(child, self.function, self.options)

    def fingerprint(self) -> str:
        options = ",".join(f"{name}={value!r}" for name, value in self.options)
        return f"tablefn({self.function};{options})[{self.child.fingerprint()}]"

    def _describe_self(self) -> str:
        return f"TableFunctionScan({self.function})"
