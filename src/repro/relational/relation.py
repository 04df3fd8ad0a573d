"""Relations: named, typed, columnar tables.

A :class:`Relation` is an immutable collection of equally long
:class:`~repro.relational.column.Column` objects described by a
:class:`~repro.relational.schema.Schema`.  It offers the vectorised
primitives (mask filtering, index gathering, column projection,
concatenation) on which the physical operators are built, plus convenient
row-oriented constructors and accessors used by tests and examples.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence
from typing import Any

import numpy as np

from repro.errors import ColumnError, SchemaError
from repro.relational.column import Column, DataType, group_rows
from repro.relational.schema import Field, Schema


class Relation:
    """An immutable columnar table."""

    # weakly referenced: a storage layout recognises the tables it wrote
    __slots__ = ("_schema", "_columns", "_num_rows", "_fingerprint", "__weakref__")

    def __init__(self, schema: Schema, columns: Sequence[Column]):
        self._fingerprint: int | None = None
        if len(schema) != len(columns):
            raise SchemaError(
                f"schema has {len(schema)} fields but {len(columns)} columns were given"
            )
        lengths = {len(column) for column in columns}
        if len(lengths) > 1:
            raise SchemaError(f"columns have inconsistent lengths: {sorted(lengths)}")
        for field, column in zip(schema, columns):
            if field.dtype is not column.dtype:
                raise SchemaError(
                    f"column {field.name!r} declared as {field.dtype.value} "
                    f"but holds {column.dtype.value} values"
                )
        self._schema = schema
        self._columns = tuple(columns)
        self._num_rows = len(columns[0]) if columns else 0

    # -- construction -----------------------------------------------------

    @classmethod
    def from_rows(cls, schema: Schema, rows: Iterable[Sequence[Any]]) -> "Relation":
        """Build a relation from an iterable of row tuples."""
        rows = list(rows)
        columns = []
        for position, field in enumerate(schema):
            values = [row[position] for row in rows]
            columns.append(Column(values, field.dtype))
        return cls(schema, columns)

    @classmethod
    def from_dicts(cls, schema: Schema, rows: Iterable[Mapping[str, Any]]) -> "Relation":
        """Build a relation from an iterable of ``{column: value}`` mappings."""
        rows = list(rows)
        columns = []
        for field in schema:
            values = [row[field.name] for row in rows]
            columns.append(Column(values, field.dtype))
        return cls(schema, columns)

    @classmethod
    def empty(cls, schema: Schema) -> "Relation":
        """Return a zero-row relation with the given schema."""
        return cls(schema, [Column.empty(field.dtype) for field in schema])

    # -- accessors ---------------------------------------------------------

    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def num_rows(self) -> int:
        return self._num_rows

    @property
    def num_columns(self) -> int:
        return len(self._columns)

    def __len__(self) -> int:
        return self._num_rows

    def column(self, name: str) -> Column:
        """Return the column called ``name``."""
        return self._columns[self._schema.position(name)]

    def column_at(self, position: int) -> Column:
        """Return the column at ordinal ``position`` (0-based)."""
        try:
            return self._columns[position]
        except IndexError:
            raise ColumnError(
                f"column position {position} out of range for {self.num_columns} columns"
            ) from None

    def columns(self) -> dict[str, Column]:
        """Return all columns as an ordered mapping of name to column."""
        return {field.name: column for field, column in zip(self._schema, self._columns)}

    def row(self, index: int) -> tuple[Any, ...]:
        """Return row ``index`` as a tuple of Python values."""
        return tuple(column[index] for column in self._columns)

    def rows(self) -> Iterator[tuple[Any, ...]]:
        """Iterate over all rows as tuples (row-at-a-time; for small outputs)."""
        for index in range(self._num_rows):
            yield self.row(index)

    def to_dicts(self) -> list[dict[str, Any]]:
        """Return the relation as a list of ``{column: value}`` dictionaries."""
        names = self._schema.names
        return [dict(zip(names, row)) for row in self.rows()]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        return self._schema == other._schema and list(self.rows()) == list(other.rows())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Relation({self._schema!r}, rows={self._num_rows})"

    def content_fingerprint(self) -> int:
        """A process-stable hash of the schema and data, computed once.

        Relations are immutable, so the result is cached; plan fingerprinting
        (e.g. :class:`~repro.relational.algebra.Values` nodes embedding large
        constant relations) relies on this to stay O(1) after the first call.
        """
        if self._fingerprint is None:
            parts: list[int] = [hash(tuple(self._schema.names))]
            for column in self._columns:
                values = column.values
                if values.dtype == object:
                    parts.append(hash(tuple(values.tolist())))
                else:
                    parts.append(hash((str(values.dtype), values.tobytes())))
            self._fingerprint = hash(tuple(parts))
        return self._fingerprint

    # -- vectorised manipulation -------------------------------------------

    def filter(self, mask: np.ndarray) -> "Relation":
        """Keep only rows where ``mask`` is True."""
        return Relation(self._schema, [column.filter(mask) for column in self._columns])

    def take(self, indices: np.ndarray) -> "Relation":
        """Gather the rows at ``indices`` (with repetition allowed)."""
        return Relation(self._schema, [column.take(indices) for column in self._columns])

    def slice(self, start: int, stop: int) -> "Relation":
        """Return the rows in ``[start, stop)``."""
        return Relation(self._schema, [column.slice(start, stop) for column in self._columns])

    def head(self, count: int) -> "Relation":
        """Return the first ``count`` rows."""
        return self.slice(0, min(count, self._num_rows))

    def select_columns(self, names: Sequence[str]) -> "Relation":
        """Project onto ``names`` in the given order."""
        schema = self._schema.select(names)
        columns = [self.column(name) for name in names]
        return Relation(schema, columns)

    def rename(self, mapping: dict[str, str]) -> "Relation":
        """Rename columns according to ``mapping`` (old name -> new name)."""
        return Relation(self._schema.rename(mapping), list(self._columns))

    def with_column(self, name: str, column: Column) -> "Relation":
        """Return a copy with ``column`` appended (or replaced if the name exists)."""
        if len(column) != self._num_rows and self._num_rows != 0:
            raise SchemaError(
                f"new column {name!r} has {len(column)} rows, relation has {self._num_rows}"
            )
        if name in self._schema:
            columns = list(self._columns)
            columns[self._schema.position(name)] = column
            schema_fields = [
                Field(field.name, column.dtype) if field.name == name else field
                for field in self._schema
            ]
            return Relation(Schema(schema_fields), columns)
        schema = Schema(list(self._schema.fields) + [Field(name, column.dtype)])
        return Relation(schema, list(self._columns) + [column])

    def without_column(self, name: str) -> "Relation":
        """Return a copy with the column called ``name`` removed."""
        names = [field.name for field in self._schema if field.name != name]
        if len(names) == len(self._schema):
            raise ColumnError(f"unknown column {name!r}")
        return self.select_columns(names)

    def concat(self, other: "Relation") -> "Relation":
        """Append the rows of ``other`` (schemas must be type-compatible)."""
        if not self._schema.compatible_with(other.schema):
            raise SchemaError(
                f"cannot concatenate relations with schemas {self._schema} and {other.schema}"
            )
        columns = [
            column.concat(other_column)
            for column, other_column in zip(self._columns, other._columns)
        ]
        return Relation(self._schema, columns)

    def sort_by(self, keys: Sequence[tuple[str, bool]]) -> "Relation":
        """Sort by ``keys``: a list of (column name, ascending) pairs.

        The sort is stable; later keys are applied first so that earlier keys
        take precedence, following the usual lexicographic semantics.  A
        STRING column orders by its values' ``str`` forms; a coded one (see
        :attr:`Column.coded`) by its codes, the same order except that
        strings differing only by trailing NULs, which NumPy's fixed-width
        ``str`` strips and so ties, order as Python orders them.
        """
        if self._num_rows == 0:
            return self
        order = np.arange(self._num_rows)
        for name, ascending in reversed(list(keys)):
            column = self.column(name)
            if column.dtype is DataType.STRING and column.coded:
                codes = column.factorize()[0][order]
                positions = np.argsort(codes if ascending else -codes, kind="stable")
            elif ascending:
                positions = np.argsort(_sort_values(column, order), kind="stable")
            else:
                # reversing an ascending argsort would also reverse equal-key
                # runs and break stability; sorting on negated ranks keeps
                # ties in their prior order for any orderable dtype
                _, codes = np.unique(_sort_values(column, order), return_inverse=True)
                positions = np.argsort(-codes, kind="stable")
            order = order[positions]
        return self.take(order)

    def distinct(self) -> "Relation":
        """Remove duplicate rows, keeping the first occurrence of each.

        Rows are duplicates when their values are equal in Python
        (:func:`~repro.relational.column.key_codes`): NaN never is.
        """
        if self._num_rows == 0:
            return self
        return self.take(group_rows(self._columns)[1])

    # -- display ------------------------------------------------------------

    def to_text(self, max_rows: int = 20) -> str:
        """Render the relation as an aligned text table (for examples/tests)."""
        names = self._schema.names
        shown = list(self.head(max_rows).rows())
        cells = [[str(value) for value in row] for row in shown]
        widths = [len(name) for name in names]
        for row in cells:
            for position, cell in enumerate(row):
                widths[position] = max(widths[position], len(cell))
        lines = [
            " | ".join(name.ljust(width) for name, width in zip(names, widths)),
            "-+-".join("-" * width for width in widths),
        ]
        for row in cells:
            lines.append(" | ".join(cell.ljust(width) for cell, width in zip(row, widths)))
        if self._num_rows > max_rows:
            lines.append(f"... ({self._num_rows - max_rows} more rows)")
        return "\n".join(lines)


def _sort_values(column: Column, order: np.ndarray) -> np.ndarray:
    """``column``'s values in ``order``, as :meth:`Relation.sort_by` compares them."""
    values = column.values[order]
    if column.dtype is DataType.STRING:
        return np.asarray(values, dtype=str)
    return values
