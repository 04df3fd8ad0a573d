"""User-defined function registry.

The paper notes that *"the only additions needed to MonetDB to support
on-demand indexing were two user-defined functions to implement a text
tokenizer and Snowball stemmers for several languages"* (Section 2.1).  This
module provides the registry holding those functions (plus the standard
scalar helpers used in the BM25 SQL listings: ``lcase``, ``log``) and the
default registry pre-populated with them.

Two kinds of functions are distinguished:

* **scalar functions** map N input columns to one output column of the same
  length (``lcase``, ``stem``, ``log``, ``length``, ``coalesce``);
* **table functions** map a whole input relation to a new relation with a
  different number of rows (``tokenize`` explodes documents into tokens).
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from repro.errors import FunctionError
from repro.relational.column import Column, DataType
from repro.relational.relation import Relation
from repro.relational.schema import Field, Schema


@dataclass
class ScalarFunction:
    """A scalar UDF applied element-wise over its argument columns."""

    name: str
    output_type: DataType
    implementation: Callable[..., object]
    arity: int

    def apply(self, args: Sequence[Column], num_rows: int) -> Column:
        """Evaluate the function row-by-row over the argument columns."""
        if len(args) != self.arity:
            raise FunctionError(
                f"function {self.name!r} expects {self.arity} arguments, got {len(args)}"
            )
        if not args:
            value = self.implementation()
            return Column.constant(value, num_rows, self.output_type)
        columns = [arg.to_list() for arg in args]
        values = [self.implementation(*row) for row in zip(*columns)]
        if self.output_type is DataType.STRING:
            array = np.empty(len(values), dtype=object)
            for index, value in enumerate(values):
                array[index] = value
            return Column(array, self.output_type)
        return Column(values, self.output_type)


@dataclass
class TableFunction:
    """A table UDF mapping an input relation to an output relation."""

    name: str
    implementation: Callable[[Relation], Relation]

    def apply(self, relation: Relation) -> Relation:
        return self.implementation(relation)


class FunctionRegistry:
    """Registry of scalar and table user-defined functions."""

    def __init__(self) -> None:
        self._scalars: dict[str, ScalarFunction] = {}
        self._tables: dict[str, TableFunction] = {}

    # -- registration -------------------------------------------------------

    def register_scalar(
        self,
        name: str,
        implementation: Callable[..., object],
        output_type: DataType,
        arity: int,
    ) -> None:
        """Register (or replace) a scalar function."""
        self._scalars[name.lower()] = ScalarFunction(
            name=name.lower(),
            output_type=output_type,
            implementation=implementation,
            arity=arity,
        )

    def register_table(self, name: str, implementation: Callable[[Relation], Relation]) -> None:
        """Register (or replace) a table function."""
        self._tables[name.lower()] = TableFunction(name=name.lower(), implementation=implementation)

    # -- lookup ---------------------------------------------------------------

    def scalar(self, name: str) -> ScalarFunction:
        """Return the scalar function called ``name``."""
        try:
            return self._scalars[name.lower()]
        except KeyError:
            raise FunctionError(
                f"unknown scalar function {name!r}; registered: {sorted(self._scalars)}"
            ) from None

    def table(self, name: str) -> TableFunction:
        """Return the table function called ``name``."""
        try:
            return self._tables[name.lower()]
        except KeyError:
            raise FunctionError(
                f"unknown table function {name!r}; registered: {sorted(self._tables)}"
            ) from None

    def has_scalar(self, name: str) -> bool:
        return name.lower() in self._scalars

    def has_table(self, name: str) -> bool:
        return name.lower() in self._tables

    def copy(self) -> "FunctionRegistry":
        """Return a shallow copy of the registry (used by per-database catalogs)."""
        registry = FunctionRegistry()
        registry._scalars.update(self._scalars)
        registry._tables.update(self._tables)
        return registry


# ---------------------------------------------------------------------------
# Built-in functions matching the paper's SQL listings
# ---------------------------------------------------------------------------


def _safe_log(value: float) -> float:
    """Natural logarithm clamped to avoid ``-inf`` for non-positive inputs."""
    if value <= 0:
        return 0.0
    return math.log(value)


def _make_tokenize(tokenizer=None) -> Callable[[Relation], Relation]:
    """Build the ``tokenize`` table function around a configurable tokenizer.

    The input relation must have at least two columns; the first is treated
    as the document identifier and the second as the document text, as in the
    paper's ``tokenize((SELECT docID, data FROM docs))`` usage.  The output
    relation has columns ``(docID, token, pos)``.
    """

    def tokenize(relation: Relation) -> Relation:
        from repro.text.tokenizer import Tokenizer

        active = tokenizer if tokenizer is not None else Tokenizer()
        if relation.num_columns < 2:
            raise FunctionError(
                "tokenize() expects a relation with (docID, data) columns, "
                f"got {relation.schema.names}"
            )
        id_field = relation.schema.fields[0]
        doc_ids: list[object] = []
        tokens: list[str] = []
        positions: list[int] = []
        id_column = relation.column_at(0)
        text_column = relation.column_at(1)
        for row_index in range(relation.num_rows):
            doc_id = id_column[row_index]
            text = text_column[row_index]
            for position, token in enumerate(active.tokenize(str(text))):
                doc_ids.append(doc_id)
                tokens.append(token)
                positions.append(position)
        schema = Schema(
            [
                Field(id_field.name, id_field.dtype),
                Field("token", DataType.STRING),
                Field("pos", DataType.INT),
            ]
        )
        return Relation(
            schema,
            [
                Column(doc_ids, id_field.dtype),
                Column(tokens, DataType.STRING),
                Column(positions, DataType.INT),
            ],
        )

    return tokenize


def _stem(token: str, language_spec: str) -> str:
    """The ``stem(token, 'sb-english')`` scalar UDF from the paper."""
    from repro.text.stemming import stem as apply_stem

    language = language_spec
    if language.startswith("sb-"):
        language = language[3:]
    return apply_stem(token, language)


def default_registry() -> FunctionRegistry:
    """Return a registry pre-populated with the paper's UDFs and SQL builtins."""
    registry = FunctionRegistry()
    registry.register_scalar("lcase", lambda value: str(value).lower(), DataType.STRING, arity=1)
    registry.register_scalar("ucase", lambda value: str(value).upper(), DataType.STRING, arity=1)
    registry.register_scalar("length", lambda value: len(str(value)), DataType.INT, arity=1)
    registry.register_scalar("log", _safe_log, DataType.FLOAT, arity=1)
    registry.register_scalar(
        "sqrt", lambda value: math.sqrt(max(value, 0.0)), DataType.FLOAT, arity=1
    )
    registry.register_scalar("abs", lambda value: abs(value), DataType.FLOAT, arity=1)
    # INT only: its one use fills the length of a document without terms
    registry.register_scalar(
        "coalesce",
        lambda value, default: default if value is None else value,
        DataType.INT,
        arity=2,
    )
    registry.register_scalar("stem", _stem, DataType.STRING, arity=2)
    registry.register_scalar(
        "concat", lambda left, right: f"{left}{right}", DataType.STRING, arity=2
    )
    registry.register_table("tokenize", _make_tokenize())
    return registry
