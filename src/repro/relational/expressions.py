"""Scalar expression trees evaluated column-at-a-time.

Expressions describe computed columns and predicates inside logical plans:
column references, literals, arithmetic, comparisons, boolean connectives
and calls to registered scalar user-defined functions (the paper's
``lcase``, ``stem`` and ``log`` additions to MonetDB).

Expression evaluation is vectorised: :meth:`Expression.evaluate` receives a
:class:`~repro.relational.relation.Relation` and returns a
:class:`~repro.relational.column.Column` of the same length.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.errors import ExpressionError, TypeMismatchError
from repro.relational.column import Column, DataType
from repro.relational.relation import Relation
from repro.relational.schema import Schema

if TYPE_CHECKING:  # pragma: no cover
    from repro.relational.functions import FunctionRegistry


class Expression:
    """Base class for scalar expressions."""

    def evaluate(self, relation: Relation, functions: "FunctionRegistry") -> Column:
        """Evaluate the expression against every row of ``relation``."""
        raise NotImplementedError

    def output_type(self, schema: Schema, functions: "FunctionRegistry") -> DataType:
        """Return the data type the expression produces for ``schema``."""
        raise NotImplementedError

    def references(self) -> set[str]:
        """Return the set of column names the expression reads."""
        return set()

    def to_sql(self) -> str:
        """Render the expression as SQL text (used by :mod:`repro.relational.sqlgen`)."""
        raise NotImplementedError

    # -- operator sugar ------------------------------------------------------

    def _binary(self, op: str, other: Any) -> "BinaryOp":
        return BinaryOp(op, self, _wrap(other))

    def __add__(self, other: Any) -> "BinaryOp":
        return self._binary("+", other)

    def __sub__(self, other: Any) -> "BinaryOp":
        return self._binary("-", other)

    def __mul__(self, other: Any) -> "BinaryOp":
        return self._binary("*", other)

    def __truediv__(self, other: Any) -> "BinaryOp":
        return self._binary("/", other)

    def eq(self, other: Any) -> "BinaryOp":
        """Equality comparison (named method to avoid clashing with ``__eq__``)."""
        return self._binary("=", other)

    def ne(self, other: Any) -> "BinaryOp":
        return self._binary("<>", other)

    def lt(self, other: Any) -> "BinaryOp":
        return self._binary("<", other)

    def le(self, other: Any) -> "BinaryOp":
        return self._binary("<=", other)

    def gt(self, other: Any) -> "BinaryOp":
        return self._binary(">", other)

    def ge(self, other: Any) -> "BinaryOp":
        return self._binary(">=", other)

    def and_(self, other: Any) -> "BinaryOp":
        return self._binary("and", other)

    def or_(self, other: Any) -> "BinaryOp":
        return self._binary("or", other)

    def isin(self, values: Sequence[Any]) -> "InList":
        return InList(self, list(values))


def _wrap(value: Any) -> Expression:
    """Lift plain Python values into :class:`Literal` expressions."""
    if isinstance(value, Expression):
        return value
    return Literal(value)


def _coded_mask(column: Column, op: str, value: Any) -> np.ndarray | None:
    """``column op value`` on the codes of a coded STRING column, else ``None``.

    ``value`` is placed into the column's sorted dictionary once; ``=`` and
    ``<>`` then compare one code, the orderings compare against the bounds
    of its position.
    """
    if column.dtype is not DataType.STRING or not column.coded or not isinstance(value, str):
        return None
    codes, dictionary = column.factorize()
    low = int(np.searchsorted(dictionary, value, side="left"))
    high = int(np.searchsorted(dictionary, value, side="right"))
    if op == "=":
        return codes == low if high > low else np.zeros(len(codes), dtype=bool)
    if op == "<>":
        return codes != low if high > low else np.ones(len(codes), dtype=bool)
    if op == "<":
        return codes < low
    if op == "<=":
        return codes < high
    if op == ">":
        return codes >= high
    return codes >= low


def col(name: str) -> "ColumnRef":
    """Shorthand constructor for a column reference."""
    return ColumnRef(name)


def lit(value: Any) -> "Literal":
    """Shorthand constructor for a literal."""
    return Literal(value)


class ColumnRef(Expression):
    """A reference to a column of the input relation by name."""

    def __init__(self, name: str):
        self.name = name

    def evaluate(self, relation: Relation, functions: "FunctionRegistry") -> Column:
        return relation.column(self.name)

    def output_type(self, schema: Schema, functions: "FunctionRegistry") -> DataType:
        return schema.dtype_of(self.name)

    def references(self) -> set[str]:
        return {self.name}

    def to_sql(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return f"col({self.name!r})"


class Literal(Expression):
    """A constant value."""

    def __init__(self, value: Any):
        self.value = value
        self.dtype = DataType.of_value(value)

    def evaluate(self, relation: Relation, functions: "FunctionRegistry") -> Column:
        return Column.constant(self.value, relation.num_rows, self.dtype)

    def output_type(self, schema: Schema, functions: "FunctionRegistry") -> DataType:
        return self.dtype

    def to_sql(self) -> str:
        if self.dtype is DataType.STRING:
            escaped = str(self.value).replace("'", "''")
            return f"'{escaped}'"
        if self.dtype is DataType.BOOL:
            return "TRUE" if self.value else "FALSE"
        return repr(self.value)

    def __repr__(self) -> str:
        return f"lit({self.value!r})"


_COMPARISONS = {"=", "<>", "<", "<=", ">", ">="}
#: the comparison that holds with its operands swapped
_MIRRORED = {"=": "=", "<>": "<>", "<": ">", "<=": ">=", ">": "<", ">=": "<="}
_ARITHMETIC = {"+", "-", "*", "/"}
_BOOLEAN = {"and", "or"}


class BinaryOp(Expression):
    """A binary arithmetic, comparison or boolean expression."""

    def __init__(self, op: str, left: Expression, right: Expression):
        if op not in _COMPARISONS | _ARITHMETIC | _BOOLEAN:
            raise ExpressionError(f"unknown binary operator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def evaluate(self, relation: Relation, functions: "FunctionRegistry") -> Column:
        if self.op in _COMPARISONS:
            return self._evaluate_comparison(relation, functions)
        left = self.left.evaluate(relation, functions)
        right = self.right.evaluate(relation, functions)
        if self.op in _ARITHMETIC:
            return self._evaluate_arithmetic(left, right)
        return self._evaluate_boolean(left, right)

    def _evaluate_arithmetic(self, left: Column, right: Column) -> Column:
        if not left.dtype.is_numeric() or not right.dtype.is_numeric():
            raise TypeMismatchError(
                f"arithmetic operator {self.op!r} requires numeric operands, "
                f"got {left.dtype.value} and {right.dtype.value}"
            )
        result_type = DataType.common(left.dtype, right.dtype)
        left_values = left.values
        right_values = right.values
        if self.op == "+":
            values = left_values + right_values
        elif self.op == "-":
            values = left_values - right_values
        elif self.op == "*":
            values = left_values * right_values
        else:
            values = left_values / np.asarray(right_values, dtype=np.float64)
            result_type = DataType.FLOAT
        return Column(values, result_type)

    def _evaluate_comparison(self, relation: Relation, functions: "FunctionRegistry") -> Column:
        left = right = mask = None
        if isinstance(self.right, Literal) and not isinstance(self.left, Literal):
            left = self.left.evaluate(relation, functions)
            mask = _coded_mask(left, self.op, self.right.value)
        elif isinstance(self.left, Literal) and not isinstance(self.right, Literal):
            right = self.right.evaluate(relation, functions)
            mask = _coded_mask(right, _MIRRORED[self.op], self.left.value)
        if mask is not None:
            return Column(mask, DataType.BOOL)
        if left is None:
            left = self.left.evaluate(relation, functions)
        if right is None:
            right = self.right.evaluate(relation, functions)
        if left.dtype is DataType.STRING or right.dtype is DataType.STRING:
            if left.dtype is not right.dtype:
                raise TypeMismatchError(
                    f"cannot compare {left.dtype.value} with {right.dtype.value}"
                )
        left_values = left.values
        right_values = right.values
        if self.op == "=":
            values = left_values == right_values
        elif self.op == "<>":
            values = left_values != right_values
        elif self.op == "<":
            values = left_values < right_values
        elif self.op == "<=":
            values = left_values <= right_values
        elif self.op == ">":
            values = left_values > right_values
        else:
            values = left_values >= right_values
        return Column(np.asarray(values, dtype=bool), DataType.BOOL)

    def _evaluate_boolean(self, left: Column, right: Column) -> Column:
        if left.dtype is not DataType.BOOL or right.dtype is not DataType.BOOL:
            raise TypeMismatchError(
                f"boolean operator {self.op!r} requires boolean operands, "
                f"got {left.dtype.value} and {right.dtype.value}"
            )
        if self.op == "and":
            values = left.values & right.values
        else:
            values = left.values | right.values
        return Column(values, DataType.BOOL)

    def output_type(self, schema: Schema, functions: "FunctionRegistry") -> DataType:
        if self.op in _COMPARISONS or self.op in _BOOLEAN:
            return DataType.BOOL
        if self.op == "/":
            return DataType.FLOAT
        left = self.left.output_type(schema, functions)
        right = self.right.output_type(schema, functions)
        return DataType.common(left, right)

    def references(self) -> set[str]:
        return self.left.references() | self.right.references()

    def to_sql(self) -> str:
        op = self.op.upper() if self.op in _BOOLEAN else self.op
        return f"({self.left.to_sql()} {op} {self.right.to_sql()})"

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


class UnaryOp(Expression):
    """A unary expression: ``not`` or numeric negation."""

    def __init__(self, op: str, operand: Expression):
        if op not in ("not", "-"):
            raise ExpressionError(f"unknown unary operator {op!r}")
        self.op = op
        self.operand = operand

    def evaluate(self, relation: Relation, functions: "FunctionRegistry") -> Column:
        operand = self.operand.evaluate(relation, functions)
        if self.op == "not":
            if operand.dtype is not DataType.BOOL:
                raise TypeMismatchError("NOT requires a boolean operand")
            return Column(~operand.values, DataType.BOOL)
        if not operand.dtype.is_numeric():
            raise TypeMismatchError("negation requires a numeric operand")
        return Column(-operand.values, operand.dtype)

    def output_type(self, schema: Schema, functions: "FunctionRegistry") -> DataType:
        if self.op == "not":
            return DataType.BOOL
        return self.operand.output_type(schema, functions)

    def references(self) -> set[str]:
        return self.operand.references()

    def to_sql(self) -> str:
        if self.op == "not":
            return f"(NOT {self.operand.to_sql()})"
        return f"(-{self.operand.to_sql()})"

    def __repr__(self) -> str:
        return f"({self.op} {self.operand!r})"


class InList(Expression):
    """Membership test against a constant list of values (SQL ``IN``)."""

    def __init__(self, operand: Expression, values: list[Any]):
        if not values:
            raise ExpressionError("IN list must not be empty")
        self.operand = operand
        self.values = values

    def evaluate(self, relation: Relation, functions: "FunctionRegistry") -> Column:
        operand = self.operand.evaluate(relation, functions)
        allowed = set(self.values)
        mask = np.fromiter(
            (value in allowed for value in operand.to_list()), dtype=bool, count=len(operand)
        )
        return Column(mask, DataType.BOOL)

    def output_type(self, schema: Schema, functions: "FunctionRegistry") -> DataType:
        return DataType.BOOL

    def references(self) -> set[str]:
        return self.operand.references()

    def to_sql(self) -> str:
        rendered = ", ".join(Literal(value).to_sql() for value in self.values)
        return f"({self.operand.to_sql()} IN ({rendered}))"

    def __repr__(self) -> str:
        return f"({self.operand!r} IN {self.values!r})"


class FunctionCall(Expression):
    """A call to a registered scalar user-defined function."""

    def __init__(self, name: str, args: Sequence[Expression | Any]):
        self.name = name
        self.args = [_wrap(arg) for arg in args]

    def evaluate(self, relation: Relation, functions: "FunctionRegistry") -> Column:
        function = functions.scalar(self.name)
        arg_columns = [arg.evaluate(relation, functions) for arg in self.args]
        return function.apply(arg_columns, relation.num_rows)

    def output_type(self, schema: Schema, functions: "FunctionRegistry") -> DataType:
        return functions.scalar(self.name).output_type

    def references(self) -> set[str]:
        refs: set[str] = set()
        for arg in self.args:
            refs |= arg.references()
        return refs

    def to_sql(self) -> str:
        rendered = ", ".join(arg.to_sql() for arg in self.args)
        return f"{self.name}({rendered})"

    def __repr__(self) -> str:
        return f"{self.name}({', '.join(repr(arg) for arg in self.args)})"


def func(name: str, *args: Expression | Any) -> FunctionCall:
    """Shorthand constructor for a scalar function call."""
    return FunctionCall(name, list(args))
