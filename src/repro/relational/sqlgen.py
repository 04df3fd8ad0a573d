"""Render logical plans as SQL text.

The paper expresses every IR task as SQL over MonetDB; the reproduction's
native representation is a logical plan.  This module pretty-prints any plan
back to SQL so that the plans built by the IR layer, the SpinQL compiler and
the strategy compiler can be compared one-to-one against the listings in the
paper (Sections 2.1–2.3).  The generated SQL is standard enough to be read
as documentation; it is not re-parsed by the engine.
"""

from __future__ import annotations

from repro.errors import PlanError
from repro.relational.algebra import (
    Aggregate,
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


def to_sql(plan: LogicalPlan, *, pretty: bool = True) -> str:
    """Render ``plan`` as a SQL query string."""
    text = _render(plan)
    if pretty:
        return text
    return " ".join(text.split())


def view_definition(name: str, plan: LogicalPlan) -> str:
    """Render ``CREATE VIEW name AS <plan SQL>``, as in the paper's listings."""
    return f"CREATE VIEW {name} AS\n{to_sql(plan)};"


def _render(plan: LogicalPlan) -> str:
    if isinstance(plan, Scan):
        return f"SELECT * FROM {plan.table}"
    if isinstance(plan, Values):
        return _render_values(plan)
    if isinstance(plan, Select):
        return (
            f"SELECT * FROM (\n{_indent(_render(plan.child))}\n) "
            f"AS t WHERE {plan.predicate.to_sql()}"
        )
    if isinstance(plan, Project):
        columns = ", ".join(f"{expr.to_sql()} AS {name}" for name, expr in plan.columns)
        return f"SELECT {columns} FROM (\n{_indent(_render(plan.child))}\n) AS t"
    if isinstance(plan, Join):
        return _render_join(plan)
    if isinstance(plan, Aggregate):
        return _render_aggregate(plan)
    if isinstance(plan, Sort):
        keys = ", ".join(
            f"{key.column} {'ASC' if key.ascending else 'DESC'}" for key in plan.keys
        )
        return f"SELECT * FROM (\n{_indent(_render(plan.child))}\n) AS t ORDER BY {keys}"
    if isinstance(plan, Limit):
        return f"SELECT * FROM (\n{_indent(_render(plan.child))}\n) AS t LIMIT {plan.count}"
    if isinstance(plan, Distinct):
        return f"SELECT DISTINCT * FROM (\n{_indent(_render(plan.child))}\n) AS t"
    if isinstance(plan, Union):
        return f"{_render(plan.left)}\nUNION ALL\n{_render(plan.right)}"
    if isinstance(plan, TableFunctionScan):
        return f"SELECT * FROM {plan.function}((\n{_indent(_render(plan.child))}\n))"
    raise PlanError(f"cannot render plan node {type(plan).__name__} to SQL")


def _render_values(plan: Values) -> str:
    names = plan.relation.schema.names
    rows = []
    for row in plan.relation.rows():
        rendered = ", ".join(_render_literal(value) for value in row)
        rows.append(f"({rendered})")
    if not rows:
        rows.append("()")
    column_list = ", ".join(names)
    return f"SELECT * FROM (VALUES {', '.join(rows)}) AS {plan.label}({column_list})"


def _render_literal(value: object) -> str:
    if isinstance(value, str):
        escaped = value.replace("'", "''")
        return f"'{escaped}'"
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    return repr(value)


def _render_join(plan: Join) -> str:
    conditions = " AND ".join(f"l.{left} = r.{right}" for left, right in plan.conditions)
    join_kind = "JOIN" if plan.how == "inner" else "LEFT JOIN"
    return (
        f"SELECT * FROM (\n{_indent(_render(plan.left))}\n) AS l\n"
        f"{join_kind} (\n{_indent(_render(plan.right))}\n) AS r\n"
        f"ON {conditions}"
    )


def _render_aggregate(plan: Aggregate) -> str:
    pieces = list(plan.keys)
    for spec in plan.aggregates:
        argument = spec.input_column if spec.input_column is not None else "*"
        pieces.append(f"{spec.function}({argument}) AS {spec.output_name}")
    select_list = ", ".join(pieces)
    sql = f"SELECT {select_list} FROM (\n{_indent(_render(plan.child))}\n) AS t"
    if plan.keys:
        sql += " GROUP BY " + ", ".join(plan.keys)
    return sql


def _indent(text: str, amount: int = 2) -> str:
    prefix = " " * amount
    return "\n".join(prefix + line for line in text.splitlines())
