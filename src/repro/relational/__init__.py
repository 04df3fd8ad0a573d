"""Columnar relational engine substrate.

This package is the reproduction's stand-in for MonetDB/SQL: an in-memory,
column-at-a-time relational engine.  It provides

* typed columns backed by NumPy arrays (:mod:`repro.relational.column`),
* relations (tables) and schemas (:mod:`repro.relational.relation`,
  :mod:`repro.relational.schema`),
* scalar expressions and predicates (:mod:`repro.relational.expressions`),
* a logical algebra and its executor (:mod:`repro.relational.algebra`,
  :mod:`repro.relational.operators`); plans are executed as written — plan
  rewriting lives one level up, in :mod:`repro.pra.optimizer`,
* views, a catalog and an on-demand materialization cache
  (:mod:`repro.relational.views`, :mod:`repro.relational.catalog`,
  :mod:`repro.relational.cache`),
* a user-defined-function registry with the text UDFs the paper adds to
  MonetDB (:mod:`repro.relational.functions`),
* a SQL pretty-printer so every logical plan can be compared with the SQL
  listings of the paper (:mod:`repro.relational.sqlgen`), and
* a small :class:`~repro.relational.database.Database` facade tying it all
  together.
"""

from repro.relational.column import Column, DataType
from repro.relational.schema import Field, Schema
from repro.relational.relation import Relation
from repro.relational.expressions import (
    BinaryOp,
    ColumnRef,
    Expression,
    FunctionCall,
    Literal,
    UnaryOp,
    col,
    lit,
)
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
    SortKey,
    TableFunctionScan,
    Union,
    Values,
)
from repro.relational.catalog import Catalog
from repro.relational.database import Database
from repro.relational.functions import FunctionRegistry, default_registry
from repro.relational.sqlgen import to_sql

__all__ = [
    "Aggregate",
    "AggregateSpec",
    "BinaryOp",
    "Catalog",
    "Column",
    "ColumnRef",
    "DataType",
    "Database",
    "Distinct",
    "Expression",
    "Field",
    "FunctionCall",
    "FunctionRegistry",
    "Join",
    "Limit",
    "Literal",
    "LogicalPlan",
    "Project",
    "Relation",
    "Scan",
    "Schema",
    "Select",
    "Sort",
    "SortKey",
    "TableFunctionScan",
    "UnaryOp",
    "Union",
    "Values",
    "col",
    "default_registry",
    "lit",
    "to_sql",
]
