"""The static plan verifier: schema/type/assumption inference over PRA plans.

:func:`verify_plan` walks a :class:`~repro.pra.plan.PraPlan` bottom-up and
derives each node's output schema — value-column names, dtypes, and the
duplicate-freeness bit of :mod:`repro.analysis.lattice` — from catalog
metadata alone, without touching any data.  Along the way it emits
:class:`~repro.analysis.diagnostics.Diagnostic` records:

* **errors** are findings that make evaluation raise (or, for
  ``reserved-column-name``, silently corrupt the result): unknown tables,
  out-of-range positional references, dtype mismatches evaluation rejects,
  unbound parameters, DISJOINT joins, out-of-range weight factors, a RANK
  over anything but two value columns (``rank-input-arity``);
* **warnings** are statically suspicious but evaluable: comparisons numpy
  resolves silently, lossy UNITE coercions, DISJOINT/SUBSUMED merges over
  inputs that may contain duplicates (the duplicate-freeness lattice),
  schemas the verifier cannot see (lazy tables in no-hydration mode);
* **notes** record what the optimizer may do (TOP-pushdown legality) and
  the shard-safety classification of :mod:`repro.analysis.locality`.

The error rules mirror the raise sites of :mod:`repro.pra.operators`,
:mod:`repro.pra.evaluator` and :mod:`repro.relational.expressions` one by
one, which is what the Hypothesis agreement suite in ``tests/analysis``
checks: a plan that verifies without errors never raises a schema, binding
or assumption error when evaluated.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.analysis.diagnostics import AnalysisReport, Diagnostic, Severity
from repro.analysis.lattice import produces_distinct
from repro.analysis.locality import classify
from repro.errors import ReproError
from repro.pra.assumptions import Assumption
from repro.pra.expressions import PositionalRef
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
from repro.pra.relation import PROBABILITY_COLUMN
from repro.relational.column import DataType
from repro.relational.expressions import (
    BinaryOp,
    ColumnRef,
    Expression,
    FunctionCall,
    InList,
    Literal,
    UnaryOp,
)
from repro.relational.functions import FunctionRegistry, default_registry
from repro.relational.schema import Field, Schema

if TYPE_CHECKING:  # pragma: no cover
    from repro.pra.relation import ProbabilisticRelation
    from repro.relational.database import Database

_COMPARISONS = {"=", "<>", "<", "<=", ">", ">="}
_ARITHMETIC = {"+", "-", "*", "/"}
_BOOLEAN = {"and", "or"}


# ---------------------------------------------------------------------------
# schema providers
# ---------------------------------------------------------------------------


class SchemaProvider:
    """Resolves scanned table names to schemas without evaluating plans."""

    def exists(self, name: str) -> bool:
        raise NotImplementedError

    def schema_of(self, name: str) -> Schema | None:
        """Full relation schema of ``name``, or ``None`` when unknowable."""
        raise NotImplementedError


class EmptyProvider(SchemaProvider):
    """No catalog at all: every scan is an unknown table (the default)."""

    def exists(self, name: str) -> bool:
        return False

    def schema_of(self, name: str) -> Schema | None:
        return None


class CatalogSchemaProvider(SchemaProvider):
    """Schemas from a :class:`~repro.relational.database.Database` catalog.

    Lazy snapshot tables usually answer without touching data: their
    manifests declare the schema at registration
    (:meth:`~repro.relational.catalog.Catalog.declared_schema`).  With
    ``hydrate=True`` (the default for ``Query.check()`` /
    ``Engine.analyze()``) undeclared lazy tables are hydrated and views are
    materialized once (through the database's materialization cache) so
    every reachable schema is known — no false "ok".  With ``hydrate=False``
    (the serving router's pre-dispatch gate) the provider never runs a
    loader: tables without a declared schema and views report an unknown
    schema, which the verifier downgrades to an ``unknown-schema`` warning.
    """

    def __init__(self, database: "Database", *, hydrate: bool = True) -> None:
        self._database = database
        self._hydrate = hydrate

    def exists(self, name: str) -> bool:
        return self._database.catalog.exists(name)

    def schema_of(self, name: str) -> Schema | None:
        catalog = self._database.catalog
        if catalog.has_view(name):
            if not self._hydrate:
                return None
            return self._database.query(name).schema
        if not catalog.has_table(name):
            return None
        declared = catalog.declared_schema(name)
        if declared is not None:
            return declared
        if not self._hydrate:
            return None
        return catalog.table(name).schema


# ---------------------------------------------------------------------------
# per-node facts
# ---------------------------------------------------------------------------


@dataclass
class NodeFacts:
    """What the verifier knows about one node's output."""

    #: schema of the value columns (``p`` excluded); ``None`` when unknown
    schema: Schema | None
    #: the duplicate-freeness lattice value of the subtree
    duplicate_free: bool

    @property
    def arity(self) -> int | None:
        return None if self.schema is None else len(self.schema)


_UNKNOWN = NodeFacts(schema=None, duplicate_free=False)


# ---------------------------------------------------------------------------
# the verifier
# ---------------------------------------------------------------------------


class PlanVerifier:
    """One verification walk; use :func:`verify_plan` unless composing."""

    def __init__(
        self,
        *,
        schema_provider: SchemaProvider | None = None,
        functions: FunctionRegistry | None = None,
        parameters: Iterable[str] = (),
        bindings: "Mapping[str, ProbabilisticRelation] | None" = None,
        partitioned: Callable[[str], bool] | None = None,
    ) -> None:
        self._provider = schema_provider or EmptyProvider()
        self._functions = functions if functions is not None else default_registry()
        self._bindings = dict(bindings or {})
        self._declared = set(parameters) | set(self._bindings)
        self._partitioned = partitioned
        self._report = AnalysisReport()

    # -- driver ----------------------------------------------------------------

    def verify(self, plan: PraPlan) -> AnalysisReport:
        facts = self._visit(plan, ())
        if facts.schema is not None:
            self._report.output_columns = [
                (field.name, field.dtype.value) for field in facts.schema
            ]
        if self._partitioned is not None:
            locality = classify(plan, self._partitioned)
            self._report.locality = locality
            self._note("scatter", locality.render(), (), plan)
        return self._report

    # -- diagnostics helpers ---------------------------------------------------

    def _emit(
        self, code: str, severity: Severity, message: str, path: tuple[int, ...], plan: PraPlan
    ) -> None:
        self._report.add(
            Diagnostic(
                code=code,
                severity=severity,
                message=message,
                path=path,
                node=plan._describe_self(),
            )
        )

    def _error(self, code: str, message: str, path: tuple[int, ...], plan: PraPlan) -> None:
        self._emit(code, Severity.ERROR, message, path, plan)

    def _warn(self, code: str, message: str, path: tuple[int, ...], plan: PraPlan) -> None:
        self._emit(code, Severity.WARNING, message, path, plan)

    def _note(self, code: str, message: str, path: tuple[int, ...], plan: PraPlan) -> None:
        self._emit(code, Severity.NOTE, message, path, plan)

    # -- node dispatch ---------------------------------------------------------

    def _visit(self, plan: PraPlan, path: tuple[int, ...]) -> NodeFacts:
        if isinstance(plan, PraScan):
            return self._visit_scan(plan, path)
        if isinstance(plan, PraValues):
            return NodeFacts(plan.relation.values_relation().schema, duplicate_free=False)
        if isinstance(plan, PraParam):
            return self._visit_param(plan, path)
        if isinstance(plan, PraSelect):
            return self._visit_select(plan, path)
        if isinstance(plan, PraProject):
            return self._visit_project(plan, path)
        if isinstance(plan, PraJoin):
            return self._visit_join(plan, path)
        if isinstance(plan, PraUnite):
            return self._visit_unite(plan, path)
        if isinstance(plan, PraSubtract):
            return self._visit_subtract(plan, path)
        if isinstance(plan, PraBayes):
            return self._visit_bayes(plan, path)
        if isinstance(plan, PraWeight):
            return self._visit_weight(plan, path)
        if isinstance(plan, PraTop):
            return self._visit_top(plan, path)
        if isinstance(plan, PraRank):
            return self._visit_rank(plan, path)
        self._error(
            "unknown-node", f"unrecognized plan node {type(plan).__name__}", path, plan
        )
        return _UNKNOWN

    # -- leaves ----------------------------------------------------------------

    def _visit_scan(self, plan: PraScan, path: tuple[int, ...]) -> NodeFacts:
        name = plan.table
        if not self._provider.exists(name):
            self._error(
                "unknown-table", f"table or view {name!r} is not in the catalog", path, plan
            )
            return _UNKNOWN
        try:
            schema = self._provider.schema_of(name)
        except ReproError as error:
            self._error(
                "unknown-table", f"view {name!r} failed to resolve: {error}", path, plan
            )
            return _UNKNOWN
        if schema is None:
            self._warn(
                "unknown-schema",
                f"the schema of {name!r} is not statically known "
                "(lazy table or view, hydration disabled); downstream checks are skipped",
                path,
                plan,
            )
            return _UNKNOWN
        if PROBABILITY_COLUMN in schema.names:
            # lifting requires 'p' to be the trailing FLOAT probability column
            if (
                schema.names[-1] != PROBABILITY_COLUMN
                or schema.dtype_of(PROBABILITY_COLUMN) is not DataType.FLOAT
            ):
                self._error(
                    "invalid-probability-column",
                    f"table {name!r} has a column named {PROBABILITY_COLUMN!r} that is "
                    "not a trailing FLOAT column; it cannot be lifted to a "
                    "probabilistic relation",
                    path,
                    plan,
                )
                return _UNKNOWN
            value_fields = list(schema)[:-1]
        else:
            value_fields = list(schema)
        return NodeFacts(Schema(value_fields), duplicate_free=False)

    def _visit_param(self, plan: PraParam, path: tuple[int, ...]) -> NodeFacts:
        bound = self._bindings.get(plan.name)
        if bound is not None:
            return NodeFacts(bound.values_relation().schema, duplicate_free=False)
        if plan.name in self._declared:
            return _UNKNOWN
        self._error(
            "unbound-parameter",
            f"unbound plan parameter {plan.name!r}; "
            f"declared parameters: {sorted(self._declared)}",
            path,
            plan,
        )
        return _UNKNOWN

    # -- unary operators -------------------------------------------------------

    def _visit_select(self, plan: PraSelect, path: tuple[int, ...]) -> NodeFacts:
        child = self._visit(plan.child, path + (0,))
        if child.schema is not None:
            dtype = self._check_expression(plan.predicate, child.schema, path, plan)
            if dtype is not None and dtype is not DataType.BOOL:
                self._error(
                    "predicate-not-boolean",
                    f"selection predicate must evaluate to a boolean column, "
                    f"got {dtype.value}",
                    path,
                    plan,
                )
        return child

    def _visit_project(self, plan: PraProject, path: tuple[int, ...]) -> NodeFacts:
        child = self._visit(plan.child, path + (0,))
        broken = False

        if plan.output_names is not None and len(plan.output_names) != len(plan.positions):
            self._error(
                "output-arity-mismatch",
                f"output_names must match the projected columns: "
                f"{len(plan.output_names)} name(s) for {len(plan.positions)} position(s)",
                path,
                plan,
            )
            broken = True
        if plan.output_names is not None:
            duplicates = sorted(
                {name for name in plan.output_names if plan.output_names.count(name) > 1}
            )
            if duplicates:
                self._error(
                    "duplicate-output-column",
                    f"duplicate output column names: {duplicates}",
                    path,
                    plan,
                )
                broken = True
            if PROBABILITY_COLUMN in plan.output_names:
                self._error(
                    "reserved-column-name",
                    f"output column name {PROBABILITY_COLUMN!r} is reserved for the "
                    "probability column; projecting onto it silently discards the value "
                    "column",
                    path,
                    plan,
                )
                broken = True

        duplicate_positions = sorted(
            {position for position in plan.positions if plan.positions.count(position) > 1}
        )
        if duplicate_positions:
            # the kernel selects the duplicated columns before any rename, so
            # this raises at evaluation even with distinct output names
            self._error(
                "duplicate-output-column",
                f"positions {duplicate_positions} project the same column more than once",
                path,
                plan,
            )
            broken = True

        if child.schema is None:
            return NodeFacts(None, duplicate_free=True)
        arity = len(child.schema)
        resolved: list[Field] = []
        for position in plan.positions:
            if not 1 <= position <= arity:
                self._error(
                    "position-out-of-range",
                    f"positional reference ${position} out of range; the relation has "
                    f"{arity} value columns ({list(child.schema.names)})",
                    path,
                    plan,
                )
                broken = True
                continue
            resolved.append(child.schema.fields[position - 1])
        if broken:
            return NodeFacts(None, duplicate_free=True)
        if plan.output_names is not None:
            resolved = [
                Field(name, field.dtype)
                for name, field in zip(plan.output_names, resolved)
            ]
        return NodeFacts(Schema(resolved), duplicate_free=True)

    def _visit_weight(self, plan: PraWeight, path: tuple[int, ...]) -> NodeFacts:
        child = self._visit(plan.child, path + (0,))
        if not 0 <= plan.factor <= 1:
            self._error(
                "weight-out-of-range",
                f"weight factor must lie in [0, 1] to keep probabilities valid, "
                f"got {plan.factor}",
                path,
                plan,
            )
        return child

    def _visit_bayes(self, plan: PraBayes, path: tuple[int, ...]) -> NodeFacts:
        child = self._visit(plan.child, path + (0,))
        if child.schema is not None:
            arity = len(child.schema)
            for position in plan.evidence_positions:
                if not 1 <= position <= arity:
                    self._error(
                        "position-out-of-range",
                        f"positional reference ${position} out of range; the relation "
                        f"has {arity} value columns ({list(child.schema.names)})",
                        path,
                        plan,
                    )
        return child

    def _visit_top(self, plan: PraTop, path: tuple[int, ...]) -> NodeFacts:
        child = self._visit(plan.child, path + (0,))
        self._note_top_pushdown(plan, path)
        return child

    def _visit_rank(self, plan: PraRank, path: tuple[int, ...]) -> NodeFacts:
        child = self._visit(plan.child, path + (0,))
        if child.schema is not None and len(child.schema) != 2:
            self._error(
                "rank-input-arity",
                f"RANK expects a two-column (id, text) input; got columns "
                f"{list(child.schema.names)}",
                path,
                plan,
            )
        return NodeFacts(Schema([Field("node", DataType.STRING)]), duplicate_free=False)

    def _note_top_pushdown(self, plan: PraTop, path: tuple[int, ...]) -> None:
        """Record what the optimizer's rank-aware rewrites may do with this TOP."""
        below = plan.child
        if isinstance(below, PraTop):
            self._note(
                "top-pushdown",
                f"TOP {plan.k} absorbs the inner TOP {below.k} (min of the two)",
                path,
                plan,
            )
        elif isinstance(below, PraWeight):
            if below.factor > 0:
                self._note(
                    "top-pushdown",
                    f"TOP {plan.k} pushes below WEIGHT {below.factor} "
                    "(positive scaling preserves the ranking)",
                    path,
                    plan,
                )
            else:
                self._note(
                    "top-pushdown",
                    "TOP pushdown blocked: WEIGHT 0.0 collapses every probability, "
                    "so pre-scaling and post-scaling top-k differ",
                    path,
                    plan,
                )
        elif isinstance(below, PraUnite):
            if below.assumption is not Assumption.SUBSUMED:
                self._note(
                    "top-pushdown",
                    f"TOP pushdown blocked: UNITE {below.assumption.name} merges can "
                    "rank a tuple above either input's top-k; only SUBSUMED is safe",
                    path,
                    plan,
                )
            elif not (produces_distinct(below.left) and produces_distinct(below.right)):
                self._note(
                    "top-pushdown",
                    "TOP pushdown blocked: a UNITE side is not provably duplicate-free, "
                    "so per-side pruning could crowd out merged groups",
                    path,
                    plan,
                )
            else:
                self._note(
                    "top-pushdown",
                    f"TOP {plan.k} prunes both sides of the SUBSUMED UNITE "
                    "(duplicate-free sides)",
                    path,
                    plan,
                )
        elif isinstance(below, (PraBayes, PraSubtract, PraSelect, PraProject, PraJoin)):
            names = {
                PraBayes: "BAYES",
                PraSubtract: "SUBTRACT",
                PraSelect: "SELECT",
                PraProject: "PROJECT",
                PraJoin: "JOIN",
            }
            self._note(
                "top-pushdown",
                f"TOP cannot cross {names[type(below)]}; the subtree below is "
                "evaluated in full",
                path,
                plan,
            )

    # -- binary operators ------------------------------------------------------

    def _visit_join(self, plan: PraJoin, path: tuple[int, ...]) -> NodeFacts:
        left = self._visit(plan.left, path + (0,))
        right = self._visit(plan.right, path + (1,))
        if plan.assumption is Assumption.DISJOINT:
            self._error(
                "disjoint-join",
                "a disjoint join always yields probability zero; not supported",
                path,
                plan,
            )
        for index, (left_position, right_position) in enumerate(plan.conditions):
            left_dtype = self._positional_dtype(
                left, left_position, path, plan, side="left"
            )
            right_dtype = self._positional_dtype(
                right, right_position, path, plan, side="right"
            )
            if (
                left_dtype is not None
                and right_dtype is not None
                and left_dtype is not right_dtype
            ):
                self._warn(
                    "suspicious-comparison",
                    f"join condition ${left_position}=${right_position} (condition "
                    f"{index + 1}) compares {left_dtype.value} with "
                    f"{right_dtype.value}; rows will never match",
                    path,
                    plan,
                )
        if left.schema is None or right.schema is None:
            schema = None
        else:
            schema = left.schema.concat(right.schema)
        return NodeFacts(schema, duplicate_free=left.duplicate_free and right.duplicate_free)

    def _positional_dtype(
        self,
        facts: NodeFacts,
        position: int,
        path: tuple[int, ...],
        plan: PraPlan,
        *,
        side: str,
    ) -> DataType | None:
        if facts.schema is None:
            return None
        arity = len(facts.schema)
        if not 1 <= position <= arity:
            self._error(
                "position-out-of-range",
                f"positional reference ${position} out of range on the {side} side; "
                f"the relation has {arity} value columns ({list(facts.schema.names)})",
                path,
                plan,
            )
            return None
        return facts.schema.fields[position - 1].dtype

    def _visit_unite(self, plan: PraUnite, path: tuple[int, ...]) -> NodeFacts:
        left = self._visit(plan.left, path + (0,))
        right = self._visit(plan.right, path + (1,))
        self._check_merge_assumption(plan, left, right, path)
        if left.schema is not None and right.schema is not None:
            if len(left.schema) != len(right.schema):
                self._error(
                    "arity-mismatch",
                    f"union requires inputs with the same number of value columns, "
                    f"got {len(left.schema)} and {len(right.schema)}",
                    path,
                    plan,
                )
                return NodeFacts(None, duplicate_free=True)
            self._check_unite_dtypes(plan, left.schema, right.schema, path)
        return NodeFacts(left.schema, duplicate_free=True)

    def _check_unite_dtypes(
        self, plan: PraUnite, left: Schema, right: Schema, path: tuple[int, ...]
    ) -> None:
        # merged rows are rebuilt under the LEFT schema, so the right side's
        # values are coerced column by column to the left side's dtypes
        for position, (left_field, right_dtype) in enumerate(
            zip(left, right.dtypes), start=1
        ):
            left_dtype = left_field.dtype
            if left_dtype is right_dtype:
                continue
            if right_dtype is DataType.STRING and left_dtype is not DataType.STRING:
                self._error(
                    "union-type-mismatch",
                    f"column ${position}: the right side's {right_dtype.value} values "
                    f"cannot be coerced to the left side's {left_dtype.value} column",
                    path,
                    plan,
                )
            elif left_dtype is DataType.FLOAT and right_dtype is DataType.INT:
                continue  # lossless widening
            else:
                self._warn(
                    "union-type-mismatch",
                    f"column ${position}: the right side's {right_dtype.value} values "
                    f"are coerced to the left side's {left_dtype.value} column "
                    "(lossy; merged rows may be surprising)",
                    path,
                    plan,
                )

    def _check_merge_assumption(
        self, plan: PraUnite, left: NodeFacts, right: NodeFacts, path: tuple[int, ...]
    ) -> None:
        """The duplicate-freeness lattice applied to union merges.

        DISJOINT sums the probabilities of equal value tuples: duplicates
        *within* one input double-count the same event (and can saturate the
        [0, 1] clamp).  SUBSUMED keeps the max — the premise of the
        optimizer's TOP-into-UNITE prune — and collapses within-side
        duplicates that may represent distinct events.  INDEPENDENT (noisy-or)
        is well-defined over multisets, so it is not flagged.
        """
        if plan.assumption is Assumption.INDEPENDENT:
            return
        unsound = [
            side
            for side, facts in (("left", left), ("right", right))
            if not facts.duplicate_free
        ]
        if not unsound:
            return
        self._warn(
            "assumption-unsound",
            f"UNITE {plan.assumption.name} merges probabilities of equal value "
            f"tuples, but the {' and '.join(unsound)} input(s) are not provably "
            "duplicate-free; duplicates within one input are merged as if they "
            "were the same event",
            path,
            plan,
        )

    def _visit_subtract(self, plan: PraSubtract, path: tuple[int, ...]) -> NodeFacts:
        left = self._visit(plan.left, path + (0,))
        right = self._visit(plan.right, path + (1,))
        if left.schema is not None and right.schema is not None:
            if len(left.schema) != len(right.schema):
                self._error(
                    "arity-mismatch",
                    "subtraction requires inputs with the same number of value columns, "
                    f"got {len(left.schema)} and {len(right.schema)}",
                    path,
                    plan,
                )
                return NodeFacts(None, duplicate_free=left.duplicate_free)
            for position, (left_dtype, right_dtype) in enumerate(
                zip(left.schema.dtypes, right.schema.dtypes), start=1
            ):
                if left_dtype is not right_dtype:
                    self._warn(
                        "subtract-type-mismatch",
                        f"column ${position}: subtracting {right_dtype.value} rows from "
                        f"a {left_dtype.value} column; no row can match, so the "
                        "subtraction never reduces any probability",
                        path,
                        plan,
                    )
        return NodeFacts(left.schema, duplicate_free=left.duplicate_free)

    # -- expression checking ---------------------------------------------------

    def _check_expression(
        self,
        expression: Expression,
        value_schema: Schema,
        path: tuple[int, ...],
        plan: PraPlan,
    ) -> DataType | None:
        """Type-check ``expression`` against the node's evaluation schema.

        Mirrors the raise semantics of ``Expression.evaluate`` — which
        ``output_type`` alone does not: comparisons and boolean connectives
        type-check operands at evaluation time only.  Returns the static
        result dtype, or ``None`` when it cannot be derived.
        """
        # predicates evaluate over the full relation: value columns plus 'p'
        schema = Schema(list(value_schema) + [Field(PROBABILITY_COLUMN, DataType.FLOAT)])
        return self._expression_dtype(expression, schema, value_schema, path, plan)

    def _expression_dtype(
        self,
        expression: Expression,
        schema: Schema,
        value_schema: Schema,
        path: tuple[int, ...],
        plan: PraPlan,
    ) -> DataType | None:
        if isinstance(expression, Literal):
            return expression.dtype
        if isinstance(expression, ColumnRef):
            if expression.name not in schema:
                self._error(
                    "unknown-column",
                    f"unknown column {expression.name!r}; available columns: "
                    f"{list(schema.names)}",
                    path,
                    plan,
                )
                return None
            return schema.dtype_of(expression.name)
        if isinstance(expression, PositionalRef):
            arity = len(value_schema)
            if expression.position > arity:
                self._error(
                    "position-out-of-range",
                    f"positional reference ${expression.position} out of range; "
                    f"the relation has {arity} value columns "
                    f"({list(value_schema.names)})",
                    path,
                    plan,
                )
                return None
            return value_schema.fields[expression.position - 1].dtype
        if isinstance(expression, BinaryOp):
            return self._binary_dtype(expression, schema, value_schema, path, plan)
        if isinstance(expression, UnaryOp):
            operand = self._expression_dtype(
                expression.operand, schema, value_schema, path, plan
            )
            if expression.op == "not":
                if operand is not None and operand is not DataType.BOOL:
                    self._error(
                        "type-mismatch",
                        f"NOT requires a boolean operand, got {operand.value}",
                        path,
                        plan,
                    )
                return DataType.BOOL
            if operand is not None and not operand.is_numeric():
                self._error(
                    "type-mismatch",
                    f"negation requires a numeric operand, got {operand.value}",
                    path,
                    plan,
                )
                return None
            return operand
        if isinstance(expression, InList):
            operand = self._expression_dtype(
                expression.operand, schema, value_schema, path, plan
            )
            if operand is not None:
                try:
                    value_dtypes = {DataType.of_value(value) for value in expression.values}
                except ReproError:
                    value_dtypes = set()
                if value_dtypes and operand not in value_dtypes:
                    rendered = sorted(dtype.value for dtype in value_dtypes)
                    self._warn(
                        "suspicious-comparison",
                        f"IN list of {rendered} values can never contain a "
                        f"{operand.value} operand",
                        path,
                        plan,
                    )
            return DataType.BOOL
        if isinstance(expression, FunctionCall):
            return self._function_dtype(expression, schema, value_schema, path, plan)
        return None

    def _binary_dtype(
        self,
        expression: BinaryOp,
        schema: Schema,
        value_schema: Schema,
        path: tuple[int, ...],
        plan: PraPlan,
    ) -> DataType | None:
        left = self._expression_dtype(expression.left, schema, value_schema, path, plan)
        right = self._expression_dtype(expression.right, schema, value_schema, path, plan)
        op = expression.op
        if op in _BOOLEAN:
            for dtype in (left, right):
                if dtype is not None and dtype is not DataType.BOOL:
                    self._error(
                        "type-mismatch",
                        f"boolean operator {op!r} requires boolean operands, "
                        f"got {dtype.value}",
                        path,
                        plan,
                    )
            return DataType.BOOL
        if op in _COMPARISONS:
            if left is None or right is None:
                return DataType.BOOL
            if DataType.STRING in (left, right):
                if left is not right:
                    self._error(
                        "type-mismatch",
                        f"cannot compare {left.value} with {right.value}",
                        path,
                        plan,
                    )
            elif left is not right and not (left.is_numeric() and right.is_numeric()):
                self._warn(
                    "suspicious-comparison",
                    f"comparing {left.value} with {right.value}; the comparison is "
                    "evaluated bitwise and is unlikely to mean what it says",
                    path,
                    plan,
                )
            return DataType.BOOL
        # arithmetic
        for dtype in (left, right):
            if dtype is not None and not dtype.is_numeric():
                self._error(
                    "type-mismatch",
                    f"arithmetic operator {op!r} requires numeric operands, "
                    f"got {dtype.value}",
                    path,
                    plan,
                )
                return None
        if op == "/":
            return DataType.FLOAT
        if left is None or right is None:
            return None
        if DataType.FLOAT in (left, right):
            return DataType.FLOAT
        return DataType.INT

    def _function_dtype(
        self,
        expression: FunctionCall,
        schema: Schema,
        value_schema: Schema,
        path: tuple[int, ...],
        plan: PraPlan,
    ) -> DataType | None:
        for argument in expression.args:
            self._expression_dtype(argument, schema, value_schema, path, plan)
        if not self._functions.has_scalar(expression.name):
            self._error(
                "unknown-function",
                f"unknown scalar function {expression.name!r}",
                path,
                plan,
            )
            return None
        function = self._functions.scalar(expression.name)
        if len(expression.args) != function.arity:
            self._error(
                "arity-mismatch",
                f"function {function.name!r} expects {function.arity} arguments, "
                f"got {len(expression.args)}",
                path,
                plan,
            )
        return function.output_type


def verify_plan(
    plan: PraPlan,
    *,
    schema_provider: SchemaProvider | None = None,
    functions: FunctionRegistry | None = None,
    parameters: Iterable[str] = (),
    bindings: "Mapping[str, ProbabilisticRelation] | None" = None,
    partitioned: Callable[[str], bool] | None = None,
) -> AnalysisReport:
    """Statically verify ``plan``; see the module docstring for the rules.

    ``parameters`` declares :class:`~repro.pra.plan.PraParam` names that will
    be bound at execution time (their schemas stay opaque); ``bindings`` maps
    names to already-bound relations (their schemas participate fully).
    ``partitioned`` — typically
    :meth:`ShardMap.is_partitioned <repro.storage.shards.ShardMap.is_partitioned>` —
    enables the shard-safety classification.
    """
    verifier = PlanVerifier(
        schema_provider=schema_provider,
        functions=functions,
        parameters=parameters,
        bindings=bindings,
        partitioned=partitioned,
    )
    return verifier.verify(plan)
