"""Compilation of SpinQL ASTs into PRA plans.

Names referenced in a script resolve, in order, to

1. an earlier assignment in the same script,
2. an externally supplied binding (a pre-computed probabilistic relation —
   this is how the strategy layer feeds ranked lists into SpinQL), or
3. a table or view of the database catalog (a :class:`~repro.pra.plan.PraScan`).

The ``TRAVERSE`` convenience operator is lowered into the JOIN/PROJECT
combination over the property's triples, read through the store's layout
(:func:`~repro.triples.graph.traverse_plan`), so the PRA evaluator never
needs to know about graphs.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.errors import SpinQLCompileError
from repro.pra.assumptions import Assumption
from repro.pra.expressions import PositionalRef
from repro.pra.plan import (
    PraBayes,
    PraJoin,
    PraParam,
    PraPlan,
    PraProject,
    PraScan,
    PraSelect,
    PraSubtract,
    PraUnite,
    PraValues,
    PraWeight,
)
from repro.pra.relation import ProbabilisticRelation
from repro.relational.expressions import BinaryOp, Expression, Literal
from repro.spinql.ast import (
    Assignment,
    BooleanExpr,
    Comparison,
    JoinCondition,
    LiteralValue,
    OperatorCall,
    PositionalColumn,
    ProjectionItem,
    Reference,
    Script,
    SpinQLNode,
)
from repro.spinql.parser import parse
from repro.triples.graph import traverse_plan
from repro.triples.partitioning import SingleTableStorage, StorageStrategy

#: how many value columns the triples table has (subject, property, object)
_TRIPLE_ARITY = 3


@dataclass
class CompiledScript:
    """The result of compiling a script: one PRA plan per statement."""

    plans: dict[str, PraPlan] = field(default_factory=dict)
    order: list[str] = field(default_factory=list)

    @property
    def final_plan(self) -> PraPlan:
        if not self.order:
            raise SpinQLCompileError("the compiled script is empty")
        return self.plans[self.order[-1]]

    def plan(self, name: str) -> PraPlan:
        try:
            return self.plans[name]
        except KeyError:
            raise SpinQLCompileError(
                f"unknown statement {name!r}; defined: {self.order}"
            ) from None


class SpinQLCompiler:
    """Compiles SpinQL ASTs (or source text) into PRA plans."""

    def __init__(
        self,
        *,
        bindings: dict[str, ProbabilisticRelation] | None = None,
        parameters: Iterable[str] | None = None,
        storage: StorageStrategy | None = None,
    ):
        self.bindings = bindings or {}
        self.parameters = frozenset(parameters or ())
        #: the triple store's layout, through which TRAVERSE reads the edges
        self.storage = storage if storage is not None else SingleTableStorage()

    # -- entry points ------------------------------------------------------------------

    def compile(self, script: Script | str) -> CompiledScript:
        """Compile a script (AST or source text) into PRA plans."""
        if isinstance(script, str):
            script = parse(script)
        compiled = CompiledScript()
        for statement in script.statements:
            plan = self.compile_expression(statement.expression, compiled)
            compiled.plans[statement.name] = plan
            compiled.order.append(statement.name)
        return compiled

    def compile_statement(self, statement: Assignment, compiled: CompiledScript) -> PraPlan:
        return self.compile_expression(statement.expression, compiled)

    # -- expressions ----------------------------------------------------------------------

    def compile_expression(self, node: SpinQLNode, compiled: CompiledScript) -> PraPlan:
        if isinstance(node, Reference):
            return self._resolve_reference(node.name, compiled)
        if isinstance(node, OperatorCall):
            return self._compile_operator(node, compiled)
        raise SpinQLCompileError(f"cannot compile node of type {type(node).__name__}")

    def _resolve_reference(self, name: str, compiled: CompiledScript) -> PraPlan:
        if name in compiled.plans:
            return compiled.plans[name]
        if name in self.parameters:
            # parameters compile to placeholders resolved at evaluation time,
            # so the compiled plan (and its fingerprint) is independent of the
            # bound values — the basis of the engine's plan cache
            return PraParam(name)
        if name in self.bindings:
            return PraValues(self.bindings[name], label=name)
        return PraScan(name)

    # -- operator compilation ------------------------------------------------------------------

    def _compile_operator(self, call: OperatorCall, compiled: CompiledScript) -> PraPlan:
        operator = call.operator
        if operator == "select":
            return self._compile_select(call, compiled)
        if operator == "project":
            return self._compile_project(call, compiled)
        if operator == "join":
            return self._compile_join(call, compiled)
        if operator == "unite":
            return self._compile_unite(call, compiled)
        if operator == "subtract":
            return self._compile_subtract(call, compiled)
        if operator == "bayes":
            return self._compile_bayes(call, compiled)
        if operator == "weight":
            return self._compile_weight(call, compiled)
        if operator == "traverse":
            return self._compile_traverse(call, compiled)
        raise SpinQLCompileError(f"unknown operator {operator!r}")

    def _single_operand(self, call: OperatorCall, compiled: CompiledScript) -> PraPlan:
        if len(call.operands) != 1:
            raise SpinQLCompileError(
                f"{call.operator.upper()} takes exactly one operand, got {len(call.operands)}"
            )
        return self.compile_expression(call.operands[0], compiled)

    def _two_operands(
        self, call: OperatorCall, compiled: CompiledScript
    ) -> tuple[PraPlan, PraPlan]:
        if len(call.operands) != 2:
            raise SpinQLCompileError(
                f"{call.operator.upper()} takes exactly two operands, got {len(call.operands)}"
            )
        return (
            self.compile_expression(call.operands[0], compiled),
            self.compile_expression(call.operands[1], compiled),
        )

    def _assumption(self, call: OperatorCall) -> Assumption:
        if call.assumption is None:
            return Assumption.INDEPENDENT
        return Assumption.parse(call.assumption)

    def _compile_select(self, call: OperatorCall, compiled: CompiledScript) -> PraPlan:
        child = self._single_operand(call, compiled)
        if len(call.arguments) != 1:
            raise SpinQLCompileError("SELECT requires exactly one predicate")
        predicate = self._compile_predicate(call.arguments[0])
        return PraSelect(child, predicate)

    def _compile_project(self, call: OperatorCall, compiled: CompiledScript) -> PraPlan:
        child = self._single_operand(call, compiled)
        positions: list[int] = []
        aliases: list[str | None] = []
        for argument in call.arguments:
            if not isinstance(argument, ProjectionItem):
                raise SpinQLCompileError("PROJECT arguments must be positional references")
            positions.append(argument.position)
            aliases.append(argument.alias)
        output_names = None
        if any(alias is not None for alias in aliases):
            output_names = [
                alias if alias is not None else f"col{position}"
                for alias, position in zip(aliases, positions)
            ]
        return PraProject(child, positions, self._assumption(call), output_names)

    def _compile_join(self, call: OperatorCall, compiled: CompiledScript) -> PraPlan:
        left, right = self._two_operands(call, compiled)
        conditions: list[tuple[int, int]] = []
        for argument in call.arguments:
            if not isinstance(argument, JoinCondition):
                raise SpinQLCompileError("JOIN arguments must be conditions like $1=$1")
            conditions.append((argument.left_position, argument.right_position))
        return PraJoin(left, right, conditions, self._assumption(call))

    def _compile_unite(self, call: OperatorCall, compiled: CompiledScript) -> PraPlan:
        left, right = self._two_operands(call, compiled)
        return PraUnite(left, right, self._assumption(call))

    def _compile_subtract(self, call: OperatorCall, compiled: CompiledScript) -> PraPlan:
        left, right = self._two_operands(call, compiled)
        return PraSubtract(left, right)

    def _compile_bayes(self, call: OperatorCall, compiled: CompiledScript) -> PraPlan:
        child = self._single_operand(call, compiled)
        positions = []
        for argument in call.arguments:
            if not isinstance(argument, PositionalColumn):
                raise SpinQLCompileError("BAYES arguments must be positional references")
            positions.append(argument.position)
        return PraBayes(child, positions)

    def _compile_weight(self, call: OperatorCall, compiled: CompiledScript) -> PraPlan:
        child = self._single_operand(call, compiled)
        if len(call.arguments) != 1 or not isinstance(call.arguments[0], LiteralValue):
            raise SpinQLCompileError("WEIGHT requires a single numeric argument")
        return PraWeight(child, float(call.arguments[0].value))

    def _compile_traverse(self, call: OperatorCall, compiled: CompiledScript) -> PraPlan:
        """Lower ``TRAVERSE ['prop'] (nodes)`` through :func:`traverse_plan`.

        Forward traversal joins the node column ($1 of the input) with the
        subject of the property's triples and projects the object; backward
        traversal joins with the object and projects the subject.
        """
        child = self._single_operand(call, compiled)
        if len(call.arguments) != 1 or not isinstance(call.arguments[0], LiteralValue):
            raise SpinQLCompileError("TRAVERSE requires a property name argument")
        return traverse_plan(
            child,
            str(call.arguments[0].value),
            self.storage,
            backward=call.options.get("direction") == "backward",
            merge=self._assumption(call),
        )

    # -- predicates ------------------------------------------------------------------------------

    def _compile_predicate(self, node: SpinQLNode) -> Expression:
        if isinstance(node, BooleanExpr):
            left = self._compile_predicate(node.left)
            right = self._compile_predicate(node.right)
            return BinaryOp(node.operator, left, right)
        if isinstance(node, Comparison):
            left = self._compile_operand(node.left)
            right = self._compile_operand(node.right)
            operator = "<>" if node.operator == "!=" else node.operator
            return BinaryOp(operator, left, right)
        raise SpinQLCompileError(f"cannot compile predicate node {type(node).__name__}")

    def _compile_operand(self, node: SpinQLNode) -> Expression:
        if isinstance(node, PositionalColumn):
            return PositionalRef(node.position)
        if isinstance(node, LiteralValue):
            return Literal(node.value)
        raise SpinQLCompileError(f"cannot compile operand node {type(node).__name__}")


def compile_script(
    source: str | Script,
    *,
    bindings: dict[str, ProbabilisticRelation] | None = None,
    parameters: Iterable[str] | None = None,
    storage: StorageStrategy | None = None,
) -> CompiledScript:
    """Convenience wrapper: parse (if needed) and compile a SpinQL script."""
    compiler = SpinQLCompiler(bindings=bindings, parameters=parameters, storage=storage)
    return compiler.compile(source)
