"""Logical PRA plan nodes.

A PRA plan is the intermediate representation between the SpinQL front-end /
strategy compiler and the evaluator.  Nodes mirror the operators of
:mod:`repro.pra.operators`; every node can describe itself (for plan
inspection in tests and examples) and produce a deterministic fingerprint
(so PRA results can participate in the on-demand materialization cache).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any

from repro.errors import PRAError
from repro.pra.assumptions import Assumption
from repro.pra.relation import ProbabilisticRelation
from repro.relational.expressions import Expression


class PraPlan:
    """Base class for PRA plan nodes."""

    def children(self) -> list["PraPlan"]:
        return []

    def with_children(self, children: Sequence["PraPlan"]) -> "PraPlan":
        """Return a copy of this node with its children replaced (nodes are immutable)."""
        if children:
            raise PRAError(f"{type(self).__name__} has no children")
        return self

    def describe(self, indent: int = 0) -> str:
        """Return an indented, human-readable plan description."""
        lines = ["  " * indent + self._describe_self()]
        for child in self.children():
            lines.append(child.describe(indent + 1))
        return "\n".join(lines)

    def _describe_self(self) -> str:
        return type(self).__name__

    def fingerprint(self) -> str:
        """A deterministic key of the plan's content, computed once per node
        (nodes are immutable)."""
        cached = self.__dict__.get("_fingerprint")
        if cached is None:
            cached = self.__dict__["_fingerprint"] = self._fingerprint()
        return cached

    def _fingerprint(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class PraScan(PraPlan):
    """Scan a named table or view; tuples without a ``p`` column get ``p = 1``."""

    table: str

    def _fingerprint(self) -> str:
        return f"prascan({self.table})"

    def _describe_self(self) -> str:
        return f"Scan({self.table})"


class PraValues(PraPlan):
    """A literal probabilistic relation embedded in the plan.

    ``tables`` names tables the literal stands in for (say, the partition a
    storage layout has not created yet), so that whatever depends on the
    plan is dropped when one of them is created.
    """

    def __init__(
        self, relation: ProbabilisticRelation, label: str = "values", tables: Sequence[str] = ()
    ):
        self.relation = relation
        self.label = label
        self.tables = tuple(tables)

    def _fingerprint(self) -> str:
        rows = ";".join(",".join(map(repr, row)) for row in self.relation.rows())
        return f"pravalues({self.label}:{hash(rows)})"

    def _describe_self(self) -> str:
        return f"Values({self.label}, rows={self.relation.num_rows})"


@dataclass(frozen=True)
class PraParam(PraPlan):
    """A named placeholder for a probabilistic relation bound at execution time.

    Parameters make compiled plans reusable: the fingerprint depends only on
    the parameter *name*, never on the bound value, so a parameterized query
    compiled once can be executed many times against different bindings while
    hitting the engine's plan cache.
    """

    name: str

    def _fingerprint(self) -> str:
        return f"praparam({self.name})"

    def _describe_self(self) -> str:
        return f"Param({self.name})"


class PraSelect(PraPlan):
    """``SELECT [predicate] (input)``."""

    def __init__(self, child: PraPlan, predicate: Expression):
        self.child = child
        self.predicate = predicate

    def children(self) -> list[PraPlan]:
        return [self.child]

    def with_children(self, children: Sequence[PraPlan]) -> "PraSelect":
        (child,) = children
        return PraSelect(child, self.predicate)

    def _fingerprint(self) -> str:
        return f"praselect({self.predicate.to_sql()})[{self.child.fingerprint()}]"

    def _describe_self(self) -> str:
        return f"SELECT [{self.predicate.to_sql()}]"


class PraProject(PraPlan):
    """``PROJECT [columns] (input)`` with duplicate merging under an assumption."""

    def __init__(
        self,
        child: PraPlan,
        positions: Sequence[int],
        assumption: Assumption = Assumption.INDEPENDENT,
        output_names: Sequence[str] | None = None,
    ):
        if not positions:
            raise PRAError("projection requires at least one column position")
        self.child = child
        self.positions = tuple(positions)
        self.assumption = assumption
        self.output_names = tuple(output_names) if output_names is not None else None

    def children(self) -> list[PraPlan]:
        return [self.child]

    def with_children(self, children: Sequence[PraPlan]) -> "PraProject":
        (child,) = children
        return PraProject(child, self.positions, self.assumption, self.output_names)

    def _fingerprint(self) -> str:
        rendered = ",".join(str(position) for position in self.positions)
        return (
            f"praproject({rendered};{self.assumption.value};{self.output_names})"
            f"[{self.child.fingerprint()}]"
        )

    def _describe_self(self) -> str:
        rendered = ", ".join(f"${position}" for position in self.positions)
        return f"PROJECT {self.assumption.value.upper()} [{rendered}]"


class PraJoin(PraPlan):
    """``JOIN <assumption> [$i=$j, ...] (left, right)``."""

    def __init__(
        self,
        left: PraPlan,
        right: PraPlan,
        conditions: Sequence[tuple[int, int]],
        assumption: Assumption = Assumption.INDEPENDENT,
    ):
        if not conditions:
            raise PRAError("join requires at least one positional condition")
        self.left = left
        self.right = right
        self.conditions = tuple(conditions)
        self.assumption = assumption

    def children(self) -> list[PraPlan]:
        return [self.left, self.right]

    def with_children(self, children: Sequence[PraPlan]) -> "PraJoin":
        left, right = children
        return PraJoin(left, right, self.conditions, self.assumption)

    def _fingerprint(self) -> str:
        conditions = ",".join(f"{left}={right}" for left, right in self.conditions)
        return (
            f"prajoin({conditions};{self.assumption.value})"
            f"[{self.left.fingerprint()}|{self.right.fingerprint()}]"
        )

    def _describe_self(self) -> str:
        conditions = ", ".join(f"${left}=${right}" for left, right in self.conditions)
        return f"JOIN {self.assumption.value.upper()} [{conditions}]"


class PraUnite(PraPlan):
    """``UNITE <assumption> (left, right)``."""

    def __init__(
        self,
        left: PraPlan,
        right: PraPlan,
        assumption: Assumption = Assumption.INDEPENDENT,
    ):
        self.left = left
        self.right = right
        self.assumption = assumption

    def children(self) -> list[PraPlan]:
        return [self.left, self.right]

    def with_children(self, children: Sequence[PraPlan]) -> "PraUnite":
        left, right = children
        return PraUnite(left, right, self.assumption)

    def _fingerprint(self) -> str:
        return (
            f"praunite({self.assumption.value})"
            f"[{self.left.fingerprint()}|{self.right.fingerprint()}]"
        )

    def _describe_self(self) -> str:
        return f"UNITE {self.assumption.value.upper()}"


class PraSubtract(PraPlan):
    """``SUBTRACT (left, right)``: left tuples weighted by the complement of right."""

    def __init__(self, left: PraPlan, right: PraPlan):
        self.left = left
        self.right = right

    def children(self) -> list[PraPlan]:
        return [self.left, self.right]

    def with_children(self, children: Sequence[PraPlan]) -> "PraSubtract":
        left, right = children
        return PraSubtract(left, right)

    def _fingerprint(self) -> str:
        return f"prasubtract[{self.left.fingerprint()}|{self.right.fingerprint()}]"

    def _describe_self(self) -> str:
        return "SUBTRACT"


class PraBayes(PraPlan):
    """``BAYES [evidence positions] (input)``: normalise within evidence groups."""

    def __init__(self, child: PraPlan, evidence_positions: Sequence[int] = ()):
        self.child = child
        self.evidence_positions = tuple(evidence_positions)

    def children(self) -> list[PraPlan]:
        return [self.child]

    def with_children(self, children: Sequence[PraPlan]) -> "PraBayes":
        (child,) = children
        return PraBayes(child, self.evidence_positions)

    def _fingerprint(self) -> str:
        rendered = ",".join(str(position) for position in self.evidence_positions)
        return f"prabayes({rendered})[{self.child.fingerprint()}]"

    def _describe_self(self) -> str:
        rendered = ", ".join(f"${position}" for position in self.evidence_positions)
        return f"BAYES [{rendered}]"


class PraWeight(PraPlan):
    """``WEIGHT [factor] (input)``: scale probabilities by a constant factor."""

    def __init__(self, child: PraPlan, factor: float):
        self.child = child
        self.factor = factor

    def children(self) -> list[PraPlan]:
        return [self.child]

    def with_children(self, children: Sequence[PraPlan]) -> "PraWeight":
        (child,) = children
        return PraWeight(child, self.factor)

    def _fingerprint(self) -> str:
        return f"praweight({self.factor})[{self.child.fingerprint()}]"

    def _describe_self(self) -> str:
        return f"WEIGHT [{self.factor}]"


class PraTop(PraPlan):
    """``TOP [k] (input)``: the ``k`` most probable tuples, deterministically ordered.

    The output is ordered by probability descending with ties broken by the
    value columns ascending, so ``TOP [k]`` is exactly equivalent to a full
    deterministic sort followed by a ``k``-row slice — which is what the
    property-based equivalence suite asserts.  The evaluator uses a
    partial-sort kernel (``np.argpartition``) instead of materialising that
    full sort, and the optimizer pushes the node towards the leaves wherever
    probability monotonicity allows.
    """

    def __init__(self, child: PraPlan, k: int):
        if k < 0:
            raise PRAError(f"TOP requires a non-negative k, got {k}")
        self.child = child
        self.k = int(k)

    def children(self) -> list[PraPlan]:
        return [self.child]

    def with_children(self, children: Sequence[PraPlan]) -> "PraTop":
        (child,) = children
        return PraTop(child, self.k)

    def _fingerprint(self) -> str:
        return f"pratop({self.k})[{self.child.fingerprint()}]"

    def _describe_self(self) -> str:
        return f"TOP [{self.k}]"


#: the request binding that carries a strategy's (or ``rank()``'s) keyword query
QUERY_PARAM = "query"


class PraRank(PraPlan):
    """``RANK [model] (docs)``: rank the child's ``(id, text)`` rows against a query.

    The keyword query is the request binding named by ``query`` (the text,
    or its terms already analyzed), analyzed in ``language`` and optionally
    widened by ``expander``.  Evaluation ranks the rows against collection statistics
    keyed on their content, normalises the scores into probabilities and
    multiplies them with the rows' own: the output is ``(node, p)``.
    """

    def __init__(
        self,
        child: PraPlan,
        query: str,
        model: Any,
        language: str = "english",
        top_k: int | None = None,
        expander: Any = None,
    ):
        self.child = child
        self.query = query
        self.model = model
        self.language = language
        self.top_k = top_k
        self.expander = expander

    def children(self) -> list[PraPlan]:
        return [self.child]

    def with_children(self, children: Sequence[PraPlan]) -> "PraRank":
        (child,) = children
        return PraRank(child, self.query, self.model, self.language, self.top_k, self.expander)

    def _fingerprint(self) -> str:
        # an expander's describe() summarises it, so it is keyed by identity
        expander = f"expander@{id(self.expander)}" if self.expander is not None else None
        model = f"{type(self.model).__name__}{self.model.describe()}"
        configuration = f"{self.query};{model};{self.language};{self.top_k};{expander}"
        return f"prarank({configuration})[{self.child.fingerprint()}]"

    def _describe_self(self) -> str:
        top = f" TOP {self.top_k}" if self.top_k is not None else ""
        expanded = " EXPANDED" if self.expander is not None else ""
        return f"RANK {self.model.name.upper()}{top}{expanded} [${self.query}]"


def scan_tables(plan: PraPlan) -> frozenset[str]:
    """The names of every table ``plan`` scans or has a literal stand in for."""
    names: set[str] = set()
    for node in _nodes(plan):
        if isinstance(node, PraScan):
            names.add(node.table)
        elif isinstance(node, PraValues):
            names.update(node.tables)
    return frozenset(names)


def node_parameters(node: PraPlan) -> frozenset[str]:
    """The request bindings ``node`` itself reads: its parameter or rank query."""
    if isinstance(node, PraParam):
        return frozenset([node.name])
    if isinstance(node, PraRank):
        return frozenset([node.query])
    return frozenset()


def plan_parameters(plan: PraPlan) -> frozenset[str]:
    """The names of every request binding in ``plan``: parameters and rank queries."""
    return frozenset().union(*map(node_parameters, _nodes(plan)))


def _nodes(plan: PraPlan) -> list[PraPlan]:
    nodes: list[PraPlan] = []
    stack = [plan]
    while stack:
        node = stack.pop()
        nodes.append(node)
        stack.extend(node.children())
    return nodes
