"""A calibrated per-operator cost model for PRA plans.

The estimator walks a plan bottom-up, carrying a cardinality estimate per
node (base-table rows from catalog metadata, textbook selectivities for
predicates and joins) and charging each node *work units* — the rows it
processes.  Total estimated latency is the unit-weighted sum of per-kind
coefficients::

    estimated_ms = sum(coefficients[kind] * units[kind] for kind in plan)

The coefficients start as rough per-row constants and are **calibrated**
from the workload log: every logged record carries its plan's per-kind
unit vector, so :meth:`CostModel.calibrate` solves the least-squares
system ``units @ coefficients ≈ latency_ms`` over the observed traffic and
adopts the fit (clamped to stay positive).  The more an engine serves, the
better its estimates match *its* hardware and *its* data.

The model estimates and calibrates; it steers nothing.  Its estimates
surface in ``explain`` output and its per-kind unit vectors in every
workload-log record (``cost_units``), but the optimizer always pushes
``TOP`` and partitioned tables always scatter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from repro.pra.plan import (
    PraBayes,
    PraJoin,
    PraParam,
    PraPlan,
    PraProject,
    PraScan,
    PraSelect,
    PraSubtract,
    PraTop,
    PraUnite,
    PraValues,
    PraWeight,
)
from repro.relational.expressions import BinaryOp, Expression, UnaryOp

#: ms per processed row, per operator kind — deliberately rough priors;
#: calibration replaces them with fitted values for the engine's own traffic
DEFAULT_COEFFICIENTS: dict[str, float] = {
    "scan": 0.00002,
    "values": 0.00002,
    "param": 0.00002,
    "select": 0.00005,
    "project": 0.00008,
    "join": 0.00010,
    "unite": 0.00008,
    "subtract": 0.00008,
    "bayes": 0.00008,
    "weight": 0.00002,
    "top": 0.00004,
}

#: assumed rows for tables/parameters the catalog cannot size without I/O
DEFAULT_UNKNOWN_ROWS = 1000.0

_EQUALITY_SELECTIVITY = 0.1
_COMPARISON_SELECTIVITY = 0.33
_JOIN_CONDITION_SELECTIVITY = 0.05

CardinalityFn = Callable[[str], float | None]


def _selectivity(expression: Expression) -> float:
    """A textbook selectivity estimate for a predicate expression."""
    if isinstance(expression, BinaryOp):
        op = expression.op.lower()
        if op == "and":
            return _selectivity(expression.left) * _selectivity(expression.right)
        if op == "or":
            left, right = _selectivity(expression.left), _selectivity(expression.right)
            return min(1.0, left + right - left * right)
        if op in ("=", "=="):
            return _EQUALITY_SELECTIVITY
        if op in ("!=", "<>"):
            return 1.0 - _EQUALITY_SELECTIVITY
        if op in ("<", "<=", ">", ">="):
            return _COMPARISON_SELECTIVITY
    if isinstance(expression, UnaryOp) and expression.op.lower() == "not":
        return 1.0 - _selectivity(expression.operand)
    return 0.5


@dataclass
class NodeEstimate:
    """The estimate for one plan node (children inlined for rendering)."""

    kind: str
    label: str
    rows: float
    units: float
    children: list["NodeEstimate"] = field(default_factory=list)

    def render(self, indent: int = 0) -> list[str]:
        lines = [
            "  " * indent
            + f"{self.label}  rows~{self.rows:.0f}  units~{self.units:.0f}"
        ]
        for child in self.children:
            lines.extend(child.render(indent + 1))
        return lines


@dataclass
class CostEstimate:
    """A whole-plan estimate: output cardinality, per-kind work, total ms."""

    root: NodeEstimate
    per_kind_units: dict[str, float]
    estimated_ms: float

    @property
    def output_rows(self) -> float:
        return self.root.rows

    @property
    def total_units(self) -> float:
        return sum(self.per_kind_units.values())

    def describe(self) -> str:
        lines = self.root.render()
        lines.append(
            f"estimated: {self.estimated_ms:.3f} ms over ~{self.total_units:.0f} row-units"
        )
        return "\n".join(lines)

    def to_dict(self) -> dict[str, Any]:
        return {
            "estimated_ms": self.estimated_ms,
            "output_rows": self.output_rows,
            "total_units": self.total_units,
            "per_kind_units": dict(sorted(self.per_kind_units.items())),
            "plan": self.root.render(),
        }


class CostModel:
    """Per-operator cost estimation with coefficients fitted from logs."""

    def __init__(
        self,
        coefficients: dict[str, float] | None = None,
        *,
        default_rows: float = DEFAULT_UNKNOWN_ROWS,
    ):
        self.coefficients = dict(DEFAULT_COEFFICIENTS)
        if coefficients:
            self.coefficients.update(coefficients)
        self.default_rows = default_rows
        self.calibrated_from = 0  # records the last calibration consumed

    # -- estimation --------------------------------------------------------------

    def estimate(
        self, plan: PraPlan, cardinality: CardinalityFn | None = None
    ) -> CostEstimate:
        """Estimate ``plan`` with base-table rows from ``cardinality``.

        ``cardinality`` maps a table name to its row count, or ``None``
        when sizing it would require I/O (lazy snapshot tables) — those
        fall back to :attr:`default_rows`.
        """
        units: dict[str, float] = {}
        root = self._estimate_node(plan, cardinality or (lambda name: None), units)
        estimated = sum(
            self.coefficients.get(kind, 0.0) * value for kind, value in units.items()
        )
        return CostEstimate(root=root, per_kind_units=units, estimated_ms=estimated)

    def _estimate_node(
        self,
        plan: PraPlan,
        cardinality: CardinalityFn,
        units: dict[str, float],
    ) -> NodeEstimate:
        children = [
            self._estimate_node(child, cardinality, units) for child in plan.children()
        ]

        def charge(kind: str, rows: float, work: float, label: str | None = None) -> NodeEstimate:
            units[kind] = units.get(kind, 0.0) + work
            return NodeEstimate(
                kind=kind,
                label=label if label is not None else kind,
                rows=rows,
                units=work,
                children=children,
            )

        if isinstance(plan, PraScan):
            rows = cardinality(plan.table)
            rows = self.default_rows if rows is None else float(rows)
            return charge("scan", rows, rows, label=f"scan({plan.table})")
        if isinstance(plan, PraValues):
            rows = float(plan.relation.num_rows)
            return charge("values", rows, rows)
        if isinstance(plan, PraParam):
            return charge("param", self.default_rows, self.default_rows)
        if isinstance(plan, PraSelect):
            in_rows = children[0].rows
            return charge("select", in_rows * _selectivity(plan.predicate), in_rows)
        if isinstance(plan, PraProject):
            in_rows = children[0].rows
            return charge("project", in_rows, in_rows)
        if isinstance(plan, PraJoin):
            left, right = children[0].rows, children[1].rows
            selectivity = _JOIN_CONDITION_SELECTIVITY ** max(1, len(plan.conditions))
            out = max(1.0, left * right * selectivity) if left and right else 0.0
            return charge("join", out, left + right + out)
        if isinstance(plan, PraUnite):
            total = children[0].rows + children[1].rows
            return charge("unite", total, total)
        if isinstance(plan, PraSubtract):
            total = children[0].rows + children[1].rows
            return charge("subtract", children[0].rows, total)
        if isinstance(plan, PraBayes):
            in_rows = children[0].rows
            return charge("bayes", in_rows, in_rows)
        if isinstance(plan, PraWeight):
            in_rows = children[0].rows
            return charge("weight", in_rows, in_rows)
        if isinstance(plan, PraTop):
            in_rows = children[0].rows
            return charge("top", min(in_rows, float(plan.k)), in_rows)
        rows = children[0].rows if children else self.default_rows
        return charge("other", rows, rows)

    # -- calibration -------------------------------------------------------------

    def calibrate(self, records: Iterable[Any], *, min_samples: int = 8) -> bool:
        """Fit per-kind coefficients from logged ``(cost_units, latency)`` pairs.

        Solves the least-squares system over every record that carries a
        unit vector; returns True if enough samples were present and the
        coefficients were updated.  Fitted values are clamped to a small
        positive floor — a kernel can be fast, never free or negative.
        """
        import numpy as np

        samples = [
            (entry.cost_units, entry.latency_ms)
            for entry in records
            if getattr(entry, "cost_units", None) and entry.status == "ok"
        ]
        if len(samples) < min_samples:
            return False
        kinds = sorted({kind for units, _latency in samples for kind in units})
        if not kinds:
            return False
        matrix = np.array(
            [[units.get(kind, 0.0) for kind in kinds] for units, _latency in samples],
            dtype=np.float64,
        )
        latencies = np.array([latency for _units, latency in samples], dtype=np.float64)
        solution, *_rest = np.linalg.lstsq(matrix, latencies, rcond=None)
        floor = 1e-9
        for kind, value in zip(kinds, solution):
            self.coefficients[kind] = max(float(value), floor)
        self.calibrated_from = len(samples)
        return True

    def describe(self) -> dict[str, Any]:
        return {
            "coefficients": dict(sorted(self.coefficients.items())),
            "calibrated_from": self.calibrated_from,
        }
