"""The cost model: estimation, calibration, and the explain surface."""

from __future__ import annotations

import pytest

from repro.engine import Engine
from repro.pra.assumptions import Assumption
from repro.pra.expressions import PositionalRef
from repro.pra.plan import PraScan, PraSelect, PraTop, PraUnite, PraWeight
from repro.relational.expressions import BinaryOp, Literal
from repro.workload.cost import DEFAULT_UNKNOWN_ROWS, CostModel
from repro.workload.log import WorkloadRecord

TRIPLES = [
    ("lot1", "type", "lot"),
    ("lot2", "type", "lot"),
    ("lot1", "hasAuction", "auction1"),
    ("lot2", "hasAuction", "auction2"),
    ("lot1", "material", "oak", 0.9),
]

TRAVERSE = "auctions = TRAVERSE ['hasAuction'] (seeds);"


def predicate(position, value):
    return BinaryOp("=", PositionalRef(position), Literal(value))


@pytest.fixture
def engine():
    return Engine.from_triples(TRIPLES)


class TestEstimation:
    def test_scan_uses_catalog_cardinality(self):
        model = CostModel()
        estimate = model.estimate(PraScan("triples"), lambda name: 500.0)
        assert estimate.output_rows == 500.0
        assert estimate.per_kind_units == {"scan": 500.0}
        assert estimate.estimated_ms > 0

    def test_unknown_cardinality_falls_back_to_default(self):
        model = CostModel()
        estimate = model.estimate(PraScan("lazy"), lambda name: None)
        assert estimate.output_rows == DEFAULT_UNKNOWN_ROWS

    def test_selection_reduces_estimated_rows(self):
        model = CostModel()
        plan = PraSelect(PraScan("triples"), predicate(2, "material"))
        estimate = model.estimate(plan, lambda name: 100.0)
        assert estimate.output_rows < 100.0
        assert estimate.per_kind_units["select"] == 100.0  # work = input rows

    def test_top_caps_output_rows(self):
        model = CostModel()
        plan = PraTop(PraScan("triples"), 5)
        estimate = model.estimate(plan, lambda name: 100.0)
        assert estimate.output_rows == 5.0

    def test_estimate_is_deterministic(self):
        model = CostModel()
        plan = PraUnite(
            PraScan("a"), PraWeight(PraScan("b"), 0.5), Assumption.INDEPENDENT
        )
        first = model.estimate(plan, lambda name: 50.0)
        second = model.estimate(plan, lambda name: 50.0)
        assert first.to_dict() == second.to_dict()


class TestCalibration:
    def _records(self, coefficient_ms_per_row: float, n: int = 20):
        return [
            WorkloadRecord(
                seq=index,
                kind="plan",
                fingerprint="plan::x",
                latency_ms=coefficient_ms_per_row * rows,
                cost_units={"scan": float(rows)},
            )
            for index, rows in enumerate(range(10, 10 + n))
        ]

    def test_calibrate_recovers_linear_coefficient(self):
        model = CostModel()
        assert model.calibrate(self._records(0.004)) is True
        assert model.coefficients["scan"] == pytest.approx(0.004, rel=1e-6)
        assert model.calibrated_from == 20

    def test_calibrate_needs_min_samples(self):
        model = CostModel()
        before = dict(model.coefficients)
        assert model.calibrate(self._records(0.004, n=3)) is False
        assert model.coefficients == before

    def test_fitted_coefficients_stay_positive(self):
        model = CostModel()
        records = self._records(0.004) + [
            WorkloadRecord(
                seq=100 + i,
                kind="plan",
                fingerprint="plan::y",
                latency_ms=0.0,
                cost_units={"top": 1000.0},
            )
            for i in range(10)
        ]
        assert model.calibrate(records) is True
        assert all(value > 0 for value in model.coefficients.values())

    def test_engine_calibrates_from_its_own_log(self):
        # cache hits skip the executor and log no unit vector, so calibrate
        # from an uncached engine where every execution measures real work
        engine = Engine.from_triples(TRIPLES, result_cache_size=None)
        for _ in range(10):
            engine.spinql(TRAVERSE, seeds=["lot1"]).execute()
        assert engine.calibrate_cost_model(min_samples=5) is True
        assert engine.cost_model.calibrated_from >= 5


class TestSteersNothing:
    def test_coefficients_never_change_the_optimized_plan(self, engine):
        # however the model prices TOP, the optimizer still pushes it
        skewed = Engine.from_triples(
            TRIPLES, cost_model=CostModel({"top": 1e9, "weight": 1e9})
        )
        _, default_plan = engine.spinql(TRAVERSE, seeds=["lot1"]).plans(top_k=2)
        _, skewed_plan = skewed.spinql(TRAVERSE, seeds=["lot1"]).plans(top_k=2)
        assert skewed_plan.fingerprint() == default_plan.fingerprint()


class TestExplainSurface:
    def test_explain_includes_cost_estimate(self, engine):
        report = engine.spinql(TRAVERSE, seeds=["lot1"]).explain()
        assert "Cost estimate:" in report
        assert "estimated:" in report

    def test_explain_data_includes_cost_dict(self, engine):
        data = engine.spinql(TRAVERSE, seeds=["lot1"]).explain_data()
        cost = data["cost"]
        assert cost["estimated_ms"] >= 0
        assert cost["output_rows"] >= 0
        assert isinstance(cost["per_kind_units"], dict)
