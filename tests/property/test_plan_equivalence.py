"""Property-based plan-equivalence harness.

A Hypothesis strategy generates random small PRA plans — every operator,
random assumptions, random predicates — over literal fixture relations, and
asserts the two contracts the rank-aware engine work rests on:

* the optimizer's output evaluates to exactly the same relation as the
  unoptimized plan (rows, probabilities, row identity);
* ``TOP k`` — unoptimized *and* after pushdown — equals the full
  deterministic sort (probability descending, value columns ascending)
  followed by a ``k``-row slice;
* the vectorized ``unite`` kernel equals its row-at-a-time reference bit for
  bit — rows, order, probabilities — under all three assumptions, with
  duplicate keys on both sides and arbitrary (non-dyadic) probabilities.

Probabilities and weight factors are drawn from dyadic rationals so every
product the operators compute is exact in binary floating point: equivalence
failures are genuine rewrite bugs, never float-reassociation noise, and the
deterministic tie-break never flips on a last-ulp difference.

The suite runs with ``derandomize=True`` (a fixed Hypothesis seed) and an
explicit deadline, so CI failures are reproducible.
"""

from __future__ import annotations

from datetime import timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pra import operators as pra_operators
from repro.pra.assumptions import Assumption
from repro.pra.evaluator import PRAEvaluator
from repro.pra.expressions import PositionalRef
from repro.pra.optimizer import optimize_pra
from repro.pra.plan import (
    PraBayes,
    PraJoin,
    PraPlan,
    PraProject,
    PraSelect,
    PraSubtract,
    PraTop,
    PraUnite,
    PraValues,
    PraWeight,
)
from repro.pra.relation import ProbabilisticRelation
from repro.relational.column import DataType
from repro.relational.database import Database
from repro.relational.expressions import BinaryOp, Literal
from repro.relational.relation import Relation
from repro.relational.schema import Field, Schema
from tests.reference_kernels import unite_rows

EVALUATOR = PRAEvaluator(Database())

NODES = ["a", "b", "c", "d", "e"]
#: dyadic probabilities — exactly representable, so operator arithmetic is exact
DYADIC_P = st.sampled_from([i / 16 for i in range(17)])
#: weight factors that keep products exactly representable
WEIGHTS = st.sampled_from([0.25, 0.5, 0.75, 1.0])
#: any probability: combination order shows in the last bit, which is the point
ANY_P = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
ASSUMPTIONS = st.sampled_from(list(Assumption))
UNITE_ASSUMPTIONS = ASSUMPTIONS  # all three, so pushdown-blocking merges are generated

SETTINGS = settings(
    max_examples=250, deadline=timedelta(seconds=5), derandomize=True
)


def _values_leaf(rows: list[tuple], arity: int) -> PraValues:
    fields = [Field(f"c{index}", DataType.STRING) for index in range(arity)]
    fields.append(Field("p", DataType.FLOAT))
    relation = Relation.from_rows(Schema(fields), rows)
    return PraValues(ProbabilisticRelation(relation), label=f"fixture{arity}")


def _draw_leaf(draw, arity: int, probabilities=DYADIC_P, max_size: int = 8) -> PraValues:
    rows = draw(
        st.lists(
            st.tuples(*([st.sampled_from(NODES)] * arity + [probabilities])),
            min_size=0,
            max_size=max_size,
        )
    )
    return _values_leaf(rows, arity)


def _draw_plan(draw, depth: int, arity: int | None = None) -> tuple[PraPlan, int]:
    """Recursively draw a plan; ``arity`` pins the number of value columns."""
    if depth <= 0 or draw(st.integers(0, 3)) == 0:
        if arity is None:
            arity = draw(st.integers(1, 2))
        return _draw_leaf(draw, arity), arity

    # project/join change arity, so they are only drawn when it is free
    choices = ["select", "weight", "top", "bayes", "unite", "subtract"]
    if arity is None:
        choices += ["project", "join"]
    op = draw(st.sampled_from(choices))

    if op == "select":
        child, child_arity = _draw_plan(draw, depth - 1, arity)
        position = draw(st.integers(1, child_arity))
        predicate = BinaryOp(
            "=", PositionalRef(position), Literal(draw(st.sampled_from(NODES)))
        )
        return PraSelect(child, predicate), child_arity
    if op == "weight":
        child, child_arity = _draw_plan(draw, depth - 1, arity)
        return PraWeight(child, draw(WEIGHTS)), child_arity
    if op == "top":
        child, child_arity = _draw_plan(draw, depth - 1, arity)
        return PraTop(child, draw(st.integers(1, 6))), child_arity
    if op == "bayes":
        child, child_arity = _draw_plan(draw, depth - 1, arity)
        evidence = draw(
            st.lists(st.integers(1, child_arity), unique=True, max_size=child_arity)
        )
        return PraBayes(child, evidence), child_arity
    if op == "unite":
        left, child_arity = _draw_plan(draw, depth - 1, arity)
        right, _ = _draw_plan(draw, depth - 1, child_arity)
        return PraUnite(left, right, draw(UNITE_ASSUMPTIONS)), child_arity
    if op == "subtract":
        left, child_arity = _draw_plan(draw, depth - 1, arity)
        right, _ = _draw_plan(draw, depth - 1, child_arity)
        return PraSubtract(left, right), child_arity
    if op == "project":
        child, child_arity = _draw_plan(draw, depth - 1, None)
        positions = draw(
            st.lists(st.integers(1, child_arity), unique=True, min_size=1)
        )
        return (
            PraProject(child, positions, draw(ASSUMPTIONS)),
            len(positions),
        )
    # join
    left, left_arity = _draw_plan(draw, depth - 1, None)
    right, right_arity = _draw_plan(draw, depth - 1, None)
    conditions = [
        (draw(st.integers(1, left_arity)), draw(st.integers(1, right_arity)))
    ]
    return PraJoin(left, right, conditions, Assumption.INDEPENDENT), left_arity + right_arity


@st.composite
def plans(draw) -> tuple[PraPlan, int]:
    return _draw_plan(draw, depth=3)


def _comparable_rows(relation: ProbabilisticRelation) -> list[tuple]:
    """Rows as a canonically sorted list: value columns, then probability."""
    return sorted(
        (tuple(map(str, row[:-1])), float(row[-1])) for row in relation.rows()
    )


def assert_same_relation(actual: ProbabilisticRelation, expected: ProbabilisticRelation):
    left = _comparable_rows(actual)
    right = _comparable_rows(expected)
    assert len(left) == len(right)
    for (lvalues, lp), (rvalues, rp) in zip(left, right):
        assert lvalues == rvalues
        assert lp == pytest.approx(rp, abs=1e-9)


class TestOptimizerEquivalence:
    @SETTINGS
    @given(st.data())
    def test_optimized_plan_evaluates_identically(self, data):
        plan, _ = data.draw(plans())
        original = EVALUATOR.evaluate(plan)
        optimized = EVALUATOR.evaluate(optimize_pra(plan))
        assert_same_relation(optimized, original)

    @SETTINGS
    @given(st.data())
    def test_optimizer_is_idempotent(self, data):
        plan, _ = data.draw(plans())
        once = optimize_pra(plan)
        twice = optimize_pra(once)
        assert twice.fingerprint() == once.fingerprint()


class TestTopEquivalence:
    @SETTINGS
    @given(st.data())
    def test_top_equals_full_sort_then_slice(self, data):
        plan, _ = data.draw(plans())
        k = data.draw(st.integers(1, 6))
        full = EVALUATOR.evaluate(plan)
        expected = ProbabilisticRelation(
            full.sorted_by_probability().relation.head(k), validate=False
        )
        top = EVALUATOR.evaluate(PraTop(plan, k))
        # same evaluation feeds both paths: the partial-sort kernel must match
        # the full sort exactly, ordering and tie-breaking included
        assert list(top.rows()) == list(expected.rows())

    @SETTINGS
    @given(st.data())
    def test_pushed_down_top_equals_full_sort_then_slice(self, data):
        plan, _ = data.draw(plans())
        k = data.draw(st.integers(1, 6))
        full = EVALUATOR.evaluate(plan)
        expected = full.sorted_by_probability().relation.head(k)
        pushed = optimize_pra(PraTop(plan, k))
        result = EVALUATOR.evaluate(pushed)
        assert result.num_rows == min(k, full.num_rows)
        for actual_row, expected_row in zip(result.rows(), expected.rows()):
            assert tuple(actual_row[:-1]) == tuple(expected_row[:-1])
            assert float(actual_row[-1]) == pytest.approx(float(expected_row[-1]), abs=1e-9)


class TestUniteKernel:
    @SETTINGS
    @given(st.data())
    def test_vectorized_unite_equals_row_reference(self, data):
        arity = data.draw(st.integers(1, 2))
        # five node names in up to 16 rows a side: duplicate keys on both sides
        left = _draw_leaf(data.draw, arity, ANY_P, max_size=16).relation
        right = _draw_leaf(data.draw, arity, ANY_P, max_size=16).relation
        assumption = data.draw(ASSUMPTIONS)
        vectorized = pra_operators.unite(left, right, assumption)
        reference = unite_rows(left, right, assumption)
        assert vectorized.schema == reference.schema
        # exact equality: first-occurrence order and the last bit of every fold
        assert list(vectorized.rows()) == list(reference.rows())
