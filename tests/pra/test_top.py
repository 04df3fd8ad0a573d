"""The rank-aware TOP kernel: partial sort, deterministic tie-breaking.

Regression coverage for the nondeterministic-tie-break bug: equal-probability
rows used to keep whatever intermediate order evaluation produced, so two
equivalent plans could rank them differently.  Ranked results now break ties
by the value columns, and ``top(k)`` is exactly a deterministic full sort
followed by a slice — computed with ``np.argpartition``, ties at the k-th
boundary included.
"""

import pytest

from repro.pra import operators as ops
from repro.pra.evaluator import PRAEvaluator
from repro.pra.plan import PraTop, PraValues
from repro.pra.relation import ProbabilisticRelation
from repro.errors import PRAError
from repro.relational.column import DataType
from repro.relational.database import Database
from repro.relational.relation import Relation
from repro.relational.schema import Field, Schema

SCHEMA = Schema([Field("node", DataType.STRING), Field("p", DataType.FLOAT)])


def prob_relation(rows):
    return ProbabilisticRelation(Relation.from_rows(SCHEMA, rows))


class TestTopKernel:
    def test_top_equals_sort_then_slice(self):
        relation = prob_relation(
            [("d", 0.4), ("a", 0.9), ("c", 0.4), ("b", 0.9), ("e", 0.1)]
        )
        for k in range(7):
            expected = relation.sorted_by_probability().relation.head(k)
            assert list(relation.top(k).rows()) == list(expected.rows())

    def test_ties_at_the_boundary_are_kept_deterministically(self):
        relation = prob_relation([("c", 0.5), ("a", 0.5), ("b", 0.5), ("d", 0.5)])
        assert relation.top(2).value_rows() == [("a",), ("b",)]

    def test_tie_break_is_independent_of_input_order(self):
        rows = [("c", 0.5), ("a", 0.5), ("b", 0.7)]
        forward = prob_relation(rows)
        backward = prob_relation(list(reversed(rows)))
        assert list(forward.top(3).rows()) == list(backward.top(3).rows())
        assert forward.top(3).value_rows() == [("b",), ("a",), ("c",)]

    def test_top_zero_and_oversized_k(self):
        relation = prob_relation([("a", 0.3), ("b", 0.6)])
        assert relation.top(0).num_rows == 0
        assert relation.top(10).value_rows() == [("b",), ("a",)]

    def test_empty_relation(self):
        relation = prob_relation([])
        assert relation.top(3).num_rows == 0

    def test_a_sorted_relation_is_not_sorted_again(self, monkeypatch):
        relation = prob_relation(
            [("d", 0.4), ("a", 0.9), ("c", 0.4), ("b", 0.9), ("e", 0.1), ("f", 0.4)]
        )
        ranked = relation.sorted_by_probability()
        expected = {k: list(relation.top(k).rows()) for k in range(8)}

        def no_sort(self, keys):
            raise AssertionError("a sorted relation was sorted again")

        monkeypatch.setattr(Relation, "sort_by", no_sort)
        for k in range(8):
            assert list(ranked.top(k).rows()) == expected[k]

    def test_operator_rejects_negative_k(self):
        with pytest.raises(PRAError, match="non-negative"):
            ops.top(prob_relation([("a", 0.5)]), -1)

    def test_evaluator_runs_top_plans(self):
        plan = PraTop(
            PraValues(prob_relation([("a", 0.2), ("b", 0.8), ("c", 0.5)])), 2
        )
        result = PRAEvaluator(Database()).evaluate(plan)
        assert result.value_rows() == [("b",), ("c",)]


class TestSortedByProbability:
    def test_ties_sorted_by_value_columns(self):
        relation = prob_relation([("z", 0.5), ("m", 0.9), ("a", 0.5)])
        assert relation.sorted_by_probability().value_rows() == [
            ("m",),
            ("a",),
            ("z",),
        ]

    def test_tie_break_can_be_disabled(self):
        relation = prob_relation([("z", 0.5), ("a", 0.5)])
        stable = relation.sorted_by_probability(tie_break=False)
        assert stable.value_rows() == [("z",), ("a",)]  # input order preserved

    def test_ascending_order(self):
        relation = prob_relation([("a", 0.9), ("b", 0.1)])
        ascending = relation.sorted_by_probability(descending=False)
        assert ascending.value_rows() == [("b",), ("a",)]

    def test_sorting_a_sorted_relation_again_returns_it(self):
        relation = prob_relation([("z", 0.5), ("m", 0.9), ("a", 0.5), ("q", 0.1)])
        for descending in (True, False):
            for tie_break in (True, False):
                once = relation.sorted_by_probability(descending=descending, tie_break=tie_break)
                twice = once.sorted_by_probability(descending=descending, tie_break=tie_break)
                assert twice is once
                assert list(twice.rows()) == list(once.rows())
        # another order is a real sort, not the remembered one
        descending = relation.sorted_by_probability()
        ascending = descending.sorted_by_probability(descending=False)
        assert ascending is not descending
        assert ascending.value_rows() == [("q",), ("a",), ("z",), ("m",)]
        assert relation.sorted_by_probability() is not relation

    @pytest.mark.parametrize(
        "dtype, rows, expected",
        [
            # an object column mixing str and int breaks ties by the str forms
            (
                DataType.STRING,
                [("b", 0.5), (10, 0.5), ("a", 0.9), (2, 0.5), ("1", 0.25)],
                [("a",), (10,), (2,), ("b",), ("1",)],
            ),
            # NaN sorts after every number
            (
                DataType.FLOAT,
                [(2.0, 0.5), (float("nan"), 0.5), (1.0, 0.5), (0.5, 0.9)],
                [(0.5,), (1.0,), (2.0,), (float("nan"),)],
            ),
        ],
    )
    def test_values_np_unique_cannot_order_still_break_ties(self, dtype, rows, expected):
        schema = Schema([Field("node", dtype), Field("p", DataType.FLOAT)])
        relation = ProbabilisticRelation(Relation.from_rows(schema, rows))
        ranked = relation.sorted_by_probability()
        assert repr(ranked.value_rows()) == repr(expected)
        assert ranked.schema == relation.schema
