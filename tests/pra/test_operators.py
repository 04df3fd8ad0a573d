"""Unit tests for the probabilistic relational algebra operators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PRAError, ProbabilityError
from repro.pra import operators as ops
from repro.pra.assumptions import Assumption
from repro.pra.expressions import PositionalRef
from repro.pra.relation import ProbabilisticRelation
from repro.relational.column import Column, DataType
from repro.relational.expressions import col, lit
from repro.relational.functions import default_registry
from repro.relational.relation import Relation
from repro.relational.schema import Field, Schema
from tests.reference_kernels import bayes_rows, project_merge_rows, string_columns, unite_rows


def prob_relation(columns, rows):
    fields = [Field(name, dtype) for name, dtype in columns]
    fields.append(Field("p", DataType.FLOAT))
    return ProbabilisticRelation(Relation.from_rows(Schema(fields), rows))


NAN = float("nan")

#: value tuples np.unique cannot order: a NaN float key and an object column
#: mixing str, int and float ("1" is not 1, 1 is 1.0, NaN equals nothing)
NON_ORDERABLE = {
    "nan key": prob_relation(
        [("k", DataType.FLOAT), ("tag", DataType.STRING)],
        [
            (NAN, "t", 0.5),
            (1.0, "t", 0.25),
            (NAN, "t", 0.375),
            (1.0, "u", 0.1),
            (1.0, "t", 0.3),
            (-0.0, "t", 0.2),
            (0.0, "t", 0.7),
        ],
    ),
    "mixed str and int": prob_relation(
        [("k", DataType.STRING), ("tag", DataType.STRING)],
        [
            ("1", "t", 0.5),
            (1, "t", 0.25),
            ("a", "u", 0.375),
            (1.0, "t", 0.1),
            ("1", "t", 0.3),
            (2, "u", 0.2),
            ("a", "u", 0.7),
        ],
    ),
}


def assert_same_rows(actual, expected, rtol=0.0):
    """Same schema, value rows and row order (NaN equal to NaN, 1 told from
    1.0); probabilities equal, or within ``rtol`` for reassociated folds."""
    assert actual.schema == expected.schema
    assert repr(actual.value_rows()) == repr(expected.value_rows())
    if rtol:
        np.testing.assert_allclose(actual.probabilities(), expected.probabilities(), rtol=rtol)
    else:
        assert actual.probabilities().tolist() == expected.probabilities().tolist()


@pytest.fixture
def functions():
    return default_registry()


@pytest.fixture
def triples():
    return prob_relation(
        [("subject", DataType.STRING), ("property", DataType.STRING), ("object", DataType.STRING)],
        [
            ("p1", "category", "toy", 1.0),
            ("p1", "description", "wooden train", 0.9),
            ("p2", "category", "book", 1.0),
            ("p2", "description", "train history", 0.8),
        ],
    )


class TestSelect:
    def test_keeps_probabilities(self, triples, functions):
        result = ops.select(triples, col("property").eq(lit("description")), functions)
        assert result.num_rows == 2
        assert list(result.probabilities()) == pytest.approx([0.9, 0.8])

    def test_positional_predicate(self, triples, functions):
        predicate = PositionalRef(2).eq(lit("category"))
        result = ops.select(triples, predicate, functions)
        assert result.num_rows == 2

    def test_non_boolean_predicate_rejected(self, triples, functions):
        with pytest.raises(PRAError):
            ops.select(triples, col("subject"), functions)

    def test_empty_input(self, functions):
        empty = prob_relation([("x", DataType.STRING)], [])
        assert ops.select(empty, col("x").eq(lit("a")), functions).num_rows == 0


class TestProject:
    def test_duplicate_merging_independent(self):
        relation = prob_relation(
            [("node", DataType.STRING), ("extra", DataType.STRING)],
            [("a", "x", 0.5), ("a", "y", 0.5), ("b", "z", 0.3)],
        )
        result = ops.project(relation, ["node"], Assumption.INDEPENDENT)
        values = dict(zip(result.relation.column("node").to_list(), result.probabilities()))
        assert values["a"] == pytest.approx(0.75)
        assert values["b"] == pytest.approx(0.3)

    def test_duplicate_merging_disjoint(self):
        relation = prob_relation(
            [("node", DataType.STRING), ("extra", DataType.STRING)],
            [("a", "x", 0.5), ("a", "y", 0.4)],
        )
        result = ops.project(relation, ["node"], Assumption.DISJOINT)
        assert result.probabilities()[0] == pytest.approx(0.9)

    def test_output_renaming(self, triples):
        result = ops.project(
            triples, ["subject", "object"], output_names=["docID", "data"]
        )
        assert result.value_columns == ["docID", "data"]

    def test_projection_of_probability_column_rejected(self, triples):
        with pytest.raises(PRAError):
            ops.project(triples, ["p"])

    def test_output_names_length_mismatch(self, triples):
        with pytest.raises(PRAError):
            ops.project(triples, ["subject"], output_names=["a", "b"])

    @pytest.mark.parametrize("assumption", list(Assumption))
    @pytest.mark.parametrize("columns", [["k"], ["k", "tag"], ["tag", "k"]])
    @pytest.mark.parametrize("case", sorted(NON_ORDERABLE))
    def test_non_orderable_values_agree_with_reference(self, case, columns, assumption):
        relation = NON_ORDERABLE[case]
        result = ops.project(relation, columns, assumption)
        reference = project_merge_rows(
            relation.relation.select_columns(columns), relation.probabilities(), assumption
        )
        # the merge is a segmented fold now, as for every orderable input
        assert_same_rows(result, reference, rtol=1e-12)


class TestJoin:
    def test_independent_join_multiplies(self, triples):
        categories = prob_relation(
            [("subject", DataType.STRING)], [("p1", 0.5), ("p2", 1.0)]
        )
        result = ops.join(categories, triples, [("subject", "subject")])
        for row in result.relation.to_dicts():
            assert 0 < row["p"] <= 1.0
        p1_rows = [row for row in result.relation.to_dicts() if row["subject"] == "p1"]
        assert any(row["p"] == pytest.approx(0.5 * 0.9) for row in p1_rows)

    def test_join_renames_clashing_columns(self, triples):
        result = ops.join(triples, triples, [("subject", "subject")])
        assert "subject_right" in result.schema.names

    def test_subsumed_join_takes_minimum(self):
        left = prob_relation([("k", DataType.STRING)], [("a", 0.3)])
        right = prob_relation([("k", DataType.STRING)], [("a", 0.8)])
        result = ops.join(left, right, [("k", "k")], Assumption.SUBSUMED)
        assert result.probabilities()[0] == pytest.approx(0.3)

    def test_disjoint_join_rejected(self):
        left = prob_relation([("k", DataType.STRING)], [("a", 0.3)])
        with pytest.raises(PRAError):
            ops.join(left, left, [("k", "k")], Assumption.DISJOINT)

    def test_no_matches(self):
        left = prob_relation([("k", DataType.STRING)], [("a", 0.3)])
        right = prob_relation([("k", DataType.STRING)], [("b", 0.8)])
        assert ops.join(left, right, [("k", "k")]).num_rows == 0


class TestUnite:
    def test_union_merges_common_tuples(self):
        left = prob_relation([("node", DataType.STRING)], [("a", 0.5), ("b", 0.2)])
        right = prob_relation([("node", DataType.STRING)], [("a", 0.5), ("c", 0.9)])
        result = ops.unite(left, right, Assumption.INDEPENDENT)
        values = dict(zip(result.relation.column("node").to_list(), result.probabilities()))
        assert values["a"] == pytest.approx(0.75)
        assert values["b"] == pytest.approx(0.2)
        assert values["c"] == pytest.approx(0.9)

    def test_disjoint_union_adds(self):
        left = prob_relation([("node", DataType.STRING)], [("a", 0.4)])
        right = prob_relation([("node", DataType.STRING)], [("a", 0.3)])
        result = ops.unite(left, right, Assumption.DISJOINT)
        assert result.probabilities()[0] == pytest.approx(0.7)

    def test_arity_mismatch_rejected(self):
        left = prob_relation([("node", DataType.STRING)], [("a", 0.4)])
        right = prob_relation(
            [("node", DataType.STRING), ("other", DataType.STRING)], [("a", "x", 0.3)]
        )
        with pytest.raises(PRAError):
            ops.unite(left, right)

    def test_first_occurrence_order_and_left_schema(self):
        left = prob_relation([("node", DataType.STRING)], [("b", 0.5), ("a", 0.25), ("b", 0.5)])
        right = prob_relation([("other", DataType.STRING)], [("c", 0.5), ("a", 0.5), ("c", 0.25)])
        result = ops.unite(left, right, Assumption.DISJOINT)
        assert result.schema.names == ["node", "p"]
        assert list(result.rows()) == [("b", 1.0), ("a", 0.75), ("c", 0.75)]

    @pytest.mark.parametrize("assumption", list(Assumption))
    def test_two_key_columns_agree_with_reference(self, assumption):
        fields = [("node", DataType.STRING), ("rank", DataType.INT)]
        left = prob_relation(
            fields, [("b", 1, 0.5), ("a", 1, 0.25), ("b", 1, 0.125), ("b", 2, 0.5)]
        )
        right = prob_relation(
            fields, [("a", 1, 0.5), ("c", 3, 0.5), ("b", 1, 0.25), ("a", 1, 0.125)]
        )
        result = ops.unite(left, right, assumption)
        reference = unite_rows(left, right, assumption)
        assert repr(list(result.rows())) == repr(list(reference.rows()))
        assert [row[:2] for row in result.rows()] == [("b", 1), ("a", 1), ("b", 2), ("c", 3)]

    @pytest.mark.parametrize(
        "left_rows, right_rows, dtypes",
        [
            # the sides disagree on the column type: only rows can compare them
            ([(1, 0.5), (2, 0.25)], [(1.0, 0.5), (3.0, 0.5)], (DataType.INT, DataType.FLOAT)),
            # NaN keys cannot be factorized and never equal each other
            (
                [(float("nan"), 0.5), (1.0, 0.25)],
                [(float("nan"), 0.5), (1.0, 0.5)],
                (DataType.FLOAT, DataType.FLOAT),
            ),
            # "1" is not 1: the left schema keeps both, as objects
            ([("1", 0.5), ("a", 0.25)], [(1, 0.5), (2, 0.25)], (DataType.STRING, DataType.INT)),
            # a FLOAT left side takes the right's ints; 1.5 is not 1
            ([(1.5, 0.5), (2.0, 0.25)], [(2, 0.5), (1, 0.25)], (DataType.FLOAT, DataType.INT)),
            # an object column mixing str and int on both sides
            (
                [("1", 0.5), (1, 0.25), ("a", 0.125)],
                [(1.0, 0.5), ("a", 0.5), (2, 0.25)],
                (DataType.STRING, DataType.STRING),
            ),
        ],
    )
    def test_row_fallback_agrees_with_reference(self, left_rows, right_rows, dtypes):
        # a second key column, so the NaN case reaches the factorizing kernel
        left = prob_relation(
            [("k", dtypes[0]), ("tag", DataType.STRING)],
            [(key, "t", p) for key, p in left_rows],
        )
        right = prob_relation(
            [("k", dtypes[1]), ("tag", DataType.STRING)],
            [(key, "t", p) for key, p in right_rows],
        )
        result = ops.unite(left, right, Assumption.INDEPENDENT)
        reference = unite_rows(left, right, Assumption.INDEPENDENT)
        assert repr(list(result.rows())) == repr(list(reference.rows()))
        assert result.schema == reference.schema

    @pytest.mark.parametrize("assumption", list(Assumption))
    @pytest.mark.parametrize("case", sorted(NON_ORDERABLE))
    def test_non_orderable_single_column_agrees_with_reference(self, case, assumption):
        relation = NON_ORDERABLE[case]
        left = ops.project(relation, ["k"], Assumption.SUBSUMED)
        right = ProbabilisticRelation(relation.relation.select_columns(["k", "p"]))
        result = ops.unite(left, right, assumption)
        reference = unite_rows(left, right, assumption)
        assert_same_rows(result, reference)

    @pytest.mark.parametrize("assumption", list(Assumption))
    @pytest.mark.parametrize(
        "left_ps, right_ps", [([0.5, 0.25], [0.125]), ([], [0.5, 0.5]), ([0.25], []), ([], [])]
    )
    def test_zero_value_columns_agree_with_reference(self, left_ps, right_ps, assumption):
        # a relation without value columns has no value rows (value_rows() is
        # empty whatever its probability column holds), so neither has a union
        left = prob_relation([], [(p,) for p in left_ps])
        right = prob_relation([], [(p,) for p in right_ps])
        result = ops.unite(left, right, assumption)
        reference = unite_rows(left, right, assumption)
        assert_same_rows(result, reference)
        assert result.num_rows == 0

    def test_empty_sides(self):
        empty = prob_relation([("node", DataType.STRING)], [])
        full = prob_relation([("node", DataType.STRING)], [("a", 0.5)])
        assert ops.unite(empty, empty).num_rows == 0
        assert list(ops.unite(empty, full).rows()) == [("a", 0.5)]
        assert list(ops.unite(full, empty).rows()) == [("a", 0.5)]


class TestSubtract:
    def test_complement_weighting(self):
        left = prob_relation([("node", DataType.STRING)], [("a", 0.8), ("b", 0.5)])
        right = prob_relation([("node", DataType.STRING)], [("a", 0.5)])
        result = ops.subtract(left, right)
        values = dict(zip(result.relation.column("node").to_list(), result.probabilities()))
        assert values["a"] == pytest.approx(0.4)
        assert values["b"] == pytest.approx(0.5)

    def test_arity_mismatch_rejected(self):
        left = prob_relation([("node", DataType.STRING)], [("a", 0.8)])
        right = prob_relation(
            [("node", DataType.STRING), ("x", DataType.STRING)], [("a", "y", 0.5)]
        )
        with pytest.raises(PRAError):
            ops.subtract(left, right)


class TestBayes:
    def test_global_normalisation(self):
        relation = prob_relation([("node", DataType.STRING)], [("a", 0.4), ("b", 0.4)])
        result = ops.bayes(relation, [])
        assert list(result.probabilities()) == pytest.approx([0.5, 0.5])

    def test_per_group_normalisation(self):
        relation = prob_relation(
            [("group", DataType.STRING), ("node", DataType.STRING)],
            [("g1", "a", 0.2), ("g1", "b", 0.2), ("g2", "c", 0.5)],
        )
        result = ops.bayes(relation, ["group"])
        assert list(result.probabilities()) == pytest.approx([0.5, 0.5, 1.0])

    def test_zero_total_group(self):
        relation = prob_relation([("node", DataType.STRING)], [("a", 0.0)])
        assert list(ops.bayes(relation, []).probabilities()) == [0.0]

    def test_empty_relation(self):
        relation = prob_relation([("node", DataType.STRING)], [])
        assert ops.bayes(relation, []).num_rows == 0

    @pytest.mark.parametrize("evidence", [["k"], ["k", "tag"], ["tag", "k"]])
    @pytest.mark.parametrize("case", sorted(NON_ORDERABLE))
    def test_non_orderable_evidence_agrees_with_reference(self, case, evidence):
        relation = NON_ORDERABLE[case]
        result = ops.bayes(relation, evidence)
        reference = bayes_rows(relation, evidence, relation.probabilities())
        assert_same_rows(result, reference)


class TestWeight:
    def test_scaling(self):
        relation = prob_relation([("node", DataType.STRING)], [("a", 0.8)])
        assert ops.weight(relation, 0.5).probabilities()[0] == pytest.approx(0.4)

    def test_weight_outside_unit_interval_rejected(self):
        relation = prob_relation([("node", DataType.STRING)], [("a", 0.8)])
        with pytest.raises(ProbabilityError):
            ops.weight(relation, 1.5)
        with pytest.raises(ProbabilityError):
            ops.weight(relation, -0.1)


NODES = ["a", "ab", "b", "lot1", "lot10", "lot2", "é"]
CODINGS = ["uncoded", "own", "shared"]


def node_relations(sides, coding):
    """``(node, tag, p)`` relations, one per side of ``(node, tag, p)`` rows,
    whose STRING columns are uncoded, coded on their own, or coded against
    one dictionary object shared by every side (holding unused values too)."""
    nodes = string_columns([[row[0] for row in rows] for rows in sides], coding)
    tags = string_columns([[row[1] for row in rows] for rows in sides], coding)
    schema = Schema(
        [Field("node", DataType.STRING), Field("tag", DataType.STRING), Field("p", DataType.FLOAT)]
    )
    return [
        ProbabilisticRelation(
            Relation(schema, [node, tag, Column([row[2] for row in rows], DataType.FLOAT)])
        )
        for node, tag, rows in zip(nodes, tags, sides)
    ]


NODE_ROWS = st.lists(
    st.tuples(
        st.sampled_from(NODES),
        st.sampled_from(["t", "u"]),
        st.sampled_from([0.125, 0.25, 0.5, 0.75, 1.0]),
    ),
    max_size=20,
)


class TestCodedStringInputs:
    """Coded and uncoded STRING inputs give the reference kernels' results."""

    @settings(max_examples=40, deadline=None)
    @given(NODE_ROWS, NODE_ROWS, st.sampled_from(CODINGS), st.sampled_from(list(Assumption)))
    def test_unite_agrees_with_reference(self, left_rows, right_rows, coding, assumption):
        left, right = node_relations([left_rows, right_rows], coding)
        for columns in (["node"], ["node", "tag"]):
            narrowed = [
                ProbabilisticRelation(side.relation.select_columns(columns + ["p"]))
                for side in (left, right)
            ]
            result = ops.unite(*narrowed, assumption)
            assert_same_rows(result, unite_rows(*narrowed, assumption))

    @settings(max_examples=40, deadline=None)
    @given(NODE_ROWS, st.sampled_from(CODINGS), st.sampled_from(list(Assumption)))
    def test_project_agrees_with_reference(self, rows, coding, assumption):
        (relation,) = node_relations([rows], coding)
        for columns in (["node"], ["tag", "node"]):
            result = ops.project(relation, columns, assumption)
            reference = project_merge_rows(
                relation.relation.select_columns(columns), relation.probabilities(), assumption
            )
            assert_same_rows(result, reference, rtol=1e-12)

    def test_union_of_shared_dictionary_keeps_the_codes(self):
        left, right = node_relations(
            [[("b", "t", 0.5), ("a", "t", 0.25)], [("a", "u", 0.5), ("c", "u", 0.5)]], "shared"
        )
        dictionary = left.relation.column("node").factorize()[1]
        united = ops.unite(left, right, Assumption.DISJOINT)
        assert united.relation.column("node").factorize()[1] is dictionary
        assert united.sorted_by_probability().relation.column("node").coded
