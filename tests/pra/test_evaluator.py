"""Unit tests for PRA plan construction and evaluation."""

import pytest

from repro.errors import PRAError
from repro.ir.ranking import BM25Model
from repro.pra.assumptions import Assumption
from repro.pra.evaluator import PRAEvaluator
from repro.pra.expressions import PositionalRef, positional
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
from repro.pra.relation import ProbabilisticRelation
from repro.relational.column import DataType
from repro.relational.database import Database
from repro.relational.expressions import Literal
from repro.relational.schema import Field, Schema


@pytest.fixture
def db():
    database = Database()
    schema = Schema(
        [
            Field("subject", DataType.STRING),
            Field("property", DataType.STRING),
            Field("object", DataType.STRING),
        ]
    )
    database.create_table_from_rows(
        "triples",
        schema,
        [
            ("product1", "category", "toy"),
            ("product1", "description", "wooden train set"),
            ("product2", "category", "book"),
            ("product2", "description", "history of trains"),
            ("product3", "category", "toy"),
            ("product3", "description", "plastic toy car"),
        ],
    )
    prob_schema = Schema(
        [Field("node", DataType.STRING), Field("p", DataType.FLOAT)]
    )
    database.create_table_from_rows(
        "ranked_nodes", prob_schema, [("product1", 0.8), ("product3", 0.4)]
    )
    return database


@pytest.fixture
def evaluator(db):
    return PRAEvaluator(db)


class TestScansAndValues:
    def test_scan_lifts_plain_tables(self, evaluator):
        result = evaluator.evaluate(PraScan("triples"))
        assert result.schema.names[-1] == "p"
        assert set(result.probabilities()) == {1.0}

    def test_scan_preserves_existing_probabilities(self, evaluator):
        result = evaluator.evaluate(PraScan("ranked_nodes"))
        assert sorted(result.probabilities()) == pytest.approx([0.4, 0.8])

    def test_values_node(self, evaluator):
        relation = ProbabilisticRelation.from_rows(
            ["node"], [DataType.STRING], [("x", 0.5)]
        )
        result = evaluator.evaluate(PraValues(relation, label="inline"))
        assert result.num_rows == 1


class TestOperatorsThroughPlans:
    def test_select_project_join(self, evaluator):
        """The paper's docs view: toy products joined with their descriptions."""
        plan = PraProject(
            PraJoin(
                PraSelect(
                    PraScan("triples"),
                    PositionalRef(2).eq(Literal("category")).and_(
                        PositionalRef(3).eq(Literal("toy"))
                    ),
                ),
                PraSelect(PraScan("triples"), PositionalRef(2).eq(Literal("description"))),
                [(1, 1)],
            ),
            [1, 6],
            output_names=["docID", "data"],
        )
        result = evaluator.evaluate(plan)
        docs = dict(
            zip(
                result.relation.column("docID").to_list(),
                result.relation.column("data").to_list(),
            )
        )
        assert docs == {
            "product1": "wooden train set",
            "product3": "plastic toy car",
        }
        assert list(result.probabilities()) == pytest.approx([1.0, 1.0])

    def test_weight_and_unite(self, evaluator):
        left = PraWeight(PraScan("ranked_nodes"), 0.5)
        right = PraWeight(PraScan("ranked_nodes"), 0.5)
        plan = PraUnite(left, right, Assumption.DISJOINT)
        result = evaluator.evaluate(plan)
        values = dict(zip(result.relation.column("node").to_list(), result.probabilities()))
        assert values["product1"] == pytest.approx(0.8)
        assert values["product3"] == pytest.approx(0.4)

    def test_subtract(self, evaluator):
        plan = PraSubtract(PraScan("ranked_nodes"), PraScan("ranked_nodes"))
        result = evaluator.evaluate(plan)
        values = dict(zip(result.relation.column("node").to_list(), result.probabilities()))
        assert values["product1"] == pytest.approx(0.8 * 0.2)

    def test_bayes(self, evaluator):
        plan = PraBayes(PraScan("ranked_nodes"), [])
        result = evaluator.evaluate(plan)
        assert sum(result.probabilities()) == pytest.approx(1.0)

    def test_positional_out_of_range(self, evaluator):
        plan = PraProject(PraScan("ranked_nodes"), [5])
        with pytest.raises(PRAError):
            evaluator.evaluate(plan)

    def test_unknown_node_type(self, evaluator):
        class FakePlan:
            pass

        with pytest.raises(PRAError):
            evaluator.evaluate(FakePlan())


#: one node of every PRA plan type
EVERY_NODE_TYPE = [
    PraScan("t"),
    PraParam("bound"),
    PraValues(ProbabilisticRelation.from_rows(["x"], [DataType.STRING], [("a", 0.5)])),
    PraSelect(PraScan("t"), PositionalRef(1).eq(Literal("a"))),
    PraProject(PraScan("t"), [2, 1], Assumption.DISJOINT, ["b", "a"]),
    PraJoin(PraScan("a"), PraScan("b"), [(1, 2)], Assumption.SUBSUMED),
    PraUnite(PraScan("a"), PraParam("b"), Assumption.SUBSUMED),
    PraSubtract(PraScan("a"), PraScan("b")),
    PraBayes(PraScan("t"), [2]),
    PraWeight(PraScan("t"), 0.25),
    PraTop(PraScan("t"), 3),
    PraRank(PraScan("docs"), "query", BM25Model(), "english", 5),
]


class TestPlanIntrospection:
    def test_describe_mentions_operators(self):
        plan = PraProject(
            PraJoin(PraScan("a"), PraScan("b"), [(1, 1)]),
            [1],
            Assumption.INDEPENDENT,
        )
        description = plan.describe()
        assert "PROJECT" in description
        assert "JOIN" in description
        assert "Scan(a)" in description

    def test_fingerprints_distinguish_plans(self):
        first = PraSelect(PraScan("t"), PositionalRef(1).eq(Literal("a")))
        second = PraSelect(PraScan("t"), PositionalRef(1).eq(Literal("b")))
        assert first.fingerprint() != second.fingerprint()

    @pytest.mark.parametrize("plan", EVERY_NODE_TYPE, ids=lambda plan: type(plan).__name__)
    def test_with_children_rebuilds_an_equal_node(self, plan):
        rebuilt = plan.with_children(plan.children())
        assert type(rebuilt) is type(plan)
        assert rebuilt.fingerprint() == plan.fingerprint()
        assert rebuilt.describe() == plan.describe()
        if not plan.children():
            with pytest.raises(PRAError):
                plan.with_children([PraScan("x")])

    def test_every_node_type_is_covered(self):
        assert {type(plan) for plan in EVERY_NODE_TYPE} == set(PraPlan.__subclasses__())

    def test_projection_requires_positions(self):
        with pytest.raises(PRAError):
            PraProject(PraScan("t"), [])

    def test_join_requires_conditions(self):
        with pytest.raises(PRAError):
            PraJoin(PraScan("a"), PraScan("b"), [])


class TestPositionalExpressions:
    def test_positional_shorthand(self):
        ref = positional(2)
        assert ref.position == 2
        assert ref.to_sql() == "$2"

    def test_positional_must_be_one_based(self):
        from repro.errors import ExpressionError

        with pytest.raises(ExpressionError):
            PositionalRef(0)

    def test_positional_skips_probability_column(self, db):
        relation = db.table("ranked_nodes")
        ref = PositionalRef(1)
        column = ref.evaluate(relation, db.functions)
        assert column.to_list() == ["product1", "product3"]

    def test_positional_out_of_range_error(self, db):
        from repro.errors import ExpressionError

        relation = db.table("ranked_nodes")
        with pytest.raises(ExpressionError):
            PositionalRef(3).evaluate(relation, db.functions)
