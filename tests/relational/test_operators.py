"""Unit tests for logical plan execution (the physical operators)."""

import pytest

from repro.errors import PlanError
from repro.relational.algebra import (
    Aggregate,
    AggregateSpec,
    Distinct,
    Join,
    Limit,
    Project,
    Scan,
    Select,
    Sort,
    SortKey,
    TableFunctionScan,
    Union,
    Values,
)
from repro.relational.column import DataType
from repro.relational.database import Database
from repro.relational.expressions import col, func, lit
from repro.relational.relation import Relation
from repro.relational.schema import Field, Schema


@pytest.fixture
def db():
    database = Database(cache_enabled=False)
    products = Schema(
        [
            Field("id", DataType.INT),
            Field("category", DataType.STRING),
            Field("price", DataType.INT),
        ]
    )
    database.create_table_from_rows(
        "products",
        products,
        [
            (1, "toy", 10),
            (2, "book", 20),
            (3, "toy", 30),
            (4, "game", 40),
            (5, "toy", 50),
        ],
    )
    orders = Schema([Field("order_id", DataType.INT), Field("product_id", DataType.INT)])
    database.create_table_from_rows(
        "orders",
        orders,
        [(100, 1), (101, 1), (102, 3), (103, 9)],
    )
    return database


class TestScanSelectProject:
    def test_scan(self, db):
        result = db.execute(Scan("products"))
        assert result.num_rows == 5

    def test_scan_unknown_table(self, db):
        from repro.errors import CatalogError

        with pytest.raises(CatalogError):
            db.execute(Scan("missing"))

    def test_select(self, db):
        plan = Select(Scan("products"), col("category").eq(lit("toy")))
        result = db.execute(plan)
        assert [row[0] for row in result.rows()] == [1, 3, 5]

    def test_select_on_empty_input(self, db):
        plan = Select(Select(Scan("products"), col("price").gt(lit(1000))), col("price").gt(lit(0)))
        assert db.execute(plan).num_rows == 0

    def test_select_requires_boolean_predicate(self, db):
        plan = Select(Scan("products"), col("price") + lit(1))
        with pytest.raises(PlanError):
            db.execute(plan)

    def test_project_computed_columns(self, db):
        plan = Project(
            Scan("products"),
            [("id", col("id")), ("double_price", col("price") * lit(2))],
        )
        result = db.execute(plan)
        assert result.schema.names == ["id", "double_price"]
        assert result.column("double_price").to_list() == [20, 40, 60, 80, 100]

    def test_project_with_function(self, db):
        plan = Project(Scan("products"), [("cat", func("ucase", col("category")))])
        result = db.execute(plan)
        assert result.column("cat").to_list()[0] == "TOY"


class TestJoin:
    def test_inner_join(self, db):
        plan = Join(Scan("orders"), Scan("products"), [("product_id", "id")])
        result = db.execute(plan)
        assert result.num_rows == 3  # order 103 references a missing product
        assert set(result.schema.names) >= {"order_id", "product_id", "id", "category"}

    def test_inner_join_multiplicity(self, db):
        # product 1 appears in two orders: joining products->orders yields 2 rows for it
        plan = Join(Scan("products"), Scan("orders"), [("id", "product_id")])
        result = db.execute(plan)
        ids = [row[0] for row in result.rows()]
        assert ids.count(1) == 2

    def test_left_join_keeps_unmatched(self, db):
        plan = Join(Scan("orders"), Scan("products"), [("product_id", "id")], how="left")
        result = db.execute(plan)
        assert result.num_rows == 4
        unmatched = [row for row in result.to_dicts() if row["order_id"] == 103]
        assert unmatched[0]["category"] == ""  # null surrogate

    def test_left_join_onto_empty_relation(self, db):
        empty = Select(Scan("products"), col("price").gt(lit(10**6)))
        plan = Join(Scan("orders"), empty, [("product_id", "id")], how="left")
        result = db.execute(plan)
        assert result.num_rows == 4
        assert {(row["id"], row["category"], row["price"]) for row in result.to_dicts()} == {
            (0, "", 0)
        }

    def test_join_name_clash_suffixed(self, db):
        plan = Join(Scan("products"), Scan("products"), [("id", "id")])
        result = db.execute(plan)
        assert "id_right" in result.schema.names
        assert result.num_rows == 5

    def test_join_requires_conditions(self, db):
        with pytest.raises(PlanError):
            db.execute(Join(Scan("orders"), Scan("products"), []))

    def test_unsupported_join_type(self):
        with pytest.raises(PlanError):
            Join(Scan("a"), Scan("b"), [("x", "y")], how="full")


class TestAggregate:
    def test_group_by_count(self, db):
        plan = Aggregate(Scan("products"), ["category"], [AggregateSpec("count", None, "n")])
        result = db.execute(plan)
        counts = {row["category"]: row["n"] for row in result.to_dicts()}
        assert counts == {"toy": 3, "book": 1, "game": 1}

    def test_group_by_sum_avg_min_max(self, db):
        plan = Aggregate(
            Scan("products"),
            ["category"],
            [
                AggregateSpec("sum", "price", "total"),
                AggregateSpec("avg", "price", "mean"),
                AggregateSpec("min", "price", "low"),
                AggregateSpec("max", "price", "high"),
            ],
        )
        rows = {row["category"]: row for row in db.execute(plan).to_dicts()}
        assert rows["toy"]["total"] == 90
        assert rows["toy"]["mean"] == pytest.approx(30.0)
        assert rows["toy"]["low"] == 10
        assert rows["toy"]["high"] == 50

    def test_global_aggregate(self, db):
        plan = Aggregate(Scan("products"), [], [AggregateSpec("count", None, "n")])
        result = db.execute(plan)
        assert result.num_rows == 1
        assert result.to_dicts()[0]["n"] == 5

    def test_sum_requires_input_column(self, db):
        plan = Aggregate(Scan("products"), [], [AggregateSpec("sum", None, "x")])
        with pytest.raises(PlanError):
            db.execute(plan)

    def test_unknown_aggregate_function(self, db):
        plan = Aggregate(Scan("products"), [], [AggregateSpec("median", "price", "x")])
        with pytest.raises(PlanError):
            db.execute(plan)


class TestOtherOperators:
    def test_sort_and_limit(self, db):
        plan = Limit(Sort(Scan("products"), [SortKey("price", ascending=False)]), 2)
        result = db.execute(plan)
        assert [row["price"] for row in result.to_dicts()] == [50, 40]

    def test_distinct(self, db):
        plan = Distinct(Project(Scan("products"), [("category", col("category"))]))
        result = db.execute(plan)
        assert sorted(row[0] for row in result.rows()) == ["book", "game", "toy"]

    def test_union(self, db):
        plan = Union(Scan("products"), Scan("products"))
        assert db.execute(plan).num_rows == 10

    def test_values(self, db):
        relation = Relation.from_rows(Schema.of(x=DataType.INT), [(1,), (2,)])
        assert db.execute(Values(relation, label="inline")).num_rows == 2

    def test_table_function_tokenize(self, db):
        docs = Relation.from_rows(
            Schema.of(docID=DataType.INT, data=DataType.STRING),
            [(1, "hello brave new world"), (2, "hello again")],
        )
        plan = TableFunctionScan(Values(docs, label="docs"), "tokenize")
        result = db.execute(plan)
        assert result.schema.names == ["docID", "token", "pos"]
        assert result.num_rows == 6
        first_doc = [row for row in result.to_dicts() if row["docID"] == 1]
        assert [row["pos"] for row in first_doc] == [0, 1, 2, 3]

    def test_view_resolution(self, db):
        db.create_view("toys", Select(Scan("products"), col("category").eq(lit("toy"))))
        assert db.execute(Scan("toys")).num_rows == 3
