"""Property-based tests for the relational engine (hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational.algebra import (
    Aggregate,
    AggregateSpec,
    Distinct,
    Join,
    Limit,
    Scan,
    Select,
    Sort,
    SortKey,
    Values,
)
from repro.relational.column import DataType
from repro.relational.database import Database
from repro.relational.expressions import col, lit
from repro.relational.relation import Relation
from repro.relational.schema import Field, Schema

ROW_STRATEGY = st.tuples(
    st.integers(min_value=0, max_value=20),
    st.sampled_from(["toy", "book", "game", "tool"]),
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False, allow_infinity=False),
)

SCHEMA = Schema(
    [Field("id", DataType.INT), Field("category", DataType.STRING), Field("value", DataType.FLOAT)]
)


def make_database(rows):
    database = Database(cache_enabled=False)
    database.create_table("items", Relation.from_rows(SCHEMA, rows))
    return database


@settings(max_examples=40, deadline=None)
@given(st.lists(ROW_STRATEGY, min_size=0, max_size=40))
def test_selection_partitions_rows(rows):
    """Selecting P and NOT P partitions the relation (no rows lost or invented)."""
    database = make_database(rows)
    toys = database.execute(Select(Scan("items"), col("category").eq(lit("toy"))))
    others = database.execute(Select(Scan("items"), col("category").ne(lit("toy"))))
    assert toys.num_rows + others.num_rows == len(rows)
    assert all(row[1] == "toy" for row in toys.rows())
    assert all(row[1] != "toy" for row in others.rows())


@settings(max_examples=40, deadline=None)
@given(st.lists(ROW_STRATEGY, min_size=0, max_size=40))
def test_distinct_is_idempotent_and_bounded(rows):
    database = make_database(rows)
    once = database.execute(Distinct(Scan("items")))
    twice = once.distinct()
    assert once.num_rows == twice.num_rows
    assert once.num_rows <= len(rows)
    assert len(set(once.rows())) == once.num_rows


@settings(max_examples=40, deadline=None)
@given(st.lists(ROW_STRATEGY, min_size=0, max_size=40), st.integers(min_value=0, max_value=50))
def test_limit_never_exceeds_count(rows, count):
    database = make_database(rows)
    limited = database.execute(Limit(Scan("items"), count))
    assert limited.num_rows == min(count, len(rows))


@settings(max_examples=40, deadline=None)
@given(st.lists(ROW_STRATEGY, min_size=1, max_size=40))
def test_sort_produces_ordered_permutation(rows):
    database = make_database(rows)
    ordered = database.execute(Sort(Scan("items"), [SortKey("value", ascending=True)]))
    values = [row[2] for row in ordered.rows()]
    assert values == sorted(values)
    assert sorted(ordered.rows()) == sorted(database.table("items").rows())


@settings(max_examples=40, deadline=None)
@given(st.lists(ROW_STRATEGY, min_size=0, max_size=30))
def test_group_by_counts_sum_to_total(rows):
    database = make_database(rows)
    counts = database.execute(
        Aggregate(Scan("items"), ["category"], [AggregateSpec("count", None, "n")])
    )
    assert sum(row["n"] for row in counts.to_dicts()) == len(rows)
    assert counts.num_rows == len({row[1] for row in rows})


@settings(max_examples=30, deadline=None)
@given(
    st.lists(ROW_STRATEGY, min_size=0, max_size=25),
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=20), st.text(min_size=1, max_size=3)),
        max_size=25,
    ),
)
def test_join_matches_nested_loop_semantics(rows, right_rows):
    """The hash join must agree with a naive nested-loop join."""
    database = make_database(rows)
    right_schema = Schema([Field("ref", DataType.INT), Field("tag", DataType.STRING)])
    right_relation = Relation.from_rows(right_schema, right_rows)
    joined = database.execute(
        Join(Scan("items"), Values(right_relation, label="r"), [("id", "ref")])
    )
    expected = 0
    for row in rows:
        expected += sum(1 for other in right_rows if other[0] == row[0])
    assert joined.num_rows == expected


@settings(max_examples=40, deadline=None)
@given(st.lists(ROW_STRATEGY, min_size=0, max_size=40))
def test_cache_returns_identical_relation(rows):
    database = Database(cache_enabled=True)
    database.create_table("items", Relation.from_rows(SCHEMA, rows))
    plan = Select(Scan("items"), col("category").eq(lit("toy")))
    first = database.execute(plan)
    second = database.execute(plan)
    assert first == second
