"""Unit tests for SQL generation and CSV import/export."""

import io

import pytest

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
from repro.relational.csvio import read_csv, write_csv
from repro.relational.expressions import col, lit
from repro.relational.relation import Relation
from repro.relational.schema import Field, Schema
from repro.relational.sqlgen import to_sql, view_definition


class TestSqlGeneration:
    def test_scan(self):
        assert to_sql(Scan("docs")) == "SELECT * FROM docs"

    def test_select_where_clause(self):
        sql = to_sql(Select(Scan("t"), col("category").eq(lit("toy"))), pretty=False)
        assert "WHERE (category = 'toy')" in sql

    def test_project(self):
        sql = to_sql(Project(Scan("t"), [("x", col("a") * lit(2))]), pretty=False)
        assert "SELECT (a * 2) AS x" in sql

    def test_join(self):
        sql = to_sql(Join(Scan("a"), Scan("b"), [("x", "y")]), pretty=False)
        assert "JOIN" in sql and "l.x = r.y" in sql

    def test_left_join(self):
        sql = to_sql(Join(Scan("a"), Scan("b"), [("x", "y")], how="left"), pretty=False)
        assert "LEFT JOIN" in sql

    def test_aggregate_with_group_by(self):
        plan = Aggregate(Scan("t"), ["docID"], [AggregateSpec("count", None, "len")])
        sql = to_sql(plan, pretty=False)
        assert "count(*) AS len" in sql
        assert "GROUP BY docID" in sql

    def test_global_aggregate_has_no_group_by(self):
        plan = Aggregate(Scan("t"), [], [AggregateSpec("avg", "len", "avg_len")])
        sql = to_sql(plan, pretty=False)
        assert "GROUP BY" not in sql

    def test_sort_limit_distinct_union(self):
        assert "ORDER BY score DESC" in to_sql(
            Sort(Scan("t"), [SortKey("score", ascending=False)]), pretty=False
        )
        assert "LIMIT 5" in to_sql(Limit(Scan("t"), 5), pretty=False)
        assert "SELECT DISTINCT" in to_sql(Distinct(Scan("t")), pretty=False)
        assert "UNION ALL" in to_sql(Union(Scan("a"), Scan("b")), pretty=False)

    def test_table_function(self):
        sql = to_sql(TableFunctionScan(Scan("docs"), "tokenize"), pretty=False)
        assert "tokenize((" in sql

    def test_values_rendering(self):
        relation = Relation.from_rows(Schema.of(term=DataType.STRING), [("book",), ("cake",)])
        sql = to_sql(Values(relation, label="query"), pretty=False)
        assert "VALUES ('book'), ('cake')" in sql

    def test_view_definition(self):
        text = view_definition("docs", Scan("raw"))
        assert text.startswith("CREATE VIEW docs AS")
        assert text.endswith(";")


class TestCsvIO:
    def test_roundtrip_via_string_buffers(self):
        schema = Schema(
            [
                Field("id", DataType.INT),
                Field("name", DataType.STRING),
                Field("score", DataType.FLOAT),
            ]
        )
        relation = Relation.from_rows(schema, [(1, "a", 0.5), (2, "b", 1.5)])
        buffer = io.StringIO()
        write_csv(relation, buffer)
        buffer.seek(0)
        loaded = read_csv(buffer, schema)
        assert loaded == relation

    def test_read_without_header(self):
        schema = Schema.of(a=DataType.INT, b=DataType.STRING)
        buffer = io.StringIO("1,x\n2,y\n")
        relation = read_csv(buffer, schema, has_header=False)
        assert relation.num_rows == 2

    def test_header_arity_mismatch(self):
        from repro.errors import SchemaError

        schema = Schema.of(a=DataType.INT)
        buffer = io.StringIO("a,b\n1,2\n")
        with pytest.raises(SchemaError):
            read_csv(buffer, schema)

    def test_bool_parsing(self):
        schema = Schema.of(flag=DataType.BOOL)
        buffer = io.StringIO("flag\ntrue\n0\nYES\n")
        relation = read_csv(buffer, schema)
        assert relation.column("flag").to_list() == [True, False, True]

    def test_file_roundtrip(self, tmp_path):
        schema = Schema.of(a=DataType.INT, b=DataType.STRING)
        relation = Relation.from_rows(schema, [(1, "hello"), (2, "world")])
        path = tmp_path / "data.csv"
        write_csv(relation, path)
        loaded = read_csv(path, schema)
        assert loaded == relation
