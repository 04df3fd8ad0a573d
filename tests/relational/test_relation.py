"""Unit tests for relations."""

import numpy as np
import pytest

from repro.errors import ColumnError, SchemaError
from repro.relational.column import Column, DataType
from repro.relational.relation import Relation
from repro.relational.schema import Field, Schema


def make_relation():
    schema = Schema(
        [Field("id", DataType.INT), Field("name", DataType.STRING), Field("score", DataType.FLOAT)]
    )
    return Relation.from_rows(
        schema,
        [(1, "alpha", 0.5), (2, "beta", 1.5), (3, "gamma", 2.5), (4, "alpha", 3.5)],
    )


class TestConstruction:
    def test_from_rows(self):
        relation = make_relation()
        assert relation.num_rows == 4
        assert relation.num_columns == 3

    def test_from_dicts(self):
        schema = Schema.of(a=DataType.INT, b=DataType.STRING)
        relation = Relation.from_dicts(schema, [{"a": 1, "b": "x"}, {"a": 2, "b": "y"}])
        assert list(relation.rows()) == [(1, "x"), (2, "y")]

    def test_empty(self):
        relation = Relation.empty(Schema.of(a=DataType.INT))
        assert relation.num_rows == 0

    def test_inconsistent_column_lengths_rejected(self):
        schema = Schema.of(a=DataType.INT, b=DataType.INT)
        with pytest.raises(SchemaError):
            Relation(schema, [Column([1], DataType.INT), Column([1, 2], DataType.INT)])

    def test_schema_column_count_mismatch_rejected(self):
        schema = Schema.of(a=DataType.INT, b=DataType.INT)
        with pytest.raises(SchemaError):
            Relation(schema, [Column([1], DataType.INT)])

    def test_type_mismatch_rejected(self):
        schema = Schema.of(a=DataType.INT)
        with pytest.raises(SchemaError):
            Relation(schema, [Column(["x"], DataType.STRING)])


class TestAccess:
    def test_column_by_name(self):
        relation = make_relation()
        assert relation.column("name").to_list() == ["alpha", "beta", "gamma", "alpha"]

    def test_column_at_position(self):
        relation = make_relation()
        assert relation.column_at(0).to_list() == [1, 2, 3, 4]

    def test_column_at_out_of_range(self):
        with pytest.raises(ColumnError):
            make_relation().column_at(10)

    def test_row_and_rows(self):
        relation = make_relation()
        assert relation.row(1) == (2, "beta", 1.5)
        assert len(list(relation.rows())) == 4

    def test_to_dicts(self):
        relation = make_relation()
        dicts = relation.to_dicts()
        assert dicts[0] == {"id": 1, "name": "alpha", "score": 0.5}

    def test_equality(self):
        assert make_relation() == make_relation()
        assert make_relation() != make_relation().head(2)


class TestManipulation:
    def test_filter(self):
        relation = make_relation()
        filtered = relation.filter(np.array([True, False, True, False]))
        assert [row[0] for row in filtered.rows()] == [1, 3]

    def test_take(self):
        relation = make_relation()
        taken = relation.take(np.array([3, 0]))
        assert [row[0] for row in taken.rows()] == [4, 1]

    def test_slice_and_head(self):
        relation = make_relation()
        assert relation.slice(1, 3).num_rows == 2
        assert relation.head(2).num_rows == 2
        assert relation.head(100).num_rows == 4

    def test_select_columns(self):
        relation = make_relation().select_columns(["score", "id"])
        assert relation.schema.names == ["score", "id"]
        assert relation.row(0) == (0.5, 1)

    def test_rename(self):
        relation = make_relation().rename({"id": "identifier"})
        assert "identifier" in relation.schema
        assert "id" not in relation.schema

    def test_with_column_appends(self):
        relation = make_relation().with_column("flag", Column([True] * 4, DataType.BOOL))
        assert relation.schema.names[-1] == "flag"
        assert relation.column("flag").to_list() == [True] * 4

    def test_with_column_replaces(self):
        relation = make_relation().with_column("score", Column([1, 2, 3, 4], DataType.INT))
        assert relation.schema.dtype_of("score") is DataType.INT

    def test_with_column_wrong_length(self):
        with pytest.raises(SchemaError):
            make_relation().with_column("x", Column([1], DataType.INT))

    def test_without_column(self):
        relation = make_relation().without_column("name")
        assert relation.schema.names == ["id", "score"]

    def test_without_unknown_column(self):
        with pytest.raises(ColumnError):
            make_relation().without_column("missing")

    def test_concat(self):
        relation = make_relation()
        combined = relation.concat(relation)
        assert combined.num_rows == 8

    def test_concat_incompatible(self):
        other = Relation.from_rows(Schema.of(x=DataType.STRING), [("a",)])
        with pytest.raises(SchemaError):
            make_relation().concat(other)

    def test_sort_by_single_key(self):
        relation = make_relation().sort_by([("score", False)])
        assert [row[2] for row in relation.rows()] == [3.5, 2.5, 1.5, 0.5]

    def test_sort_by_multiple_keys(self):
        relation = make_relation().sort_by([("name", True), ("score", False)])
        rows = list(relation.rows())
        assert [row[1] for row in rows] == ["alpha", "alpha", "beta", "gamma"]
        # within 'alpha', higher score first
        assert rows[0][2] == 3.5 and rows[1][2] == 0.5

    def test_sort_string_column(self):
        relation = make_relation().sort_by([("name", True)])
        names = [row[1] for row in relation.rows()]
        assert names == sorted(names)

    def test_sort_empty_relation(self):
        empty = Relation.empty(Schema.of(a=DataType.INT))
        assert empty.sort_by([("a", True)]).num_rows == 0

    def test_distinct(self):
        schema = Schema.of(a=DataType.INT)
        relation = Relation.from_rows(schema, [(1,), (2,), (1,), (3,), (2,)])
        assert [row[0] for row in relation.distinct().rows()] == [1, 2, 3]

    def test_to_text_renders_all_columns(self):
        text = make_relation().to_text()
        assert "id" in text and "name" in text and "alpha" in text

    def test_to_text_truncates(self):
        text = make_relation().to_text(max_rows=2)
        assert "more rows" in text
