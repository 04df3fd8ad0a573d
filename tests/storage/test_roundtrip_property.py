"""Hypothesis round-trip properties for the columnar snapshot format.

``save → open`` must be *bit-exact* for every dtype — including NaN and
signed-zero floats, empty tables, and unicode strings — and a query on an
opened (memmap-backed) snapshot must equal the same query on the in-memory
original, including tie order.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational.algebra import Aggregate, AggregateSpec, Scan, Select, Sort, SortKey
from repro.relational.column import Column, DataType
from repro.relational.database import Database
from repro.relational.expressions import col, lit
from repro.relational.relation import Relation
from repro.relational.schema import Field, Schema
from repro.storage import open_database, open_relation, save_database, save_relation

_NAMES = st.lists(
    st.text(
        alphabet=st.characters(whitelist_categories=("Ll",), max_codepoint=0x7F),
        min_size=1,
        max_size=8,
    ),
    min_size=1,
    max_size=5,
    unique=True,
)

_DTYPES = st.sampled_from(list(DataType))


def _values_for(dtype: DataType, rows: int) -> st.SearchStrategy[list]:
    if dtype is DataType.INT:
        element = st.integers(min_value=-(2**62), max_value=2**62)
    elif dtype is DataType.FLOAT:
        element = st.floats(allow_nan=True, allow_infinity=True, width=64)
    elif dtype is DataType.BOOL:
        element = st.booleans()
    else:
        element = st.text(max_size=20)
    return st.lists(element, min_size=rows, max_size=rows)


@st.composite
def relations(draw: st.DrawFn) -> Relation:
    names = draw(_NAMES)
    rows = draw(st.integers(min_value=0, max_value=30))
    fields = []
    columns = []
    for name in names:
        dtype = draw(_DTYPES)
        fields.append(Field(name, dtype))
        columns.append(Column(draw(_values_for(dtype, rows)), dtype))
    return Relation(Schema(fields), columns)


def _assert_bit_exact(original: Relation, reopened: Relation) -> None:
    assert reopened.schema == original.schema
    assert reopened.num_rows == original.num_rows
    for field in original.schema:
        left = original.column(field.name)
        right = reopened.column(field.name)
        if field.dtype is DataType.STRING:
            assert right.to_list() == left.to_list()
        else:
            numpy_dtype = field.dtype.numpy_dtype
            left_bytes = left.values.astype(numpy_dtype, copy=False).tobytes()
            right_bytes = right.values.astype(numpy_dtype, copy=False).tobytes()
            assert right_bytes == left_bytes


@settings(max_examples=60, deadline=None)
@given(relations())
def test_save_open_is_bit_exact(tmp_path_factory, relation: Relation) -> None:
    directory = tmp_path_factory.mktemp("roundtrip")
    save_relation(relation, directory / "rel")
    _assert_bit_exact(relation, open_relation(directory / "rel"))


@settings(max_examples=60, deadline=None)
@given(relations())
def test_save_open_without_mmap_is_bit_exact(tmp_path_factory, relation: Relation) -> None:
    directory = tmp_path_factory.mktemp("roundtrip-eager")
    save_relation(relation, directory / "rel")
    _assert_bit_exact(relation, open_relation(directory / "rel", mmap=False))


_QUERY_SCHEMA = Schema(
    [
        Field("key", DataType.STRING),
        Field("value", DataType.INT),
        Field("p", DataType.FLOAT),
    ]
)

_QUERY_ROWS = st.lists(
    st.tuples(
        st.sampled_from(["a", "b", "c", "ü", ""]),
        st.integers(min_value=-5, max_value=5),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    ),
    min_size=0,
    max_size=40,
)


def _query_plans():
    return [
        Select(Scan("t"), col("value").ge(lit(0))),
        Sort(Scan("t"), [SortKey("p", ascending=False), SortKey("key", ascending=True)]),
        Aggregate(
            Scan("t"),
            keys=["key"],
            aggregates=[AggregateSpec("sum", "value", "total"), AggregateSpec("count", None, "n")],
        ),
    ]


@settings(max_examples=40, deadline=None)
@given(_QUERY_ROWS)
def test_queries_on_snapshot_match_in_memory(tmp_path_factory, rows) -> None:
    """Identical results — including tie order — from memmap-backed tables."""
    relation = Relation.from_rows(_QUERY_SCHEMA, rows)
    in_memory = Database(cache_enabled=False)
    in_memory.create_table("t", relation)

    directory = tmp_path_factory.mktemp("dbquery")
    save_database(in_memory, directory / "db")
    reopened = open_database(directory / "db", database=Database(cache_enabled=False))

    for plan in _query_plans():
        expected = in_memory.execute(plan)
        actual = reopened.execute(plan)
        assert list(actual.rows()) == list(expected.rows())
        assert actual.schema == expected.schema


def test_empty_database_round_trips(tmp_path) -> None:
    database = Database()
    save_database(database, tmp_path / "db")
    reopened = open_database(tmp_path / "db")
    assert reopened.table_names() == []


def test_nan_probability_column_round_trips(tmp_path) -> None:
    """NaN floats survive bit-exactly even though they defeat factorization."""
    schema = Schema([Field("p", DataType.FLOAT)])
    values = np.array([np.nan, 0.5, -0.0, np.inf, -np.inf])
    relation = Relation(schema, [Column(values, DataType.FLOAT)])
    save_relation(relation, tmp_path / "rel")
    reopened = open_relation(tmp_path / "rel")
    assert reopened.column("p").values.tobytes() == values.astype(np.float64).tobytes()
