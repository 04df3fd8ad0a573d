"""Equivalence tests: vectorized kernels vs the row-at-a-time references.

The vectorized join/aggregate/distinct kernels must produce *identical*
output — same rows, same order, same dtypes — as the original dictionary
implementations, which now live test-side as the oracle
(``tests/reference_kernels.py``).  Randomized relations (hypothesis)
exercise duplicate keys, empty inputs, multi-column keys, and every
aggregate function; fixed relations exercise keys no dictionary can order
(NaN, str mixed with int), which the kernels code with one dict pass.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational.algebra import AggregateSpec
from repro.relational.column import Column, DataType, combine_codes
from repro.relational.operators import aggregate_relation, hash_join_indices
from repro.relational.relation import Relation
from repro.relational.schema import Field, Schema
from tests.reference_kernels import (
    aggregate_relation_rows,
    distinct_rows,
    join_indices_rows,
    str_sort_order,
    string_columns,
)

KEY_SCHEMA = Schema(
    [
        Field("k", DataType.INT),
        Field("name", DataType.STRING),
        Field("value", DataType.FLOAT),
    ]
)

ROW_STRATEGY = st.tuples(
    st.integers(min_value=0, max_value=6),
    st.sampled_from(["ant", "bee", "cat", "dog"]),
    st.floats(min_value=-50.0, max_value=50.0, allow_nan=False, allow_infinity=False),
)


def make_relation(rows):
    return Relation.from_rows(KEY_SCHEMA, rows)


class TestJoinEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(ROW_STRATEGY, min_size=0, max_size=30),
        st.lists(ROW_STRATEGY, min_size=0, max_size=30),
        st.sampled_from(["inner", "left"]),
    )
    def test_single_key_join_matches_reference(self, left_rows, right_rows, how):
        left, right = make_relation(left_rows), make_relation(right_rows)
        expected = join_indices_rows(left, right, ["k"], ["k"], how)
        actual = hash_join_indices(left, right, ["k"], ["k"], how)
        np.testing.assert_array_equal(actual[0], expected[0])
        np.testing.assert_array_equal(actual[1], expected[1])

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(ROW_STRATEGY, min_size=0, max_size=30),
        st.lists(ROW_STRATEGY, min_size=0, max_size=30),
        st.sampled_from(["inner", "left"]),
    )
    def test_multi_key_join_matches_reference(self, left_rows, right_rows, how):
        left, right = make_relation(left_rows), make_relation(right_rows)
        keys = ["k", "name"]
        expected = join_indices_rows(left, right, keys, keys, how)
        actual = hash_join_indices(left, right, keys, keys, how)
        np.testing.assert_array_equal(actual[0], expected[0])
        np.testing.assert_array_equal(actual[1], expected[1])

    def test_string_keys_against_int_keys_fall_back(self):
        """Mixed-type key domains are not orderable: the dict path handles them."""
        left = Relation.from_rows(Schema([Field("k", DataType.STRING)]), [("1",), ("2",)])
        right = Relation.from_rows(Schema([Field("k", DataType.INT)]), [(1,), (2,)])
        left_out, right_out = hash_join_indices(left, right, ["k"], ["k"])
        assert len(left_out) == 0 and len(right_out) == 0

    def test_nan_keys_fall_back_and_never_match(self):
        """np.unique collapses NaNs; the dict path (NaN != NaN) must win."""
        nan = float("nan")
        schema = Schema([Field("k", DataType.FLOAT)])
        left = Relation.from_rows(schema, [(nan,), (1.0,)])
        right = Relation.from_rows(schema, [(nan,), (1.0,)])
        left_out, right_out = hash_join_indices(left, right, ["k"], ["k"])
        assert left_out.tolist() == [1] and right_out.tolist() == [1]
        duplicated = Relation.from_rows(schema, [(nan,), (nan,)])
        assert duplicated.distinct().num_rows == 2  # NaN rows are all distinct


class TestAggregateEquivalence:
    AGGREGATES = [
        AggregateSpec("count", None, "n"),
        AggregateSpec("sum", "value", "total"),
        AggregateSpec("avg", "value", "mean"),
        AggregateSpec("min", "value", "low"),
        AggregateSpec("max", "value", "high"),
        AggregateSpec("min", "name", "first_name"),
        AggregateSpec("max", "name", "last_name"),
        AggregateSpec("sum", "k", "k_total"),
    ]

    #: float sum/avg columns: numpy reduces pairwise, the reference folds
    #: left-to-right, so the last ulp may differ — compare those with approx
    FLOAT_SUM_COLUMNS = {"total", "mean"}

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(ROW_STRATEGY, min_size=0, max_size=40),
        st.sampled_from([["k"], ["name"], ["k", "name"], []]),
    )
    def test_aggregate_matches_reference(self, rows, keys):
        relation = make_relation(rows)
        expected = aggregate_relation_rows(relation, keys, self.AGGREGATES)
        actual = aggregate_relation(relation, keys, self.AGGREGATES)
        assert actual.schema == expected.schema
        for name in actual.schema.names:
            actual_values = actual.column(name).to_list()
            expected_values = expected.column(name).to_list()
            if name in self.FLOAT_SUM_COLUMNS:
                np.testing.assert_allclose(actual_values, expected_values, rtol=1e-12)
            else:
                assert actual_values == expected_values

    @settings(max_examples=40, deadline=None)
    @given(st.lists(ROW_STRATEGY, min_size=0, max_size=40))
    def test_distinct_matches_reference(self, rows):
        relation = make_relation(rows)
        assert list(relation.distinct().rows()) == list(distinct_rows(relation).rows())


NAN = float("nan")

#: key columns np.unique cannot order: a float column holding NaN, and an
#: object column mixing str, int and float values ("1" is not 1, 1 is 1.0)
NON_ORDERABLE = {
    "nan key": (
        DataType.FLOAT,
        [NAN, 1.0, NAN, 1.0, 2.0, 1.0, -0.0, 0.0],
    ),
    "mixed str and int key": (
        DataType.STRING,
        ["1", 1, "a", 1, 1.0, "1", 2, "a"],
    ),
}
NON_ORDERABLE_NAMES = ["ant", "bee", "ant", "ant", "bee", "bee", "ant", "ant"]
NON_ORDERABLE_VALUES = [1.5, 2.25, -0.5, 4.0, 0.125, 3.0, 8.0, 0.1]


def non_orderable_relation(case, rows=None):
    dtype, keys = NON_ORDERABLE[case]
    rows = list(zip(keys, NON_ORDERABLE_NAMES, NON_ORDERABLE_VALUES)) if rows is None else rows
    schema = Schema(
        [Field("x", dtype), Field("name", DataType.STRING), Field("value", DataType.FLOAT)]
    )
    return Relation.from_rows(schema, rows)


def assert_same_relation(actual, expected, approx=()):
    """Same schema (dtypes included), rows and row order; NaN equals NaN here,
    and 1 / 1.0 / True are told apart.  Columns in ``approx`` are float folds
    whose last ulp depends on the summation order."""
    assert actual.schema == expected.schema
    for name in actual.schema.names:
        actual_values = actual.column(name).to_list()
        expected_values = expected.column(name).to_list()
        if name in approx:
            np.testing.assert_allclose(actual_values, expected_values, rtol=1e-12)
        else:
            assert repr(actual_values) == repr(expected_values)


@pytest.mark.parametrize("case", sorted(NON_ORDERABLE))
class TestNonOrderableKeys:
    """Keys that cannot be factorized group by Python equality, as the row kernels do."""

    @pytest.mark.parametrize("how", ["inner", "left"])
    @pytest.mark.parametrize("keys", [["x"], ["x", "name"], ["name", "x"]])
    def test_join_matches_reference(self, case, keys, how):
        left = non_orderable_relation(case)
        right = non_orderable_relation(case).take(np.asarray([5, 0, 3, 1, 6]))
        for build, probe in ((left, right), (right, left), (left, left)):
            expected = join_indices_rows(build, probe, keys, keys, how)
            actual = hash_join_indices(build, probe, keys, keys, how)
            np.testing.assert_array_equal(actual[0], expected[0])
            np.testing.assert_array_equal(actual[1], expected[1])

    @pytest.mark.parametrize("keys", [["x"], ["x", "name"], ["name", "x"]])
    def test_aggregate_matches_reference(self, case, keys):
        relation = non_orderable_relation(case)
        expected = aggregate_relation_rows(relation, keys, TestAggregateEquivalence.AGGREGATES[:-1])
        actual = aggregate_relation(relation, keys, TestAggregateEquivalence.AGGREGATES[:-1])
        assert_same_relation(actual, expected, approx=TestAggregateEquivalence.FLOAT_SUM_COLUMNS)

    def test_distinct_matches_reference(self, case):
        relation = non_orderable_relation(case)
        for names in (["x"], ["x", "name"], ["name", "x", "value"]):
            projected = relation.select_columns(names)
            assert_same_relation(projected.distinct(), distinct_rows(projected))


class TestFactorization:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(ROW_STRATEGY, min_size=1, max_size=40))
    def test_factorize_roundtrip(self, rows):
        for column in make_relation(rows).columns().values():
            codes, dictionary = column.factorize()
            assert list(dictionary[codes]) == list(column.values)

    def test_factorize_cache_propagates_through_take_and_filter(self):
        column = Column(["b", "a", "b", "c"], DataType.STRING)
        codes, dictionary = column.factorize()
        taken = column.take(np.asarray([2, 0, 3]))
        taken_codes, taken_dictionary = taken.factorize()
        assert taken_dictionary is dictionary
        np.testing.assert_array_equal(taken_codes, codes[[2, 0, 3]])
        filtered = column.filter(np.asarray([True, False, True, False]))
        filtered_codes, _ = filtered.factorize()
        np.testing.assert_array_equal(filtered_codes, codes[[0, 2]])

    def test_combine_codes_distinguishes_row_tuples(self):
        relation = make_relation([(1, "ant", 0.0), (1, "bee", 0.0), (2, "ant", 0.0)])
        codes = combine_codes([relation.column("k"), relation.column("name")], 3)
        assert len(set(codes.tolist())) == 3

    def test_combine_codes_empty_column_list_gives_one_group(self):
        codes = combine_codes([], 4)
        assert codes.tolist() == [0, 0, 0, 0]


# -- STRING columns: coded and uncoded inputs agree ---------------------------

WORDS = ["a", "ab", "b", "ba", "lot1", "lot10", "lot2", "Z", "é", "a b"]
#: literals no column value equals: between values, below and above them all
ABSENT = ["aa", "", "\uffff"]
CODINGS = ["uncoded", "own", "shared"]


class TestCodedStrings:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.sampled_from(WORDS), max_size=25), st.sampled_from(CODINGS))
    def test_comparisons_against_literals_match_python(self, values, coding):
        from repro.relational.expressions import col, lit
        from repro.relational.functions import default_registry

        (column,) = string_columns([values], coding)
        relation = Relation(Schema([Field("s", DataType.STRING)]), [column])
        functions = default_registry()
        operators = {
            "eq": lambda a, b: a == b, "ne": lambda a, b: a != b,
            "lt": lambda a, b: a < b, "le": lambda a, b: a <= b,
            "gt": lambda a, b: a > b, "ge": lambda a, b: a >= b,
        }
        mirrored = {"eq": "eq", "ne": "ne", "lt": "gt", "le": "ge", "gt": "lt", "ge": "le"}
        for literal in values[:2] + ABSENT:
            for name, compare in operators.items():
                expected = [compare(value, literal) for value in values]
                forward = getattr(col("s"), name)(lit(literal)).evaluate(relation, functions)
                backward = getattr(lit(literal), mirrored[name])(col("s")).evaluate(
                    relation, functions
                )
                assert forward.dtype is DataType.BOOL
                assert forward.values.tolist() == expected, (name, literal)
                assert backward.values.tolist() == expected, (name, literal)

    def test_comparison_type_rule_is_unchanged(self):
        from repro.errors import TypeMismatchError
        from repro.relational.expressions import col, lit
        from repro.relational.functions import default_registry

        (column,) = string_columns([["a", "b"]], "own")
        relation = Relation(Schema([Field("s", DataType.STRING)]), [column])
        for expression in (col("s").eq(lit(1)), lit(1.5).lt(col("s"))):
            with pytest.raises(TypeMismatchError):
                expression.evaluate(relation, default_registry())

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.sampled_from(WORDS), max_size=25),
        st.lists(st.sampled_from(WORDS), max_size=25),
    )
    def test_column_against_column(self, left, right):
        from repro.relational.expressions import col
        from repro.relational.functions import default_registry

        size = min(len(left), len(right))
        expected = [a < b for a, b in zip(left[:size], right[:size])]
        for coding in CODINGS:
            columns = string_columns([left[:size], right[:size]], coding)
            relation = Relation(
                Schema([Field("l", DataType.STRING), Field("r", DataType.STRING)]), columns
            )
            mask = col("l").lt(col("r")).evaluate(relation, default_registry())
            assert mask.values.tolist() == expected

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=40), max_size=60), st.integers(0, 30))
    def test_group_by_counting_matches_sorting(self, codes, spare):
        from repro.relational.column import group_by_counting, group_by_sorting

        codes = np.asarray(codes, dtype=np.int64)
        domain = int(codes.max()) + 1 + spare if len(codes) else spare
        counted = group_by_counting(codes, domain)
        sorted_ = group_by_sorting(codes)
        np.testing.assert_array_equal(counted[0], sorted_[0])
        np.testing.assert_array_equal(counted[1], sorted_[1])

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.sampled_from(WORDS), max_size=25),
        st.lists(st.sampled_from(WORDS), max_size=25),
        st.sampled_from(CODINGS),
    )
    def test_group_rows_numbers_first_seen(self, left, right, coding):
        from repro.relational.column import group_rows

        seen: dict[str, int] = {}
        expected = [seen.setdefault(value, len(seen)) for value in left + right]
        first_rows = [(left + right).index(value) for value in seen]
        codes, firsts = group_rows(*([column] for column in string_columns([left, right], coding)))
        assert codes.tolist() == expected
        assert firsts.tolist() == first_rows

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.tuples(st.sampled_from(WORDS), st.sampled_from(WORDS)), max_size=30),
        st.sampled_from(CODINGS),
    )
    def test_distinct_matches_reference(self, rows, coding):
        first = [row[0] for row in rows]
        second = [row[1] for row in rows]
        relation = Relation(
            Schema([Field("a", DataType.STRING), Field("b", DataType.STRING)]),
            string_columns([first, second], coding),
        )
        assert list(relation.distinct().rows()) == list(distinct_rows(relation).rows())

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(st.sampled_from(WORDS), st.sampled_from(WORDS), st.integers(0, 3)),
            max_size=30,
        ),
        st.sampled_from(CODINGS),
        st.lists(
            st.tuples(st.sampled_from(["a", "b", "k"]), st.booleans()), min_size=1, max_size=3
        ),
    )
    def test_sort_by_matches_str_argsort(self, rows, coding, keys):
        columns = string_columns([[row[0] for row in rows], [row[1] for row in rows]], coding)
        columns.append(Column([row[2] for row in rows], DataType.INT))
        relation = Relation(
            Schema(
                [Field("a", DataType.STRING), Field("b", DataType.STRING), Field("k", DataType.INT)]
            ),
            columns,
        )
        expected = relation.take(str_sort_order(relation, keys)) if rows else relation
        assert list(relation.sort_by(keys).rows()) == list(expected.rows())

    def test_trailing_nul_orders_as_python_when_coded(self):
        # NumPy's fixed-width str strips trailing NULs, so the uncoded sort
        # ties "a\0" with "a"; the codes order them as Python does
        values = ["a\x00", "a", "a\x00"]
        schema = Schema([Field("s", DataType.STRING)])
        (uncoded,) = string_columns([values], "uncoded")
        (coded,) = string_columns([values], "own")
        for ascending in (True, False):
            keys = [("s", ascending)]
            plain = Relation(schema, [uncoded]).sort_by(keys)
            assert plain.column("s").to_list() == values
        assert Relation(schema, [coded]).sort_by([("s", True)]).column("s").to_list() == [
            "a", "a\x00", "a\x00"
        ]
        assert Relation(schema, [coded]).sort_by([("s", False)]).column("s").to_list() == [
            "a\x00", "a\x00", "a"
        ]

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.sampled_from(WORDS), max_size=40))
    def test_factorize_fast_path_is_np_unique(self, values):
        column = Column(values, DataType.STRING)
        codes, dictionary = column.factorize()
        expected_dictionary, expected_codes = np.unique(
            np.asarray(values, dtype=object).reshape(-1), return_inverse=True
        )
        assert codes.dtype == np.int64 and dictionary.dtype == object
        np.testing.assert_array_equal(codes, expected_codes.reshape(-1))
        assert dictionary.tolist() == expected_dictionary.tolist()
        assert column.coded

    @pytest.mark.parametrize(
        "dtype, values",
        [
            (DataType.STRING, ["a", 1, "b"]),
            (DataType.STRING, ["a", float("nan")]),
            (DataType.FLOAT, [1.0, float("nan")]),
        ],
    )
    def test_factorize_still_raises_on_mixed_values_and_nan(self, dtype, values):
        column = Column(values, dtype)
        with pytest.raises(TypeError):
            column.factorize()
        assert not column.coded

    def test_string_column_of_numbers_codes_without_caching(self):
        # cached codes on a STRING column promise str order; numbers keep none
        column = Column([10, 9, 10], DataType.STRING)
        codes, dictionary = column.factorize()
        assert codes.tolist() == [1, 0, 1] and dictionary.tolist() == [9, 10]
        assert not column.coded

    def test_concat_keeps_codes_only_for_one_shared_dictionary(self):
        left, right = string_columns([["b", "a"], ["a", "c"]], "shared")
        joined = left.concat(right)
        assert joined.coded
        assert joined.factorize()[1] is left.factorize()[1]
        assert joined.factorize()[1][joined.factorize()[0]].tolist() == ["b", "a", "a", "c"]
        own_left, own_right = string_columns([["b", "a"], ["a", "c"]], "own")
        assert not own_left.concat(own_right).coded

    def test_compact_codes_keeps_only_used_entries(self):
        from repro.relational.column import compact_codes

        (column,) = string_columns([["lot2", "a", "lot2"]], "shared")
        codes, dictionary = compact_codes(*column.factorize())
        assert dictionary.tolist() == ["a", "lot2"]
        assert codes.tolist() == [1, 0, 1]
