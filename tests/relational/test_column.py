"""Unit tests for typed columns."""

import numpy as np
import pytest

from repro.errors import ColumnError, TypeMismatchError
from repro.relational.column import Column, DataType


class TestDataType:
    def test_of_value_int(self):
        assert DataType.of_value(3) is DataType.INT

    def test_of_value_float(self):
        assert DataType.of_value(3.5) is DataType.FLOAT

    def test_of_value_string(self):
        assert DataType.of_value("abc") is DataType.STRING

    def test_of_value_bool(self):
        assert DataType.of_value(True) is DataType.BOOL

    def test_of_value_bool_before_int(self):
        # bool is a subclass of int in Python; the bool branch must win
        assert DataType.of_value(False) is DataType.BOOL

    def test_of_value_unsupported(self):
        with pytest.raises(TypeMismatchError):
            DataType.of_value(object())

    def test_common_identical(self):
        assert DataType.common(DataType.INT, DataType.INT) is DataType.INT

    def test_common_widens_to_float(self):
        assert DataType.common(DataType.INT, DataType.FLOAT) is DataType.FLOAT
        assert DataType.common(DataType.FLOAT, DataType.INT) is DataType.FLOAT

    def test_common_incompatible(self):
        with pytest.raises(TypeMismatchError):
            DataType.common(DataType.STRING, DataType.INT)

    def test_is_numeric(self):
        assert DataType.INT.is_numeric()
        assert DataType.FLOAT.is_numeric()
        assert not DataType.STRING.is_numeric()
        assert not DataType.BOOL.is_numeric()


class TestColumnConstruction:
    def test_from_values_infers_type(self):
        column = Column.from_values([1, 2, 3])
        assert column.dtype is DataType.INT
        assert column.to_list() == [1, 2, 3]

    def test_from_values_explicit_type(self):
        column = Column.from_values([1, 2], DataType.FLOAT)
        assert column.dtype is DataType.FLOAT
        assert column.to_list() == [1.0, 2.0]

    def test_from_values_empty_without_type_fails(self):
        with pytest.raises(ColumnError):
            Column.from_values([])

    def test_empty(self):
        column = Column.empty(DataType.STRING)
        assert len(column) == 0
        assert column.dtype is DataType.STRING

    def test_constant(self):
        column = Column.constant("x", 4)
        assert column.to_list() == ["x", "x", "x", "x"]

    def test_constant_numeric(self):
        column = Column.constant(2.5, 3)
        assert column.to_list() == [2.5, 2.5, 2.5]

    def test_string_column_keeps_values(self):
        column = Column(["hello", "world"], DataType.STRING)
        assert column[0] == "hello"
        assert column[1] == "world"

    def test_string_column_keeps_tuple_values_whole(self):
        column = Column([("a", 1), ("b", 2), "c"], DataType.STRING)
        assert len(column) == 3 and column.values.shape == (3,)
        assert column.to_list() == [("a", 1), ("b", 2), "c"]

    def test_from_numpy_array(self):
        column = Column(np.array([1, 2, 3]), DataType.INT)
        assert column.to_list() == [1, 2, 3]


class TestColumnAccess:
    def test_len_and_iter(self):
        column = Column([1, 2, 3], DataType.INT)
        assert len(column) == 3
        assert list(column) == [1, 2, 3]

    def test_getitem_returns_python_types(self):
        column = Column([1, 2], DataType.INT)
        assert isinstance(column[0], int)
        float_column = Column([1.5], DataType.FLOAT)
        assert isinstance(float_column[0], float)
        bool_column = Column([True], DataType.BOOL)
        assert isinstance(bool_column[0], bool)

    def test_equality(self):
        assert Column([1, 2], DataType.INT) == Column([1, 2], DataType.INT)
        assert Column([1, 2], DataType.INT) != Column([2, 1], DataType.INT)
        assert Column([1], DataType.INT) != Column([1.0], DataType.FLOAT)


class TestColumnManipulation:
    def test_take(self):
        column = Column([10, 20, 30], DataType.INT)
        taken = column.take(np.array([2, 0, 2]))
        assert taken.to_list() == [30, 10, 30]

    def test_filter(self):
        column = Column([10, 20, 30], DataType.INT)
        filtered = column.filter(np.array([True, False, True]))
        assert filtered.to_list() == [10, 30]

    def test_filter_wrong_length(self):
        column = Column([10, 20, 30], DataType.INT)
        with pytest.raises(ColumnError):
            column.filter(np.array([True, False]))

    def test_slice(self):
        column = Column([1, 2, 3, 4], DataType.INT)
        assert column.slice(1, 3).to_list() == [2, 3]

    def test_concat(self):
        left = Column([1, 2], DataType.INT)
        right = Column([3], DataType.INT)
        assert left.concat(right).to_list() == [1, 2, 3]

    def test_concat_type_mismatch(self):
        with pytest.raises(TypeMismatchError):
            Column([1], DataType.INT).concat(Column(["a"], DataType.STRING))

    def test_cast_int_to_string(self):
        column = Column([1, 2], DataType.INT).cast(DataType.STRING)
        assert column.to_list() == ["1", "2"]

    def test_cast_string_to_int(self):
        column = Column(["3", "4"], DataType.STRING).cast(DataType.INT)
        assert column.to_list() == [3, 4]

    def test_cast_string_to_bool(self):
        column = Column(["true", "no"], DataType.STRING).cast(DataType.BOOL)
        assert column.to_list() == [True, False]

    def test_cast_same_type_is_identity(self):
        column = Column([1], DataType.INT)
        assert column.cast(DataType.INT) is column

    def test_unique_numeric(self):
        column = Column([3, 1, 3, 2, 1], DataType.INT)
        assert column.unique().to_list() == [1, 2, 3]

    def test_unique_string(self):
        column = Column(["b", "a", "b"], DataType.STRING)
        assert column.unique().to_list() == ["a", "b"]

    def test_is_sorted(self):
        assert Column([1, 2, 2, 3], DataType.INT).is_sorted()
        assert not Column([2, 1], DataType.INT).is_sorted()
