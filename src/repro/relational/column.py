"""Typed columns backed by NumPy arrays.

The engine executes column-at-a-time, mirroring the BAT algebra of MonetDB
that the paper uses as its substrate.  A :class:`Column` couples a NumPy
array with a :class:`DataType`; all physical operators consume and produce
columns rather than rows.
"""

from __future__ import annotations

import enum
from collections.abc import Callable, Iterable, Sequence
from typing import Any

import numpy as np

from repro.errors import ColumnError, TypeMismatchError


class DataType(enum.Enum):
    """Physical data types supported by the engine.

    The paper's triple store partitions literals by physical type rather
    than serialising everything to strings (Section 2.2); these are the
    types that partitioning distinguishes.
    """

    INT = "int"
    FLOAT = "float"
    STRING = "string"
    BOOL = "bool"

    @property
    def numpy_dtype(self) -> Any:
        """Return the NumPy dtype used to store values of this type."""
        return _NUMPY_DTYPES[self]

    def is_numeric(self) -> bool:
        """Return ``True`` for INT and FLOAT."""
        return self in (DataType.INT, DataType.FLOAT)

    @classmethod
    def of_value(cls, value: Any) -> "DataType":
        """Infer the :class:`DataType` of a single Python value."""
        if isinstance(value, bool) or isinstance(value, np.bool_):
            return cls.BOOL
        if isinstance(value, (int, np.integer)):
            return cls.INT
        if isinstance(value, (float, np.floating)):
            return cls.FLOAT
        if isinstance(value, (str, np.str_)):
            return cls.STRING
        raise TypeMismatchError(f"unsupported value type: {type(value).__name__}")

    @classmethod
    def common(cls, left: "DataType", right: "DataType") -> "DataType":
        """Return the type that results from combining two numeric types.

        INT combined with FLOAT widens to FLOAT.  Identical types are
        returned unchanged.  Any other combination raises
        :class:`TypeMismatchError`.
        """
        if left is right:
            return left
        if {left, right} == {cls.INT, cls.FLOAT}:
            return cls.FLOAT
        raise TypeMismatchError(f"no common type for {left.value} and {right.value}")


_NUMPY_DTYPES = {
    DataType.INT: np.int64,
    DataType.FLOAT: np.float64,
    DataType.STRING: object,
    DataType.BOOL: np.bool_,
}


def _coerce_array(values: Any, dtype: DataType) -> np.ndarray:
    """Convert ``values`` into a NumPy array of the physical dtype."""
    if isinstance(values, np.ndarray):
        if dtype is DataType.STRING:
            if values.dtype == object:
                return values
            return values.astype(object)
        return values.astype(dtype.numpy_dtype, copy=False)
    values = list(values)
    if dtype is DataType.STRING:
        # fromiter, not asarray: a tuple value stays one element
        return np.fromiter(values, dtype=object, count=len(values))
    return np.asarray(values, dtype=dtype.numpy_dtype)


class Column:
    """An immutable, typed, one-dimensional sequence of values.

    Columns are the unit of data flow in the engine.  They are cheap to
    slice and to select from via boolean masks or index arrays, which is how
    the physical operators implement selection and joins.

    Columns also support dictionary encoding via :meth:`factorize`: the
    dense integer codes are computed once, cached, and propagated through
    :meth:`take`/:meth:`filter`/:meth:`slice`, so repeated joins and
    aggregations over the same (or derived) columns skip the encoding step.
    :meth:`concat` keeps the codes when both sides hold the *same* dictionary
    object, which is how the triple store hands them out: its subject and
    object columns are born coded against one dictionary object, grown by
    each write (:func:`extend_coding`), so joins, unions, grouping, sorting
    and string selects on anything derived from them run on integer codes.

    A STRING column caches codes only over a dictionary of ``str`` values,
    so the order of its codes is the order of its strings; a STRING column
    holding other values is re-coded on every :meth:`factorize` call.
    """

    __slots__ = ("_dtype", "_values", "_codes", "_dictionary")

    def __init__(self, values: Iterable[Any] | np.ndarray, dtype: DataType):
        self._dtype = dtype
        self._values = _coerce_array(values, dtype)
        self._codes: np.ndarray | None = None
        self._dictionary: np.ndarray | None = None

    # -- construction ----------------------------------------------------

    @classmethod
    def from_values(cls, values: Sequence[Any], dtype: DataType | None = None) -> "Column":
        """Build a column from Python values, inferring the type if needed."""
        if dtype is None:
            if len(values) == 0:
                raise ColumnError("cannot infer the type of an empty column")
            dtype = DataType.of_value(values[0])
        return cls(values, dtype)

    @classmethod
    def empty(cls, dtype: DataType) -> "Column":
        """Return a zero-length column of the given type."""
        return cls(np.empty(0, dtype=dtype.numpy_dtype), dtype)

    @classmethod
    def from_dictionary(cls, codes: np.ndarray, dictionary: np.ndarray) -> "Column":
        """Build a string column from dictionary codes, seeding the factorize cache.

        ``dictionary`` must hold distinct ``str`` values in sorted order and
        ``codes`` must index into it (the :meth:`factorize` contract) — this
        is how snapshot-backed columns come back from disk without paying the
        coding pass again, and how the triple store codes several columns
        against one shared dictionary.  ``codes`` may be a read-only memmap.
        """
        values = dictionary[codes] if len(codes) else np.empty(0, dtype=object)
        column = cls(values, DataType.STRING)
        column._codes = codes
        column._dictionary = dictionary
        return column

    @classmethod
    def constant(cls, value: Any, length: int, dtype: DataType | None = None) -> "Column":
        """Return a column repeating ``value`` ``length`` times."""
        if dtype is None:
            dtype = DataType.of_value(value)
        if dtype is DataType.STRING:
            array = np.empty(length, dtype=object)
            array[:] = value
            return cls(array, dtype)
        return cls(np.full(length, value, dtype=dtype.numpy_dtype), dtype)

    # -- basic accessors -------------------------------------------------

    @property
    def dtype(self) -> DataType:
        """The logical data type of the column."""
        return self._dtype

    @property
    def values(self) -> np.ndarray:
        """The underlying NumPy array (treat as read-only)."""
        return self._values

    @property
    def coded(self) -> bool:
        """Whether :meth:`factorize` is cached (it then costs nothing)."""
        return self._codes is not None

    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self):
        return iter(self.to_list())

    def __getitem__(self, index: int) -> Any:
        value = self._values[index]
        return self._to_python(value)

    def _to_python(self, value: Any) -> Any:
        if self._dtype is DataType.INT:
            return int(value)
        if self._dtype is DataType.FLOAT:
            return float(value)
        if self._dtype is DataType.BOOL:
            return bool(value)
        return value

    def to_list(self) -> list[Any]:
        """Return the column contents as a list of plain Python values."""
        return [self._to_python(value) for value in self._values]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Column):
            return NotImplemented
        if self._dtype is not other._dtype or len(self) != len(other):
            return False
        return self.to_list() == other.to_list()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        preview = ", ".join(repr(value) for value in self.to_list()[:6])
        suffix = ", ..." if len(self) > 6 else ""
        return f"Column<{self._dtype.value}>[{preview}{suffix}]"

    # -- dictionary encoding ----------------------------------------------

    def factorize(self) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(codes, dictionary)`` such that ``dictionary[codes] == values``.

        ``codes`` is an ``int64`` array of dense non-negative integers and
        ``dictionary`` holds the encoded values in sorted order, as
        ``np.unique`` gives them.  The result is cached on the column
        (columns are immutable) and propagated by
        :meth:`take`/:meth:`filter`/:meth:`slice`/:meth:`concat`, in which
        case the dictionary may contain values no longer present in the
        column; codes remain valid indices into it (:func:`compact_codes`
        drops the unused entries).

        A column of only ``str`` values is coded with one hash pass, a sort
        of the distinct values and one dict lookup per row.  Other columns
        keep ``np.unique``'s strict contract, which snapshots rely on:
        raises :class:`TypeError` when the values are not totally orderable
        (e.g. an object column mixing strings and numbers) or when a float
        column contains NaN, which ``np.unique`` would collapse while
        Python's equality keeps every NaN apart.  :func:`key_codes` is the
        total form the operators use.
        """
        if self._codes is not None:
            return self._codes, self._dictionary
        if self._dtype is DataType.STRING:
            coded = _code_strings(self._values.tolist())
            if coded is not None:
                # the dictionary first: a reader that sees codes finds it set
                self._dictionary = coded[1]
                self._codes = coded[0]
                return coded
            # not cached: cached codes promise a dictionary of str (see the
            # class docstring)
            dictionary, codes = np.unique(self._values, return_inverse=True)
            return codes.astype(np.int64, copy=False).reshape(-1), dictionary
        if self._dtype is DataType.FLOAT and np.isnan(self._values).any():
            raise TypeError("cannot factorize a float column containing NaN")
        dictionary, codes = np.unique(self._values, return_inverse=True)
        self._dictionary = dictionary
        self._codes = codes.astype(np.int64, copy=False).reshape(-1)
        return self._codes, self._dictionary

    def _derive(self, values: np.ndarray, selector: Any) -> "Column":
        """Build a derived column, carrying the factorization cache along."""
        column = Column(values, self._dtype)
        if self._codes is not None:
            column._codes = self._codes[selector]
            column._dictionary = self._dictionary
        return column

    # -- vectorised manipulation ------------------------------------------

    def take(self, indices: np.ndarray | slice) -> "Column":
        """Return a new column containing the rows at ``indices``."""
        return self._derive(self._values[indices], indices)

    def filter(self, mask: np.ndarray) -> "Column":
        """Return a new column keeping only rows where ``mask`` is True."""
        if len(mask) != len(self._values):
            raise ColumnError(
                f"mask length {len(mask)} does not match column length {len(self._values)}"
            )
        return self._derive(self._values[mask], mask)

    def slice(self, start: int, stop: int) -> "Column":
        """Return the rows in ``[start, stop)`` as a new column."""
        return self._derive(self._values[start:stop], slice(start, stop))

    def concat(self, other: "Column") -> "Column":
        """Concatenate two columns of the same type.

        The result keeps the codes when both sides are coded against the
        same dictionary object, or is the other side when one side is empty.
        """
        if other.dtype is not self._dtype:
            raise TypeMismatchError(
                f"cannot concatenate {self._dtype.value} column with {other.dtype.value} column"
            )
        if len(other) == 0:
            return self
        if len(self) == 0:
            return other
        column = Column(np.concatenate([self._values, other._values]), self._dtype)
        if self._codes is not None and self._dictionary is other._dictionary:
            column._codes = np.concatenate([self._codes, other._codes])
            column._dictionary = self._dictionary
        return column

    def cast(self, dtype: DataType) -> "Column":
        """Return a copy of the column converted to ``dtype``."""
        if dtype is self._dtype:
            return self
        if dtype is DataType.STRING:
            return Column([str(value) for value in self.to_list()], dtype)
        if self._dtype is DataType.STRING:
            converters = {DataType.INT: int, DataType.FLOAT: float, DataType.BOOL: _parse_bool}
            converter = converters[dtype]
            return Column([converter(value) for value in self._values], dtype)
        return Column(self._values.astype(dtype.numpy_dtype), dtype)

    # -- statistics helpers ------------------------------------------------

    def unique(self) -> "Column":
        """Return the distinct values of the column (sorted)."""
        if self._dtype is DataType.STRING:
            distinct = sorted({value for value in self._values})
            return Column(distinct, self._dtype)
        return Column(np.unique(self._values), self._dtype)

    def is_sorted(self) -> bool:
        """Return True if the column values are non-decreasing."""
        values = self.to_list()
        return all(a <= b for a, b in zip(values, values[1:]))


def combine_codes(columns: Sequence["Column"], num_rows: int) -> np.ndarray:
    """Combine the factorization codes of ``columns`` into one code per row.

    Rows receive equal codes iff they agree on every column.  The codes are
    built by mixed-radix combination of the per-column dictionary codes,
    re-densified after every step so the intermediate values stay far from
    ``int64`` overflow.  Codes are *not* guaranteed dense or ordered; use
    ``np.unique`` on the result for group identification.

    Raises :class:`TypeError` when any column cannot be factorized; use
    :func:`key_codes` for codes over any columns.
    """
    if not columns:
        return np.zeros(num_rows, dtype=np.int64)
    return _factorized_codes([columns])[0]


def key_codes(*sides: Sequence["Column"]) -> np.ndarray:
    """One integer code per row, equal iff the rows' keys are equal.

    Each side is a sequence of key columns (at least one, the same number
    on every side); the rows of the sides are coded one after another, so a
    join codes its left and right keys in one call and splits the result.
    Equality is Python's: ``NaN`` equals nothing, ``"1"`` is not ``1`` and
    ``1`` is ``1.0``.  When every column factorizes the codes come from the
    sorted dictionaries (see :func:`combine_codes`; sides coded against one
    dictionary object keep their codes, others are merged into one domain
    per key position), otherwise from one dict pass over the rows' value
    tuples.  Codes are *not* guaranteed dense or ordered.
    """
    return _bounded_key_codes(sides)[0]


def group_rows(*sides: Sequence["Column"]) -> tuple[np.ndarray, np.ndarray]:
    """Dense group ids for the rows of ``sides``, numbered in first-seen order.

    Returns ``(codes, first_rows)``: ``codes[i]`` is the group (``0 .. G-1``,
    in order of each group's first occurrence) of row ``i`` of the sides
    taken one after another, and ``first_rows[g]`` is the index of group
    ``g``'s first row.  Rows group when :func:`key_codes` codes them equal.

    When the codes' domain (a key column's dictionary, which a carried
    dictionary can make much larger than the column) is at most
    ``_COUNTING_DOMAIN_FACTOR`` times the row count, groups are found with
    one first-occurrence array over the domain; otherwise by sorting.  Both
    give the same result.
    """
    codes, domain = _bounded_key_codes(sides)
    if domain <= _COUNTING_DOMAIN_FACTOR * len(codes):
        return group_by_counting(codes, domain)
    return group_by_sorting(codes)


#: a first-occurrence array costs O(domain) against the sort's O(rows log rows)
_COUNTING_DOMAIN_FACTOR = 16


def group_by_counting(codes: np.ndarray, domain: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`group_rows` over ``codes`` in ``[0, domain)``, without sorting."""
    num_rows = len(codes)
    first = np.full(domain, num_rows, dtype=np.int64)
    np.minimum.at(first, codes, np.arange(num_rows, dtype=np.int64))
    is_first = np.zeros(num_rows, dtype=bool)
    is_first[first[first < num_rows]] = True
    first_rows = np.flatnonzero(is_first)
    group_of = np.empty(domain, dtype=np.int64)
    group_of[codes[first_rows]] = np.arange(len(first_rows), dtype=np.int64)
    return group_of[codes], first_rows


def group_by_sorting(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`group_rows` over any integer ``codes``, with ``np.unique``'s sorts."""
    uniques, first_rows, inverse = np.unique(codes, return_index=True, return_inverse=True)
    by_first_seen = np.argsort(first_rows, kind="stable")
    rank = np.empty(len(uniques), dtype=np.int64)
    rank[by_first_seen] = np.arange(len(uniques), dtype=np.int64)
    return rank[inverse.reshape(-1)], first_rows[by_first_seen]


def compact_codes(codes: np.ndarray, dictionary: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(codes, dictionary)`` reduced to the dictionary entries the codes use.

    A carried dictionary (see :meth:`Column.factorize`) can be far larger
    than the column; what is written or hashed per distinct value must read
    only the entries the column holds.  The result is still sorted.
    """
    used, remapped = np.unique(codes, return_inverse=True)
    if len(used) == len(dictionary):
        return codes, dictionary
    return remapped.astype(np.int64, copy=False).reshape(-1), dictionary[used]


def extend_coding(
    dictionary: np.ndarray | None, values: Sequence[Any]
) -> tuple[Column, Callable[[Column], Column]]:
    """``values`` coded against ``dictionary`` grown by the ones it lacks, and a recoder.

    The grown dictionary is ``np.unique`` over ``dictionary`` (sorted ``str``)
    and ``values``, but only ``values`` are hashed and sorted: unseen strings
    go in at their ``searchsorted`` positions, and the recoder moves a column
    coded against ``dictionary`` by one integer gather.  With ``dictionary``
    ``None`` (not coded) or a value not a ``str``, nothing is coded.
    """
    coded = None if dictionary is None else _code_strings(values)
    if coded is None:
        plain = Column(values, DataType.STRING)
        return plain, lambda column: Column(column.values, DataType.STRING)
    codes, own = coded
    if not len(dictionary):  # only empty columns are coded against it
        return Column.from_dictionary(codes, own), lambda column: column
    position = np.searchsorted(dictionary, own)
    known = position < len(dictionary)
    known[known] = dictionary[position[known]] == own[known]
    at = position[~known]
    if not len(at):
        return Column.from_dictionary(position[codes], dictionary), lambda column: column
    grown = np.insert(dictionary, at, own[~known])
    old = np.arange(len(dictionary), dtype=np.int64)
    remap = old + np.searchsorted(at, old, side="right")
    own_codes = np.empty(len(own), dtype=np.int64)
    own_codes[known] = remap[position[known]]
    own_codes[~known] = at + np.arange(len(at), dtype=np.int64)

    def recode(column: Column) -> Column:
        recoded = Column(column.values, DataType.STRING)
        recoded._codes = remap[column.factorize()[0]]
        recoded._dictionary = grown
        return recoded

    return Column.from_dictionary(own_codes[codes], grown), recode


def first_seen_codes(keys: Iterable[Any], count: int) -> np.ndarray:
    """Number ``count`` hashable ``keys`` densely, in order of first occurrence."""
    seen: dict[Any, int] = {}
    return np.fromiter(
        (seen.setdefault(key, len(seen)) for key in keys), dtype=np.int64, count=count
    )


def _bounded_key_codes(sides: Sequence[Sequence["Column"]]) -> tuple[np.ndarray, int]:
    """:func:`key_codes` and a bound: every code lies in ``[0, bound)``."""
    try:
        return _factorized_codes(sides)
    except TypeError:  # NaN, or values np.unique cannot order
        rows = [zip(*(column.values.tolist() for column in side)) for side in sides]
        codes = first_seen_codes(
            (row for side in rows for row in side), sum(len(side[0]) for side in sides)
        )
        return codes, int(codes.max()) + 1 if len(codes) else 0


def _factorized_codes(sides: Sequence[Sequence["Column"]]) -> tuple[np.ndarray, int]:
    """:func:`_bounded_key_codes` from the columns' dictionaries; raises :class:`TypeError`."""
    positions = [_position_codes(columns) for columns in zip(*sides)]
    codes, domain = positions[0]
    for column_codes, width in positions[1:]:
        codes = codes * max(width, 1) + column_codes
        uniques, codes = np.unique(codes, return_inverse=True)
        codes = codes.astype(np.int64, copy=False).reshape(-1)
        domain = len(uniques)
    return codes, domain


def _position_codes(columns: Sequence["Column"]) -> tuple[np.ndarray, int]:
    """Codes of one key position across the sides, and the size of their domain."""
    factorized = [column.factorize() for column in columns]
    dictionary = factorized[0][1]
    if all(other is dictionary for _, other in factorized):
        codes = [side_codes for side_codes, _ in factorized]
        return codes[0] if len(codes) == 1 else np.concatenate(codes), len(dictionary)
    # merge the sides' dictionaries into one sorted domain and remap every
    # side's codes into it
    domain = np.unique(np.concatenate([dictionary for _, dictionary in factorized]))
    codes = np.concatenate(
        [
            np.searchsorted(domain, dictionary)[side_codes] if len(dictionary) else side_codes
            for side_codes, dictionary in factorized
        ]
    )
    return codes, len(domain)


def _code_strings(values: Sequence[Any]) -> tuple[np.ndarray, np.ndarray] | None:
    """``(codes, sorted dictionary)`` of ``str`` values, or ``None`` for any other.

    One hash pass, a sort of the distinct values and one dict lookup per
    row: the result ``np.unique`` gives, without sorting every row.
    """
    distinct = set(values)
    if not set(map(type, distinct)) <= {str}:
        return None
    ordered = sorted(distinct)
    position = dict(zip(ordered, range(len(ordered))))
    codes = np.fromiter(map(position.__getitem__, values), dtype=np.int64, count=len(values))
    return codes, np.array(ordered, dtype=object)


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "t", "1", "yes"):
        return True
    if lowered in ("false", "f", "0", "no"):
        return False
    raise TypeMismatchError(f"cannot parse {text!r} as a boolean")
