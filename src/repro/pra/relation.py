"""Probabilistic relations: ordinary relations whose last column is ``p``.

*"A probability column ``p`` is appended to all tables, including triples, in
our RDBMS"* (Section 2.3).  A :class:`ProbabilisticRelation` wraps a plain
:class:`~repro.relational.relation.Relation`, enforcing that the final column
is a float column named ``p`` holding values in ``[0, 1]``.  Ordinary
relations are lifted by appending ``p = 1.0`` ("unaltered probabilities from
initial data", as the paper puts it for the first strategy steps).
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

import numpy as np

from repro.errors import ProbabilityError
from repro.relational.column import Column, DataType
from repro.relational.relation import Relation
from repro.relational.schema import Field, Schema

PROBABILITY_COLUMN = "p"


class ProbabilisticRelation:
    """A relation with tuple-level probabilities in its trailing ``p`` column."""

    __slots__ = ("_relation", "_sorted_as")

    def __init__(self, relation: Relation, *, validate: bool = True):
        names = relation.schema.names
        if not names or names[-1] != PROBABILITY_COLUMN:
            raise ProbabilityError(
                f"probabilistic relation must end with a {PROBABILITY_COLUMN!r} column, "
                f"got columns {names}"
            )
        if relation.schema.dtype_of(PROBABILITY_COLUMN) is not DataType.FLOAT:
            raise ProbabilityError("the probability column must be a FLOAT column")
        if validate and relation.num_rows > 0:
            probabilities = relation.column(PROBABILITY_COLUMN).values
            if np.any(probabilities < -1e-12) or np.any(probabilities > 1.0 + 1e-12):
                raise ProbabilityError("probabilities must lie in [0, 1]")
        self._relation = relation
        #: the ``(descending, tie_break)`` this relation was sorted by, if any
        self._sorted_as: tuple[bool, bool] | None = None

    # -- construction ------------------------------------------------------------------

    @classmethod
    def lift(cls, relation: Relation, probability: float = 1.0) -> "ProbabilisticRelation":
        """Lift an ordinary relation by appending a constant probability column."""
        if not 0.0 <= probability <= 1.0:
            raise ProbabilityError(f"probability {probability} outside [0, 1]")
        if PROBABILITY_COLUMN in relation.schema:
            return cls(relation)
        column = Column(
            np.full(relation.num_rows, probability, dtype=np.float64), DataType.FLOAT
        )
        return cls(relation.with_column(PROBABILITY_COLUMN, column))

    @classmethod
    def from_rows(
        cls, names: Sequence[str], dtypes: Sequence[DataType], rows: Sequence[Sequence[Any]]
    ) -> "ProbabilisticRelation":
        """Build a probabilistic relation from rows whose last value is the probability."""
        fields = [Field(name, dtype) for name, dtype in zip(names, dtypes)]
        fields.append(Field(PROBABILITY_COLUMN, DataType.FLOAT))
        schema = Schema(fields)
        return cls(Relation.from_rows(schema, rows))

    # -- accessors ----------------------------------------------------------------------

    @property
    def relation(self) -> Relation:
        """The underlying plain relation (including the ``p`` column)."""
        return self._relation

    @property
    def schema(self) -> Schema:
        return self._relation.schema

    @property
    def num_rows(self) -> int:
        return self._relation.num_rows

    @property
    def value_columns(self) -> list[str]:
        """The ordinary (non-probability) column names, in order."""
        return [name for name in self._relation.schema.names if name != PROBABILITY_COLUMN]

    def probabilities(self) -> np.ndarray:
        """The probability column as a float array."""
        return self._relation.column(PROBABILITY_COLUMN).values.astype(np.float64)

    def values_relation(self) -> Relation:
        """The relation without its probability column."""
        return self._relation.select_columns(self.value_columns)

    def rows(self):
        """Iterate over rows (value columns followed by the probability)."""
        return self._relation.rows()

    def value_rows(self) -> list[tuple[Any, ...]]:
        """Return the rows of the value columns only."""
        return list(self.values_relation().rows())

    def to_dicts(self) -> list[dict[str, Any]]:
        return self._relation.to_dicts()

    def __len__(self) -> int:
        return self.num_rows

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ProbabilisticRelation):
            return NotImplemented
        return self._relation == other._relation

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ProbabilisticRelation({self.schema!r}, rows={self.num_rows})"

    # -- manipulation -------------------------------------------------------------------

    def with_probabilities(self, probabilities: np.ndarray) -> "ProbabilisticRelation":
        """Return a copy with the probability column replaced."""
        column = Column(np.asarray(probabilities, dtype=np.float64), DataType.FLOAT)
        return ProbabilisticRelation(self._relation.with_column(PROBABILITY_COLUMN, column))

    def scaled(self, factor: float) -> "ProbabilisticRelation":
        """Multiply every probability by ``factor`` (clamped to [0, 1])."""
        if factor < 0:
            raise ProbabilityError("scale factor must be non-negative")
        return self.with_probabilities(np.clip(self.probabilities() * factor, 0.0, 1.0))

    def sorted_by_probability(
        self, *, descending: bool = True, tie_break: bool = True
    ) -> "ProbabilisticRelation":
        """Return a copy sorted by probability, deterministically.

        Equal probabilities are tie-broken by the value columns (ascending),
        so two evaluations of equivalent plans rank equal-probability tuples
        identically regardless of intermediate row order.  Every value column
        orders: a string column sorts by its values' ``str`` forms (an object
        column mixing strings and numbers included) and NaN sorts last.  A
        relation this method produced is returned as it is when asked again
        for the same order.
        """
        if self._sorted_as == (descending, tie_break):
            return self
        keys: list[tuple[str, bool]] = [(PROBABILITY_COLUMN, not descending)]
        if tie_break:
            keys += [(name, True) for name in self.value_columns]
        result = ProbabilisticRelation(self._relation.sort_by(keys), validate=False)
        result._sorted_as = (descending, tie_break)
        return result

    def top(self, k: int) -> "ProbabilisticRelation":
        """Return the ``k`` most probable tuples without a full sort.

        The result is exactly ``sorted_by_probability().relation.head(k)``
        (probability descending, ties broken by value columns ascending), but
        computed with a partial-sort kernel: ``np.argpartition`` selects the
        candidate rows whose probability reaches the k-th largest value —
        including every tuple tied at the boundary, so the deterministic
        tie-break stays exact — and only that candidate set is sorted.  A
        relation :meth:`sorted_by_probability` produced in that order is
        already ranked, and only its head is taken.
        """
        if k <= 0:
            return ProbabilisticRelation(self._relation.head(0), validate=False)
        if k >= self.num_rows:
            return self.sorted_by_probability()
        if self._sorted_as == (True, True):
            return ProbabilisticRelation(self._relation.head(k), validate=False)
        probabilities = self.probabilities()
        boundary = len(probabilities) - k
        kth_largest = probabilities[np.argpartition(probabilities, boundary)[boundary]]
        candidates = np.nonzero(probabilities >= kth_largest)[0]
        subset = ProbabilisticRelation(self._relation.take(candidates), validate=False)
        return ProbabilisticRelation(
            subset.sorted_by_probability().relation.head(k), validate=False
        )
