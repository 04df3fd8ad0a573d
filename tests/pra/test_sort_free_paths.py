"""The sort-free paths of union, projection and join against their general paths.

``unite`` folds without sorting when neither side repeats a tuple,
``project`` when every group is one row, and ``hash_join_indices`` reuses a
coded right key column's cached build order (``Column.code_order``).  Each
must return what the general path returns: the same rows, in the same order,
with the same probability bits.  A column derived from an ordered one
(``take``, ``filter``, ``slice``, ``concat``) sorts its own codes.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pra import operators as ops
from repro.pra.assumptions import Assumption
from repro.pra.relation import ProbabilisticRelation
from repro.relational.column import DataType
from repro.relational.operators import group_codes, group_segments, hash_join_indices
from repro.relational.relation import Relation
from repro.relational.schema import Field, Schema
from tests.pra.test_operators import CODINGS, NODES, node_relations
from tests.reference_kernels import join_indices_rows, string_columns, unite_rows

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)

#: any probability, so that ``1 - (1 - p)`` and ``p`` often differ in the last bit
PROBABILITY = st.floats(min_value=1e-9, max_value=1.0)
ROW = st.tuples(st.sampled_from(NODES), st.sampled_from(["t", "u"]), PROBABILITY)


def _sides(unique_by):
    """Rows of one side: none, unique in ``unique_by``, or drawn with repeats."""
    return st.one_of(
        st.just([]),
        st.lists(ROW, min_size=1, max_size=10, unique_by=unique_by),
        st.lists(ROW, min_size=1, max_size=14),
    )


def _bits(relation):
    return repr(relation.value_rows()), relation.probabilities().view(np.uint64).tolist()


def _project_by_segments(relation, columns, assumption):
    """``project``'s general path: one ``reduceat`` segment per group, after a sort."""
    projected = relation.relation.select_columns(columns)
    codes, representatives = group_codes(projected, columns)
    order, starts = group_segments(codes, len(representatives))
    probabilities = relation.probabilities()[order]
    if assumption is Assumption.INDEPENDENT:
        merged = 1.0 - np.multiply.reduceat(1.0 - probabilities, starts)
    elif assumption is Assumption.DISJOINT:
        merged = np.minimum(np.add.reduceat(probabilities, starts), 1.0)
    else:
        merged = np.maximum.reduceat(probabilities, starts)
    return list(projected.take(representatives).rows()), merged.view(np.uint64).tolist()


def _project_bits(result):
    return list(result.value_rows()), result.probabilities().view(np.uint64).tolist()


def _no_sort(*_args):
    raise AssertionError("the sort-free path sorted")


class TestUnite:
    @SETTINGS
    @given(
        _sides(lambda row: row[0]),
        _sides(lambda row: row[0]),
        st.sampled_from(CODINGS),
        st.sampled_from(list(Assumption)),
    )
    def test_equals_the_row_fold(self, left_rows, right_rows, coding, assumption):
        left, right = node_relations([left_rows, right_rows], coding)
        for columns in (["node"], ["node", "tag"]):
            narrowed = [
                ProbabilisticRelation(side.relation.select_columns(columns + ["p"]))
                for side in (left, right)
            ]
            result = ops.unite(*narrowed, assumption)
            assert _bits(result) == _bits(unite_rows(*narrowed, assumption))

    @pytest.mark.parametrize("assumption", list(Assumption))
    @pytest.mark.parametrize("coding", CODINGS)
    def test_unique_sides_do_not_sort(self, coding, assumption, monkeypatch):
        left, right = node_relations(
            [
                [("a", "t", 0.3), ("b", "t", 0.6), ("é", "t", 0.7)],
                [("b", "u", 0.9), ("lot1", "u", 0.2), ("a", "u", 0.1)],
            ],
            coding,
        )
        narrowed = [
            ProbabilisticRelation(side.relation.select_columns(["node", "p"]))
            for side in (left, right)
        ]
        expected = unite_rows(*narrowed, assumption)
        monkeypatch.setattr(ops, "group_segments", _no_sort)
        assert _bits(ops.unite(*narrowed, assumption)) == _bits(expected)


class TestProject:
    @SETTINGS
    @given(
        _sides(lambda row: row[:2]),
        st.sampled_from(CODINGS),
        st.sampled_from(list(Assumption)),
    )
    def test_equals_the_segmented_reduction(self, rows, coding, assumption):
        (relation,) = node_relations([rows], coding)
        for columns in (["node", "tag"], ["tag", "node"], ["node"]):
            result = ops.project(relation, columns, assumption)
            expected = _project_by_segments(relation, columns, assumption)
            assert _project_bits(result) == expected

    @pytest.mark.parametrize("assumption", list(Assumption))
    def test_singleton_groups_do_not_sort(self, assumption, monkeypatch):
        (relation,) = node_relations(
            [[("a", "t", 0.3), ("b", "t", 0.1), ("a", "u", 0.7)]], "shared"
        )
        expected = _project_by_segments(relation, ["node", "tag"], assumption)
        monkeypatch.setattr(ops, "group_segments", _no_sort)
        assert _project_bits(ops.project(relation, ["node", "tag"], assumption)) == expected


KEYS = st.lists(st.sampled_from(NODES), max_size=14)


def _keyed(column):
    return Relation(Schema([Field("k", DataType.STRING)]), [column])


class TestJoinBuildOrder:
    @SETTINGS
    @given(KEYS, KEYS, st.sampled_from(CODINGS), st.sampled_from(["inner", "left"]))
    def test_a_stored_column_is_sorted_once(self, left_keys, right_keys, coding, how):
        left, right = map(_keyed, string_columns([left_keys, right_keys], coding))
        expected = join_indices_rows(left, right, ["k"], ["k"], how)
        first = hash_join_indices(left, right, ["k"], ["k"], how)
        order = right.column("k").code_order()
        second = hash_join_indices(left, right, ["k"], ["k"], how)
        assert right.column("k").code_order() is order
        codes = right.column("k").factorize()[0]
        fresh = np.argsort(codes, kind="stable")
        assert order[0].tolist() == fresh.tolist()
        assert order[1].tolist() == codes[fresh].tolist()
        for indices in (first, second):
            assert [part.tolist() for part in indices] == [part.tolist() for part in expected]

    @SETTINGS
    @given(
        KEYS.filter(len),
        st.data(),
        st.sampled_from(["own", "shared"]),
    )
    def test_a_derived_column_sorts_its_own_codes(self, keys, data, coding):
        (column,) = string_columns([keys], coding)
        column.code_order()
        size = len(keys)
        indices = np.asarray(
            data.draw(st.lists(st.integers(0, size - 1), max_size=2 * size)), dtype=np.int64
        )
        mask = np.asarray(data.draw(st.lists(st.booleans(), min_size=size, max_size=size)))
        start = data.draw(st.integers(0, size))
        derived = [
            column.take(indices),
            column.filter(mask),
            column.slice(start, size),
            column.concat(column.take(indices)),
            column.take(indices).concat(column),
        ]
        for other in derived:
            order, sorted_codes = other.code_order()
            codes = other.factorize()[0]
            assert order.tolist() == np.argsort(codes, kind="stable").tolist()
            assert sorted_codes.tolist() == codes[order].tolist()
            left, right = _keyed(column), _keyed(other)
            expected = join_indices_rows(left, right, ["k"], ["k"])
            joined = hash_join_indices(left, right, ["k"], ["k"])
            assert [part.tolist() for part in joined] == [part.tolist() for part in expected]
