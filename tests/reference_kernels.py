"""Row-at-a-time reference kernels: the oracle the columnar operators are checked against.

Each function computes one relational or PRA operator the obvious way —
Python dicts keyed on row tuples, one row at a time — so its behaviour is
Python's equality (``NaN`` equals nothing, ``"1"`` is not ``1``, ``1`` is
``1.0``) and Python's arithmetic, with no factorization, sorting or
segmented reduction in between.  The production kernels in
:mod:`repro.relational.operators`, :mod:`repro.relational.relation` and
:mod:`repro.pra.operators` must agree with these on every input, orderable
or not; ``tests/relational/test_kernel_equivalence.py``,
``tests/pra/test_operators.py`` and ``tests/property/test_plan_equivalence.py``
hold them to it.  :func:`str_sort_order` is the string order the sort kernel
kept before STRING columns carried their codes, and :func:`string_columns`
builds the same values uncoded, coded and coded against a shared dictionary.
"""

from __future__ import annotations

import math
from collections import Counter, OrderedDict, defaultdict
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.errors import PlanError
from repro.pra.assumptions import Assumption
from repro.pra.relation import PROBABILITY_COLUMN, ProbabilisticRelation
from repro.relational.algebra import AggregateSpec
from repro.relational.column import Column, DataType
from repro.relational.relation import Relation
from repro.relational.schema import Field, Schema

# ---------------------------------------------------------------------------
# relational operators
# ---------------------------------------------------------------------------


def join_indices_rows(
    left: Relation,
    right: Relation,
    left_keys: Sequence[str],
    right_keys: Sequence[str],
    how: str = "inner",
) -> tuple[np.ndarray, np.ndarray]:
    """Row-at-a-time equi-join: ``hash_join_indices``' reference."""
    left_out, right_out = match_keys(
        list(zip(*(left.column(name).to_list() for name in left_keys))),
        list(zip(*(right.column(name).to_list() for name in right_keys))),
        how,
    )
    return np.asarray(left_out, dtype=np.int64), np.asarray(right_out, dtype=np.int64)


def match_keys(
    left_keys: Sequence[tuple[Any, ...]], right_keys: Sequence[tuple[Any, ...]], how: str = "inner"
) -> tuple[list[int], list[int]]:
    """The matching ``(left, right)`` row pairs of two key lists: left rows in
    order, each with its matches in right order (``-1`` for none, ``how="left"``)."""
    table: dict[tuple[Any, ...], list[int]] = defaultdict(list)
    for row_index, key in enumerate(right_keys):
        table[key].append(row_index)
    left_out: list[int] = []
    right_out: list[int] = []
    for row_index, key in enumerate(left_keys):
        matches = table.get(key)
        if matches:
            for match in matches:
                left_out.append(row_index)
                right_out.append(match)
        elif how == "left":
            left_out.append(row_index)
            right_out.append(-1)
    return left_out, right_out


def aggregate_relation_rows(
    relation: Relation,
    keys: Sequence[str],
    aggregates: Sequence[AggregateSpec],
) -> Relation:
    """Row-at-a-time aggregation: ``aggregate_relation``'s reference."""
    key_columns = [relation.column(name) for name in keys]
    groups: dict[tuple[Any, ...], list[int]] = defaultdict(list)
    if keys:
        key_lists = [column.to_list() for column in key_columns]
        for row_index in range(relation.num_rows):
            group_key = tuple(values[row_index] for values in key_lists)
            groups[group_key].append(row_index)
    else:
        groups[()] = list(range(relation.num_rows))

    ordered_keys = list(groups.keys())

    fields: list[Field] = []
    columns: list[Column] = []
    for position, name in enumerate(keys):
        dtype = relation.schema.dtype_of(name)
        values = [group_key[position] for group_key in ordered_keys]
        fields.append(Field(name, dtype))
        columns.append(Column(values, dtype))

    for spec in aggregates:
        values, dtype = _evaluate_aggregate(relation, spec, ordered_keys, groups)
        fields.append(Field(spec.output_name, dtype))
        columns.append(Column(values, dtype))

    return Relation(Schema(fields), columns)


def _evaluate_aggregate(
    relation: Relation,
    spec: AggregateSpec,
    ordered_keys: list[tuple[Any, ...]],
    groups: dict[tuple[Any, ...], list[int]],
) -> tuple[list[Any], DataType]:
    if spec.function == "count":
        return [len(groups[key]) for key in ordered_keys], DataType.INT

    if spec.input_column is None:
        raise PlanError(f"aggregate {spec.function!r} requires an input column")
    column = relation.column(spec.input_column)
    values_list = column.to_list()

    results: list[Any] = []
    for key in ordered_keys:
        group_values = [values_list[index] for index in groups[key]]
        if not group_values:
            results.append(0)
            continue
        if spec.function == "sum":
            results.append(sum(group_values))
        elif spec.function == "avg":
            results.append(float(sum(group_values)) / len(group_values))
        elif spec.function == "min":
            results.append(min(group_values))
        elif spec.function == "max":
            results.append(max(group_values))

    if spec.function == "avg":
        return results, DataType.FLOAT
    if spec.function == "sum" and column.dtype is DataType.INT:
        return results, DataType.INT
    if spec.function == "sum":
        return results, DataType.FLOAT
    return results, column.dtype


def distinct_rows(relation: Relation) -> Relation:
    """Row-at-a-time duplicate removal: ``Relation.distinct``'s reference."""
    seen: set[tuple[Any, ...]] = set()
    keep = np.zeros(relation.num_rows, dtype=bool)
    for index, row in enumerate(relation.rows()):
        if row not in seen:
            seen.add(row)
            keep[index] = True
    return relation.filter(keep)


# ---------------------------------------------------------------------------
# PRA operators
# ---------------------------------------------------------------------------


def merge_rows(
    rows: Iterable[tuple[tuple[Any, ...], float]], assumption: Assumption
) -> list[tuple[tuple[Any, ...], float]]:
    """One ``(values, p)`` per distinct values, in first-seen order, each the
    pairwise :meth:`Assumption.combine_or` fold of its occurrences in order."""
    merged: "OrderedDict[tuple[Any, ...], float]" = OrderedDict()
    for row, probability in rows:
        if row in merged:
            merged[row] = assumption.combine_or(merged[row], probability)
        else:
            merged[row] = probability
    return list(merged.items())


def _from_merged(fields: list[Field], merged: list[tuple[tuple[Any, ...], float]]):
    fields = fields + [Field(PROBABILITY_COLUMN, DataType.FLOAT)]
    rows = [tuple(row) + (probability,) for row, probability in merged]
    return ProbabilisticRelation(Relation.from_rows(Schema(fields), rows), validate=False)


def project_merge_rows(
    projected: Relation,
    probabilities: np.ndarray,
    assumption: Assumption,
) -> ProbabilisticRelation:
    """Row-at-a-time duplicate merge of an already projected relation:
    ``project``'s reference."""
    pairs = zip(projected.rows(), map(float, probabilities))
    return _from_merged(list(projected.schema.fields), merge_rows(pairs, assumption))


def unite_rows(
    left: ProbabilisticRelation,
    right: ProbabilisticRelation,
    assumption: Assumption,
) -> ProbabilisticRelation:
    """Row-at-a-time union: ``unite``'s reference."""
    pairs = [
        (row, float(probability))
        for side in (left, right)
        for row, probability in zip(side.value_rows(), side.probabilities())
    ]
    fields = list(left.values_relation().schema.fields)
    return _from_merged(fields, merge_rows(pairs, assumption))


def bayes_rows(
    input_relation: ProbabilisticRelation,
    evidence_columns: Sequence[str],
    probabilities: np.ndarray,
) -> ProbabilisticRelation:
    """Row-at-a-time evidence grouping: ``bayes``' reference."""
    if evidence_columns:
        values = input_relation.relation.select_columns(list(evidence_columns))
        keys = list(values.rows())
    else:
        keys = [()] * input_relation.num_rows
    totals: dict[tuple[Any, ...], float] = {}
    for key, probability in zip(keys, probabilities):
        totals[key] = totals.get(key, 0.0) + float(probability)
    normalised = np.empty(len(probabilities), dtype=np.float64)
    for index, (key, probability) in enumerate(zip(keys, probabilities)):
        total = totals[key]
        normalised[index] = float(probability) / total if total > 0 else 0.0
    return input_relation.with_probabilities(normalised)


def string_columns(parts: Sequence[Sequence[Any]], coding: str) -> list[Column]:
    """One STRING column per part: uncoded, each coded on its own, or all coded
    against one dictionary object that also holds values no part has."""
    if coding == "uncoded":
        return [Column(part, DataType.STRING) for part in parts]
    if coding == "own":
        columns = [Column(part, DataType.STRING) for part in parts]
        for column in columns:
            column.factorize()
        return columns
    unused = ["zz-unused", "0-unused"]
    whole = Column([value for part in parts for value in part] + unused, DataType.STRING)
    whole.factorize()
    columns, start = [], 0
    for part in parts:
        columns.append(whole.slice(start, start + len(part)))
        start += len(part)
    return columns


def str_sort_order(relation: Relation, keys: Sequence[tuple[str, bool]]) -> np.ndarray:
    """The row order ``Relation.sort_by`` gave before columns carried codes:
    every STRING key compared as NumPy fixed-width ``str``."""
    order = np.arange(relation.num_rows)
    for name, ascending in reversed(keys):
        column = relation.column(name)
        values = column.values[order]
        if column.dtype is DataType.STRING:
            values = np.asarray(values, dtype=str)
        if ascending:
            positions = np.argsort(values, kind="stable")
        else:
            _, codes = np.unique(values, return_inverse=True)
            positions = np.argsort(-codes, kind="stable")
        order = order[positions]
    return order


# ---------------------------------------------------------------------------
# list-of-tuples plans: a row is its values followed by its probability
# ---------------------------------------------------------------------------

Row = tuple[Any, ...]


def select_tuples(rows: Sequence[Row], predicate: Callable[[Row], bool]) -> list[Row]:
    """SELECT: the rows whose values satisfy ``predicate``, probabilities unchanged."""
    return [row for row in rows if predicate(row[:-1])]


def weight_tuples(rows: Sequence[Row], factor: float) -> list[Row]:
    """WEIGHT: every probability times ``factor``."""
    return [row[:-1] + (row[-1] * factor,) for row in rows]


def project_tuples(
    rows: Sequence[Row], positions: Sequence[int], assumption: Assumption
) -> list[Row]:
    """PROJECT on 1-based ``positions``, duplicates merged under ``assumption``."""
    pairs = ((tuple(row[position - 1] for position in positions), row[-1]) for row in rows)
    return [values + (p,) for values, p in merge_rows(pairs, assumption)]


def join_tuples(
    left: Sequence[Row], right: Sequence[Row], conditions: Sequence[tuple[int, int]]
) -> list[Row]:
    """JOIN INDEPENDENT on 1-based ``(left, right)`` positions: values side by
    side, probabilities multiplied."""
    left_out, right_out = match_keys(
        [tuple(row[i - 1] for i, _ in conditions) for row in left],
        [tuple(row[j - 1] for _, j in conditions) for row in right],
    )
    return [
        left[i][:-1] + right[j][:-1] + (left[i][-1] * right[j][-1],)
        for i, j in zip(left_out, right_out)
    ]


def unite_tuples(left: Sequence[Row], right: Sequence[Row], assumption: Assumption) -> list[Row]:
    """UNITE: the rows of both sides, equal values merged under ``assumption``."""
    pairs = ((row[:-1], row[-1]) for row in [*left, *right])
    return [values + (p,) for values, p in merge_rows(pairs, assumption)]


def top_tuples(rows: Sequence[Row], k: int) -> list[Row]:
    """TOP k: probability descending, ties by values ascending."""
    return sorted(rows, key=lambda row: (-row[-1], row[:-1]))[:k]


@dataclass
class BM25Index:
    """A BM25 index in plain Python: per-document term counts and lengths,
    document frequencies, and the running totals the formula needs."""

    doc_ids: list[Any] = field(default_factory=list)
    doc_lengths: list[int] = field(default_factory=list)
    doc_term_freqs: list[Counter] = field(default_factory=list)
    doc_freq: Counter = field(default_factory=Counter)
    total_docs: int = 0
    avg_doc_length: float = 0.0

    @classmethod
    def build(cls, documents: Sequence[tuple[Any, str]], analyze: Callable[[str], list[str]]):
        """One document per ``(id, text)`` pair, in order (a repeated id is two)."""
        index = cls()
        for doc_id, text in documents:
            terms = analyze(text)
            index.doc_ids.append(doc_id)
            index.doc_lengths.append(len(terms))
            index.doc_term_freqs.append(Counter(terms))
            index.doc_freq.update(set(terms))
        index.total_docs = len(index.doc_ids)
        if index.total_docs:
            index.avg_doc_length = sum(index.doc_lengths) / index.total_docs
        return index

    def bm25(self, terms: Sequence[str], k1: float = 1.2, b: float = 0.75) -> list[float | None]:
        """Each document's score (the query terms in order, repeats included),
        or None for a document that holds none of them."""
        average = self.avg_doc_length or 1.0
        scores: list[float | None] = []
        for length, frequencies in zip(self.doc_lengths, self.doc_term_freqs):
            score = None
            for term in terms:
                tf = frequencies.get(term, 0)
                if tf:
                    df = self.doc_freq[term]
                    idf = math.log((self.total_docs - df + 0.5) / (df + 0.5))
                    normaliser = tf + k1 * (1.0 - b + b * length / average)
                    score = (score or 0.0) + tf / normaliser * idf
            scores.append(score)
        return scores


def rank_tuples(docs: Sequence[Row], terms: Sequence[str], analyze: Callable[[str], list[str]]):
    """RANK BM25 over ``(id, text, p)`` rows: ``(id, p)`` by score descending
    (ties in row order), each score shifted positive when the lowest is not
    (by 1 % of the spread), clipped at 1e-9, divided by the highest, and
    multiplied by the prior of the id's last row."""
    index = BM25Index.build([(doc_id, text) for doc_id, text, _p in docs], analyze)
    scored = [(s, i) for i, s in enumerate(index.bm25(terms) if terms else []) if s is not None]
    scored.sort(key=lambda pair: -pair[0])
    if not scored:
        return []
    lowest, highest = min(s for s, _ in scored), max(s for s, _ in scored)
    if lowest <= 0:
        offset = (highest - lowest) * 0.01 if highest > lowest else 1.0
        scored = [(s - lowest + offset, i) for s, i in scored]
    scored = [(max(s, 1e-9), i) for s, i in scored]
    top = max(s for s, _ in scored)
    prior = {row[0]: row[-1] for row in docs}
    return [(docs[i][0], s / top * prior[docs[i][0]]) for s, i in scored]
