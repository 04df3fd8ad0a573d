"""The prebuilt strategies against an independent oracle.

Each strategy is written again as a list-of-tuples plan over the reference
kernels of ``tests/reference_kernels.py`` — plain Python rows and floats, a
plain-Python BM25 — and run on ``test_lowering.py``'s scenarios with their
certain triples.  The engine must return the same ids in the same order
(ties included), and every probability within ``ULPS`` units in the last
place of the oracle's.  ``StrategyRun.top(k)`` ranks without sorting the
whole result; it must return the oracle's top k and the head of the ranked
result, and sort no more rows than are tied with its k-th.
"""

from __future__ import annotations

import math

import pytest

from repro.engine import Engine
from repro.pra.assumptions import Assumption
from repro.relational.relation import Relation
from repro.strategy import StrategyExecutor
from repro.text.analyzers import StandardAnalyzer
from tests.reference_kernels import (
    join_tuples,
    project_tuples,
    rank_tuples,
    select_tuples,
    top_tuples,
    unite_tuples,
    weight_tuples,
)
from tests.strategy.test_lowering import LAYOUTS, _scenario, _store

#: the largest distance, in units in the last place, between an engine
#: probability and the oracle's: the oracle's logarithm (``math.log``) and
#: float folds are its own (1 was the most seen)
ULPS = 2

ANALYZER = StandardAnalyzer("english")


def _pattern(triples, property_name, obj=None):
    return select_tuples(
        triples, lambda row: row[1] == property_name and (obj is None or row[2] == obj)
    )


def _subjects(matched):
    return project_tuples(matched, [1], Assumption.SUBSUMED)


def _extract(resources, triples, text_property="description"):
    joined = join_tuples(resources, _pattern(triples, text_property), [(1, 1)])
    return project_tuples(joined, [1, 4], Assumption.INDEPENDENT)


def _traverse(start, triples, property_name, *, backward=False):
    condition, reached = ((1, 3), 1) if backward else ((1, 1), 3)
    joined = join_tuples(start, _pattern(triples, property_name), [condition])
    return project_tuples(joined, [1 + reached], Assumption.INDEPENDENT)


def _rank(docs, query):
    return rank_tuples(docs, ANALYZER.analyze_query(query), ANALYZER.analyze)


def _toy(triples, query):
    toys = _subjects(_pattern(triples, "category", "toy"))
    return _rank(_extract(toys, triples), query)


def _auction(triples, query):
    lots = _subjects(_pattern(triples, "type", "lot"))
    by_lot = _rank(_extract(lots, triples), query)
    auctions = _traverse(lots, triples, "hasAuction")
    by_auction = _traverse(
        _rank(_extract(auctions, triples), query), triples, "hasAuction", backward=True
    )
    return unite_tuples(
        weight_tuples(by_lot, 0.7), weight_tuples(by_auction, 0.3), Assumption.DISJOINT
    )


def _experts(triples, query):
    documents = _subjects(_pattern(triples, "type", "document"))
    return _traverse(_rank(_extract(documents, triples), query), triples, "authoredBy")


ORACLES = {"toy": _toy, "auction": _auction, "experts": _experts}


def _ulps(a: float, b: float) -> int:
    if a == b:
        return 0
    return math.ceil(abs(a - b) / math.ulp(max(abs(a), abs(b))))


def _assert_pairs_match(pairs, expected):
    assert [node for node, _ in pairs] == [row[0] for row in expected]
    ulps = map(_ulps, [p for _, p in pairs], [row[-1] for row in expected])
    assert max(ulps, default=0) <= ULPS


def _pairs(result):
    ids = result.relation.column(result.value_columns[0]).to_list()
    return list(zip(ids, result.probabilities().tolist()))


def _assert_matches(result, expected):
    _assert_pairs_match(_pairs(result), expected)


@pytest.mark.parametrize("name", sorted(ORACLES))
def test_a_prebuilt_strategy_matches_the_oracle(name):
    triples, build, queries = _scenario(name)
    rows = [(t.subject, t.property, t.object, t.probability) for t in triples]
    executor = StrategyExecutor(_store(LAYOUTS[0], triples))
    engine = Engine.from_triples(triples)
    try:
        answered = 0
        for query in queries:
            expected = top_tuples(ORACLES[name](rows, query), len(rows))
            answered += bool(expected)
            _assert_matches(executor.run(build(), query=query).result, expected)
            _assert_matches(engine.strategy(name, query=query).execute().result, expected)
        assert answered >= len(queries) // 2  # the oracle is not vacuously empty
    finally:
        engine.close()


@pytest.mark.parametrize("name", ["toy", "auction"])
def test_top_matches_the_oracle_and_the_ranked_result(name):
    triples, build, queries = _scenario(name)
    rows = [(t.subject, t.property, t.object, t.probability) for t in triples]
    executor = StrategyExecutor(_store(LAYOUTS[0], triples))
    lowered = executor.lower(build())
    tied = 0
    for query in queries:
        oracle = ORACLES[name](rows, query)
        run = executor.run(lowered, query=query)
        # every top(k) before the ranked result is first read
        tops = {k: run.top(k) for k in (1, 10, run.output.num_rows)}
        ranked = _pairs(run.result)
        for k, pairs in tops.items():
            _assert_pairs_match(pairs, top_tuples(oracle, k))
            assert pairs == ranked[:k]
        assert run.top(10) == ranked[:10] and run.top() == ranked
        tied += len({p for _, p in tops[10]}) < len(tops[10])
    assert tied  # ties reach the top ten, so their order is checked


def test_top_sorts_only_the_rows_tied_with_the_kth(monkeypatch):
    triples, _build, queries = _scenario("auction")
    engine = Engine.from_triples(triples)
    sizes: list[int] = []
    sort_by = Relation.sort_by

    def counted(relation, keys):
        sizes.append(relation.num_rows)
        return sort_by(relation, keys)

    try:
        engine.strategy("auction", query=queries[0]).execute().top(10)
        monkeypatch.setattr(Relation, "sort_by", counted)
        for query in queries:
            sizes.clear()
            run = engine.strategy("auction", query=query).execute()
            pairs = run.top(10)
            candidates = int((run.output.probabilities() >= pairs[-1][1]).sum())
            assert sizes and max(sizes) <= candidates < run.output.num_rows
    finally:
        engine.close()
