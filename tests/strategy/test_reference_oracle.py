"""The prebuilt strategies against an independent oracle.

Each strategy is written again as a list-of-tuples plan over the reference
kernels of ``tests/reference_kernels.py`` — plain Python rows and floats, a
plain-Python BM25 — and run on ``test_lowering.py``'s scenarios with their
certain triples.  The engine must return the same ids in the same order
(ties included), and every probability within ``ULPS`` units in the last
place of the oracle's.
"""

from __future__ import annotations

import math

import pytest

from repro.engine import Engine
from repro.pra.assumptions import Assumption
from repro.strategy import StrategyExecutor
from repro.text.analyzers import StandardAnalyzer
from tests.reference_kernels import (
    join_tuples,
    project_tuples,
    rank_tuples,
    select_tuples,
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


def _assert_matches(result, expected):
    ids = result.relation.column(result.value_columns[0]).to_list()
    assert ids == [row[0] for row in expected]
    probabilities = result.probabilities().tolist()
    assert max(map(_ulps, probabilities, [row[-1] for row in expected]), default=0) <= ULPS


@pytest.mark.parametrize("name", sorted(ORACLES))
def test_a_prebuilt_strategy_matches_the_oracle(name):
    triples, build, queries = _scenario(name)
    rows = [(t.subject, t.property, t.object, t.probability) for t in triples]
    executor = StrategyExecutor(_store(LAYOUTS[0], triples))
    engine = Engine.from_triples(triples)
    try:
        answered = 0
        for query in queries:
            expected = sorted(ORACLES[name](rows, query), key=lambda row: (-row[-1], row[0]))
            answered += bool(expected)
            _assert_matches(executor.run(build(), query=query).result, expected)
            _assert_matches(engine.strategy(name, query=query).execute().result, expected)
        assert answered >= len(queries) // 2  # the oracle is not vacuously empty
    finally:
        engine.close()
