"""A strategy request is one plan: one evaluation, one workload-log record."""

from __future__ import annotations

import pytest

from repro.engine import Engine
from repro.errors import PRAError
from repro.ir.ranking import BM25Model
from repro.pra.plan import PraProject
from repro.pra.relation import ProbabilisticRelation
from repro.serving import ServingConfig
from repro.strategy.blocks import Block, Port, PortKind
from repro.strategy.graph import StrategyGraph
from repro.strategy.library import (
    ExtractTextBlock,
    MixBlock,
    QueryInputBlock,
    RankByTextBlock,
    SelectByTypeBlock,
    TraversePropertyBlock,
)
from repro.workloads import generate_auction_triples

WORKLOAD = generate_auction_triples(60, seed=8)
#: three words of a lot description: the lots and the auctions both match
QUERY = " ".join(WORKLOAD.lot_descriptions["lot1"].split()[:3])


@pytest.fixture
def engine():
    opened = Engine.from_triples(WORKLOAD.triples)
    yield opened
    opened.close()


def _count_evaluations(engine, monkeypatch) -> list:
    calls = []
    evaluate = engine._evaluate

    def counting(plan, bindings=None, **kwargs):
        calls.append(kwargs.get("kind"))
        return evaluate(plan, bindings, **kwargs)

    monkeypatch.setattr(engine, "_evaluate", counting)
    return calls


class CountingBM25(BM25Model):
    """BM25 that counts its ``rank`` calls."""

    def __init__(self):
        super().__init__()
        self.calls = 0

    def rank(self, *args, **kwargs):
        self.calls += 1
        return super().rank(*args, **kwargs)


class Raises(Block):
    """A user block that fails on every request."""

    def input_ports(self):
        return [Port("resources", PortKind.RESOURCES)]

    def output_port(self):
        return Port("resources", PortKind.RESOURCES)

    def execute(self, context, inputs):
        raise RuntimeError("the block failed")


class BadPlan(Block):
    """A user block whose plan fails when it is evaluated."""

    def input_ports(self):
        return [Port("resources", PortKind.RESOURCES)]

    def output_port(self):
        return Port("resources", PortKind.RESOURCES)

    def to_plan(self, inputs, storage):
        return PraProject(inputs["resources"], [9])


def _failing(block: Block) -> StrategyGraph:
    graph = StrategyGraph()
    graph.add_block("lots", SelectByTypeBlock("lot"))
    graph.add_block("query", QueryInputBlock())
    graph.add_block("texts", ExtractTextBlock())
    graph.add_block("rank", RankByTextBlock())
    graph.add_block("fails", block)
    graph.connect("lots", "texts")
    graph.connect("texts", "rank", port="documents")
    graph.connect("query", "rank", port="query")
    graph.connect("rank", "fails")
    return graph


def test_a_request_by_name_is_one_evaluation_and_one_record(engine, monkeypatch):
    calls = _count_evaluations(engine, monkeypatch)
    before = len(engine.workload_log.snapshot())
    run = engine.strategy("auction", query=QUERY).execute()
    records = engine.workload_log.snapshot()[before:]
    assert calls == ["strategy"]
    assert [(r.kind, r.status, r.request) for r in records] == [
        ("strategy", "ok", {"kind": "strategy", "name": "auction", "query": QUERY})
    ]
    assert records[0].fingerprint.startswith("plan::")
    assert records[0].rows_out == run.result.num_rows
    # a graph run through the engine's executor takes the same path
    engine.executor.run(engine.strategy("auction").graph, query=QUERY)
    assert calls == ["strategy", "strategy"]


@pytest.mark.parametrize(
    "block, error",
    [(Raises(), RuntimeError), (BadPlan(), PRAError)],
    ids=["before the evaluation", "in the evaluation"],
)
def test_a_block_that_raises_writes_one_error_record(engine, block, error):
    before = len(engine.workload_log.snapshot())
    with pytest.raises(error):
        engine.strategy(_failing(block), query=QUERY).execute()
    records = engine.workload_log.snapshot()[before:]
    assert [(r.kind, r.status) for r in records] == [("strategy", "error")]


def test_a_block_that_feeds_two_blocks_ranks_once(engine, monkeypatch):
    model = CountingBM25()
    graph = StrategyGraph()
    graph.add_block("lots", SelectByTypeBlock("lot"))
    graph.add_block("query", QueryInputBlock())
    graph.add_block("texts", ExtractTextBlock())
    graph.add_block("rank", RankByTextBlock(model))
    graph.add_block("independent", TraversePropertyBlock("hasAuction"))
    graph.add_block("subsumed", TraversePropertyBlock("hasAuction", merge="subsumed"))
    graph.add_block("mix", MixBlock([0.5, 0.5]))
    graph.connect("lots", "texts")
    graph.connect("texts", "rank", port="documents")
    graph.connect("query", "rank", port="query")
    graph.connect("rank", "independent")  # the ranked lots feed two traversals
    graph.connect("rank", "subsumed")
    graph.connect("independent", "mix", port="ranked_0")
    graph.connect("subsumed", "mix", port="ranked_1")
    calls = _count_evaluations(engine, monkeypatch)
    run = engine.strategy(graph, query=QUERY).execute()
    assert model.calls == 1 and calls == ["strategy"]
    assert run.result.num_rows > 0
    assert set(run.block_timings) == set(graph.block_names())
    assert run.block_outputs["rank"].num_rows > 0


def _block_rows(run) -> dict:
    """Each block's output as sorted rows (ids and probabilities), or as is."""
    return {
        name: sorted(output.rows()) if isinstance(output, ProbabilisticRelation) else output
        for name, output in run.block_outputs.items()
    }


def test_a_sharded_request_returns_every_block_output(engine, tmp_path):
    local = [_block_rows(engine.strategy("auction", query=QUERY).execute()) for _ in range(2)]
    assert len(local[0]) == len(engine.strategy("auction").graph.block_names())
    with Engine.open_sharded(engine.save(tmp_path / "snap", shards=2)) as sharded:
        assert sharded.executor_info()["executor"] == "sharded"
        # the first request computes the stored subplans, the second is served them
        for expected in local:
            assert _block_rows(sharded.strategy("auction", query=QUERY).execute()) == expected


@pytest.mark.parametrize(
    ("executor", "strategy"), [("sharded", "toy"), ("pool", "auction"), ("pool", "toy")]
)
def test_every_block_output_on_the_first_scattered_request(engine, tmp_path, executor, strategy):
    local = _block_rows(engine.strategy(strategy, query=QUERY).execute())
    config = {"config": ServingConfig(workers=2)} if executor == "pool" else {}
    path = engine.save(tmp_path / "snap", shards=2)
    with Engine.open_sharded(path, executor=executor, **config) as scattered:
        assert scattered.executor_info()["executor"] == executor
        first = scattered.strategy(strategy, query=QUERY).execute()
        assert first.memoized_blocks == []
        assert _block_rows(first) == local


def test_a_sharded_request_times_the_subplans_it_computes(engine, tmp_path):
    with Engine.open_sharded(engine.save(tmp_path / "snap", shards=2)) as sharded:
        first, second = (sharded.strategy("auction", query=QUERY).execute() for _ in range(2))
    stored = second.memoized_blocks
    assert stored and first.memoized_blocks == []
    # computed on the first request, served from the materialization cache on the second
    assert all(first.block_timings[name] > 0 for name in stored)
    assert all(second.block_timings[name] == 0 for name in stored)
