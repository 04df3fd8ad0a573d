"""What 4.0 to 8.0 removed stays removed: one statistics path, one plan
rewriter, no request collapsing, no result-cache admission policy, a sharded
engine that serves the layout it was opened with, strategies evaluated as one
plan, not block by block, and no cost model."""

import argparse
import importlib
import re
from pathlib import Path

import pytest

import repro
from repro import serving, workload
from repro.cli import build_parser
from repro.engine import Engine, connect
from repro.ir.search import KeywordSearchEngine
from repro.relational import algebra
from repro.relational.cache import VersionedLRU
from repro.relational.database import Database
from repro.serving import Router, ServingConfig, WorkerPool
from repro.storage.shards import read_shard_map


@pytest.fixture
def engine():
    engine = connect().load_triples([("lot1", "description", "antique wooden clock")])
    yield engine
    engine.close()


def test_version():
    assert repro.__version__ == "8.0.0"
    pyproject = (Path(__file__).resolve().parents[2] / "pyproject.toml").read_text()
    assert re.findall(r'^version = "(.*)"$', pyproject, re.M) == ["8.0.0"]


def test_search_has_no_pipeline_option(engine):
    with pytest.raises(TypeError):
        engine.search("docs", "clock", pipeline="relational")
    with pytest.raises(TypeError):
        engine.search_many("docs", ["clock"], pipeline="direct")
    with pytest.raises(TypeError):
        KeywordSearchEngine(engine.database, "docs", pipeline="direct")
    assert "pipeline" not in KeywordSearchEngine(engine.database, "docs").describe()


def test_database_has_no_relational_optimizer():
    with pytest.raises(TypeError):
        Database(optimize_plans=True)
    with pytest.raises(ImportError):
        importlib.import_module("repro.relational.optimizer")


def test_serving_does_not_collapse_requests(engine):
    with pytest.raises(TypeError):
        ServingConfig(collapse_requests=False)
    _args, unknown = build_parser().parse_known_args(
        ["serve", "--from-snapshot", "snap", "--no-collapse"]
    )
    assert unknown == ["--no-collapse"]
    router = Router(engine)
    assert not hasattr(router, "_collapse_key")
    assert "collapse_hits" not in router.statistics()


def test_result_cache_is_a_plain_versioned_lru(engine):
    assert type(engine.result_cache) is VersionedLRU
    assert not hasattr(workload, "ResultCache")
    assert set(engine.connect_info()["result_cache"]) == {
        "hits", "misses", "invalidations", "evictions", "entries", "hit_rate"
    }


def test_relational_algebra_has_no_rename_node():
    assert not hasattr(algebra, "Rename")


def test_sharded_engine_keeps_its_layout(engine, tmp_path):
    assert serving.__all__ == ["Router", "ServingConfig", "WorkerPool"]
    (subcommands,) = (
        action.choices
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    assert sorted(subcommands) == [
        "auction", "check", "experts", "explain", "serve", "shard", "snapshot",
        "spinql", "toy", "workload",
    ]
    with Engine.open_sharded(engine.save(tmp_path / "snap", shards=2)) as sharded:
        assert sharded.executor_info() == {"executor": "sharded", "shards": 2}


def test_engine_has_no_online_resharding():
    for name in ("reshard", "swap_executor", "blueprint_manager"):
        assert not hasattr(Engine, name)
    with pytest.raises(ImportError):
        importlib.import_module("repro.serving.blueprint")


def test_shard_map_has_no_serving_epoch(engine, tmp_path):
    shard_map = read_shard_map(engine.save(tmp_path / "snap", shards=2))
    for name in ("epoch", "at_epoch", "with_layout"):
        assert not hasattr(shard_map, name)


def test_pool_reports_no_epoch(engine, tmp_path):
    path = engine.save(tmp_path / "snap", shards=2)
    with WorkerPool(read_shard_map(path), ServingConfig(workers=2)) as pool:
        assert [set(entry) for entry in pool.ping()] == [{"pid", "shards"}] * 2
    router = Router(
        Engine.open_sharded(path, executor="pool", config=ServingConfig(workers=2))
    )
    try:
        assert "epoch" not in router.engine.executor_info()
        assert "epoch" not in router.health()["executor"]
    finally:
        router.close()


def test_strategies_have_no_block_by_block_evaluation(engine):
    from repro.strategy.executor import LoweredBlock, LoweredStrategy, StrategyExecutor

    lowered = engine.executor.lower(engine.strategy("toy").graph)
    for name in ("plan", "tables"):
        assert not hasattr(LoweredStrategy, name)
    fields = set(LoweredBlock.__dataclass_fields__)
    assert not fields & {"local", "runnable", "stored"}
    assert not hasattr(StrategyExecutor, "_stored") and not hasattr(StrategyExecutor, "_evaluate")
    assert lowered.step("rank_bm25").plan is not None


def test_engine_has_no_cost_model(engine):
    with pytest.raises(TypeError):
        Engine(cost_model=None)
    with pytest.raises(ImportError):
        importlib.import_module("repro.workload.cost")
    assert not hasattr(workload, "CostModel") and not hasattr(workload, "CostEstimate")
    for name in ("cost_model", "estimate_cost", "calibrate_cost_model"):
        assert not hasattr(engine, name)
    query = engine.spinql('out = SELECT [$2="description"] (triples);')
    assert "Cost estimate" not in query.explain()
    assert "cost" not in query.explain_data()
