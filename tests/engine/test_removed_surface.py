"""What 4.0 and 5.0 removed stays removed: one statistics path, one plan
rewriter, no request collapsing, no result-cache admission policy."""

import importlib

import pytest

import repro
from repro import workload
from repro.cli import build_parser
from repro.engine import connect
from repro.ir.search import KeywordSearchEngine
from repro.relational import algebra
from repro.relational.cache import VersionedLRU
from repro.relational.database import Database
from repro.serving import Router, ServingConfig


@pytest.fixture
def engine():
    engine = connect().load_triples([("lot1", "description", "antique wooden clock")])
    yield engine
    engine.close()


def test_version():
    assert repro.__version__ == "5.0.0"


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
