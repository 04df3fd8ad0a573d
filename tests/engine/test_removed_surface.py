"""What 4.0 removed stays removed: one statistics path, one plan rewriter."""

import importlib

import pytest

import repro
from repro.engine import connect
from repro.ir.search import KeywordSearchEngine
from repro.relational.database import Database


@pytest.fixture
def engine():
    engine = connect().load_triples([("lot1", "description", "antique wooden clock")])
    yield engine
    engine.close()


def test_version():
    assert repro.__version__ == "4.0.0"


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
