"""Engine-level snapshot tests: full round-trip, warm caches, CLI integration."""

from __future__ import annotations

import json

import pytest

from repro.engine import Engine
from repro.cli import main
from repro.relational.column import Column, DataType
from repro.relational.relation import Relation
from repro.relational.schema import Field, Schema
from repro.storage.format import MANIFEST_NAME
from repro.workloads import generate_auction_triples, generate_product_triples


@pytest.fixture(scope="module")
def product_engine():
    workload = generate_product_triples(80, seed=21)
    return Engine.from_triples(workload.triples), workload


def _docs_relation(descriptions: dict) -> Relation:
    schema = Schema([Field("docID", DataType.STRING), Field("data", DataType.STRING)])
    return Relation(
        schema,
        [
            Column(list(descriptions.keys()), DataType.STRING),
            Column(list(descriptions.values()), DataType.STRING),
        ],
    )


def test_engine_round_trip_strategy_results(tmp_path, product_engine):
    engine, workload = product_engine
    query = " ".join(next(iter(workload.descriptions.values())).split()[:3])
    expected = engine.strategy("toy", query=query).top(10)

    engine.save(tmp_path / "snap")
    reopened = Engine.open(tmp_path / "snap")
    assert reopened.strategy("toy", query=query).top(10) == expected
    assert reopened.language == engine.language
    assert reopened.triples_table == engine.triples_table


def test_engine_snapshot_warms_search_statistics(tmp_path):
    workload = generate_auction_triples(120, seed=37)
    engine = Engine.from_triples(workload.triples)
    engine.create_table("docs", _docs_relation(workload.lot_descriptions))
    query = " ".join(workload.lot_descriptions["lot1"].split()[:3])
    expected = engine.search("docs", query).top(5)

    engine.save(tmp_path / "snap")
    reopened = Engine.open(tmp_path / "snap")
    searcher = reopened._search_engine(
        "docs", model=None, expander=None, id_column="docID", text_column="data"
    )
    assert not searcher.is_warm  # statistics hydrate lazily...
    assert reopened.search("docs", query).top(5) == expected
    assert searcher.is_warm  # ...and came from the snapshot, not a rebuild
    manifest = json.loads((tmp_path / "snap" / MANIFEST_NAME).read_text())
    assert [set(entry) for entry in manifest["search_statistics"]] == [
        {"directory", "table", "id_column", "text_column"}
    ]


@pytest.mark.parametrize("pipeline, adopted", [("direct", True), ("relational", False)])
def test_3x_search_statistics_entries(tmp_path, pipeline, adopted):
    """A 3.x entry of the removed relational pipeline is skipped and rebuilt."""
    workload = generate_auction_triples(60, seed=41)
    engine = Engine.from_triples(workload.triples)
    engine.create_table("docs", _docs_relation(workload.lot_descriptions))
    query = " ".join(workload.lot_descriptions["lot1"].split()[:3])
    expected = engine.search("docs", query).top(5)
    engine.save(tmp_path / "snap")
    manifest_path = tmp_path / "snap" / MANIFEST_NAME
    manifest = json.loads(manifest_path.read_text())
    for entry in manifest["search_statistics"]:
        entry["pipeline"] = pipeline
    manifest_path.write_text(json.dumps(manifest))

    reopened = Engine.open(tmp_path / "snap")
    searcher = reopened._search_engine(
        "docs", model=None, expander=None, id_column="docID", text_column="data"
    )
    assert searcher.statistics_available is adopted
    assert reopened.search("docs", query).top(5) == expected


def test_engine_snapshot_warms_plan_cache(tmp_path, product_engine):
    engine, _ = product_engine
    program = "hits = SELECT [$2=\"category\"] (triples);"
    engine.spinql(program).execute()

    engine.save(tmp_path / "snap")
    reopened = Engine.open(tmp_path / "snap")
    misses_before = reopened.plan_cache.statistics.misses
    reopened.spinql(program).execute()
    assert reopened.plan_cache.statistics.misses == misses_before
    assert reopened.plan_cache.statistics.hits >= 1


def test_reload_after_snapshot_invalidates_and_rebuilds(tmp_path, product_engine):
    engine, _ = product_engine
    engine.save(tmp_path / "snap")
    reopened = Engine.open(tmp_path / "snap")
    before = reopened.store.num_triples
    reopened.load_triples([("extra", "type", "thing")])
    assert reopened.store.num_triples == before + 1
    matched = reopened.store.match(subject="extra")
    assert matched.relation.num_rows == 1


def test_cli_snapshot_and_from_snapshot(tmp_path, capsys):
    out = tmp_path / "snap"
    assert main(["snapshot", "--out", str(out), "--scenario", "toy",
                 "--products", "60", "--seed", "21", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["command"] == "snapshot"
    assert payload["triples"] > 0

    assert main(["toy", "--from-snapshot", str(out), "--query", "wooden", "--json"]) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["command"] == "toy"
    assert "results" in result


def test_cli_from_snapshot_requires_query(tmp_path, capsys):
    out = tmp_path / "snap"
    assert main(["snapshot", "--out", str(out), "--scenario", "toy",
                 "--products", "60", "--seed", "21"]) == 0
    capsys.readouterr()
    assert main(["toy", "--from-snapshot", str(out)]) == 1
    assert "--query" in capsys.readouterr().err


def test_cli_missing_snapshot_reports_error(capsys):
    assert main(["auction", "--from-snapshot", "/no/such/dir", "--query", "x"]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "/no/such/dir" in err


def test_cli_snapshot_rejects_conflicting_sources(tmp_path, capsys):
    out = tmp_path / "snap"
    assert main(["snapshot", "--out", str(out), "--scenario", "toy",
                 "--products", "60"]) == 0
    capsys.readouterr()
    code = main(["snapshot", "--out", str(tmp_path / "b"),
                 "--from-triples", "x.txt", "--from-snapshot", str(out)])
    assert code == 1
    assert "exactly one" in capsys.readouterr().err


def test_cli_snapshot_onto_existing_file_reports_error(tmp_path, capsys):
    target = tmp_path / "occupied"
    target.write_text("file")
    assert main(["snapshot", "--out", str(target), "--scenario", "toy",
                 "--products", "60"]) == 1
    assert "occupied" in capsys.readouterr().err


def test_cli_snapshot_from_triples_file(tmp_path, capsys):
    triples_file = tmp_path / "triples.txt"
    triples_file.write_text(
        "lot1 type lot\nlot1 description \"an antique clock\"\n", encoding="utf-8"
    )
    out = tmp_path / "snap"
    assert main(["snapshot", "--out", str(out), "--from-triples", str(triples_file)]) == 0
    assert main(["snapshot", "--out", str(out), "--from-triples", "/missing.txt"]) == 1
    assert "missing.txt" in capsys.readouterr().err
