"""CLI smoke tests: every subcommand, text and JSON output."""

import json
import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cli import main

SPINQL = (
    'docs = PROJECT [$1 AS docID, $6 AS data] ('
    ' JOIN INDEPENDENT [$1=$1] ('
    ' SELECT [$2="category" and $3="toy"] (triples),'
    ' SELECT [$2="description"] (triples) ) );'
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestScenarioCommands:
    def test_toy_text(self, capsys):
        code, out = run_cli(capsys, "toy", "--products", "40", "--top", "3")
        assert code == 0
        assert "query:" in out
        assert "p = " in out

    def test_toy_json(self, capsys):
        code, out = run_cli(capsys, "toy", "--products", "40", "--top", "3", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["command"] == "toy"
        assert payload["results"]
        assert {"node", "p"} <= set(payload["results"][0])

    def test_auction_json(self, capsys):
        code, out = run_cli(capsys, "auction", "--lots", "60", "--top", "2", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["command"] == "auction"
        assert len(payload["results"]) <= 2

    def test_experts_json_includes_ground_truth(self, capsys):
        code, out = run_cli(
            capsys, "experts", "--people", "10", "--documents", "40", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["command"] == "experts"
        assert "true_experts" in payload

    def test_show_strategy(self, capsys):
        code, out = run_cli(capsys, "toy", "--products", "40", "--show-strategy")
        assert code == 0
        assert "Rank by Text" in out


class TestSpinQLCommands:
    def test_spinql_text(self, capsys):
        code, out = run_cli(capsys, "spinql", SPINQL)
        assert code == 0
        assert "PRA plan:" in out
        assert "SQL translation:" in out

    def test_spinql_json(self, capsys):
        code, out = run_cli(capsys, "spinql", SPINQL, "--json")
        assert code == 0
        payload = json.loads(out)
        assert {"pra_plan", "optimized_plan", "sql"} <= set(payload)

    def test_spinql_view_name(self, capsys):
        code, out = run_cli(capsys, "spinql", SPINQL, "--view-name", "docs")
        assert code == 0
        assert "CREATE VIEW docs AS" in out

    def test_explain_text(self, capsys):
        code, out = run_cli(capsys, "explain", SPINQL)
        assert code == 0
        assert "SpinQL program:" in out
        assert "Optimized PRA plan:" in out
        assert "SQL translation:" in out

    def test_explain_json(self, capsys):
        code, out = run_cli(capsys, "explain", SPINQL, "--json")
        assert code == 0
        payload = json.loads(out)
        assert {"spinql", "pra_plan", "optimized_plan", "sql", "analysis"} <= set(payload)
        assert "cost" not in payload

    def test_explain_json_is_the_explain_data(self, capsys):
        from repro.engine import Engine

        code, out = run_cli(capsys, "explain", SPINQL, "--json", "--top-k", "3")
        assert code == 0
        expected = Engine().spinql(SPINQL).explain_data(top_k=3)
        assert json.loads(out) == {"command": "explain", **expected}


class TestTopK:
    """``--top-k`` is accepted by every subcommand."""

    def test_toy_top_k_bounds_results(self, capsys):
        code, out = run_cli(
            capsys, "toy", "--products", "40", "--top-k", "2", "--json"
        )
        assert code == 0
        assert len(json.loads(out)["results"]) <= 2

    def test_auction_top_k_bounds_results(self, capsys):
        code, out = run_cli(
            capsys, "auction", "--lots", "60", "--top-k", "2", "--json"
        )
        assert code == 0
        assert len(json.loads(out)["results"]) <= 2

    def test_experts_top_k_bounds_results(self, capsys):
        code, out = run_cli(
            capsys,
            "experts",
            "--people",
            "10",
            "--documents",
            "40",
            "--top-k",
            "3",
            "--json",
        )
        assert code == 0
        assert len(json.loads(out)["results"]) <= 3

    def test_spinql_top_k_wraps_plan(self, capsys):
        code, out = run_cli(capsys, "spinql", SPINQL, "--top-k", "5", "--json")
        assert code == 0
        payload = json.loads(out)
        assert "TOP [5]" in payload["pra_plan"]
        assert "TOP [5]" in payload["optimized_plan"]
        assert "LIMIT 5" in payload["sql"]

    def test_explain_top_k_shows_top_in_both_plans(self, capsys):
        code, out = run_cli(capsys, "explain", SPINQL, "--top-k", "3")
        assert code == 0
        raw, optimized = out.split("Optimized PRA plan:")
        assert "TOP [3]" in raw
        assert "TOP [3]" in optimized

    def test_explain_top_k_json(self, capsys):
        code, out = run_cli(capsys, "explain", SPINQL, "--top-k", "3", "--json")
        assert code == 0
        payload = json.loads(out)
        assert "TOP [3]" in payload["pra_plan"]
        assert "TOP [3]" in payload["optimized_plan"]


class TestErrors:
    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_toy_empty_category_fails(self, capsys):
        code = main(["toy", "--products", "20", "--category", "nonexistent"])
        assert code == 1


def _read_banner(server: subprocess.Popen) -> dict:
    """The JSON banner ``serve --json`` prints on its stdout pipe."""
    banner = b""
    deadline = time.monotonic() + 60.0
    while not banner.rstrip().endswith(b"\n}"):
        remaining = deadline - time.monotonic()
        ready, _, _ = select.select([server.stdout], [], [], max(remaining, 0.0))
        assert ready, f"no banner on the pipe within 60 s (got {banner!r})"
        chunk = os.read(server.stdout.fileno(), 65536)
        assert chunk, f"server exited before its banner (got {banner!r})"
        banner += chunk
    return json.loads(banner)


class TestShardingCommands:
    def _plain_snapshot(self, tmp_path) -> str:
        out = str(tmp_path / "plain")
        code = main(
            ["snapshot", "--out", out, "--scenario", "auction", "--lots", "60", "--json"]
        )
        assert code == 0
        return out

    def test_snapshot_with_shards_writes_partitioned_layout(self, tmp_path, capsys):
        from repro.storage.shards import is_sharded_snapshot

        out = str(tmp_path / "sharded")
        args = ["snapshot", "--out", out, "--scenario", "auction", "--lots", "60"]
        code = main(args + ["--shards", "2", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["shards"] == 2
        assert is_sharded_snapshot(out)

    def test_shard_repartitions_plain_snapshot(self, tmp_path, capsys):
        source = self._plain_snapshot(tmp_path)
        capsys.readouterr()
        out = str(tmp_path / "resharded")
        code = main(
            ["shard", "--from-snapshot", source, "--out", out, "--shards", "3", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["shards"] == 3 and "triples" in payload["tables"]
        # the plain snapshot still answers the scenario after re-sharding
        args = ["auction", "--from-snapshot", source, "--query", "clock", "--top", "3"]
        assert main(args) == 0
        assert capsys.readouterr().out
        # open the sharded layout directly through the engine
        from repro.engine import Engine

        with Engine.open_sharded(out) as engine:
            assert engine.executor_info()["shards"] == 3

    def test_shard_keeps_a_sharded_sources_shard_keys(self, tmp_path, capsys):
        from repro.engine import Engine
        from repro.storage.shards import read_shard_map

        source = self._plain_snapshot(tmp_path)
        with Engine.open(source) as engine:
            four = engine.save(tmp_path / "four", shards=4, shard_keys={"triples": "property"})
        out = str(tmp_path / "two")
        code = main(["shard", "--from-snapshot", str(four), "--out", out, "--shards", "2"])
        assert code == 0
        capsys.readouterr()
        shard_map = read_shard_map(out)
        assert shard_map.num_shards == 2
        assert shard_map.shard_keys["triples"] == "property"

    def test_shard_requires_source(self, capsys):
        code = main(["shard", "--out", "/tmp/nowhere", "--shards", "2"])
        assert code == 1
        assert "from-snapshot" in capsys.readouterr().err

    def test_serve_rejects_missing_snapshot(self, capsys):
        code = main(["serve", "--port", "0"])
        assert code == 1
        assert "from-snapshot" in capsys.readouterr().err

    def test_serve_json_banner_reaches_a_pipe_reader(self, tmp_path):
        """Regression (E14 FINDINGS 1): the banner sat in the block buffer of a
        piped stdout until exit, so a parent waiting for the endpoint hung."""
        from repro.engine import Engine
        from repro.workloads import generate_auction_triples

        snapshot = tmp_path / "snapshot"
        with Engine.from_triples(generate_auction_triples(30, seed=3).triples) as engine:
            engine.save(snapshot, shards=2)
        source = Path(__file__).resolve().parents[2] / "src"
        # neither -u nor PYTHONUNBUFFERED: stdout is an ordinary block-buffered pipe
        environment = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--from-snapshot", str(snapshot),
             "--workers", "0", "--port", "0", "--json"],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env={**environment, "PYTHONPATH": str(source)},
        )
        try:
            info = _read_banner(server)
            assert info["command"] == "serve"
            assert info["endpoint"].startswith("http://")
        finally:
            server.kill()
            server.wait(timeout=30)
            server.stdout.close()
        assert server.returncode is not None

    def test_serve_of_a_plain_snapshot_removes_its_staging_copy(self, tmp_path):
        """``serve`` partitions an unsharded snapshot into a temp directory and
        removes it once the router (and the workers memmapping it) closed."""
        from repro.engine import Engine
        from repro.workloads import generate_auction_triples

        snapshot = tmp_path / "plain"
        with Engine.from_triples(generate_auction_triples(30, seed=3).triples) as engine:
            engine.save(snapshot)
        temp = tmp_path / "temp"
        temp.mkdir()
        source = Path(__file__).resolve().parents[2] / "src"
        server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--from-snapshot", str(snapshot),
             "--shards", "2", "--workers", "1", "--port", "0", "--json"],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env={**os.environ, "PYTHONPATH": str(source), "TMPDIR": str(temp)},
        )
        try:
            info = _read_banner(server)
            staging = Path(info["snapshot"])
            assert staging.parent == temp and staging.name.startswith("repro-serve-shards-")
            assert info["executor"]["shards"] == 2
            server.send_signal(signal.SIGINT)
            assert server.wait(timeout=60) == 0
        finally:
            if server.poll() is None:
                server.kill()
                server.wait(timeout=30)
            server.stdout.close()
        assert not staging.exists()
        assert list(temp.glob("repro-*")) == []
