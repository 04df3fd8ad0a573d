"""Tier-1 smoke test of the E14 benchmark: ``--quick`` must emit exactly the
workloads and metrics BENCHMARK.json declares, with every answer correct."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
DECLARED = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="the benchmark refuses < 2 cores")
def test_quick_run_emits_the_declared_metrics(tmp_path):
    # the untraced and the traced pass run side by side: a smoke test checks
    # names and answers, not timings
    passes = {
        trace: subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--quick", "--seed", "5",
             "--trace", trace, "--out", str(tmp_path / f"history-{trace}.jsonl")],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for trace in ("0", "1")
    }
    for trace, process in passes.items():
        stdout, stderr = process.communicate(timeout=300)
        assert process.returncode == 0, stderr[-4000:]
        summary = json.loads(stdout.strip().splitlines()[-1])
        assert summary["claim"] is None
        assert list(summary["workloads"]) == [w["name"] for w in DECLARED["workloads"]]
        section = "per_layer" if trace == "1" else "end_to_end"
        for name, line in summary["workloads"].items():
            assert set(line) == {"correct", "attempted", "failed", "metrics"}, name
            assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1, name
            assert list(line["metrics"]) == [m["name"] for m in DECLARED[section]], name
            for metric in DECLARED[section]:
                assert line["metrics"][metric["name"]]["unit"] == metric["unit"]
