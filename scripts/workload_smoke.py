"""Workload smoke check: record → export → replay, numpy-only.

Exercises the whole workload loop the way an operator would: record a log
from a live engine, export it to JSONL, synthesize a schedule from the
export twice and assert the schedule hashes agree (the determinism claim),
replay the schedule against a fresh engine with the result cache on and
off and assert the results digests agree (the bit-identity claim) and that
the named strategy ran on one engine-owned graph per engine, however many
threads asked for it first, then run the ``workload summary`` CLI over the
export.  Exits non-zero on any failure, so CI can gate on it.

Usage::

    python scripts/workload_smoke.py [--lots 200] [--requests 60]
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--lots", type=int, default=200)
    parser.add_argument("--requests", type=int, default=60)
    args = parser.parse_args()

    from repro.engine import Engine
    from repro.relational.column import Column, DataType
    from repro.relational.relation import Relation
    from repro.relational.schema import Field, Schema
    from repro.workload import (
        EngineTarget,
        load_records,
        run_schedule,
        synthesize_schedule,
    )
    from repro.workloads import generate_auction_triples

    def build_engine(cached: bool) -> Engine:
        workload = generate_auction_triples(args.lots, seed=37)
        if cached:
            engine = Engine.from_triples(workload.triples)
        else:
            engine = Engine.from_triples(workload.triples, result_cache_size=None)
        schema = Schema(
            [Field("docID", DataType.STRING), Field("data", DataType.STRING)]
        )
        engine.create_table(
            "docs",
            Relation(
                schema,
                [
                    Column(list(workload.lot_descriptions.keys()), DataType.STRING),
                    Column(list(workload.lot_descriptions.values()), DataType.STRING),
                ],
            ),
        )
        return engine

    # 1. record a short mixed stream on a live engine and export it
    recorder = build_engine(cached=True)
    workload = generate_auction_triples(args.lots, seed=37)
    queries = [
        " ".join(description.split()[:3])
        for description in list(workload.lot_descriptions.values())[:6]
    ]
    for source in (
        'out = SELECT [$2="hasAuction"] (triples);',
        'mat = SELECT [$2="material"] (triples);',
    ):
        recorder.spinql(source).execute()
    for query in queries:
        recorder.search("docs", query).top(5)
    # the most frequent template, so the replay's threads race for its first call
    for _ in range(2):
        recorder.strategy("auction", query=queries[0]).execute()
    log_path = Path(tempfile.mkdtemp(prefix="repro-workload-smoke-")) / "workload.jsonl"
    recorder.workload_log.export(log_path)
    print(f"recorded {recorder.workload_log.statistics()['appended']} records -> {log_path}")

    # 2. determinism: same log + seed + knobs → identical schedule hash
    records = load_records(log_path)
    schedule = synthesize_schedule(
        records, num_requests=args.requests, seed=37, mode="closed", zipf_s=1.1
    )
    again = synthesize_schedule(
        records, num_requests=args.requests, seed=37, mode="closed", zipf_s=1.1
    )
    if schedule.schedule_hash() != again.schedule_hash():
        print("FAILED: schedule hash changed across identical synthesis runs")
        return 1
    print(f"schedule hash stable: {schedule.schedule_hash()[:16]}…")

    # 3. bit identity: cache-on replay digests match cache-off replay
    engines = [build_engine(cached=True), build_engine(cached=False)]
    on_report, off_report = (
        run_schedule(schedule, EngineTarget(engine), concurrency=4) for engine in engines
    )
    if on_report.errors or off_report.errors:
        print(f"FAILED: replay errors (on={on_report.errors}, off={off_report.errors})")
        return 1
    if on_report.results_digest != off_report.results_digest:
        print("FAILED: result cache changed an answer (digest mismatch)")
        return 1
    # the replay ran the strategy by name, so a further request by name is
    # served its store-only blocks from the materialization cache
    served = [
        sorted(engine.strategy("auction", query=queries[0]).execute().memoized_blocks)
        for engine in engines
    ]
    store_only = sorted(["select_lots", "lot_descriptions", "to_auctions", "auction_descriptions"])
    if served != [store_only, store_only]:
        print(f"FAILED: a replayed strategy by name was not served from the cache: {served}")
        return 1
    strategies = sum(1 for spec in schedule.requests if spec.request["kind"] == "strategy")
    print(
        f"replay bit-identical: {on_report.completed} requests "
        f"({strategies} strategies by name, served from the cache), "
        f"p95 on/off {on_report.latency['p95_ms']:.2f}/{off_report.latency['p95_ms']:.2f} ms"
    )

    # 4. the CLI reads the same export
    completed = subprocess.run(
        [sys.executable, "-m", "repro", "workload", "summary", "--log", str(log_path), "--json"],
        capture_output=True,
        text=True,
    )
    if completed.returncode != 0:
        print(f"FAILED: workload summary CLI exited {completed.returncode}\n{completed.stderr}")
        return 1
    summary = json.loads(completed.stdout)
    if summary["records"] != len(records):
        print(f"FAILED: CLI summary counted {summary['records']} != {len(records)}")
        return 1
    print(f"CLI summary ok: {summary['records']} records, kinds {summary['by_kind']}")

    print("workload smoke passed: record → export → replay loop is deterministic")
    return 0


if __name__ == "__main__":
    sys.exit(main())
