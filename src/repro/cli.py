"""Command-line interface: run the paper's scenarios without writing code.

Every subcommand drives the :class:`~repro.engine.Engine` facade:

* ``python -m repro toy --products 400 --query "wooden train"`` — the toy
  scenario (Figure 2) on a generated catalog;
* ``python -m repro auction --lots 2000 --query "antique clock"`` — the
  auction scenario (Figure 3) on a generated auction graph;
* ``python -m repro experts --query-topic 0`` — the expert-finding scenario;
* ``python -m repro spinql "<program>"`` — compile a SpinQL program and print
  its PRA plan and SQL translation;
* ``python -m repro explain "<program>"`` — the full
  :meth:`~repro.engine.query.Query.explain` report (raw plan, optimized
  plan, SQL);
* ``python -m repro snapshot --out DIR`` — build a scenario (or load a
  triples file) and save a columnar engine snapshot (see
  :mod:`repro.storage`);
* ``python -m repro workload record|summary|top|replay`` — record a
  scenario workload log to JSONL, summarize or rank an exported log, and
  replay/synthesize it as load (see :mod:`repro.workload`).

Every subcommand accepts ``--json`` for machine-readable output,
``--from-snapshot DIR`` to boot the engine from a saved snapshot instead of
regenerating data, and ``--top-k``: on the scenario subcommands it bounds
the ranked answer (a synonym of ``--top``); on ``spinql``/``explain`` it
wraps the program in a ``TOP k`` node so the reports show where the
optimizer pushes it.  The scenario subcommands print the strategy diagram
with ``--show-strategy``.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Sequence
from typing import Any

from repro.engine import Engine
from repro.errors import EngineError, ReproError
from repro.workloads import (
    generate_auction_triples,
    generate_expert_triples,
    generate_product_triples,
)


def _emit_run(
    command: str, run, args: argparse.Namespace, extra: dict[str, Any] | None = None
) -> None:
    """Print a strategy run as text or JSON, honouring ``--json`` and ``--top``."""
    results = run.top(args.top)
    if args.json:
        payload: dict[str, Any] = {
            "command": command,
            "query": run.query,
            "elapsed_ms": run.elapsed_seconds * 1000.0,
            "results": [{"node": node, "p": probability} for node, probability in results],
        }
        if extra:
            payload.update(extra)
        print(json.dumps(payload, indent=2))
        return
    print(f"query: {run.query!r}  ({run.elapsed_seconds * 1000:.1f} ms)")
    for node, probability in results:
        print(f"  {node:<14} p = {probability:.4f}")


def _run_scenario(
    args: argparse.Namespace,
    command: str,
    engine: Engine,
    strategy_name: str,
    query: str,
    extra: dict[str, Any] | None = None,
    **builder_kwargs: Any,
) -> int:
    strategy_query = engine.strategy(strategy_name, query=query, **builder_kwargs)
    if args.show_strategy and not args.json:
        print(strategy_query.explain())
    run = strategy_query.execute()
    _emit_run(command, run, args, extra)
    return 0


def _snapshot_engine(args: argparse.Namespace) -> Engine | None:
    """Open the ``--from-snapshot`` engine, or ``None`` when the flag is absent.

    Partitioned snapshots are detected from their shard map and opened
    behind the in-process scatter-gather executor, so every subcommand
    works against both layouts.
    """
    from repro.storage.shards import is_sharded_snapshot

    if not getattr(args, "from_snapshot", None):
        return None
    if is_sharded_snapshot(args.from_snapshot):
        return Engine.open_sharded(args.from_snapshot)
    return Engine.open(args.from_snapshot)


def _require_query(args: argparse.Namespace) -> str:
    if not args.query:
        raise EngineError(
            "--from-snapshot boots from saved data, so the generated workload's "
            "default query is not available; pass an explicit --query"
        )
    return args.query


def _cmd_toy(args: argparse.Namespace) -> int:
    engine = _snapshot_engine(args)
    if engine is not None:
        return _run_scenario(
            args, "toy", engine, "toy", _require_query(args), category=args.category
        )
    workload = generate_product_triples(args.products, seed=args.seed)
    engine = Engine.from_triples(workload.triples)
    query = args.query
    if not query:
        target = workload.products_in_category(args.category)
        if not target:
            print(f"no products in category {args.category!r}", file=sys.stderr)
            return 1
        query = " ".join(workload.descriptions[target[0]].split()[:3])
    return _run_scenario(args, "toy", engine, "toy", query, category=args.category)


def _cmd_auction(args: argparse.Namespace) -> int:
    engine = _snapshot_engine(args)
    if engine is None:
        workload = generate_auction_triples(args.lots, seed=args.seed)
        engine = Engine.from_triples(workload.triples)
        query = args.query or " ".join(workload.lot_descriptions["lot1"].split()[:3])
    else:
        query = _require_query(args)
    return _run_scenario(
        args,
        "auction",
        engine,
        "auction",
        query,
        lot_weight=args.lot_weight,
        auction_weight=args.auction_weight,
    )


def _cmd_experts(args: argparse.Namespace) -> int:
    engine = _snapshot_engine(args)
    extra: dict[str, Any] | None = None
    if engine is not None:
        return _run_scenario(args, "experts", engine, "experts", _require_query(args))
    workload = generate_expert_triples(args.people, args.documents, seed=args.seed)
    engine = Engine.from_triples(workload.triples)
    if args.query:
        query = args.query
    else:
        topic = workload.topics[args.query_topic % len(workload.topics)]
        query = workload.query_for_topic(topic)
        true_experts = workload.experts_on(topic)
        extra = {"topic": topic, "true_experts": true_experts}
        if not args.json:
            print(f"(query drawn from {topic}: true experts = {true_experts})")
    return _run_scenario(args, "experts", engine, "experts", query, extra)


def _cmd_spinql(args: argparse.Namespace) -> int:
    from repro.spinql import to_sql

    engine = _snapshot_engine(args) or Engine()
    query = engine.spinql(args.program)
    plan, optimized = query.plans(top_k=args.top_k)
    sql = to_sql(optimized, view_name=args.view_name)
    if args.json:
        print(
            json.dumps(
                {
                    "command": "spinql",
                    "pra_plan": plan.describe(),
                    "optimized_plan": optimized.describe(),
                    "sql": sql,
                },
                indent=2,
            )
        )
        return 0
    print("PRA plan:")
    print(plan.describe())
    print("\nSQL translation:")
    print(sql)
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    engine = _snapshot_engine(args) or Engine()
    query = engine.spinql(args.program)
    if args.json:
        print(
            json.dumps(
                {"command": "explain", **query.explain_data(top_k=args.top_k)}, indent=2
            )
        )
        return 0
    print(query.explain(top_k=args.top_k))
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    """Statically verify a SpinQL program; exit 1 when it has errors."""
    engine = _snapshot_engine(args) or Engine()
    report = engine.spinql(args.program).check(top_k=args.top_k)
    if args.json:
        print(json.dumps({"command": "check", **report.to_dict()}, indent=2))
    else:
        print(report.render())
    return 0 if report.ok else 1


def _cmd_snapshot(args: argparse.Namespace) -> int:
    if args.from_triples and args.from_snapshot:
        raise EngineError(
            "--from-triples and --from-snapshot are both data sources for the "
            "snapshot; pass exactly one"
        )
    engine = _snapshot_engine(args)
    scenario = args.scenario
    if engine is None:
        if args.from_triples:
            from repro.triples.loader import load_triples

            try:
                triples = load_triples(args.from_triples)
            except OSError as error:
                raise EngineError(
                    f"cannot read triples file {args.from_triples}: {error}"
                ) from error
            engine = Engine.from_triples(triples)
        elif scenario == "toy":
            workload = generate_product_triples(args.products, seed=args.seed)
            engine = Engine.from_triples(workload.triples)
        elif scenario == "auction":
            workload = generate_auction_triples(args.lots, seed=args.seed)
            engine = Engine.from_triples(workload.triples)
        else:
            workload = generate_expert_triples(args.people, args.documents, seed=args.seed)
            engine = Engine.from_triples(workload.triples)
    path = engine.save(args.out, shards=args.shards)
    payload = {
        "command": "snapshot",
        "path": str(path),
        "triples": engine.store.num_triples,
        "tables": engine.database.table_names(),
        "shards": args.shards,
    }
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(f"snapshot written to {path} ({payload['triples']} triples, "
              f"{len(payload['tables'])} tables)")
    return 0


def _cmd_shard(args: argparse.Namespace) -> int:
    """Re-partition a snapshot (plain or sharded) into an N-shard layout."""
    from repro.storage.shards import is_sharded_snapshot, read_shard_map

    if not args.from_snapshot:
        raise EngineError("shard needs --from-snapshot DIR (the snapshot to re-partition)")
    shard_keys: dict[str, str] = {}
    if is_sharded_snapshot(args.from_snapshot):
        # a sharded source keeps the shard keys it was partitioned on
        shard_keys = read_shard_map(args.from_snapshot).shard_keys
        engine = Engine.open_sharded(args.from_snapshot)
    else:
        engine = Engine.open(args.from_snapshot)
    try:
        path = engine.save(args.out, shards=args.shards, shard_keys=shard_keys)
    finally:
        engine.close()
    shard_map = read_shard_map(path)
    payload = {
        "command": "shard",
        "path": str(path),
        "shards": shard_map.num_shards,
        "tables": {name: shard_map.shard_keys[name] for name in shard_map.table_names},
    }
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(f"sharded snapshot written to {path} ({shard_map.num_shards} shards; "
              f"shard keys: {payload['tables']})")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Boot a router (and worker pool) over a sharded snapshot and serve HTTP."""
    import shutil
    import tempfile

    from repro.serving import Router, ServingConfig
    from repro.storage.shards import is_sharded_snapshot

    if not args.from_snapshot:
        raise EngineError("serve needs --from-snapshot DIR (a snapshot to serve)")
    path = args.from_snapshot
    if is_sharded_snapshot(path) and args.shards:
        raise EngineError(
            "--shards re-partitions an unsharded snapshot; this snapshot is already "
            "sharded (use the `shard` subcommand to change its layout)"
        )
    staging: str | None = None
    if not is_sharded_snapshot(path):
        staging = tempfile.mkdtemp(prefix="repro-serve-shards-")
    try:
        if staging is not None:
            shards = args.shards or 2
            print(f"partitioning {path} into {shards} shards under {staging} ...",
                  file=sys.stderr)
            source = Engine.open(path)
            try:
                path = str(source.save(staging, shards=shards))
            finally:
                source.close()
        config = ServingConfig.from_cli_args(args)
        engine = Engine.open_sharded(
            path,
            executor="pool" if args.workers != 0 else "sharded",
            config=config,
        )
        # the router and HTTP front end inherit the same config (admission
        # limits, host/port) from the engine — one object, four entry points
        router = Router(engine)
        server = router.serve()
        info = {
            "command": "serve",
            "endpoint": f"http://{config.host}:{server.server_address[1]}",
            "snapshot": path,
            "executor": engine.executor_info(),
            "config": config.to_dict(),
        }
        try:
            # flushed: a parent reading the endpoint from a pipe must see the
            # banner now, not when the block buffer fills or the server exits;
            # inside the try, so an interrupt sent on reading it is caught
            if args.json:
                print(json.dumps(info, indent=2), flush=True)
            else:
                print(f"serving {path} at {info['endpoint']} ({info['executor']})", flush=True)
            server.serve_forever()
        except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
            pass
        finally:
            server.server_close()
            router.close()
    finally:
        # after router.close(): the workers memmap the staging copy
        if staging is not None:
            shutil.rmtree(staging, ignore_errors=True)
    return 0


def _workload_queries(args: argparse.Namespace) -> list[str]:
    """The distinct query strings the ``workload record`` action cycles over."""
    if args.query:
        return list(args.query)
    workload = generate_auction_triples(args.lots, seed=args.seed)
    queries = [
        " ".join(description.split()[:3])
        for _lot, description in sorted(workload.lot_descriptions.items())
    ]
    return queries[: max(1, args.distinct)]


def _workload_engine(args: argparse.Namespace) -> Engine:
    engine = _snapshot_engine(args)
    if engine is not None:
        return engine
    workload = generate_auction_triples(args.lots, seed=args.seed)
    return Engine.from_triples(workload.triples)


def _cmd_workload(args: argparse.Namespace) -> int:
    """Record, summarize, rank or replay a workload log (see repro.workload)."""
    from repro.workload import (
        EngineTarget,
        load_records,
        replay_schedule,
        run_schedule,
        summarize,
        synthesize_schedule,
        top_fingerprints,
    )

    if args.action == "record":
        queries = _workload_queries(args)
        engine = _workload_engine(args)
        try:
            for index in range(args.requests):
                engine.strategy("auction", query=queries[index % len(queries)]).execute()
            engine.workload_log.export(args.out)
            payload = {
                "command": "workload",
                "action": "record",
                "out": args.out,
                **engine.workload_log.summary(top=args.top_n),
            }
        finally:
            engine.close()
    elif args.action == "summary":
        payload = {
            "command": "workload",
            "action": "summary",
            **summarize(load_records(args.log), top=args.top_n),
        }
    elif args.action == "top":
        payload = {
            "command": "workload",
            "action": "top",
            "fingerprints": top_fingerprints(load_records(args.log), args.top_n),
        }
    else:  # replay
        records = load_records(args.log)
        if args.synthesize:
            schedule = synthesize_schedule(
                records,
                num_requests=args.requests,
                seed=args.seed,
                mode=args.mode,
                zipf_s=args.zipf_s,
                rate_qps=args.rate_qps,
            )
        else:
            schedule = replay_schedule(records)
        if args.hash_only:
            print(schedule.schedule_hash())
            return 0
        engine = _workload_engine(args)
        try:
            report = run_schedule(
                schedule, EngineTarget(engine), concurrency=args.concurrency
            )
        finally:
            engine.close()
        payload = {
            "command": "workload",
            "action": "replay",
            "schedule_hash": schedule.schedule_hash(),
            **report.to_dict(),
        }
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for key, value in payload.items():
            if key == "command":
                continue
            print(f"{key}: {json.dumps(value) if isinstance(value, (dict, list)) else value}")
    return 0


def _add_common(parser: argparse.ArgumentParser, *, top: bool = True) -> None:
    parser.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON output"
    )
    parser.add_argument(
        "--from-snapshot",
        dest="from_snapshot",
        metavar="DIR",
        default=None,
        help="boot the engine from a snapshot directory (Engine.save / `repro snapshot`)",
    )
    if top:
        parser.add_argument(
            "--top",
            "--top-k",
            dest="top",
            type=int,
            default=10,
            help="how many ranked answers to print (rank-aware top-k)",
        )
    else:
        parser.add_argument(
            "--top-k",
            dest="top_k",
            type=int,
            default=None,
            help="wrap the program in a TOP k node and show where it is pushed",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Industrial-strength IR on databases — reproduction CLI",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    toy = subparsers.add_parser("toy", help="the toy scenario (Figure 2)")
    toy.add_argument("--products", type=int, default=400)
    toy.add_argument("--category", default="toy")
    toy.add_argument("--query", default="")
    toy.add_argument("--seed", type=int, default=21)
    toy.add_argument("--show-strategy", action="store_true")
    _add_common(toy)
    toy.set_defaults(handler=_cmd_toy)

    auction = subparsers.add_parser("auction", help="the auction scenario (Figure 3)")
    auction.add_argument("--lots", type=int, default=2000)
    auction.add_argument("--query", default="")
    auction.add_argument("--lot-weight", type=float, default=0.7)
    auction.add_argument("--auction-weight", type=float, default=0.3)
    auction.add_argument("--seed", type=int, default=37)
    auction.add_argument("--show-strategy", action="store_true")
    _add_common(auction)
    auction.set_defaults(handler=_cmd_auction)

    experts = subparsers.add_parser("experts", help="the expert-finding scenario")
    experts.add_argument("--people", type=int, default=60)
    experts.add_argument("--documents", type=int, default=500)
    experts.add_argument("--query", default="")
    experts.add_argument("--query-topic", type=int, default=0)
    experts.add_argument("--seed", type=int, default=77)
    experts.add_argument("--show-strategy", action="store_true")
    _add_common(experts)
    experts.set_defaults(handler=_cmd_experts)

    spinql = subparsers.add_parser("spinql", help="compile a SpinQL program")
    spinql.add_argument("program")
    spinql.add_argument("--view-name", default=None)
    _add_common(spinql, top=False)
    spinql.set_defaults(handler=_cmd_spinql)

    explain = subparsers.add_parser(
        "explain", help="full explain report for a SpinQL program"
    )
    explain.add_argument("program")
    _add_common(explain, top=False)
    explain.set_defaults(handler=_cmd_explain)

    check = subparsers.add_parser(
        "check",
        help="statically verify a SpinQL program without executing it "
        "(exit 1 on errors)",
    )
    check.add_argument("program")
    _add_common(check, top=False)
    check.set_defaults(handler=_cmd_check)

    snapshot = subparsers.add_parser(
        "snapshot", help="save a columnar engine snapshot (see repro.storage)"
    )
    snapshot.add_argument("--out", required=True, help="directory to write the snapshot to")
    snapshot.add_argument(
        "--scenario", choices=("toy", "auction", "experts"), default="auction"
    )
    snapshot.add_argument("--from-triples", default=None, metavar="FILE",
                          help="snapshot a triples text file instead of a generated scenario")
    snapshot.add_argument("--products", type=int, default=400)
    snapshot.add_argument("--lots", type=int, default=2000)
    snapshot.add_argument("--people", type=int, default=60)
    snapshot.add_argument("--documents", type=int, default=500)
    snapshot.add_argument("--seed", type=int, default=21)
    snapshot.add_argument(
        "--shards",
        type=int,
        default=None,
        help="write a partitioned snapshot with this many shards (see `repro serve`)",
    )
    _add_common(snapshot, top=False)
    snapshot.set_defaults(handler=_cmd_snapshot)

    shard = subparsers.add_parser(
        "shard", help="re-partition an existing snapshot into N shards"
    )
    shard.add_argument("--out", required=True, help="directory for the sharded snapshot")
    shard.add_argument("--shards", type=int, required=True, help="number of shards")
    _add_common(shard, top=False)
    shard.set_defaults(handler=_cmd_shard)

    serve = subparsers.add_parser(
        "serve", help="serve a (sharded) snapshot over HTTP with a worker pool"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080)
    serve.add_argument(
        "--shards",
        type=int,
        default=None,
        help="partition an unsharded --from-snapshot into this many shards first",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes (default: one per shard; 0 = in-process sharded executor)",
    )
    serve.add_argument(
        "--replicas",
        type=int,
        default=None,
        help="workers serving each shard; >= 2 survives single-worker death "
             "with transparent failover",
    )
    serve.add_argument("--max-concurrent", type=int, default=4,
                       help="requests executing at once (admission control)")
    serve.add_argument("--max-queue", type=int, default=64,
                       help="requests allowed to wait before load is shed (HTTP 503)")
    serve.add_argument("--shm-threshold", dest="shm_threshold", type=int, default=None,
                       help="reply bytes at/above which results travel via shared memory "
                            "(platform permitting; 0 sends every reply that way)")
    serve.add_argument("--health-interval", dest="health_interval_seconds", type=float,
                       default=None,
                       help="seconds between supervisor health checks of the workers")
    serve.add_argument("--retry-budget", dest="retry_budget", type=int, default=None,
                       help="failover re-routes allowed per request beyond the first try")
    _add_common(serve, top=False)
    serve.set_defaults(handler=_cmd_serve)

    workload = subparsers.add_parser(
        "workload",
        help="record, summarize, rank or replay a workload log (repro.workload)",
    )
    actions = workload.add_subparsers(dest="action", required=True)

    def _common_workload(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--json", action="store_true",
                         help="emit machine-readable JSON output")
        sub.add_argument("--top-n", dest="top_n", type=int, default=10,
                         help="fingerprints to include in summaries/rankings")

    def _scenario_workload(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--from-snapshot", dest="from_snapshot", metavar="DIR",
                         default=None,
                         help="run against a snapshot engine instead of the "
                              "generated auction scenario")
        sub.add_argument("--lots", type=int, default=200,
                         help="auction lots to generate (ignored with --from-snapshot)")
        sub.add_argument("--seed", type=int, default=37)

    record = actions.add_parser(
        "record", help="run a scenario workload and export its log as JSONL"
    )
    record.add_argument("--out", required=True, help="JSONL file for the exported log")
    record.add_argument("--requests", type=int, default=50,
                        help="how many strategy requests to issue")
    record.add_argument("--distinct", type=int, default=8,
                        help="distinct query strings to cycle over")
    record.add_argument("--query", action="append", default=None,
                        help="explicit query string (repeatable; overrides --distinct)")
    _scenario_workload(record)
    _common_workload(record)
    record.set_defaults(handler=_cmd_workload)

    summary = actions.add_parser("summary", help="summarize an exported workload log")
    summary.add_argument("--log", required=True, help="JSONL log (workload record/export)")
    _common_workload(summary)
    summary.set_defaults(handler=_cmd_workload)

    top_action = actions.add_parser("top", help="rank a log's hottest fingerprints")
    top_action.add_argument("--log", required=True)
    _common_workload(top_action)
    top_action.set_defaults(handler=_cmd_workload)

    replay = actions.add_parser(
        "replay", help="replay a log (or synthesize load from it) in-process"
    )
    replay.add_argument("--log", required=True)
    replay.add_argument("--synthesize", action="store_true",
                        help="synthesize traffic from the log's templates instead of "
                             "replaying it verbatim")
    replay.add_argument("--requests", type=int, default=100,
                        help="requests to synthesize (with --synthesize)")
    replay.add_argument("--mode", choices=("closed", "open"), default="closed")
    replay.add_argument("--zipf-s", dest="zipf_s", type=float, default=1.1,
                        help="Zipf skew over request templates (with --synthesize)")
    replay.add_argument("--rate-qps", dest="rate_qps", type=float, default=50.0,
                        help="open-loop arrival rate (with --mode open)")
    replay.add_argument("--concurrency", type=int, default=4)
    replay.add_argument("--hash-only", dest="hash_only", action="store_true",
                        help="print the deterministic schedule hash and exit "
                             "without executing")
    _scenario_workload(replay)
    _common_workload(replay)
    replay.set_defaults(handler=_cmd_workload)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    Library errors (missing snapshot directories, format-version mismatches,
    malformed programs) are reported on stderr with exit code 1 instead of a
    traceback.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
