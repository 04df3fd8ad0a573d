"""The traced run: per-layer metrics from a ladder of rungs.

Spans inside the program are a later change (ROADMAP item 2); this file times
calls into each layer *from outside*, through public entry points only.  The
same slice of a workload's requests is replayed single-threaded at every rung
of a ladder

    HTTP POST /query -> Router.handle -> pooled Engine -> in-process sharded
    Engine -> each shard (InProcessShard over Engine.open_shard) -> local
    Engine -> the kernel (KeywordSearchEngine.search / PRAEvaluator.evaluate)

and a layer's self time is its rung minus the rung below, paired per request.
Router and pool run *inside* this process here (the untraced run measures a
``repro serve`` subprocess), so traced numbers attribute time to layers; they
are not end-to-end figures.  Spans (id, parent, name, request, start, end)
stay in memory and are written to ``results/trace-<workload>.jsonl`` once the
run is over.  Counters come from the program's own surfaces, read before and
after and diffed.

Every traced run reports every per-layer metric of BENCHMARK.json; a layer a
workload never enters reports 0.
"""

from __future__ import annotations

import json
import shutil
import statistics
import time
from collections.abc import Callable, Sequence
from pathlib import Path
from typing import Any

import corpus as corpus_module
import workloads
from loadgen import HttpClient, RequestSpec, Schedule, percentile, run_open_http
from workloads import as_json

#: blocks of the Figure-3 auction strategy graph (public ``StrategyRun.block_timings``)
AUCTION_BLOCKS = (
    "query", "select_lots", "lot_descriptions", "to_auctions", "rank_lots",
    "auction_descriptions", "rank_auctions", "back_to_lots", "mix",
)

#: every per-layer metric and its unit; BENCHMARK.json's ``per_layer`` lists the same names
PER_LAYER: dict[str, str] = {
    "frontend.self_ms_p50": "ms",
    "router.self_ms_p50": "ms",
    "router.served": "count",
    "router.shed": "count",
    "router.collapse_hits": "count",
    "router.max_rate_within_slo_qps": "1/s",
    "pool.self_ms_p50": "ms",
    "pool.null_rtt_ms_p50": "ms",
    "pool.batch_mean_occupancy": "count",
    "pool.frames": "count",
    "pool.failovers": "count",
    "pool.restarts": "count",
    "codec.search_roundtrip_us": "us",
    "codec.relation_roundtrip_us": "us",
    "codec.reply_bytes_search": "B",
    "codec.reply_bytes_relation": "B",
    "shm.roundtrip_us_64k": "us",
    "worker.compute_ms_p50": "ms",
    "worker.shard_skew": "ratio",
    "engine.search_local_ms_p50": "ms",
    "engine.gather_self_ms_p50": "ms",
    "engine.facade_self_ms_p50": "ms",
    "engine.plan_cache_hit_ratio": "ratio",
    "engine.plan_cache_entries": "count",
    "workload.result_cache_hit_ratio": "ratio",
    "workload.result_cache_evictions": "count",
    "workload.log_record_us": "us",
    "spinql.compile_ms_p50": "ms",
    "analysis.check_ms_p50": "ms",
    "pra.evaluate_ms_p50": "ms",
    "pra.rows_examined_per_result": "count",
    "relational.select_ms_per_100k_rows": "ms",
    **{f"strategy.block.{block}_ms_p50": "ms" for block in AUCTION_BLOCKS},
    "ir.search_kernel_ms_p50": "ms",
    "ir.postings_per_result": "count",
    "ir.statistics_build_ms": "ms",
    "text.analyze_us_per_doc": "us",
    "triples.load_ms_per_1k": "ms",
    "storage.save_s": "s",
    "storage.open_sharded_s": "s",
    "storage.bytes_per_triple": "B",
    "loadgen.lag_p99_ms": "ms",
    "trace.overhead_frac": "ratio",
    "trace.ladder_requests": "count",
}

#: staircase of mixed_http_open arrival rates (requests per second)
STAIRCASE_QPS = (60.0, 90.0, 135.0, 200.0, 300.0, 450.0)
SLO_MISS_LIMIT = 0.01


# ---------------------------------------------------------------------------
# spans and the ladder
# ---------------------------------------------------------------------------


class Recorder:
    """In-memory spans; ``timed`` always returns the duration, recording is optional."""

    def __init__(self) -> None:
        self.enabled = True
        self.spans: list[tuple[int, int | None, str, int, float, float]] = []
        self._latest: dict[tuple[str, int], int] = {}

    def timed(self, name: str, request: int, parent: str | None, call: Callable[[], Any]):
        started = time.perf_counter()
        value = call()
        ended = time.perf_counter()
        if self.enabled:
            span = len(self.spans)
            cause = self._latest.get((parent, request)) if parent is not None else None
            self.spans.append((span, cause, name, request, started, ended))
            self._latest[(name, request)] = span
        return ended - started, value

    def add_child(self, parent: str, request: int, name: str, seconds: float) -> None:
        """A span measured inside ``parent``'s span of ``request`` (placed at its start)."""
        cause = self._latest.get((parent, request))
        if cause is not None:
            origin = self.spans[cause][4]
            self.spans.append((len(self.spans), cause, name, request, origin, origin + seconds))

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0][4] if self.spans else 0.0
        with open(path, "w") as stream:
            for span, cause, name, request, started, ended in self.spans:
                stream.write(json.dumps({
                    "id": span, "parent": cause, "name": name, "request": request,
                    "start": started - origin, "end": ended - origin,
                }) + "\n")


Rung = tuple[str, Callable[[RequestSpec], Any]]


def climb(
    recorder: Recorder,
    rungs: Sequence[Rung],
    requests: Sequence[RequestSpec],
    *,
    before_rung: Callable[[str], None] = lambda name: None,
    reaches: Callable[[str, RequestSpec], bool] = lambda name, spec: True,
) -> tuple[dict[str, dict[int, float]], dict[str, dict[int, Any]]]:
    """Replay ``requests`` at every rung, top first; returns seconds and answers per rung."""
    seconds: dict[str, dict[int, float]] = {}
    answers: dict[str, dict[int, Any]] = {}
    parent = None
    for name, call in rungs:
        before_rung(name)
        seconds[name], answers[name] = {}, {}
        for spec in requests:
            if reaches(name, spec):
                seconds[name][spec.index], answers[name][spec.index] = recorder.timed(
                    name, spec.index, parent, lambda call=call, spec=spec: call(spec)
                )
        parent = name
    return seconds, answers


def p50_ms(seconds: Sequence[float]) -> float:
    return statistics.median(seconds) * 1000.0 if seconds else 0.0


def self_ms_p50(upper: dict[int, float], lower: dict[int, float]) -> float:
    """Median over the requests both rungs ran of (upper - lower), in milliseconds."""
    return p50_ms([upper[index] - lower[index] for index in upper if index in lower])


def disagreements(answers: dict[str, dict[int, Any]], reference: str) -> int:
    """Rung answers that differ from the ``reference`` rung's answer to the same request."""
    wrong = 0
    expected = {index: as_json(value) for index, value in answers[reference].items()}
    for name, replies in answers.items():
        if name != reference:
            wrong += sum(1 for index, value in replies.items() if as_json(value) != expected[index])
    return wrong


def base_result(name: str, schedule: Schedule, ctx: workloads.Context) -> dict[str, Any]:
    return {
        "workload": name,
        "seed": ctx.seed,
        "schedule_hash": schedule.schedule_hash(),
        "metrics": {metric: {"value": 0.0, "unit": unit} for metric, unit in PER_LAYER.items()},
        "detail": {},
    }


def put(result: dict[str, Any], metric: str, value: float, n: int | None = None) -> None:
    entry = result["metrics"][metric]  # KeyError: a metric BENCHMARK.json does not declare
    entry["value"] = float(value)
    if n is not None:
        entry["n"] = n


def put_rung_detail(result: dict[str, Any], seconds: dict[str, dict[int, float]]) -> None:
    """Every rung's own p50, so other differences than the reported ones can be taken."""
    for rung, per_request in seconds.items():
        result["detail"][f"rung.{rung}_ms_p50"] = {
            "value": p50_ms(list(per_request.values())), "unit": "ms", "n": len(per_request)
        }


def put_plan_cache(result: dict[str, Any], before: dict[str, Any], after: dict[str, Any]) -> None:
    """Plan-cache hit ratio between two ``PlanCacheStatistics.to_dict()`` reads."""
    hits = after["hits"] - before["hits"]
    lookups = hits + after["misses"] - before["misses"]
    if lookups:
        put(result, "engine.plan_cache_hit_ratio", hits / lookups)
    put(result, "engine.plan_cache_entries", after["entries"])


def put_analyze_cost(result: dict[str, Any], texts: Sequence[str]) -> Any:
    """Time the standard analyzer over ``texts``; returns the analyzer."""
    from repro.text.analyzers import StandardAnalyzer

    analyzer = StandardAnalyzer("english")
    started = time.perf_counter()
    for text in texts:
        analyzer.analyze(text)
    put(result, "text.analyze_us_per_doc", (time.perf_counter() - started) * 1e6 / len(texts))
    return analyzer


def timed_slice(call: Callable[[RequestSpec], Any], requests: Sequence[RequestSpec],
                seconds: float, limit: int) -> list[float]:
    """Run ``call`` over ``requests`` for ``seconds`` (at most ``limit``); the untraced pass.

    Its length fixes the ladder's slice and its p50 is the baseline of
    ``trace.overhead_frac``.
    """
    durations: list[float] = []
    stop_at = time.perf_counter() + seconds
    for spec in requests[:limit]:
        started = time.perf_counter()
        if started >= stop_at:
            break
        call(spec)
        durations.append(time.perf_counter() - started)
    return durations


# ---------------------------------------------------------------------------
# the in-process serving stack and its rungs
# ---------------------------------------------------------------------------


class ServingStack:
    """Reference engine, sharded snapshot, pooled engine + router + HTTP, sharded engine, shards."""

    def __init__(self, ctx: workloads.Context, corpus, result: dict[str, Any]):
        from repro.engine import Engine
        from repro.engine.executors import InProcessShard
        from repro.ir.search import KeywordSearchEngine
        from repro.pra.evaluator import PRAEvaluator
        from repro.serving import Router, ServingConfig
        from repro.storage.shards import read_shard_map, shard_rowids

        warm_query = " ".join(corpus.lot_descriptions["lot1"].split()[:3])
        descriptions = list(corpus.lot_descriptions.values())

        started = time.perf_counter()
        Engine().load_triples(corpus.triples).close()
        put(result, "triples.load_ms_per_1k",
            (time.perf_counter() - started) * 1000.0 / (len(corpus.triples) / 1000.0))
        self.analyzer = put_analyze_cost(result, descriptions[:500])

        self.reference = corpus_module.build_engine(corpus.triples, corpus.lot_descriptions)
        self.kernel = KeywordSearchEngine(self.reference.database, "docs")
        started = time.perf_counter()
        self.kernel.warm_up()
        put(result, "ir.statistics_build_ms", (time.perf_counter() - started) * 1000.0)
        self.reference.search("docs", warm_query, top_k=10).execute()
        self.evaluator = PRAEvaluator(self.reference.database)

        self.snapshot = ctx.work_dir / "trace-snapshot"
        shutil.rmtree(self.snapshot, ignore_errors=True)
        started = time.perf_counter()
        self.reference.save(self.snapshot, shards=2)
        put(result, "storage.save_s", time.perf_counter() - started)
        stored = sum(f.stat().st_size for f in self.snapshot.rglob("*") if f.is_file())
        put(result, "storage.bytes_per_triple", stored / len(corpus.triples))

        # max_concurrent=2 as in the untraced server (`repro serve --max-concurrent 2`)
        config = ServingConfig(max_concurrent=2, port=0)
        started = time.perf_counter()
        self.pooled = Engine.open_sharded(self.snapshot, executor="pool", config=config)
        self.pooled.search("docs", warm_query, top_k=10).execute()
        put(result, "storage.open_sharded_s", time.perf_counter() - started)
        self.router = Router(self.pooled)
        self.http, self._http_thread = self.router.start(port=0)
        self.address = (config.host, self.http.server_address[1])
        self.client = HttpClient(self.address)

        self.sharded = Engine.open_sharded(self.snapshot, executor="sharded")
        self.shard_map = read_shard_map(self.snapshot)
        self.shards = [
            InProcessShard(
                Engine.open_shard(self.snapshot, index), shard_rowids(self.shard_map, index)
            )
            for index in self.shard_map.shards()
        ]
        self._global_statistics = None
        self.last_shard_seconds: list[float] = []
        self.last_shard_replies: list[Any] = []
        for payload in (workloads.search_payload(warm_query), workloads.estimate_payload(0)):
            spec = RequestSpec(-1, "search" if payload["kind"] == "search" else "spinql", payload)
            for _name, call in self.rungs():
                call(spec)

    # -- one callable per rung ----------------------------------------------------

    def rungs(self) -> list[Rung]:
        return [
            ("http", lambda spec: self.client.post(spec.payload)[1].get("results")),
            ("router", lambda spec: self.router.handle(spec.payload).get("results")),
            ("pooled_engine", lambda spec: engine_answer(self.pooled, spec)),
            ("sharded_engine", lambda spec: engine_answer(self.sharded, spec)),
            ("shards", self.shards_answer),
            ("local_engine", lambda spec: engine_answer(self.reference, spec)),
            ("kernel", self.kernel_answer),
        ]

    def search_spec(self, payload: dict[str, Any]):
        from repro.engine.executors import SearchSpec
        from repro.ir.ranking import BM25Model

        return SearchSpec(
            table=payload["table"], terms=self.analyzer.analyze_query(payload["query"]),
            top_k=payload["top_k"], model=BM25Model(),
        )

    def shards_answer(self, spec: RequestSpec) -> Any:
        """What the executor asks of each shard, shard by shard, then its gather.

        The shard calls are what a worker process computes for this request;
        their seconds and raw replies are left in ``last_shard_seconds`` /
        ``last_shard_replies``.
        """
        from repro.analysis.locality import extract_segments
        from repro.engine.executors import merge_ranked
        from repro.engine.query import result_pairs
        from repro.ir.statistics import GlobalStatistics

        per_shard: list[float] = []
        replies = []
        if spec.op == "search":
            search = self.search_spec(spec.payload)
            if self._global_statistics is None:
                self._global_statistics = GlobalStatistics.merge(
                    [shard.statistics_summary(search) for shard in self.shards]
                )
            for shard in self.shards:
                started = time.perf_counter()
                replies.append(shard.search_shard(search, self._global_statistics))
                per_shard.append(time.perf_counter() - started)
            answer = merge_ranked(replies, search.top_k).as_pairs()
        else:
            top_k = spec.payload.get("top_k")
            segments: list = []
            rewritten = extract_segments(
                self.plan_of(spec), self.shard_map.is_partitioned, segments
            )
            (name, segment), = segments  # a SELECT over `triples` is one scatterable segment
            shard_plan = segment.shard_plan()
            for shard in self.shards:
                started = time.perf_counter()
                replies.append(shard.evaluate_segment(shard_plan, segment.table))
                per_shard.append(time.perf_counter() - started)
            gathered = self.evaluator.evaluate(rewritten, bindings={name: segment.gather(replies)})
            answer = result_pairs(gathered, top_k)
        self.last_shard_seconds = per_shard
        self.last_shard_replies = replies
        return answer

    def plan_of(self, spec: RequestSpec):
        """The optimized plan the engine evaluates for a SpinQL request."""
        query = self.reference.spinql(spec.payload["source"])
        top_k = spec.payload.get("top_k")
        return query.plans(top_k=top_k)[1] if top_k is not None else query.optimized_plan

    def kernel_answer(self, spec: RequestSpec) -> Any:
        from repro.engine.query import result_pairs

        if spec.op == "search":
            return self.kernel.search(spec.payload["query"], top_k=spec.payload["top_k"]).top(
                spec.payload["top_k"]
            )
        return result_pairs(self.evaluator.evaluate(self.plan_of(spec)), spec.payload.get("top_k"))

    def engines(self) -> dict[str, Any]:
        """Which engine's caches a rung exercises."""
        return {
            "http": self.pooled, "router": self.pooled, "pooled_engine": self.pooled,
            "sharded_engine": self.sharded, "local_engine": self.reference,
        }

    def close(self) -> None:
        # close the keep-alive and let the server see it before shutdown: a
        # connection still open then logs a CancelledError traceback (FINDINGS.md)
        self.client.close()
        time.sleep(0.1)
        self.http.shutdown()
        self.http.server_close()
        self._http_thread.join(timeout=10.0)
        for shard in self.shards:
            shard.close()
        self.sharded.close()
        self.router.close()
        self.reference.close()
        shutil.rmtree(self.snapshot, ignore_errors=True)


def engine_answer(engine, spec: RequestSpec) -> Any:
    """The call `Router` makes into the engine for ``spec`` (minus its static gate)."""
    from repro.engine.query import result_pairs
    from repro.ir.ranking import BM25Model

    payload = spec.payload
    if spec.op == "search":
        top_k = payload["top_k"]
        return engine.search(payload["table"], payload["query"], model=BM25Model(),
                             top_k=top_k).execute().top(top_k)
    query = engine.spinql(payload["source"])
    top_k = payload.get("top_k")
    return query.top(top_k) if top_k is not None else result_pairs(query.execute())


def serving_probes(stack: ServingStack, result: dict[str, Any],
                   search: RequestSpec, relation: RequestSpec) -> None:
    """Fixed-size probes of the serving layers nobody can time through a request."""
    from repro.serving import ServingConfig, WorkerPool
    from repro.serving import shm
    from repro.serving.codec import decode_message, encode_message
    from repro.workload.log import WorkloadLog

    def roundtrip_us(message: dict[str, Any]) -> tuple[float, int]:
        times = []
        for _ in range(200):
            started = time.perf_counter()
            frame = encode_message(message)
            decode_message(frame)
            times.append(time.perf_counter() - started)
        return statistics.median(times) * 1e6, len(frame)

    # the frames a worker would send back for these two requests, shard 0's share
    stack.shards_answer(search)
    doc_ids, scores, rows = stack.last_shard_replies[0]
    micros, size = roundtrip_us(
        {"ok": True, "value": {"doc_ids": doc_ids, "scores": scores, "rows": rows}}
    )
    put(result, "codec.search_roundtrip_us", micros)
    put(result, "codec.reply_bytes_search", size)
    stack.shards_answer(relation)
    micros, size = roundtrip_us({"ok": True, "value": stack.last_shard_replies[0]})
    put(result, "codec.relation_roundtrip_us", micros)
    put(result, "codec.reply_bytes_relation", size)

    if shm.shared_memory_available():
        frame, times = b"\x5a" * 65536, []
        for _ in range(100):
            started = time.perf_counter()
            control = shm.publish_frame(frame)
            if control is None:
                break
            shm.claim_frame(control)
            times.append(time.perf_counter() - started)
        if times:
            put(result, "shm.roundtrip_us_64k", statistics.median(times) * 1e6)

    with WorkerPool(stack.shard_map, ServingConfig()) as pool:
        pool.ping()
        times = []
        for _ in range(100):
            started = time.perf_counter()
            pool.ping()
            times.append((time.perf_counter() - started) / pool.num_workers)
        put(result, "pool.null_rtt_ms_p50", p50_ms(times))

    log, times = WorkloadLog(capacity=2048), []
    for _ in range(1000):
        started = time.perf_counter()
        log.record("serve", "serve::probe", 1.0, rows_out=10, request=search.payload,
                   executor="pool", status="ok", collapsed=None)
        times.append(time.perf_counter() - started)
    put(result, "workload.log_record_us", statistics.median(times) * 1e6)


def counters(stack: ServingStack) -> dict[str, Any]:
    """The program's own counters, from the surfaces /healthz and /statz serve."""
    health, stats = stack.router.health(), stack.router.stats()
    failovers = sum(
        1 for record in stack.pooled.workload_log.snapshot()
        if record.fingerprint == "event::failover"
    )
    return {
        "router": health["router"],
        "plan_cache": health["plan_cache"],
        "result_cache": health["result_cache"],
        "batching": stats.get("batching") or {},
        "restarts": (stats.get("replication") or {}).get("restarts", 0),
        "failovers": failovers,
    }


def put_counter_deltas(
    result: dict[str, Any], before: dict[str, Any], after: dict[str, Any]
) -> None:
    def delta(section: str, key: str) -> float:
        return after[section].get(key, 0) - before[section].get(key, 0)

    put(result, "router.served", delta("router", "served"))
    put(result, "router.shed", delta("router", "shed"))
    put(result, "router.collapse_hits", delta("router", "collapse_hits"))
    put_plan_cache(result, before["plan_cache"], after["plan_cache"])
    result_lookups = delta("result_cache", "hits") + delta("result_cache", "misses")
    if result_lookups:
        put(result, "workload.result_cache_hit_ratio",
            delta("result_cache", "hits") / result_lookups)
    put(result, "workload.result_cache_evictions", delta("result_cache", "evictions"))
    writes = delta("batching", "writes")
    put(result, "pool.frames", delta("batching", "frames"))
    if writes:
        put(result, "pool.batch_mean_occupancy", delta("batching", "frames") / writes)
    put(result, "pool.failovers", after["failovers"] - before["failovers"])
    put(result, "pool.restarts", after["restarts"] - before["restarts"])
    if after["restarts"] - before["restarts"]:
        raise RuntimeError("a worker restarted during the traced run: the numbers are void")


def put_ladder(result: dict[str, Any], stack: ServingStack, seconds: dict[str, dict[int, float]],
               shard_seconds: dict[int, list[float]], requests: Sequence[RequestSpec]) -> None:
    put(result, "frontend.self_ms_p50", self_ms_p50(seconds["http"], seconds["router"]))
    put(result, "router.self_ms_p50", self_ms_p50(seconds["router"], seconds["pooled_engine"]))
    # The in-process sharded engine fans out on a thread pool and turns out slower
    # than the pooled one (FINDINGS.md), so "pooled - sharded" would be negative.
    # The pool's floor is instead what a free transport would leave: the shards
    # rung with its shard calls overlapped (slowest shard + analysis + merge).
    computed = {index: sum(times) for index, times in shard_seconds.items()}
    overlapped = {
        index: seconds["shards"][index] - computed[index] + max(shard_seconds[index])
        for index in computed
    }
    put(result, "pool.self_ms_p50", self_ms_p50(seconds["pooled_engine"], overlapped))
    put(result, "engine.gather_self_ms_p50", self_ms_p50(seconds["sharded_engine"], computed))
    put(result, "worker.compute_ms_p50", p50_ms([max(times) for times in shard_seconds.values()]))
    put(result, "worker.shard_skew", statistics.median(
        [max(times) / (sum(times) / len(times)) for times in shard_seconds.values()]
    ))
    put(result, "engine.search_local_ms_p50", p50_ms(
        [seconds["local_engine"][spec.index] for spec in requests if spec.op == "search"]
    ))
    put(result, "engine.facade_self_ms_p50",
        self_ms_p50(seconds["local_engine"], seconds["kernel"]))
    put(result, "ir.search_kernel_ms_p50", p50_ms(
        [seconds["kernel"][spec.index] for spec in requests
         if spec.op == "search" and spec.index in seconds["kernel"]]
    ))
    statistics_ = stack.kernel.statistics
    postings = []
    for spec in requests:
        if spec.op == "search":
            terms = set(stack.analyzer.analyze_query(spec.payload["query"]))
            found = sum(
                int(statistics_.document_frequency[statistics_.term_ids[term]])
                for term in terms if term in statistics_.term_ids
            )
            postings.append(found / spec.payload["top_k"])
    put(result, "ir.postings_per_result", statistics.fmean(postings), len(postings))
    put(result, "trace.ladder_requests", len(requests))
    put_rung_detail(result, seconds)


def traced_climb(stack: ServingStack, recorder: Recorder, requests: Sequence[RequestSpec],
                 *, reset_caches: bool):
    """Climb the serving ladder; with ``reset_caches`` every engine rung starts
    from an empty result and plan cache, so request i is a hit at every rung or
    at none, and the rungs below an engine only see the requests that missed."""
    engines = stack.engines()
    outcome: dict[str, dict[int, bool]] = {}
    shard_seconds: dict[int, list[float]] = {}
    below = {"shards": "sharded_engine", "kernel": "local_engine"}

    def before_rung(name: str) -> None:
        engine = engines.get(name)
        if reset_caches and engine is not None:
            engine.result_cache.clear()
            engine.plan_cache.clear()

    def reaches(name: str, spec: RequestSpec) -> bool:
        return name not in below or not outcome[below[name]].get(spec.index, False)

    def wrap(name: str, call: Callable[[RequestSpec], Any]) -> Callable[[RequestSpec], Any]:
        engine = engines.get(name)

        def run(spec: RequestSpec) -> Any:
            hits = engine.result_cache.statistics.hits if engine is not None else 0
            answer = call(spec)
            if engine is not None:
                hit = engine.result_cache.statistics.hits > hits
                outcome.setdefault(name, {})[spec.index] = hit
            if name == "shards":
                shard_seconds[spec.index] = stack.last_shard_seconds
            return answer

        return run

    rungs = [(name, wrap(name, call)) for name, call in stack.rungs()]
    seconds, answers = climb(recorder, rungs, requests, before_rung=before_rung, reaches=reaches)
    for index, times in shard_seconds.items():
        for shard, duration in enumerate(times):
            recorder.add_child("shards", index, f"shard{shard}", duration)
    return seconds, answers, shard_seconds


def finish(ctx: workloads.Context, result: dict[str, Any], recorder: Recorder, name: str,
           attempted: int, failed: int) -> dict[str, Any]:
    recorder.write(ctx.results_dir / f"trace-{name}.jsonl")
    result.update(attempted=attempted, failed=failed, correct=failed == 0)
    result["detail"]["spans"] = len(recorder.spans)
    return result


def overhead(untraced: Sequence[float], traced: dict[int, float]) -> float:
    baseline = statistics.median(untraced)
    return (statistics.median(traced.values()) - baseline) / baseline


# ---------------------------------------------------------------------------
# one traced run per workload
# ---------------------------------------------------------------------------


def trace_search_http_closed(ctx: workloads.Context) -> dict[str, Any]:
    name = "search_http_closed"
    corpus = corpus_module.auction_corpus(ctx.sizes.http_lots)
    descriptions = list(corpus.lot_descriptions.values())
    schedule = workloads.search_schedule(ctx.seed, descriptions, 2000)
    result = base_result(name, schedule, ctx)
    recorder = Recorder()
    stack = ServingStack(ctx, corpus, result)
    try:
        relation = RequestSpec(-2, "relation", workloads.relation_payload(corpus.auction_ids[0]))
        serving_probes(stack, result, schedule.requests[0], relation)
        top = stack.rungs()[0][1]
        untraced = timed_slice(top, schedule.requests, ctx.seconds / 4, 2000)
        requests = schedule.requests[: len(untraced)]
        before = counters(stack)
        seconds, answers, shard_seconds = traced_climb(
            stack, recorder, requests, reset_caches=False
        )
        put_counter_deltas(result, before, counters(stack))
        put_ladder(result, stack, seconds, shard_seconds, requests)
        put(result, "trace.overhead_frac", overhead(untraced, seconds["http"]))
        failed = disagreements(answers, "local_engine")
    finally:
        stack.close()
    attempted = sum(len(per_rung) for per_rung in seconds.values())
    return finish(ctx, result, recorder, name, attempted, failed)


def staircase(stack: ServingStack, traffic: workloads.MixedTraffic, ctx: workloads.Context,
              result: dict[str, Any]) -> tuple[int, int]:
    """Offer the mixed traffic at each rate in turn (half the budget in all); the
    highest consecutive step that keeps SLO misses within 1 % with no growing
    send lag is the reported rate (it moves in x1.5 steps: reported, not gated)."""
    best, climbing, attempted, failed, lags = 0.0, True, 0, 0, []
    steps = {}
    for step, rate in enumerate(STAIRCASE_QPS):
        schedule = traffic.schedule(
            ctx.seed + 101 * (step + 1), rate, ctx.seconds / (2 * len(STAIRCASE_QPS))
        )
        samples = run_open_http(stack.address, schedule.requests, clients=workloads.CLIENTS,
                                keep=lambda index: False)
        misses = sum(1 for s in samples if not s.ok or s.latency_ms > workloads.SLO_MS)
        lag = [(s.sent - s.due) * 1000.0 for s in samples]
        half = len(lag) // 2
        growing = half > 0 and statistics.fmean(lag[half:]) > statistics.fmean(lag[:half]) + 10.0
        within = misses / len(samples) <= SLO_MISS_LIMIT and not growing
        steps[str(rate)] = {"requests": len(samples), "slo_miss_frac": misses / len(samples),
                            "lag_growing": growing, "within_slo": within}
        climbing = climbing and within  # only consecutive passing steps count
        if climbing:
            best = rate
        attempted += len(samples)
        failed += sum(1 for s in samples if not s.ok)
        if rate == workloads.MIXED_RATE_QPS:
            lags = sorted(lag)
    result["detail"]["staircase"] = steps
    put(result, "router.max_rate_within_slo_qps", best)
    if lags:
        put(result, "loadgen.lag_p99_ms", percentile(lags, 0.99), len(lags))
    return attempted, failed


def spinql_probes(stack: ServingStack, result: dict[str, Any], requests: Sequence[RequestSpec],
                  seconds: dict[str, dict[int, float]], answers: dict[str, dict[int, Any]]) -> None:
    """compile / static check / evaluate / select, each timed on its own."""
    from repro.relational.algebra import Select
    from repro.relational.expressions import col

    reference = stack.reference
    sources = [spec for spec in requests if spec.op != "search"][:40]
    compile_times, check_times = [], []
    for spec in sources:
        reference.plan_cache.clear()
        query = reference.spinql(spec.payload["source"])
        started = time.perf_counter()
        query.plans(top_k=spec.payload.get("top_k"))
        compile_times.append(time.perf_counter() - started)
        started = time.perf_counter()
        query.check(top_k=spec.payload.get("top_k"), hydrate=False)
        check_times.append(time.perf_counter() - started)
    put(result, "spinql.compile_ms_p50", p50_ms(compile_times), len(compile_times))
    put(result, "analysis.check_ms_p50", p50_ms(check_times), len(check_times))

    evaluated = [
        spec for spec in requests if spec.op != "search" and spec.index in seconds["kernel"]
    ]
    put(result, "pra.evaluate_ms_p50",
        p50_ms([seconds["kernel"][spec.index] for spec in evaluated]), len(evaluated))
    rows = reference.database.table("triples").num_rows
    put(result, "pra.rows_examined_per_result", statistics.fmean(
        rows / max(1, len(answers["kernel"][spec.index])) for spec in evaluated
    ) if evaluated else 0.0)
    plan = Select(reference.database.scan("triples"),
                  col("property").eq("estimate").and_(col("object").eq("123")))
    times = []
    for _ in range(5):
        started = time.perf_counter()
        reference.database.execute(plan, use_cache=False)
        times.append(time.perf_counter() - started)
    put(result, "relational.select_ms_per_100k_rows", p50_ms(times) / (rows / 100_000.0))


def trace_mixed_http_open(ctx: workloads.Context) -> dict[str, Any]:
    name = "mixed_http_open"
    corpus = corpus_module.auction_corpus(ctx.sizes.mixed_lots)
    traffic = workloads.MixedTraffic.draw(ctx.seed, corpus, ctx.sizes.templates)
    schedule = traffic.schedule(ctx.seed, workloads.MIXED_RATE_QPS, ctx.seconds)
    result = base_result(name, schedule, ctx)
    recorder = Recorder()
    stack = ServingStack(ctx, corpus, result)
    try:
        relation = next(
            (spec for spec in schedule.requests if spec.op == "relation"),
            RequestSpec(-2, "relation", workloads.relation_payload(traffic.auctions[0])),
        )
        search = next(spec for spec in schedule.requests if spec.op == "search")
        serving_probes(stack, result, search, relation)
        # counters under the real arrival process: prime as the untraced run does,
        # then read the program's counters around the whole staircase
        for payload in traffic.priming(ctx.sizes.primed_templates):
            stack.client.post(payload)
        before = counters(stack)
        attempted, failed = staircase(stack, traffic, ctx, result)
        put_counter_deltas(result, before, counters(stack))

        top = stack.rungs()[0][1]
        stack.pooled.result_cache.clear()
        stack.pooled.plan_cache.clear()
        untraced = timed_slice(top, schedule.requests, ctx.seconds / 16, 2000)
        requests = schedule.requests[: len(untraced)]
        seconds, answers, shard_seconds = traced_climb(stack, recorder, requests, reset_caches=True)
        put_ladder(result, stack, seconds, shard_seconds, requests)
        put(result, "trace.overhead_frac", overhead(untraced, seconds["http"]))
        spinql_probes(stack, result, requests, seconds, answers)
        failed += disagreements(answers, "local_engine")
    finally:
        stack.close()
    attempted += sum(len(per_rung) for per_rung in seconds.values())
    return finish(ctx, result, recorder, name, attempted, failed)


def trace_strategy_inproc_closed(ctx: workloads.Context) -> dict[str, Any]:
    from repro.strategy.prebuilt import build_auction_strategy

    name = "strategy_inproc_closed"
    corpus = corpus_module.auction_corpus(ctx.sizes.strategy_lots)
    descriptions = list(corpus.lot_descriptions.values())
    schedule = workloads.strategy_schedule(ctx.seed, descriptions, int(50 * ctx.seconds) + 20)
    result = base_result(name, schedule, ctx)
    recorder = Recorder()
    engine = workloads.warm_local_engine(corpus.triples, corpus.lot_descriptions)
    reused_graph = build_auction_strategy()
    fresh_graphs: dict[int, Any] = {}
    runs: dict[int, Any] = {}

    def facade(spec: RequestSpec) -> Any:
        runs[spec.index] = run = engine.strategy("auction", query=spec.payload["query"]).execute()
        return run.top(10)

    def executor(spec: RequestSpec) -> Any:
        # a fresh graph per call, as the facade builds one, but built outside the timing
        return engine.executor.run(fresh_graphs[spec.index], query=spec.payload["query"]).top(10)

    def executor_reusing_graph(spec: RequestSpec) -> Any:
        return engine.executor.run(reused_graph, query=spec.payload["query"]).top(10)

    try:
        untraced = timed_slice(facade, schedule.requests, ctx.seconds / 4, 2000)
        requests = schedule.requests[: len(untraced)]
        fresh_graphs = {spec.index: build_auction_strategy() for spec in requests}
        plan_before = engine.plan_cache.statistics.to_dict()
        seconds, answers = climb(
            recorder,
            [("engine_strategy", facade), ("strategy_executor", executor),
             ("strategy_executor_reused_graph", executor_reusing_graph)],
            requests,
        )
        plan_after = engine.plan_cache.statistics.to_dict()
    finally:
        engine.close()
    put(result, "engine.facade_self_ms_p50",
        self_ms_p50(seconds["engine_strategy"], seconds["strategy_executor"]))
    for block in AUCTION_BLOCKS:
        put(result, f"strategy.block.{block}_ms_p50",
            p50_ms([runs[spec.index].block_timings[block] for spec in requests]), len(requests))
    put_plan_cache(result, plan_before, plan_after)
    put(result, "trace.overhead_frac", overhead(untraced, seconds["engine_strategy"]))
    put(result, "trace.ladder_requests", len(requests))
    put_rung_detail(result, seconds)
    attempted = sum(len(per_rung) for per_rung in seconds.values())
    failed = disagreements(answers, "strategy_executor")
    return finish(ctx, result, recorder, name, attempted, failed)


def trace_ingest_query_inproc(ctx: workloads.Context) -> dict[str, Any]:
    """Cycles as in the untraced run, with load_triples / create_table / first
    search / statistics build timed apart; the oracle is the bulk-built engine."""
    from repro.ir.search import KeywordSearchEngine

    name = "ingest_query_inproc"
    per_cycle = 1 + workloads.INGEST_SEARCHES + workloads.INGEST_STRATEGIES
    plan = workloads.IngestPlan.build(
        ctx.seed, ctx.sizes.ingest_lots, workloads.INGEST_EPOCH_CYCLES
    )
    result = base_result(name, plan.schedule, ctx)
    recorder = Recorder()
    requests = plan.schedule.requests
    loads, builds, blocks = [], [], {block: [] for block in AUCTION_BLOCKS}
    searches: dict[bool, dict[int, float]] = {False: {}, True: {}}  # by pass: untraced, traced
    attempted = failed = 0
    engine = plan.base_engine()
    try:
        for traced_pass in (False, True):
            engine.close()
            engine = plan.base_engine()
            recorder.enabled = traced_pass
            stop_at = time.perf_counter() + ctx.seconds * (0.6 if traced_pass else 0.3)
            for cycle in range(workloads.INGEST_EPOCH_CYCLES):
                if time.perf_counter() >= stop_at:
                    break
                triples, docs = plan.batches[cycle]
                ingest = requests[cycle * per_cycle]
                seconds, _ = recorder.timed("triples.load", ingest.index, None,
                                            lambda triples=triples: engine.load_triples(triples))
                recorder.timed("engine.create_table", ingest.index, None,
                               lambda docs=docs: engine.create_table("docs", docs, replace=True))
                if traced_pass:
                    loads.append(seconds * 1000.0 / (len(triples) / 1000.0))
                    started = time.perf_counter()
                    KeywordSearchEngine(engine.database, "docs").warm_up()
                    builds.append(time.perf_counter() - started)
                for spec in requests[cycle * per_cycle + 1 : (cycle + 1) * per_cycle]:
                    attempted += 1
                    if spec.op == "search":
                        searches[traced_pass][spec.index], _ = recorder.timed(
                            "engine.search", spec.index, None,
                            lambda spec=spec: workloads.answer(engine, spec),
                        )
                        continue
                    run = engine.strategy("auction", query=spec.payload["query"]).execute()
                    if traced_pass:
                        for block in AUCTION_BLOCKS:
                            blocks[block].append(run.block_timings[block])
                if traced_pass:
                    oracle = plan.scratch_engine(cycle)
                    try:
                        last = requests[(cycle + 1) * per_cycle - 1]
                        served = workloads.answer(engine, last)
                        if as_json(served) != as_json(workloads.answer(oracle, last)):
                            failed += 1
                    finally:
                        oracle.close()
        plan_cache = engine.plan_cache.statistics.to_dict()
    finally:
        engine.close()
    traced = searches[True]
    put_analyze_cost(result, list(plan.corpus.lot_descriptions.values())[:500])
    put(result, "triples.load_ms_per_1k", statistics.median(loads), len(loads))
    put(result, "ir.statistics_build_ms", p50_ms(builds), len(builds))
    put(result, "engine.search_local_ms_p50", p50_ms(list(traced.values())), len(traced))
    for block in AUCTION_BLOCKS:
        put(result, f"strategy.block.{block}_ms_p50", p50_ms(blocks[block]), len(blocks[block]))
    put_plan_cache(result, {"hits": 0, "misses": 0}, plan_cache)
    put(result, "trace.overhead_frac", overhead(list(searches[False].values()), traced))
    put(result, "trace.ladder_requests", len(traced))
    return finish(ctx, result, recorder, name, attempted, failed)


TRACERS: dict[str, Callable[[workloads.Context], dict[str, Any]]] = {
    "search_http_closed": trace_search_http_closed,
    "strategy_inproc_closed": trace_strategy_inproc_closed,
    "mixed_http_open": trace_mixed_http_open,
    "ingest_query_inproc": trace_ingest_query_inproc,
}
