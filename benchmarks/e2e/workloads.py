"""The four workloads: schedules, untraced runs and the correctness gate.

Each ``run_*`` function boots what it needs through public entry points,
drives one workload for ``ctx.seconds``, checks answers against a local
reference engine and returns a result dict: the end-to-end metrics every
workload reports (the ones BENCHMARK.json gates), workload-specific extras
under ``detail`` (gated by ``compare.py``), counts, and the two hashes.

Why these four: see README.md ("Workloads").
"""

from __future__ import annotations

import json
import math
import os
import random
import resource
import shutil
import statistics
import time
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import corpus as corpus_module
from loadgen import (
    HttpClient,
    RequestSpec,
    Sample,
    Schedule,
    ZipfSampler,
    percentile,
    results_digest,
    run_closed_http,
    run_closed_inproc,
    run_open_http,
)
from server import ServerProcess

#: the paper's latency figure: a request slower than this misses the SLO
SLO_MS = 150.0

#: load-generator clients; the box has two cores and the server needs one
CLIENTS = 2

#: every N-th reply is compared bit-for-bit with the reference engine
VERIFY_EVERY = 50

#: open-loop arrival rate of mixed_http_open (requests per second)
MIXED_RATE_QPS = 60.0

#: mixed_http_open: 40 % of requests are SpinQL (a tenth of them whole-relation
#: replies), their values Zipf(1.3)-drawn; search templates are Zipf(1.1).
#: With the 24 hottest values primed this puts the result-cache hit ratio at
#: 0.68-0.76 and the cold share of all requests at 10-13 % whatever the seed, so
#: p50 is firmly a fast request and p95 firmly a cold one (see README.md).
SPINQL_SHARE = 0.40
SPINQL_ZIPF_S = 1.3

#: ingest_query_inproc: reads per cycle and cycles before the engine is rebuilt
INGEST_SEARCHES = 40
INGEST_STRATEGIES = 4
INGEST_BATCH_LOTS = 50  # 200 triples
INGEST_EPOCH_CYCLES = 10


@dataclass(frozen=True)
class Sizes:
    """Corpus sizes and warm-up budgets; ``--quick`` shrinks all of them."""

    http_lots: int = 12000
    mixed_lots: int = 4000
    strategy_lots: int = 4000
    ingest_lots: int = 2000
    setup_repeats: int = 3
    warmup_seconds: float = 1.5
    templates: int = 2000  # search templates and SpinQL values of the mixed workload
    primed_templates: int = 24  # hot SpinQL values made cache-resident before timing


FULL = Sizes()
QUICK = Sizes(
    http_lots=300,
    mixed_lots=300,
    strategy_lots=300,
    ingest_lots=300,
    setup_repeats=1,
    warmup_seconds=0.2,
    templates=200,
    primed_templates=4,
)

#: replies hashed into ``results_digest`` (a prefix every full run gets past)
DIGEST_REQUESTS = {
    "search_http_closed": 1000,
    "strategy_inproc_closed": 20,
    "mixed_http_open": 300,
    "ingest_query_inproc": 3 * (1 + INGEST_SEARCHES + INGEST_STRATEGIES),
}


@dataclass
class Context:
    seed: int
    seconds: float
    sizes: Sizes
    work_dir: Path  # scratch space, removed after the run
    results_dir: Path  # where span files go
    source_dir: Path
    log: Callable[[str], None]


# ---------------------------------------------------------------------------
# request generation (everything below draws from random.Random(seed) only)
# ---------------------------------------------------------------------------


def _three_terms(rng: random.Random, descriptions: list[str]) -> str:
    return " ".join(rng.sample(rng.choice(descriptions).split(), 3))


def distinct_queries(rng: random.Random, descriptions: list[str], count: int) -> list[str]:
    """``count`` all-distinct 3-term queries, each drawn from one lot description."""
    seen: set[str] = set()
    queries: list[str] = []
    while len(queries) < count:
        query = _three_terms(rng, descriptions)
        if query not in seen:
            seen.add(query)
            queries.append(query)
    return queries


def search_payload(query: str) -> dict[str, Any]:
    return {"kind": "search", "table": "docs", "query": query, "top_k": 10}


def estimate_payload(value: int) -> dict[str, Any]:
    source = f'out = SELECT [$2="estimate" and $3="{value}"] (triples);'
    return {"kind": "spinql", "source": source, "top_k": 10}


def relation_payload(auction: str) -> dict[str, Any]:
    # no top_k: the whole ~300-row relation travels back (codec relation path / shm)
    source = f'out = SELECT [$2="hasAuction" and $3="{auction}"] (triples);'
    return {"kind": "spinql", "source": source}


def search_schedule(seed: int, descriptions: list[str], count: int) -> Schedule:
    rng = random.Random(seed)
    requests = tuple(
        RequestSpec(index, "search", search_payload(query))
        for index, query in enumerate(distinct_queries(rng, descriptions, count))
    )
    return Schedule("search_http_closed", seed, "closed", requests)


def strategy_schedule(seed: int, descriptions: list[str], count: int) -> Schedule:
    rng = random.Random(seed)
    requests = tuple(
        RequestSpec(index, "strategy", {"query": query})
        for index, query in enumerate(distinct_queries(rng, descriptions, count))
    )
    return Schedule("strategy_inproc_closed", seed, "closed", requests)


@dataclass
class MixedTraffic:
    """The mixed workload's templates: what is hot is a function of the seed."""

    searches: list[str]
    estimates: list[int]
    auctions: list[str]

    @classmethod
    def draw(cls, seed: int, corpus, templates: int) -> "MixedTraffic":
        rng = random.Random(seed)
        descriptions = list(corpus.lot_descriptions.values())
        estimates = list(range(10, 5000))
        rng.shuffle(estimates)
        auctions = list(corpus.auction_ids)
        rng.shuffle(auctions)
        return cls(
            searches=distinct_queries(rng, descriptions, templates),
            estimates=estimates[:templates],
            auctions=auctions,
        )

    def schedule(self, seed: int, rate_qps: float, seconds: float) -> Schedule:
        """Poisson arrivals at ``rate_qps`` for ``seconds``; 60/36/4 search/top-k/relation.

        Given their count, Poisson arrivals are independent uniform draws, so
        the schedule fixes the count at rate x seconds (every run offers the
        same load) and sorts uniform due times.
        """
        rng = random.Random(seed + 1)
        search_rank = ZipfSampler(len(self.searches), 1.1)
        estimate_rank = ZipfSampler(len(self.estimates), SPINQL_ZIPF_S)
        auction_rank = ZipfSampler(len(self.auctions), 1.1)
        count = max(1, round(rate_qps * seconds))
        due_times = sorted(rng.uniform(0.0, seconds) for _ in range(count))
        requests = []
        for index, due in enumerate(due_times):
            kind = rng.random()
            if kind < 1.0 - SPINQL_SHARE:
                spec = RequestSpec(
                    index, "search", search_payload(self.searches[search_rank.draw(rng)]), due
                )
            elif kind < 1.0 - SPINQL_SHARE / 10:
                value = self.estimates[estimate_rank.draw(rng)]
                spec = RequestSpec(index, "spinql", estimate_payload(value), due)
            else:
                auction = self.auctions[auction_rank.draw(rng)]
                spec = RequestSpec(index, "relation", relation_payload(auction), due)
            requests.append(spec)
        return Schedule("mixed_http_open", seed, "open", tuple(requests))

    def priming(self, count: int) -> list[dict[str, Any]]:
        """The hottest SpinQL templates, twice each: the result cache admits on
        the second sighting, so after this the timed run starts near the
        steady-state hit ratio instead of from an empty cache."""
        hot = [estimate_payload(value) for value in self.estimates[:count]]
        hot += [relation_payload(auction) for auction in self.auctions[: max(1, count // 8)]]
        return [payload for payload in hot for _ in range(2)]


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def keep_rule(digest_requests: int) -> Callable[[int], bool]:
    return lambda index: index < digest_requests or index % VERIFY_EVERY == 0


def latency_metrics(samples: list[Sample], prefix: str = "latency") -> dict[str, dict[str, Any]]:
    """p50/p95 (and p99 once 1,000 requests completed) of the successful samples."""
    ordered = sorted(sample.latency_ms for sample in samples if sample.ok)
    if not ordered:
        return {}
    metrics = {
        f"{prefix}_p50_ms": {"value": percentile(ordered, 0.50), "unit": "ms", "n": len(ordered)},
        f"{prefix}_p95_ms": {"value": percentile(ordered, 0.95), "unit": "ms", "n": len(ordered)},
    }
    if len(ordered) >= 1000:  # at least ten samples beyond the percentile
        metrics[f"{prefix}_p99_ms"] = {
            "value": percentile(ordered, 0.99), "unit": "ms", "n": len(ordered)
        }
    return metrics


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def as_json(value: Any) -> Any:
    return json.loads(json.dumps(value))


def verify(
    samples: list[Sample],
    requests: tuple[RequestSpec, ...],
    expected: Callable[[RequestSpec], Any],
) -> int:
    """Compare every ``VERIFY_EVERY``-th reply with ``expected``; returns mismatches.

    Replies travel as JSON, so the reference answer is normalised through the
    same encoding before the comparison: ids, scores and tie order must be
    identical.
    """
    mismatches = 0
    for sample in samples:
        if not sample.ok or sample.index % VERIFY_EVERY:
            continue
        if as_json(sample.results) != as_json(expected(requests[sample.index])):
            mismatches += 1
    return mismatches


def summarize(
    name: str,
    schedule: Schedule,
    samples: list[Sample],
    *,
    mismatches: int,
    elapsed: float,
    setup_seconds: list[float],
    peak_rss: float,
    digest_requests: int,
    detail: dict[str, dict[str, Any]],
) -> dict[str, Any]:
    attempted = len(samples)
    completed = sum(1 for sample in samples if sample.ok)
    failed = attempted - completed + mismatches
    metrics = {
        "setup_s": {
            "value": statistics.median(setup_seconds), "unit": "s", "n": len(setup_seconds)
        },
        "peak_rss_mb": {"value": peak_rss, "unit": "MiB", "n": 1},
        "throughput_qps": {"value": completed / elapsed, "unit": "1/s", "n": completed},
    }
    overall = latency_metrics(samples)
    metrics["latency_p50_ms"] = overall["latency_p50_ms"]
    metrics["latency_p95_ms"] = overall["latency_p95_ms"]
    if "latency_p99_ms" in overall:
        detail["latency_p99_ms"] = overall["latency_p99_ms"]
    detail["error_frac"] = {"value": failed / attempted, "unit": "frac", "n": attempted}
    return {
        "workload": name,
        "seed": schedule.seed,
        "schedule_hash": schedule.schedule_hash(),
        "results_digest": results_digest(samples, digest_requests),
        "digest_complete": attempted >= digest_requests,
        "attempted": attempted,
        "failed": failed,
        "correct": mismatches == 0,
        "metrics": metrics,
        "detail": detail,
    }


# ---------------------------------------------------------------------------
# the HTTP stack: local reference engine -> sharded snapshot -> repro serve
# ---------------------------------------------------------------------------


@dataclass
class HttpStack:
    reference: Any  # the local Engine the snapshot was saved from
    server: ServerProcess
    snapshot: Path

    def close(self) -> dict[str, Any]:
        report = self.server.stop()
        self.reference.close()
        shutil.rmtree(self.snapshot, ignore_errors=True)
        return report


def repeated_setup(ctx: Context, boot: Callable[[int], Any], close: Callable[[Any], Any]):
    """Set up ``setup_repeats`` times, closing all but the last; returns what the
    last ``boot(ordinal)`` built and every set-up's seconds (``setup_s`` is their median)."""
    timings: list[float] = []
    built = None
    for ordinal in range(ctx.sizes.setup_repeats):
        if built is not None:
            close(built)
        started = time.perf_counter()
        built = boot(ordinal)
        timings.append(time.perf_counter() - started)
        ctx.log(f"setup {ordinal + 1}/{ctx.sizes.setup_repeats}: {timings[-1]:.3f} s")
    return built, timings


def boot_http_stack(
    ctx: Context, corpus, ordinal: int, server_cpus: set[int] | None = None
) -> HttpStack:
    """Build, snapshot, serve and warm: engine build + statistics + 2-shard snapshot
    + server start + first pooled search and SpinQL replies (workers open their
    shards lazily).  This whole call is what ``setup_s`` times."""
    reference = corpus_module.build_engine(corpus.triples, corpus.lot_descriptions)
    warm_query = " ".join(corpus.lot_descriptions["lot1"].split()[:3])
    reference.search("docs", warm_query, top_k=10).execute()
    snapshot = ctx.work_dir / f"snapshot-{ordinal}"
    shutil.rmtree(snapshot, ignore_errors=True)
    reference.save(snapshot, shards=2)
    server = ServerProcess(snapshot, ctx.work_dir, ctx.source_dir, cpus=server_cpus)
    server.wait_ready()
    client = HttpClient(server.address)
    try:
        for payload in (search_payload(warm_query), estimate_payload(0)):
            status, reply = client.post(payload)
            if status != 200 or not reply.get("ok"):
                server.stop()
                raise RuntimeError(f"warm-up request failed: {status} {reply}")
    finally:
        client.close()
    return HttpStack(reference, server, snapshot)


def repeated_http_setup(
    ctx: Context, corpus, server_cpus: set[int] | None = None
) -> tuple[HttpStack, list[float]]:
    return repeated_setup(
        ctx, lambda ordinal: boot_http_stack(ctx, corpus, ordinal, server_cpus), HttpStack.close
    )


def split_cores() -> set[int]:
    """Confine this process (the load generator) to its first core and return
    the other cores, for the server.

    At 60 req/s the server's three processes sleep most of the time and where
    the scheduler happens to park them lasts a whole run: with both workers on
    one core every request of the run is ~20 % slower (p50 2.4 vs 2.0 ms, cold
    SELECT 30 vs 17 ms) than with one worker per core, and which of the two a
    run got was chance.  Fixed core sets take the chance out (README.md,
    "Workloads", tuning notes).  A closed loop keeps both cores busy, is rebalanced all the
    time and shows no such modes, so ``search_http_closed`` is left alone.
    """
    allowed = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {allowed[0]})
    return set(allowed[1:])


def finish_http(stack: HttpStack) -> tuple[float, dict[str, Any], dict[str, Any]]:
    """Read peak RSS and the server's own counters, then stop it."""
    client = HttpClient(stack.server.address)
    try:
        _status, health = client.get("/healthz")
    finally:
        client.close()
    peak = stack.server.peak_rss_mb()
    report = stack.close()
    restarts = health.get("executor", {}).get("replication", {}).get("restarts", 0)
    if restarts:
        raise RuntimeError(f"{restarts} worker restart(s) during the run: the numbers are void")
    return peak, health, report


def reference_reply(reference) -> Callable[[RequestSpec], Any]:
    """The local-engine answer to a served request, in the served reply's shape."""
    from repro.serving import Router

    router = Router(reference)
    return lambda spec: router.handle(spec.payload)["results"]


def run_search_http_closed(ctx: Context) -> dict[str, Any]:
    name = "search_http_closed"
    corpus = corpus_module.auction_corpus(ctx.sizes.http_lots)
    descriptions = list(corpus.lot_descriptions.values())
    # sized for 2,500 replies/s, several times what the stack sustains
    schedule = search_schedule(ctx.seed, descriptions, int(2500 * ctx.seconds) + 100)
    warmup = search_schedule(ctx.seed + 7919, descriptions, int(2500 * ctx.sizes.warmup_seconds))
    stack, setup_seconds = repeated_http_setup(ctx, corpus)
    digest_requests = DIGEST_REQUESTS[name]
    try:
        run_closed_http(
            stack.server.address, warmup.requests, clients=CLIENTS,
            seconds=ctx.sizes.warmup_seconds, keep=lambda index: False,
        )
        started = time.perf_counter()
        samples = run_closed_http(
            stack.server.address, schedule.requests, clients=CLIENTS,
            seconds=ctx.seconds, keep=keep_rule(digest_requests),
        )
        elapsed = time.perf_counter() - started
        mismatches = verify(samples, schedule.requests, reference_reply(stack.reference))
        peak, health, report = finish_http(stack)
    except BaseException:
        stack.close()
        raise
    detail = {"server_stop": report, "router": health["router"]}
    return summarize(
        name, schedule, samples, mismatches=mismatches, elapsed=elapsed,
        setup_seconds=setup_seconds, peak_rss=peak, digest_requests=digest_requests,
        detail=detail,
    )


def run_mixed_http_open(ctx: Context) -> dict[str, Any]:
    name = "mixed_http_open"
    corpus = corpus_module.auction_corpus(ctx.sizes.mixed_lots)
    traffic = MixedTraffic.draw(ctx.seed, corpus, ctx.sizes.templates)
    schedule = traffic.schedule(ctx.seed, MIXED_RATE_QPS, ctx.seconds)
    stack, setup_seconds = repeated_http_setup(ctx, corpus, server_cpus=split_cores())
    digest_requests = DIGEST_REQUESTS[name]
    try:
        client = HttpClient(stack.server.address)
        try:
            for payload in traffic.priming(ctx.sizes.primed_templates):
                client.post(payload)
            for query in traffic.searches[:50]:
                client.post(search_payload(query))
        finally:
            client.close()
        samples = run_open_http(
            stack.server.address, schedule.requests, clients=CLIENTS,
            keep=keep_rule(digest_requests),
        )
        elapsed = max(sample.done for sample in samples) - min(sample.due for sample in samples)
        mismatches = verify(samples, schedule.requests, reference_reply(stack.reference))
        peak, health, report = finish_http(stack)
    except BaseException:
        stack.close()
        raise
    attempted = len(samples)
    slo_misses = sum(1 for s in samples if not s.ok or s.latency_ms > SLO_MS)
    lag = sorted((s.sent - s.due) * 1000.0 for s in samples)
    searches = [s for s in samples if s.op == "search"]
    spinql = [s for s in samples if s.op != "search"]
    detail: dict[str, Any] = {
        "slo_miss_frac": {"value": slo_misses / attempted, "unit": "frac", "n": attempted},
        "loadgen.lag_p99_ms": {"value": percentile(lag, 0.99), "unit": "ms", "n": attempted},
        "search_latency_p50_ms": latency_metrics(searches, "search_latency")[
            "search_latency_p50_ms"
        ],
        "server_stop": report,
        "router": health["router"],
        "result_cache": health["result_cache"],
        "plan_cache": health["plan_cache"],
    }
    spinql_metrics = latency_metrics(spinql, "spinql_latency")
    detail["spinql_latency_p50_ms"] = spinql_metrics["spinql_latency_p50_ms"]
    detail["spinql_latency_p95_ms"] = spinql_metrics["spinql_latency_p95_ms"]
    return summarize(
        name, schedule, samples, mismatches=mismatches, elapsed=elapsed,
        setup_seconds=setup_seconds, peak_rss=peak, digest_requests=digest_requests,
        detail=detail,
    )


# ---------------------------------------------------------------------------
# in-process workloads
# ---------------------------------------------------------------------------


def warm_local_engine(triples, descriptions: dict[str, str]):
    """A warm local engine: built, first search and first strategy answered
    (what ``setup_s`` times for the in-process workloads)."""
    engine = corpus_module.build_engine(triples, descriptions)
    warm_query = " ".join(next(iter(descriptions.values())).split()[:3])
    engine.search("docs", warm_query, top_k=10).execute()
    engine.strategy("auction", query=warm_query).execute().top(10)
    return engine


def run_strategy_inproc_closed(ctx: Context) -> dict[str, Any]:
    name = "strategy_inproc_closed"
    corpus = corpus_module.auction_corpus(ctx.sizes.strategy_lots)
    descriptions = list(corpus.lot_descriptions.values())
    schedule = strategy_schedule(ctx.seed, descriptions, int(50 * ctx.seconds) + 20)

    def boot(_ordinal: int = 0):
        return warm_local_engine(corpus.triples, corpus.lot_descriptions)

    engine, setup_seconds = repeated_setup(ctx, boot, lambda built: built.close())
    reference = boot()
    digest_requests = DIGEST_REQUESTS[name]

    def call_on(target) -> Callable[[RequestSpec], Any]:
        return lambda spec: answer(target, spec)

    try:
        warmup = strategy_schedule(ctx.seed + 7919, descriptions, 50)
        run_closed_inproc(
            warmup.requests, call_on(engine), seconds=ctx.sizes.warmup_seconds,
            keep=lambda index: False,
        )
        started = time.perf_counter()
        samples = run_closed_inproc(
            schedule.requests, call_on(engine), seconds=ctx.seconds,
            keep=keep_rule(digest_requests),
        )
        elapsed = time.perf_counter() - started
        mismatches = verify(samples, schedule.requests, call_on(reference))
    finally:
        engine.close()
        reference.close()
    return summarize(
        name, schedule, samples, mismatches=mismatches, elapsed=elapsed,
        setup_seconds=setup_seconds, peak_rss=own_peak_rss_mb(),
        digest_requests=digest_requests, detail={},
    )


def lots_after(base_lots: int, cycle: int) -> int:
    """Lots loaded once ``cycle`` has ingested (epochs restart from the base graph)."""
    return base_lots + INGEST_BATCH_LOTS * (cycle % INGEST_EPOCH_CYCLES + 1)


@dataclass
class IngestPlan:
    """Base graph, per-cycle batches and the request schedule of the ingest workload."""

    corpus: Any
    base_lots: int
    schedule: Schedule
    batches: list[tuple[list, Any]]  # per epoch position: (new triples, grown docs table)

    @classmethod
    def build(cls, seed: int, base_lots: int, cycles: int) -> "IngestPlan":
        corpus = corpus_module.auction_corpus(base_lots + INGEST_BATCH_LOTS * INGEST_EPOCH_CYCLES)
        rng = random.Random(seed)
        descriptions = list(corpus.lot_descriptions.values())
        requests: list[RequestSpec] = []
        for cycle in range(cycles):
            loaded = lots_after(base_lots, cycle)
            requests.append(RequestSpec(len(requests), "ingest", {"cycle": cycle}))
            for op, count in (("search", INGEST_SEARCHES), ("strategy", INGEST_STRATEGIES)):
                for _ in range(count):
                    query = _three_terms(rng, descriptions[:loaded])
                    requests.append(RequestSpec(len(requests), op, {"query": query}))
        batches = []
        for position in range(INGEST_EPOCH_CYCLES):
            lots = lots_after(base_lots, position)
            before, _ = corpus_module.lot_prefix(corpus, lots - INGEST_BATCH_LOTS)
            after, grown = corpus_module.lot_prefix(corpus, lots)
            batches.append((after[len(before):], corpus_module.docs_relation(grown)))
        schedule = Schedule("ingest_query_inproc", seed, "closed", tuple(requests))
        return cls(corpus, base_lots, schedule, batches)

    def base_engine(self):
        """A warm engine over the base graph (the state every epoch starts from)."""
        return warm_local_engine(*corpus_module.lot_prefix(self.corpus, self.base_lots))

    def ingest(self, engine, cycle: int) -> None:
        """Load the cycle's 200 new triples and replace ``docs`` with the grown table."""
        triples, docs = self.batches[cycle % INGEST_EPOCH_CYCLES]
        engine.load_triples(triples)
        engine.create_table("docs", docs, replace=True)

    def scratch_engine(self, cycle: int):
        """The oracle: an engine bulk-built over everything loaded by ``cycle``."""
        triples, descriptions = corpus_module.lot_prefix(
            self.corpus, lots_after(self.base_lots, cycle)
        )
        return corpus_module.build_engine(triples, descriptions)


def answer(engine, spec: RequestSpec) -> Any:
    query = spec.payload["query"]
    if spec.op == "search":
        return engine.search("docs", query, top_k=10).execute().top(10)
    return engine.strategy("auction", query=query).execute().top(10)


def run_ingest_query_inproc(ctx: Context) -> dict[str, Any]:
    """Writes beside reads.  Every ``INGEST_EPOCH_CYCLES`` cycles the engine is
    rebuilt from the base graph (untimed) so the corpus, and with it the cost of
    every read, does not grow with the number of cycles a faster build gets
    through."""
    name = "ingest_query_inproc"
    per_cycle = 1 + INGEST_SEARCHES + INGEST_STRATEGIES
    plan = IngestPlan.build(ctx.seed, ctx.sizes.ingest_lots, math.ceil(ctx.seconds * 8) + 4)
    digest_requests = DIGEST_REQUESTS[name]
    keep = keep_rule(digest_requests)
    engine, setup_seconds = repeated_setup(
        ctx, lambda _ordinal: plan.base_engine(), lambda built: built.close()
    )

    samples: list[Sample] = []
    first_search: list[float] = []
    mismatches = 0
    busy = 0.0
    requests = plan.schedule.requests
    stop_at = time.perf_counter() + ctx.seconds
    try:
        for cycle in range(len(requests) // per_cycle):
            if time.perf_counter() >= stop_at:
                break
            if cycle and cycle % INGEST_EPOCH_CYCLES == 0:
                engine.close()
                engine = plan.base_engine()
            cycle_samples: list[Sample] = []
            for spec in requests[cycle * per_cycle : (cycle + 1) * per_cycle]:
                sent = time.perf_counter()
                try:
                    if spec.op == "ingest":
                        results = plan.ingest(engine, cycle)
                    else:
                        results = answer(engine, spec)
                    ok = True
                except Exception:  # noqa: BLE001 - a failed operation is counted, not fatal
                    results, ok = None, False
                done = time.perf_counter()
                busy += done - sent
                cycle_samples.append(Sample(spec.index, spec.op, sent, sent, done, ok, results))
            first_search.append(cycle_samples[1].latency_ms)
            # the oracle for "ingest then query": the last cycle of each epoch is
            # checked against an engine bulk-built over the same data
            if cycle % INGEST_EPOCH_CYCLES == INGEST_EPOCH_CYCLES - 1:
                oracle = plan.scratch_engine(cycle)
                try:
                    checked = (cycle_samples[1], cycle_samples[INGEST_SEARCHES], cycle_samples[-1])
                    for sample in checked:
                        expected = answer(oracle, requests[sample.index])
                        if as_json(sample.results) != as_json(expected):
                            mismatches += 1
                finally:
                    oracle.close()
            for sample in cycle_samples:
                if not keep(sample.index):
                    sample.results = None
            samples.extend(cycle_samples)
    finally:
        engine.close()
    ingests = [s for s in samples if s.op == "ingest" and s.ok]
    detail = {
        "ingest_batch_p50_ms": {
            "value": statistics.median(s.latency_ms for s in ingests),
            "unit": "ms",
            "n": len(ingests),
        },
        "first_query_after_ingest_p50_ms": {
            "value": statistics.median(first_search), "unit": "ms", "n": len(first_search)
        },
    }
    return summarize(
        name, plan.schedule, samples, mismatches=mismatches, elapsed=busy,
        setup_seconds=setup_seconds, peak_rss=own_peak_rss_mb(),
        digest_requests=digest_requests, detail=detail,
    )


RUNNERS: dict[str, Callable[[Context], dict[str, Any]]] = {
    "search_http_closed": run_search_http_closed,
    "strategy_inproc_closed": run_strategy_inproc_closed,
    "mixed_http_open": run_mixed_http_open,
    "ingest_query_inproc": run_ingest_query_inproc,
}
