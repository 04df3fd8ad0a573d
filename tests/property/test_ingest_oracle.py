"""The ingest oracle: one long-lived engine against bulk-built ones.

A Hypothesis state machine interleaves writes (``load_triples`` batches,
``create_table("docs", …, replace=True)`` with appended, prepended, edited
and dropped rows) with reads (keyword search, the auction strategy by name
and as a graph the test keeps, a user-built graph with a request-dependent
block) and ``clear_caches`` on **one** engine — the engine that keeps one
statistics registry for search and every rank node, and strategy blocks in
its materialization cache by plan content, across all of it.
Every read is compared, bit for bit (ids, scores, tie order), with an engine
bulk-built from the same data, and every write is
followed by a read whose path through the statistics registry is asserted
from its counters: an append *extends* the registered index, anything else
*rebuilds*, unchanged content *hits*.

Runs derandomized, like the rest of ``tests/property``.
"""

from __future__ import annotations

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.engine import Engine
from repro.ir.registry import MAX_ENTRIES
from repro.pra import operators as pra_operators
from repro.relational.column import Column, DataType
from repro.relational.relation import Relation
from repro.relational.schema import Field, Schema
from repro.strategy.blocks import Block, Port, PortKind
from repro.strategy.graph import StrategyGraph
from repro.strategy.library import (
    ExtractTextBlock,
    QueryInputBlock,
    RankByTextBlock,
    SelectByTypeBlock,
)
from repro.strategy.prebuilt import build_auction_strategy

WORDS = ["oak", "table", "bronze", "statue", "silver", "spoon", "antique", "clock"]
TEXTS = st.lists(st.sampled_from(WORDS), min_size=1, max_size=5).map(" ".join)
QUERIES = st.lists(st.sampled_from(WORDS), min_size=1, max_size=3).map(" ".join)
AUCTIONS = ["auction1", "auction2", "auction3"]

DOCS_SCHEMA = Schema([Field("docID", DataType.STRING), Field("data", DataType.STRING)])


def docs_relation(docs: list[tuple[str, str]]) -> Relation:
    return Relation(
        DOCS_SCHEMA,
        [
            Column([doc_id for doc_id, _ in docs], DataType.STRING),
            Column([text for _, text in docs], DataType.STRING),
        ],
    )


class ShorterQueriesCountMore(Block):
    """A user block that reads the request and says nothing about independence."""

    label = "Weight by query length"

    def input_ports(self):
        return [Port("resources", PortKind.RESOURCES)]

    def output_port(self):
        return Port("resources", PortKind.RESOURCES)

    def execute(self, context, inputs):
        return pra_operators.weight(inputs["resources"], 1.0 / len(context.query.split()))


def user_graph() -> StrategyGraph:
    """select → (request-dependent weight) → extract → rank: only ``select`` is memoizable."""
    graph = StrategyGraph(name="user")
    graph.add_block("select", SelectByTypeBlock("lot"))
    graph.add_block("weight", ShorterQueriesCountMore())
    graph.add_block("texts", ExtractTextBlock("description"))
    graph.add_block("query", QueryInputBlock())
    graph.add_block("rank", RankByTextBlock())
    graph.connect("select", "weight")
    graph.connect("weight", "texts")
    graph.connect("texts", "rank", port="documents")
    graph.connect("query", "rank", port="query")
    return graph


AUCTION_STORE_ONLY = ["select_lots", "lot_descriptions", "to_auctions", "auction_descriptions"]


class IngestOracle(RuleBasedStateMachine):
    COLLECTIONS = ["docs", "lots", "auctions"]

    @initialize()
    def boot(self):
        self.triples: list[tuple] = [
            (auction, "description", text)
            for auction, text in zip(AUCTIONS, ["antique oak", "bronze silver", "clock table"])
        ]
        self.lots = 0
        self.edits = 0
        self._grow(["oak table", "bronze statue", "silver spoon"])
        self.docs = [("doc0", "antique oak table"), ("doc1", "bronze clock")]
        self.engine = Engine.from_triples(self.triples)
        self.engine.create_table("docs", docs_relation(self.docs))
        # the graphs this test keeps (the cache keys their blocks by content)
        self.graph = user_graph()
        self.auction = build_auction_strategy()
        # what the engine's registry holds per collection: the (ids, texts)
        # last indexed (None: known to hold nothing) and the eviction count at
        # that moment
        self.indexed: dict[str, tuple[list[tuple[str, str]] | None, int]] = {
            key: (None, 0) for key in self.COLLECTIONS
        }
        # the store-only auction blocks computed since the last triples write
        self.cached: set[str] = set()
        self._search("oak")
        self._auction("oak")

    def teardown(self):
        engine = getattr(self, "engine", None)
        if engine is not None:
            engine.close()

    # -- the model ---------------------------------------------------------------------

    def _grow(self, texts: list[str]) -> list[tuple]:
        batch = []
        for text in texts:
            name = f"lot{self.lots}"
            batch += [
                (name, "type", "lot"),
                (name, "hasAuction", AUCTIONS[self.lots % len(AUCTIONS)]),
                (name, "description", text),
            ]
            self.lots += 1
        self.triples += batch
        return batch

    def _lot_collection(self) -> list[tuple[str, str]]:
        return [(s, o) for s, p, o in self.triples if p == "description" and s.startswith("lot")]

    def _oracle(self) -> Engine:
        oracle = Engine.from_triples(self.triples)
        oracle.create_table("docs", docs_relation(self.docs))
        return oracle

    def _registry(self) -> dict[str, int]:
        return self.engine.reuse_statistics()["statistics_registry"]

    def _expected_path(self, collection: str, current: list[tuple[str, str]]) -> str | None:
        """How the registry must serve ``current``; None when it cannot be
        known (something was evicted since, and it may have been this collection)."""
        indexed, evictions = self.indexed[collection]
        if indexed is None:
            return "rebuilds"
        if evictions != self._registry()["evictions"]:
            return None
        if indexed == current:
            return "hits"
        if len(indexed) < len(current) and current[: len(indexed)] == indexed:
            return "extends"
        return "rebuilds"

    def _assert_paths(self, before: dict[str, int], paths: list[str | None]):
        after = self._registry()
        for collection, current in self._now_indexed.items():
            self.indexed[collection] = (current, after["evictions"])
        if None in paths:
            return
        for path in ("hits", "extends", "rebuilds"):
            assert after[path] - before[path] == paths.count(path), (path, paths, before, after)

    # -- reads, each against a bulk-built engine -----------------------------------------

    def _search(self, query: str):
        before = self._registry()
        # a warm searcher answers from its own statistics; a changed table
        # sends it back to the registry, once
        warm = any(
            searcher.is_warm for searcher in self.engine._search_engines.values()
        )
        path = self._expected_path("docs", self.docs)
        served = self.engine.search("docs", query, top_k=5).execute()
        oracle = self._oracle()
        try:
            expected = oracle.search("docs", query, top_k=5).execute()
        finally:
            oracle.close()
        assert served.ranked.doc_ids == expected.ranked.doc_ids
        assert served.ranked.scores.tolist() == expected.ranked.scores.tolist()
        self._now_indexed = {"docs": list(self.docs)} if not warm else {}
        self._assert_paths(before, [] if warm else [path])

    def _compare_strategy(self, graph_or_name, oracle_graph_or_name, query: str):
        served = self.engine.strategy(graph_or_name, query=query).execute()
        oracle = self._oracle()
        try:
            expected = oracle.strategy(oracle_graph_or_name, query=query).execute()
        finally:
            oracle.close()
        assert list(served.result.rows()) == list(expected.result.rows())
        return served

    def _auction(self, query: str):
        before = self._registry()
        lots = self._lot_collection()
        auctions = [(s, o) for s, p, o in self.triples if p == "description" and s in AUCTIONS]
        paths = [
            self._expected_path("lots", lots),
            self._expected_path("auctions", auctions),
        ]
        kept = self._compare_strategy(self.auction, "auction", query)
        assert kept.memoized_blocks == [b for b in AUCTION_STORE_ONLY if b in self.cached]
        self.cached.update(AUCTION_STORE_ONLY)
        # by name: the same plans, so the rank nodes find both indexes the
        # kept graph just registered and the store-only blocks are served
        named = self._compare_strategy("auction", "auction", query)
        assert named.memoized_blocks == AUCTION_STORE_ONLY
        self._now_indexed = {"lots": lots, "auctions": auctions}
        self._assert_paths(before, paths + ["hits", "hits"])

    # -- rules ---------------------------------------------------------------------------

    @rule(query=QUERIES)
    def search(self, query):
        self._search(query)

    @rule(query=QUERIES)
    def auction_strategy(self, query):
        self._auction(query)

    @rule(query=QUERIES)
    def user_strategy(self, query):
        registry_before = self._registry()
        lots = self._lot_collection()
        path = self._expected_path("lots", lots)
        served = self._compare_strategy(self.graph, user_graph(), query)
        self._now_indexed = {"lots": lots}
        self._assert_paths(registry_before, [path])
        # never the request-dependent block, nor the store-only one below it;
        # ``select`` lowers to the auction strategy's ``select_lots`` plan
        assert served.memoized_blocks == (["select"] if "select_lots" in self.cached else [])
        self.cached.add("select_lots")
        lowered = self.engine.executor.lower(self.graph)
        assert [step.name for step in lowered.blocks if step.key is not None] == ["select"]

    @rule(texts=st.lists(TEXTS, min_size=1, max_size=3), query=QUERIES)
    def load_triples(self, texts, query):
        self.engine.load_triples(self._grow(texts))
        self.cached = set()
        self._auction(query)

    @rule(
        mode=st.sampled_from(["append", "prepend", "edit", "shrink"]),
        text=TEXTS,
        position=st.integers(min_value=0, max_value=1000),
        query=QUERIES,
    )
    def replace_docs(self, mode, text, position, query):
        self.edits += 1
        fresh = (f"doc-{mode}-{self.edits}", f"{text} edition{self.edits}")
        if mode == "append":
            self.docs = self.docs + [fresh]
        elif mode == "prepend":
            self.docs = [fresh] + self.docs
        elif mode == "edit":
            index = position % len(self.docs)
            self.docs = self.docs[:index] + [(self.docs[index][0], fresh[1])] + self.docs[index + 1:]
        elif len(self.docs) > 1:
            self.docs = self.docs[:-1]
        else:
            return
        self.engine.create_table("docs", docs_relation(self.docs), replace=True)
        self._search(query)

    @rule()
    def clear_caches(self):
        self.engine.clear_caches()
        self.indexed = {key: (None, 0) for key in self.COLLECTIONS}
        self.cached = set()

    @invariant()
    def registries_stay_bounded(self):
        if getattr(self, "engine", None) is not None:
            assert self._registry()["entries"] <= MAX_ENTRIES


IngestOracle.TestCase.settings = settings(
    max_examples=40, stateful_step_count=20, deadline=None, derandomize=True
)
TestIngestOracle = IngestOracle.TestCase
