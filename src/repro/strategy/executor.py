"""Execution of strategy graphs.

The executor runs the blocks of a validated strategy graph in topological
order, passing each block the payloads produced by its connected inputs, and
returns the payload of the requested result block (by default the graph's
single sink).  Per-block timings are recorded so the benchmarks can report
where time is spent (ranking vs. traversal vs. mixing).

**Request-independent blocks run once per data version.**  A block that
declares :attr:`~repro.strategy.blocks.Block.request_independent`, and whose
ancestors all do, computes the same output for every request until the data
changes (in the auction strategy: selecting the lots, extracting their
descriptions, traversing to the auctions).  The executor keeps those outputs
in a per-graph memo and serves later requests from it.  A memo is valid for
one triple *(graph structural version, catalog version of the store's
database, configuration of the memoized blocks)*: adding a block or a
connection, creating, replacing or dropping any table, or changing what a
memoized block's ``describe()`` reports starts a fresh one.  Blocks are
*dependent* by default, and a subclass that overrides ``execute`` has to
declare independence again, so a block that reads ``context.query`` is never
cached by accident.

**Memos are kept per graph, indexes per executor.**  A memo is keyed weakly
on its graph: a caller that keeps a graph and runs it again gets the reuse
(``Engine.strategy`` keeps one graph per prebuilt name, so a request by name
does), a graph built for a single request takes its outputs with it when it
is collected.  The ranking blocks of every graph get their on-demand indexes
from the executor's one :class:`~repro.ir.registry.StatisticsRegistry` (an
engine passes its own, the one keyword search uses), which outlives any memo:
after an append the next request extends the index instead of rebuilding it,
and a collection that search has already indexed is a hit.
"""

from __future__ import annotations

import threading
import time
import weakref
from dataclasses import dataclass, field
from typing import Any

from repro.errors import StrategyError
from repro.ir.registry import StatisticsRegistry
from repro.pra.relation import ProbabilisticRelation
from repro.strategy.blocks import Block, StrategyContext
from repro.strategy.graph import StrategyGraph
from repro.triples.triple_store import TripleStore


@dataclass
class StrategyRun:
    """The outcome of one strategy execution."""

    query: str
    result: ProbabilisticRelation
    block_outputs: dict[str, Any] = field(default_factory=dict)
    block_timings: dict[str, float] = field(default_factory=dict)
    elapsed_seconds: float = 0.0
    #: blocks whose output came from the executor's memo instead of running
    memoized_blocks: list[str] = field(default_factory=list)

    def top(self, k: int) -> list[tuple[str, float]]:
        """Return the top-k ``(node, probability)`` pairs of the result."""
        ranked = self.result.top(k)
        nodes = ranked.relation.column(ranked.value_columns[0]).to_list()
        probabilities = ranked.probabilities()
        return [(node, float(p)) for node, p in zip(nodes, probabilities)]


#: what a memo is valid for: graph version, catalog version, block configuration
_MemoVersion = tuple[int, int, tuple[str, ...]]


@dataclass
class _GraphMemo:
    """Outputs of one graph's request-independent blocks at one version."""

    version: _MemoVersion
    independent: frozenset[str]
    outputs: dict[str, Any] = field(default_factory=dict)


def _declares_independence(block: Block) -> bool:
    """Whether the ``execute`` that will run is covered by a declaration.

    Walking the class hierarchy from the block's own class up, a
    ``request_independent`` declaration must come no later than the class
    that defines ``execute``: a subclass of a library block that overrides
    ``execute`` without declaring again does not inherit the promise its
    parent made about different code.
    """
    for cls in type(block).__mro__:
        declared = vars(cls).get("request_independent")
        if declared is not None:
            return bool(declared)
        if "execute" in vars(cls):
            return False
    return False


def request_independent_blocks(graph: StrategyGraph) -> list[str]:
    """Blocks whose output no request can change, in execution order: they and
    all their ancestors declare :attr:`~repro.strategy.blocks.Block.request_independent`."""
    independent: list[str] = []
    for name in graph.execution_order():
        if _declares_independence(graph.block(name)) and all(
            source in independent for source in graph.inputs_of(name).values()
        ):
            independent.append(name)
    return independent


class StrategyExecutor:
    """Executes strategy graphs against a triple store."""

    def __init__(self, store: TripleStore, statistics: StatisticsRegistry | None = None):
        self.store = store
        #: where every graph's ranking blocks get their indexes
        self.statistics = statistics if statistics is not None else StatisticsRegistry()
        self._memo_lock = threading.Lock()
        # keyed weakly: one memo per live graph, none for a dead one
        self._memos: weakref.WeakKeyDictionary[StrategyGraph, _GraphMemo] = (
            weakref.WeakKeyDictionary()
        )
        self._memo_hits = 0
        self._memo_misses = 0
        self._memo_invalidations = 0

    def run(
        self,
        graph: StrategyGraph,
        query: str = "",
        *,
        result_block: str | None = None,
        parameters: dict[str, Any] | None = None,
    ) -> StrategyRun:
        """Execute ``graph`` for ``query`` and return the result of ``result_block``."""
        graph.validate()
        if result_block is None:
            sinks = graph.sinks()
            if len(sinks) != 1:
                raise StrategyError(
                    f"the strategy has {len(sinks)} result blocks ({sinks}); "
                    "pass result_block= to choose one"
                )
            result_block = sinks[0]

        # buffered triples are materialised first (a block that runs would do
        # it anyway; a memoized one would not), then the versions are read
        # before any block runs: outputs computed while the data changes
        # underneath land in a memo the change has already retired
        self.store.ensure_loaded()
        memo, available = self._memo_for(graph)
        context = StrategyContext(
            store=self.store,
            query=query,
            parameters=parameters or {},
            statistics=self.statistics,
        )
        outputs: dict[str, Any] = {}
        timings: dict[str, float] = {}
        memoized: list[str] = []
        computed: dict[str, Any] = {}
        started = time.perf_counter()
        for name in graph.execution_order():
            block_started = time.perf_counter()
            if name in available:
                outputs[name] = available[name]
                memoized.append(name)
            else:
                inputs = {
                    port: outputs[source] for port, source in graph.inputs_of(name).items()
                }
                outputs[name] = graph.block(name).execute(context, inputs)
                if name in memo.independent:
                    computed[name] = outputs[name]
            timings[name] = time.perf_counter() - block_started
        elapsed = time.perf_counter() - started
        with self._memo_lock:
            memo.outputs.update(computed)
            self._memo_hits += len(memoized)
            self._memo_misses += len(computed)

        result = outputs[result_block]
        if not isinstance(result, ProbabilisticRelation):
            raise StrategyError(
                f"result block {result_block!r} produced {type(result).__name__}, "
                "expected a probabilistic relation"
            )
        return StrategyRun(
            query=query,
            result=result.sorted_by_probability(),
            block_outputs=outputs,
            block_timings=timings,
            elapsed_seconds=elapsed,
            memoized_blocks=memoized,
        )

    # -- the block memo ----------------------------------------------------------------

    def _version(self, graph: StrategyGraph, independent: list[str]) -> _MemoVersion:
        """What a memo is valid for: the graph's shape, the catalog's contents
        and the configuration of the blocks whose outputs it holds."""
        configuration = tuple(repr(graph.block(name).describe()) for name in independent)
        return (graph.version, self.store.database.catalog.version, configuration)

    def _memo_for(self, graph: StrategyGraph) -> tuple[_GraphMemo, dict[str, Any]]:
        """The memo of ``graph`` at the current versions (replacing a stale
        one), and a snapshot of the outputs it holds."""
        independent = request_independent_blocks(graph)
        version = self._version(graph, independent)
        with self._memo_lock:
            memo = self._memos.get(graph)
            if memo is None or memo.version != version:
                if memo is not None and memo.outputs:
                    self._memo_invalidations += 1
                memo = _GraphMemo(version, frozenset(independent))
                self._memos[graph] = memo
            return memo, dict(memo.outputs)

    def memoized_blocks(self, graph: StrategyGraph) -> list[str]:
        """Blocks of ``graph`` the next request would be served from the memo."""
        version = self._version(graph, request_independent_blocks(graph))
        with self._memo_lock:
            memo = self._memos.get(graph)
            if memo is None or memo.version != version:
                return []
            return list(memo.outputs)

    def clear(self) -> None:
        """Forget every memoized block output and every index (cold-start state)."""
        with self._memo_lock:
            self._memos.clear()
        self.statistics.clear()

    def counters(self) -> dict[str, int]:
        """Memo hits, misses (independent blocks that had to run) and invalidations."""
        with self._memo_lock:
            return {
                "hits": self._memo_hits,
                "misses": self._memo_misses,
                "invalidations": self._memo_invalidations,
                "graphs": len(self._memos),
            }
