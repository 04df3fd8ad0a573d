"""Execution of strategy graphs: every block is a PRA plan.

A strategy is lowered block by block, in topological order: each block's
``to_plan`` receives its inputs as placeholders and returns its own plan, so
every block has a *plan* — the PRA plan of its output over the stored data,
its ancestors' plans substituted for the placeholders.  The executor then
evaluates the blocks in the same order, each block's plan over its inputs'
outputs, and records per-block timings so the benchmarks can report where
time is spent (ranking vs. traversal vs. mixing).

**Reuse is keyed by plan content.**  A block whose plan has no request
binding — no keyword query, no parameter, no block that runs by ``execute``
above it — computes the same output for every request until a table it scans
changes.  Its output is kept in the store database's materialization cache
(``Database.cache``) under the plan's fingerprint, with the scanned tables as
dependencies: replacing a table drops it, and any graph whose block lowers to
the same plan, kept by its caller or built for one request, is served from
the same entry (in the auction strategy: selecting the lots, extracting their
descriptions, traversing to the auctions).  Within the blocks that do run,
subplans without a request binding (the edges a traversal joins with) are
served the same way.  A block that defines only ``execute`` runs on every
request, and so does every block below it.

The ranking nodes of every strategy get their indexes from the executor's one
:class:`~repro.ir.registry.StatisticsRegistry` (an engine passes its own, the
one keyword search uses): after an append the next request extends the index
instead of rebuilding it, and a collection that search has already indexed is
a hit.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

from repro.errors import StrategyError
from repro.ir.registry import StatisticsRegistry
from repro.pra.evaluator import PRAEvaluator
from repro.pra.plan import (
    QUERY_PARAM,
    PraParam,
    PraPlan,
    node_parameters,
    scan_tables,
)
from repro.pra.relation import ProbabilisticRelation
from repro.strategy.blocks import Block, PortKind, StrategyContext
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
    #: blocks whose output came from the materialization cache instead of running
    memoized_blocks: list[str] = field(default_factory=list)

    def top(self, k: int) -> list[tuple[str, float]]:
        """Return the top-k ``(node, probability)`` pairs of the result."""
        ranked = self.result.top(k)
        nodes = ranked.relation.column(ranked.value_columns[0]).to_list()
        probabilities = ranked.probabilities()
        return [(node, float(p)) for node, p in zip(nodes, probabilities)]


@dataclass(frozen=True)
class LoweredBlock:
    """One block of a lowered strategy."""

    name: str
    block: Block
    #: input port -> source block
    sources: dict[str, str]
    #: the block's own plan, over its inputs' placeholders
    local: PraPlan
    #: the materialization-cache key, when the block's plan (ancestors
    #: included) has no request binding
    key: str | None
    #: that plan, when it has no request binding (see :meth:`LoweredStrategy.plan`)
    plan: PraPlan | None
    #: what evaluation runs: ``local`` with each subplan that has no request
    #: binding a placeholder named by its key; None when the block runs by
    #: ``execute``
    runnable: PraPlan | None = None
    #: those subplans, by key
    stored: tuple[tuple[str, PraPlan], ...] = ()


@dataclass(frozen=True)
class LoweredStrategy:
    """A strategy graph lowered to one PRA plan per block, in execution order."""

    graph: StrategyGraph
    blocks: tuple[LoweredBlock, ...]
    #: the blocks whose output feeds no other block
    sinks: tuple[str, ...]

    def result_block(self, name: str | None = None) -> str:
        """``name``, or the single sink."""
        if name is not None:
            if name not in {step.name for step in self.blocks}:
                raise StrategyError(f"unknown block {name!r}")
            return name
        if len(self.sinks) != 1:
            raise StrategyError(
                f"the strategy has {len(self.sinks)} result blocks ({list(self.sinks)}); "
                "pass result_block= to choose one"
            )
        return self.sinks[0]

    def plan(self, name: str) -> PraPlan:
        """Block ``name``'s plan over the stored data, its ancestors' plans included."""
        step = next(step for step in self.blocks if step.name == name)
        if step.plan is not None:
            return step.plan
        sources = {_placeholder(source): self.plan(source) for source in step.sources.values()}
        return _substitute(step.local, sources)

    def tables(self) -> frozenset[str]:
        """Every table a block's plan scans."""
        return frozenset().union(*(scan_tables(step.local) for step in self.blocks))


def _placeholder(block_name: str) -> str:
    """The binding through which a block's output reaches the blocks below it."""
    return f"block:{block_name}"


def _runs_as_plan(block: Block) -> bool:
    """Whether the most derived of ``to_plan`` and ``execute`` is ``to_plan``."""
    for cls in type(block).__mro__:
        if "to_plan" in vars(cls):
            return cls is not Block
        if "execute" in vars(cls):
            return False
    return False


def _split_stored(
    plan: PraPlan, stored: list[tuple[str, PraPlan]]
) -> tuple[PraPlan, frozenset[str]]:
    """``plan`` with each largest proper subplan that reads no binding replaced
    by a placeholder named by its cache key (the subplans collected into
    ``stored``), and the bindings ``plan`` reads."""
    children = plan.children()
    if not children:
        return plan, node_parameters(plan)
    split = [_split_stored(child, stored) for child in children]
    names = node_parameters(plan).union(*(child_names for _, child_names in split))
    if not names:
        return plan, names
    rebuilt = []
    for child, (new, child_names) in zip(children, split):
        if not child_names and child.children():
            key = "pra::" + child.fingerprint()
            stored.append((key, child))
            new = PraParam(key)
        rebuilt.append(new)
    if all(new is old for new, old in zip(rebuilt, children)):
        return plan, names
    return plan.with_children(rebuilt), names


def _substitute(plan: PraPlan, plans: dict[str, PraPlan]) -> PraPlan:
    """``plan`` with every placeholder named in ``plans`` replaced by its plan."""
    if isinstance(plan, PraParam):
        return plans.get(plan.name, plan)
    children = plan.children()
    rebuilt = [_substitute(child, plans) for child in children]
    if all(new is old for new, old in zip(rebuilt, children)):
        return plan
    return plan.with_children(rebuilt)


class StrategyExecutor:
    """Executes strategy graphs against a triple store."""

    def __init__(self, store: TripleStore, statistics: StatisticsRegistry | None = None):
        self.store = store
        #: where every strategy's ranking nodes get their indexes
        self.statistics = statistics if statistics is not None else StatisticsRegistry()
        self._evaluator = PRAEvaluator(store.database, self.statistics)

    def lower(self, graph: StrategyGraph) -> LoweredStrategy:
        """Validate ``graph`` and lower every block to its PRA plan."""
        order = graph.validate()
        self.store.ensure_loaded()  # a layout lowers against the tables it holds
        storage = self.store.storage
        plans: dict[str, PraPlan | None] = {}  # None: the plan reads the request
        lowered: list[LoweredBlock] = []
        for name in order:
            block = graph.block(name)
            sources = graph.inputs_of(name)
            runnable: PraPlan | None = None
            stored: list[tuple[str, PraPlan]] = []
            plan: PraPlan | None = None
            if _runs_as_plan(block):
                inputs = {port: PraParam(_placeholder(source)) for port, source in sources.items()}
                local = block.to_plan(inputs, storage)
                split, names = _split_stored(local, stored)
                if block.output_port().kind is not PortKind.QUERY:  # a query is a binding
                    runnable = split
                if not names - {param.name for param in inputs.values()} and all(
                    plans[source] is not None for source in sources.values()
                ):
                    plan = _substitute(
                        local, {_placeholder(s): plans[s] for s in sources.values()}
                    )
            else:
                local = PraParam(_placeholder(name))
            key = None if plan is None else "pra::" + plan.fingerprint()
            plans[name] = plan
            lowered.append(
                LoweredBlock(name, block, sources, local, key, plan, runnable, tuple(stored))
            )
        return LoweredStrategy(graph, tuple(lowered), tuple(graph.sinks()))

    def run(
        self,
        graph: StrategyGraph | LoweredStrategy,
        query: str = "",
        *,
        result_block: str | None = None,
        parameters: dict[str, Any] | None = None,
    ) -> StrategyRun:
        """Execute ``graph`` for ``query`` and return the result of ``result_block``."""
        lowered = graph if isinstance(graph, LoweredStrategy) else self.lower(graph)
        result_block = lowered.result_block(result_block)
        # buffered triples are materialised first, then the catalog version is
        # read before any block runs: an output computed while the data
        # changes underneath is not kept
        self.store.ensure_loaded()
        still_valid = self.store.database.catalog.unchanged()
        context = StrategyContext(
            store=self.store,
            query=query,
            parameters=parameters or {},
            statistics=self.statistics,
        )
        bindings: dict[str, Any] = {QUERY_PARAM: query}
        outputs: dict[str, Any] = {}
        timings: dict[str, float] = {}
        memoized: list[str] = []
        started = time.perf_counter()
        for step in lowered.blocks:
            block_started = time.perf_counter()
            if step.runnable is None:
                inputs = {port: outputs[source] for port, source in step.sources.items()}
                output = step.block.execute(context, inputs)
            elif step.key is not None:
                output, hit = self._stored(
                    step.key,
                    step.plan,
                    lambda step=step: self._evaluate(step, bindings, still_valid),
                    still_valid,
                )
                if hit:
                    memoized.append(step.name)
            else:
                output = self._evaluate(step, bindings, still_valid)
            outputs[step.name] = bindings[_placeholder(step.name)] = output
            timings[step.name] = time.perf_counter() - block_started
        elapsed = time.perf_counter() - started

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

    # -- evaluation through the materialization cache -------------------------------

    def _stored(
        self,
        key: str,
        plan: PraPlan,
        compute: Callable[[], ProbabilisticRelation],
        still_valid: Callable[[], bool],
    ) -> tuple[ProbabilisticRelation, bool]:
        """The cached output of ``plan`` (and True), or ``compute()`` stored."""
        cache = self.store.database.cache
        cached = cache.get(key)
        if cached is not None:
            return cached, True
        result = compute()
        cache.put(key, result, dependencies=scan_tables(plan), still_valid=still_valid)
        return result, False

    def _evaluate(
        self, step: LoweredBlock, bindings: dict[str, Any], still_valid: Callable[[], bool]
    ) -> ProbabilisticRelation:
        """Evaluate ``step``'s plan over ``bindings``, its stored subplans from the cache."""
        assert step.runnable is not None
        for key, subplan in step.stored:
            bindings[key], _hit = self._stored(
                key, subplan, lambda subplan=subplan: self._evaluator.evaluate(subplan), still_valid
            )
        return self._evaluator.evaluate(step.runnable, bindings=bindings)
