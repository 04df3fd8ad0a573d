"""Execution of strategy graphs: a strategy request is one PRA plan.

A strategy is lowered block by block, in topological order: each block's
``to_plan`` receives its inputs as placeholders, and its ancestors' plans
are substituted for them, so every block has a *plan* over the stored data.
A request evaluates its result block's plan once: a block that feeds two
blocks is one node of it, evaluated once, and each block's output and own
time are read from the evaluation's record.  Inside an engine the evaluation
is ``Engine._evaluate``, the path of SpinQL, ``traverse()`` and ``rank()``.

**Reuse is keyed by plan content.**  The lowering replaces each largest
subplan that reads no request binding (no query, no parameter, no block that
runs by ``execute``) with a placeholder named by its key, ``"pra::" +
fingerprint``, and so is every block plan that reads none.  A request takes
these from the store database's materialization cache (``Database.cache``),
where they stay until a table they scan changes, and computes one only on a
miss; any graph whose blocks lower to the same plans, kept or built per
request, is served from the same entries.  A block that runs by ``execute``
(it has no ``to_plan``, or it provides the query) runs on every request
before the evaluation, its output bound to its placeholder.

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
from functools import cached_property
from typing import Any

from repro.errors import StrategyError
from repro.ir.registry import StatisticsRegistry
from repro.pra.evaluator import Evaluated, PRAEvaluator, Record
from repro.pra.optimizer import optimize_pra
from repro.pra.plan import (
    QUERY_PARAM,
    PraParam,
    PraPlan,
    node_parameters,
    plan_parameters,
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
    #: the result block's output as evaluated, unranked (see :attr:`result`)
    output: ProbabilisticRelation
    block_outputs: dict[str, Any] = field(default_factory=dict)
    #: each block's own time, its inputs' excluded (0.0 when it did not run)
    block_timings: dict[str, float] = field(default_factory=dict)
    elapsed_seconds: float = 0.0
    #: blocks whose output came from the materialization cache instead of running
    memoized_blocks: list[str] = field(default_factory=list)

    @cached_property
    def result(self) -> ProbabilisticRelation:
        """The output ranked by probability (ties by value), on first read and kept."""
        return self.output.sorted_by_probability()

    def top(self, k: int | None = None) -> list[tuple[str, float]]:
        """The top-k ``(node, probability)`` pairs of the result (``None``: all).

        Until :attr:`result` is read, only the rows tied with the k-th are sorted.
        """
        if k is None or k >= self.output.num_rows or "result" in self.__dict__:
            ranked = self.result if k is None else self.result.top(k)
        else:
            ranked = self.output.top(k)
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
    #: the block's plan over the stored data, its ancestors' plans included (a
    #: block that runs by ``execute`` is its placeholder)
    plan: PraPlan
    #: the materialization-cache key, when ``plan`` reads no request binding
    key: str | None
    #: ``plan`` with its stored subplans as placeholders (``PraParam(key)``, keyed)
    remainder: PraPlan
    #: the keys of the stored subplans a request for the block reads, sorted
    reads: tuple[str, ...]
    #: the block and every block above it
    upstream: frozenset[str]
    #: whether the block runs by ``execute``
    executes: bool

    @property
    def node(self) -> PraPlan:
        """The node whose evaluation computes the block's output."""
        return self.plan if self.key is not None else self.remainder


@dataclass(frozen=True)
class LoweredStrategy:
    """A strategy graph lowered to one PRA plan per block, in execution order."""

    graph: StrategyGraph
    blocks: tuple[LoweredBlock, ...]
    #: the blocks whose output feeds no other block
    sinks: tuple[str, ...]
    #: every stored subplan, by key
    stored: dict[str, PraPlan]
    #: the nodes a request records (see :class:`~repro.pra.evaluator.Evaluated`),
    #: by identity: every stored subplan and every block's node
    recorded: frozenset[int]
    #: per result block, the optimized remainder its requests evaluate
    _optimized: dict[str, PraPlan] = field(default_factory=dict, compare=False)

    @cached_property
    def _steps(self) -> dict[str, LoweredBlock]:
        return {step.name: step for step in self.blocks}

    def step(self, name: str) -> LoweredBlock:
        return self._steps[name]

    def result_block(self, name: str | None = None) -> str:
        """``name``, or the single sink."""
        if name is not None:
            if name not in self._steps:
                raise StrategyError(f"unknown block {name!r}")
            return name
        if len(self.sinks) != 1:
            raise StrategyError(
                f"the strategy has {len(self.sinks)} result blocks ({list(self.sinks)}); "
                "pass result_block= to choose one"
            )
        return self.sinks[0]

    def request_plan(self, name: str) -> PraPlan:
        """What a request for block ``name`` evaluates, optimized once."""
        plan = self._optimized.get(name)
        if plan is None:
            plan = self._optimized.setdefault(name, optimize_pra(self.step(name).remainder))
        return plan


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
    plan: PraPlan,
    stored: dict[str, PraPlan],
    done: dict[int, tuple[PraPlan, frozenset[str]]],
) -> tuple[PraPlan, frozenset[str]]:
    """``plan`` with each largest proper subplan that reads no binding replaced
    by a placeholder named by its cache key (the subplans collected into
    ``stored``), and the bindings ``plan`` reads.  ``done`` holds what every
    node split to, so a subplan that two parents share stays one node."""
    if id(plan) in done:
        return done[id(plan)]
    children = plan.children()
    split = [_split_stored(child, stored, done) for child in children]
    names = node_parameters(plan).union(*(child_names for _, child_names in split))
    rebuilt = [
        _stored(child, stored) if names and not child_names and child.children() else new
        for child, (new, child_names) in zip(children, split)
    ]
    new_plan = plan
    if any(new is not old for new, old in zip(rebuilt, children)):
        new_plan = plan.with_children(rebuilt)
    done[id(plan)] = (new_plan, names)
    return new_plan, names


def _stored(plan: PraPlan, stored: dict[str, PraPlan]) -> PraParam:
    key = "pra::" + plan.fingerprint()
    stored.setdefault(key, plan)
    return PraParam(key)


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

    @cached_property
    def _evaluator(self) -> PRAEvaluator:
        return PRAEvaluator(self.store.database, self.statistics)

    def lower(self, graph: StrategyGraph) -> LoweredStrategy:
        """Validate ``graph``, lower every block to its PRA plan and split the plans."""
        order = graph.validate()
        self.store.ensure_loaded()  # a layout lowers against the tables it holds
        storage = self.store.storage
        stored: dict[str, PraPlan] = {}
        done: dict[int, tuple[PraPlan, frozenset[str]]] = {}
        lowered: dict[str, LoweredBlock] = {}
        for name in order:
            block = graph.block(name)
            sources = graph.inputs_of(name)
            above = [lowered[source] for source in sources.values()]
            placeholder = PraParam(_placeholder(name))
            plan = remainder = placeholder
            key = None
            # the query is a binding: its block runs by execute, like one without a plan
            executes = not _runs_as_plan(block) or block.output_port().kind is PortKind.QUERY
            if not executes:
                inputs = {port: PraParam(_placeholder(source)) for port, source in sources.items()}
                plans = {_placeholder(step.name): step.plan for step in above}
                plan = _substitute(block.to_plan(inputs, storage), plans)
                remainder, names = _split_stored(plan, stored, done)
                if not names:
                    # equal plans are one stored object, which a hit records
                    remainder = _stored(plan, stored)
                    key = remainder.name
                    plan = stored[key]
            read = plan_parameters(remainder) & stored.keys()
            reads = tuple(sorted(read.union(*(step.reads for step in above))))
            upstream = frozenset([name]).union(*(step.upstream for step in above))
            lowered[name] = LoweredBlock(
                name, block, sources, plan, key, remainder, reads, upstream, executes
            )
        recorded = frozenset(map(id, [*stored.values(), *(s.node for s in lowered.values())]))
        return LoweredStrategy(
            graph, tuple(lowered.values()), tuple(graph.sinks()), stored, recorded
        )

    def run(
        self,
        graph: StrategyGraph | LoweredStrategy,
        query: str = "",
        *,
        result_block: str | None = None,
        parameters: dict[str, Any] | None = None,
        request: dict[str, Any] | None = None,
    ) -> StrategyRun:
        """Execute ``graph`` for ``query`` and return the result of ``result_block``.

        ``request`` is what an engine's workload log keeps to replay it.
        """
        lowered = graph if isinstance(graph, LoweredStrategy) else self.lower(graph)
        target = lowered.step(lowered.result_block(result_block))
        plan = lowered.request_plan(target.name)
        needed = [step for step in lowered.blocks if step.name in target.upstream]
        # buffered triples are materialised first, then the catalog version is
        # read before anything is computed: an output computed while the data
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
        timings = {step.name: 0.0 for step in lowered.blocks}
        record: Record = dict.fromkeys(lowered.recorded)
        started = time.perf_counter()
        try:
            memoized = self._fill(lowered, target.reads, needed, bindings, record, still_valid)
            for step in [step for step in needed if step.executes]:
                block_started = time.perf_counter()
                inputs = {
                    port: self._compute(lowered.step(source).remainder, bindings, record)
                    for port, source in step.sources.items()
                }
                output = step.block.execute(context, inputs)
                outputs[step.name] = bindings[_placeholder(step.name)] = output
                timings[step.name] = time.perf_counter() - block_started
            if target.executes and not isinstance(outputs[target.name], ProbabilisticRelation):
                raise StrategyError(
                    f"result block {target.name!r} produced "
                    f"{type(outputs[target.name]).__name__}, expected a probabilistic relation"
                )
        except Exception:
            self._failed(plan, request, started)
            raise
        result = self._evaluate_request(plan, bindings, record, request, started)
        elapsed = time.perf_counter() - started
        for step in needed:
            entry = record.get(id(step.node))
            if step.executes or entry is None:
                continue
            outputs[step.name] = entry.output
            # less the inputs evaluated within this block's evaluation
            inputs = (record.get(id(lowered.step(s).node)) for s in step.sources.values())
            timings[step.name] = entry.seconds - sum(
                source.seconds
                for source in inputs
                if source and entry.started <= source.started < entry.started + entry.seconds
            )
        outputs[target.name] = result
        return StrategyRun(
            query=query,
            output=result,
            block_outputs=outputs,
            block_timings=timings,
            elapsed_seconds=elapsed,
            memoized_blocks=memoized,
        )

    def _fill(
        self,
        lowered: LoweredStrategy,
        reads: tuple[str, ...],
        needed: list[LoweredBlock],
        bindings: dict[str, Any],
        record: Record,
        still_valid: Callable[[], bool],
    ) -> list[str]:
        """Bind every stored subplan in ``reads``: from the materialization
        cache, or computed and stored; return the blocks the cache served.

        Every hit enters the record first, so a miss reuses what the cache
        holds below it.  A computed subplan enters the record too: an executor
        that scatters evaluates a rewritten plan, which enters nothing.
        """
        cache = self.store.database.cache
        hits: dict[str, Any] = {}
        for key in reads:
            output = cache.get(key)
            if output is not None:
                hits[key] = output
                record[id(lowered.stored[key])] = Evaluated(output, 0.0, 0.0)
        for key in reads:
            plan = lowered.stored[key]
            entry = record.get(id(plan))
            if entry is None:
                started = time.perf_counter()
                output = self._compute(plan, None, record)
                entry = record.get(id(plan)) or Evaluated(
                    output, started, time.perf_counter() - started
                )
                record[id(plan)] = entry
            bindings[key] = entry.output
            if key not in hits:
                tables = scan_tables(plan)
                cache.put(key, bindings[key], dependencies=tables, still_valid=still_valid)
        return [step.name for step in needed if step.key in hits]

    # -- what an engine runs through its own path --------------------------------------

    def _compute(self, plan: PraPlan, bindings: dict[str, Any] | None, record: Record) -> Any:
        """Evaluate a part of a request: a stored subplan, or an input of a
        block that runs by ``execute``."""
        return self._evaluator.evaluate(plan, bindings=bindings, record=record)

    def _evaluate_request(
        self,
        plan: PraPlan,
        bindings: dict[str, Any],
        record: Record,
        request: dict[str, Any] | None,
        started: float,
    ) -> ProbabilisticRelation:
        """The request's one evaluation, of its result block's plan."""
        return self._evaluator.evaluate(plan, bindings=bindings, record=record)

    def _failed(self, plan: PraPlan, request: dict[str, Any] | None, started: float) -> None:
        """A block failed before the request's evaluation began."""
