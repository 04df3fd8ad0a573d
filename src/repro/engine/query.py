"""Lazy queries: the uniform result interface of the engine facade.

Every front end of :class:`~repro.engine.Engine` — SpinQL text, keyword
search, graph traversal, strategy graphs and the fluent builder — returns a
:class:`Query`.  Nothing executes until :meth:`Query.execute` (or a
convenience wrapper such as :meth:`Query.top`) is called, so queries can be
built, inspected with :meth:`Query.explain`, cached and re-executed against
different parameter bindings:

* :class:`SpinQLQuery` — a compiled SpinQL program; parameters bind
  probabilistic relations by name;
* :class:`TableQuery` — the fluent builder
  (``engine.table("docs").where(...).rank(...)``), which lowers to the same
  PRA plans as SpinQL;
* :class:`RankedQuery` — a table query ranked against a keyword query;
* :class:`SearchQuery` — keyword search over a docs table/view;
* :class:`StrategyQuery` — a block-based strategy graph.

All relation-producing queries share one pipeline: build → PRA plan →
optimize (:func:`repro.pra.optimizer.optimize_pra`, memoized in the engine's
plan cache) → evaluate.  :meth:`Query.execute_many` amortizes that pipeline
over a batch of parameter sets: compilation and optimization happen once,
only evaluation runs per batch element — serially by default, or on a
``ThreadPoolExecutor`` when ``max_workers`` is given (results always come
back in batch order, so concurrency never changes what a caller observes).

``top(k)`` is *rank-aware* for plan-backed queries: instead of executing the
full plan and sorting everything, the plan is wrapped in a
:class:`~repro.pra.plan.PraTop` node, the optimizer pushes it towards the
leaves where probability monotonicity allows, and evaluation uses a
partial-sort kernel — the full ranked relation is never materialised.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from typing import TYPE_CHECKING, Any

from repro.errors import EngineError
from repro.pra.assumptions import Assumption
from repro.pra.evaluator import Record
from repro.pra.expressions import PositionalRef
from repro.pra.plan import (
    QUERY_PARAM,
    PraPlan,
    PraProject,
    PraRank,
    PraSelect,
    PraTop,
    plan_parameters,
)
from repro.pra.relation import PROBABILITY_COLUMN, ProbabilisticRelation
from repro.relational.column import DataType
from repro.relational.expressions import BinaryOp, Expression, Literal
from repro.relational.relation import Relation
from repro.relational.schema import Field, Schema
from repro.spinql.sql_translator import to_sql
from repro.strategy.executor import StrategyExecutor
from repro.triples.graph import traverse_plan

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.analysis.diagnostics import AnalysisReport
    from repro.engine import Engine


def as_probabilistic(value: Any) -> ProbabilisticRelation:
    """Coerce ``value`` into a probabilistic relation usable as a binding.

    Accepted shapes: a :class:`ProbabilisticRelation`; a plain
    :class:`Relation` (lifted to ``p = 1``); an iterable of ``(node, p)``
    pairs; or an iterable of bare node identifiers (``p = 1``).
    """
    if isinstance(value, ProbabilisticRelation):
        return value
    if isinstance(value, Relation):
        return ProbabilisticRelation.lift(value)
    if isinstance(value, (str, bytes)):
        value = [value]
    try:
        items = list(value)
    except TypeError:
        raise EngineError(
            f"cannot bind {type(value).__name__} as a probabilistic relation"
        ) from None
    rows: list[tuple[str, float]] = []
    for item in items:
        if isinstance(item, tuple) and len(item) == 2:
            rows.append((str(item[0]), float(item[1])))
        else:
            rows.append((str(item), 1.0))
    schema = Schema(
        [Field("node", DataType.STRING), Field(PROBABILITY_COLUMN, DataType.FLOAT)]
    )
    return ProbabilisticRelation(Relation.from_rows(schema, rows), validate=False)


def _coerce_bindings(bindings: Mapping[str, Any]) -> dict[str, ProbabilisticRelation]:
    return {name: as_probabilistic(value) for name, value in bindings.items()}


def result_pairs(result: Any, k: int | None = None) -> list[tuple[Any, float]]:
    """Extract ``(item, probability-or-score)`` pairs from any query result."""
    from repro.ir.search import SearchResult
    from repro.strategy.executor import StrategyRun

    if isinstance(result, StrategyRun):
        return result.top(k)
    if isinstance(result, SearchResult):
        return result.top(k if k is not None else len(result.ranked))
    if isinstance(result, ProbabilisticRelation):
        ranked = result.top(k) if k is not None else result.sorted_by_probability()
        nodes = ranked.relation.column(ranked.value_columns[0]).to_list()
        return [(node, float(p)) for node, p in zip(nodes, ranked.probabilities())]
    raise EngineError(f"cannot rank a result of type {type(result).__name__}")


class Query:
    """A lazy query; subclasses define how :meth:`execute` produces a result."""

    def __init__(self, engine: "Engine"):
        self._engine = engine

    @property
    def engine(self) -> "Engine":
        return self._engine

    def execute(self, **parameters: Any) -> Any:
        """Run the query and return its result."""
        raise NotImplementedError

    def _prepare(self) -> None:
        """Compile/optimize/warm whatever :meth:`execute` would build lazily.

        Called once before concurrent batch execution so that workers never
        race to do the same compilation; the default is a no-op.
        """

    def execute_many(
        self,
        param_batches: Iterable[Mapping[str, Any]],
        *,
        max_workers: int | None = None,
    ) -> list[Any]:
        """Execute once per parameter set, amortizing compilation/optimization.

        The plan is compiled and optimized at most once (on the first
        execution); each batch element only pays for evaluation.  With
        ``max_workers`` greater than one, batch elements are evaluated on a
        thread pool; results are always returned in batch order, so the
        output is identical to serial execution.
        """
        batches = [dict(batch) for batch in param_batches]
        if max_workers is None or max_workers <= 1 or len(batches) <= 1:
            return [self.execute(**batch) for batch in batches]
        self._prepare()
        pool = self._engine._batch_pool(max_workers)
        return list(pool.map(lambda batch: self.execute(**batch), batches))

    def top(self, k: int, **parameters: Any) -> list[tuple[Any, float]]:
        """Execute and return the ``k`` best ``(item, probability)`` pairs.

        Ranking is deterministic: ties in probability are broken by the value
        columns, so equal inputs always produce equal output order.
        """
        return result_pairs(self.execute(**parameters), k)

    def top_many(
        self,
        k: int,
        param_batches: Iterable[Mapping[str, Any]],
        *,
        max_workers: int | None = None,
    ) -> list[list[tuple[Any, float]]]:
        """:meth:`top` over a batch of parameter sets, optionally concurrent.

        Like :meth:`execute_many`, results come back in batch order.
        """
        batches = [dict(batch) for batch in param_batches]
        if max_workers is None or max_workers <= 1 or len(batches) <= 1:
            return [self.top(k, **batch) for batch in batches]
        self._prepare()
        pool = self._engine._batch_pool(max_workers)
        return list(pool.map(lambda batch: self.top(k, **batch), batches))

    def explain(self) -> str:
        """Describe how the query will run (plans, translations, configuration)."""
        raise NotImplementedError

    def check(self, **parameters: Any):
        """Statically verify the query without executing it.

        Returns an :class:`~repro.analysis.diagnostics.AnalysisReport`; only
        plan-backed queries (SpinQL, the fluent builder, ranked builders)
        support it — result-opaque queries raise.
        """
        raise NotImplementedError(
            f"{type(self).__name__} is not plan-backed; check() is only "
            "available for SpinQL and builder queries"
        )


def _explain_plan_sections(engine: "Engine", plan: PraPlan) -> list[str]:
    optimized = engine._optimize_plan(plan)
    sections = ["PRA plan:", plan.describe()]
    sections += ["", "Optimized PRA plan:", optimized.describe()]
    sections += ["", "SQL translation:", to_sql(optimized)]
    return sections


class SpinQLQuery(Query):
    """A lazily compiled SpinQL program with named parameters."""

    def __init__(self, engine: "Engine", source: str, bindings: Mapping[str, Any]):
        super().__init__(engine)
        self.source = source
        self._bindings = _coerce_bindings(bindings)

    def _program(self):
        return self._engine._compile_spinql(self.source, frozenset(self._bindings))

    def _prepare(self) -> None:
        self._program()

    @property
    def plan(self) -> PraPlan:
        """The compiled (unoptimized) PRA plan of the final statement."""
        return self._program().plan

    @property
    def optimized_plan(self) -> PraPlan:
        """The optimized PRA plan the query will actually evaluate."""
        return self._program().optimized

    def plans(self, *, top_k: int | None = None) -> tuple[PraPlan, PraPlan]:
        """The (unoptimized, optimized) plan pair, optionally under a ``TOP k``.

        With ``top_k``, the unoptimized plan is wrapped in a
        :class:`~repro.pra.plan.PraTop` root and the optimized plan shows
        where the optimizer pushed that node down.
        """
        program = self._program()
        plan, optimized = program.plan, program.optimized
        if top_k is not None:
            plan = PraTop(plan, top_k)
            optimized = self._engine._optimize_plan(PraTop(optimized, top_k))
        return plan, optimized

    def _check_declared(self, parameters: Mapping[str, Any]) -> None:
        undeclared = set(parameters) - set(self._bindings)
        if undeclared:
            raise EngineError(
                f"undeclared parameters {sorted(undeclared)}; declare them when "
                "building the query: engine.spinql(source, "
                f"{', '.join(sorted(undeclared))}=...)"
            )

    def _merged_bindings(self, parameters: Mapping[str, Any]) -> dict[str, ProbabilisticRelation]:
        bindings = dict(self._bindings)
        bindings.update(_coerce_bindings(parameters))
        return bindings

    def execute(self, **parameters: Any) -> ProbabilisticRelation:
        """Evaluate the program; keyword arguments override the stored bindings.

        Only parameters declared at construction can be overridden — an
        undeclared name has no placeholder in the compiled plan and would be
        silently ignored, so it raises instead.
        """
        self._check_declared(parameters)
        program = self._program()
        return self._engine._evaluate(
            program.optimized,
            self._merged_bindings(parameters),
            kind="plan",
            request={"kind": "spinql", "source": self.source},
        )

    def top(self, k: int, **parameters: Any) -> list[tuple[Any, float]]:
        """Rank-aware top-k: evaluate under a pushed-down ``TOP k`` node.

        The optimized plan is wrapped in :class:`~repro.pra.plan.PraTop` and
        re-optimized (memoized in the plan cache), so the evaluator prunes
        with partial sorts instead of materialising the full ranked relation.
        """
        self._check_declared(parameters)
        _, optimized = self.plans(top_k=k)
        result = self._engine._evaluate(
            optimized,
            self._merged_bindings(parameters),
            kind="plan",
            request={"kind": "spinql", "source": self.source, "top_k": k},
        )
        return result_pairs(result, k)

    def check(self, *, top_k: int | None = None, hydrate: bool = True, **parameters: Any):
        """Statically verify the program without executing it.

        The verifier runs over the *optimized* plan — the one
        :meth:`execute` / :meth:`top` actually evaluate — against the
        engine's catalog, so a report with no errors means evaluation will
        not raise a schema, binding or assumption error.  ``parameters``
        override stored bindings exactly as in :meth:`execute`;
        ``hydrate=False`` keeps the check purely in-memory (lazy snapshot
        tables and views then report ``unknown-schema`` warnings rather than
        resolving — this is what the serving router's pre-dispatch gate
        uses).
        """
        self._check_declared(parameters)
        _, optimized = self.plans(top_k=top_k)
        return self._engine._verify_plan(
            optimized, bindings=self._merged_bindings(parameters), hydrate=hydrate
        )

    def explain_data(self, *, top_k: int | None = None) -> dict[str, Any]:
        """The explain report as structured data (used by the CLI's --json)."""
        return self._explain_data(top_k)[0]

    def _explain_data(self, top_k: int | None) -> tuple[dict[str, Any], AnalysisReport]:
        """:meth:`explain_data` and the static-analysis report it holds."""
        plan, optimized = self.plans(top_k=top_k)
        report = self.check(top_k=top_k)
        data = {
            "spinql": self.source.strip(),
            "parameters": sorted(self._bindings),
            "pra_plan": plan.describe(),
            "optimized_plan": optimized.describe(),
            "sql": to_sql(optimized),
            "analysis": report.to_dict(),
        }
        return data, report

    def explain(self, *, top_k: int | None = None) -> str:
        data, report = self._explain_data(top_k)
        sections = ["SpinQL program:", data["spinql"], ""]
        if data["parameters"]:
            sections += ["Parameters: " + ", ".join(data["parameters"]), ""]
        sections += ["PRA plan:", data["pra_plan"]]
        sections += ["", "Optimized PRA plan:", data["optimized_plan"]]
        sections += ["", "SQL translation:", data["sql"]]
        sections += ["", "Static analysis:", report.render()]
        return "\n".join(sections)


class TableQuery(Query):
    """The fluent builder: chainable operators over a table, view or parameter.

    Instances are immutable; every operator returns a new query, so partial
    chains can be reused::

        toys = engine.table("triples").where(property="category", object="toy")
        toys.select("subject").execute()
    """

    def __init__(
        self,
        engine: "Engine",
        plan: PraPlan,
        columns: Sequence[str],
        bindings: Mapping[str, ProbabilisticRelation] | None = None,
    ):
        super().__init__(engine)
        self._plan = plan
        self._columns = list(columns)
        self._bindings = dict(bindings or {})

    # -- chaining --------------------------------------------------------------------

    def _derive(self, plan: PraPlan, columns: Sequence[str]) -> "TableQuery":
        return TableQuery(self._engine, plan, columns, self._bindings)

    def _position_of(self, column: int | str) -> int:
        if isinstance(column, int):
            if column < 1 or column > len(self._columns):
                raise EngineError(
                    f"position {column} out of range; columns are {self._columns}"
                )
            return column
        try:
            return self._columns.index(column) + 1
        except ValueError:
            raise EngineError(
                f"unknown column {column!r}; available columns: {self._columns}"
            ) from None

    def where(self, predicate: Expression | None = None, **equals: Any) -> "TableQuery":
        """Filter rows: a raw predicate expression and/or column equalities."""
        clauses: list[Expression] = []
        if predicate is not None:
            clauses.append(predicate)
        for column, value in equals.items():
            clauses.append(
                BinaryOp("=", PositionalRef(self._position_of(column)), Literal(value))
            )
        if not clauses:
            raise EngineError("where() needs a predicate or at least one column=value")
        combined = clauses[0]
        for clause in clauses[1:]:
            combined = BinaryOp("and", combined, clause)
        return self._derive(PraSelect(self._plan, combined), self._columns)

    def select(self, *columns: int | str, **aliases: int | str) -> "TableQuery":
        """Project columns (by name or 1-based position); ``alias=column`` renames."""
        if not columns and not aliases:
            raise EngineError("select() needs at least one column")
        positions = [self._position_of(column) for column in columns]
        names = [
            column if isinstance(column, str) else self._columns[position - 1]
            for column, position in zip(columns, positions)
        ]
        for alias, column in aliases.items():
            positions.append(self._position_of(column))
            names.append(alias)
        plan = PraProject(self._plan, positions, Assumption.INDEPENDENT, names)
        return self._derive(plan, names)

    def traverse(
        self,
        property_name: str,
        *,
        direction: str = "forward",
        merge: str | Assumption = "independent",
    ) -> "TableQuery":
        """Follow one property edge from the first column, as SpinQL TRAVERSE does."""
        if direction not in ("forward", "backward"):
            raise EngineError(f"direction must be 'forward' or 'backward', got {direction!r}")
        plan = traverse_plan(
            self._plan,
            property_name,
            self._engine.store.storage,
            backward=direction == "backward",
            merge=merge if isinstance(merge, Assumption) else Assumption.parse(merge),
            arity=len(self._columns),
        )
        return self._derive(plan, ["node"])

    def rank(
        self,
        query: str | None = None,
        *,
        model: Any | None = None,
        top_k: int | None = None,
    ) -> "RankedQuery":
        """Rank the (id, text) rows of this query against a keyword query."""
        return RankedQuery(self, query=query, model=model, top_k=top_k)

    def top_k(self, k: int) -> "TableQuery":
        """Limit the query to its ``k`` most probable rows (a ``TOP k`` node).

        The optimizer pushes the node towards the leaves where probability
        monotonicity allows; :meth:`explain` on the returned query shows
        where it lands.
        """
        return self._derive(PraTop(self._plan, k), self._columns)

    # -- execution --------------------------------------------------------------------

    @property
    def plan(self) -> PraPlan:
        return self._plan

    @property
    def columns(self) -> list[str]:
        return list(self._columns)

    def _prepare(self) -> None:
        self._engine._optimize_plan(self._plan)

    def _bound(self, parameters: Mapping[str, Any]) -> dict[str, Any]:
        """The stored bindings overridden by ``parameters`` (declared ones only)."""
        undeclared = set(parameters) - plan_parameters(self._plan)
        if undeclared:
            raise EngineError(
                f"undeclared parameters {sorted(undeclared)}; this query's plan "
                f"has parameters {sorted(plan_parameters(self._plan))}"
            )
        bindings: dict[str, Any] = dict(self._bindings)
        bindings.update(_coerce_bindings(parameters))
        return bindings

    def execute(self, **parameters: Any) -> ProbabilisticRelation:
        return self._engine._execute_plan(self._plan, self._bound(parameters))

    def top(self, k: int, **parameters: Any) -> list[tuple[Any, float]]:
        """Rank-aware top-k: execute under a pushed-down ``TOP k`` node."""
        return result_pairs(self.top_k(k).execute(**parameters), k)

    def check(self, *, hydrate: bool = True, **parameters: Any):
        """Statically verify the chain; ``parameters`` bind as in :meth:`execute`.

        Plan parameters left unbound are reported as ``unbound-parameter``
        errors, matching what :meth:`execute` would raise.
        """
        bindings = dict(self._bindings)
        bindings.update(_coerce_bindings(parameters))
        return self._engine._verify_plan(
            self._engine._optimize_plan(self._plan), bindings=bindings, hydrate=hydrate
        )

    def explain(self) -> str:
        sections = [f"Builder query over columns {self._columns}:", ""]
        sections += _explain_plan_sections(self._engine, self._plan)
        sections += ["", "Static analysis:", self.check().render()]
        return "\n".join(sections)


class RankedQuery(Query):
    """A table query ranked by a keyword query: a :class:`~repro.pra.plan.PraRank` plan."""

    def __init__(
        self,
        docs: TableQuery,
        *,
        query: str | None,
        model: Any | None = None,
        top_k: int | None = None,
    ):
        from repro.ir.ranking import BM25Model

        super().__init__(docs.engine)
        self._docs = docs
        self._query = query
        self._model = model
        self.plan: PraPlan = PraRank(
            docs.plan,
            QUERY_PARAM,
            model if model is not None else BM25Model(),
            docs.engine.language,
            top_k,
        )

    def _prepare(self) -> None:
        self._engine._optimize_plan(self.plan)

    def execute(self, *, query: str | None = None, **parameters: Any) -> ProbabilisticRelation:
        effective = query if query is not None else self._query
        if effective is None:
            raise EngineError("rank() has no query; pass one to rank() or execute()")
        if len(self._docs.columns) != 2:
            raise EngineError(
                "rank() expects a two-column (id, text) input; got columns "
                f"{self._docs.columns} — use .select() to shape the query first"
            )
        bindings = self._docs._bound(parameters)
        bindings[QUERY_PARAM] = effective
        return self._engine._execute_plan(self.plan, bindings).sorted_by_probability()

    def check(self, *, hydrate: bool = True, **parameters: Any):
        """Statically verify the ranked plan; the query is bound per request."""
        return self._engine._verify_plan(
            self._engine._optimize_plan(self.plan),
            bindings=self._docs._bound(parameters),
            hydrate=hydrate,
        )

    def explain(self) -> str:
        model = self._model.describe() if self._model is not None else "BM25 (default)"
        sections = [
            f"Rank by text (model: {model}, query: {self._query!r}) over:",
            "",
        ]
        sections += _explain_plan_sections(self._engine, self._docs.plan)
        return "\n".join(sections)


class SearchQuery(Query):
    """Lazy keyword search over a ``docs(docID, data)`` table or view."""

    def __init__(
        self,
        engine: "Engine",
        table: str,
        query: str | None = None,
        *,
        model: Any | None = None,
        top_k: int | None = None,
        expander: Any | None = None,
        id_column: str = "docID",
        text_column: str = "data",
    ):
        super().__init__(engine)
        self.table = table
        self._query = query
        self._model = model
        self._top_k = top_k
        self._expander = expander
        self._id_column = id_column
        self._text_column = text_column

    def _search_engine(self):
        return self._engine._search_engine(
            self.table,
            model=self._model,
            expander=self._expander,
            id_column=self._id_column,
            text_column=self._text_column,
        )

    def _prepare(self) -> None:
        self._search_engine().warm_up()

    def execute(self, *, query: str | None = None, top_k: int | None = None):
        """Run the search: a batch of one through :meth:`Engine.search_many`."""
        effective = query if query is not None else self._query
        if effective is None:
            raise EngineError("search() has no query; pass one to search() or execute()")
        k = top_k if top_k is not None else self._top_k
        return self._search_many([effective], k)[0]

    def top(self, k: int, **parameters: Any) -> list[tuple[Any, float]]:
        return self.execute(top_k=k, **parameters).top(k)

    def _vector_queries(
        self, batches: Sequence[Mapping[str, Any]]
    ) -> tuple[list[str], int | None] | None:
        """``(queries, top_k)`` when the batch can run the vectorized kernel.

        The multi-query kernel handles homogeneous search batches: every
        parameter set carries only ``query``/``top_k``, every effective query
        is set, and all elements share one effective ``top_k``.  Anything
        else returns ``None`` and the generic per-element path runs.
        """
        if len(batches) <= 1:
            return None
        queries: list[str] = []
        top_ks: set[int | None] = set()
        for batch in batches:
            if set(batch) - {"query", "top_k"}:
                return None
            query = batch.get("query", self._query)
            if query is None:
                return None
            queries.append(query)
            top_ks.add(batch.get("top_k", self._top_k))
        if len(top_ks) != 1:
            return None
        return queries, top_ks.pop()

    def _search_many(self, queries: Sequence[str], top_k: int | None) -> list[Any]:
        return self._engine.search_many(
            self.table,
            queries,
            model=self._model,
            top_k=top_k,
            expander=self._expander,
            id_column=self._id_column,
            text_column=self._text_column,
        )

    def execute_many(
        self,
        param_batches: Iterable[Mapping[str, Any]],
        *,
        max_workers: int | None = None,
    ) -> list[Any]:
        """Batch execution through the vectorized multi-query search kernel.

        Homogeneous batches (see :meth:`_vector_queries`) are scored in one
        pass over shared postings — results are bit-identical to element-wise
        :meth:`execute`, in batch order; heterogeneous batches fall back to
        the generic path.
        """
        batches = [dict(batch) for batch in param_batches]
        vector = self._vector_queries(batches)
        if vector is None:
            return super().execute_many(batches, max_workers=max_workers)
        queries, top_k = vector
        return self._search_many(queries, top_k)

    def top_many(
        self,
        k: int,
        param_batches: Iterable[Mapping[str, Any]],
        *,
        max_workers: int | None = None,
    ) -> list[list[tuple[Any, float]]]:
        """:meth:`top` over a batch, vectorized like :meth:`execute_many`."""
        batches = [dict(batch) for batch in param_batches]
        vector = self._vector_queries([{**batch, "top_k": k} for batch in batches])
        if vector is None:
            return super().top_many(k, batches, max_workers=max_workers)
        queries, top_k = vector
        return [result.top(k) for result in self._search_many(queries, top_k)]

    def explain(self) -> str:
        searcher = self._search_engine()
        lines = [f"Keyword search over {self.table!r}:"]
        for key, value in searcher.describe().items():
            lines.append(f"  {key}: {value}")
        state = "materialized (hot)" if searcher.is_warm else "not built (cold)"
        lines.append(f"  statistics: {state}")
        if self._query is not None:
            lines.append(f"  query: {self._query!r}")
        return "\n".join(lines)


class EngineStrategyExecutor(StrategyExecutor):
    """Strategy requests through their engine.

    A request's one evaluation is :meth:`Engine._evaluate` (logged, on the
    engine's executor, like every other plan), and what it reads that the
    request computes first — a stored subplan on a miss, an input of a block
    that runs by ``execute`` — runs on the same executor.
    """

    def __init__(self, engine: "Engine"):
        super().__init__(engine.store, engine.statistics_registry)
        self._engine = engine

    def _compute(self, plan: PraPlan, bindings: Any, record: Record) -> Any:
        self._engine._require_open()
        return self._engine._plan_executor.execute_plan(plan, bindings, record)

    def _evaluate_request(
        self,
        plan: PraPlan,
        bindings: Any,
        record: Record,
        request: dict[str, Any] | None,
        started: float,
    ) -> ProbabilisticRelation:
        return self._engine._evaluate(
            plan, bindings, kind="strategy", request=request, record=record, started=started
        )

    def _failed(self, plan: PraPlan, request: dict[str, Any] | None, started: float) -> None:
        self._engine._record_execution(
            kind="strategy",
            fingerprint=self._engine._log_fingerprint(plan),
            started=started,
            rows_out=None,
            status="error",
            request=request,
        )


class StrategyQuery(Query):
    """Lazy execution of a block-based strategy graph, lowered to PRA plans."""

    def __init__(
        self,
        engine: "Engine",
        graph: Any,
        query: str = "",
        *,
        result_block: str | None = None,
        parameters: Mapping[str, Any] | None = None,
        name: str | None = None,
        lowered: Any | None = None,
    ):
        super().__init__(engine)
        self.graph = graph
        self._lowering = lowered  # a strategy by name: its kept lowering
        self._query = query
        self._result_block = result_block
        self._parameters = dict(parameters or {})
        self._name = name  # prebuilt strategy name, when built from one

    def _lowered(self) -> Any:
        if self._lowering is not None:
            return self._lowering
        return self._engine.executor.lower(self.graph)

    def execute(self, *, query: str | None = None, **parameters: Any):
        merged = dict(self._parameters)
        merged.update(parameters)
        effective = query if query is not None else self._query
        request = None
        if self._name is not None and not merged and self._result_block is None:
            request = {"kind": "strategy", "name": self._name, "query": effective}
        return self._engine.executor.run(
            self._lowered(),
            query=effective,
            result_block=self._result_block,
            parameters=merged,
            request=request,
        )

    def check(self, *, hydrate: bool = True, **parameters: Any):
        """Statically verify the result block's plan (its ancestors included).

        The keyword query and the outputs of blocks that run by ``execute``
        are bound per request, so their schemas stay opaque.
        """
        lowered = self._lowered()
        plan = lowered.step(lowered.result_block(self._result_block)).plan
        return self._engine._verify_plan(
            plan, parameters=plan_parameters(plan), hydrate=hydrate
        )

    def explain(self) -> str:
        """The strategy diagram, the blocks that run by ``execute``, the plan a
        request evaluates once, and each stored subplan it reads, served from
        the materialization cache or computed."""
        from repro.strategy.render import render_ascii

        lowered = self._lowered()
        target = lowered.step(lowered.result_block(self._result_block))
        plan = lowered.request_plan(target.name).describe()
        labels = {step.key: step.name for step in lowered.blocks if step.key is not None}
        executed = [s.name for s in lowered.blocks if s.executes and s.name in target.upstream]
        stored: list[str] = []
        unnamed = iter(range(1, len(target.reads) + 1))
        for key in target.reads:
            label = labels.get(key) or f"subplan {next(unnamed)}"
            plan = plan.replace(f"Param({key})", f"Stored({label})")
            if key in self._engine.database.cache:
                stored.append(f"  {label}: served from the materialization cache")
            else:
                stored.append(f"  {label}: computed on the next request, then served from it")
            stored.extend("    " + line for line in lowered.stored[key].describe().splitlines())
        return "\n".join(
            [render_ascii(self.graph), "", "runs by execute, per request:"]
            + [f"  {name}" for name in executed]
            + ["", "plan, evaluated once per request:", plan, "", "stored subplans:"]
            + stored
        )
