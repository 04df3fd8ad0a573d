"""The :class:`Database` facade: catalog + executor + cache.

A :class:`Database` is the reproduction's equivalent of a MonetDB instance:
it holds base tables and views, registers user-defined functions (the
tokenizer and stemmers of Section 2.1), executes logical plans and keeps the
on-demand materialization cache of Section 2.2.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from pathlib import Path
from typing import Any

from repro.relational.algebra import LogicalPlan, Scan
from repro.relational.cache import VersionedLRU
from repro.relational.catalog import Catalog
from repro.relational.functions import FunctionRegistry, default_registry
from repro.relational.operators import Executor
from repro.relational.relation import Relation
from repro.relational.schema import Schema


class Database:
    """An in-memory columnar database instance."""

    def __init__(
        self,
        functions: FunctionRegistry | None = None,
        *,
        cache_enabled: bool = True,
    ):
        self.catalog = Catalog()
        self.functions = functions if functions is not None else default_registry()
        # materialised plan results by plan fingerprint (Section 2.2); unbounded
        self.cache: VersionedLRU[str, Relation] = VersionedLRU()
        self.cache_enabled = cache_enabled
        self._executor = Executor(self.catalog.resolve, self.functions)

    # -- data definition ------------------------------------------------------------

    def create_table(self, name: str, relation: Relation, *, replace: bool = False) -> None:
        """Register a base table; invalidates cache entries that depend on it."""
        self.catalog.create_table(name, relation, replace=replace)
        self.cache.invalidate_table(name)

    def create_table_from_rows(
        self,
        name: str,
        schema: Schema,
        rows: Iterable[Sequence[Any]],
        *,
        replace: bool = False,
    ) -> Relation:
        """Convenience: build a relation from rows and register it."""
        relation = Relation.from_rows(schema, rows)
        self.create_table(name, relation, replace=replace)
        return relation

    def create_table_from_dicts(
        self,
        name: str,
        schema: Schema,
        rows: Iterable[Mapping[str, Any]],
        *,
        replace: bool = False,
    ) -> Relation:
        """Convenience: build a relation from row dictionaries and register it."""
        relation = Relation.from_dicts(schema, rows)
        self.create_table(name, relation, replace=replace)
        return relation

    def drop_table(self, name: str) -> None:
        self.catalog.drop_table(name)
        self.cache.invalidate_table(name)

    def create_view(self, name: str, plan: LogicalPlan, *, replace: bool = False) -> None:
        """Register a view: a named logical plan evaluated lazily on scan."""
        self.catalog.create_view(name, plan, replace=replace)
        self.cache.invalidate_table(name)

    def drop_view(self, name: str) -> None:
        self.catalog.drop_view(name)
        self.cache.invalidate_table(name)

    def table(self, name: str) -> Relation:
        """Return the materialised contents of a base table."""
        return self.catalog.table(name)

    def scan(self, name: str) -> Scan:
        """Return a :class:`Scan` plan node over the named table or view."""
        return Scan(name)

    # -- execution ---------------------------------------------------------------------

    def execute(self, plan: LogicalPlan, *, use_cache: bool | None = None) -> Relation:
        """Execute a logical plan, consulting the materialization cache."""
        caching = self.cache_enabled if use_cache is None else use_cache
        if caching:
            key = plan.fingerprint()
            cached = self.cache.get(key)
            if cached is not None:
                return cached
        still_valid = self.catalog.unchanged()
        result = self._executor.execute(plan)
        if caching:
            self.cache.put(
                key,
                result,
                dependencies=self._plan_dependencies(plan),
                still_valid=still_valid,
            )
        return result

    def _plan_dependencies(self, plan: LogicalPlan) -> frozenset[str]:
        """Names of every table and view the plan depends on, views expanded.

        Cached results must be invalidated when any *base* table they were
        computed from changes, even when the plan only scans a view defined
        over that table, so scans of views are expanded transitively.
        """
        from repro.relational.algebra import Scan

        seen: set[str] = set()
        stack: list[LogicalPlan] = [plan]
        while stack:
            node = stack.pop()
            if isinstance(node, Scan):
                if node.table in seen:
                    continue
                seen.add(node.table)
                if self.catalog.has_view(node.table):
                    stack.append(self.catalog.view(node.table))
                continue
            stack.extend(node.children())
        return frozenset(seen)

    def materialize_view(self, name: str) -> Relation:
        """Force materialisation of a view into the cache and return its contents."""
        plan = Scan(name)
        return self.execute(plan, use_cache=True)

    def query(self, name: str) -> Relation:
        """Execute ``SELECT * FROM name`` (table or view)."""
        return self.execute(Scan(name))

    # -- persistence --------------------------------------------------------------------

    def save(self, path: str | Path) -> Path:
        """Snapshot every base table into the directory ``path`` (see :mod:`repro.storage`)."""
        from repro.storage.snapshot import save_database

        return save_database(self, path)

    @classmethod
    def open(
        cls, path: str | Path, *, mmap: bool = True, lazy: bool = True, **kwargs: Any
    ) -> "Database":
        """Open a database snapshot written by :meth:`save`.

        Tables hydrate lazily on first scan (memmap-backed, zero-copy for
        numeric columns); ``kwargs`` are forwarded to the constructor.
        """
        from repro.storage.snapshot import open_database

        return open_database(path, database=cls(**kwargs), mmap=mmap, lazy=lazy)

    # -- maintenance --------------------------------------------------------------------

    def clear_cache(self) -> None:
        """Drop every materialised intermediate result (cold-cache state)."""
        self.cache.clear()

    def table_names(self) -> list[str]:
        return self.catalog.table_names()

    def view_names(self) -> list[str]:
        return self.catalog.view_names()
