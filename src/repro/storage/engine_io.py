"""Whole-engine snapshots: database + triple store + warm caches + config.

``Engine.save(path)`` produces::

    path/
      manifest.json        engine config, compiled sources, warm statistics
      database/            every base table (columnar, memmap-loadable)
      store/               triple source relation + storage-strategy layout
      stats/s0000/ ...     collection statistics of warm search engines

``Engine.open(path)`` reverses it lazily: tables hydrate on first scan, the
triple list on first access, and saved collection statistics on the first
search against their table — so opening is O(metadata) and the first query
is served warm.  Compiled SpinQL sources recorded in the manifest are
re-compiled eagerly (compilation is cheap and deterministic), warming the
plan cache.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.errors import EngineError, SnapshotVersionError, StorageError
from repro.storage.format import ensure_directory, read_manifest, require_directory, write_manifest
from repro.storage.index_io import open_statistics, save_statistics
from repro.storage.snapshot import (
    open_database,
    restore_triple_store,
    save_database,
    save_triple_store,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine import Engine

_SPINQL_PREFIX = "spinql::"


def _compiled_sources(engine: "Engine") -> list[dict[str, Any]]:
    """The SpinQL programs currently in the plan cache, as manifest entries."""
    sources = []
    for key in engine.plan_cache.keys():  # noqa: SIM118 - the plan cache is not a dict
        if not key.startswith(_SPINQL_PREFIX):
            continue
        _, _, parameters, source = key.split("::", 3)
        entry = {"source": source, "parameters": sorted(filter(None, parameters.split(",")))}
        if entry not in sources:
            sources.append(entry)
    return sources


def _warm_search_entries(engine: "Engine", directory: Path) -> list[dict[str, Any]]:
    """Save the statistics of every warm, reconstructible search engine."""
    entries = []
    for key, searcher in engine._search_engines.items():
        table, model_key, expander_key, id_column, text_column = key
        if model_key != "default" or expander_key is not None:
            continue
        # statistics_available also counts a pending snapshot loader, so
        # open -> save round-trips keep their warmth; accessing .statistics
        # consumes the loader, which is fine at save time
        if not searcher.statistics_available:
            continue
        stats_dir = f"stats/s{len(entries):04d}"
        save_statistics(searcher.statistics, directory / stats_dir)
        entries.append(
            {
                "directory": stats_dir,
                "table": table,
                "id_column": id_column,
                "text_column": text_column,
            }
        )
    return entries


def save_engine(engine: "Engine", path: str | Path) -> Path:
    """Snapshot the whole engine state under the directory ``path``."""
    directory = Path(path)
    ensure_directory(directory)
    save_triple_store(engine.store, directory / "store")
    save_database(engine.database, directory / "database")
    write_manifest(
        directory,
        "engine",
        {
            "language": engine.language,
            "triples_table": engine.triples_table,
            "spinql": _compiled_sources(engine),
            "search_statistics": _warm_search_entries(engine, directory),
        },
    )
    return directory


def open_engine(path: str | Path, *, mmap: bool = True, **engine_kwargs: Any) -> "Engine":
    """Open an engine snapshot written by :func:`save_engine`.

    Raises :class:`EngineError` (with the offending path) when the snapshot
    directory or its pieces are missing, and :class:`SnapshotVersionError`
    on a format-version mismatch.
    """
    from repro.engine import Engine

    try:
        directory = require_directory(Path(path), what="engine snapshot")
        manifest = read_manifest(directory, "engine")
        database = open_database(directory / "database", mmap=mmap)
        engine = Engine(
            database,
            triples_table=manifest["triples_table"],
            language=manifest["language"],
            **engine_kwargs,
        )
        restore_triple_store(directory / "store", database, store=engine.store, mmap=mmap)
        for entry in manifest["spinql"]:
            engine._compile_spinql(entry["source"], frozenset(entry["parameters"]))
        for entry in manifest["search_statistics"]:
            # a 3.x entry saved by the removed relational pipeline is rebuilt
            if entry.get("pipeline", "direct") == "direct":
                _adopt_statistics(engine, directory, entry, mmap=mmap)
    except SnapshotVersionError:
        raise
    except (OSError, StorageError, KeyError, TypeError, ValueError) as error:
        # KeyError/TypeError/ValueError cover manifests that pass the version
        # check but are truncated or hand-edited (missing keys, wrong shapes)
        raise EngineError(
            f"cannot open engine snapshot at {path}: {error!r}"
        ) from error
    return engine


def _adopt_statistics(
    engine: "Engine", directory: Path, entry: dict[str, Any], *, mmap: bool
) -> None:
    """Point the matching search engine at its saved statistics (lazy)."""
    searcher = engine._search_engine(
        entry["table"],
        model=None,
        expander=None,
        id_column=entry["id_column"],
        text_column=entry["text_column"],
    )
    stats_dir = directory / entry["directory"]

    def loader() -> Any:
        return open_statistics(stats_dir, mmap=mmap)

    searcher.adopt_statistics_loader(loader)
