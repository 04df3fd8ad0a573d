"""A content-keyed, append-extensible registry of collection statistics.

Every consumer that ranks a ``(docID, text)`` collection — the keyword search
engine over a docs table, the *Rank by Text* strategy block over an
on-the-fly sub-collection — asks a :class:`StatisticsRegistry` for the
collection's :class:`~repro.ir.statistics.CollectionStatistics` (an engine
has one, shared by search, ``rank()`` and the rank blocks of every
strategy).  A registry is keyed on *content*: the id column, the text column
and the analyzer configuration.  Two consumers of one registry indexing the
same documents share one index, and a collection whose texts changed under
the same ids is a different key, never a stale hit.

When a requested collection is a row-prefix *extension* of a registered one
— the old ids and texts are literally the first rows of the new columns,
checked value by value, not assumed — only the appended rows are analyzed
(:func:`~repro.ir.statistics.extend_statistics`) and the superseded entry is
dropped, so a stream of appends keeps one index per collection instead of
one per data version.  Anything else (an edit in place, a prepend, a shrink)
is a rebuild.  The registry is bounded (:data:`MAX_ENTRIES`,
least-recently-used eviction) and thread-safe; builds are serialised so
concurrent requests for one new collection analyze it once.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.ir.statistics import CollectionStatistics, build_statistics, extend_statistics
from repro.relational.column import Column
from repro.text.analyzers import Analyzer, StandardAnalyzer
from repro.text.tokenizer import Tokenizer

#: how many collections one registry keeps.  An engine indexes a handful at a
#: time (the docs tables it searches, the sub-collections of its strategies);
#: superseded versions of an appended collection are dropped on extension, so
#: only rebuilt (edited) collections ever queue up for eviction.
MAX_ENTRIES = 8


def _analyzer_key(analyzer: Analyzer) -> tuple[Any, ...]:
    """What makes two analyzers interchangeable for indexing.

    Only the stock :class:`StandardAnalyzer` is keyed by configuration; any
    other analyzer (a subclass may override ``analyze``) shares statistics
    only with itself.
    """
    tokenizer = analyzer.tokenizer
    if type(analyzer) is StandardAnalyzer and type(tokenizer) is Tokenizer:
        return (
            "standard",
            analyzer.language,
            analyzer.remove_stopwords,
            tokenizer.lowercase,
            tokenizer.keep_numbers,
            tokenizer.min_length,
            tokenizer.max_length,
        )
    return ("instance", id(analyzer))


@dataclass
class _Entry:
    #: the column arrays the statistics were built from (identity fast path)
    id_values: np.ndarray
    text_values: np.ndarray
    #: the same content as lists (equality checks, prefix verification)
    ids: list[Any]
    texts: list[Any]
    #: pins a custom analyzer so its ``id()`` key cannot be recycled
    analyzer: Analyzer
    statistics: CollectionStatistics


class StatisticsRegistry:
    """Maps *(id column, text column, analyzer)* content to collection statistics."""

    def __init__(self) -> None:
        self._entries: OrderedDict[tuple[Any, ...], _Entry] = OrderedDict()
        self._lock = threading.Lock()
        # one build at a time: a second request for the same new collection
        # waits here and then finds the first one's entry
        self._build_lock = threading.Lock()
        self._hits = 0
        self._extends = 0
        self._rebuilds = 0
        self._evictions = 0

    def get(
        self, id_column: Column, text_column: Column, analyzer: Analyzer
    ) -> CollectionStatistics:
        """The statistics of the collection ``(id_column, text_column)``.

        Served from the registry when the content is registered, extended
        from a registered row prefix when there is one, built otherwise.
        """
        id_values, text_values = id_column.values, text_column.values
        analyzer_key = _analyzer_key(analyzer)
        with self._lock:
            # the same column objects as last time (a memoized strategy block,
            # an unchanged table): no hashing of the collection at all
            same = next(
                (
                    key
                    for key, entry in self._entries.items()
                    if entry.id_values is id_values
                    and entry.text_values is text_values
                    and key[0] == analyzer_key
                ),
                None,
            )
            if same is not None:
                return self._hit(same)
        ids, texts = id_values.tolist(), text_values.tolist()
        key = (analyzer_key, id_values.dtype.str, hash((tuple(ids), tuple(texts))))
        with self._lock:
            found = self._lookup(key, ids, texts, id_values, text_values)
            if found is not None:
                return found
        with self._build_lock:
            with self._lock:
                found = self._lookup(key, ids, texts, id_values, text_values)
                if found is not None:
                    return found
                prefix_key = self._longest_prefix(key, ids, texts)
                base = self._entries[prefix_key].statistics if prefix_key is not None else None
            if base is not None:
                tail = list(zip(ids[base.num_docs :], texts[base.num_docs :]))
                statistics = extend_statistics(base, tail, analyzer)
            else:
                statistics = build_statistics(list(zip(ids, texts)), analyzer)
            entry = _Entry(id_values, text_values, ids, texts, analyzer, statistics)
            with self._lock:
                if prefix_key is not None:
                    self._extends += 1
                    self._entries.pop(prefix_key, None)
                else:
                    self._rebuilds += 1
                self._entries[key] = entry
                while len(self._entries) > MAX_ENTRIES:
                    self._entries.popitem(last=False)
                    self._evictions += 1
        return statistics

    def _hit(self, key: tuple[Any, ...]) -> CollectionStatistics:
        """Count a hit and refresh the entry's recency; caller holds the lock."""
        self._hits += 1
        self._entries.move_to_end(key)
        return self._entries[key].statistics

    def _lookup(
        self,
        key: tuple[Any, ...],
        ids: list[Any],
        texts: list[Any],
        id_values: np.ndarray,
        text_values: np.ndarray,
    ) -> CollectionStatistics | None:
        """A registered entry with exactly this content; caller holds the lock.

        The entry adopts the caller's arrays, so the caller's next request
        with the same columns is an identity hit instead of another hash.
        """
        entry = self._entries.get(key)
        # the key carries a hash of the content; equality is what decides
        if entry is None or entry.ids != ids or entry.texts != texts:
            return None
        entry.id_values, entry.text_values = id_values, text_values
        return self._hit(key)

    def _longest_prefix(
        self, key: tuple[Any, ...], ids: list[Any], texts: list[Any]
    ) -> tuple[Any, ...] | None:
        """Key of the longest registered collection the request extends.

        Same analyzer and id dtype, strictly fewer rows, and its ids and
        texts equal the request's first rows.  Caller holds the lock.
        """
        best: tuple[Any, ...] | None = None
        best_rows = 0
        for candidate, entry in self._entries.items():
            rows = len(entry.ids)
            if (
                candidate[:2] == key[:2]
                and best_rows < rows < len(ids)
                and ids[:rows] == entry.ids
                and texts[:rows] == entry.texts
            ):
                best, best_rows = candidate, rows
        return best

    def clear(self) -> None:
        """Drop every registered collection (counters keep counting)."""
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def counters(self) -> dict[str, int]:
        """Hit / extend / rebuild / evict counts and the current entry count.

        ``hits + extends + rebuilds`` is the number of :meth:`get` calls.
        """
        with self._lock:
            return {
                "hits": self._hits,
                "extends": self._extends,
                "rebuilds": self._rebuilds,
                "evictions": self._evictions,
                "entries": len(self._entries),
            }
