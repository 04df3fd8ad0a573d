"""Query expansion: synonyms and compound terms.

Section 3 notes that the production version of the auction strategy adds
*"query expansion with synonyms and compound terms"*.  This module provides
the two expanders and a way to chain them; the expanded-query benchmark (E7)
measures their latency overhead against the base strategy.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from typing import Any

from repro.errors import RankingError
from repro.text.analyzers import Analyzer


def expanded_terms(
    analyzer: Analyzer, expander: "QueryExpander", query: str, terms: Sequence[str]
) -> list[str]:
    """The analyzed terms ``expander`` adds to ``query`` (analyzed: ``terms``).

    Expansion dictionaries are written in natural language, so the expander
    sees both the raw (lower-cased) query tokens and the analyzed terms; its
    additions are then analyzed like any other query text.
    """
    raw_tokens = [token.lower() for token in analyzer.tokenizer.iter_tokens(query)]
    additions: list[str] = []
    for addition in expander.expand(list(dict.fromkeys(raw_tokens + list(terms)))):
        analyzed = analyzer.analyze(addition)
        additions.extend(analyzed if analyzed else [addition])
    return list(dict.fromkeys(additions))


class QueryExpander:
    """Base class: maps a list of query terms to additional terms."""

    def expand(self, terms: Sequence[str]) -> list[str]:
        """Return the *additional* terms contributed by the expander."""
        raise NotImplementedError

    def describe(self) -> dict[str, Any]:
        return {"expander": type(self).__name__}


class SynonymExpander(QueryExpander):
    """Dictionary-based synonym expansion.

    The synonym dictionary maps a term to its synonyms; expansion is symmetric
    if ``symmetric=True`` (a -> b also implies b -> a).
    """

    def __init__(self, synonyms: Mapping[str, Sequence[str]], *, symmetric: bool = True):
        table: dict[str, set[str]] = {}
        for term, alternatives in synonyms.items():
            table.setdefault(term.lower(), set()).update(alt.lower() for alt in alternatives)
            if symmetric:
                for alternative in alternatives:
                    table.setdefault(alternative.lower(), set()).add(term.lower())
        self._table = table

    def expand(self, terms: Sequence[str]) -> list[str]:
        additions: list[str] = []
        seen = {term.lower() for term in terms}
        for term in terms:
            for synonym in sorted(self._table.get(term.lower(), ())):
                if synonym not in seen:
                    seen.add(synonym)
                    additions.append(synonym)
        return additions

    def describe(self) -> dict[str, Any]:
        return {"expander": "synonyms", "entries": len(self._table)}


class CompoundExpander(QueryExpander):
    """Compound-term expansion: adjacent query terms become joined compounds.

    For the query ``["antique", "clock"]`` the expander adds ``"antiqueclock"``
    (and optionally the hyphenated form), which matches Dutch/German-style
    compound nouns present in the collection vocabulary.  A vocabulary can be
    supplied to restrict additions to terms that actually occur.
    """

    def __init__(
        self,
        *,
        joiners: Sequence[str] = ("",),
        vocabulary: set[str] | None = None,
        max_span: int = 2,
    ):
        if max_span < 2:
            raise RankingError("max_span must be at least 2")
        self.joiners = list(joiners)
        self.vocabulary = vocabulary
        self.max_span = max_span

    def expand(self, terms: Sequence[str]) -> list[str]:
        additions: list[str] = []
        seen = {term.lower() for term in terms}
        terms = [term.lower() for term in terms]
        for span in range(2, self.max_span + 1):
            for start in range(0, len(terms) - span + 1):
                window = terms[start : start + span]
                for joiner in self.joiners:
                    compound = joiner.join(window)
                    if compound in seen:
                        continue
                    if self.vocabulary is not None and compound not in self.vocabulary:
                        continue
                    seen.add(compound)
                    additions.append(compound)
        return additions

    def describe(self) -> dict[str, Any]:
        return {
            "expander": "compounds",
            "joiners": self.joiners,
            "max_span": self.max_span,
            "vocabulary_restricted": self.vocabulary is not None,
        }


class ChainedExpander(QueryExpander):
    """Applies several expanders in sequence, concatenating their additions."""

    def __init__(self, expanders: Sequence[QueryExpander]):
        self.expanders = list(expanders)

    def expand(self, terms: Sequence[str]) -> list[str]:
        additions: list[str] = []
        seen = {term.lower() for term in terms}
        for expander in self.expanders:
            for term in expander.expand(list(terms) + additions):
                if term.lower() not in seen:
                    seen.add(term.lower())
                    additions.append(term)
        return additions

    def describe(self) -> dict[str, Any]:
        return {
            "expander": "chain",
            "parts": [expander.describe() for expander in self.expanders],
        }
