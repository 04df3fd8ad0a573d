"""Section 2.1 by test: the relational view chain *is* the statistics builder.

:class:`RelationalStatisticsBuilder` materialises the paper's CREATE VIEW
chain (``term_doc``, ``doc_len``, ``termdict``, ``tf``) through the database;
:func:`build_statistics` computes statistics in one vectorised pass and serves
every search.  This property pins that both give the same
:class:`CollectionStatistics`, array for array: every docs row is one document
in docs order — including rows whose text analyzes to no term — term ids are
numbered in first-seen order, and the packed postings agree.

Runs derandomized, like the rest of ``tests/property``.  DocIDs are unique:
a docs relation that repeats a docID is ranked as separate documents by the
served path and merged by the views.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir.statistics import RelationalStatisticsBuilder, build_statistics
from repro.relational.column import DataType
from repro.relational.database import Database
from repro.relational.schema import Field, Schema
from repro.text.analyzers import StandardAnalyzer
from tests.statistics_equality import assert_statistics_equal

LANGUAGES = st.sampled_from(["english", "dutch", "german", "french", "none"])

WORDS = st.sampled_from(
    [
        "Chair", "chairs", "TABLE", "tables", "running", "runs", "Huis", "huizen",
        "maison", "maisons", "Häuser", "café", "naïve", "Ærø", "x42", "2017",
        "3", "don't", "O'Neil", "ab12cd", "the", "de", "het", "und", "les",
        "fietsen", "gegangen", "nationale", "generously", "s",
    ]
)
SEPARATORS = st.sampled_from([" ", "  ", ", ", ". ", "!", "-", "\n", "\t", " -- ", "'", "…"])
PUNCTUATION = st.text(alphabet="!?.,;:-'\"()[]…—«» \t\n", max_size=8)


@st.composite
def texts(draw):
    kind = draw(st.integers(0, 9))
    if kind == 0:
        return ""
    if kind == 1:
        return draw(PUNCTUATION)
    if kind == 2:
        return draw(st.text(max_size=20))
    words = draw(st.lists(WORDS, max_size=8))
    separators = draw(st.lists(SEPARATORS, min_size=len(words), max_size=len(words)))
    return "".join(word + separator for word, separator in zip(words, separators))


@st.composite
def collections(draw):
    texts_drawn = draw(st.lists(texts(), min_size=1, max_size=12))
    if draw(st.booleans()):
        ids = draw(
            st.lists(
                st.integers(-1000, 1000),
                min_size=len(texts_drawn),
                max_size=len(texts_drawn),
                unique=True,
            )
        )
        id_type = DataType.INT
    else:
        ids = draw(
            st.lists(
                st.text(min_size=1, max_size=6),
                min_size=len(texts_drawn),
                max_size=len(texts_drawn),
                unique=True,
            )
        )
        id_type = DataType.STRING
    return id_type, list(zip(ids, texts_drawn))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(collections(), LANGUAGES)
def test_view_chain_equals_build_statistics(collection, language):
    id_type, rows = collection
    database = Database()
    schema = Schema([Field("docID", id_type), Field("data", DataType.STRING)])
    database.create_table_from_rows("docs", schema, rows)

    relational = RelationalStatisticsBuilder(database, "docs", language=language).materialize()
    direct = build_statistics(rows, StandardAnalyzer(language))
    assert_statistics_equal(relational, direct)
