"""Unit tests for the statistics registry and the append path it relies on."""

import numpy as np

from repro.ir.registry import MAX_ENTRIES, StatisticsRegistry
from repro.ir.statistics import CollectionStatistics, build_statistics, extend_statistics
from repro.relational.column import Column, DataType
from repro.text.analyzers import Analyzer, StandardAnalyzer

DOCS = [
    ("d1", "a book about history"),
    ("d2", "a cake recipe book"),
    ("d3", "history of cakes and baking"),
    ("d4", "trains and railways of the world"),
    ("d5", "the history of model trains and cakes"),
]


def columns(docs):
    return (
        Column([doc_id for doc_id, _ in docs], DataType.STRING),
        Column([text for _, text in docs], DataType.STRING),
    )


def assert_identical(actual: CollectionStatistics, expected: CollectionStatistics):
    """Every field equal, dict iteration order and array dtypes included."""
    assert actual.doc_ids == expected.doc_ids
    assert actual.total_terms == expected.total_terms
    assert list(actual.term_ids.items()) == list(expected.term_ids.items())
    for name in ("doc_lengths", "offsets", "doc_indices", "frequencies", "document_frequency"):
        got, want = getattr(actual, name), getattr(expected, name)
        assert got.dtype == want.dtype == np.int64, name
        assert got.tolist() == want.tolist(), name


class TestExtendStatistics:
    def test_append_equals_bulk_build_at_every_split(self):
        bulk = build_statistics(DOCS)
        for split in range(len(DOCS) + 1):
            base = build_statistics(DOCS[:split])
            assert_identical(extend_statistics(base, DOCS[split:]), bulk)

    def test_repeated_appends_equal_bulk_build(self):
        statistics = build_statistics(DOCS[:1])
        for doc in DOCS[1:]:
            statistics = extend_statistics(statistics, [doc])
        assert_identical(statistics, build_statistics(DOCS))

    def test_base_is_left_untouched(self):
        base = build_statistics(DOCS[:3])
        reference = build_statistics(DOCS[:3])
        extend_statistics(base, DOCS[3:])
        assert_identical(base, reference)


class TestRegistry:
    def test_hit_on_equal_content_in_new_columns(self):
        registry = StatisticsRegistry()
        analyzer = StandardAnalyzer()
        first = registry.get(*columns(DOCS), analyzer)
        # fresh column objects, a fresh analyzer of the same configuration
        second = registry.get(*columns(DOCS), StandardAnalyzer())
        assert second is first
        assert registry.counters() == {
            "hits": 1, "extends": 0, "rebuilds": 1, "evictions": 0, "entries": 1
        }

    def test_hit_on_same_column_objects(self):
        registry = StatisticsRegistry()
        ids, texts = columns(DOCS)
        first = registry.get(ids, texts, StandardAnalyzer())
        assert registry.get(ids, texts, StandardAnalyzer()) is first

    def test_a_content_hit_makes_the_callers_columns_an_identity_hit(self, monkeypatch):
        from repro.ir import registry as registry_module

        hashed: list[int] = []

        def counting_hash(value):
            hashed.append(1)
            return hash(value)

        monkeypatch.setattr(registry_module, "hash", counting_hash, raising=False)
        registry = StatisticsRegistry()
        first = registry.get(*columns(DOCS), StandardAnalyzer())
        # another consumer's columns: equal content, hashed once, then adopted
        ids, texts = columns(DOCS)
        assert registry.get(ids, texts, StandardAnalyzer()) is first
        assert len(hashed) == 2
        for _ in range(3):
            assert registry.get(ids, texts, StandardAnalyzer()) is first
        assert len(hashed) == 2
        assert registry.counters()["hits"] == 4

    def test_row_prefix_extension_analyzes_only_the_tail(self):
        analyzed: list[str] = []

        class Recording(Analyzer):
            def analyze(self, text):
                analyzed.append(text)
                return super().analyze(text)

        analyzer = Recording()
        registry = StatisticsRegistry()
        registry.get(*columns(DOCS[:3]), analyzer)
        del analyzed[:]
        extended = registry.get(*columns(DOCS), analyzer)
        assert analyzed == [text for _, text in DOCS[3:]]
        assert_identical(extended, build_statistics(DOCS, Recording()))
        counters = registry.counters()
        assert (counters["extends"], counters["rebuilds"]) == (1, 1)
        # the superseded entry is gone: one collection, one index
        assert counters["entries"] == 1

    def test_anything_but_an_append_rebuilds(self):
        registry = StatisticsRegistry()
        analyzer = StandardAnalyzer()
        registry.get(*columns(DOCS[1:4]), analyzer)
        edited = [DOCS[1], ("d3", "an edited text"), DOCS[3], DOCS[4]]
        for docs in (DOCS[:4], DOCS[1:3], edited, list(reversed(DOCS[1:4])) + DOCS[4:]):
            before = registry.counters()
            statistics = registry.get(*columns(docs), analyzer)
            after = registry.counters()
            assert after["rebuilds"] == before["rebuilds"] + 1
            assert after["extends"] == before["extends"]
            assert_identical(statistics, build_statistics(docs))

    def test_edited_text_under_same_ids_is_a_different_collection(self):
        registry = StatisticsRegistry()
        analyzer = StandardAnalyzer()
        before = registry.get(*columns(DOCS), analyzer)
        edited = DOCS[:-1] + [("d5", "nothing but bicycles")]
        after = registry.get(*columns(edited), analyzer)
        assert after is not before
        assert after.df("bicycl") == 1 and before.df("bicycl") == 0

    def test_analyzers_do_not_share(self):
        registry = StatisticsRegistry()
        english = registry.get(*columns(DOCS), StandardAnalyzer("english"))
        unstemmed = registry.get(*columns(DOCS), StandardAnalyzer("none"))
        custom = registry.get(*columns(DOCS), Analyzer())
        assert english.df("histori") == 3 and unstemmed.df("history") == 3
        assert len({id(english), id(unstemmed), id(custom)}) == 3
        assert registry.counters()["rebuilds"] == 3

    def test_id_dtype_is_part_of_the_key(self):
        registry = StatisticsRegistry()
        texts = Column(["one text", "another text"], DataType.STRING)
        ints = registry.get(Column([1, 2], DataType.INT), texts, StandardAnalyzer())
        floats = registry.get(Column([1.0, 2.0], DataType.FLOAT), texts, StandardAnalyzer())
        assert [type(value) for value in ints.doc_ids] == [int, int]
        assert [type(value) for value in floats.doc_ids] == [float, float]

    def test_size_stays_bounded_over_twenty_data_versions(self):
        registry = StatisticsRegistry()
        analyzer = StandardAnalyzer()
        sizes = []
        for version in range(20):
            edited = DOCS[:-1] + [("d5", f"edition number {version}")]
            registry.get(*columns(edited), analyzer)
            sizes.append(len(registry))
        assert sizes[MAX_ENTRIES - 1 :] == [MAX_ENTRIES] * (20 - MAX_ENTRIES + 1)
        counters = registry.counters()
        assert counters["rebuilds"] == 20
        assert counters["evictions"] == 20 - MAX_ENTRIES

    def test_appends_keep_one_entry_over_twenty_data_versions(self):
        registry = StatisticsRegistry()
        analyzer = StandardAnalyzer()
        docs = list(DOCS)
        for version in range(20):
            docs.append((f"n{version}", f"appended document number {version}"))
            registry.get(*columns(docs), analyzer)
            assert len(registry) == 1
        assert registry.counters()["extends"] == 19
        assert_identical(registry.get(*columns(docs), analyzer), build_statistics(docs))

    def test_clear_drops_entries_and_keeps_counting(self):
        registry = StatisticsRegistry()
        registry.get(*columns(DOCS), StandardAnalyzer())
        registry.clear()
        assert len(registry) == 0
        registry.get(*columns(DOCS), StandardAnalyzer())
        assert registry.counters()["rebuilds"] == 2
