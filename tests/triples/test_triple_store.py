"""Unit tests for the triple store."""

import pytest

from repro.errors import TripleStoreError
from repro.pra.evaluator import PRAEvaluator
from repro.triples.triple_store import Triple, TripleStore


class TestLoading:
    def test_add_and_count(self):
        store = TripleStore()
        store.add("s", "p", "o")
        store.add("s", "q", 3, probability=0.5)
        assert store.num_triples == 2

    def test_add_all_accepts_tuples_and_triples(self):
        store = TripleStore()
        store.add_all(
            [
                ("a", "p", "b"),
                ("a", "q", "c", 0.7),
                Triple("d", "p", "e", 0.9),
            ]
        )
        assert store.num_triples == 3

    def test_add_all_rejects_malformed_tuples(self):
        store = TripleStore()
        with pytest.raises(TripleStoreError):
            store.add_all([("only", "two")])

    def test_properties_and_subjects(self, toy_store):
        assert set(toy_store.properties()) == {"type", "category", "description"}
        assert "product1" in toy_store.subjects()

    def test_lazy_loading_on_first_query(self):
        store = TripleStore()
        store.add("a", "p", "b")
        # match() without an explicit load() must trigger loading
        assert store.match(property_name="p").num_rows == 1


class TestMatching:
    def test_match_by_property(self, toy_store):
        matched = toy_store.match(property_name="category")
        assert matched.num_rows == 4

    def test_match_by_property_and_object(self, toy_store):
        matched = toy_store.match(property_name="category", obj="toy")
        subjects = set(matched.relation.column("subject").to_list())
        assert subjects == {"product1", "product3", "product4"}

    def test_match_by_subject(self, toy_store):
        matched = toy_store.match(subject="product2")
        assert matched.num_rows == 3

    def test_match_everything(self, toy_store):
        assert toy_store.match().num_rows == toy_store.num_triples

    def test_match_no_results(self, toy_store):
        assert toy_store.match(property_name="price").num_rows == 0

    def test_probabilities_preserved(self):
        store = TripleStore()
        store.add("a", "extracted", "b", probability=0.6)
        matched = store.match(property_name="extracted")
        assert list(matched.probabilities()) == [0.6]

    def test_pattern_plan_reads_one_property(self, toy_store):
        plan = toy_store.storage.pattern_plan("description")
        descriptions = PRAEvaluator(toy_store.database).evaluate(plan)
        assert descriptions.value_columns == ["subject", "property", "object"]
        assert descriptions.num_rows == 4

    def test_pattern_plan_binds_the_object(self, toy_store):
        plan = toy_store.storage.pattern_plan("type", "product")
        products = PRAEvaluator(toy_store.database).evaluate(plan)
        assert products.relation.column("subject").to_list() == [
            "product1", "product2", "product3", "product4"
        ]


class TestRelationalIntegration:
    def test_as_relation(self, toy_store):
        relation = toy_store.as_relation()
        assert relation.schema.names == ["subject", "property", "object", "p"]
        assert relation.num_rows == toy_store.num_triples

    def test_register_docs_view(self, toy_store):
        toy_store.register_docs_view(
            "docs",
            filter_property="category",
            filter_value="toy",
            text_property="description",
        )
        docs = toy_store.database.table("docs")
        assert docs.schema.names == ["docID", "data", "p"]
        ids = set(docs.column("docID").to_list())
        assert ids == {"product1", "product3", "product4"}

    def test_docs_relation_does_not_leave_table_behind(self, toy_store):
        docs = toy_store.docs_relation(
            filter_property="category", filter_value="toy", text_property="description"
        )
        assert docs.num_rows == 3
        assert "__docs_tmp__" not in toy_store.database.table_names()

    def test_docs_view_propagates_probabilities(self):
        store = TripleStore()
        store.add("item1", "category", "toy", probability=0.5)
        store.add("item1", "description", "uncertain toy", probability=0.8)
        docs = store.docs_relation(
            filter_property="category", filter_value="toy", text_property="description"
        )
        assert docs.probabilities()[0] == pytest.approx(0.4)
