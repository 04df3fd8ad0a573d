"""Unit tests for the vertical-partitioning storage strategies."""

import pytest

from repro.errors import PartitioningError
from repro.pra.evaluator import PRAEvaluator
from repro.relational.database import Database
from repro.triples.partitioning import (
    PropertyPartitionedStorage,
    SingleTableStorage,
    TypePartitionedStorage,
    make_storage,
)
from repro.triples.triple_store import Triple, TripleStore

TRIPLES = [
    Triple("p1", "category", "toy"),
    Triple("p1", "description", "wooden train"),
    Triple("p1", "price", 25),
    Triple("p2", "category", "book"),
    Triple("p2", "description", "train history"),
    Triple("p2", "price", 10),
    Triple("p2", "rating", 4.5),
]


@pytest.fixture(params=["single-table", "property-partitioned", "type-partitioned"])
def store(request):
    storage = make_storage(request.param)
    triple_store = TripleStore(storage=storage)
    triple_store.add_all(TRIPLES)
    triple_store.load()
    return triple_store


class TestAllStrategiesBehaveIdentically:
    """Every storage layout must answer the same pattern queries identically."""

    def test_match_by_property(self, store):
        assert store.match(property_name="category").num_rows == 2

    def test_match_by_property_and_object(self, store):
        matched = store.match(property_name="category", obj="toy")
        assert matched.relation.column("subject").to_list() == ["p1"]

    def test_match_by_subject_only(self, store):
        assert store.match(subject="p1").num_rows == 3

    def test_match_everything(self, store):
        assert store.match().num_rows == len(TRIPLES)

    def test_match_numeric_object(self, store):
        matched = store.match(property_name="price", obj=25)
        assert matched.relation.column("subject").to_list() == ["p1"]

    def test_unknown_property(self, store):
        assert store.match(property_name="colour").num_rows == 0


class TestBornCoded:
    """Every layout codes subject and object against one shared dictionary."""

    def test_subject_and_object_share_one_dictionary(self, store):
        subject = store.match().relation.column("subject")
        assert subject.coded
        dictionary = subject.factorize()[1]
        # a string object; numeric partitions' objects leave as uncoded str
        described = store.match(property_name="description").relation.column("object")
        assert described.factorize()[1] is dictionary
        assert dictionary.tolist() == sorted(set(dictionary.tolist()))
        assert set(subject.to_list()) | set(described.to_list()) <= set(dictionary.tolist())
        assert store.match(property_name="category").relation.column("property").coded

    @pytest.mark.parametrize(
        "layout", ["single-table", "property-partitioned", "type-partitioned"]
    )
    def test_pattern_plans_keep_the_shared_dictionary(self, layout):
        store = TripleStore(storage=make_storage(layout))
        store.add_all(TRIPLES + [Triple("p2", "type", "product")])
        store.load()
        dictionary = store.match().relation.column("subject").factorize()[1]
        evaluator = PRAEvaluator(store.database)
        typed = evaluator.evaluate(store.storage.pattern_plan("type", "product"))
        described = evaluator.evaluate(store.storage.pattern_plan("description"))
        assert [row[0] for row in typed.value_rows()] == ["p2"]
        assert described.relation.column("subject").factorize()[1] is dictionary
        assert described.relation.column("object").factorize()[1] is dictionary
        assert typed.relation.column("subject").coded
        assert typed.relation.column("subject").factorize()[1] is dictionary


class TestLayoutSpecifics:
    def test_single_table_creates_one_table(self):
        database = Database()
        storage = SingleTableStorage()
        storage.load(database, TRIPLES)
        assert storage.table_names(database) == ["triples"]
        assert database.table("triples").num_rows == len(TRIPLES)

    def test_property_partitioning_creates_one_table_per_property(self):
        database = Database()
        storage = PropertyPartitionedStorage()
        storage.load(database, TRIPLES)
        names = storage.table_names(database)
        assert len(names) == 4  # category, description, price, rating
        assert all(name.startswith("prop_") for name in names)
        assert database.table("prop_category").num_rows == 2

    def test_property_partition_names_are_sanitised(self):
        database = Database()
        storage = PropertyPartitionedStorage()
        storage.load(database, [Triple("a", "has-auction", "b"), Triple("a", "has_lot", "c")])
        assert storage.table_names(database) == [
            "prop_has_auction-6861732d61756374696f6e",
            "prop_has_lot",
        ]

    def test_properties_that_sanitize_alike_keep_their_own_tables(self):
        store = TripleStore(storage=PropertyPartitionedStorage())
        store.add_all([("x", "a-b", "1"), ("y", "a_b", "2")])
        store.load()
        for name, subject in (("a-b", "x"), ("a_b", "y")):
            rows = list(store.match(property_name=name).relation.rows())
            assert [row[:3] for row in rows] == [(subject, name, "1" if subject == "x" else "2")]
        store.add_all([("z", "a-b", "3")])
        store.load()
        assert store.match(property_name="a-b").num_rows == 2
        assert store.counters()["full_loads"] == 1
        assert store.counters()["appends"] == 1

    def test_type_partitioning_separates_physical_types(self):
        database = Database()
        storage = TypePartitionedStorage()
        storage.load(database, TRIPLES)
        names = set(storage.table_names(database))
        assert names == {"triples_str", "triples_int", "triples_float"}
        assert database.table("triples_int").num_rows == 2
        assert database.table("triples_float").num_rows == 1

    def test_type_partitioned_match_unbound_object_covers_all_partitions(self):
        database = Database()
        storage = TypePartitionedStorage()
        storage.load(database, TRIPLES)
        result = storage.match(database, "p2", None, None)
        assert result.num_rows == 4

    def test_type_partitioned_numeric_lookup_only_touches_numeric_partition(self):
        database = Database()
        storage = TypePartitionedStorage()
        storage.load(database, TRIPLES)
        result = storage.match(database, None, "rating", 4.5)
        assert result.num_rows == 1

    def test_property_partitioned_unknown_property_is_empty(self):
        database = Database()
        storage = PropertyPartitionedStorage()
        storage.load(database, TRIPLES)
        assert storage.match(database, None, "colour", None).num_rows == 0


class TestFactory:
    def test_make_storage(self):
        assert isinstance(make_storage("single-table"), SingleTableStorage)
        assert isinstance(make_storage("property-partitioned"), PropertyPartitionedStorage)
        assert isinstance(make_storage("type-partitioned"), TypePartitionedStorage)

    def test_unknown_strategy(self):
        with pytest.raises(PartitioningError):
            make_storage("columnar-magic")
