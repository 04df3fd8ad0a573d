"""Unit tests for graph traversal, emergent-schema detection and the loader."""

import pytest

from repro.engine.query import as_probabilistic
from repro.errors import TripleStoreError
from repro.pra.evaluator import PRAEvaluator
from repro.pra.plan import PraParam
from repro.pra.relation import ProbabilisticRelation
from repro.relational.column import DataType
from repro.relational.relation import Relation
from repro.relational.schema import Field, Schema
from repro.triples.emergent_schema import EmergentSchemaDetector
from repro.triples.graph import traverse_plan
from repro.triples.loader import load_triples, parse_triple_line
from repro.triples.triple_store import Triple, TripleStore


def traverse(store, nodes, property_name, *, backward=False, arity=1):
    """Evaluate one :func:`traverse_plan` step from ``nodes`` over ``store``."""
    plan = traverse_plan(
        PraParam("nodes"), property_name, store.storage, backward=backward, arity=arity
    )
    start = nodes if isinstance(nodes, ProbabilisticRelation) else as_probabilistic(nodes)
    return PRAEvaluator(store.database).evaluate(plan, bindings={"nodes": start})


class TestTraversePlan:
    def test_forward_traversal(self, auction_store):
        reached = traverse(auction_store, ["lot1", "lot2"], "hasAuction")
        assert reached.relation.column("node").to_list() == ["auction1"]

    def test_backward_traversal(self, auction_store):
        reached = traverse(auction_store, ["auction1"], "hasAuction", backward=True)
        assert set(reached.relation.column("node").to_list()) == {"lot1", "lot2"}

    def test_neighbors(self, auction_store):
        reached = traverse(auction_store, ["lot3"], "hasAuction")
        assert reached.relation.column("node").to_list() == ["auction2"]
        back = traverse(auction_store, ["auction2"], "hasAuction", backward=True)
        assert set(back.relation.column("node").to_list()) == {"lot3", "lot4"}

    def test_probability_propagation(self, auction_store):
        schema = Schema([Field("node", DataType.STRING), Field("p", DataType.FLOAT)])
        start = ProbabilisticRelation(
            Relation.from_rows(schema, [("lot1", 0.5), ("lot2", 0.25)])
        )
        reached = traverse(auction_store, start, "hasAuction")
        # both lots reach auction1; the merged probability must exceed either path alone
        probability = reached.probabilities()[0]
        assert probability == pytest.approx(1 - (1 - 0.5) * (1 - 0.25))

    def test_round_trip_forward_then_backward(self, auction_store):
        auctions = traverse(auction_store, ["lot1"], "hasAuction")
        reached = traverse(auction_store, auctions, "hasAuction", backward=True)
        nodes = set(reached.relation.column("node").to_list())
        assert nodes == {"lot1", "lot2"}  # all lots of auction1

    def test_traverses_from_the_first_of_several_columns(self, auction_store):
        schema = Schema(
            [Field("a", DataType.STRING), Field("b", DataType.STRING), Field("p", DataType.FLOAT)]
        )
        start = ProbabilisticRelation(Relation.from_rows(schema, [("lot3", "x", 1.0)]))
        reached = traverse(auction_store, start, "hasAuction", arity=2)
        assert reached.relation.column("node").to_list() == ["auction2"]

    def test_unknown_property_reaches_nothing(self, auction_store):
        assert traverse(auction_store, ["lot1"], "ownedBy").num_rows == 0


class TestEmergentSchema:
    def make_triples(self):
        triples = []
        for index in range(6):
            subject = f"lot{index}"
            triples.append(Triple(subject, "type", "lot"))
            triples.append(Triple(subject, "description", f"lot number {index}"))
            triples.append(Triple(subject, "hasAuction", "auction1"))
        for index in range(2):
            subject = f"auction{index}"
            triples.append(Triple(subject, "type", "auction"))
            triples.append(Triple(subject, "description", f"auction number {index}"))
        triples.append(Triple("oddball", "colour", "green"))
        return triples

    def test_characteristic_sets(self):
        detector = EmergentSchemaDetector()
        sets = detector.characteristic_sets(self.make_triples())
        assert sets[0].support == 6
        assert sets[0].properties == frozenset({"type", "description", "hasAuction"})

    def test_detect_produces_wide_tables(self):
        detector = EmergentSchemaDetector()
        tables = detector.detect(self.make_triples())
        lot_table = next(t for t in tables if "hasAuction" in t.properties)
        assert lot_table.relation.num_rows == 6
        assert set(lot_table.relation.schema.names) == {
            "subject",
            "type",
            "description",
            "hasAuction",
            "p",
        }

    def test_rare_sets_merged_into_frequent_superset(self):
        triples = self.make_triples()
        # one lot misses its description: its characteristic set is a subset
        triples = [t for t in triples if not (t.subject == "lot5" and t.property == "description")]
        detector = EmergentSchemaDetector(min_support=2)
        tables = detector.detect(triples)
        lot_table = next(t for t in tables if "hasAuction" in t.properties)
        assert "lot5" in lot_table.subjects

    def test_max_tables_limit(self):
        detector = EmergentSchemaDetector(min_support=1, max_tables=1)
        tables = detector.detect(self.make_triples())
        # one frequent table remains; the auction subjects (whose property set
        # is a subset of the lot set) are folded into it, the oddball subject
        # stays in a leftover table of its own
        assert len(tables) == 2
        assert tables[0].relation.num_rows == 8
        assert set(tables[0].subjects) >= {"lot0", "auction0"}

    def test_coverage_metric(self):
        detector = EmergentSchemaDetector()
        triples = self.make_triples()
        tables = detector.detect(triples)
        assert detector.coverage(triples, tables) == pytest.approx(1.0)

    def test_property_frequencies(self):
        detector = EmergentSchemaDetector()
        frequencies = detector.property_frequencies(self.make_triples())
        assert frequencies["type"] == 8

    def test_invalid_min_support(self):
        with pytest.raises(TripleStoreError):
            EmergentSchemaDetector(min_support=0)


class TestLoader:
    def test_parse_simple_line(self):
        triple = parse_triple_line("lot1 hasAuction auction1")
        assert triple == Triple("lot1", "hasAuction", "auction1")

    def test_parse_typed_literals(self):
        assert parse_triple_line("lot1 estimate 250").object == 250
        assert parse_triple_line("lot1 rating 4.5").object == 4.5

    def test_parse_probability(self):
        triple = parse_triple_line("lot1 category toy 0.75")
        assert triple.probability == pytest.approx(0.75)

    def test_fourth_field_that_is_not_probability_joins_object(self):
        triple = parse_triple_line("lot1 description antique oak table")
        assert triple.object == "antique oak table"
        assert triple.probability == 1.0

    def test_quoted_object(self):
        assert parse_triple_line('lot1 label "Lot One"').object == "Lot One"

    def test_comments_and_blank_lines_skipped(self):
        assert parse_triple_line("# comment") is None
        assert parse_triple_line("   ") is None

    def test_malformed_line(self):
        with pytest.raises(TripleStoreError):
            parse_triple_line("only two")

    def test_load_from_lines_and_file(self, tmp_path):
        lines = ["# products", "p1 category toy", "p1 price 25", "", "p2 category book"]
        triples = load_triples(lines)
        assert len(triples) == 3
        path = tmp_path / "triples.txt"
        path.write_text("\n".join(lines), encoding="utf-8")
        assert load_triples(path) == triples

    def test_separator_override(self):
        triple = parse_triple_line("p1|description|a nice toy", separator="|")
        assert triple.object == "a nice toy"

    def test_loaded_triples_feed_the_store(self):
        triples = load_triples(["p1 category toy", "p1 description wooden train"])
        store = TripleStore()
        store.add_all(triples)
        assert store.match(property_name="category").num_rows == 1
