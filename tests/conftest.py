"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.relational import Database, DataType, Field, Relation, Schema
from repro.triples import TripleStore
from repro.workloads import generate_auction_triples, generate_product_triples


@pytest.fixture
def database() -> Database:
    """An empty database with the default function registry."""
    return Database()


@pytest.fixture
def docs_database() -> Database:
    """A database holding the small docs collection used in the IR tests."""
    db = Database()
    schema = Schema([Field("docID", DataType.INT), Field("data", DataType.STRING)])
    db.create_table(
        "docs",
        Relation.from_rows(
            schema,
            [
                (1, "a book about history"),
                (2, "a cake recipe book"),
                (3, "history of cakes and baking"),
                (4, "trains and railways of the world"),
                (5, "the history of model trains"),
            ],
        ),
    )
    return db


@pytest.fixture
def figure1_docs() -> list[tuple[int, str]]:
    """Documents consistent with Figure 1 of the paper.

    Document 3 contains 'book' (pos 23) and 'history' (pos 19); document 10
    contains 'book' (pos 55) and 'cake' (pos 51).  We only need the term
    co-occurrence pattern, not the exact positions.
    """
    return [
        (3, "a short history of the printed book"),
        (10, "how to bake a layered cake from a recipe book"),
    ]


@pytest.fixture
def toy_store() -> TripleStore:
    """A triple store with a handful of products, matching the toy scenario."""
    store = TripleStore()
    store.add_all(
        [
            ("product1", "type", "product"),
            ("product1", "category", "toy"),
            ("product1", "description", "wooden train set for children"),
            ("product2", "type", "product"),
            ("product2", "category", "book"),
            ("product2", "description", "history of trains and railways"),
            ("product3", "type", "product"),
            ("product3", "category", "toy"),
            ("product3", "description", "plastic toy car with remote control"),
            ("product4", "type", "product"),
            ("product4", "category", "toy"),
            ("product4", "description", "board game about trains"),
        ]
    )
    store.load()
    return store


@pytest.fixture
def auction_store() -> TripleStore:
    """A small hand-built auction graph (lots, auctions, hasAuction edges)."""
    store = TripleStore()
    store.add_all(
        [
            ("auction1", "type", "auction"),
            ("auction1", "description", "vintage furniture and antique clocks"),
            ("auction2", "type", "auction"),
            ("auction2", "description", "modern art paintings and sculptures"),
            ("lot1", "type", "lot"),
            ("lot1", "description", "antique oak table"),
            ("lot1", "hasAuction", "auction1"),
            ("lot2", "type", "lot"),
            ("lot2", "description", "grandfather clock in working order"),
            ("lot2", "hasAuction", "auction1"),
            ("lot3", "type", "lot"),
            ("lot3", "description", "abstract painting in blue tones"),
            ("lot3", "hasAuction", "auction2"),
            ("lot4", "type", "lot"),
            ("lot4", "description", "bronze sculpture of a dancer"),
            ("lot4", "hasAuction", "auction2"),
        ]
    )
    store.load()
    return store


@pytest.fixture(scope="session")
def product_workload():
    """A generated product catalog shared by slower tests."""
    return generate_product_triples(120, seed=5)


@pytest.fixture(scope="session")
def auction_workload():
    """A generated auction graph shared by slower tests."""
    return generate_auction_triples(150, 4, seed=11)


@pytest.fixture
def simple_relation() -> Relation:
    """A tiny (id, name, score) relation used across relational-engine tests."""
    schema = Schema(
        [
            Field("id", DataType.INT),
            Field("name", DataType.STRING),
            Field("score", DataType.FLOAT),
        ]
    )
    return Relation.from_rows(
        schema,
        [
            (1, "alpha", 0.5),
            (2, "beta", 1.5),
            (3, "gamma", 2.5),
            (4, "alpha", 3.5),
        ],
    )
