"""The benchmark's corpus: one fixed auction graph, independent of ``--seed``.

The request schedule varies with ``--seed``; the corpus does not, so runs with
different seeds measure different traffic over the same data and their
numbers stay comparable.  Everything here goes through public entry points
(`generate_auction_triples`, `Engine.from_triples`, `Engine.create_table`).
"""

from __future__ import annotations

from repro.engine import Engine
from repro.relational.column import Column, DataType
from repro.relational.relation import Relation
from repro.relational.schema import Field, Schema
from repro.workloads import generate_auction_triples

#: the corpus generator seed (ISSUE sizing: 12,000 lots at seed 23)
CORPUS_SEED = 23

#: triples the generator emits per auction / per lot, auctions first
TRIPLES_PER_AUCTION = 3
TRIPLES_PER_LOT = 4

_DOCS_SCHEMA = Schema([Field("docID", DataType.STRING), Field("data", DataType.STRING)])


def auction_corpus(lots: int):
    """The generated auction graph with ``lots`` lots (deterministic)."""
    return generate_auction_triples(lots, seed=CORPUS_SEED)


def docs_relation(descriptions: dict[str, str]) -> Relation:
    """The ``docs(docID, data)`` table of lot descriptions keyword search runs on."""
    return Relation(
        _DOCS_SCHEMA,
        [
            Column(list(descriptions.keys()), DataType.STRING),
            Column(list(descriptions.values()), DataType.STRING),
        ],
    )


def build_engine(triples, descriptions: dict[str, str]) -> Engine:
    """A local engine over ``triples`` with the ``docs`` table registered."""
    engine = Engine.from_triples(triples)
    engine.create_table("docs", docs_relation(descriptions))
    return engine


def lot_prefix(corpus, lots: int):
    """The triples and descriptions of the corpus restricted to its first ``lots`` lots.

    The generator emits every auction first and then four triples per lot in
    lot order, so a prefix of the triple list is itself a valid smaller graph.
    """
    cut = TRIPLES_PER_AUCTION * corpus.num_auctions + TRIPLES_PER_LOT * lots
    names = corpus.lot_ids[:lots]
    return corpus.triples[:cut], {name: corpus.lot_descriptions[name] for name in names}
