"""The flexible data model: a triple store on the relational engine.

Section 2.2 of the paper stores heterogeneous structured data as semantic
triples ``(subject, property, object)`` in the same relational engine used
for IR, querying them through plain SQL.  This package implements that
design:

* :mod:`repro.triples.triple_store` — the store itself, with probabilistic
  triples (Section 2.3 appends ``p`` to triples too) and pattern matching;
* :mod:`repro.triples.partitioning` — the storage strategies the paper
  discusses: a single triples table, vertical partitioning by property
  (Abadi et al.), and the data-driven partitioning by physical object type
  that Spinque applies;
* :mod:`repro.triples.emergent_schema` — characteristic-set based emergent
  schema detection (Pham & Boncz), the alternative the paper mentions;
* :mod:`repro.triples.graph` — graph traversal with probability propagation
  (the *traverse hasAuction* steps of Section 3);
* :mod:`repro.triples.loader` — a simple line-oriented loader with typed
  literal detection.
"""

from repro.triples.emergent_schema import CharacteristicSet, EmergentSchemaDetector
from repro.triples.graph import traverse_plan
from repro.triples.loader import parse_triple_line, load_triples
from repro.triples.partitioning import (
    PropertyPartitionedStorage,
    SingleTableStorage,
    StorageStrategy,
    TypePartitionedStorage,
)
from repro.triples.triple_store import Triple, TripleStore

__all__ = [
    "CharacteristicSet",
    "EmergentSchemaDetector",
    "PropertyPartitionedStorage",
    "SingleTableStorage",
    "StorageStrategy",
    "Triple",
    "TripleStore",
    "TypePartitionedStorage",
    "load_triples",
    "parse_triple_line",
    "traverse_plan",
]
