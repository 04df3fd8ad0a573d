"""Hash-range partitioning of relations over factorized key codes.

The partitioned snapshot layout (see :mod:`repro.storage.shards`) splits
every base table into ``N`` shard fragments.  Rows are assigned to shards by
a *stable* hash of their shard-key value: the 64-bit hash space is divided
into ``N`` equal ranges and a row lands in the range its key hashes into.
Hashing goes through :meth:`~repro.relational.column.Column.factorize`, so
the per-value hash is computed once per *distinct* key and mapped through
the dictionary codes — O(distinct) hashing for O(rows) assignment.

Two properties matter for the scatter-gather executors:

* **Stability** — the hash is FNV-1a over the key's UTF-8 text, never
  Python's randomized ``hash()``, so the same data partitions identically
  in every process (router and workers must agree on row placement).
* **Order preservation** — fragment index arrays are ascending, so each
  fragment preserves the original relative row order and the gather step
  can reconstruct the exact unsharded row order from the per-shard
  original-row-index arrays (bit-identical merges depend on this).
"""

from __future__ import annotations

import numpy as np

from repro.errors import StorageError
from repro.relational.column import Column, DataType, compact_codes
from repro.relational.relation import Relation

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK_64 = 0xFFFFFFFFFFFFFFFF


def fnv1a_64(text: str) -> int:
    """Finalized FNV-1a hash of ``text`` (UTF-8), as an unsigned 64-bit integer.

    Plain FNV-1a avalanches its *low* bits well but leaves the high bits
    poorly mixed for short keys — fatal for range partitioning, which splits
    on the high bits.  A splitmix64-style finalizer spreads the entropy over
    the whole word, so hash ranges receive balanced row counts.
    """
    value = _FNV_OFFSET
    for byte in text.encode("utf-8"):
        value = ((value ^ byte) * _FNV_PRIME) & _MASK_64
    value ^= value >> 30
    value = (value * 0xBF58476D1CE4E5B9) & _MASK_64
    value ^= value >> 27
    value = (value * 0x94D049BB133111EB) & _MASK_64
    value ^= value >> 31
    return value


class HashRangePartitioner:
    """Assigns rows to ``num_shards`` hash ranges by a shard-key column."""

    name = "hash-range"

    def __init__(self, num_shards: int):
        if num_shards < 1:
            raise StorageError(f"shard count must be >= 1, got {num_shards}")
        self.num_shards = int(num_shards)

    def describe(self) -> dict[str, int | str]:
        return {"name": self.name, "shards": self.num_shards}

    def assign(self, relation: Relation, key_column: str) -> np.ndarray:
        """The shard id of every row, by hash range of its ``key_column`` value."""
        column = relation.column(key_column)
        if relation.num_rows == 0:
            return np.empty(0, dtype=np.int64)
        try:
            codes, dictionary = compact_codes(*column.factorize())
        except TypeError:
            # NaN, or values np.unique cannot order: code the str forms the
            # hash reads.  Not key_codes: under Python equality 1, 1.0 and
            # True are one key, but their str forms hash to different shards
            text = Column([str(value) for value in column.to_list()], DataType.STRING)
            codes, dictionary = text.factorize()
        per_value = np.asarray([fnv1a_64(str(value)) for value in dictionary], dtype=np.uint64)
        return self.shard_of_hashes(per_value[np.asarray(codes)])

    def shard_of_hashes(self, hashes: np.ndarray) -> np.ndarray:
        """Map 64-bit hashes into shard ids by equal hash ranges."""
        range_width = np.uint64(2**64 // self.num_shards) if self.num_shards > 1 else None
        if range_width is None:
            return np.zeros(len(hashes), dtype=np.int64)
        shards = (hashes // range_width).astype(np.int64)
        # 2**64 is not an exact multiple of num_shards: clamp the sliver at the top
        return np.minimum(shards, self.num_shards - 1)

    def partition_indices(self, relation: Relation, key_column: str) -> list[np.ndarray]:
        """Ascending original-row-index arrays, one per shard.

        The concatenation of the fragments taken at these indices, re-sorted
        by original index, reproduces ``relation`` exactly — row order
        included — which is the invariant the gather kernels rely on.
        """
        assignment = self.assign(relation, key_column)
        return self.partition_by_assignment(assignment)

    def partition_by_assignment(self, assignment: np.ndarray) -> list[np.ndarray]:
        """Split ``assignment`` (shard id per row) into per-shard index arrays."""
        rows = np.arange(len(assignment), dtype=np.int64)
        return [rows[assignment == shard] for shard in range(self.num_shards)]
