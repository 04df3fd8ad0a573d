"""Graph traversal over the triple store with probability propagation.

The auction strategy of Section 3 traverses the ``hasAuction`` property
forward (lot → auction) and backward (auction → lot), with the probabilities
of the traversed tuples propagating transparently: a lot reached through a
ranked auction inherits a probability that depends on the auction's.
:func:`traverse_plan` is that step as a PRA plan — a join with the
property's triples, read through the store's layout, and a merging
projection — shared by the strategy blocks, SpinQL ``TRAVERSE`` and the
engine's ``traverse()``.
"""

from __future__ import annotations

from repro.pra.assumptions import Assumption
from repro.pra.plan import PraJoin, PraPlan, PraProject
from repro.triples.partitioning import StorageStrategy


def traverse_plan(
    start: PraPlan,
    property_name: str,
    storage: StorageStrategy,
    *,
    backward: bool = False,
    merge: Assumption = Assumption.INDEPENDENT,
    arity: int = 1,
) -> PraPlan:
    """Follow ``property_name`` from the first of ``start``'s ``arity`` columns.

    Forward joins the start nodes with the triples' subjects and keeps the
    objects; backward joins with the objects and keeps the subjects.  A
    reached node's probability is the product of its start node's and the
    traversed triple's (independent join), merged over alternative paths
    under ``merge``; the output is ``(node, p)``.
    """
    edges = storage.pattern_plan(property_name)
    condition, reached = ((1, 3), 1) if backward else ((1, 1), 3)
    joined = PraJoin(start, edges, [condition], Assumption.INDEPENDENT)
    return PraProject(joined, [arity + reached], merge, output_names=["node"])
