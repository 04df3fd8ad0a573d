"""The auction strategy at the end-to-end benchmark's scale, bit for bit.

``test_lowering.py``'s scenarios are toy-sized: their Mix sides barely
overlap, so a union rarely folds a tuple.  Here the auction strategy by name
answers 50 fixed queries over ``generate_auction_triples(4000, seed=23)``,
the size of the benchmark's strategy corpus, where about half of the Mix's
union rows fold a lot ranked by both branches.  The digests were recorded
before the union, the projection and the join learned their sort-free paths
and before the result was ranked on first read: the top-10 ids and
probability bits, the full ranked result, and every block's output rows.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.engine import Engine
from repro.pra.relation import ProbabilisticRelation
from repro.workloads import generate_auction_triples

DIGESTS = {"top10": "bce8ac4ecd53139b", "ranked": "85b1cb4135b9ae4a", "blocks": "1ad38e1dd6eb30be"}


def _rows(relation: ProbabilisticRelation) -> bytes:
    values = [relation.relation.column(name).to_list() for name in relation.value_columns]
    return repr(values).encode() + relation.probabilities().view(np.uint64).tobytes()


def test_the_auction_strategy_at_benchmark_scale_is_bit_identical():
    workload = generate_auction_triples(4000, seed=23)
    lots = list(workload.lot_descriptions.values())
    queries = [" ".join(d.split()[i % 5 : i % 5 + 3]) for i, d in enumerate(lots[:50])]
    digests = {name: hashlib.sha256() for name in DIGESTS}
    engine = Engine.from_triples(workload.triples)
    try:
        for query in queries:
            run = engine.strategy("auction", query=query).execute()
            digests["top10"].update(repr(run.top(10)).encode())  # before the full ranking
            for name in sorted(run.block_outputs):
                output = run.block_outputs[name]
                digests["blocks"].update(name.encode())
                if isinstance(output, ProbabilisticRelation):
                    digests["blocks"].update(_rows(output))
                else:
                    digests["blocks"].update(repr(output).encode())
            digests["ranked"].update(_rows(run.result))
        # the Mix folds every lot that both branches rank
        outputs = run.block_outputs
        sides = outputs["rank_lots"].num_rows + outputs["back_to_lots"].num_rows
        assert sides - outputs["mix"].num_rows > outputs["mix"].num_rows // 3
    finally:
        engine.close()
    assert {name: digest.hexdigest()[:16] for name, digest in digests.items()} == DIGESTS
