#!/usr/bin/env python3
"""The toy scenario (Section 2, Figure 2) on a generated product catalog.

The script generates a synthetic product catalog as triples, then answers the
same information need three ways through one :class:`~repro.engine.Engine`
and checks they agree:

* the **strategy** path: the Figure 2 block graph (``engine.strategy``);
* the **SpinQL** path: the sub-collection filter written in SpinQL
  (``engine.spinql``), its SQL translation printed, and keyword search run
  over the resulting docs view (``engine.search``);
* the **SQL-view** path: the docs view registered in the database, the
  paper's CREATE VIEW chain of Section 2.1 printed and materialised over it
  with the relational statistics builder, its statistics checked against the
  ones keyword search serves, and BM25 ranked over them.

Run with:  python examples/toy_products.py [num_products]
"""

import sys

import numpy as np

from repro import Engine, KeywordSearchEngine
from repro.ir.statistics import RelationalStatisticsBuilder
from repro.workloads import generate_product_triples

SPINQL_DOCS = """
docs = PROJECT [$1 AS docID, $6 AS data] (
  JOIN INDEPENDENT [$1=$1] (
    SELECT [$2="category" and $3="toy"] (triples),
    SELECT [$2="description"] (triples) ) );
"""


def first_five(pairs: list) -> list:
    """The five best ids of a ranking; equal scores are ordered by id.

    The strategy orders tied probabilities by node id and keyword search by
    document position, so the paths are compared with one tie rule.
    """
    return [node for node, _ in sorted(pairs, key=lambda pair: (-round(pair[1], 9), pair[0]))][:5]


def main() -> None:
    num_products = int(sys.argv[1]) if len(sys.argv) > 1 else 400
    print(f"Generating a catalog of {num_products} products ...")
    workload = generate_product_triples(num_products, seed=21)
    engine = Engine.from_triples(workload.triples)

    toy_products = workload.products_in_category("toy")
    print(f"  {len(workload.triples)} triples, {len(toy_products)} products in category 'toy'")

    # the query: the first three description terms of some toy product
    target = sorted(toy_products)[0]
    query = " ".join(workload.descriptions[target].split()[:3])
    print(f"  query: {query!r} (taken from {target})\n")

    # -- path 1: the strategy ------------------------------------------------------
    run = engine.strategy("toy", query=query, category="toy").execute()
    strategy_top = run.top(run.result.num_rows)
    print("Strategy path (Figure 2):")
    for node, probability in strategy_top[:5]:
        print(f"    {node:<12} p = {probability:.3f}")
    print(f"    elapsed: {run.elapsed_seconds * 1000:.1f} ms")
    timings = ", ".join(f"{k}={v * 1000:.1f}ms" for k, v in run.block_timings.items())
    print("    per-block: " + timings)
    print()

    # -- path 2: SpinQL -------------------------------------------------------------
    print("SpinQL path (Section 2.3):")
    docs_query = engine.spinql(SPINQL_DOCS)
    docs = docs_query.execute()
    print(f"    the docs view holds {docs.num_rows} toy descriptions")
    engine.create_table("spinql_docs", docs.relation, replace=True)
    spinql_top = engine.search("spinql_docs", query).execute().ranked.as_pairs()
    print(f"    top-5 by BM25 over that view: {first_five(spinql_top)}")
    print()

    # -- path 3: the SQL view chain of Section 2.1 ----------------------------------
    print("SQL-view path (Section 2.1, relational statistics builder):")
    engine.store.register_docs_view(
        "docs_sql",
        filter_property="category",
        filter_value="toy",
        text_property="description",
    )
    builder = RelationalStatisticsBuilder(engine.database, "docs_sql")
    for sql in builder.view_sql().values():
        print("    " + sql.replace("\n", "\n    "))
    views = builder.materialize()
    served = KeywordSearchEngine(
        engine.database, "docs_sql", registry=engine.statistics_registry
    )
    identical = (
        views.doc_ids == served.statistics.doc_ids
        and views.term_ids == served.statistics.term_ids
        and all(
            np.array_equal(getattr(views, name), getattr(served.statistics, name))
            for name in ("doc_lengths", "offsets", "doc_indices", "frequencies")
        )
    )
    print(f"    the views' statistics equal the served ones, array for array: {identical}")
    sql_top = served.model.rank(views, served.analyze_query(query)).as_pairs()
    print(f"    top-5 by BM25 over the views' statistics: {first_five(sql_top)}")
    print()

    # -- agreement -------------------------------------------------------------------
    agreement = first_five(strategy_top) == first_five(spinql_top) == first_five(sql_top)
    print(f"All three paths agree on the top-5: {agreement}")
    in_category = all(node in toy_products for node, _ in strategy_top)
    print(f"Every result is a toy product (category filter respected): {in_category}")


if __name__ == "__main__":
    main()
