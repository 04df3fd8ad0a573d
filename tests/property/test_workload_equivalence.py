"""Property-based guarantees for the workload subsystem.

The **result cache** returns answers bit-identical to recomputation, under
arbitrary interleavings of repeated execution, cache clears and distinct
parameter bindings.  (That the optimizer's rewrites preserve results is
the plan-equivalence suite's job.)

Like the plan-equivalence suite, probabilities are dyadic so exact float
equality is meaningful, and Hypothesis runs derandomized for reproducible
CI failures.
"""

from __future__ import annotations

from datetime import timedelta

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Engine

SETTINGS = settings(max_examples=150, deadline=timedelta(seconds=5), derandomize=True)

TRIPLES = [
    ("lot1", "type", "lot"),
    ("lot2", "type", "lot"),
    ("lot3", "type", "lot"),
    ("lot1", "hasAuction", "auction1"),
    ("lot2", "hasAuction", "auction2"),
    ("lot3", "hasAuction", "auction1"),
    ("lot1", "material", "oak", 0.5),
    ("lot2", "material", "oak", 0.25),
    ("lot3", "material", "bronze", 0.75),
]

TRAVERSE = "auctions = TRAVERSE ['hasAuction'] (seeds);"

SEED_POOL = ["lot1", "lot2", "lot3"]

class TestResultCacheEquivalence:
    @SETTINGS
    @given(
        st.lists(
            st.tuples(
                st.lists(st.sampled_from(SEED_POOL), min_size=1, max_size=3),
                st.booleans(),  # clear the caches before this execution?
            ),
            min_size=1,
            max_size=8,
        )
    )
    def test_cached_executions_bit_identical_to_uncached(self, script):
        cached = Engine.from_triples(TRIPLES)
        plain = Engine.from_triples(TRIPLES, result_cache_size=None)
        for seeds, clear in script:
            if clear:
                cached.clear_caches()
            # repeat so every script step sees a miss (store) and hits
            for _ in range(3):
                hot = cached.spinql(TRAVERSE, seeds=seeds).execute(seeds=seeds)
                cold = plain.spinql(TRAVERSE, seeds=seeds).execute(seeds=seeds)
                assert hot.value_rows() == cold.value_rows()
                assert list(map(float, hot.probabilities())) == list(
                    map(float, cold.probabilities())
                )
