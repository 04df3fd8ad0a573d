"""Property-based shard-equivalence harness.

For random base tables and random PRA plans over them, execution through
the partitioned engine — :class:`ShardedExecutor` for shard counts 1–4 and
:class:`PoolExecutor` over worker processes — must be **bit-identical** to
:class:`LocalExecutor`: same rows, same order, same probabilities, ties
included.  No tolerance: the scatter-gather design reconstructs exact
original row order before any order-sensitive merge runs, so equality is
exact, not approximate.

Probabilities are dyadic so the fixtures are byte-stable; the comparison
itself never relies on that (it asserts plain ``==`` on whatever floats
both paths produce).  Like the plan-equivalence suite, the tests run
derandomized with an explicit deadline.
"""

from __future__ import annotations

from datetime import timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Engine
from repro.pra.assumptions import Assumption
from repro.pra.expressions import PositionalRef
from repro.pra.plan import (
    PraBayes,
    PraJoin,
    PraPlan,
    PraProject,
    PraScan,
    PraSelect,
    PraSubtract,
    PraTop,
    PraUnite,
    PraWeight,
)
from repro.relational.column import Column, DataType
from repro.relational.expressions import BinaryOp, Literal
from repro.relational.relation import Relation
from repro.relational.schema import Field, Schema
from repro.workloads import generate_auction_triples

NODES = ["a", "b", "c", "d", "e"]
DYADIC_P = [i / 16 for i in range(17)]
WEIGHTS = st.sampled_from([0.25, 0.5, 0.75, 1.0])
ASSUMPTIONS = st.sampled_from(list(Assumption))

SETTINGS = settings(max_examples=60, deadline=timedelta(seconds=10), derandomize=True)
POOL_SETTINGS = settings(max_examples=15, deadline=timedelta(seconds=20), derandomize=True)

#: every scannable leaf has two string value columns
TABLES = {"data": 40, "aux": 17}


def _random_table(rng: np.random.Generator, rows: int) -> Relation:
    schema = Schema(
        [
            Field("c0", DataType.STRING),
            Field("c1", DataType.STRING),
            Field("p", DataType.FLOAT),
        ]
    )
    return Relation(
        schema,
        [
            Column([str(rng.choice(NODES)) for _ in range(rows)], DataType.STRING),
            Column([str(rng.choice(NODES)) for _ in range(rows)], DataType.STRING),
            Column(rng.choice(DYADIC_P, size=rows), DataType.FLOAT),
        ],
    )


def _build_source_engine() -> Engine:
    # a real workload's triples plus two random tables with probabilities,
    # so scans exercise both lifted and stored-p paths
    workload = generate_auction_triples(60, seed=11)
    engine = Engine.from_triples(workload.triples)
    rng = np.random.default_rng(1234)
    for name, rows in TABLES.items():
        engine.create_table(name, _random_table(rng, rows))
    return engine


@pytest.fixture(scope="module")
def local_engine():
    return _build_source_engine()


@pytest.fixture(scope="module")
def sharded_engines(local_engine, tmp_path_factory):
    engines = {}
    base = tmp_path_factory.mktemp("shard-equivalence")
    for shards in (1, 2, 3, 4):
        path = local_engine.save(base / f"s{shards}", shards=shards)
        engines[shards] = Engine.open_sharded(path)
    yield engines
    for engine in engines.values():
        engine.close()


@pytest.fixture(scope="module")
def pool_engine(local_engine, tmp_path_factory):
    path = local_engine.save(tmp_path_factory.mktemp("pool-equivalence") / "p2", shards=2)
    engine = Engine.open_sharded(path, executor="pool")
    yield engine
    engine.close()


@pytest.fixture(scope="module")
def shm_pool_engine(local_engine, tmp_path_factory):
    """A pool with *every* reply forced through the shared-memory path."""
    from repro.serving import ServingConfig
    from repro.serving.shm import shared_memory_available

    if not shared_memory_available():
        pytest.skip("multiprocessing.shared_memory unavailable")
    path = local_engine.save(tmp_path_factory.mktemp("shm-equivalence") / "p2", shards=2)
    engine = Engine.open_sharded(
        path, executor="pool", config=ServingConfig(shm_threshold=0)
    )
    yield engine
    engine.close()


def _leaf_with_arity(draw, arity: int) -> PraPlan:
    """A scannable leaf with exactly ``arity`` value columns."""
    if arity == 1:
        return PraProject(
            PraScan(draw(st.sampled_from(sorted(TABLES)))), [1], Assumption.INDEPENDENT
        )
    if arity == 2:
        return PraScan(draw(st.sampled_from(sorted(TABLES))))
    if arity == 3:
        return PraScan("triples")
    return PraJoin(
        _leaf_with_arity(draw, 2),
        _leaf_with_arity(draw, arity - 2),
        [(1, 1)],
        Assumption.INDEPENDENT,
    )


def _draw_plan(draw, depth: int, arity: int | None = None) -> tuple[PraPlan, int]:
    if depth <= 0 or draw(st.integers(0, 3)) == 0:
        if arity is None:
            table = draw(st.sampled_from(sorted(TABLES) + ["triples"]))
            return PraScan(table), 3 if table == "triples" else 2
        return _leaf_with_arity(draw, arity), arity

    choices = ["select", "weight", "top", "bayes", "unite", "subtract"]
    if arity is None:
        choices += ["project", "join"]
    op = draw(st.sampled_from(choices))

    if op == "select":
        child, child_arity = _draw_plan(draw, depth - 1, arity)
        predicate = BinaryOp(
            "=",
            PositionalRef(draw(st.integers(1, child_arity))),
            Literal(draw(st.sampled_from(NODES))),
        )
        return PraSelect(child, predicate), child_arity
    if op == "weight":
        child, child_arity = _draw_plan(draw, depth - 1, arity)
        return PraWeight(child, draw(WEIGHTS)), child_arity
    if op == "top":
        child, child_arity = _draw_plan(draw, depth - 1, arity)
        return PraTop(child, draw(st.integers(1, 8))), child_arity
    if op == "bayes":
        child, child_arity = _draw_plan(draw, depth - 1, arity)
        evidence = draw(
            st.lists(st.integers(1, child_arity), unique=True, max_size=child_arity)
        )
        return PraBayes(child, evidence), child_arity
    if op == "unite":
        left, child_arity = _draw_plan(draw, depth - 1, arity)
        right, _ = _draw_plan(draw, depth - 1, child_arity)
        return PraUnite(left, right, draw(ASSUMPTIONS)), child_arity
    if op == "subtract":
        left, child_arity = _draw_plan(draw, depth - 1, arity)
        right, _ = _draw_plan(draw, depth - 1, child_arity)
        return PraSubtract(left, right), child_arity
    if op == "project":
        child, child_arity = _draw_plan(draw, depth - 1, None)
        positions = draw(st.lists(st.integers(1, child_arity), unique=True, min_size=1))
        return PraProject(child, positions, draw(ASSUMPTIONS)), len(positions)
    left, left_arity = _draw_plan(draw, depth - 1, None)
    right, right_arity = _draw_plan(draw, depth - 1, None)
    conditions = [(draw(st.integers(1, left_arity)), draw(st.integers(1, right_arity)))]
    return PraJoin(left, right, conditions, Assumption.INDEPENDENT), left_arity + right_arity


@st.composite
def plans(draw) -> PraPlan:
    plan, _arity = _draw_plan(draw, depth=3)
    return plan


def assert_bit_identical(actual, expected):
    """Rows, order, and probabilities must match exactly — no tolerance."""
    assert actual.relation.schema.names == expected.relation.schema.names
    assert actual.value_rows() == expected.value_rows()
    assert np.array_equal(actual.probabilities(), expected.probabilities())


class TestShardedBitIdentity:
    @SETTINGS
    @given(plan=plans())
    def test_sharded_equals_local_for_shard_counts_1_to_4(
        self, plan, local_engine, sharded_engines
    ):
        expected = local_engine._execute_plan(plan)
        for shards, engine in sharded_engines.items():
            actual = engine._execute_plan(plan)
            assert_bit_identical(actual, expected)

    @SETTINGS
    @given(plan=plans(), k=st.integers(1, 8))
    def test_sharded_top_equals_local_top(self, plan, k, local_engine, sharded_engines):
        expected = local_engine._execute_plan(PraTop(plan, k))
        for _shards, engine in sharded_engines.items():
            assert_bit_identical(engine._execute_plan(PraTop(plan, k)), expected)


class TestPoolBitIdentity:
    @POOL_SETTINGS
    @given(plan=plans())
    def test_pool_equals_local(self, plan, local_engine, pool_engine):
        expected = local_engine._execute_plan(plan)
        assert_bit_identical(pool_engine._execute_plan(plan), expected)

    @POOL_SETTINGS
    @given(plan=plans())
    def test_shm_transport_equals_local(self, plan, local_engine, shm_pool_engine):
        # shm_threshold=0 routes every reply frame through shared memory, so
        # the out-of-band result path must be bit-identical too
        expected = local_engine._execute_plan(plan)
        assert_bit_identical(shm_pool_engine._execute_plan(plan), expected)
