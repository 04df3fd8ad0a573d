"""A write appends: the triple store extends its coded tables.

Every ``load`` after the first hands the layout only the triples buffered
since, and the layout grows its tables and their shared dictionaries in
place of coding every triple again.  The tables must come out array for
array as a full load of all the triples builds them — values, codes,
dictionary contents, row order and partition set — on every layout, and a
store whose tables are not the ones its layout wrote (replaced from outside,
opened from a snapshot, a swapped layout) must load everything anew.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Engine
from repro.relational import column as column_module
from repro.relational.column import DataType
from repro.triples.partitioning import make_storage
from repro.triples.triple_store import Triple, TripleStore
from repro.workloads import generate_auction_triples

LAYOUTS = ("single-table", "property-partitioned", "type-partitioned")

# short names over a small alphabet: a batch's new strings sort before, among
# and after the ones the store holds
NAMES = st.text(alphabet="amz", min_size=1, max_size=3)
OBJECTS = st.one_of(NAMES, st.integers(-3, 3), st.floats(-2.0, 2.0), st.booleans())
TRIPLES = st.builds(
    Triple,
    NAMES,
    st.sampled_from(["type", "name", "has-part", "price"]),
    OBJECTS,
    st.floats(0.01, 1.0),
)
BATCHES = st.lists(st.lists(TRIPLES, max_size=12), min_size=1, max_size=6)


def contents(store: TripleStore) -> dict[str, list]:
    """Every table of the store's layout: per column its type, values, codes, dictionary."""
    tables = {}
    for name in store.storage.table_names(store.database):
        columns = []
        for column in store.database.table(name).columns().values():
            coding = None
            if column.coded:
                codes, dictionary = column.factorize()
                coding = (codes.tolist(), dictionary.tolist())
            columns.append((column.dtype, column.values.tolist(), coding))
        tables[name] = columns
    return tables


def dictionaries(store: TripleStore, name: str) -> set[int]:
    """The dictionary objects the layout's ``name`` columns are coded against."""
    found = set()
    for table in store.storage.table_names(store.database):
        column = store.database.table(table).column(name)
        if column.dtype is DataType.STRING and len(column):
            assert column.coded
            found.add(id(column.factorize()[1]))
    return found


def full_load(layout: str, triples: list[Triple]) -> TripleStore:
    store = TripleStore(storage=make_storage(layout))
    store.add_all(triples)
    store.load()
    return store


@pytest.mark.parametrize("layout", LAYOUTS)
@settings(max_examples=60, deadline=None, derandomize=True)
@given(batches=BATCHES)
def test_any_sequence_of_appends_equals_a_full_load(layout, batches):
    store = TripleStore(storage=make_storage(layout))
    loaded: list[Triple] = []
    expected = {"appends": 0, "full_loads": 0, "rows_appended": 0}
    for batch in batches:
        if loaded:  # onto no triples, an append is a full load
            expected["appends"] += 1
            expected["rows_appended"] += len(batch)
        else:
            expected["full_loads"] += 1
        store.add_all(batch)
        store.load()
        loaded += batch
        assert contents(store) == contents(full_load(layout, loaded))
        # subject and string object share one dictionary object across
        # every table, and so do the properties
        assert len(dictionaries(store, "subject") | dictionaries(store, "object")) <= 1
        assert len(dictionaries(store, "property")) <= 1
    assert store.counters() == expected


@pytest.mark.parametrize("layout", LAYOUTS)
def test_a_batch_codes_only_its_own_strings(layout, monkeypatch):
    workload = generate_auction_triples(1200, seed=4)
    base, batch = workload.triples[:-200], workload.triples[-200:]
    store = full_load(layout, base)
    coded: list[int] = []
    code_strings = column_module._code_strings

    def counting(values):
        coded.append(len(values))
        return code_strings(values)

    monkeypatch.setattr(column_module, "_code_strings", counting)
    store.add_all(batch)
    store.load()
    # subjects and objects, then properties: 400 + 200, whatever the store holds
    assert sum(coded) <= 3 * len(batch) < len(base)
    assert store.counters()["rows_appended"] == len(batch)
    monkeypatch.undo()
    assert contents(store) == contents(full_load(layout, workload.triples))


def _batches() -> tuple[list, list, list]:
    triples = generate_auction_triples(60, seed=5).triples
    third = len(triples) // 3
    return triples[:third], triples[third : 2 * third], triples[2 * third :]


class TestFullLoadFallbacks:
    """Tables the layout did not write as they are now are loaded anew."""

    def test_a_table_replaced_from_outside(self):
        first, second, _ = _batches()
        engine = Engine.from_triples(first)
        try:
            original = engine.database.table("triples")  # still alive elsewhere
            engine.create_table("triples", original.head(3), replace=True)
            engine.load_triples(second)
            assert engine.reuse_statistics()["triple_store"] == {
                "appends": 0, "full_loads": 2, "rows_appended": 0
            }
            assert contents(engine.store) == contents(full_load("single-table", first + second))
        finally:
            engine.close()

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_the_first_write_after_a_snapshot_open(self, tmp_path, layout):
        first, second, third = _batches()
        Engine.from_triples(first, storage=make_storage(layout)).save(tmp_path / "snap")
        engine = Engine.open(tmp_path / "snap")
        try:
            engine.load_triples(second)  # the opened columns hold their own dictionaries
            engine.load_triples(third)
            assert engine.reuse_statistics()["triple_store"] == {
                "appends": 1, "full_loads": 1, "rows_appended": len(third)
            }
            expected = full_load(layout, first + second + third)
            assert contents(engine.store) == contents(expected)
        finally:
            engine.close()

    def test_a_swapped_layout(self):
        first, second, _ = _batches()
        store = full_load("single-table", first)
        store.storage = make_storage("type-partitioned")
        store.add_all(second)
        store.load()
        assert store.counters() == {"appends": 0, "full_loads": 2, "rows_appended": 0}
        assert contents(store) == contents(full_load("type-partitioned", first + second))


class TestSnapshotCount:
    def test_connect_info_counts_without_hydrating(self, tmp_path):
        triples = generate_auction_triples(40, seed=7).triples
        Engine.from_triples(triples).save(tmp_path / "snap")
        engine = Engine.open(tmp_path / "snap")
        try:
            assert engine.connect_info()["triples"] == len(triples)
            assert engine.store._triples_list is None  # still on disk
            engine.load_triples([("lot-new", "type", "lot")])
            assert engine.store.num_triples == len(triples) + 1
        finally:
            engine.close()

    def test_a_sharded_open_counts_every_shard(self, tmp_path):
        triples = generate_auction_triples(40, seed=8).triples
        source = Engine.from_triples(triples)
        path = source.save(tmp_path / "sharded", shards=3)
        source.close()
        engine = Engine.open_sharded(path)
        try:
            assert engine.connect_info()["triples"] == len(triples)
            assert engine.store._triples_list is None
        finally:
            engine.close()


@pytest.mark.parametrize("layout", LAYOUTS)
def test_a_write_keeps_the_by_name_lowering_unless_it_adds_a_table(layout):
    workload = generate_auction_triples(80, seed=9)
    engine = Engine.from_triples(workload.triples[:-40], storage=make_storage(layout))
    try:
        lowered = engine.strategy("auction").graph
        engine.load_triples(workload.triples[-40:])  # no new property or object type
        assert engine.strategy("auction").graph is lowered
        engine.load_triples([("lot1", "appraisedAt", 1.5)])  # a new float partition / property
        changes_tables = layout != "single-table"
        assert (engine.strategy("auction").graph is not lowered) == changes_tables
    finally:
        engine.close()
