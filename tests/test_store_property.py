"""Property-based audit of the SQLite plan store (hypothesis).

Two families of properties:

* **interchange round-trips** — any batch of cache entries survives
  PlanCache -> store -> ``export_document`` -> ``restore_document``
  (and the reverse migration ``dump_document`` ->
  ``import_document`` -> ``load``) with identical keys, recipes,
  structures, costs, and epoch bookkeeping;
* **retention exactness** — under any sequence of stores, probes,
  routine and force syncs, epoch bumps and reopens, the store never
  holds more than its capacity of rows, and a load serves exactly the
  newest ``capacity`` rows of the reference model, in its order — no
  row lost to an off-by-one, none retained past its bound.

Stores live in per-example temporary directories created inside the
test body (a function-scoped ``tmp_path`` would leak state across
hypothesis examples).
"""

from __future__ import annotations

import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import KEY_VERSION, PlanCache, PlanStore, persist

COMMON = dict(deadline=None, max_examples=40)

SUFFIX = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126),
    min_size=1,
    max_size=12,
)


def _key(suffix: str):
    return (KEY_VERSION, suffix, ("auto", "hyperedges", ("m", "q"), 14))


RECIPES = st.recursive(
    st.integers(min_value=-(10**6), max_value=10**6),
    lambda inner: st.tuples(inner, inner),
    max_leaves=6,
)

ENTRIES = st.dictionaries(
    SUFFIX,
    st.tuples(
        RECIPES,
        st.one_of(st.none(), st.text(max_size=16)),
        st.one_of(
            st.none(),
            st.floats(
                min_value=0.0, max_value=1e12, allow_nan=False
            ),
        ),
    ),
    min_size=1,
    max_size=20,
)


def _fill(cache: PlanCache, entries: dict) -> None:
    for suffix, (recipe, structure, cost) in entries.items():
        cache.store(_key(suffix), recipe, structure=structure, cost=cost)


@settings(**COMMON)
@given(entries=ENTRIES)
def test_store_load_round_trip(entries):
    cache = PlanCache(64)
    _fill(cache, entries)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "plans.sqlite")
        with PlanStore(path) as store:
            assert store.sync_from(cache) == len(entries)
        with PlanStore(path) as store:
            loaded = store.load(capacity=64)
    assert len(loaded) == len(entries)
    for suffix, (recipe, structure, cost) in entries.items():
        entry, status = loaded.probe(_key(suffix))
        assert status == "hit"
        assert repr(entry.recipe) == repr(recipe)
        assert entry.structure == structure
        assert entry.cost == cost


@settings(**COMMON)
@given(entries=ENTRIES, bumps=st.integers(min_value=0, max_value=3))
def test_export_document_round_trip(entries, bumps):
    """store -> JSON document == the persist module's own view."""
    cache = PlanCache(64)
    for _ in range(bumps):
        cache.bump_epoch()
    _fill(cache, entries)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "plans.sqlite")
        with PlanStore(path) as store:
            store.sync_from(cache)
            document = store.export_document()
    assert document["format"] == persist.FORMAT_NAME
    assert document["key_version"] == KEY_VERSION
    assert len(document["entries"]) == len(entries)
    # each entry row embeds the document epoch (fresh by definition)
    assert all(
        e["epoch"] == document["epoch"] for e in document["entries"]
    )
    restored = persist.restore_document(document)
    assert len(restored) == len(entries)
    for suffix, (recipe, structure, cost) in entries.items():
        entry, status = restored.probe(_key(suffix))
        assert status == "hit"
        assert repr(entry.recipe) == repr(recipe)
        assert entry.structure == structure
        assert entry.cost == cost


@settings(**COMMON)
@given(entries=ENTRIES)
def test_import_document_round_trip(entries):
    """JSON document -> store -> load preserves every entry."""
    cache = PlanCache(64)
    _fill(cache, entries)
    document = persist.dump_document(cache)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "plans.sqlite")
        with PlanStore(path) as store:
            assert store.import_document(document) == len(entries)
            loaded = store.load(capacity=64)
    assert len(loaded) == len(entries)
    for suffix, (recipe, structure, cost) in entries.items():
        entry, status = loaded.probe(_key(suffix))
        assert status == "hit"
        assert repr(entry.recipe) == repr(recipe)


OPERATIONS = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(("store", "probe")),
                  st.integers(min_value=0, max_value=9)),
        st.tuples(st.sampled_from(("sync", "force", "bump", "reopen",
                                   "reload")), st.just(0)),
    ),
    max_size=40,
)


@settings(**COMMON)
@given(capacity=st.integers(min_value=1, max_value=5), operations=OPERATIONS)
def test_store_holds_at_most_capacity_rows_and_loads_the_newest(
    capacity, operations
):
    """Stores, probes, routine and force syncs, epoch bumps and
    reopens: the store never holds more than ``capacity`` rows, and a
    load serves exactly the reference rows.  A routine sync drops every
    row if the cache's epoch moved since the handle's last sync, then
    appends the fresh keys written since that sync (every member after
    a reopen) in the cache's LRU order; a force sync replaces the rows
    with the cache's fresh members in LRU order; both keep the newest
    ``capacity``."""
    # reference: the store's rows (key -> recipe), oldest first
    rows: "dict[str, int]" = {}
    written: "set[str]" = set()  # keys stored since the handle's last sync
    synced_epoch = 0  # the cache epoch the handle last synced
    cache = PlanCache(capacity)
    writes = 0

    def members() -> "list[tuple[str, int]]":
        return [
            (key[1], entry.recipe)
            for key, entry in cache.snapshot_entries()
            if entry.epoch == cache.epoch
        ]

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "plans.sqlite")
        store = PlanStore(path, capacity=capacity)
        try:
            for op, arg in operations:
                if op == "store":
                    writes += 1
                    cache.store(_key(f"k{arg}"), writes)
                    written.add(f"k{arg}")
                elif op == "probe":  # a hit moves the key, writes nothing
                    held = [key for key, _ in cache.snapshot_entries()]
                    if held:
                        cache.probe(held[arg % len(held)])
                elif op == "sync":
                    store.sync_from(cache)
                    if cache.epoch != synced_epoch:
                        rows = {}
                    for suffix, recipe in members():
                        if suffix in written:
                            rows.pop(suffix, None)
                            rows[suffix] = recipe
                    rows = dict(list(rows.items())[-capacity:])
                    written, synced_epoch = set(), cache.epoch
                elif op == "force":
                    store.sync_from(cache, force=True)
                    rows = dict(members())
                    written, synced_epoch = set(), cache.epoch
                elif op == "bump":
                    cache.bump_epoch()
                elif op == "reopen":  # a new handle knows no cursor
                    store.close()
                    store = PlanStore(path, capacity=capacity)
                    written = {key[1] for key, _ in cache.snapshot_entries()}
                    synced_epoch = 0
                else:  # reload: a restarted process serves the store
                    store.close()
                    store = PlanStore(path, capacity=capacity)
                    cache = store.load()
                    written, synced_epoch = set(), 0
                assert store.entry_count() <= capacity
                with PlanStore(path) as reader:
                    loaded = reader.load(capacity=capacity)
                assert [
                    (key, entry.recipe)
                    for key, entry in loaded.snapshot_entries()
                ] == [(_key(suffix), recipe) for suffix, recipe in rows.items()]
        finally:
            store.close()


@settings(**COMMON)
@given(
    capacity=st.integers(min_value=1, max_value=8),
    synced=ENTRIES,
    imported=ENTRIES,
)
def test_import_keeps_the_newest_recorded_capacity_rows(
    capacity, synced, imported
):
    """An import trims to the capacity the last sync recorded: the
    rows left are the newest ``capacity`` keys by last write, with the
    imported entries written after the synced ones."""
    cache = PlanCache(capacity)
    _fill(cache, synced)
    document = persist.dump_document(_filled(imported))
    # reference: last-write order over the cache's survivors, then
    # the document's entries in its own (oldest-first) order
    order = [key for key, _ in cache.snapshot_entries()]
    for key, _ in persist.restore_document(document).snapshot_entries():
        if key in order:
            order.remove(key)
        order.append(key)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "plans.sqlite")
        with PlanStore(path) as store:
            store.sync_from(cache)
            assert store.import_document(document) == len(imported)
            assert store.entry_count() == min(
                len(order), capacity
            )
            loaded = store.load()
    assert [key for key, _ in loaded.snapshot_entries()] == (
        order[-capacity:]
    )


def _filled(entries: dict) -> PlanCache:
    cache = PlanCache(64)
    _fill(cache, entries)
    return cache
