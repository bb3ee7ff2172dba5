"""Embedded SQLite plan store: round-trips, deltas, knobs, wiring.

The contract under test (docs/store.md):

* ``sync_from`` -> ``load`` reproduces the cache exactly (keys,
  recipes, structures, costs, LRU order), across store re-opens;
* syncs are **incremental**: a batch that adds k entries writes O(k)
  rows, asserted both via the store's mutation-cursor accounting and
  via raw SQLite ``total_changes``, and a clean cache opens no
  transaction at all;
* every write transaction trims the store to the newest ``capacity``
  rows, and epoch bumps drop stale rows, so the store never retains
  a row no load would serve;
* the ``meta`` compatibility header (format / schema version /
  KEY_VERSION) rejects foreign or version-stale files with a
  ``CachePersistenceWarning`` and a cold rebuild, never an exception;
* ``export_document`` / ``import_document`` round-trip against the
  JSON interchange format in :mod:`repro.cache.persist`;
* ``OptimizerConfig(cache_path="plans.sqlite")`` wires the store
  end-to-end (auto-load, incremental autosave, warm restart), and the
  serving daemon saves through it on shutdown.
"""

from __future__ import annotations

import os
import sqlite3
import warnings

import pytest

from repro.cache import (
    KEY_VERSION,
    CachePersistenceWarning,
    PlanCache,
    PlanStore,
    is_store_path,
    persist,
)
from repro.cache.store_schema import STORE_FORMAT_NAME, STORE_SCHEMA_VERSION
from repro.optimizer import Optimizer, OptimizerConfig
from repro.workloads import generators
from repro.workloads.repeated import repeated_workload


def make_cache(entries=3, capacity=16) -> PlanCache:
    cache = PlanCache(capacity)
    for i in range(entries):
        cache.store(
            (KEY_VERSION, f"digest-{i}", ("auto", "hyperedges", ("m", "q"), 14)),
            (i, (0, 1)),
            structure=f"bucket-{i % 2}",
            cost=float(i),
        )
    return cache


def events_of(results):
    return [r.stats.extra["plan_cache"]["event"] for r in results]


def store_path(tmp_path) -> str:
    return str(tmp_path / "plans.sqlite")


class TestPathSelection:
    def test_store_extensions(self):
        assert is_store_path("plans.sqlite")
        assert is_store_path("x/y/plans.sqlite3")
        assert is_store_path("PLANS.DB")
        assert not is_store_path("plans.json")
        assert not is_store_path("plans")
        for name in ("plans.sqlite", "plans.sqlite3", "PLANS.DB"):
            assert OptimizerConfig(cache_path=name).cache_path == name

    def test_json_cache_path_rejected_by_the_daemon_cli(self, tmp_path):
        from repro.serving.__main__ import main

        path = str(tmp_path / "plans.json")
        with pytest.raises(ValueError, match="import_document"):
            main(["--cache-path", path])
        assert not os.path.exists(path)


class TestRoundTrip:
    def test_sync_load_identical_entries(self, tmp_path):
        cache = make_cache(entries=5)
        with PlanStore(store_path(tmp_path)) as store:
            assert store.sync_from(cache) == 5
            loaded = store.load()
        assert len(loaded) == 5
        for key, entry in cache.snapshot_entries():
            restored, status = loaded.probe(key)
            assert status == "hit"
            # byte-identical recipes: the repr round-trip is exact
            assert repr(restored.recipe) == repr(entry.recipe)
            assert restored.structure == entry.structure
            assert restored.cost == entry.cost

    def test_survives_store_reopen(self, tmp_path):
        path = store_path(tmp_path)
        cache = make_cache(entries=4)
        with PlanStore(path) as store:
            store.sync_from(cache)
        with PlanStore(path) as store:
            loaded = store.load()
        assert len(loaded) == 4

    def test_lru_order_preserved(self, tmp_path):
        """Rows absorb LRU-first, so capacity trims the oldest."""
        cache = make_cache(entries=6, capacity=16)
        with PlanStore(store_path(tmp_path)) as store:
            store.sync_from(cache)
            small = store.load(capacity=2)
        assert len(small) == 2
        survivor, status = small.probe(
            (KEY_VERSION, "digest-5", ("auto", "hyperedges", ("m", "q"), 14))
        )
        assert status == "hit" and survivor.recipe == (5, (0, 1))

    def test_load_attaches_no_rewrite_when_clean(self, tmp_path):
        path = store_path(tmp_path)
        with PlanStore(path) as store:
            store.sync_from(make_cache(entries=3))
        with PlanStore(path) as store:
            loaded = store.load()
            # the loaded content IS the persisted content
            assert store.sync_from(loaded) == 0
            assert store.skipped_syncs == 1
            assert store.syncs == 0


class TestIncrementalWrites:
    def test_second_sync_writes_only_the_delta(self, tmp_path):
        cache = make_cache(entries=50, capacity=64)
        with PlanStore(store_path(tmp_path)) as store:
            assert store.sync_from(cache) == 50
            for i in range(3):
                cache.store(
                    (KEY_VERSION, f"late-{i}", ("auto", "hyperedges", ("m", "q"), 14)),
                    (100 + i, (0, 1)),
                )
            # mutation-cursor accounting: exactly k rows, not O(cache)
            assert store.sync_from(cache) == 3
            assert store.rows_written == 53

    def test_total_changes_is_o_of_k(self, tmp_path):
        """Raw SQLite accounting agrees with the cursor accounting."""
        path = store_path(tmp_path)
        cache = make_cache(entries=40, capacity=64)
        with PlanStore(path) as store:
            store.sync_from(cache)
            conn = store._conn
            before = conn.total_changes
            cache.store(
                (KEY_VERSION, "one-more", ("auto", "hyperedges", ("m", "q"), 14)),
                (999, (0, 1)),
            )
            store.sync_from(cache)
            # 1 entry row + 2 meta rows (seq, capacity); far below
            # the 40 a full rewrite would touch
            assert conn.total_changes - before <= 6

    def test_clean_cache_opens_no_transaction(self, tmp_path):
        cache = make_cache(entries=10)
        with PlanStore(store_path(tmp_path)) as store:
            store.sync_from(cache)
            conn = store._conn
            before = conn.total_changes
            assert store.sync_from(cache) == 0
            assert conn.total_changes == before

    def test_unsynced_mutations_retry_after_failure(self, tmp_path):
        """A failed transaction does not advance the cursor."""
        cache = make_cache(entries=3)
        with PlanStore(store_path(tmp_path)) as store:
            store.sync_from(cache)
            # a row big enough to need fresh pages once the file is
            # capped at its current size
            cache.store(
                (KEY_VERSION, "pending", ("auto", "hyperedges", ("m", "q"), 14)),
                (7, (0, 1)),
                structure="x" * 262144,
            )
            # simulate a transient write failure: an aborted sync must
            # leave the delta pending for the next one
            store._conn.execute("PRAGMA max_page_count=1")
            with pytest.warns(CachePersistenceWarning):
                assert store.sync_from(cache) == 0
            assert store.failed_syncs == 1
            store._conn.execute("PRAGMA max_page_count=1073741823")
            assert store.sync_from(cache) == 1

    def test_lru_eviction_writes_only_the_newcomer(self, tmp_path):
        """An entry pushed out of the LRU costs no write; the load
        still rebuilds exactly the cache's membership."""
        cache = make_cache(entries=4, capacity=4)
        with PlanStore(store_path(tmp_path)) as store:
            store.sync_from(cache)
            evictor = (KEY_VERSION, "evictor", ("auto", "hyperedges", ("m", "q"), 14))
            cache.store(evictor, (99, (0, 1)))
            assert cache.evictions == 1
            assert store.sync_from(cache) == 1
            assert store.rows_written == 5
            loaded = store.load()
        assert len(loaded) == 4
        for key, entry in cache.snapshot_entries():
            got, status = loaded.probe(key)
            assert status == "hit" and got.recipe == entry.recipe

    def test_second_handle_sees_each_sync(self, tmp_path):
        """The file tracks the cache: another handle on the same path
        loads what every committed sync wrote."""
        path = store_path(tmp_path)
        cache = make_cache(entries=3)
        with PlanStore(path) as writer, PlanStore(path) as reader:
            writer.sync_from(cache)
            assert len(reader.load()) == 3
            cache.store(
                (KEY_VERSION, "another", ("auto", "hyperedges", ("m", "q"), 14)),
                (7, (0, 1)),
            )
            writer.sync_from(cache)
            assert len(reader.load()) == 4


class TestRetention:
    def test_store_keeps_only_the_newest_capacity_rows(self, tmp_path):
        """N > capacity distinct stores, each synced, leave exactly
        ``capacity`` rows: the newest, which are what a load absorbs."""
        cache = PlanCache(8)
        with PlanStore(store_path(tmp_path)) as store:
            for i in range(100):
                cache.store(
                    (KEY_VERSION, f"key-{i}", ("auto", "hyperedges", ("m", "q"), 14)),
                    (i, (0, 1)),
                )
                store.sync_from(cache)
            assert store.entry_count() == 8
            assert store.rows_written == 100
            assert store.rows_evicted == 92
            loaded = store.load()
        assert [entry.recipe[0] for _, entry in loaded.snapshot_entries()] == (
            list(range(92, 100))
        )

    def test_import_trims_to_the_recorded_capacity(self, tmp_path):
        path = store_path(tmp_path)
        with PlanStore(path) as store:
            store.sync_from(make_cache(entries=2, capacity=4))
            document = persist.dump_document(make_cache(entries=10, capacity=16))
            assert store.import_document(document) == 10
            assert store.entry_count() == 4

    def test_smaller_loader_parses_only_the_rows_it_keeps(
        self, tmp_path, monkeypatch
    ):
        parsed = []
        real = persist.parse_entry

        def counting(key_repr, recipe_repr, checksum):
            parsed.append(key_repr)
            return real(key_repr, recipe_repr, checksum)

        with PlanStore(store_path(tmp_path)) as store:
            store.sync_from(make_cache(entries=6, capacity=16))
            monkeypatch.setattr(persist, "parse_entry", counting)
            small = store.load(capacity=2)
        assert len(small) == 2 and len(parsed) == 2
        assert all("digest-4" in key or "digest-5" in key for key in parsed)

    @pytest.mark.parametrize("entries", [3, 4, 5])
    def test_trim_cut_off_is_exact(self, tmp_path, entries):
        """Just under, at and just over the capacity: the trim's
        ``OFFSET`` keeps ``min(entries, capacity)`` rows, the newest."""
        cache = PlanCache(4)
        with PlanStore(store_path(tmp_path)) as store:
            for i in range(entries):
                cache.store(
                    (KEY_VERSION, f"key-{i}", ("auto", "hyperedges", ("m", "q"), 14)),
                    (i, (0, 1)),
                )
                store.sync_from(cache)
            assert store.entry_count() == min(entries, 4)
            assert store.rows_evicted == max(0, entries - 4)
            loaded = store.load()
        assert [entry.recipe[0] for _, entry in loaded.snapshot_entries()] == (
            list(range(max(0, entries - 4), entries))
        )

    def test_refreshed_key_outlives_the_trim(self, tmp_path):
        """A re-stored key is rewritten with a new ``seq``, so the trim
        takes the key the cache evicted, not the refreshed one."""
        cache = PlanCache(2)
        keys = [
            (KEY_VERSION, name, ("auto", "hyperedges", ("m", "q"), 14))
            for name in ("a", "b", "c")
        ]
        with PlanStore(store_path(tmp_path)) as store:
            cache.store(keys[0], (0, (0, 1)))
            cache.store(keys[1], (1, (0, 1)))
            store.sync_from(cache)
            cache.store(keys[0], (10, (0, 1)))  # refresh "a"
            cache.store(keys[2], (2, (0, 1)))  # the cache evicts "b"
            store.sync_from(cache)
            assert store.entry_count() == 2
            assert store.rows_evicted == 1
            loaded = store.load()
        assert [
            (key, entry.recipe[0]) for key, entry in loaded.snapshot_entries()
        ] == [(keys[0], 10), (keys[2], 2)]

    def test_smaller_cache_trims_a_bigger_store_on_its_first_sync(
        self, tmp_path
    ):
        """The capacity is the last synced cache's: a smaller cache
        attached to a store written by a bigger one trims it."""
        path = store_path(tmp_path)
        with PlanStore(path) as store:
            store.sync_from(make_cache(entries=8, capacity=8))
        with PlanStore(path) as store:
            small = store.load(capacity=3)
            assert store.entry_count() == 8  # loads write nothing
            small.store(
                (KEY_VERSION, "new", ("auto", "hyperedges", ("m", "q"), 14)),
                (99, (0, 1)),
            )
            assert store.sync_from(small) == 1
            assert store.entry_count() == 3
            assert store.rows_evicted == 6
        with PlanStore(path) as store:
            reloaded = store.load()  # the recorded capacity is now 3
        assert [entry.recipe[0] for _, entry in reloaded.snapshot_entries()] == [
            6, 7, 99
        ]

    def test_stale_rows_are_counted_apart_from_the_trim(self, tmp_path):
        """An epoch bump drops the old epoch's rows as stale before the
        trim counts anything, in the same transaction."""
        cache = make_cache(entries=4, capacity=4)
        with PlanStore(store_path(tmp_path)) as store:
            store.sync_from(cache)
            cache.bump_epoch()
            cache.store(
                (KEY_VERSION, "fresh", ("auto", "hyperedges", ("m", "q"), 14)),
                (5, (0, 1)),
            )
            assert store.sync_from(cache) == 1
            assert store.rows_stale_dropped == 4
            assert store.rows_evicted == 0
            assert store.entry_count() == 1

    def test_counters_report_trims_without_the_retired_knobs(self, tmp_path):
        with PlanStore(store_path(tmp_path)) as store:
            store.sync_from(make_cache(entries=2, capacity=2))
            store.import_document(
                persist.dump_document(make_cache(entries=5))
            )
            counters = store.counters()
        assert counters["rows_evicted"] == 3
        assert counters["entries"] == 2
        for retired in ("rows_expired", "auto_vacuums", "ttl", "size_budget"):
            assert retired not in counters

    def test_knob_validation(self, tmp_path):
        """The store takes ``path``, ``capacity`` and ``busy_timeout``
        only; retention has no knob of its own."""
        with pytest.raises(ValueError, match="busy_timeout"):
            PlanStore(store_path(tmp_path), busy_timeout=-1.0)
        for retired in ("ttl", "size_budget", "compact_interval",
                        "vacuum_ratio", "vacuum_interval"):
            with pytest.raises(TypeError):
                PlanStore(store_path(tmp_path), **{retired: 1.0})
        assert not hasattr(PlanStore, "compact")

    def test_load_absorbs_oldest_first(self, tmp_path):
        """A smaller load keeps the newest rows in write order, so the
        first entry the loaded cache evicts is the oldest loaded row."""
        with PlanStore(store_path(tmp_path)) as store:
            store.sync_from(make_cache(entries=6, capacity=8))
            loaded = store.load(capacity=3)
        assert [entry.recipe[0] for _, entry in loaded.snapshot_entries()] == [
            3, 4, 5
        ]
        loaded.store(
            (KEY_VERSION, "next", ("auto", "hyperedges", ("m", "q"), 14)),
            (6, (0, 1)),
        )
        assert [entry.recipe[0] for _, entry in loaded.snapshot_entries()] == [
            4, 5, 6
        ]


class TestForceReconciliation:
    def test_routine_syncs_are_additive(self, tmp_path):
        """Drops between syncs keep their rows — documented divergence."""
        cache = make_cache(entries=4)
        with PlanStore(store_path(tmp_path)) as store:
            store.sync_from(cache)
            assert cache.invalidate_structure("bucket-0") == 2
            store.sync_from(cache)
            assert store.entry_count() == 4
            assert store.rows_reconciled == 0

    def test_force_sync_drops_invalidated_entries(self, tmp_path):
        cache = make_cache(entries=4)
        with PlanStore(store_path(tmp_path)) as store:
            store.sync_from(cache)
            assert cache.invalidate_structure("bucket-0") == 2
            store.sync_from(cache, force=True)
            assert store.entry_count() == 2
            assert store.rows_reconciled == 2
            survivors = store.load(capacity=16)
        assert len(survivors) == 2
        for i in (1, 3):
            entry, status = survivors.probe(
                (KEY_VERSION, f"digest-{i}", ("auto", "hyperedges", ("m", "q"), 14))
            )
            assert status == "hit" and entry.recipe == (i, (0, 1))

    def test_force_sync_reconciles_clear(self, tmp_path):
        cache = make_cache(entries=3)
        with PlanStore(store_path(tmp_path)) as store:
            store.sync_from(cache)
            cache.clear()
            store.sync_from(cache, force=True)
            assert store.entry_count() == 0
            assert store.rows_reconciled == 3
            assert len(store.load()) == 0

    def test_force_sync_reconciles_replay_failure_drop(self, tmp_path):
        cache = make_cache(entries=3)
        doomed = (KEY_VERSION, "digest-1", ("auto", "hyperedges", ("m", "q"), 14))
        with PlanStore(store_path(tmp_path)) as store:
            store.sync_from(cache)
            cache.probe(doomed)
            cache.note_replay_failure(doomed)
            store.sync_from(cache, force=True)
            assert store.entry_count() == 2
            gone, status = store.load(capacity=16).probe(doomed)
        assert status == "miss"

    def test_force_sync_reconciles_lru_eviction(self, tmp_path):
        cache = make_cache(entries=4, capacity=4)
        evicted = (KEY_VERSION, "digest-0", ("auto", "hyperedges", ("m", "q"), 14))
        with PlanStore(store_path(tmp_path)) as store:
            store.sync_from(cache)
            cache.store(
                (KEY_VERSION, "evictor", ("auto", "hyperedges", ("m", "q"), 14)),
                (99, (0, 1)),
            )
            assert store.sync_from(cache, force=True) == 4  # every member
            assert store.entry_count() == 4
            assert store.rows_reconciled == 1
            gone, status = store.load(capacity=16).probe(evicted)
        assert status == "miss"

    def test_force_sync_writes_back_a_member_the_trim_took(self, tmp_path):
        """A dropped entry's row outlives it and can push a member out
        of the newest ``capacity`` rows; the force sync still mirrors
        the cache, in its LRU order."""
        cache = PlanCache(2)
        keys = [
            (KEY_VERSION, name, ("auto", "hyperedges", ("m", "q"), 14))
            for name in ("a", "b", "c")
        ]
        with PlanStore(store_path(tmp_path)) as store:
            cache.store(keys[0], (0, (0, 1)), structure="keep")
            store.sync_from(cache)
            cache.store(keys[1], (1, (0, 1)), structure="drop")
            store.sync_from(cache)
            assert cache.invalidate_structure("drop") == 1
            cache.store(keys[2], (2, (0, 1)), structure="keep")
            store.sync_from(cache)
            assert store.rows_evicted == 1  # the trim took "a"
            assert store.sync_from(cache, force=True) == 2  # "a" and "c"
            assert store.rows_reconciled == 1  # and "b" went
            loaded = store.load()
        assert [key for key, _ in loaded.snapshot_entries()] == [
            keys[0], keys[2]
        ]

    def test_force_sync_of_a_clean_cache_rewrites_the_same_rows(
        self, tmp_path
    ):
        """``force`` rewrites every member even when nothing changed:
        the same rows come back, and none is counted as reconciled."""
        cache = make_cache(entries=2)
        path = store_path(tmp_path)

        def reload():
            with PlanStore(path) as reader:
                return [
                    (key, entry.recipe, entry.structure, entry.cost)
                    for key, entry in reader.load().snapshot_entries()
                ]

        with PlanStore(path) as store:
            assert store.sync_from(cache) == 2
            before = reload()
            assert store.sync_from(cache) == 0
            assert store.skipped_syncs == 1
            assert store.sync_from(cache, force=True) == 2
            assert store.syncs == 2
            assert store.rows_written == 4
            assert store.rows_reconciled == 0
            assert store.entry_count() == 2
        assert reload() == before

    def test_force_sync_restores_the_cache_lru_order(self, tmp_path):
        """A hit moves a member to the LRU end without a write; the
        force sync rewrites in LRU order, so the restarted cache evicts
        its coldest entry first, not its hottest."""
        cache = PlanCache(3)
        keys = [
            (KEY_VERSION, name, ("auto", "hyperedges", ("m", "q"), 14))
            for name in ("a", "b", "c")
        ]
        path = store_path(tmp_path)
        with PlanStore(path) as store:
            for i, key in enumerate(keys):
                cache.store(key, (i, (0, 1)))
            store.sync_from(cache)
            assert cache.probe(keys[0])[1] == "hit"
            store.sync_from(cache, force=True)
        with PlanStore(path) as store:
            loaded = store.load()
        assert [key for key, _ in loaded.snapshot_entries()] == [
            keys[1], keys[2], keys[0]
        ]

    def test_daemon_shutdown_save_reconciles(self, tmp_path):
        """The daemon's final save mirrors the cache membership."""
        from repro.serving import BackgroundServer

        path = store_path(tmp_path)
        config = OptimizerConfig(cache="on", cache_path=path)
        doomed = (KEY_VERSION, "digest-0", ("auto", "hyperedges", ("m", "q"), 14))
        with BackgroundServer(config) as daemon:
            cache = daemon.server.cache  # thread-safe by contract
            for key, entry in make_cache(entries=3).snapshot_entries():
                cache.store(key, entry.recipe, entry.structure, entry.cost)
        with PlanStore(path) as store:
            assert len(store.load()) == 3
        with BackgroundServer(config) as daemon:
            cache = daemon.server.cache
            assert len(cache) == 3
            cache.probe(doomed)
            cache.note_replay_failure(doomed)
            # context exit shuts down -> one final force save
        with PlanStore(path) as store:
            loaded = store.load()
        assert len(loaded) == 2
        gone, status = loaded.probe(doomed)
        assert status == "miss"


class TestCacheIdentity:
    def test_dead_cache_cannot_alias_a_new_one(self, tmp_path):
        """The attachment is a weakref, so a dead cache's cursor can
        never be inherited by a new cache reusing its ``id()``."""
        import gc

        with PlanStore(store_path(tmp_path)) as store:
            first = make_cache(entries=5)
            assert store.sync_from(first) == 5
            del first
            gc.collect()
            fresh = PlanCache(16)
            fresh.store(
                (KEY_VERSION, "newcomer", ("auto", "hyperedges", ("m", "q"), 14)),
                (0, (0, 1)),
            )
            # fresh.mutations (1) is far behind the dead cache's
            # cursor (5): id()-based tracking would skip this entry
            # on an id collision; the weakref resets deterministically
            assert store.sync_from(fresh) == 1
            assert len(store.load()) == 6


class TestEpochs:
    def test_bump_between_syncs_stales_old_rows(self, tmp_path):
        cache = make_cache(entries=3)
        with PlanStore(store_path(tmp_path)) as store:
            store.sync_from(cache)
            cache.bump_epoch()
            cache.store(
                (KEY_VERSION, "fresh", ("auto", "hyperedges", ("m", "q"), 14)),
                (42, (0, 1)),
            )
            store.sync_from(cache)
            loaded = store.load()
        assert len(loaded) == 1
        entry, status = loaded.probe(
            (KEY_VERSION, "fresh", ("auto", "hyperedges", ("m", "q"), 14))
        )
        assert status == "hit" and entry.recipe == (42, (0, 1))

    def test_bump_with_no_new_entries_still_persists(self, tmp_path):
        """An epoch bump alone must not be skipped as 'unchanged'."""
        cache = make_cache(entries=3)
        with PlanStore(store_path(tmp_path)) as store:
            store.sync_from(cache)
            cache.bump_epoch()
            store.sync_from(cache)
            assert len(store.load()) == 0  # all rows went stale


class TestVersioning:
    def test_foreign_sqlite_file_degrades_cold(self, tmp_path):
        path = store_path(tmp_path)
        conn = sqlite3.connect(path)
        conn.execute("CREATE TABLE unrelated (x)")
        conn.commit()
        conn.close()
        with pytest.warns(CachePersistenceWarning, match="not a plan-store"):
            store = PlanStore(path)
        assert store.rebuilds == 1
        assert len(store.load()) == 0
        assert os.path.exists(path + ".corrupt")
        # and the rebuilt file works
        assert store.sync_from(make_cache(entries=2)) == 2
        store.close()

    @pytest.mark.parametrize("meta_key,bad_value", [
        ("format", "some-other-format"),
        ("schema_version", str(STORE_SCHEMA_VERSION - 1)),
        ("schema_version", str(STORE_SCHEMA_VERSION + 1)),
        ("key_version", str(KEY_VERSION + 1)),
    ])
    def test_stale_header_degrades_cold(self, tmp_path, meta_key, bad_value):
        path = store_path(tmp_path)
        with PlanStore(path) as store:
            store.sync_from(make_cache(entries=3))
        conn = sqlite3.connect(path)
        conn.execute(
            "UPDATE meta SET value = ? WHERE key = ?", (bad_value, meta_key)
        )
        conn.commit()
        conn.close()
        with pytest.warns(CachePersistenceWarning, match=meta_key):
            store = PlanStore(path)
        assert len(store.load()) == 0
        store.close()

    def test_format_marker_present(self, tmp_path):
        path = store_path(tmp_path)
        with PlanStore(path) as store:
            store.sync_from(make_cache(entries=1))
        conn = sqlite3.connect(path)
        row = conn.execute(
            "SELECT value FROM meta WHERE key = 'format'"
        ).fetchone()
        conn.close()
        assert row[0] == STORE_FORMAT_NAME

    def test_rows_with_wrong_embedded_key_version_skipped(self, tmp_path):
        path = store_path(tmp_path)
        with PlanStore(path) as store:
            store.sync_from(make_cache(entries=2))
        conn = sqlite3.connect(path)
        conn.execute(
            "UPDATE entries SET key = ? WHERE key LIKE '%digest-0%'",
            (repr((KEY_VERSION + 1, "digest-0", ())),),
        )
        conn.commit()
        conn.close()
        store = PlanStore(path)
        with pytest.warns(CachePersistenceWarning, match="skipped 1"):
            loaded = store.load()
        assert len(loaded) == 1
        assert store.load_skipped == 1
        store.close()


class TestInterchange:
    def test_export_document_round_trips_through_persist(self, tmp_path):
        cache = make_cache(entries=4)
        with PlanStore(store_path(tmp_path)) as store:
            store.sync_from(cache)
            document = store.export_document()
        assert document["format"] == persist.FORMAT_NAME
        assert document["key_version"] == KEY_VERSION
        restored = persist.restore_document(document)
        assert len(restored) == 4
        for key, entry in cache.snapshot_entries():
            got, status = restored.probe(key)
            assert status == "hit"
            assert repr(got.recipe) == repr(entry.recipe)

    def test_export_save_load_json_file(self, tmp_path):
        with PlanStore(store_path(tmp_path)) as store:
            store.sync_from(make_cache(entries=3))
            document = store.export_document()
        json_path = str(tmp_path / "interchange.json")
        persist.save_document(document, json_path)
        assert len(persist.load(json_path)) == 3

    def test_import_document_migrates_json_state(self, tmp_path):
        """The JSON -> SQLite migration path."""
        document = persist.dump_document(make_cache(entries=5))
        with PlanStore(store_path(tmp_path)) as store:
            assert store.import_document(document) == 5
            assert len(store.load()) == 5

    def test_import_bad_document_imports_nothing(self, tmp_path):
        with PlanStore(store_path(tmp_path)) as store:
            with pytest.warns(CachePersistenceWarning):
                assert store.import_document({"format": "nope"}) == 0
            assert store.entry_count() == 0

    def test_import_export_is_idempotent(self, tmp_path):
        document = persist.dump_document(make_cache(entries=3))
        with PlanStore(store_path(tmp_path)) as store:
            store.import_document(document)
            store.import_document(document)  # upsert, not duplicate
            assert store.entry_count() == 3
            out = store.export_document()
        assert {e["key"] for e in out["entries"]} == {
            e["key"] for e in document["entries"]
        }

    def test_export_matches_dump_document_of_the_synced_cache(
        self, tmp_path
    ):
        cache = make_cache(entries=6, capacity=8)
        with PlanStore(store_path(tmp_path)) as store:
            store.sync_from(cache)
            exported = store.export_document()
        dumped = persist.dump_document(cache)
        assert exported["capacity"] == dumped["capacity"]
        # same entries, same LRU-first order
        assert [e["key"] for e in exported["entries"]] == [
            e["key"] for e in dumped["entries"]
        ]
        assert [e["recipe"] for e in exported["entries"]] == [
            e["recipe"] for e in dumped["entries"]
        ]

    def test_export_after_epoch_bump_holds_only_fresh_entries(
        self, tmp_path
    ):
        """Stale-epoch rows are what a loader would skip, so the
        interchange document leaves them out."""
        cache = make_cache(entries=3)
        fresh = (KEY_VERSION, "fresh", ("auto", "hyperedges", ("m", "q"), 14))
        with PlanStore(store_path(tmp_path)) as store:
            store.sync_from(cache)
            cache.bump_epoch()
            cache.store(fresh, (42, (0, 1)))
            store.sync_from(cache)
            document = store.export_document()
        assert len(document["entries"]) == 1
        restored = persist.restore_document(document)
        assert len(restored) == 1
        entry, status = restored.probe(fresh)
        assert status == "hit" and entry.recipe == (42, (0, 1))


class TestOptimizerWiring:
    def test_sqlite_cache_path_warm_restart(self, tmp_path):
        path = store_path(tmp_path)
        config = OptimizerConfig(cache="on", cache_path=path)
        batch = repeated_workload(generators.chain(5, seed=9), 4, seed=3)

        cold = Optimizer(config)
        cold_results = cold.optimize_many(batch)
        assert events_of(cold_results)[0] == "miss"
        assert os.path.exists(path)  # autosaved at batch end

        restarted = Optimizer(config)  # fresh process, same config
        warm_results = restarted.optimize_many(batch)
        assert all(event == "hit" for event in events_of(warm_results))
        for a, b in zip(cold_results, warm_results):
            assert a.cost == b.cost

    def test_autosave_writes_o_of_k_rows(self, tmp_path):
        """The acceptance criterion: k new entries -> O(k) rows."""
        path = store_path(tmp_path)
        config = OptimizerConfig(cache="on", cache_path=path)
        optimizer = Optimizer(config)
        optimizer.optimize_many(
            repeated_workload(generators.chain(5, seed=9), 4, seed=3)
        )
        store = optimizer._store
        baseline = store.rows_written
        assert baseline == len(optimizer.plan_cache)
        # a second batch with ONE genuinely new shape writes one row
        optimizer.optimize_many(
            repeated_workload(generators.star(4, seed=2), 1, seed=1)
        )
        assert store.rows_written == baseline + 1
        # an all-hits batch opens no transaction at all
        synced = store.syncs
        optimizer.optimize_many(
            repeated_workload(generators.chain(5, seed=9), 4, seed=3)
        )
        assert store.syncs == synced
        assert store.skipped_syncs >= 1

    def test_save_cache_explicit_sqlite_path(self, tmp_path):
        optimizer = Optimizer(OptimizerConfig(cache="on"))
        optimizer.optimize_many(
            repeated_workload(generators.chain(4, seed=1), 3)
        )
        target = store_path(tmp_path)
        written = optimizer.save_cache(target)
        assert written == len(optimizer.plan_cache) > 0
        with PlanStore(target) as store:
            assert len(store.load()) == written

    def test_corrupt_store_still_serves(self, tmp_path):
        path = store_path(tmp_path)
        with open(path, "w") as handle:
            handle.write("garbage{{{")
        config = OptimizerConfig(cache="on", cache_path=path)
        with pytest.warns(CachePersistenceWarning):
            optimizer = Optimizer(config)
            results = optimizer.optimize_many(
                repeated_workload(generators.chain(5, seed=3), 4)
            )
        assert all(r.plan is not None for r in results)
        # and the rebuilt store persisted the fresh batch
        restarted = Optimizer(config)
        warm = restarted.optimize_many(
            repeated_workload(generators.chain(5, seed=3), 4)
        )
        assert all(e == "hit" for e in events_of(warm))

    def test_store_is_bounded_by_cache_size(self, tmp_path):
        """The optimizer's store records ``cache_size`` and keeps no
        more rows than that, whatever the number of shapes planned."""
        path = store_path(tmp_path)
        config = OptimizerConfig(cache="on", cache_path=path, cache_size=3)
        optimizer = Optimizer(config)
        shapes = [generators.chain(n, seed=1) for n in range(3, 9)]
        for shape in shapes:
            optimizer.optimize_many(repeated_workload(shape, 2, seed=2))
        assert optimizer._store.entry_count() == 3
        restarted = Optimizer(config)
        warm = restarted.optimize_many(
            repeated_workload(shapes[-1], 2, seed=2)
        )
        assert all(e == "hit" for e in events_of(warm))

    def test_config_validation(self):
        with pytest.raises(ValueError, match="cache_size"):
            OptimizerConfig(cache_size=0)
        with pytest.raises(ValueError, match="cache_path"):
            OptimizerConfig(cache_path="plans.json")
        for retired in ("cache_ttl", "cache_size_budget"):
            with pytest.raises(TypeError):
                OptimizerConfig(**{retired: 1})


class TestServingWiring:
    def test_daemon_saves_to_store_on_shutdown(self, tmp_path):
        from repro.optimizer import QuerySpec
        from repro.serving import BackgroundServer, PlanClient

        path = store_path(tmp_path)
        spec = QuerySpec(
            relations=[(f"r{i}", 100.0 + 10.0 * i) for i in range(5)],
            joins=[(f"r{i}", f"r{i + 1}", 0.1) for i in range(4)],
        )
        config = OptimizerConfig(cache="on", cache_path=path)
        with BackgroundServer(config) as daemon:
            with PlanClient(daemon.address) as client:
                assert client.optimize(spec)["ok"]
        # BackgroundServer exit shut the daemon down: the store holds
        # the computed plan
        with PlanStore(path) as store:
            assert len(store.load()) >= 1

        # restart: the first repeat is a parent-side hit
        with BackgroundServer(config) as daemon:
            with PlanClient(daemon.address) as client:
                answer = client.optimize(spec)
                assert answer["via"] == "parent"
                assert answer["cache_event"] == "hit"
