"""Fault injection against the SQLite plan store.

Every scenario here ends the same way: the store comes back **usable**
— possibly cold, always warned via ``CachePersistenceWarning`` — and
never raises, never loses data past the last committed transaction,
and never serves a stale or mangled key.  The scenarios:

* a writer process SIGKILLed while holding an open ``BEGIN IMMEDIATE``
  transaction with rows already written (WAL rollback on reopen);
* the database file truncated to a fraction of its size;
* torn writes — a slice of the file body overwritten with garbage;
* the file replaced entirely with non-SQLite bytes;
* a full disk, simulated with ``PRAGMA max_page_count``;
* a burst of syncs into a two-entry cache;
* a recipe float flipped on disk (the row checksum drops it), and a
  plan whose floats are not finite (kept out of the store visibly).
"""

from __future__ import annotations

import ast
import os
import signal
import sqlite3
import subprocess
import sys

import pytest

from repro.cache import (
    KEY_VERSION,
    CachePersistenceWarning,
    PlanCache,
    PlanStore,
    persist,
)
from repro.core.hypergraph import Hypergraph
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


def seeded_store(path, entries=5) -> None:
    with PlanStore(path) as store:
        assert store.sync_from(make_cache(entries=entries)) == entries


# Committed batch first, then an open BEGIN IMMEDIATE with rows
# already written but never committed; "READY" marks that state, after
# which the process spins until killed.
WRITER_SCRIPT = """
import sqlite3, sys, time
sys.path.insert(0, {src!r})
from repro.cache import KEY_VERSION, PlanCache, PlanStore

path = {path!r}
cache = PlanCache(16)
for i in range(4):
    cache.store(
        (KEY_VERSION, f"committed-{{i}}", ("auto", "hyperedges", ("m", "q"), 14)),
        (i, (0, 1)),
    )
store = PlanStore(path)
store.sync_from(cache)

conn = sqlite3.connect(path, isolation_level=None)
conn.execute("BEGIN IMMEDIATE")
conn.execute(
    "INSERT INTO entries (key, recipe, structure, cost, seq)"
    " VALUES (?, ?, NULL, NULL, 999)",
    (repr((KEY_VERSION, "torn", ())), repr((9, (0, 1)))),
)
print("READY", flush=True)
time.sleep(60)
"""


class TestKilledWriter:
    def test_sigkill_mid_transaction_loses_only_the_uncommitted(
        self, tmp_path
    ):
        path = str(tmp_path / "plans.sqlite")
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        with subprocess.Popen(
            [sys.executable, "-c", WRITER_SCRIPT.format(src=src, path=path)],
            stdout=subprocess.PIPE,
            text=True,
        ) as proc:
            try:
                line = proc.stdout.readline()
                assert line.strip() == "READY"
                os.kill(proc.pid, signal.SIGKILL)
                proc.wait(timeout=10)
            finally:
                if proc.poll() is None:  # pragma: no cover - cleanup
                    proc.kill()
                    proc.wait()

        # reopen: WAL recovery rolls back the torn transaction
        with PlanStore(path) as store:
            loaded = store.load()
        assert len(loaded) == 4  # the committed batch, nothing less
        for i in range(4):
            entry, status = loaded.probe(
                (KEY_VERSION, f"committed-{i}", ("auto", "hyperedges", ("m", "q"), 14))
            )
            assert status == "hit"
            assert entry.recipe == (i, (0, 1))
        gone, status = loaded.probe((KEY_VERSION, "torn", ()))
        assert status == "miss"

    def test_store_stays_writable_after_recovery(self, tmp_path):
        path = str(tmp_path / "plans.sqlite")
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        with subprocess.Popen(
            [sys.executable, "-c", WRITER_SCRIPT.format(src=src, path=path)],
            stdout=subprocess.PIPE,
            text=True,
        ) as proc:
            try:
                assert proc.stdout.readline().strip() == "READY"
                os.kill(proc.pid, signal.SIGKILL)
                proc.wait(timeout=10)
            finally:
                if proc.poll() is None:  # pragma: no cover - cleanup
                    proc.kill()
                    proc.wait()
        with PlanStore(path) as store:
            cache = store.load()
            cache.store((KEY_VERSION, "after", ("auto", "hyperedges", ("m", "q"), 14)),
                        (42, (0, 1)))
            assert store.sync_from(cache) == 1
            assert len(store.load()) == 5


class TestCorruptFiles:
    def test_truncated_file_degrades_cold(self, tmp_path):
        path = str(tmp_path / "plans.sqlite")
        seeded_store(path)
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.truncate(size // 3)
        with pytest.warns(CachePersistenceWarning):
            store = PlanStore(path)
        assert len(store.load()) == 0
        assert store.rebuilds == 1
        # the damaged image is quarantined, not destroyed
        assert os.path.exists(path + ".corrupt")
        assert store.sync_from(make_cache(entries=2)) == 2
        store.close()

    def test_torn_write_degrades_cold_or_recovers(self, tmp_path):
        """Garbage scribbled over the middle of the file."""
        path = str(tmp_path / "plans.sqlite")
        seeded_store(path, entries=8)
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.seek(size // 2)
            handle.write(b"\xde\xad\xbe\xef" * 256)
        with warnings_or_none():
            store = PlanStore(path)
            loaded = store.load()
        # either quick_check caught it (cold) or the scribble landed in
        # slack space (full recovery) — both fine; a crash or a mangled
        # entry is not
        assert len(loaded) in (0, 8)
        for key, entry in loaded.snapshot_entries():
            assert isinstance(key, tuple) and key[0] == KEY_VERSION
            assert isinstance(entry.recipe, tuple)
        store.close()

    def test_zeroed_header_degrades_cold(self, tmp_path):
        path = str(tmp_path / "plans.sqlite")
        seeded_store(path)
        with open(path, "r+b") as handle:
            handle.write(b"\x00" * 100)
        with pytest.warns(CachePersistenceWarning):
            store = PlanStore(path)
        assert len(store.load()) == 0
        assert store.sync_from(make_cache(entries=1)) == 1
        store.close()

    def test_non_sqlite_bytes_degrade_cold(self, tmp_path):
        path = str(tmp_path / "plans.sqlite")
        with open(path, "w") as handle:
            handle.write("this is not a database\n" * 100)
        with pytest.warns(CachePersistenceWarning):
            store = PlanStore(path)
        assert len(store.load()) == 0
        assert store.sync_from(make_cache(entries=3)) == 3
        assert len(store.load()) == 3
        store.close()

    def test_corruption_discovered_mid_session_rebuilds(self, tmp_path):
        """The file goes bad *while* a store handle is open."""
        path = str(tmp_path / "plans.sqlite")
        store = PlanStore(path)
        cache = make_cache(entries=3)
        store.sync_from(cache)
        store._conn.close()  # sever the handle, then smash the file
        with open(path, "r+b") as handle:
            handle.write(b"\x00" * 100)
        store._conn = sqlite3.connect(path)  # reattach to the wreck
        cache.store((KEY_VERSION, "next", ("auto", "hyperedges", ("m", "q"), 14)),
                    (7, (0, 1)))
        with pytest.warns(CachePersistenceWarning):
            store.sync_from(cache)
        assert store.rebuilds == 1
        # the rebuilt file accepts the retried delta
        assert store.sync_from(cache, force=True) == 4
        store.close()


class TestTransientErrorsAreNotCorruption:
    """``OperationalError`` subclasses ``DatabaseError``: every handler
    must classify contention/disk-full as transient BEFORE the
    corruption branch, or a routine hiccup quarantines a healthy store
    and loses every persisted plan."""

    def test_locked_sync_does_not_quarantine(self, tmp_path):
        path = str(tmp_path / "plans.sqlite")
        store = PlanStore(path, busy_timeout=0.05)
        cache = make_cache(entries=3)
        store.sync_from(cache)
        cache.store(
            (KEY_VERSION, "pending", ("auto", "hyperedges", ("m", "q"), 14)),
            (7, (0, 1)),
        )
        blocker = sqlite3.connect(path, isolation_level=None)
        blocker.execute("BEGIN IMMEDIATE")  # exactly what a concurrent
        try:                                # process's writer holds
            with pytest.warns(CachePersistenceWarning, match="locked"):
                assert store.sync_from(cache) == 0
            assert store.failed_syncs == 1
            assert store.rebuilds == 0
            assert not os.path.exists(path + ".corrupt")
        finally:
            blocker.execute("ROLLBACK")
            blocker.close()
        # the store file is healthy: the delta lands on the next sync
        assert store.entry_count() == 3
        assert store.sync_from(cache) == 1
        assert store.entry_count() == 4
        store.close()

    def test_locked_import_does_not_quarantine(self, tmp_path):
        """An import runs the same write transaction as a sync (upsert,
        stale sweep, capacity trim): a locked file fails it whole."""
        path = str(tmp_path / "plans.sqlite")
        store = PlanStore(path, busy_timeout=0.05)
        store.sync_from(make_cache(entries=3))
        document = persist.dump_document(make_cache(entries=6))
        blocker = sqlite3.connect(path, isolation_level=None)
        blocker.execute("BEGIN IMMEDIATE")
        try:
            with pytest.warns(CachePersistenceWarning, match="locked"):
                assert store.import_document(document) == 0
            assert store.failed_syncs == 1
            assert store.rebuilds == 0
            assert store.rows_evicted == 0
            assert not os.path.exists(path + ".corrupt")
        finally:
            blocker.execute("ROLLBACK")
            blocker.close()
        assert store.entry_count() == 3
        assert store.import_document(document) == 6
        assert store.entry_count() == 6
        store.close()

    def test_transient_load_failure_does_not_quarantine(
        self, tmp_path, monkeypatch
    ):
        path = str(tmp_path / "plans.sqlite")
        store = PlanStore(path)
        store.sync_from(make_cache(entries=3))

        def locked(conn, limit):
            raise sqlite3.OperationalError("database is locked")

        monkeypatch.setattr(store, "_fresh_rows", locked)
        with pytest.warns(CachePersistenceWarning, match="locked"):
            cold = store.load()
        assert len(cold) == 0
        assert store.rebuilds == 0
        assert not os.path.exists(path + ".corrupt")
        monkeypatch.undo()
        assert len(store.load()) == 3  # nothing was lost
        store.close()


class TestDiskPressure:
    def test_full_disk_warns_and_stays_usable(self, tmp_path):
        path = str(tmp_path / "plans.sqlite")
        store = PlanStore(path)
        cache = make_cache(entries=3, capacity=32)
        store.sync_from(cache)
        # cap the file at its current size, then demand fresh pages
        store._conn.execute("PRAGMA max_page_count=1")
        cache.store(
            (KEY_VERSION, "big", ("auto", "hyperedges", ("m", "q"), 14)),
            (9, (0, 1)),
            structure="y" * 262144,
        )
        with pytest.warns(CachePersistenceWarning, match="full|disk"):
            assert store.sync_from(cache) == 0
        assert store.failed_syncs == 1
        # committed state is intact and readable throughout
        # (entry_count, not load(): load attaches the store to the
        # freshly loaded cache, which would reset the pending cursor)
        assert store.entry_count() == 3
        # space returns -> the pending delta lands on the next sync
        store._conn.execute("PRAGMA max_page_count=1073741823")
        assert store.sync_from(cache) == 1
        assert len(store.load()) == 4
        store.close()

    def test_sync_burst_into_a_tiny_cache_keeps_its_capacity(
        self, tmp_path
    ):
        path = str(tmp_path / "plans.sqlite")
        with PlanStore(path) as store:
            cache = PlanCache(2)
            for i in range(40):
                cache.store(
                    (KEY_VERSION, f"burst-{i}", ("auto", "hyperedges", ("m", "q"), 14)),
                    (i, (0, 1)),
                )
                store.sync_from(cache)
            assert store.failed_syncs == 0
            assert store.entry_count() == 2
            assert len(store.load(capacity=64)) == 2

    def test_optimizer_survives_full_disk_autosave(self, tmp_path):
        """End-to-end: autosave hits a full disk; planning continues."""
        path = str(tmp_path / "plans.sqlite")
        config = OptimizerConfig(cache="on", cache_path=path)
        optimizer = Optimizer(config)
        optimizer.optimize_many(
            repeated_workload(generators.chain(4, seed=5), 2)
        )
        store = optimizer._store
        store._conn.execute("PRAGMA max_page_count=1")
        # a bulky pending entry guarantees the flush needs fresh pages
        optimizer.plan_cache.store(
            (KEY_VERSION, "bulky", ("auto", "hyperedges", ("m", "q"), 14)),
            (0, (0, 1)),
            structure="z" * 262144,
        )
        with pytest.warns(CachePersistenceWarning):
            results = optimizer.optimize_many(
                repeated_workload(generators.clique(9, seed=6), 2)
            )
        assert all(r.plan is not None for r in results)


class TestStoredFloats:
    """Recipes carry each join's floats and a hit serves them as stored,
    so a persisted float must never be served wrong: corruption and
    non-finite floats both end in a recomputation."""

    @staticmethod
    def oracle_cost(query):
        oracle = Optimizer(algorithm="dphyp-recursive", cache="off")
        return oracle.optimize(query).cost

    @staticmethod
    def flip_root_cost_digit(recipe_text):
        """The recipe text with the root cost's first decimal changed:
        still a well-formed recipe, just a wrong float."""
        cost_text = repr(ast.literal_eval(recipe_text)[3])
        position = recipe_text.rindex(cost_text) + cost_text.index(".") + 1
        digit = str((int(recipe_text[position]) + 1) % 10)
        return recipe_text[:position] + digit + recipe_text[position + 1:]

    def test_flipped_digit_in_a_stored_float_is_recomputed(self, tmp_path):
        path = str(tmp_path / "plans.sqlite")
        query = generators.chain(6, seed=3)
        first = Optimizer(OptimizerConfig(cache="on", cache_path=path))
        first.optimize_many([query])
        first._store.close()

        conn = sqlite3.connect(path)
        (key_text, recipe_text), = conn.execute(
            "SELECT key, recipe FROM entries"
        ).fetchall()
        conn.execute(
            "UPDATE entries SET recipe = ? WHERE key = ?",
            (self.flip_root_cost_digit(recipe_text), key_text),
        )
        conn.commit()
        conn.close()

        second = Optimizer(OptimizerConfig(cache="on", cache_path=path))
        with pytest.warns(CachePersistenceWarning, match="checksum"):
            result = second.optimize(query)
        assert result.stats.extra["plan_cache"]["event"] == "miss"
        assert result.cost == self.oracle_cost(query)
        assert second._store.checksum_failures == 1
        second._store.close()

    def test_flipped_digit_in_a_json_document_is_recomputed(self, tmp_path):
        query = generators.chain(6, seed=3)
        optimizer = Optimizer(cache="on")
        optimizer.optimize(query)
        document = persist.dump_document(optimizer.plan_cache)
        entry = document["entries"][0]
        entry["recipe"] = self.flip_root_cost_digit(entry["recipe"])
        with pytest.warns(CachePersistenceWarning, match="checksum"):
            restored = persist.restore_document(document)
        assert len(restored) == 0

    def test_imported_infinite_literal_is_kept_out_visibly(self, tmp_path):
        # 1e999 is a literal that parses to inf, and repr(inf) is not
        key_text = repr((KEY_VERSION, "overflow", ("auto",)))
        recipe_text = "(0, 1, 1e999, 1e999)"
        document = {
            "format": persist.FORMAT_NAME,
            "format_version": persist.FORMAT_VERSION,
            "key_version": KEY_VERSION,
            "epoch": 0,
            "capacity": 4,
            "entries": [{
                "key": key_text,
                "recipe": recipe_text,
                "checksum": persist.entry_checksum(key_text, recipe_text),
                "epoch": 0,
                "structure": None,
                "cost": None,
            }],
        }
        with PlanStore(str(tmp_path / "plans.sqlite")) as store:
            with pytest.warns(CachePersistenceWarning, match="not finite"):
                assert store.import_document(document) == 0
            assert store.rows_unpersistable == 1
            assert store.entry_count() == 0

    def test_infinite_cost_is_kept_out_visibly(self, tmp_path):
        path = str(tmp_path / "plans.sqlite")
        graph = Hypergraph(n_nodes=3)
        graph.add_simple_edge(0, 1, selectivity=0.5)
        graph.add_simple_edge(1, 2, selectivity=0.5)
        # the join product overflows: every plan costs inf
        query = generators.Query(graph, [1e200, 1e200, 1e200])
        oracle = self.oracle_cost(query)
        assert oracle == float("inf")

        first = Optimizer(OptimizerConfig(cache="on", cache_path=path))
        with pytest.warns(CachePersistenceWarning, match="not finite"):
            first.optimize_many([query])
        assert first._store.rows_unpersistable == 1
        assert first._store.entry_count() == 0
        with pytest.warns(CachePersistenceWarning, match="not finite"):
            document = persist.dump_document(first.plan_cache)
        assert document["entries"] == []
        first._store.close()

        second = Optimizer(OptimizerConfig(cache="on", cache_path=path))
        result = second.optimize(query)
        assert result.stats.extra["plan_cache"]["event"] == "miss"
        assert result.cost == oracle
        second._store.close()


class warnings_or_none:
    """Context allowing (but not requiring) CachePersistenceWarning."""

    def __enter__(self):
        import warnings

        self._ctx = warnings.catch_warnings()
        self._ctx.__enter__()
        warnings.simplefilter("ignore", CachePersistenceWarning)
        return self

    def __exit__(self, *exc):
        return self._ctx.__exit__(*exc)
