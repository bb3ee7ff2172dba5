"""Embedded SQLite plan store: incremental, bounded, crash-safe.

The one autosave backend of the plan cache —
``OptimizerConfig(cache_path="plans.sqlite")`` and the serving daemon
both persist through it.  The JSON document (:mod:`repro.cache.
persist`) is the export/import interchange format only
(:meth:`PlanStore.export_document` / :meth:`PlanStore.
import_document`):

* **incremental writes** — :meth:`PlanStore.sync_from` consumes the
  :meth:`~repro.cache.plan_cache.PlanCache.sync_since` mutation
  cursor, upserting exactly the entries written since the last sync:
  O(delta) rows written, though finding the delta scans the cache;
* **bounded retention** — every write transaction trims the store to
  the newest ``capacity`` rows by write ``seq``, the capacity of the
  last attached cache: exactly the rows a :meth:`PlanStore.load` of
  that capacity would absorb, so the file never outgrows the cache it
  restores;
* **concurrent access** — SQLite WAL mode gives readers snapshot
  isolation while one writer commits; ``busy_timeout`` plus
  ``BEGIN IMMEDIATE`` single-writer transactions let multiple serving
  processes share one store file without ``database is locked``
  escapes;
* **crash safety** — every write happens in one transaction, so a
  writer killed mid-sync loses at most its uncommitted delta; a
  corrupt, truncated, or foreign file is quarantined (renamed to
  ``<path>.corrupt``) and rebuilt cold with a
  :class:`~repro.cache.persist.CachePersistenceWarning`, never an
  exception.

Persistence invariants (machine-checked by ``python -m
repro.analysis``): keys and recipes are stored as ``repr`` text and
parsed back with :func:`ast.literal_eval` — never pickle — and the
``meta`` table stamps :data:`~repro.cache.keys.KEY_VERSION` and the
store schema version; a mismatch on either degrades to a cold store.
Process-scoped keys (:func:`~repro.core.identity.is_process_scoped`)
are never written.  Every row carries the
:func:`~repro.cache.persist.entry_checksum` of its key and recipe
text: a recipe's floats are served as stored, so :meth:`PlanStore.load`
drops a row whose checksum does not match (``checksum_failures``, with
a warning) and the query is recomputed.  Entries whose floats cannot
round-trip (``inf``, ``nan``) are never written
(``rows_unpersistable``, with a warning).

Epochs: the store keeps none of its own.  When the attached cache's
statistics epoch moved since the last sync, the sync starts by
deleting every row (``rows_stale_dropped``), so every row the store
holds is fresh and :meth:`PlanStore.load` filters nothing.

Routine syncs are **additive**: entries the cache dropped between
syncs (LRU evictions, ``invalidate_structure``, replay-failure
evictions, ``clear``) stay on disk until the capacity trim, an epoch
move, or a *force* sync removes them.  ``sync_from(cache, force=True)``
— the explicit :meth:`Optimizer.save_cache` checkpoint and the serving
daemon's shutdown save — rewrites the store from the cache: every
fresh member in LRU order, so a reload restores the cache's
membership and recency.  Deployments where several processes *write*
one store file should lean on the additive autosaves instead: a force
sync from one process drops rows its own cache never held.

A ``cache_path`` must carry a store extension (:func:`is_store_path`);
``OptimizerConfig`` rejects anything else.  See ``docs/store.md``.
"""

from __future__ import annotations

import os
import sqlite3
import threading
import warnings
import weakref
from typing import Any, Iterable, Optional

from ..core.identity import is_process_scoped
from . import persist
from .keys import KEY_VERSION
from .plan_cache import DEFAULT_CAPACITY, PlanCache
from .store_schema import (
    CREATE_STATEMENTS,
    META_CAPACITY,
    META_FORMAT,
    META_KEY_VERSION,
    META_SCHEMA_VERSION,
    META_SEQ,
    STORE_FORMAT_NAME,
    STORE_SCHEMA_VERSION,
)

#: extensions :func:`is_store_path` treats as SQLite stores
STORE_SUFFIXES = (".sqlite", ".sqlite3", ".db")

#: one entry row: ``(key repr, recipe repr, checksum, structure, cost)``
Row = tuple[str, str, Optional[str], Optional[str], Optional[float]]

#: one cache entry: ``(key, recipe, structure, cost)``
Entry = tuple[Any, Any, Optional[str], Optional[float]]


def is_store_path(path: str) -> bool:
    """True when ``path`` selects the SQLite backend (by extension)."""
    return os.path.splitext(path)[1].lower() in STORE_SUFFIXES


def _warn(message: str) -> None:
    warnings.warn(message, persist.CachePersistenceWarning, stacklevel=3)


class _StoreRejected(Exception):
    """Internal: an existing file failed the compatibility checks."""


class PlanStore:
    """SQLite-backed incremental persistence for a :class:`PlanCache`.

    One instance owns one connection (WAL journal, ``busy_timeout``),
    guarded by an internal lock so optimizer threads can share it; open
    one instance per *process* — cross-process coordination is SQLite's
    job, not Python's.

    Every public operation is **total**: corruption, disk-full, and
    lock contention degrade to a warning plus a usable (possibly cold)
    store, never an exception.  A store whose file cannot even be
    rebuilt (unwritable directory) becomes a no-op shell: ``load``
    returns cold caches and ``sync_from`` returns 0.

    Counters (plain ints, written under the lock, read without it):
    ``rows_written``, ``rows_evicted`` (capacity trims),
    ``rows_stale_dropped`` (epoch moved), ``rows_reconciled``
    (rows a force sync dropped because the cache no longer holds their
    key), ``syncs``,
    ``skipped_syncs`` (clean — no transaction opened),
    ``failed_syncs``, ``rebuilds`` (quarantine events),
    ``load_skipped`` (unparsable/foreign rows), ``checksum_failures``
    (rows dropped at load because key and recipe no longer match their
    checksum), ``rows_unpersistable`` (entries kept out because a
    float is not finite).
    """

    def __init__(
        self,
        path: str,
        capacity: Optional[int] = None,
        busy_timeout: float = 5.0,
    ) -> None:
        if busy_timeout < 0:
            raise ValueError("busy_timeout must be >= 0")
        self.path = path
        self.busy_timeout = busy_timeout
        self._capacity = capacity
        self._lock = threading.Lock()
        #: identity + cursor + epoch of the attached cache; reset when
        #: a different cache object shows up (see :meth:`sync_from`).
        #: A weakref, not ``id()``: after the attached cache is
        #: garbage-collected a new one can reuse the same id, and a
        #: stale cursor would silently skip the new cache's entries.
        self._cache_ref: "Optional[weakref.ref[PlanCache]]" = None
        self._cursor = 0
        self._cache_epoch: Optional[int] = None
        self.rows_written = 0
        self.rows_evicted = 0
        self.rows_stale_dropped = 0
        self.rows_reconciled = 0
        self.syncs = 0
        self.skipped_syncs = 0
        self.failed_syncs = 0
        self.rebuilds = 0
        self.load_skipped = 0
        self.checksum_failures = 0
        self.rows_unpersistable = 0
        conn, rebuilt = self._open()
        self._conn: Optional[sqlite3.Connection] = conn
        if rebuilt:
            self.rebuilds = 1

    # -- lifecycle --------------------------------------------------------

    def __enter__(self) -> "PlanStore":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def close(self) -> None:
        """Close the connection."""
        with self._lock:
            conn = self._conn
            self._conn = None
            if conn is not None:
                try:
                    conn.close()
                except sqlite3.Error:
                    pass

    # -- connection / schema ----------------------------------------------

    def _connect(self) -> sqlite3.Connection:
        conn = sqlite3.connect(
            self.path,
            timeout=self.busy_timeout,
            check_same_thread=False,
            isolation_level=None,  # explicit BEGIN/COMMIT below
        )
        conn.execute(f"PRAGMA busy_timeout={int(self.busy_timeout * 1000)}")
        conn.execute("PRAGMA journal_mode=WAL")
        # WAL + NORMAL: a commit is durable against process crash (the
        # fault-injection model here); an OS crash can lose the tail of
        # the WAL but never corrupts committed pages
        conn.execute("PRAGMA synchronous=NORMAL")
        return conn

    def _open(self) -> "tuple[Optional[sqlite3.Connection], bool]":
        """Open-or-rebuild; called from ``__init__`` only (no lock yet).

        Returns ``(connection_or_None, rebuilt)``; never writes
        instance state itself so the lock-discipline rule stays
        trivially satisfied.
        """
        try:
            conn = self._connect()
        except sqlite3.Error as exc:
            return self._rebuild(None, f"cannot open: {exc}"), True
        try:
            self._verify_or_init(conn)
            return conn, False
        except (_StoreRejected, sqlite3.Error) as exc:
            return self._rebuild(conn, str(exc)), True

    def _verify_or_init(self, conn: sqlite3.Connection) -> None:
        """Validate an existing file or initialize a fresh one.

        Raises :class:`_StoreRejected` (version/format trouble) or
        ``sqlite3.Error`` (corruption) for :meth:`_open` to translate
        into a quarantine-and-rebuild.
        """
        check = conn.execute("PRAGMA quick_check").fetchone()
        if check is None or check[0] != "ok":
            raise _StoreRejected(f"integrity check failed: {check!r}")
        tables = {
            row[0]
            for row in conn.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table'"
            )
        }
        if not tables:
            self._init_schema(conn)
            return
        if "meta" not in tables or "entries" not in tables:
            raise _StoreRejected(
                f"not a plan-store database (tables: {sorted(tables)})"
            )
        header = {
            META_FORMAT: STORE_FORMAT_NAME,
            META_SCHEMA_VERSION: str(STORE_SCHEMA_VERSION),
            META_KEY_VERSION: str(KEY_VERSION),
        }
        for key, expected in header.items():
            row = conn.execute(
                "SELECT value FROM meta WHERE key = ?", (key,)
            ).fetchone()
            actual = row[0] if row else None
            if actual != expected:
                raise _StoreRejected(
                    f"store {key} {actual!r} != supported {expected!r}; "
                    "entries from other semantics must never be served"
                )

    def _init_schema(self, conn: sqlite3.Connection) -> None:
        conn.execute("BEGIN IMMEDIATE")
        for statement in CREATE_STATEMENTS:
            conn.execute(statement)
        defaults = {
            META_FORMAT: STORE_FORMAT_NAME,
            META_SCHEMA_VERSION: str(STORE_SCHEMA_VERSION),
            META_KEY_VERSION: str(KEY_VERSION),
            META_SEQ: "0",
        }
        if self._capacity is not None:
            defaults[META_CAPACITY] = str(self._capacity)
        for key, value in defaults.items():
            conn.execute(
                "INSERT OR IGNORE INTO meta (key, value) VALUES (?, ?)",
                (key, value),
            )
        conn.execute("COMMIT")

    def _rebuild(
        self, conn: Optional[sqlite3.Connection], reason: str
    ) -> Optional[sqlite3.Connection]:
        """Quarantine the file and start cold; ``None`` if even that fails.

        The damaged file is renamed to ``<path>.corrupt`` (last one
        wins — it exists for post-mortems, not as an archive) together
        with its ``-wal``/``-shm`` sidecars, so the evidence survives
        while the serving path continues on a fresh store.
        """
        if conn is not None:
            try:
                conn.close()
            except sqlite3.Error:
                pass
        quarantine = self.path + ".corrupt"
        try:
            if os.path.exists(self.path):
                os.replace(self.path, quarantine)
            for sidecar in (self.path + "-wal", self.path + "-shm"):
                if os.path.exists(sidecar):
                    os.replace(sidecar, quarantine + sidecar[len(self.path):])
        except OSError:
            pass
        _warn(
            f"plan store {self.path!r} unusable ({reason}); quarantined "
            f"to {quarantine!r} and starting cold"
        )
        try:
            fresh = self._connect()
            self._init_schema(fresh)
            return fresh
        except sqlite3.Error as exc:
            _warn(
                f"plan store {self.path!r} could not be rebuilt ({exc}); "
                "persistence is disabled for this process"
            )
            return None

    def _rebuild_locked(self, reason: str) -> None:
        """Mid-run corruption recovery.

        Only ever called with ``self._lock`` held; the lock-discipline
        check is lexical, hence the inline waivers.
        """
        self._conn = self._rebuild(self._conn, reason)  # repro: ignore[lock-discipline]
        # nothing of the attached cache has reached the fresh file
        self._cursor = 0  # repro: ignore[lock-discipline]
        self._cache_epoch = None  # repro: ignore[lock-discipline]
        self.rebuilds += 1  # repro: ignore[lock-discipline]

    # -- meta helpers (caller holds the lock and a transaction) -----------

    @staticmethod
    def _meta_int(conn: sqlite3.Connection, key: str, default: int = 0) -> int:
        row = conn.execute(
            "SELECT value FROM meta WHERE key = ?", (key,)
        ).fetchone()
        if row is None:
            return default
        try:
            return int(row[0])
        except ValueError:
            return default

    @staticmethod
    def _meta_set(conn: sqlite3.Connection, key: str, value: int) -> None:
        conn.execute(
            "INSERT INTO meta (key, value) VALUES (?, ?) "
            "ON CONFLICT(key) DO UPDATE SET value = excluded.value",
            (key, str(value)),
        )

    # -- writing ----------------------------------------------------------

    def sync_from(self, cache: PlanCache, force: bool = False) -> int:
        """Persist everything ``cache`` wrote since the last sync.

        The incremental autosave primitive: one
        :meth:`~repro.cache.plan_cache.PlanCache.sync_since` call under
        the cache's lock yields the delta, one ``BEGIN IMMEDIATE``
        transaction upserts exactly those rows and trims the store to
        the cache's capacity.  The rows written are O(delta), but the
        sync is not: ``sync_since`` scans every cache entry to find the
        delta, and the trim's ``OFFSET`` walks ``capacity`` entries of
        the ``seq`` index.  A clean cache skips the transaction
        entirely unless ``force`` is set.

        A different cache object than last time resets the cursor to 0
        (full first sync); a cache epoch that moved since the last sync
        deletes every row first (``rows_stale_dropped``).  Returns the
        number of entry rows written; failures warn and return 0.

        Routine syncs are additive — entries the cache dropped keep
        their rows until the capacity trim or an epoch move removes
        them.  A ``force`` sync rewrites the store from the cache: every
        fresh, persistable member is written LRU-first with a new
        ``seq``, and every older row is deleted (``rows_reconciled``:
        the cache no longer holds its key), so a reload restores the
        cache's exact membership and recency.  It serializes every
        member — O(cache), reserved for explicit checkpoints and
        shutdown saves.
        """
        with self._lock:
            if self._conn is None:
                return 0
            attached = (
                self._cache_ref() if self._cache_ref is not None else None
            )
            if attached is not cache:
                self._cache_ref = weakref.ref(cache)
                self._cursor = 0
                self._cache_epoch = None
            # a force sync rewrites every fresh member, not just the delta
            delta = cache.sync_since(0 if force else self._cursor)
            known_epoch = (
                self._cache_epoch if self._cache_epoch is not None else 0
            )
            if delta.empty and delta.epoch == known_epoch and not force:
                self.skipped_syncs += 1
                return 0
            rows, unpersistable = _entry_rows(
                entry[1:] for entry in delta.entries
            )
            status, detail, written, stale, evicted, reconciled = (
                self._write_rows(
                    rows,
                    capacity=cache.capacity,
                    epoch_moved=delta.epoch != known_epoch,
                    rewrite=force,
                )
            )
            if status == "ok":
                if unpersistable:
                    self.rows_unpersistable += unpersistable
                    persist.warn_unpersistable(
                        unpersistable, f"plan-store sync to {self.path!r}"
                    )
                self.rows_written += written
                self.rows_stale_dropped += stale
                self.rows_evicted += evicted
                self.rows_reconciled += reconciled
                self.syncs += 1
                self._cursor = delta.now
                self._cache_epoch = delta.epoch
                return written
            # the cursor is NOT advanced: the next sync retries the
            # same delta (plus anything newer)
            self.failed_syncs += 1
            if status == "corrupt":
                self._rebuild_locked(detail)
            return 0

    def _write_rows(
        self, rows: list[Row],
        capacity: Optional[int],
        epoch_moved: bool = False,
        rewrite: bool = False,
    ) -> "tuple[str, str, int, int, int, int]":
        """One write transaction (caller holds the lock).

        Returns ``(status, detail, written, stale, evicted, reconciled)``
        with ``status`` one of ``"ok"`` / ``"failed"`` (transient: disk
        full, contention — the file stays healthy) / ``"corrupt"`` (the
        caller must :meth:`_rebuild_locked` with ``detail``).
        ``epoch_moved`` deletes every row before ``rows`` are upserted
        (``stale``); ``rewrite`` deletes every row older than ``rows``
        after they are (``reconciled``).  ``capacity``, when given,
        replaces the recorded one.  Writes no instance state itself —
        the caller owns the counters, keeping every mutation lexically
        under ``with self._lock``.
        """
        conn = self._conn
        assert conn is not None
        try:
            conn.execute("BEGIN IMMEDIATE")
            stale = reconciled = evicted = 0
            if epoch_moved:
                stale = conn.execute("DELETE FROM entries").rowcount
            seq = older = self._meta_int(conn, META_SEQ)
            for row in rows:
                seq += 1
                self._upsert(conn, row, seq)
            self._meta_set(conn, META_SEQ, seq)
            if rewrite:
                # every member now has a newer ``seq``; what is left
                # over holds a key the cache no longer has
                reconciled = conn.execute(
                    "DELETE FROM entries WHERE seq <= ?", (older,)
                ).rowcount
            if capacity is not None:
                self._meta_set(conn, META_CAPACITY, capacity)
            else:
                capacity = self._meta_int(conn, META_CAPACITY) or None
            if capacity is not None:
                # keep the newest ``capacity`` rows: exactly what a load
                # of that capacity absorbs.  The cut-off row is read off
                # the ``seq`` index (the ``OFFSET`` walks ``capacity``
                # of its entries), so the trim adds no table scan.
                evicted = conn.execute(
                    "DELETE FROM entries WHERE seq <= (SELECT seq FROM"
                    " entries ORDER BY seq DESC LIMIT 1 OFFSET ?)",
                    (capacity,),
                ).rowcount
            conn.execute("COMMIT")
        except sqlite3.OperationalError as exc:
            # disk full / lock contention past busy_timeout: the file
            # stays healthy, this delta just did not land
            self._rollback(conn)
            _warn(f"plan-store sync to {self.path!r} failed: {exc}")
            return "failed", str(exc), 0, 0, 0, 0
        except sqlite3.DatabaseError as exc:
            # corruption detected mid-run: quarantine and start cold
            self._rollback(conn)
            return "corrupt", f"write failed: {exc}", 0, 0, 0, 0
        except sqlite3.Error as exc:
            self._rollback(conn)
            _warn(f"plan-store sync to {self.path!r} failed: {exc}")
            return "failed", str(exc), 0, 0, 0, 0
        return "ok", "", len(rows), stale, evicted, reconciled

    @staticmethod
    def _upsert(conn: sqlite3.Connection, row: Row, seq: int) -> None:
        key_repr, recipe_repr, checksum, structure, cost = row
        conn.execute(
            "INSERT INTO entries (key, recipe, checksum, structure, cost,"
            " seq) VALUES (?, ?, ?, ?, ?, ?)"
            " ON CONFLICT(key) DO UPDATE SET recipe = excluded.recipe,"
            " checksum = excluded.checksum,"
            " structure = excluded.structure, cost = excluded.cost,"
            " seq = excluded.seq",
            (key_repr, recipe_repr, checksum, structure, cost, seq),
        )

    @staticmethod
    def _rollback(conn: sqlite3.Connection) -> None:
        try:
            conn.execute("ROLLBACK")
        except sqlite3.Error:
            pass

    # -- reading ----------------------------------------------------------

    @staticmethod
    def _fresh_rows(conn: sqlite3.Connection, limit: int = -1) -> list[Row]:
        """The newest ``limit`` rows, oldest first; every row when
        ``limit`` is negative.  (Every row is fresh: an epoch move
        deletes them all.)"""
        rows = conn.execute(
            "SELECT key, recipe, checksum, structure, cost FROM entries"
            " ORDER BY seq DESC LIMIT ?",
            (limit,),
        ).fetchall()
        rows.reverse()
        return rows

    def load(self, capacity: Optional[int] = None) -> PlanCache:
        """Rebuild a warm :class:`PlanCache` from the store.

        Only the newest ``capacity`` rows are read, and absorbed
        oldest-first through :func:`~repro.cache.persist.parse_entry`
        (the JSON loader's rules), so a loader smaller than the writer
        parses no row it would discard.  ``capacity`` defaults to the
        one the store records.  Unparsable or foreign rows are skipped
        with a warning, and so are rows whose checksum does not match
        their key and recipe.  The returned cache is *attached*: its
        current state counts as already persisted, so a restarted
        server's first all-hits batch triggers no write.  Never raises
        — any trouble degrades to a cold cache.
        """
        with self._lock:
            capacity = capacity or self._capacity
            if self._conn is None:
                return PlanCache(capacity or DEFAULT_CAPACITY)
            conn = self._conn
            try:
                capacity = (
                    capacity
                    or self._meta_int(conn, META_CAPACITY)
                    or DEFAULT_CAPACITY
                )
                rows = self._fresh_rows(conn, capacity)
            except sqlite3.OperationalError as exc:
                # transient (locked / disk full): cold cache for this
                # call, but the file stays healthy — must be caught
                # before its DatabaseError superclass
                _warn(f"plan-store load from {self.path!r} failed: {exc}")
                return PlanCache(capacity or DEFAULT_CAPACITY)
            except sqlite3.DatabaseError as exc:
                self._rebuild_locked(f"load failed: {exc}")
                return PlanCache(capacity or DEFAULT_CAPACITY)
            except sqlite3.Error as exc:
                _warn(f"plan-store load from {self.path!r} failed: {exc}")
                return PlanCache(capacity or DEFAULT_CAPACITY)
            items = []
            skipped = 0
            corrupt = 0
            for key_repr, recipe_repr, checksum, structure, cost in rows:
                verdict, key, recipe = persist.parse_entry(
                    key_repr, recipe_repr, checksum
                )
                if verdict == "ok":
                    items.append((key, recipe, structure, cost))
                elif verdict == "corrupt":
                    corrupt += 1
                else:
                    skipped += 1
            if corrupt:
                self.checksum_failures += corrupt
                persist.warn_checksum_failures(
                    corrupt, f"plan-store load from {self.path!r}"
                )
            if skipped:
                self.load_skipped += skipped
                _warn(
                    f"plan-store load skipped {skipped} unparsable or "
                    f"foreign entr{'y' if skipped == 1 else 'ies'}"
                )
            cache = PlanCache(capacity)
            cache.absorb(items)
            # attach: the loaded content IS the persisted content
            self._cache_ref = weakref.ref(cache)
            self._cursor = cache.mutations
            self._cache_epoch = cache.epoch
            return cache

    def entry_count(self) -> int:
        """Number of rows (0 on trouble)."""
        with self._lock:
            if self._conn is None:
                return 0
            try:
                row = self._conn.execute(
                    "SELECT COUNT(*) FROM entries"
                ).fetchone()
                return int(row[0])
            except sqlite3.Error:
                return 0

    # -- JSON interchange --------------------------------------------------

    def export_document(self) -> dict:
        """Snapshot the rows as a :mod:`repro.cache.persist` JSON
        document (the interchange format).

        The document round-trips: ``persist.restore_document`` /
        ``persist.save`` consumers see exactly what :meth:`load` would
        absorb, stamped with the store's write sequence.  The store
        keeps no epoch, so the document and every entry carry epoch 0.
        """
        with self._lock:
            entries = []
            seq = 0
            capacity = self._capacity or 0
            if self._conn is not None:
                try:
                    conn = self._conn
                    seq = self._meta_int(conn, META_SEQ)
                    capacity = self._meta_int(
                        conn, META_CAPACITY, capacity
                    )
                    for key_repr, recipe_repr, checksum, structure, cost in (
                        self._fresh_rows(conn)
                    ):
                        entries.append({
                            "key": key_repr,
                            "recipe": recipe_repr,
                            "checksum": checksum,
                            "epoch": 0,
                            "structure": structure,
                            "cost": cost,
                        })
                except sqlite3.Error as exc:
                    _warn(
                        f"plan-store export from {self.path!r} failed: {exc}"
                    )
                    entries = []
            return {
                "format": persist.FORMAT_NAME,
                "format_version": persist.FORMAT_VERSION,
                "key_version": KEY_VERSION,
                "epoch": 0,
                "mutations": seq,
                "capacity": capacity,
                "entries": entries,
            }

    def import_document(self, document: Any) -> int:
        """Merge a JSON document (``persist`` format) into the store.

        The migration path from a JSON file: entries are validated by
        the document loader's rules (bad documents warn and import
        nothing, process-scoped keys are dropped), then upserted in one
        transaction, which trims the store to its recorded capacity like
        every sync.  Returns the number of rows written.
        """
        cache = persist.restore_document(document)
        # a document may spell inf as the literal 1e999
        rows, unpersistable = _entry_rows(
            (key, entry.recipe, entry.structure, entry.cost)
            for key, entry in cache.snapshot_entries()
        )
        with self._lock:
            if self._conn is None:
                return 0
            status, detail, written, _, evicted, _ = (
                self._write_rows(rows, capacity=None)
            )
            if status != "ok":
                self.failed_syncs += 1
                if status == "corrupt":
                    self._rebuild_locked(detail)
                return 0
            if unpersistable:
                self.rows_unpersistable += unpersistable
                persist.warn_unpersistable(
                    unpersistable, f"plan-store import into {self.path!r}"
                )
            self.rows_written += written
            self.rows_evicted += evicted
            return written

    # -- introspection -----------------------------------------------------

    def counters(self) -> dict:
        """Snapshot of the store counters (JSON-friendly)."""
        return {
            "path": self.path,
            "rows_written": self.rows_written,
            "rows_evicted": self.rows_evicted,
            "rows_stale_dropped": self.rows_stale_dropped,
            "rows_reconciled": self.rows_reconciled,
            "syncs": self.syncs,
            "skipped_syncs": self.skipped_syncs,
            "failed_syncs": self.failed_syncs,
            "rebuilds": self.rebuilds,
            "load_skipped": self.load_skipped,
            "checksum_failures": self.checksum_failures,
            "rows_unpersistable": self.rows_unpersistable,
            "entries": self.entry_count(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"PlanStore(path={self.path!r})"


# -- delta / row helpers ------------------------------------------------------


def _entry_rows(entries: Iterable[Entry]) -> tuple[list[Row], int]:
    """Serialize ``(key, recipe, structure, cost)`` entries to store
    rows (repr text, no pickle).

    Returns ``(rows, unpersistable)``.  Process-scoped keys are dropped
    here — their identity tokens mean nothing in another process
    lifetime, the same exclusion ``persist.save_document`` applies.
    Entries whose floats cannot round-trip are counted in
    ``unpersistable`` and left out.
    """
    rows: list[Row] = []
    unpersistable = 0
    for key, recipe, structure, cost in entries:
        serialized = persist.serialize_entry(key, recipe)
        if serialized is None:
            unpersistable += 1
            continue
        if is_process_scoped(serialized[0]):
            continue
        rows.append((*serialized, structure, cost))
    return rows, unpersistable

