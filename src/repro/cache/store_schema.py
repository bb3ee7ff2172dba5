"""Relational schema of the embedded SQLite plan store.

One place for the DDL and the metadata-key vocabulary of
:class:`~repro.cache.store.PlanStore`, so the schema can be read (and
diffed) without wading through the store's concurrency machinery.

Two tables:

``meta``
    One row per bookkeeping datum (``key`` / ``value``, both text).
    Carries the same compatibility header the JSON document format
    uses — ``format`` marker, store layout version, the
    :data:`~repro.cache.keys.KEY_VERSION` every entry key was built
    under — plus the monotone write sequence counter ``seq`` and the
    last attached cache's LRU ``capacity`` (the number of rows the
    store retains).  A mismatch on any compatibility field degrades to
    a cold store (the file is rebuilt), mirroring the persistence
    layer's whole-file rejection.

``entries``
    One row per cached plan, keyed by the ``repr`` of the cache key
    (the same ``repr``/``ast.literal_eval`` round-trip as the JSON
    document — never pickle).  ``checksum`` is
    :func:`~repro.cache.persist.entry_checksum` of the key and recipe
    text, verified at load (a NULL or mismatching value drops the
    row).  ``seq`` is the row's write sequence: load order, and the
    order in which every write transaction trims the store to the
    newest ``capacity`` rows.  Rows carry no epoch: every row is fresh
    at the attached cache's epoch, because a sync after that epoch
    moved starts by deleting every row.

The store upserts per mutation — O(delta) rows written per autosave —
which is why the layout is row-per-entry rather than one JSON blob:
the blob would re-serialize the world on every save, the exact wrong
shape the store replaces.
"""

from __future__ import annotations

#: magic marker distinguishing plan-store databases from arbitrary
#: SQLite files (stored in ``meta``; analogous to
#: :data:`repro.cache.persist.FORMAT_NAME`)
STORE_FORMAT_NAME = "repro-plan-store"

#: bump when the *store* layout changes incompatibly (independent of
#: KEY_VERSION, which tracks key/recipe semantics, and of the JSON
#: document's FORMAT_VERSION).  2: the ``checksum`` column; 3: the
#: ``size``, ``created_at`` and ``expires_at`` columns are gone; 4: the
#: ``epoch`` column and meta row are gone
STORE_SCHEMA_VERSION = 4

#: ``meta`` keys making up the compatibility header; a missing or
#: mismatched value rejects the whole file (cold rebuild + warning)
META_FORMAT = "format"
META_SCHEMA_VERSION = "schema_version"
META_KEY_VERSION = "key_version"

#: ``meta`` keys for mutable store state
META_SEQ = "seq"
META_CAPACITY = "capacity"

#: DDL executed (idempotently) when a store file is created or opened
CREATE_STATEMENTS: "tuple[str, ...]" = (
    """
    CREATE TABLE IF NOT EXISTS meta (
        key   TEXT PRIMARY KEY,
        value TEXT NOT NULL
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS entries (
        key        TEXT PRIMARY KEY,
        recipe     TEXT NOT NULL,
        checksum   TEXT,
        structure  TEXT,
        cost       REAL,
        seq        INTEGER NOT NULL
    )
    """,
    # recency order: load ordering and the capacity trim's cut-off
    "CREATE INDEX IF NOT EXISTS entries_seq ON entries (seq)",
)

