"""The JSON plan document: export/import interchange for plan caches.

The autosave backend is the SQLite :class:`~repro.cache.store.
PlanStore`; this module is how plans leave or enter it as one
human-inspectable file — :meth:`~repro.optimizer.Optimizer.save_cache`
to an ad-hoc path, :func:`save`/:func:`load`, and
:meth:`~repro.cache.store.PlanStore.export_document`/
:meth:`~repro.cache.store.PlanStore.import_document`.  Entry keys and
recipes — nested tuples of ints, floats, and strings by construction —
are stored as ``repr`` strings and parsed back with
:func:`ast.literal_eval`.  That round-trip is exact for the tuple
grammar the cache uses and, unlike ``pickle``, cannot execute code
from a tampered or corrupt file.

Integrity: a recipe's per-join floats are served as stored (see
:mod:`repro.cache.recipe`), so a flipped digit would be a wrong cost,
not a recomputation.  Every persisted entry therefore carries an
:func:`entry_checksum` over its key and recipe text, verified at load;
a mismatch drops the entry (counted and warned about) and the query is
recomputed.  Entries holding a non-finite float (``repr(inf)`` is not
a literal) cannot round-trip and are kept out of every persisted form
by :func:`serialize_entry`, with a warning — never written only to
vanish at load.

Versioning discipline (see ``docs/cache.md``):

* the document carries a ``format_version`` (layout of this file;
  version 2 added the per-entry ``checksum``) and the
  :data:`~repro.cache.keys.KEY_VERSION` under which every key was
  built.  A mismatch on either rejects the whole file — old entries
  must never be served by code with different key or replay semantics;
* the document carries the cache's statistics ``epoch`` at save time
  and every entry its own epoch stamp.  Entries that were already
  stale when saved (``entry epoch != document epoch``) are skipped on
  load; survivors enter the new cache fresh at *its* current epoch.

Failure policy: loading is **total**.  A missing file is a normal cold
start; anything else wrong — truncated JSON, a foreign file, a stale
version, an unparsable entry — degrades to a cold (or partial) cache
with a :class:`CachePersistenceWarning`, never an exception.  A plan
cache is an accelerator; corruption must not take the server down.

Thread-safety: :func:`dump_document` snapshots under the cache's own
lock and :func:`save` writes atomically (temp file + ``os.replace``),
so readers see either the old or the new file.  Concurrent *writers*
to one path last-write-win.
"""

from __future__ import annotations

import ast
import hashlib
import json
import math
import os
import tempfile
import warnings
from typing import Any, Optional

from ..core.identity import is_process_scoped
from .keys import KEY_VERSION
from .plan_cache import PlanCache

#: magic marker distinguishing plan-cache files from arbitrary JSON
FORMAT_NAME = "repro-plan-cache"

#: bump when the *document* layout changes incompatibly (independent of
#: KEY_VERSION, which tracks the key/recipe semantics themselves)
FORMAT_VERSION = 2


class CachePersistenceWarning(UserWarning):
    """A cache file could not be (fully) used; serving continues cold."""


def _warn(message: str) -> None:
    warnings.warn(message, CachePersistenceWarning, stacklevel=3)


def _entries(count: int) -> str:
    return f"{count} entr{'y' if count == 1 else 'ies'}"


def warn_unpersistable(count: int, where: str) -> None:
    """Warn that ``count`` entries were kept out of ``where``."""
    _warn(
        f"{where} leaves out {_entries(count)} whose plan floats are "
        "not finite (they cannot round-trip); they stay in memory only"
    )


def warn_checksum_failures(count: int, where: str) -> None:
    """Warn that ``count`` entries failed checksum verification."""
    _warn(
        f"{where} dropped {_entries(count)} whose checksum does not "
        "match (corrupt key or recipe); those queries are recomputed"
    )


# -- serialization -----------------------------------------------------------


def entry_checksum(key_repr: str, recipe_repr: str) -> str:
    """Hex digest binding a persisted recipe text to its key text."""
    payload = f"{key_repr}\n{recipe_repr}".encode("utf-8")
    return hashlib.blake2b(payload, digest_size=16).hexdigest()


def round_trips(value: Any) -> bool:
    """True when ``repr(value)`` parses back with ``ast.literal_eval``.

    Keys and recipes are nested tuples of ints, floats and strings;
    only a non-finite float (``inf``, ``nan``) breaks the round-trip.
    """
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, tuple):
        return all(round_trips(item) for item in value)
    return True


def serialize_entry(
    key: Any, recipe: Any
) -> "Optional[tuple[str, str, str]]":
    """``(key repr, recipe repr, checksum)`` for one persisted entry.

    ``None`` when the entry cannot round-trip (a non-finite float); the
    caller counts it and warns, and the entry stays in memory only.
    """
    if not (round_trips(recipe) and round_trips(key)):
        return None
    key_repr = repr(key)
    recipe_repr = repr(recipe)
    return key_repr, recipe_repr, entry_checksum(key_repr, recipe_repr)


def dump_document(cache: PlanCache) -> dict:
    """Snapshot ``cache`` as a plain-dict document (JSON-serializable).

    Entries are emitted LRU-first with their epoch stamps; the
    document-level ``epoch`` is the cache's current one, so a loader
    can tell which entries were already stale at save time.  The
    document also records the cache's ``mutations`` counter, captured
    atomically with the entries
    (:meth:`~repro.cache.plan_cache.PlanCache.snapshot_state`).
    Entries that cannot round-trip are left out with a warning.
    """
    snapshot, epoch, mutations = cache.snapshot_state()
    entries = []
    unpersistable = 0
    for key, entry in snapshot:
        serialized = serialize_entry(key, entry.recipe)
        if serialized is None:
            unpersistable += 1
            continue
        key_repr, recipe_repr, checksum = serialized
        entries.append({
            "key": key_repr,
            "recipe": recipe_repr,
            "checksum": checksum,
            "epoch": entry.epoch,
            "structure": entry.structure,
            "cost": entry.cost,
        })
    if unpersistable:
        warn_unpersistable(unpersistable, "plan-cache document")
    return {
        "format": FORMAT_NAME,
        "format_version": FORMAT_VERSION,
        "key_version": KEY_VERSION,
        "epoch": epoch,
        "mutations": mutations,
        "capacity": cache.capacity,
        "entries": entries,
    }


def save_document(document: dict, path: str) -> int:
    """Atomically write a :func:`dump_document` snapshot to ``path``.

    Returns the number of entries written.  The document is written to
    a temp file in the destination directory and moved into place with
    :func:`os.replace`, so readers never observe a half-written file.

    Entries whose keys are **process-scoped** (identity-keyed cost
    models, replaced solver registrations — see
    :mod:`repro.core.identity`) are excluded: their tokens mean
    nothing in another process lifetime, and a token-counter collision
    after a restart could serve a plan computed under a different cost
    function or solver.  They keep working in-memory; they simply die
    with the process.

    Split from :func:`save` so documents that do not come from a live
    cache (:meth:`~repro.cache.store.PlanStore.export_document`) can be
    written too.
    """
    document = dict(document)
    document["entries"] = [
        entry for entry in document["entries"]
        if not is_process_scoped(entry["key"])
    ]
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    handle = tempfile.NamedTemporaryFile(
        "w", dir=directory, prefix=".plan-cache-", suffix=".tmp",
        delete=False,
    )
    try:
        with handle:
            json.dump(document, handle, indent=1)
            handle.write("\n")
        os.replace(handle.name, path)
    except BaseException:
        try:
            os.unlink(handle.name)
        except OSError:
            pass
        raise
    return len(document["entries"])


def save(cache: PlanCache, path: str) -> int:
    """Snapshot ``cache`` and atomically write it; return entry count.

    Thin wrapper over :func:`dump_document` + :func:`save_document`.
    """
    return save_document(dump_document(cache), path)


# -- deserialization ---------------------------------------------------------


def parse_entry(
    key_repr: Any, recipe_repr: Any, checksum: Any
) -> "tuple[str, Any, Any]":
    """Parse one persisted entry by the rules every loader shares.

    Returns ``(verdict, key, recipe)``; ``key`` and ``recipe`` are
    ``None`` unless ``verdict`` is ``"ok"``.  The other verdicts, in
    the order they are checked: ``"scoped"`` — a process-scoped key,
    whose identity tokens mean nothing in this lifetime; ``"skipped"``
    — text that is not a literal (parsed with :func:`ast.literal_eval`
    only, never pickle), or a key that is not a non-empty tuple opening
    with :data:`KEY_VERSION`; ``"corrupt"`` — ``checksum`` is not the
    :func:`entry_checksum` of the key and recipe text.  Callers keep
    their own counters and warnings.
    """
    try:
        if is_process_scoped(key_repr):
            return "scoped", None, None
        key = ast.literal_eval(key_repr)
        recipe = ast.literal_eval(recipe_repr)
    except (TypeError, ValueError, SyntaxError, MemoryError,
            RecursionError):
        return "skipped", None, None
    if not isinstance(key, tuple) or not key or key[0] != KEY_VERSION:
        return "skipped", None, None
    if checksum != entry_checksum(key_repr, recipe_repr):
        return "corrupt", None, None
    return "ok", key, recipe


def _parse_strict(document: Any, capacity: Optional[int]) -> PlanCache:
    """Rebuild a cache from a document; raise ``ValueError`` on trouble.

    Per-entry problems (unparsable repr, wrong embedded key version,
    stale epoch stamp) skip the entry; document-level problems (wrong
    format marker, format version, or key version) reject the file.
    Process-scoped keys are dropped silently: another lifetime's
    identity tokens can never match and must never be probed.
    """
    if not isinstance(document, dict):
        raise ValueError("cache document is not a JSON object")
    if document.get("format") != FORMAT_NAME:
        raise ValueError(
            f"not a plan-cache file (format={document.get('format')!r})"
        )
    if document.get("format_version") != FORMAT_VERSION:
        raise ValueError(
            f"cache file format_version {document.get('format_version')!r} "
            f"!= supported {FORMAT_VERSION}"
        )
    if document.get("key_version") != KEY_VERSION:
        raise ValueError(
            f"cache file key_version {document.get('key_version')!r} != "
            f"current {KEY_VERSION}; entries from other key semantics "
            "must never be served"
        )
    saved_epoch = document.get("epoch", 0)
    if capacity is None:
        try:
            capacity = int(document.get("capacity") or 0) or None
        except (TypeError, ValueError):
            raise ValueError(
                f"cache file capacity {document.get('capacity')!r} is not "
                "an integer"
            ) from None
    cache = PlanCache(capacity) if capacity else PlanCache()
    raw_entries = document.get("entries", [])
    if not isinstance(raw_entries, list):
        raise ValueError("cache file 'entries' is not a list")
    items = []
    skipped = 0
    corrupt = 0
    for raw in raw_entries:
        try:
            if raw["epoch"] != saved_epoch:
                skipped += 1  # stale at save time: statistics moved on
                continue
            verdict, key, recipe = parse_entry(
                raw["key"], raw["recipe"], raw.get("checksum")
            )
            structure = raw.get("structure")
            cost = raw.get("cost")
        except (KeyError, TypeError):
            skipped += 1
            continue
        if verdict == "ok":
            items.append((key, recipe, structure, cost))
        elif verdict == "corrupt":
            corrupt += 1
        elif verdict == "skipped":
            skipped += 1
        # "scoped": possibly another lifetime's identity tokens, dropped
        # without a warning (save() filters them, so these only occur
        # in foreign files or unsaved dump_document()s)
    if skipped:
        _warn(
            f"plan-cache load skipped {skipped} stale or unparsable "
            f"entr{'y' if skipped == 1 else 'ies'}"
        )
    if corrupt:
        warn_checksum_failures(corrupt, "plan-cache load")
    cache.absorb(items)
    return cache


def restore_document(
    document: Any, capacity: Optional[int] = None
) -> PlanCache:
    """Lenient :func:`_parse_strict`: warn and return a cold cache.

    The in-memory counterpart of :func:`load`, for documents that did
    not come from a file (e.g. :meth:`~repro.cache.store.PlanStore.
    import_document`).  The same rules apply: process-scoped keys from
    another lifetime are dropped.
    """
    try:
        return _parse_strict(document, capacity)
    except ValueError as exc:
        _warn(f"ignoring plan-cache document: {exc}")
        return PlanCache(capacity) if capacity else PlanCache()


def load(
    path: str,
    capacity: Optional[int] = None,
    missing_ok: bool = True,
) -> PlanCache:
    """Load a cache from ``path``; degrade to a cold cache on trouble.

    Args:
        path: file written by :func:`save`.
        capacity: LRU capacity of the rebuilt cache (default: the
            capacity recorded in the file).
        missing_ok: a nonexistent path is a silent cold start; with
            ``False`` it warns like any other failure.

    Never raises on bad input: corrupt JSON, foreign files, stale
    ``format_version``/``key_version``, or unreadable entries produce
    a :class:`CachePersistenceWarning` and a cold (or partial) cache.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except FileNotFoundError:
        if not missing_ok:
            _warn(f"plan-cache file {path!r} does not exist; starting cold")
        return PlanCache(capacity) if capacity else PlanCache()
    except (OSError, ValueError, UnicodeDecodeError,
            RecursionError, MemoryError) as exc:
        # RecursionError/MemoryError: pathologically nested or huge
        # JSON — corruption class, same cold-start policy
        _warn(f"ignoring unreadable plan-cache file {path!r}: {exc}")
        return PlanCache(capacity) if capacity else PlanCache()
    try:
        return _parse_strict(document, capacity)
    except ValueError as exc:
        _warn(f"ignoring plan-cache file {path!r}: {exc}")
        return PlanCache(capacity) if capacity else PlanCache()
