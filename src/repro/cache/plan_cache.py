"""The plan cache: a size-bounded, epoch-aware LRU over plan recipes.

Keys come from :mod:`repro.cache.keys` (canonical annotated
fingerprint + cost-model key + config key); values are the compact
:class:`~repro.cache.recipe.PlanRecipe` join trees in canonical node
space, replayed through the requesting query's own plan builder on a
hit.  The cache never stores :class:`~repro.core.plans.Plan` objects
directly — replay is what lets one entry serve every isomorphic
relabeling of a query with correct relation names, payloads, and
statistics.

Thread-safety: all mutating operations take an internal lock, so a
single :class:`PlanCache` can back a thread-pool
``Optimizer.optimize_many`` batch (and be shared across optimizers).
The counters are plain ints updated under the lock and read without it
(reads may be momentarily out of date, never corrupt).

Pickle-safety: a :class:`PlanCache` is **not** picklable — it owns a
``threading.Lock``.  Its *contents* — keys (nested tuples of
ints/strings/floats) and recipes (nested int tuples) — cross process
boundaries as :meth:`PlanCache.sync_since` deltas (the SQLite
store) or as the JSON document of
:mod:`repro.cache.persist`; the persistence layer's
``repr``/``literal_eval`` round-trip relies on that tuple grammar.

Statistics epochs: callers that refresh their catalog statistics call
:meth:`PlanCache.bump_epoch`.  Entries written under an older epoch
are treated as *stale* on lookup: the query re-optimizes and the entry
is refreshed (counted in ``revalidations``) instead of being served.
Because the cache key already includes the statistics signature, the
epoch is a safety net for statistics sources the signature cannot see
(e.g. a mutated ``Catalog`` feeding selectivities upstream of the
hypergraph), not the primary consistency mechanism.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Optional

#: default number of entries an :class:`Optimizer`-owned cache keeps
DEFAULT_CAPACITY = 512


@dataclass
class CacheEntry:
    """One cached plan: recipe + bookkeeping."""

    recipe: Any
    epoch: int
    #: structural bucket (isomorphism-invariant digest) for targeted
    #: invalidation and introspection; not part of correctness
    structure: Optional[str] = None
    #: cost of the plan when it was first computed (diagnostics only)
    cost: Optional[float] = None
    #: value of ``PlanCache.mutations`` when this entry was written —
    #: the cursor :meth:`PlanCache.sync_since` filters on, so delta
    #: consumers (the plan store's autosave, the shared hot tier) can
    #: ask for "everything since mutation N" instead of a full snapshot
    mutation_id: int = 0


@dataclass(frozen=True)
class CacheDelta:
    """Atomic answer to "what changed since mutation ``since``?".

    Produced by :meth:`PlanCache.sync_since` under one lock
    acquisition, so ``now``, ``epoch``, and ``entries`` are a
    consistent view — a concurrent ``store()`` or ``bump_epoch()``
    lands either entirely before or entirely after this delta.

    ``entries`` holds ``(mutation_id, key, recipe, structure, cost)``
    tuples for every entry written after ``since``, in LRU order.
    Deltas are *additive*: drops (``clear``, ``invalidate_structure``,
    replay-failure evictions) advance ``now`` without shipping
    anything, which is safe for the serving layer because dropped keys
    either can no longer be probed (the statistics signature moved) or
    are refreshed through the epoch that rides along.
    """

    since: int
    now: int
    epoch: int
    entries: "tuple[tuple[int, Any, Any, Optional[str], Optional[float]], ...]"

    @property
    def empty(self) -> bool:
        """True when nothing at all changed since ``since``."""
        return self.now == self.since


class PlanCache:
    """Thread-safe LRU cache of plan recipes.

    Counters (all monotonically increasing, readable without a lock):

    * ``hits`` — lookups served from a fresh entry;
    * ``misses`` — lookups with no entry at all;
    * ``revalidations`` — lookups that found an entry from an older
      statistics epoch (the caller recomputes and refreshes);
    * ``evictions`` — entries dropped by the LRU bound;
    * ``stores`` — entries written (insert or refresh);
    * ``restored`` — entries bulk-inserted by the persistence layer
      (:meth:`absorb` — disk loads);
    * ``canonical_fallbacks`` — lookups keyed through the
      budget-exhausted index-order fallback instead of a true
      canonical labeling (see :meth:`note_canonical_fallback`).
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be at least 1")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Any, CacheEntry]" = OrderedDict()
        self._epoch = 0
        self.hits = 0
        self.misses = 0
        self.revalidations = 0
        self.evictions = 0
        self.stores = 0
        self.replay_failures = 0
        self.restored = 0
        #: lookups whose key was built from the *non-canonical*
        #: index-order fallback because canonical labeling exhausted
        #: its search budget (uniform-stats cliques are the worst
        #: case).  Such keys still dedupe exact repeats but miss
        #: isomorphic relabelings, so a high value explains a low hit
        #: rate that extra capacity cannot fix.
        self.canonical_fallbacks = 0
        #: monotone content-change counter (stores, restores, drops,
        #: epoch bumps, clears).  Pure lookups never bump it, so
        #: persistence can skip rewriting an unchanged cache: a warm
        #: serving loop autosaves only when something actually moved.
        self.mutations = 0

    # -- core operations -------------------------------------------------

    def probe(self, key: Any) -> tuple[Optional[CacheEntry], str]:
        """Look up ``key``; return ``(entry_or_None, status)``.

        ``status`` is ``"hit"`` (fresh entry, returned), ``"stale"``
        (entry from an older statistics epoch — counted as a
        revalidation; the caller recomputes and :meth:`store` refreshes
        it), or ``"miss"``.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None, "miss"
            if entry.epoch != self._epoch:
                self.revalidations += 1
                return None, "stale"
            self._entries.move_to_end(key)
            self.hits += 1
            return entry, "hit"

    def peek(self, key: Any) -> tuple[Optional[CacheEntry], str]:
        """:meth:`probe` without side effects: no counters, no LRU move.

        For speculative scheduling decisions — e.g. the process-pool
        backend peeks before shipping work to a worker so an
        already-cached query is served in the parent instead.  The
        serving path must still call :meth:`probe` so the hit is
        counted and the entry keeps its LRU position.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None, "miss"
            if entry.epoch != self._epoch:
                return None, "stale"
            return entry, "hit"

    def lookup(self, key: Any) -> Optional[CacheEntry]:
        """Return the fresh entry for ``key``, or ``None``.

        Convenience wrapper over :meth:`probe` for callers that do not
        care about the stale/miss distinction.
        """
        entry, _status = self.probe(key)
        return entry

    def store(
        self,
        key: Any,
        recipe: Any,
        structure: Optional[str] = None,
        cost: Optional[float] = None,
    ) -> None:
        """Insert or refresh an entry, evicting LRU entries if needed."""
        with self._lock:
            self.stores += 1
            self.mutations += 1
            self._entries[key] = CacheEntry(
                recipe=recipe,
                epoch=self._epoch,
                structure=structure,
                cost=cost,
                mutation_id=self.mutations,
            )
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    # -- persistence hooks ------------------------------------------------

    def snapshot_entries(self) -> list[tuple[Any, CacheEntry]]:
        """Consistent copy of the entries, LRU-first.

        Entry objects are copied, so mutating the returned list never
        touches the live cache; order is eviction order (least recently
        used first), so replaying the list through :meth:`absorb`
        preserves LRU priority.
        """
        return self.snapshot_state()[0]

    def snapshot_state(self) -> "tuple[list[tuple[Any, CacheEntry]], int, int]":
        """``(entries, epoch, mutations)`` under ONE lock acquisition.

        A document stamped with the mutation counter needs it captured
        *atomically with* the entry snapshot: reading them separately
        races a concurrent ``store()`` or :meth:`bump_epoch` and can
        stamp a counter that does not match the content.  Entries are
        copies, LRU-first, exactly as :meth:`snapshot_entries` returns
        them.
        """
        with self._lock:
            entries = [
                (
                    key,
                    CacheEntry(
                        recipe=entry.recipe,
                        epoch=entry.epoch,
                        structure=entry.structure,
                        cost=entry.cost,
                        mutation_id=entry.mutation_id,
                    ),
                )
                for key, entry in self._entries.items()
            ]
            return entries, self._epoch, self.mutations

    def sync_since(self, mutation_id: int) -> CacheDelta:
        """Atomic delta: everything written after mutation ``mutation_id``.

        One lock acquisition yields a consistent ``(now, epoch,
        entries)`` triple — the API the plan store's incremental
        autosave builds on, replacing the racy pattern
        of reading ``mutations`` and snapshotting entries in separate
        steps (a concurrent :meth:`bump_epoch` could land in between).

        ``sync_since(0)`` is a full snapshot (every fresh entry
        qualifies); ``delta.empty`` means nothing changed at all.  Note
        that a delta with no entries need *not* be empty: epoch bumps
        and drops advance ``now`` without adding entries, and consumers
        must still adopt ``now``/``epoch`` in that case.  Entries stale
        at the *current* epoch are never shipped — consumers absorb
        entries fresh at their own epoch, so shipping a stale one would
        resurrect it (the same rule the persistence loader applies).
        ``sync_since(0)`` is therefore every fresh member, LRU-first:
        the SQLite store's force syncs rewrite the store from it.

        The entries shipped are O(delta), but once anything changed,
        finding them scans every entry under the lock: O(cache size)
        per call, even for a one-entry delta.
        """
        with self._lock:
            if mutation_id >= self.mutations:
                entries: tuple = ()
            else:
                entries = tuple(
                    (
                        entry.mutation_id,
                        key,
                        entry.recipe,
                        entry.structure,
                        entry.cost,
                    )
                    for key, entry in self._entries.items()
                    if entry.mutation_id > mutation_id
                    and entry.epoch == self._epoch
                )
            return CacheDelta(
                since=mutation_id,
                now=self.mutations,
                epoch=self._epoch,
                entries=entries,
            )

    def hot_delta(self, max_entries: int) -> CacheDelta:
        """Capped bootstrap delta: the hottest fresh entries, atomically.

        Like ``sync_since(0)`` but bounded — the ``max_entries`` *most
        recently used* fresh entries, still LRU-first within the
        selection so absorbing them preserves relative priority.  The
        shared-memory hot tier uses this for its first publish against
        an already-warm cache: the segment has a byte budget, so
        shipping the full membership only to trim most of it again
        would be wasted ``repr`` work.  ``since`` is ``0`` by
        construction (this is a bootstrap, not a resumable cursor);
        consumers adopt ``now`` and continue with :meth:`sync_since`.
        """
        if max_entries < 1:
            raise ValueError("max_entries must be at least 1")
        with self._lock:
            picked: "list[tuple[int, Any, Any, Optional[str], Optional[float]]]" = []
            for key in reversed(self._entries):
                entry = self._entries[key]
                if entry.epoch != self._epoch:
                    continue
                picked.append(
                    (
                        entry.mutation_id,
                        key,
                        entry.recipe,
                        entry.structure,
                        entry.cost,
                    )
                )
                if len(picked) >= max_entries:
                    break
            picked.reverse()
            return CacheDelta(
                since=0,
                now=self.mutations,
                epoch=self._epoch,
                entries=tuple(picked),
            )

    def absorb(
        self, items: "list[tuple[Any, Any, Optional[str], Optional[float]]]"
    ) -> int:
        """Bulk-insert ``(key, recipe, structure, cost)`` restored entries.

        The persistence path: entries are inserted *fresh at the
        current epoch* (the loader already filtered stale ones) in the
        order given, trimming from the LRU end when capacity is
        exceeded — so absorbing an LRU-first snapshot keeps the most
        recently used entries.  Counted in ``restored``, not
        ``stores``/``evictions``, so serving counters stay comparable
        across a save/load cycle.  Returns the number of entries
        resident after the absorb.
        """
        with self._lock:
            for key, recipe, structure, cost in items:
                self.restored += 1
                self.mutations += 1
                self._entries[key] = CacheEntry(
                    recipe=recipe,
                    epoch=self._epoch,
                    structure=structure,
                    cost=cost,
                    mutation_id=self.mutations,
                )
                self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
            return len(self._entries)

    def note_canonical_fallback(self) -> None:
        """Count one budget-exhausted (non-canonical) key construction.

        Called by the fingerprint stage when
        :class:`~repro.cache.keys.CacheKeyInfo` reports
        ``canonical=False``; a diagnostics counter only, never part of
        correctness (the fallback key is safe, just less shareable).
        """
        with self._lock:
            self.canonical_fallbacks += 1

    def note_replay_failure(self, key: Any) -> None:
        """Reclassify a just-served hit whose recipe failed to replay.

        The optimistic ``hits`` increment from :meth:`probe` is undone
        (the query re-enumerates, so it behaves like a miss), the
        failure is counted, and the unreplayable entry is dropped so it
        cannot fail again — the recompute will store a fresh one.
        """
        with self._lock:
            self.hits -= 1
            self.misses += 1
            self.replay_failures += 1
            self._entries.pop(key, None)
            self.mutations += 1

    # -- invalidation ----------------------------------------------------

    @property
    def epoch(self) -> int:
        return self._epoch

    def bump_epoch(self) -> int:
        """Mark every current entry stale (statistics changed).

        Entries are *revalidated* lazily — the next lookup recomputes
        and refreshes them — rather than dropped, so a hot working set
        keeps its LRU position across a statistics refresh.
        """
        with self._lock:
            self._epoch += 1
            self.mutations += 1
            return self._epoch

    def invalidate_structure(self, structure: str) -> int:
        """Drop every entry recorded under one structural bucket."""
        with self._lock:
            doomed = [
                key for key, entry in self._entries.items()
                if entry.structure == structure
            ]
            for key in doomed:
                del self._entries[key]
            if doomed:
                self.mutations += 1
            return len(doomed)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.mutations += 1

    # -- introspection ---------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def structures(self) -> dict[str, int]:
        """Entry count per structural bucket (diagnostics)."""
        with self._lock:
            counts: dict[str, int] = {}
            for entry in self._entries.values():
                if entry.structure is not None:
                    counts[entry.structure] = (
                        counts.get(entry.structure, 0) + 1
                    )
            return counts

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses + self.revalidations
        return self.hits / total if total else 0.0

    def counters(self) -> dict:
        """Snapshot of the counters (JSON-friendly)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "revalidations": self.revalidations,
            "evictions": self.evictions,
            "stores": self.stores,
            "replay_failures": self.replay_failures,
            "restored": self.restored,
            "canonical_fallbacks": self.canonical_fallbacks,
            "mutations": self.mutations,
            "size": len(self._entries),
            "capacity": self.capacity,
            "epoch": self._epoch,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"PlanCache(size={len(self._entries)}/{self.capacity}, "
            f"hits={self.hits}, misses={self.misses})"
        )
