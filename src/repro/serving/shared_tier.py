"""Shared-memory hot-plan tier: zero-IPC recipe rows for pool workers.

The delta protocol (:mod:`repro.serving.sync`) keeps workers warm, but
every delta is captured when a task *ships* — a plan absorbed into the
parent cache after that moment reaches the worker only with the next
task.  Under concurrent duplicate misses (two clients racing on the
same cold structure) the second worker re-enumerates a plan the parent
already holds.  This module closes that window: the parent publishes
the hottest recipe rows into one ``multiprocessing.shared_memory``
segment, and workers re-read it at task start — a memory read, no
socket, no pickle, no parent round-trip.

Format discipline mirrors the persistence layer exactly:

* rows are the same ``(mutation_id, key, recipe, structure, cost)``
  tuples :meth:`~repro.cache.plan_cache.PlanCache.sync_since` ships,
  serialized as **``repr`` text** and parsed back with
  :func:`ast.literal_eval` — never pickle (the ``no-pickle`` analysis
  gate covers this module like every other ``serving/`` module);
* the payload is a sequence of *length-prefixed records*, one row
  each, with the row's ``mutation_id`` in the fixed prefix — so a
  reader that has already absorbed up to cursor ``c`` skips old
  records with two integer reads and parses only the new ones
  (parsing the whole tier at every task would cost more than the
  computations it saves), and the publisher caches each row's encoded
  record, making a republish a byte join instead of an O(rows)
  ``repr``;
* the header stamps :data:`~repro.cache.keys.KEY_VERSION` and the
  publishing epoch, so a reader from different key semantics or a
  stale statistics epoch absorbs nothing;
* process-scoped keys (:func:`~repro.core.identity.is_process_scoped`)
  are never published.

Torn-read safety is a **seqlock**: the header carries a generation
counter that the writer makes *odd* before touching the payload and
*even* (+2) after.  A reader samples the generation, copies the
payload, samples again — a mismatch or an odd value means the writer
was mid-publish, and the reader retries or simply skips this round
(the tier is an accelerator; missing one publish costs a delta-warmed
computation, never correctness).
"""

from __future__ import annotations

import ast
import struct
import threading
from collections import OrderedDict
from multiprocessing import shared_memory
from typing import Any, Optional

from ..cache.keys import KEY_VERSION
from ..cache.persist import round_trips
from ..cache.plan_cache import CacheDelta, PlanCache
from ..core.identity import is_process_scoped

#: layout: magic, key version, generation (seqlock), epoch, body length
_HEADER = struct.Struct(">8sQQQQ")
_MAGIC = b"RPTIER01"
_GEN = struct.Struct(">Q")
#: byte offsets of the mutable header fields
_GEN_OFFSET = 16
_EPOCH_OFFSET = 24
_LENGTH_OFFSET = 32

#: per-record prefix: the row's mutation_id, then its repr byte length
_ROW = struct.Struct(">QI")

#: header size in bytes (the payload starts here)
TIER_HEADER_BYTES = _HEADER.size

#: default segment size — roughly a few thousand recipe rows
DEFAULT_TIER_BYTES = 1 << 20

#: cap on the bootstrap publish of an already-warm cache
DEFAULT_BOOTSTRAP_ENTRIES = 256

#: one published row: ``(mutation_id, key, recipe, structure, cost)``
TierRow = "tuple[int, Any, Any, Optional[str], Optional[float]]"


class HotTierPublisher:
    """Parent-side writer of the shared hot-plan segment.

    Owns the segment (creates it, unlinks it on :meth:`close`) and an
    LRU row set fed by :meth:`publish_from` — the same
    ``sync_since``-cursor arithmetic every other delta consumer uses.
    When the serialized rows outgrow the segment, the *least recently
    published* rows are trimmed first, so the tier degrades to exactly
    its name: the hottest plans.

    Thread-safety: all mutation happens under ``self._lock`` (the
    ``lock-discipline`` analysis gate enforces this lexically); the
    server calls it from the event loop, tests from anywhere.
    """

    def __init__(
        self,
        capacity_bytes: int = DEFAULT_TIER_BYTES,
        bootstrap_entries: int = DEFAULT_BOOTSTRAP_ENTRIES,
        name: Optional[str] = None,
    ) -> None:
        if capacity_bytes <= TIER_HEADER_BYTES + 2:
            raise ValueError(
                f"capacity_bytes must exceed the {TIER_HEADER_BYTES}-byte "
                "header"
            )
        if bootstrap_entries < 1:
            raise ValueError("bootstrap_entries must be at least 1")
        self.capacity_bytes = capacity_bytes
        self.bootstrap_entries = bootstrap_entries
        self._lock = threading.Lock()
        self._shm = shared_memory.SharedMemory(
            create=True, size=capacity_bytes, name=name
        )
        #: key -> encoded record (prefix + repr bytes); publishing is a
        #: join of these, never a re-repr of the whole row set
        self._rows: "OrderedDict[Any, bytes]" = OrderedDict()
        self._total_bytes = 0
        self._generation = 0
        self._epoch = 0
        self._cursor = 0
        self.publishes = 0
        self.rows_published = 0
        self.rows_trimmed = 0
        self.rows_skipped = 0
        self.bytes_published = 0
        buf = self._shm.buf
        _HEADER.pack_into(buf, 0, _MAGIC, KEY_VERSION, 0, 0, 0)

    @property
    def name(self) -> str:
        """Segment name readers attach by (ships in pool initargs)."""
        return self._shm.name

    # -- publishing -------------------------------------------------------

    def publish_from(self, cache: PlanCache) -> int:
        """Fold the cache's changes since the last publish into the tier.

        The first call against a warm cache is capped by
        :meth:`~repro.cache.plan_cache.PlanCache.hot_delta` (the
        ``bootstrap_entries`` most recently used rows); afterwards each
        call consumes the ``sync_since`` delta — O(what changed).
        Returns the number of rows now resident in the segment.

        The cursor read here is lock-free (the counter contract:
        written under the lock, read without); two concurrent callers
        can at worst capture overlapping deltas, and folding a row
        twice is an idempotent upsert.
        """
        cursor = self._cursor
        if cursor == 0:
            delta = cache.hot_delta(self.bootstrap_entries)
        else:
            delta = cache.sync_since(cursor)
        if delta.empty and delta.epoch == self._epoch:
            return self.rows_published
        return self.publish_delta(delta)

    def publish_delta(self, delta: CacheDelta) -> int:
        """Fold one delta into the row set and republish the segment."""
        with self._lock:
            if delta.epoch != self._epoch:
                # statistics moved: every published row is stale by the
                # same rule sync_since applies — start the set over
                self._rows.clear()
                self._total_bytes = 0
                self._epoch = delta.epoch
            for row in delta.entries:
                mutation_id, key = row[0], row[1]
                if is_process_scoped(repr(key)) or not round_trips(row):
                    # process-scoped keys mean nothing to a reader; a
                    # non-finite float would fail the reader's
                    # literal_eval and void the whole snapshot
                    self.rows_skipped += 1
                    continue
                body = repr(tuple(row)).encode("utf-8")
                record = _ROW.pack(mutation_id, len(body)) + body
                stale = self._rows.pop(key, None)
                if stale is not None:
                    self._total_bytes -= len(stale)
                self._rows[key] = record
                self._total_bytes += len(record)
            self._cursor = max(self._cursor, delta.now)
            # trim the least recently published rows until the records
            # fit the segment
            budget = self.capacity_bytes - TIER_HEADER_BYTES
            while self._total_bytes > budget and self._rows:
                _key, dropped = self._rows.popitem(last=False)
                self._total_bytes -= len(dropped)
                self.rows_trimmed += 1
            body = b"".join(self._rows.values())
            # seqlock publish: odd generation while the payload is
            # dirty, +2 (even) once header and payload are consistent
            buf = self._shm.buf
            generation = self._generation + 1
            _GEN.pack_into(buf, _GEN_OFFSET, generation)
            buf[TIER_HEADER_BYTES:TIER_HEADER_BYTES + len(body)] = body
            _GEN.pack_into(buf, _EPOCH_OFFSET, self._epoch)
            _GEN.pack_into(buf, _LENGTH_OFFSET, len(body))
            generation += 1
            _GEN.pack_into(buf, _GEN_OFFSET, generation)
            self._generation = generation
            self.publishes += 1
            self.rows_published = len(self._rows)
            self.bytes_published = len(body)
            return len(self._rows)

    # -- introspection / lifecycle ----------------------------------------

    def counters(self) -> "dict[str, Any]":
        return {
            "name": self._shm.name,
            "capacity_bytes": self.capacity_bytes,
            "generation": self._generation,
            "epoch": self._epoch,
            "publishes": self.publishes,
            "rows_published": self.rows_published,
            "rows_trimmed": self.rows_trimmed,
            "rows_skipped": self.rows_skipped,
            "bytes_published": self.bytes_published,
        }

    def close(self, unlink: bool = True) -> None:
        """Release the segment; ``unlink`` destroys it for everyone."""
        with self._lock:
            try:
                self._shm.close()
            except (OSError, BufferError):
                pass
            if unlink:
                try:
                    self._shm.unlink()
                except (FileNotFoundError, OSError):
                    pass


class HotTierReader:
    """Worker-side reader of the shared hot-plan segment.

    Attaches lazily (the segment name travels in the pool initargs,
    the mapping happens on first use) and exposes two operations:
    :meth:`generation` — one 8-byte header read, cheap enough to poll
    at every task — and :meth:`snapshot`, the seqlock-guarded payload
    copy.  Every failure mode (segment gone, foreign magic, key-version
    skew, torn read, unparsable payload) degrades to ``None``: the
    worker computes as if the tier did not exist.

    Single-threaded by design (one reader per worker process), so no
    lock; counters are plain ints.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._shm: Optional[shared_memory.SharedMemory] = None
        self._attach_failed = False
        self.reads = 0
        self.torn_reads = 0
        self.parse_failures = 0
        self.rejected = 0

    def _attach(self) -> Optional[shared_memory.SharedMemory]:
        if self._shm is not None:
            return self._shm
        if self._attach_failed:
            return None
        try:
            # attaching re-registers the name with the resource
            # tracker; pool workers are forked, so that tracker is the
            # parent's and the re-registration is a set-add no-op — the
            # one unregister happens at the publisher's unlink
            shm = shared_memory.SharedMemory(name=self.name)
        except (FileNotFoundError, OSError, ValueError):
            self._attach_failed = True
            return None
        magic, key_version, _gen, _epoch, _length = _HEADER.unpack_from(
            shm.buf, 0
        )
        if magic != _MAGIC or key_version != KEY_VERSION:
            # foreign segment or different key semantics: never absorb
            self.rejected += 1
            self._attach_failed = True
            try:
                shm.close()
            except (OSError, BufferError):
                pass
            return None
        self._shm = shm
        return shm

    def generation(self) -> Optional[int]:
        """Current seqlock generation; ``None`` when unattachable."""
        shm = self._attach()
        if shm is None:
            return None
        return _GEN.unpack_from(shm.buf, _GEN_OFFSET)[0]

    def snapshot(
        self, since: int = 0, retries: int = 4
    ) -> "Optional[tuple[int, int, tuple[Any, ...]]]":
        """Consistent ``(generation, epoch, rows)`` copy, or ``None``.

        The seqlock read: sample the generation, copy the payload,
        sample again.  An odd first sample or a mismatch means the
        publisher was mid-write; retry up to ``retries`` times, then
        give up for this round (counted in ``torn_reads``).

        ``rows`` contains only records with ``mutation_id > since`` —
        record prefixes make skipping an already-absorbed row two
        integer reads, so a steady-state refresh parses just the
        handful of rows that are actually new to this reader.
        """
        shm = self._attach()
        if shm is None:
            return None
        buf = shm.buf
        for _attempt in range(max(1, retries)):
            before = _GEN.unpack_from(buf, _GEN_OFFSET)[0]
            if before % 2:
                self.torn_reads += 1
                continue
            epoch = _GEN.unpack_from(buf, _EPOCH_OFFSET)[0]
            length = _GEN.unpack_from(buf, _LENGTH_OFFSET)[0]
            if length > len(buf) - TIER_HEADER_BYTES:
                self.torn_reads += 1
                continue
            body = bytes(buf[TIER_HEADER_BYTES:TIER_HEADER_BYTES + length])
            after = _GEN.unpack_from(buf, _GEN_OFFSET)[0]
            if before != after:
                self.torn_reads += 1
                continue
            self.reads += 1
            rows = self._parse_records(body, since)
            if rows is None:
                return None
            return before, epoch, rows
        return None

    def _parse_records(
        self, body: bytes, since: int
    ) -> "Optional[tuple[Any, ...]]":
        """Walk the record stream, decoding rows newer than ``since``."""
        rows: "list[Any]" = []
        offset = 0
        try:
            while offset < len(body):
                mutation_id, length = _ROW.unpack_from(body, offset)
                offset += _ROW.size
                if offset + length > len(body):
                    raise ValueError("record overruns the payload")
                if mutation_id > since:
                    row = ast.literal_eval(
                        body[offset:offset + length].decode("utf-8")
                    )
                    if not isinstance(row, tuple):
                        raise ValueError("record is not a row tuple")
                    rows.append(row)
                offset += length
        except (TypeError, ValueError, SyntaxError, MemoryError,
                RecursionError, UnicodeDecodeError, struct.error):
            self.parse_failures += 1
            return None
        return tuple(rows)

    def counters(self) -> "dict[str, int]":
        return {
            "reads": self.reads,
            "torn_reads": self.torn_reads,
            "parse_failures": self.parse_failures,
            "rejected": self.rejected,
        }

    def close(self) -> None:
        shm = self._shm
        self._shm = None
        if shm is not None:
            try:
                shm.close()
            except (OSError, BufferError):
                pass
