"""Concurrent multi-process access to one plan-store file.

N writer processes and M reader processes share a single SQLite store.
WAL mode plus ``busy_timeout`` and single-writer ``BEGIN IMMEDIATE``
transactions must deliver:

* **no lost mutations** — after the dust settles, the store contains
  every entry each writer committed (each writer's full key range);
* **no lock escapes** — no worker ever sees ``database is locked`` (or
  any other exception) surface out of the store API;
* **byte-identical plans** — every recipe read back compares equal,
  via ``repr``, to what its writer put in.

Workers are module-level functions (multiprocessing 'fork'/'spawn'
portability) and report through a queue; any exception in a worker is
shipped back and fails the test.
"""

from __future__ import annotations

import multiprocessing
import time
import traceback

from repro.cache import KEY_VERSION, PlanCache, PlanStore

WRITERS = 3
READERS = 2
ROUNDS = 25
CAPACITY = 1024


def _writer_key(writer: int, i: int):
    return (KEY_VERSION, f"writer-{writer}-{i}", ("auto", "hyperedges", ("m", "q"), 14))


def _writer_recipe(writer: int, i: int):
    return (writer * 1000 + i, (writer, i))


def _writer_proc(path, writer, rounds, queue):
    """Add one entry per round, syncing after every addition."""
    try:
        store = PlanStore(path, busy_timeout=30.0)
        cache = PlanCache(CAPACITY)
        committed = 0
        for i in range(rounds):
            cache.store(
                _writer_key(writer, i),
                _writer_recipe(writer, i),
                structure=f"w{writer}",
                cost=float(i),
            )
            committed += store.sync_from(cache)
        failed = store.failed_syncs
        store.close()
        queue.put(("writer", writer, committed, failed, None))
    except BaseException:  # pragma: no cover - shipped to the assert
        queue.put(("writer", writer, 0, 0, traceback.format_exc()))


def _reader_proc(path, reader, deadline, queue):
    """Open-load-validate in a loop while the writers churn."""
    try:
        loads = 0
        while time.time() < deadline:
            store = PlanStore(path, busy_timeout=30.0)
            cache = store.load(capacity=CAPACITY)
            for key, entry in cache.snapshot_entries():
                # every visible entry is a committed writer entry with
                # the exact recipe its writer produced
                assert isinstance(key, tuple) and key[0] == KEY_VERSION
                tag = key[1]
                assert tag.startswith("writer-"), tag
                _, w, i = tag.split("-")
                expected = _writer_recipe(int(w), int(i))
                assert repr(entry.recipe) == repr(expected), (
                    f"mangled recipe for {tag}: "
                    f"{entry.recipe!r} != {expected!r}"
                )
            store.close()
            loads += 1
        queue.put(("reader", reader, loads, 0, None))
    except BaseException:  # pragma: no cover - shipped to the assert
        queue.put(("reader", reader, 0, 0, traceback.format_exc()))


def _run_herd(path):
    ctx = multiprocessing.get_context("fork")
    queue = ctx.Queue()
    deadline = time.time() + 3.0
    procs = [
        ctx.Process(
            target=_writer_proc, args=(path, w, ROUNDS, queue)
        )
        for w in range(WRITERS)
    ] + [
        ctx.Process(
            target=_reader_proc, args=(path, r, deadline, queue)
        )
        for r in range(READERS)
    ]
    for proc in procs:
        proc.start()
    reports = [queue.get(timeout=120) for _ in procs]
    for proc in procs:
        proc.join(timeout=30)
        assert proc.exitcode == 0
    return reports


def test_writers_and_readers_share_one_store(tmp_path):
    path = str(tmp_path / "shared.sqlite")
    # pre-create so workers race on content, not on file creation
    PlanStore(path).close()

    reports = _run_herd(path)

    failures = [r[4] for r in reports if r[4] is not None]
    assert not failures, "\n\n".join(failures)

    writer_reports = [r for r in reports if r[0] == "writer"]
    reader_reports = [r for r in reports if r[0] == "reader"]
    assert len(writer_reports) == WRITERS
    assert len(reader_reports) == READERS

    # no "database is locked" escapes: every sync of every writer
    # landed (busy_timeout absorbed all contention)
    for _, writer, committed, failed, _tb in writer_reports:
        assert failed == 0, f"writer {writer} had {failed} failed syncs"
        assert committed == ROUNDS, (
            f"writer {writer} committed {committed}/{ROUNDS}"
        )
    # the readers actually exercised concurrent loads
    assert sum(r[2] for r in reader_reports) > 0

    # no lost mutations: the final store holds every committed entry
    with PlanStore(path) as store:
        final = store.load(capacity=CAPACITY)
    assert len(final) == WRITERS * ROUNDS
    for writer in range(WRITERS):
        for i in range(ROUNDS):
            entry, status = final.probe(_writer_key(writer, i))
            assert status == "hit", f"lost writer-{writer}-{i}"
            assert repr(entry.recipe) == repr(_writer_recipe(writer, i))
            assert entry.structure == f"w{writer}"


def test_same_process_thread_safety(tmp_path):
    """One store instance shared by threads (the optimizer's shape)."""
    import threading

    path = str(tmp_path / "threads.sqlite")
    store = PlanStore(path, busy_timeout=30.0)
    errors = []

    def hammer(thread_id):
        try:
            cache = PlanCache(CAPACITY)
            for i in range(20):
                cache.store(
                    (KEY_VERSION, f"t{thread_id}-{i}",
                     ("auto", "hyperedges", ("m", "q"), 14)),
                    (thread_id, (i, i)),
                )
                store.sync_from(cache)
        except BaseException:  # pragma: no cover
            errors.append(traceback.format_exc())

    threads = [
        threading.Thread(target=hammer, args=(t,)) for t in range(4)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors, "\n\n".join(errors)
    assert store.failed_syncs == 0
    # NB: each thread attaches its own cache, so the per-instance
    # cursor resets between threads and entries are re-upserted — the
    # content must still be complete and exact
    final = store.load(capacity=CAPACITY)
    store.close()
    for t in range(4):
        for i in range(20):
            entry, status = final.probe(
                (KEY_VERSION, f"t{t}-{i}", ("auto", "hyperedges", ("m", "q"), 14))
            )
            assert status == "hit"
            assert entry.recipe == (t, (i, i))
