"""Worker-process side of the serving daemon's persistent pool.

Module-level functions (they must pickle by reference under every
multiprocessing start method) plus the per-process state they share.
Unlike the batch backend in :mod:`repro.optimizer` — whose stateless
workers hold no cache and die with the batch — serving workers live
for the daemon's lifetime and are kept warm **incrementally**:
every task carries a :class:`~repro.cache.plan_cache.CacheDelta` (the
entries written to the parent cache since the pool's sync floor), and
the worker absorbs only what is newer than its own cursor.

Epoch handling: a delta whose ``epoch`` differs from the last one this
worker saw means the parent's statistics moved (``bump-epoch`` op).
The worker bumps its local cache first, so everything it absorbed
earlier turns stale exactly like the parent's entries did, then
absorbs the delta's entries fresh — they were fresh at the parent's
new epoch by :meth:`~repro.cache.plan_cache.PlanCache.sync_since`'s
contract.

Namespaces: the key-space isolation lives in
``OptimizerConfig.cache_namespace`` (folded into every cache key), so
one process-local cache serves all namespaces; the worker just keeps
one ``Optimizer`` per namespace so each request is keyed under the
right one.
"""

from __future__ import annotations

import os
import socket
from dataclasses import replace
from typing import Any, Optional

from ..cache.plan_cache import PlanCache
from ..cache.recipe import plan_recipe
from ..registry import restore_registrations
from .protocol import wire_to_spec

#: per-worker-process state, populated by :func:`serving_worker_init`
_SERVING_STATE: "dict[str, Any]" = {}


def _close_inherited_inet_sockets() -> None:
    """Drop the parent's TCP file descriptors from this worker.

    Under the ``fork`` start method a worker inherits every open fd of
    the daemon — including the *listening* socket and any accepted
    client connections alive at fork time.  Workers never serve those
    fds, but holding them has real consequences: the kernel keeps
    accepting connections on the daemon's port after the parent closed
    the listener (shutdown looks incomplete to clients), and a client
    waiting for EOF never sees the FIN until the worker exits.
    Multiprocessing's own control channels are pipes and unix-domain
    sockets, so closing only the inet families is always safe; under
    ``spawn``/``forkserver`` nothing is inherited and this is a no-op.
    """
    try:
        fd_names = os.listdir("/proc/self/fd")
    except OSError:  # pragma: no cover - non-procfs platform
        return
    for name in fd_names:
        try:
            sock = socket.socket(fileno=int(name))
        except (OSError, ValueError):
            continue  # not a socket (or already gone)
        if sock.family in (socket.AF_INET, socket.AF_INET6):
            sock.close()
        else:
            sock.detach()  # release ownership without closing


def serving_worker_init(
    config: Any, registrations: list, tier_name: Optional[str] = None
) -> None:
    """Pool initializer: one optimizer home + cold cache per worker.

    ``config`` is the daemon's base :class:`~repro.optimizer.
    OptimizerConfig`; persistence and autosave are stripped — the
    parent owns the cache file, workers must never touch it.  Custom
    solver registrations are restored before any config validation
    resolves algorithm names.  ``tier_name`` is the parent's
    shared-memory hot-plan segment (:mod:`repro.serving.shared_tier`);
    the reader attaches lazily, and every tier failure degrades to
    computing without it.
    """
    from .shared_tier import HotTierReader  # local: import cycle

    _close_inherited_inet_sockets()
    restore_registrations(registrations)
    base = replace(
        config, cache_path=None, cache_autosave=False, cache="on"
    )
    _SERVING_STATE["config"] = base
    _SERVING_STATE["cache"] = PlanCache(base.cache_size)
    _SERVING_STATE["optimizers"] = {}
    _SERVING_STATE["synced_to"] = 0
    _SERVING_STATE["parent_epoch"] = 0
    _SERVING_STATE["tier"] = (
        HotTierReader(tier_name) if tier_name is not None else None
    )
    #: seqlock generation of the last absorbed tier snapshot
    _SERVING_STATE["tier_generation"] = -1
    #: highest tier mutation_id absorbed — a *separate* cursor from
    #: ``synced_to``: the tier is partial coverage (hottest rows only),
    #: so it must never trim the shipped delta
    _SERVING_STATE["tier_cursor"] = 0
    #: keys this worker absorbed from the tier (hit attribution)
    _SERVING_STATE["tier_keys"] = set()
    _SERVING_STATE["tier_counters"] = {
        "tier_hits": 0,
        "tier_rows_absorbed": 0,
        "tier_refreshes": 0,
        "tier_epoch_skips": 0,
    }


def _apply_delta(delta: "dict[str, Any]") -> None:
    """Absorb the parent's delta, filtered by this worker's cursor."""
    cache: PlanCache = _SERVING_STATE["cache"]
    synced_to: int = _SERVING_STATE["synced_to"]
    if delta["epoch"] != _SERVING_STATE["parent_epoch"]:
        # parent statistics moved: stale-ify everything local first
        cache.bump_epoch()
        _SERVING_STATE["parent_epoch"] = delta["epoch"]
    fresh = [
        (key, recipe, structure, cost)
        for mutation_id, key, recipe, structure, cost in delta["entries"]
        if mutation_id > synced_to
    ]
    if fresh:
        cache.absorb(fresh)
    if delta["now"] > synced_to:
        _SERVING_STATE["synced_to"] = delta["now"]


def _refresh_from_tier() -> None:
    """Absorb new shared-tier rows into this worker's local cache.

    Runs *after* :func:`_apply_delta` so the worker's ``parent_epoch``
    is current: a tier published at a different epoch (the parent
    bumped statistics between the task shipping and running, or the
    segment lags) is skipped entirely rather than resurrecting stale
    plans.  The generation check makes the common case — nothing
    published since last task — one 8-byte shared-memory read.

    Rows are filtered by a tier-local cursor, **not** by ``synced_to``:
    the tier can legitimately carry rows *newer* than the shipped
    delta (that freshness is its whole point — a sibling worker's
    result absorbed after this task was queued), and absorbing a row
    the next delta will ship again is an idempotent upsert.
    """
    reader = _SERVING_STATE.get("tier")
    if reader is None:
        return
    generation = reader.generation()
    if generation is None or generation % 2:
        return
    if generation == _SERVING_STATE["tier_generation"]:
        return
    # record prefixes let the reader skip already-absorbed rows
    # without parsing them — steady state decodes only what's new
    snapshot = reader.snapshot(since=_SERVING_STATE["tier_cursor"])
    if snapshot is None:
        return
    counters: "dict[str, int]" = _SERVING_STATE["tier_counters"]
    counters["tier_refreshes"] += 1
    snap_generation, epoch, rows = snapshot
    if epoch != _SERVING_STATE["parent_epoch"]:
        # do not record the generation: retry once the epochs agree
        counters["tier_epoch_skips"] += 1
        return
    cache: PlanCache = _SERVING_STATE["cache"]
    cursor: int = _SERVING_STATE["tier_cursor"]
    tier_keys: set = _SERVING_STATE["tier_keys"]
    fresh = []
    for row in rows:
        if not isinstance(row, tuple) or len(row) != 5:
            continue
        mutation_id, key, recipe, structure, cost = row
        if not isinstance(mutation_id, int) or mutation_id <= cursor:
            continue
        fresh.append((key, recipe, structure, cost))
        tier_keys.add(key)
        cursor = max(cursor, mutation_id)
    if fresh:
        cache.absorb(fresh)
        counters["tier_rows_absorbed"] += len(fresh)
    _SERVING_STATE["tier_cursor"] = cursor
    _SERVING_STATE["tier_generation"] = snap_generation


def _optimizer_for(namespace: Optional[str]) -> Any:
    """The per-namespace Optimizer, all sharing this worker's cache."""
    from ..optimizer import Optimizer  # local: import cycle

    optimizers: dict = _SERVING_STATE["optimizers"]
    if namespace not in optimizers:
        config = _SERVING_STATE["config"]
        if namespace is not None:
            config = replace(config, cache_namespace=namespace)
        optimizers[namespace] = Optimizer(
            config, plan_cache=_SERVING_STATE["cache"]
        )
    return optimizers[namespace]


def serving_worker_run(task: "dict[str, Any]") -> "dict[str, Any]":
    """Optimize one request in this worker; return a portable payload.

    Like the batch backend, the payload is not a plan but the join
    tree as an identity-space recipe the parent replays through the
    requesting query's own builder — plus this worker's pid and
    synced-to cursor, which the parent's
    :class:`~repro.serving.sync.DeltaTracker` folds into the pool's
    sync floor.
    """
    _apply_delta(task["delta"])
    _refresh_from_tier()
    spec = wire_to_spec(task["query"])
    optimizer = _optimizer_for(task.get("namespace"))
    cache: PlanCache = _SERVING_STATE["cache"]
    counters: "dict[str, int]" = _SERVING_STATE["tier_counters"]
    # probe before computing: a row the tier just delivered (or any
    # earlier task warmed) is served by replay, skipping enumeration
    ctx, served = optimizer._probe_for_process_batch(spec, cache)
    if served is not None:
        result = served
        if (
            ctx.key_info is not None
            and ctx.key_info.key in _SERVING_STATE["tier_keys"]
        ):
            counters["tier_hits"] += 1
    else:
        result = optimizer._run_pipeline(spec, None, None, cache)
    payload: "dict[str, Any]" = {
        "pid": os.getpid(),
        "synced_to": _SERVING_STATE["synced_to"],
        "stats": result.stats.as_dict(),
        "tier": dict(counters),
    }
    reader = _SERVING_STATE.get("tier")
    if reader is not None:
        payload["tier"].update(reader.counters())
    if result.plan is None or result.graph is None:
        payload["recipe"] = None
    else:
        identity = tuple(range(result.graph.n_nodes))
        payload["recipe"] = plan_recipe(result.plan, identity)
    return payload


def serving_worker_kill() -> None:
    """Debug op: die without cleanup, as a crashed worker would.

    ``os._exit`` skips every handler and atexit hook — the pool sees
    an abrupt worker death, exactly what the failure-path tests need
    to provoke ``BrokenProcessPool`` deterministically.
    """
    os._exit(1)
