"""The plan-serving daemon: asyncio front end + persistent worker pool.

One :class:`PlanServer` owns

* a single shared :class:`~repro.cache.plan_cache.PlanCache` (loaded
  from the :class:`~repro.cache.store.PlanStore` at
  ``OptimizerConfig.cache_path`` when configured, saved back on
  shutdown and on the ``save`` op),
* a **persistent** ``ProcessPoolExecutor`` reused across requests —
  the whole point of the daemon: ``optimize_many(executor="process")``
  pays pool spawn per batch, a resident pool pays it once.  Its
  workers are the batch backend's stateless ones
  (:func:`repro.optimizer._process_pool`): ``compute(problem) ->
  recipe``, no cache, nothing to keep warm,
* an asyncio TCP front end on localhost speaking the length-prefixed
  JSON protocol of :mod:`repro.serving.protocol`.

Request lifecycle for ``optimize``: a parent-side cache probe first —
hits are replayed in the event loop without ever taking an admission
slot, so a hot working set cannot queue behind pool-bound misses.  A
miss whose cache key is already being computed (a concurrent
duplicate) waits for that computation instead of shipping its own
(*coalescing*, one future per in-flight key) and then absorbs the
recipe it resolves with.  Every other miss takes admission control
(bounded in-flight + bounded queue, explicit ``overloaded``
rejection) and ships its canonical problem to a worker, whose recipe
the parent absorbs exactly like the batch backend and an in-process
miss do, so the served tree depends on the query alone.

Protocol v2 — pipelining: a request carrying an ``id`` is dispatched
concurrently (one asyncio task per request, bounded by
``pipeline_window`` per connection) and its response echoes the id, so
one connection keeps N requests in flight and completions arrive out
of order.  Requests *without* an id run in the v1 serialized mode —
the connection first drains its pipelined tasks, then dispatches
inline — so v1 clients interoperate unchanged.  A full window is
answered immediately with ``overloaded`` (carrying the id); frame
writes are serialized per connection so interleaved responses never
corrupt the stream.

Concurrency discipline: the event loop is single-threaded, but
handlers interleave at every ``await``, so all shared state lives
behind ``self._lock`` (an ``asyncio.Lock``) — enforced by the same
``lock-discipline`` analysis gate that guards ``PlanCache``, which
checks ``async`` methods and ``async with`` blocks too.
"""

from __future__ import annotations

import asyncio
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from typing import Any, Optional

from ..cache.plan_cache import PlanCache
from ..cache.store import PlanStore
from ..optimizer import (
    Optimizer,
    OptimizerConfig,
    PipelineContext,
    _problem,
    _process_pool,
    _process_worker_run,
)
from .protocol import (
    FrameTooLargeError,
    ProtocolError,
    encode_frame,
    read_frame,
    result_to_wire,
    wire_to_spec,
)

#: protocol revision announced by the ``hello`` op (2 = per-request
#: ids + pipelining; id-less v1 requests still work, serialized)
PROTOCOL_VERSION = 2

#: default admission bounds: generous enough for a local bench, small
#: enough that a runaway client sees explicit rejections, not latency
DEFAULT_MAX_IN_FLIGHT = 8
DEFAULT_QUEUE_LIMIT = 32

#: default per-connection in-flight window for pipelined (id-carrying)
#: requests; beyond it the server answers ``overloaded`` immediately
DEFAULT_PIPELINE_WINDOW = 16


def _error(code: str, message: str) -> "dict[str, Any]":
    return {"ok": False, "error": code, "message": message}


class _ConnectionState:
    """Per-connection pipelining state (one instance per handler).

    ``tasks`` is the in-flight window; ``send`` serializes frame
    writes so concurrently-completing responses never interleave
    bytes on the stream.  Deliberately *not* named ``_lock``: this
    object is owned by exactly one handler coroutine — the send lock
    guards the socket, not instance state.
    """

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self.writer = writer
        self.tasks: "set[asyncio.Task]" = set()
        self._send_lock = asyncio.Lock()

    async def send(self, response: "dict[str, Any]") -> None:
        async with self._send_lock:
            self.writer.write(encode_frame(response))
            await self.writer.drain()

    def spawn(self, coroutine: Any) -> None:
        task = asyncio.ensure_future(coroutine)
        self.tasks.add(task)
        task.add_done_callback(self.tasks.discard)

    async def drain(self) -> None:
        """Wait for every in-flight pipelined request to complete."""
        while self.tasks:
            await asyncio.wait(set(self.tasks))


class PlanServer:
    """The resident optimizer daemon (see module docstring).

    Args:
        config: base :class:`~repro.optimizer.OptimizerConfig` for
            every request; per-client ``cache_namespace`` is layered on
            top per request.  Must be picklable (it is shipped to pool
            workers), like the batch process backend requires.
        host / port: listen address; port ``0`` (default) lets the OS
            pick — read :attr:`address` after :meth:`start`.
        workers: pool size (default 1 — enumeration is CPU-bound, so
            match physical cores, not requests).
        max_in_flight: optimize requests executing concurrently.
        queue_limit: optimize requests allowed to wait for a slot;
            beyond it requests are rejected with ``overloaded``.
        pipeline_window: per-connection cap on concurrently-dispatched
            id-carrying (v2) requests; a full window answers
            ``overloaded`` immediately, id attached.
        idle_timeout: seconds a connection may sit between frames
            before the server sends a ``timeout`` error and closes it
            (``None`` = never) — abandoned clients cannot hold fds
            forever.
        debug_ops: enable the ``debug-sleep`` / ``debug-kill-worker``
            ops the failure-path tests use; never enable in real
            serving.
    """

    def __init__(
        self,
        config: Optional[OptimizerConfig] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 1,
        max_in_flight: int = DEFAULT_MAX_IN_FLIGHT,
        queue_limit: int = DEFAULT_QUEUE_LIMIT,
        pipeline_window: int = DEFAULT_PIPELINE_WINDOW,
        idle_timeout: Optional[float] = None,
        debug_ops: bool = False,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        if max_in_flight < 1:
            raise ValueError("max_in_flight must be at least 1")
        if queue_limit < 0:
            raise ValueError("queue_limit must be >= 0")
        if pipeline_window < 1:
            raise ValueError("pipeline_window must be at least 1")
        if idle_timeout is not None and idle_timeout <= 0:
            raise ValueError("idle_timeout must be None or > 0 seconds")
        if config is None:
            config = OptimizerConfig()
        self.config = config
        self.host = host
        self.port = port
        self.workers = workers
        self.max_in_flight = max_in_flight
        self.queue_limit = queue_limit
        self.pipeline_window = pipeline_window
        self.idle_timeout = idle_timeout
        self.debug_ops = debug_ops
        if config.cache_path is not None:
            #: the :class:`~repro.cache.store.PlanStore` behind
            #: ``cache_path`` (incremental row upserts, trimmed to the
            #: cache's capacity); ``load()`` attaches the cache so the
            #: just-loaded content counts as already persisted
            self._store: Optional[PlanStore] = PlanStore(
                config.cache_path, capacity=config.cache_size
            )
            self.cache = self._store.load()
        else:
            self._store = None
            self.cache = PlanCache(config.cache_size)
        self._lock = asyncio.Lock()
        self._optimizers: "dict[Optional[str], Optimizer]" = {}
        self._pool: Optional[ProcessPoolExecutor] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._slots = asyncio.Semaphore(max_in_flight)
        self._connections: "dict[asyncio.StreamWriter, asyncio.Task]" = {}
        self._stop_event = asyncio.Event()
        self._closing = False
        self._active = 0
        self._waiting = 0
        #: one future per cache key a pool task is computing, resolved
        #: with its recipe; a duplicate miss waits on it, not shipping
        self._in_flight: "dict[Any, asyncio.Future]" = {}
        self._counters: "dict[str, int]" = {
            "requests": 0,
            "served_parent": 0,
            "served_pool": 0,
            "coalesced": 0,
            "rejected": 0,
            "protocol_errors": 0,
            "client_disconnects": 0,
            "pool_rebuilds": 0,
            "internal_errors": 0,
            "pipelined": 0,
            "window_rejections": 0,
            "idle_timeouts": 0,
        }

    # -- lifecycle -------------------------------------------------------

    @property
    def address(self) -> "tuple[str, int]":
        """``(host, port)`` actually bound (valid after :meth:`start`)."""
        return self.host, self.port

    def _make_pool(self) -> ProcessPoolExecutor:
        return _process_pool(self.config, self.workers)

    async def start(self) -> None:
        """Bind the listener and build the worker pool."""
        pool = self._make_pool()
        server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        bound_port = server.sockets[0].getsockname()[1]
        async with self._lock:
            self._pool = pool
            self._server = server
            self.port = bound_port

    async def serve_forever(self) -> None:
        """Block until a ``shutdown`` op (or :meth:`shutdown`) fires."""
        await self._stop_event.wait()

    async def shutdown(
        self,
        drain_timeout: float = 10.0,
        exclude: "Optional[asyncio.StreamWriter]" = None,
    ) -> "dict[str, Any]":
        """Graceful stop: drain, autosave, tear the pool down.

        New optimize requests are rejected with ``shutting-down`` the
        moment this is called; already-admitted and queued requests
        get up to ``drain_timeout`` seconds to finish.  The cache is
        saved to ``cache_path`` (when configured) *after* the drain,
        so plans computed by pending requests reach disk.

        ``exclude`` is the connection the ``shutdown`` op arrived on,
        which must stay open until its response is written; every
        other connection is closed here so idle readers unblock and
        their handler tasks finish before the loop stops.
        """
        async with self._lock:
            if self._closing:
                return {"ok": True, "already": True}
            self._closing = True
        loop = asyncio.get_running_loop()
        deadline = loop.time() + drain_timeout
        drained = False
        while loop.time() < deadline:
            async with self._lock:
                if self._active == 0 and self._waiting == 0:
                    drained = True
                    break
            await asyncio.sleep(0.02)
        saved = await self._save(force=True)
        async with self._lock:
            pool = self._pool
            server = self._server
            self._pool = None
            self._server = None
            doomed = {
                writer: task
                for writer, task in self._connections.items()
                if writer is not exclude
            }
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
        if server is not None:
            server.close()
            await server.wait_closed()
        for writer in doomed:
            writer.close()
        tasks = [task for task in doomed.values() if not task.done()]
        if tasks:
            await asyncio.wait(tasks, timeout=2.0)
        if self._store is not None:
            # release the store's connection after the final save
            self._store.close()
        self._stop_event.set()
        return {"ok": True, "drained": drained, "saved": saved}

    async def _save(self, force: bool = False) -> Optional[int]:
        """Persist the shared cache to ``cache_path``, if configured.

        Delegates to the plan store, which skips the write when nothing
        changed since the last save (its
        :meth:`~repro.cache.plan_cache.PlanCache.sync_since` cursor)
        and otherwise upserts only the delta: O(new entries) rows even
        when the cache holds thousands, though ``sync_since`` still
        scans every cache entry to find them and the capacity trim
        walks ``capacity`` index entries.  ``force`` (the shutdown
        save) rewrites the store from the cache — every fresh member
        in LRU order, O(cache) — so it also drops entries the cache
        dropped.

        The sync is a real disk transaction (plus the capacity trim),
        so it runs in a worker thread, and without the
        server lock, which every request takes: the store serializes
        syncs on its own lock (``check_same_thread=False``).
        """
        store = self._store
        if store is None:
            return None
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            None, store.sync_from, self.cache, force
        )

    # -- connection handling ---------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        async with self._lock:
            self._connections[writer] = task  # type: ignore[assignment]
        state = _ConnectionState(writer)
        try:
            while True:
                try:
                    if self.idle_timeout is not None:
                        request = await asyncio.wait_for(
                            read_frame(reader), self.idle_timeout
                        )
                    else:
                        request = await read_frame(reader)
                except asyncio.TimeoutError:
                    # abandoned connection: explicit close reason, then
                    # reclaim the fd (and any window slots with it)
                    async with self._lock:
                        self._counters["idle_timeouts"] += 1
                    await state.send(_error(
                        "timeout",
                        f"no frame for {self.idle_timeout}s; closing",
                    ))
                    break
                except FrameTooLargeError as exc:
                    # the stream cannot be resynchronized: best-effort
                    # error response, then drop the connection
                    async with self._lock:
                        self._counters["protocol_errors"] += 1
                    await state.send(_error("frame-too-large", str(exc)))
                    break
                except ProtocolError as exc:
                    async with self._lock:
                        self._counters["protocol_errors"] += 1
                    await state.send(_error("protocol-error", str(exc)))
                    break
                if request is None:
                    break  # peer hung up cleanly
                rid = request.get("id")
                if rid is not None and not isinstance(rid, (int, str)):
                    await state.send(_error(
                        "bad-request", "id must be an int or a string"
                    ))
                    continue
                op = request.get("op")
                if rid is None or op == "shutdown":
                    # v1 serialized mode (and shutdown, whose
                    # response-then-close contract requires a quiet
                    # stream): finish the in-flight window first
                    await state.drain()
                    response = await self._dispatch(request, writer)
                    if rid is not None:
                        response = dict(response)
                        response["id"] = rid
                    await state.send(response)
                    if op == "shutdown":
                        break
                    continue
                # v2 pipelined dispatch: bounded window, explicit
                # backpressure carrying the id
                if len(state.tasks) >= self.pipeline_window:
                    async with self._lock:
                        self._counters["window_rejections"] += 1
                    rejection = _error(
                        "overloaded",
                        f"pipeline window of {self.pipeline_window} "
                        "requests is full; wait for completions",
                    )
                    rejection["id"] = rid
                    await state.send(rejection)
                    continue
                async with self._lock:
                    self._counters["pipelined"] += 1
                state.spawn(self._pipelined(request, rid, writer, state))
        except (ConnectionError, TimeoutError, OSError):
            # client went away mid-request or mid-response; the shared
            # cache is untouched by connection state, nothing to undo
            async with self._lock:
                self._counters["client_disconnects"] += 1
        finally:
            # in-flight pipelined tasks are NOT cancelled: their pool
            # work, cache absorbs, and admission-slot releases must
            # complete exactly as if the response had been deliverable
            # (the send then fails and counts a disconnect)
            async with self._lock:
                self._connections.pop(writer, None)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _pipelined(
        self,
        request: "dict[str, Any]",
        rid: "int | str",
        writer: asyncio.StreamWriter,
        state: _ConnectionState,
    ) -> None:
        """One concurrently-dispatched v2 request: respond with its id."""
        response = dict(await self._dispatch(request, writer))
        response["id"] = rid
        try:
            await state.send(response)
        except (ConnectionError, OSError):
            async with self._lock:
                self._counters["client_disconnects"] += 1

    async def _dispatch(
        self,
        request: "dict[str, Any]",
        writer: "Optional[asyncio.StreamWriter]" = None,
    ) -> "dict[str, Any]":
        op = request.get("op")
        if not isinstance(op, str):
            return _error("bad-request", "request has no 'op' string")
        async with self._lock:
            self._counters["requests"] += 1
        try:
            if op == "optimize":
                return await self._op_optimize(request)
            if op == "ping":
                return {"ok": True}
            if op == "hello":
                return self._op_hello()
            if op == "stats":
                return await self._op_stats()
            if op == "save":
                written = await self._save()
                return {"ok": True, "entries": written}
            if op == "bump-epoch":
                epoch = self.cache.bump_epoch()
                return {"ok": True, "epoch": epoch}
            if op == "shutdown":
                return await self.shutdown(
                    drain_timeout=float(request.get("drain_timeout", 10.0)),
                    exclude=writer,
                )
            if op == "debug-sleep" and self.debug_ops:
                return await self._op_debug_sleep(request)
            if op == "debug-kill-worker" and self.debug_ops:
                return await self._op_debug_kill_worker()
            return _error("unknown-op", f"unknown op {op!r}")
        except Exception as exc:  # a handler bug must not kill the loop
            async with self._lock:
                self._counters["internal_errors"] += 1
            return _error("internal", f"{type(exc).__name__}: {exc}")

    # -- ops --------------------------------------------------------------

    def _op_hello(self) -> "dict[str, Any]":
        return {
            "ok": True,
            "protocol": PROTOCOL_VERSION,
            "workers": self.workers,
            "max_in_flight": self.max_in_flight,
            "queue_limit": self.queue_limit,
            "pipeline_window": self.pipeline_window,
            "idle_timeout": self.idle_timeout,
        }

    async def _op_stats(self) -> "dict[str, Any]":
        async with self._lock:
            server = dict(self._counters)
            server["in_flight"] = self._active
            server["queued"] = self._waiting
            server["closing"] = self._closing
            server["namespaces"] = len(self._optimizers)
        return {
            "ok": True,
            "server": server,
            "cache": self.cache.counters(),
            "store": (
                self._store.counters() if self._store is not None else None
            ),
            "structures": self.cache.structures(),
        }

    async def _op_debug_sleep(
        self, request: "dict[str, Any]"
    ) -> "dict[str, Any]":
        """Hold an admission slot for N seconds (failure-path tests)."""
        rejection = await self._admit()
        if rejection is not None:
            return rejection
        try:
            await asyncio.sleep(float(request.get("seconds", 0.1)))
            return {"ok": True}
        finally:
            await self._release()

    async def _op_debug_kill_worker(self) -> "dict[str, Any]":
        """Abruptly kill one pool worker (failure-path tests):
        ``os._exit`` skips all cleanup, as a crash would."""
        loop = asyncio.get_running_loop()
        async with self._lock:
            pool = self._pool
        if pool is None:
            return _error("shutting-down", "no pool")
        try:
            await loop.run_in_executor(pool, os._exit, 1)
        except BrokenProcessPool:
            pass
        return {"ok": True}

    async def _op_optimize(self, request: "dict[str, Any]") -> "dict[str, Any]":
        namespace = request.get("namespace")
        if namespace is not None and (
            not isinstance(namespace, str) or not namespace
        ):
            return _error(
                "bad-request", "namespace must be a non-empty string"
            )
        try:
            spec = wire_to_spec(request.get("query"))
        except ProtocolError as exc:
            return _error("bad-request", str(exc))
        async with self._lock:
            if self._closing:
                return _error(
                    "shutting-down",
                    "the server is draining; reconnect later",
                )
        try:
            # probe the parent cache BEFORE admission: hits are served
            # in the event loop and never queue behind pool-bound
            # misses — under pipelining a hot working set would
            # otherwise wait on slots that enumeration is holding
            optimizer = await self._optimizer_for(namespace)
            ctx, served = optimizer._probe(spec, self.cache)
        except ValueError as exc:
            # planning-level rejection (e.g. disconnected graph under
            # the "raise" policy): the client's fault, not the server's
            return _error("bad-request", str(exc))
        if served is None:
            key = ctx.key_info.key if ctx.key_info is not None else None
            async with self._lock:
                leader = (
                    self._in_flight.get(key) if key is not None else None
                )
                if leader is not None:
                    self._counters["coalesced"] += 1
                elif key is not None:
                    self._in_flight[key] = (
                        asyncio.get_running_loop().create_future()
                    )
            if leader is None:
                try:
                    return await self._compute(ctx, optimizer)
                finally:
                    # resolved on every outcome, failures included, so
                    # a waiting duplicate never hangs
                    if key is not None:
                        async with self._lock:
                            self._in_flight.pop(key).set_result(ctx.recipe)
            # a duplicate: absorb the leader's recipe (a hit, or a
            # replay if the entry is gone); compute only without one
            recipe = await asyncio.shield(leader)
            if recipe is None:
                return await self._compute(ctx, optimizer)
            served = optimizer._absorb_recipe(ctx, recipe)
        async with self._lock:
            self._counters["served_parent"] += 1
        return result_to_wire(served, via="parent")

    async def _compute(
        self, ctx: PipelineContext, optimizer: Optimizer
    ) -> "dict[str, Any]":
        """Admit one prepared miss, compute it in the pool, absorb it."""
        rejection = await self._admit()
        if rejection is not None:
            return rejection
        try:
            payload = await self._run_in_pool(ctx)
            if payload is None:
                return _error(
                    "worker-failed",
                    "the worker pool died twice on this request",
                )
            result = optimizer._absorb_recipe(
                ctx, payload["recipe"], payload["stats"]
            )
        except ValueError as exc:
            return _error("bad-request", str(exc))
        finally:
            await self._release()
        async with self._lock:
            self._counters["served_pool"] += 1
        return result_to_wire(result, via="pool")

    async def _run_in_pool(
        self, ctx: PipelineContext
    ) -> "Optional[dict[str, Any]]":
        """Ship one prepared miss to the pool; rebuild-and-retry once.

        The task is :func:`repro.optimizer._problem`, which names the
        registration the parent resolved.  A ``BrokenProcessPool``
        (worker killed mid-request) rebuilds the pool — once, however
        many requests saw it break — and retries exactly once.
        """
        task = _problem(ctx)
        loop = asyncio.get_running_loop()
        for _attempt in range(2):
            async with self._lock:
                pool = self._pool
            if pool is None:
                return None
            try:
                return await loop.run_in_executor(
                    pool, _process_worker_run, task
                )
            except BrokenProcessPool:
                async with self._lock:
                    rebuild = self._pool is pool
                    if rebuild:
                        self._pool = self._make_pool()
                        self._counters["pool_rebuilds"] += 1
                if rebuild:
                    pool.shutdown(wait=False)
        return None

    # -- shared-state helpers ---------------------------------------------

    async def _optimizer_for(self, namespace: Optional[str]) -> Optimizer:
        """Per-namespace Optimizer, all sharing the one server cache."""
        async with self._lock:
            optimizer = self._optimizers.get(namespace)
            if optimizer is None:
                config = replace(
                    self.config,
                    cache="on",
                    cache_path=None,       # the server owns persistence
                    cache_autosave=False,
                )
                if namespace is not None:
                    config = replace(config, cache_namespace=namespace)
                optimizer = Optimizer(config, plan_cache=self.cache)
                self._optimizers[namespace] = optimizer
            return optimizer

    async def _admit(self) -> "Optional[dict[str, Any]]":
        """Take an execution slot; ``None`` means admitted.

        Explicit rejection, never silent unbounded queueing: at most
        ``max_in_flight`` requests execute and ``queue_limit`` wait.
        """
        async with self._lock:
            if self._closing:
                return _error(
                    "shutting-down", "the server is draining; reconnect later"
                )
            if (
                self._active >= self.max_in_flight
                and self._waiting >= self.queue_limit
            ):
                self._counters["rejected"] += 1
                return _error(
                    "overloaded",
                    f"{self._active} in flight and {self._waiting} queued; "
                    "retry with backoff",
                )
            self._waiting += 1
        await self._slots.acquire()
        async with self._lock:
            self._waiting -= 1
            self._active += 1
        return None

    async def _release(self) -> None:
        async with self._lock:
            self._active -= 1
        self._slots.release()

