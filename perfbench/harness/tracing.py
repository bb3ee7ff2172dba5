"""Spans recorded from outside the program.

The traced run swaps each default pipeline stage for a wrapper that
times the call and delegates to the stage it wraps, via
``OptimizerConfig(pipeline=PipelineStages(...))``.  ``pipeline`` is in
``OptimizerConfig.CACHE_KEY_EXCLUDED``, so cache keys and plans are
unchanged.  A span is ``(id, name, start_ns, end_ns, parent_id,
request_id)``; spans stay in memory and are written out when the run
ends.  A layer's self time is its spans' duration minus the part their
child spans cover.

Wrappers pickle without their recorder (``optimize_many(executor=
"process")`` and the daemon ship the config to pool workers), so
worker-side stage calls run untraced.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Optional

from repro.optimizer import (
    CacheStage,
    DispatchStage,
    FinalizeStage,
    FingerprintStage,
    NormalizeStage,
    PipelineStages,
)

now = time.perf_counter_ns

#: pipeline stage spans, in pipeline order
STAGES = (
    "normalize", "fingerprint", "cache.lookup", "dispatch", "cache.store",
    "finalize",
)


class Recorder:
    """In-memory span list; thread-safe appends."""

    def __init__(self) -> None:
        self.spans: "list[tuple]" = []
        self._lock = threading.Lock()
        self._next_id = 1
        self._next_request = 1
        #: the open request span (in-process drivers set it)
        self.parent: Optional[int] = None
        self.request: Optional[int] = None
        #: ``(time_ns, ccp_emitted, cost_calls)`` of each result a pool
        #: worker enumerated (the daemon's dispatch runs there)
        self.worker_work: "list[tuple[int, int, int]]" = []

    def new_id(self) -> int:
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
            return span_id

    def new_request(self) -> int:
        with self._lock:
            request = self._next_request
            self._next_request += 1
            return request

    def add(
        self,
        name: str,
        start: int,
        end: int,
        parent: Optional[int] = None,
        request: Optional[int] = None,
        span_id: Optional[int] = None,
    ) -> None:
        if span_id is None:
            span_id = self.new_id()
        with self._lock:
            self.spans.append((span_id, name, start, end, parent, request))

    def open_request(self) -> "tuple[int, int, int]":
        """Begin a driver-level span; stage spans become its children."""
        span_id = self.new_id()
        request = self.new_request()
        self.parent, self.request = span_id, request
        return span_id, request, now()

    def close_request(self, name: str, token: "tuple[int, int, int]") -> None:
        span_id, request, start = token
        self.add(name, start, now(), None, request, span_id)
        self.parent = self.request = None

    def timed(self, name: str, func: Callable[..., Any]) -> Callable[..., Any]:
        """Wrap a plain function so each call records a span."""

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            start = now()
            try:
                return func(*args, **kwargs)
            finally:
                self.add(name, start, now(), self.parent, self.request)

        return wrapper


class _Traced:
    """Base of the stage wrappers: an inner stage plus a recorder."""

    def __init__(self, inner: Any, recorder: Optional[Recorder]) -> None:
        self.inner = inner
        self.recorder = recorder

    def __reduce__(self) -> "tuple[Any, tuple[Any, None]]":
        return (type(self), (self.inner, None))

    def _span(self, name: str, ctx: Any, start: int) -> None:
        recorder = self.recorder
        if recorder is None:
            return
        request = getattr(ctx, "_bench_request", None)
        if request is None:
            request = (
                recorder.request if recorder.request is not None
                else recorder.new_request()
            )
            ctx._bench_request = request
        recorder.add(name, start, now(), recorder.parent, request)


class TracedNormalize(_Traced):
    def __call__(self, ctx: Any) -> None:
        start = now()
        try:
            self.inner(ctx)
        finally:
            self._span("normalize", ctx, start)


class TracedFingerprint(_Traced):
    def __call__(self, ctx: Any) -> None:
        start = now()
        try:
            self.inner(ctx)
        finally:
            self._span("fingerprint", ctx, start)


class TracedDispatch(_Traced):
    def __call__(self, ctx: Any) -> Any:
        start = now()
        try:
            return self.inner(ctx)
        finally:
            self._span("dispatch", ctx, start)


class TracedFinalize(_Traced):
    def __call__(self, ctx: Any) -> Any:
        start = now()
        try:
            return self.inner(ctx)
        finally:
            self._span("finalize", ctx, start)
            worker = ctx.stats.extra.get("process_worker")
            if (
                worker
                and self.recorder is not None
                and worker.get("plan_cache", {}).get("event") != "hit"
            ):
                self.recorder.worker_work.append((
                    start,
                    int(worker.get("ccp_emitted", 0)),
                    int(worker.get("cost_calls", 0)),
                ))


class TracedCache(_Traced):
    def lookup(self, ctx: Any) -> None:
        start = now()
        try:
            self.inner.lookup(ctx)
        finally:
            self._span("cache.lookup", ctx, start)

    def store(self, ctx: Any) -> None:
        start = now()
        try:
            self.inner.store(ctx)
        finally:
            self._span("cache.store", ctx, start)


def traced_pipeline(recorder: Recorder) -> PipelineStages:
    """The default stages, each wrapped to record into ``recorder``."""
    return PipelineStages(
        normalize=TracedNormalize(NormalizeStage(), recorder),
        fingerprint=TracedFingerprint(FingerprintStage(), recorder),
        cache=TracedCache(CacheStage(), recorder),  # type: ignore[arg-type]
        dispatch=TracedDispatch(DispatchStage(), recorder),
        finalize=TracedFinalize(FinalizeStage(), recorder),
    )


# -- summaries ----------------------------------------------------------------


def self_times(spans: "list[tuple]") -> "dict[str, int]":
    """Total self time (ns) per span name."""
    child_time: "dict[int, int]" = {}
    for _sid, _name, start, end, parent, _req in spans:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0) + (end - start)
    totals: "dict[str, int]" = {}
    for sid, name, start, end, _parent, _req in spans:
        own = (end - start) - child_time.get(sid, 0)
        totals[name] = totals.get(name, 0) + own
    return totals


def in_window(spans: "list[tuple]", start: int, end: int) -> "list[tuple]":
    return [span for span in spans if start <= span[2] and span[3] <= end]


def stage_metrics(spans: "list[tuple]") -> "dict[str, float]":
    """Per-layer pipeline metrics from stage spans.

    ``*.self_ms`` is mean self time per pipeline run (one run starts at
    each ``normalize`` span); ``*.share`` is the layer's part of all
    pipeline stage time.
    """
    totals = self_times(spans)
    runs = sum(1 for span in spans if span[1] == "normalize")
    pipeline = sum(totals.get(name, 0) for name in STAGES)

    def per_run(name: str) -> float:
        return totals.get(name, 0) / runs / 1e6 if runs else 0.0

    def share(name: str) -> float:
        return totals.get(name, 0) / pipeline if pipeline else 0.0

    return {
        "normalize.self_ms": per_run("normalize"),
        "normalize.share": share("normalize"),
        "fingerprint.self_ms": per_run("fingerprint"),
        "fingerprint.share": share("fingerprint"),
        "cache.lookup_ms": per_run("cache.lookup"),
        "cache.store_ms": per_run("cache.store"),
        "dispatch.self_ms": per_run("dispatch"),
        "dispatch.share": share("dispatch"),
        "finalize.self_ms": per_run("finalize"),
    }
