"""The in-process workloads: plan-cold, plan-hot and batch-process.

Each is a closed loop from one thread through ``Optimizer`` and
``optimize_many``, with the default configuration.  The measured phase
runs whole decks (whole batches for batch-process) until the run time
is used up and enough requests were made for the reported tail
percentiles and for the count window.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Any, Optional

from repro import Optimizer, OptimizerConfig
from repro.cache import persist

from . import env, stats, tracing
from .calibrate import Speed
from .streams import Request, Stream
from .verify import Verifier

now = time.perf_counter_ns

#: count window (requests) of each workload; the counts a seed fixes
#: are taken over the first ``COUNT_WINDOW`` measured requests
COUNT_WINDOW = {"plan-cold": 700, "plan-hot": 840, "batch-process": 40 * 32}
#: requests a p99 needs (10 beyond it)
P99_REQUESTS = 1000
#: batches a p90 of batch wall time needs (10 beyond it)
P90_BATCHES = 100
#: batch-process pool size (the 2 CPUs this benchmark is sized for)
BATCH_PARALLEL = 2


@dataclass
class Phase:
    """What one measured phase saw."""

    latencies_ns: "list[int]" = field(default_factory=list)
    #: throughput of each whole block (deck or batch), requests/s
    block_qps: "list[float]" = field(default_factory=list)
    batch_ns: "list[int]" = field(default_factory=list)
    next_index: int = 0

    @property
    def qps(self) -> float:
        return stats.median(self.block_qps)


class WindowCounts:
    """Work counts over the first ``size`` measured requests."""

    def __init__(self, size: int, cache: Any) -> None:
        self.size = size
        self.cache = cache
        self.seen = 0
        self.counts: "dict[str, int]" = {
            "requests": 0, "ccp_emitted": 0, "cost_calls": 0,
            "parent_hits": 0, "offloaded": 0,
        }
        self._before = cache.counters()
        self.done = False

    def add(self, result: Any) -> None:
        if self.done:
            return
        counts = self.counts
        counts["requests"] += 1
        route = f"route.{result.algorithm}"
        counts[route] = counts.get(route, 0) + 1
        work = dispatch_work(result)
        if "process_worker" in result.stats.extra:
            counts["offloaded"] += 1
        else:
            counts["parent_hits"] += 1
        if work is not None:
            counts["ccp_emitted"] += work[0]
            counts["cost_calls"] += work[1]
        self.seen += 1

    def close_if_full(self) -> None:
        if self.done or self.seen < self.size:
            return
        after = self.cache.counters()
        for key in ("hits", "misses", "stores", "evictions",
                    "replay_failures", "canonical_fallbacks"):
            self.counts[f"cache.{key}"] = after[key] - self._before[key]
        self.done = True


def dispatch_work(result: Any) -> "Optional[tuple[int, int]]":
    """``(ccp_emitted, cost_calls)`` of the enumeration behind a result.

    ``None`` when no enumeration ran for it (a cache hit replays a
    recipe instead).  Results computed by a pool worker carry the
    worker's statistics.
    """
    worker = result.stats.extra.get("process_worker")
    source = worker if worker is not None else result.stats.extra
    event = source.get("plan_cache", {}).get("event")
    if event == "hit":
        return None
    if worker is not None:
        return int(worker.get("ccp_emitted", 0)), int(
            worker.get("cost_calls", 0)
        )
    return result.stats.ccp_emitted, result.stats.cost_calls


def _cost(result: Any) -> Optional[float]:
    return result.plan.cost if result.plan is not None else None


def _check_all(
    verifier: Verifier, requests: "list[Request]", results: "list[Any]"
) -> None:
    if len(results) != len(requests):
        for _ in requests:
            verifier.fail("optimize_many returned the wrong number of results")
        return
    for request, result in zip(requests, results):
        verifier.check(request.oracle, _cost(result), result.algorithm)


def single_loop(
    optimizer: Optimizer,
    requests: "list[Request]",
    start: int,
    deck: int,
    verifier: Verifier,
    seconds: float,
    min_requests: int,
    speed: Speed,
    window: Optional[WindowCounts] = None,
    recorder: Optional[tracing.Recorder] = None,
) -> Phase:
    """One request per ``optimize_many([q])`` call, whole decks.

    Between decks, outside their timing, the calibration kernel runs
    when due.
    """
    phase = Phase()
    total = len(requests)
    budget = int(seconds * 1e9)
    index = start
    done = 0
    began = block_start = now()
    while True:
        request = requests[index % total]
        token = recorder.open_request() if recorder is not None else None
        t0 = now()
        results = optimizer.optimize_many([request.query])
        t1 = now()
        if recorder is not None and token is not None:
            recorder.close_request("request", token)
        phase.latencies_ns.append(t1 - t0)
        _check_all(verifier, [request], results)
        if window is not None and results:
            window.add(results[0])
            window.close_if_full()
        index += 1
        done += 1
        if done % deck == 0:
            block_end = now()
            phase.block_qps.append(deck * 1e9 / (block_end - block_start))
            if (
                block_end - began >= budget
                and done >= min_requests
                and (window is None or window.done)
            ):
                break
            speed.sample_if_due()
            block_start = now()
    phase.next_index = index
    return phase


def batch_loop(
    optimizer: Optimizer,
    batches: "list[list[Request]]",
    start: int,
    verifier: Verifier,
    seconds: float,
    min_batches: int,
    speed: Speed,
    window: Optional[WindowCounts] = None,
    recorder: Optional[tracing.Recorder] = None,
    snapshot_bytes: Optional["list[int]"] = None,
) -> Phase:
    """One ``optimize_many(batch, executor="process")`` call per batch.

    Between batches, outside their timing, the calibration kernel runs
    when due.
    """
    phase = Phase()
    budget = int(seconds * 1e9)
    index = start
    began = now()
    while True:
        batch = batches[index % len(batches)]
        queries = [request.query for request in batch]
        if snapshot_bytes is not None:
            document = persist.dump_document(optimizer.plan_cache)
            snapshot_bytes.append(len(json.dumps(document)))
        token = recorder.open_request() if recorder is not None else None
        t0 = now()
        results = optimizer.optimize_many(
            queries, executor="process", parallel=BATCH_PARALLEL
        )
        t1 = now()
        if recorder is not None and token is not None:
            recorder.close_request("batch", token)
        wall = t1 - t0
        phase.batch_ns.append(wall)
        phase.latencies_ns.extend([wall] * len(batch))
        phase.block_qps.append(len(batch) * 1e9 / wall)
        _check_all(verifier, batch, results)
        if window is not None:
            for result in results:
                window.add(result)
            window.close_if_full()
        index += 1
        if (
            t1 - began >= budget
            and len(phase.batch_ns) >= min_batches
            and (window is None or window.done)
        ):
            break
        speed.sample_if_due()
    phase.next_index = index
    return phase


def _warm(
    optimizer: Optimizer, stream: Stream, verifier: Verifier
) -> None:
    if stream.warm:
        results = optimizer.optimize_many([r.query for r in stream.warm])
        _check_all(verifier, stream.warm, results)


def _latency_metrics(phase: Phase) -> "dict[str, float]":
    lat_ms = [value / 1e6 for value in phase.latencies_ns]
    batch_ms = (
        [value / 1e6 for value in phase.batch_ns] if phase.batch_ns
        else lat_ms
    )
    return {
        "qps": phase.qps,
        "latency_ms_p50": stats.median(lat_ms),
        "latency_ms_p99": stats.tail(lat_ms, 0.99),
        "batch_ms_p50": stats.median(batch_ms),
        "batch_ms_p90": stats.tail(batch_ms, 0.90),
    }


def _window_metrics(window: WindowCounts) -> "dict[str, float]":
    counts = window.counts
    hits = counts.get("cache.hits", 0)
    misses = counts.get("cache.misses", 0)
    metrics: "dict[str, float]" = {
        "fingerprint.canonical_fallbacks":
            counts.get("cache.canonical_fallbacks", 0),
        "cache.hits": hits,
        "cache.misses": misses,
        "cache.hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "cache.evictions": counts.get("cache.evictions", 0),
        "cache.replay_failures": counts.get("cache.replay_failures", 0),
        "dispatch.ccp_emitted": counts["ccp_emitted"],
        "dispatch.cost_calls": counts["cost_calls"],
    }
    for key, value in counts.items():
        if key.startswith("route."):
            metrics[f"dispatch.{key}"] = value
    return metrics


@dataclass
class InProcessResult:
    #: end-to-end metrics as measured or, in a traced run, per-layer ones
    metrics: "dict[str, float]"
    counts: "dict[str, int]"
    speed: Speed
    #: queries of the set-up warm pass, replayed by the set-up probes
    warm_queries: "list[Any]"


def run(
    workload: str,
    stream: Stream,
    verifier: Verifier,
    seconds: float,
    trace: bool,
) -> InProcessResult:
    optimizer = Optimizer()
    _warm(optimizer, stream, verifier)
    is_batch = workload == "batch-process"
    batches = stream.extra.get("batches", [])
    if is_batch:
        for batch in stream.extra["warmup_batches"]:
            results = optimizer.optimize_many(
                [r.query for r in batch], executor="process",
                parallel=BATCH_PARALLEL,
            )
            _check_all(verifier, batch, results)
    else:
        for request in stream.warmup:
            _check_all(verifier, [request],
                       optimizer.optimize_many([request.query]))
    speed = Speed()
    speed.sample(5)
    window = WindowCounts(COUNT_WINDOW[workload], optimizer.plan_cache)
    measured = seconds / 2 if trace else seconds
    if is_batch:
        phase = batch_loop(
            optimizer, batches, 0, verifier, measured,
            0 if trace else P90_BATCHES, speed, window,
        )
    else:
        phase = single_loop(
            optimizer, stream.requests, 0, stream.deck, verifier, measured,
            0 if trace else P99_REQUESTS, speed, window,
        )
    metrics: "dict[str, float]" = {}
    if not trace:
        metrics.update(_latency_metrics(phase))
        rss = env.peak_rss_mb_self()
        if is_batch:
            rss += BATCH_PARALLEL * env.peak_rss_mb_children()
        metrics["peak_rss_mb"] = rss
    else:
        recorder = tracing.Recorder()
        traced = Optimizer(
            OptimizerConfig(pipeline=tracing.traced_pipeline(recorder)),
            plan_cache=optimizer.plan_cache,
        )
        snapshot_bytes: "list[int]" = []
        if is_batch:
            traced_phase = batch_loop(
                traced, batches, phase.next_index, verifier, measured, 1,
                speed, recorder=recorder, snapshot_bytes=snapshot_bytes,
            )
        else:
            traced_phase = single_loop(
                traced, stream.requests, phase.next_index, stream.deck,
                verifier, measured, 1, speed, recorder=recorder,
            )
        metrics.update(tracing.stage_metrics(recorder.spans))
        metrics.update(_window_metrics(window))
        if is_batch:
            counts = window.counts
            metrics["batch.parent_hits"] = counts["parent_hits"]
            metrics["batch.offloaded"] = counts["offloaded"]
            metrics["batch.snapshot_bytes"] = stats.median(snapshot_bytes)
            batch_self = tracing.self_times(recorder.spans).get("batch", 0)
            metrics["batch.pool_ms"] = (
                batch_self / len(traced_phase.batch_ns) / 1e6
            )
        metrics["tracing.untraced_qps"] = phase.qps
        metrics["tracing.traced_qps"] = traced_phase.qps
        metrics["tracing.overhead"] = 1.0 - traced_phase.qps / phase.qps
    return InProcessResult(
        metrics=metrics,
        counts=dict(window.counts),
        speed=speed,
        warm_queries=[request.query for request in stream.warm],
    )
