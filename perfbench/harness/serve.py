"""The serve-mixed workload: one client process, two connections.

The daemon runs as its own process, ``python -m repro.serving
--cache-path <scratch>/plans.sqlite`` with every other flag at its
default, restored from a prepared store of 3000 rows.  The client opens
two closed-loop connections, one thread each:

* an interactive protocol-v1 loop (``PlanClient.optimize``): Zipf hits
  over a hot set, unique misses, and a ``save`` after every deck;
* a protocol-v2 pipelined loop (``PlanClient.optimize_many``, depth 8)
  whose windows carry duplicate new queries in flight together.

``setup_s`` is the time from spawning the daemon to its first
pool-served answer, the median of three spawns.
"""

from __future__ import annotations

import json
import os
import select
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

from repro import Optimizer
from repro.cache.plan_cache import PlanCache
from repro.cache.store import PlanStore
from repro.optimizer import QuerySpec
from repro.serving import protocol
from repro.serving.client import PlanClient, ServerError

from . import env, stats, tracing
from .streams import (
    PIPELINE_DEPTH,
    STORE_ROWS,
    Request,
    Stream,
)
from .verify import Verifier

now = time.perf_counter_ns

#: daemon spawns whose set-up time is measured (the median is reported)
SETUP_SPAWNS = 3
#: seconds to wait for the daemon to start or stop
DAEMON_TIMEOUT = 60.0
#: qps is the median completion rate over blocks of this many requests
QPS_BLOCK = 256
#: interactive requests a p99 needs; pipelined windows a p90 needs
P99_REQUESTS = 1000
P90_WINDOWS = 100
#: what a caller does with its plan before the next request (running
#: the query), so that the two loops do not saturate both CPUs and
#: queueing does not amplify every change in machine speed
INTERACTIVE_THINK_S = 0.002
WINDOW_THINK_S = 0.010
#: ``overloaded`` answers a v1 request may retry before it fails
OVERLOAD_RETRIES = 64


def wire(query: Any) -> "dict[str, Any]":
    """Protocol wire form of a workload query (built before timing)."""
    spec = QuerySpec.from_hypergraph(query.graph, query.cardinalities)
    return protocol.spec_to_wire(spec)


def prepared_store(stream: Stream, seed: int) -> Path:
    """The pristine store file for ``seed``, built once and cached.

    Rows are written in stream order, the hot set last, so the
    daemon's warm load (which keeps the 512 most recent rows) holds
    the whole hot set.
    """
    path = env.CACHE_DIR / f"store-{seed}-{env.code_version()}.sqlite"
    if path.is_file():
        return path
    env.CACHE_DIR.mkdir(parents=True, exist_ok=True)
    cache = PlanCache(STORE_ROWS + 1)
    Optimizer(plan_cache=cache).optimize_many(stream.extra["store_rows"])
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    with PlanStore(str(tmp)) as store:
        store.sync_from(cache, force=True)
    for suffix in ("-wal", "-shm"):
        Path(f"{tmp}{suffix}").unlink(missing_ok=True)
    os.replace(tmp, path)
    return path


class Daemon:
    """One daemon process, owned by the run's :class:`env.Janitor`."""

    def __init__(
        self,
        janitor: env.Janitor,
        scratch: Path,
        store: Path,
        number: int,
        traced: bool = False,
    ) -> None:
        self.janitor = janitor
        self.cache_path = scratch / f"plans-{number}.sqlite"
        shutil.copyfile(store, self.cache_path)
        self.spans_path = scratch / f"spans-{number}.json"
        self.log_path = scratch / f"daemon-{number}.log"
        if traced:
            argv = [
                sys.executable, str(env.BENCH_DIR / "launcher.py"),
                "--cache-path", str(self.cache_path),
                "--spans-out", str(self.spans_path),
            ]
        else:
            argv = [
                sys.executable, "-m", "repro.serving",
                "--cache-path", str(self.cache_path),
            ]
        self.started_ns = now()
        with open(self.log_path, "wb") as log:
            self.proc = janitor.spawn(
                argv, stop=self._shutdown_op, stdout=subprocess.PIPE,
                stderr=log, cwd=str(env.ROOT), env=env.child_env(),
            )
        self.address = self._await_listening()
        with PlanClient(self.address, timeout=DAEMON_TIMEOUT) as client:
            tier = client.hello().get("shared_tier")
        janitor.own_segment(tier)

    def _await_listening(self) -> "tuple[str, int]":
        deadline = time.monotonic() + DAEMON_TIMEOUT
        stdout = self.proc.stdout
        assert stdout is not None
        buffer = b""
        while time.monotonic() < deadline:
            ready, _, _ = select.select([stdout], [], [], 0.5)
            if ready:
                chunk = os.read(stdout.fileno(), 4096)
                if not chunk:
                    break
                buffer += chunk
                for line in buffer.decode(errors="replace").splitlines():
                    if "listening on" in line:
                        host, port = line.rsplit(" ", 1)[1].rsplit(":", 1)
                        print(f"daemon {self.proc.pid} listening on "
                              f"{host}:{port}", file=sys.stderr, flush=True)
                        return host, int(port)
            if self.proc.poll() is not None:
                break
        raise RuntimeError(
            f"the daemon did not start; see its log: "
            f"{self.log_path.read_text(errors='replace')[-2000:]}"
        )

    def _shutdown_op(self) -> None:
        with PlanClient(self.address, timeout=DAEMON_TIMEOUT) as client:
            client.shutdown(drain_timeout=10.0)

    def process_ids(self) -> "list[int]":
        """The daemon and its pool workers (not the resource tracker)."""
        pids = [self.proc.pid]
        for child in env.proc_children(self.proc.pid):
            try:
                with open(f"/proc/{child}/cmdline", "rb") as handle:
                    cmdline = handle.read()
            except OSError:
                continue
            if b"resource_tracker" not in cmdline:
                pids.append(child)
        return pids

    def peak_rss_mb(self) -> float:
        return sum(env.proc_hwm_mb(pid) for pid in self.process_ids())

    def store_bytes(self) -> int:
        total = 0
        for suffix in ("", "-wal"):
            try:
                total += os.path.getsize(f"{self.cache_path}{suffix}")
            except OSError:
                pass
        return total

    def stop(self) -> None:
        self.janitor.stop(self.proc)

    def spans(self) -> "dict[str, Any]":
        with open(self.spans_path) as handle:
            return json.load(handle)


# -- the two client loops -------------------------------------------------------


@dataclass
class LoopLog:
    """What one client thread saw during a phase."""

    #: (send_ns, done_ns, via, algorithm) per completed request
    done: "list[tuple[int, int, str, str]]" = field(default_factory=list)
    #: (start_ns, end_ns) of each pipelined window or save op
    spans: "list[tuple[int, int]]" = field(default_factory=list)
    #: per-request latencies of each pipelined window
    window_latencies: "list[list[float]]" = field(default_factory=list)
    error: Optional[BaseException] = None
    next_index: int = 0


def interactive_loop(
    client: PlanClient,
    requests: "list[Request]",
    wires: "list[dict[str, Any]]",
    start: int,
    deck: int,
    verifier: Verifier,
    deadline_ns: int,
    min_requests: int,
    log: LoopLog,
) -> None:
    """Protocol v1: one request at a time, a ``save`` after each deck."""
    index = start
    done = 0
    try:
        while True:
            position = index % len(requests)
            request = requests[position]
            answer = None
            t0 = now()
            for attempt in range(OVERLOAD_RETRIES + 1):
                try:
                    answer = client.optimize(wires[position])
                    break
                except ServerError as exc:
                    if exc.code != "overloaded" or attempt == OVERLOAD_RETRIES:
                        verifier.fail(f"interactive request: {exc}")
                        break
                    time.sleep(min(0.002 * (attempt + 1), 0.05))
            t1 = now()
            if answer is not None:
                verifier.check(request.oracle, answer.get("cost"),
                               str(answer.get("algorithm")))
                log.done.append(
                    (t0, t1, str(answer.get("via")),
                     str(answer.get("algorithm")))
                )
            index += 1
            done += 1
            if done % deck == 0:
                s0 = now()
                client.save()
                log.spans.append((s0, now()))
            if t1 >= deadline_ns and done >= min_requests:
                break
            time.sleep(INTERACTIVE_THINK_S)
    except BaseException as exc:  # reported by the phase, never lost
        log.error = exc
    log.next_index = index


def pipelined_loop(
    client: PlanClient,
    windows: "list[list[Request]]",
    wires: "list[list[dict[str, Any]]]",
    start: int,
    verifier: Verifier,
    deadline_ns: int,
    min_windows: int,
    log: LoopLog,
) -> None:
    """Protocol v2: whole windows through ``optimize_many(depth=8)``."""
    index = start
    done = 0
    try:
        while True:
            position = index % len(windows)
            window = windows[position]
            t0 = now()
            try:
                answers = client.optimize_many(
                    wires[position], depth=PIPELINE_DEPTH
                )
            except ServerError as exc:
                for _ in window:
                    verifier.fail(f"pipelined window: {exc}")
                answers = []
            t1 = now()
            log.spans.append((t0, t1))
            log.window_latencies.append(
                list(client.last_latencies) if answers else []
            )
            for request, answer in zip(window, answers):
                if answer is None:
                    verifier.fail("pipelined request without an answer")
                    continue
                verifier.check(request.oracle, answer.get("cost"),
                               str(answer.get("algorithm")))
                log.done.append(
                    (t0, t1, str(answer.get("via")),
                     str(answer.get("algorithm")))
                )
            index += 1
            done += 1
            if t1 >= deadline_ns and done >= min_windows:
                break
            time.sleep(WINDOW_THINK_S)
    except BaseException as exc:  # reported by the phase, never lost
        log.error = exc
    log.next_index = index


@dataclass
class Inputs:
    requests: "list[Request]"
    wires: "list[dict[str, Any]]"
    windows: "list[list[Request]]"
    window_wires: "list[list[dict[str, Any]]]"
    deck: int


@dataclass
class PhaseResult:
    interactive: LoopLog
    pipelined: LoopLog
    began_ns: int
    deadline_ns: int

    def qps(self) -> float:
        """Median completion rate of both connections.

        Completions inside the measured interval are taken in blocks of
        :data:`QPS_BLOCK` consecutive ones; each block's rate is its
        size over the time it took.
        """
        finished = sorted(
            done
            for log in (self.interactive, self.pipelined)
            for _send, done, _via, _alg in log.done
            if self.began_ns <= done <= self.deadline_ns
        )
        rates = [
            QPS_BLOCK * 1e9 / (finished[end] - finished[start])
            for start, end in zip(
                range(0, len(finished), QPS_BLOCK),
                range(QPS_BLOCK, len(finished), QPS_BLOCK),
            )
            if finished[end] > finished[start]
        ]
        return stats.median(rates)

    def interactive_ms(self, via: Optional[str] = None) -> "list[float]":
        return [
            (finished - sent) / 1e6
            for sent, finished, got, _alg in self.interactive.done
            if via is None or got == via
        ]


def run_phase(
    daemon: Daemon,
    inputs: Inputs,
    verifier: Verifier,
    seconds: float,
    starts: "tuple[int, int]",
    minimums: "tuple[int, int]",
) -> PhaseResult:
    """Both loops at once, each on its own connection and thread."""
    interactive, pipelined = LoopLog(), LoopLog()
    with PlanClient(daemon.address, timeout=DAEMON_TIMEOUT) as v1, \
            PlanClient(daemon.address, timeout=DAEMON_TIMEOUT) as v2:
        began = now()
        deadline = began + int(seconds * 1e9)
        threads = [
            threading.Thread(target=interactive_loop, args=(
                v1, inputs.requests, inputs.wires, starts[0], inputs.deck,
                verifier, deadline, minimums[0], interactive,
            )),
            threading.Thread(target=pipelined_loop, args=(
                v2, inputs.windows, inputs.window_wires, starts[1],
                verifier, deadline, minimums[1], pipelined,
            )),
        ]
        for thread in threads:
            # an interrupted run must not wait for its client loops
            thread.daemon = True
            thread.start()
        for thread in threads:
            thread.join()
    for log in (interactive, pipelined):
        if log.error is not None:
            raise RuntimeError(f"client loop failed: {log.error!r}")
    return PhaseResult(interactive, pipelined, began, deadline)


def warm_up(daemon: Daemon, stream: Stream, verifier: Verifier) -> None:
    """Untimed: one interactive deck, then the warm-up windows."""
    with PlanClient(daemon.address, timeout=DAEMON_TIMEOUT) as client:
        for request in stream.warmup:
            answer = client.optimize(wire(request.query))
            verifier.check(request.oracle, answer.get("cost"),
                           str(answer.get("algorithm")))
        for window in stream.extra["warmup_windows"]:
            answers = client.optimize_many(
                [wire(r.query) for r in window], depth=PIPELINE_DEPTH
            )
            for request, answer in zip(window, answers):
                verifier.check(request.oracle, answer.get("cost"),
                               str(answer.get("algorithm")))


def first_pool_answer(
    daemon: Daemon, probe: Request, verifier: Verifier
) -> float:
    """Seconds from the daemon's spawn to a pool-served answer."""
    with PlanClient(daemon.address, timeout=DAEMON_TIMEOUT) as client:
        answer = client.optimize(wire(probe.query))
    elapsed = (now() - daemon.started_ns) / 1e9
    verifier.check(probe.oracle, answer.get("cost"),
                   str(answer.get("algorithm")))
    if answer.get("via") != "pool":
        raise RuntimeError(
            f"the set-up probe was served via {answer.get('via')!r}, "
            "not by the pool"
        )
    return elapsed


def _stats(daemon: Daemon) -> "dict[str, Any]":
    with PlanClient(daemon.address, timeout=DAEMON_TIMEOUT) as client:
        return client.stats()


def _diff(after: Any, before: Any, *path: str) -> int:
    for key in path:
        after = (after or {}).get(key)
        before = (before or {}).get(key)
    return int(after or 0) - int(before or 0)


class WireMeter:
    """Client-side wire cost: frame encode/decode time and bytes.

    Wraps ``repro.serving.protocol.encode_frame`` and ``decode_body``
    (which the client's ``send_frame``/``recv_frame`` call) while
    active.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.ns = 0
        self.sent = 0
        self.sent_bytes = 0
        self.received = 0
        self.received_bytes = 0
        self._saved: "dict[str, Any]" = {}

    def __enter__(self) -> "WireMeter":
        encode, decode = protocol.encode_frame, protocol.decode_body
        self._saved = {"encode_frame": encode, "decode_body": decode}

        def encode_frame(message: Any) -> bytes:
            t0 = now()
            frame = encode(message)
            elapsed = now() - t0
            with self._lock:
                self.ns += elapsed
                self.sent += 1
                self.sent_bytes += len(frame)
            return frame

        def decode_body(body: bytes) -> Any:
            t0 = now()
            message = decode(body)
            elapsed = now() - t0
            with self._lock:
                self.ns += elapsed
                self.received += 1
                self.received_bytes += len(body) + protocol.HEADER_BYTES
            return message

        protocol.encode_frame = encode_frame  # type: ignore[assignment]
        protocol.decode_body = decode_body  # type: ignore[assignment]
        return self

    def __exit__(self, *exc_info: Any) -> None:
        for name, func in self._saved.items():
            setattr(protocol, name, func)


def _inputs(stream: Stream) -> Inputs:
    windows = stream.extra["windows"]
    return Inputs(
        requests=stream.requests,
        wires=[wire(request.query) for request in stream.requests],
        windows=windows,
        window_wires=[[wire(r.query) for r in window] for window in windows],
        deck=stream.deck,
    )


def run(
    stream: Stream,
    seed: int,
    verifier: Verifier,
    seconds: float,
    trace: bool,
    janitor: env.Janitor,
) -> "dict[str, float]":
    """End-to-end metrics or, in a traced run, per-layer ones.

    Reported as measured: a calibration kernel in the client does not
    track a workload spread over three processes and both CPUs.
    """
    store = prepared_store(stream, seed)
    inputs = _inputs(stream)
    scratch = janitor.scratch_dir()
    probes = stream.extra["probes"]
    metrics: "dict[str, float]" = {}
    if not trace:
        setups = []
        for number in range(SETUP_SPAWNS):
            daemon = Daemon(janitor, scratch, store, number)
            setups.append(first_pool_answer(daemon, probes[number], verifier))
            if number < SETUP_SPAWNS - 1:
                daemon.stop()
        warm_up(daemon, stream, verifier)
        phase = run_phase(daemon, inputs, verifier, seconds, (0, 0),
                          (P99_REQUESTS, P90_WINDOWS))
        metrics["peak_rss_mb"] = daemon.peak_rss_mb()
        daemon.stop()
        interactive = phase.interactive_ms()
        windows_ms = [(end - start) / 1e6
                      for start, end in phase.pipelined.spans]
        metrics.update({
            "qps": phase.qps(),
            "latency_ms_p50": stats.median(interactive),
            "latency_ms_p99": stats.tail(interactive, 0.99),
            "batch_ms_p50": stats.median(windows_ms),
            "batch_ms_p90": stats.tail(windows_ms, 0.90),
            "setup_s": stats.median(setups),
        })
        return metrics

    half = seconds / 2
    daemon = Daemon(janitor, scratch, store, 0)
    first_pool_answer(daemon, probes[0], verifier)
    warm_up(daemon, stream, verifier)
    untraced = run_phase(daemon, inputs, verifier, half, (0, 0), (0, 0))
    daemon.stop()

    daemon = Daemon(janitor, scratch, store, 1, traced=True)
    first_pool_answer(daemon, probes[1], verifier)
    warm_up(daemon, stream, verifier)
    before = _stats(daemon)
    with WireMeter() as meter:
        traced = run_phase(
            daemon, inputs, verifier, half,
            (untraced.interactive.next_index, untraced.pipelined.next_index),
            (0, 0),
        )
    after = _stats(daemon)
    metrics["store.file_bytes"] = daemon.store_bytes()
    daemon.stop()
    document = daemon.spans()
    spans = [tuple(span) for span in document["spans"]]
    window = tracing.in_window(spans, traced.began_ns, traced.deadline_ns)
    metrics.update(tracing.stage_metrics(window))
    work = [item for item in document["work"]
            if traced.began_ns <= item[0] <= traced.deadline_ns]
    metrics["dispatch.ccp_emitted"] = sum(item[1] for item in work)
    metrics["dispatch.cost_calls"] = sum(item[2] for item in work)
    routes: "dict[str, int]" = {}
    for log in (traced.interactive, traced.pipelined):
        for _sent, _done, _via, algorithm in log.done:
            routes[algorithm] = routes.get(algorithm, 0) + 1
    for algorithm, count in routes.items():
        metrics[f"dispatch.route.{algorithm}"] = count
    hits = _diff(after, before, "cache", "hits")
    misses = _diff(after, before, "cache", "misses")
    requests = len(traced.interactive.done) + len(traced.pipelined.done)
    overlapping = [
        latency
        for (start, end), latencies in zip(
            traced.pipelined.spans, traced.pipelined.window_latencies
        )
        if any(s0 < end and start < s1 for s0, s1 in traced.interactive.spans)
        for latency in latencies
    ]
    load = [span for span in spans if span[1] == "store.load"]
    syncs = [span[3] - span[2] for span in window if span[1] == "store.sync"]
    metrics.update({
        "fingerprint.canonical_fallbacks":
            _diff(after, before, "cache", "canonical_fallbacks"),
        "cache.hits": hits,
        "cache.misses": misses,
        "cache.hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "cache.evictions": _diff(after, before, "cache", "evictions"),
        "cache.replay_failures":
            _diff(after, before, "cache", "replay_failures"),
        "wire.client_ms": meter.ns / requests / 1e6 if requests else 0.0,
        "wire.request_bytes":
            meter.sent_bytes / meter.sent if meter.sent else 0.0,
        "wire.response_bytes":
            meter.received_bytes / meter.received if meter.received else 0.0,
        "server.parent_ms_p50":
            stats.tail_or_lower(traced.interactive_ms("parent"), 0.5),
        "server.pool_ms_p50":
            stats.tail_or_lower(traced.interactive_ms("pool"), 0.5),
        "server.served_parent": _diff(after, before, "server", "served_parent"),
        "server.served_pool": _diff(after, before, "server", "served_pool"),
        "server.rejected": _diff(after, before, "server", "rejected"),
        "server.window_rejections":
            _diff(after, before, "server", "window_rejections"),
        "server.save_overlap_ms_p99":
            stats.tail_or_lower([value * 1e3 for value in overlapping], 0.99),
        "sync.full_syncs": _diff(after, before, "sync", "full_syncs"),
        "sync.delta_syncs": _diff(after, before, "sync", "delta_syncs"),
        "sync.delta_entries": _diff(after, before, "sync", "delta_entries"),
        "sync.snapshot_bytes": _diff(after, before, "sync", "snapshot_bytes"),
        "tier.hits": _diff(after, before, "shared_tier", "workers", "tier_hits"),
        "tier.publishes":
            _diff(after, before, "shared_tier", "publisher", "publishes"),
        "tier.rows_published":
            _diff(after, before, "shared_tier", "publisher", "rows_published"),
        "tier.reads": _diff(after, before, "shared_tier", "workers", "reads"),
        "store.load_ms": (load[0][3] - load[0][2]) / 1e6 if load else 0.0,
        "store.sync_ms": stats.median(syncs) / 1e6 if syncs else 0.0,
        "store.syncs": _diff(after, before, "store", "syncs"),
        "store.rows_written": _diff(after, before, "store", "rows_written"),
        "store.auto_vacuums": _diff(after, before, "store", "auto_vacuums"),
        "tracing.untraced_qps": untraced.qps(),
        "tracing.traced_qps": traced.qps(),
    })
    metrics["tracing.overhead"] = (
        1.0 - metrics["tracing.traced_qps"] / metrics["tracing.untraced_qps"]
    )
    return metrics
