"""Serving-daemon bench: resident pool vs per-batch pool, pipelining.

Two phases, emitted as one JSON document (``BENCH_pr7_serving.json``
and ``BENCH_pr10_pipeline.json`` are the committed baselines of the
earlier, three-phase layout):

**serving** — N concurrent clients drive a mixed hot/cold workload
(two thirds repeats of shared shapes, one third unique-statistics
queries that always miss) against

* a resident :class:`~repro.serving.server.PlanServer` — one pool of
  stateless workers for the whole run; per-request latency is
  recorded client-side (p50/p99), and
* the **baseline**: the same requests grouped into per-wave batches
  through ``optimize_many(executor="process")``, each wave on a fresh
  optimizer (sharing one plan cache) that is closed at the wave's end
  — the pre-daemon "pool per batch" serving story, which pays a pool
  lifecycle for every batch that contains a miss (and every wave
  does, by construction).  One long-lived optimizer would keep its
  pool between waves and is not this baseline.

The daemon must sustain >= ``--min-speedup`` times the baseline's
q/s.  CI asks for 1x: per wave the baseline pays one pool lifecycle
and the daemon 8 loopback round trips, which cost less; nothing else
separates them (see ``docs/serving.md``, "Bench").

**pipeline** — protocol v2 pipelining against v1 lockstep on *one*
connection: the same mixed workload (adjacent duplicate cold misses
plus hot repeats) is replayed against fresh 2-worker daemons restored
from the same warm cache — as the serialized request/response loop a
v1 client is stuck with (depth 1), and through
:meth:`~repro.serving.client.PlanClient.optimize_many` with
``--pipeline-depth`` requests in flight — in 5 such pairs, alternating
which side goes first.  The median pair must show the pipelined run
sustaining >= ``--min-pipeline-speedup`` times the serialized q/s, and
every run must ship exactly one pool task per unique cache key: a
duplicate that arrives while its original computes waits for it
(coalescing), one that arrives later is a parent hit.

Usage::

    PYTHONPATH=src python -m repro.bench serving --out BENCH_new.json
    PYTHONPATH=src python -m repro.bench serving --clients 8 \
        --requests 30 --min-speedup 3 --min-pipeline-speedup 2
"""

from __future__ import annotations

import json
import platform
import statistics
import sys
import threading
import time
from typing import Any, Optional

from ..cache.store import PlanStore
from ..optimizer import Optimizer, OptimizerConfig, QuerySpec
from ..serving import BackgroundServer, PlanClient

#: bump when the JSON layout changes incompatibly
SCHEMA_VERSION = 3

REQUIRED_KEYS = (
    "schema_version", "label", "python", "serving", "pipeline",
)
REQUIRED_SERVING_KEYS = (
    "clients", "requests_per_client", "n_requests", "daemon_qps",
    "baseline_qps", "speedup", "p50_ms", "p99_ms", "daemon_server",
)
REQUIRED_PIPELINE_KEYS = (
    "depth", "n_requests", "workers", "serial_qps", "pipelined_qps",
    "speedup", "serial_p50_ms", "serial_p99_ms", "pipelined_p50_ms",
    "pipelined_p99_ms", "unique_keys", "serial_pool_tasks",
    "pipelined_pool_tasks", "coalesced",
)


def _chain_spec(n: int, base_card: float, tag: int = 0) -> QuerySpec:
    """A chain query whose statistics are pinned by ``base_card``/``tag``.

    Distinct ``(base_card, tag)`` pairs give distinct statistics
    signatures, hence distinct cache keys — the bench's unique-miss
    generator.
    """
    relations = [
        (f"r{index}", base_card + 10.0 * index + tag)
        for index in range(n)
    ]
    joins = [
        (f"r{index}", f"r{index + 1}", 0.01) for index in range(n - 1)
    ]
    return QuerySpec(relations=relations, joins=joins)


def _hot_specs() -> "list[QuerySpec]":
    """The shared shapes every client repeats (the hot working set)."""
    star = QuerySpec(
        relations=[("hub", 1000.0)] + [
            (f"s{index}", 50.0 + index) for index in range(5)
        ],
        joins=[("hub", f"s{index}", 0.02) for index in range(5)],
    )
    cycle_names = [f"c{index}" for index in range(6)]
    cycle = QuerySpec(
        relations=[(name, 100.0 + 7 * i) for i, name in enumerate(cycle_names)],
        joins=[
            (cycle_names[i], cycle_names[(i + 1) % 6], 0.05)
            for i in range(6)
        ],
    )
    return [_chain_spec(7, 100.0), cycle, star]


def build_workload(
    clients: int, requests: int
) -> "list[list[QuerySpec]]":
    """Per-client request sequences, two-thirds hot / one-third cold.

    Every third request is a unique-statistics chain (a guaranteed
    miss that must go to a worker); the rest cycle through the shared
    hot shapes, which all clients hit after first contact.  The cold
    slots are staggered per client so misses arrive continuously, the
    way unsynchronized clients produce them — every baseline wave
    below therefore contains at least one miss and pays the per-batch
    pool setup, rather than misses phase-locking into a few waves.
    """
    hot = _hot_specs()
    workload: "list[list[QuerySpec]]" = []
    for client in range(clients):
        sequence = []
        for index in range(requests):
            if (index + client) % 3 == 0:
                sequence.append(
                    _chain_spec(6, 1000.0 + 100.0 * client, tag=index)
                )
            else:
                sequence.append(hot[index % len(hot)])
        workload.append(sequence)
    return workload


def _warm_cache_file(directory: str, entries: int) -> "tuple[str, str]":
    """Persist a cache of ``entries`` real plans; return two copies.

    Both contenders resume from the same persisted state — the
    realistic serving setup, where a daemon restart or a batch job
    starts from yesterday's cache.  Each side gets its own copy so the
    daemon's shutdown autosave cannot alter what the baseline loads.
    """
    import shutil

    warmer = Optimizer(OptimizerConfig(cache="on"))
    warmer.optimize_many(
        [_chain_spec(5, 100.0, tag=i) for i in range(entries)]
    )
    daemon_copy = f"{directory}/warm_daemon.sqlite"
    baseline_copy = f"{directory}/warm_baseline.sqlite"
    warmer.save_cache(daemon_copy)
    shutil.copy(daemon_copy, baseline_copy)
    return daemon_copy, baseline_copy


def run_serving_phase(
    clients: int = 8,
    requests: int = 30,
    warm_entries: int = 400,
    max_in_flight: int = 8,
    queue_limit: int = 64,
) -> "dict[str, Any]":
    """Concurrent-load daemon phase vs per-batch process baseline."""
    import tempfile

    workload = build_workload(clients, requests)
    n_requests = clients * requests

    # -- resident daemon: one pool, N concurrent blocking clients
    tmpdir = tempfile.mkdtemp(prefix="bench_serving_")
    daemon_cache, baseline_cache = _warm_cache_file(tmpdir, warm_entries)
    latencies: "list[float]" = []
    latency_lock = threading.Lock()
    errors: "list[BaseException]" = []
    barrier = threading.Barrier(clients + 1)

    def drive(sequence: "list[QuerySpec]") -> None:
        try:
            with PlanClient(daemon.address, timeout=120.0) as connection:
                barrier.wait()
                mine = []
                for spec in sequence:
                    started = time.perf_counter()
                    connection.optimize(spec)
                    mine.append(time.perf_counter() - started)
            with latency_lock:
                latencies.extend(mine)
        except BaseException as exc:  # surface in the main thread
            errors.append(exc)
            try:
                barrier.abort()
            except Exception:
                pass

    with BackgroundServer(
        OptimizerConfig(cache="on", cache_path=daemon_cache),
        workers=1,
        max_in_flight=max_in_flight,
        queue_limit=queue_limit,
    ) as daemon:
        # Untimed startup: one throwaway miss spawns the resident
        # worker, so the timed section measures the steady state the
        # daemon exists for.
        with PlanClient(daemon.address, timeout=120.0) as warmup:
            warmup.optimize(_chain_spec(4, 77.0))
        threads = [
            threading.Thread(target=drive, args=(sequence,), daemon=True)
            for sequence in workload
        ]
        for thread in threads:
            thread.start()
        barrier.wait()
        daemon_start = time.perf_counter()
        for thread in threads:
            thread.join()
        daemon_wall = time.perf_counter() - daemon_start
        if errors:
            raise RuntimeError(f"serving client failed: {errors[0]!r}")
        with PlanClient(daemon.address) as connection:
            stats = connection.stats()

    # -- baseline: the same requests as per-wave process batches.
    # Wave j bundles every client's j-th request; each wave holds at
    # least one unique-stats miss, and each wave runs on a fresh
    # optimizer closed at its end, so each wave pays one pool
    # lifecycle — exactly the per-batch serving story the daemon
    # replaces (one long-lived optimizer would keep its pool).  The
    # parent cache, loaded once, is shared across waves (same as the
    # daemon), so the comparison isolates the pool lifecycle, not
    # cache hits.  Nothing is autosaved, so the baseline is not
    # additionally charged for per-batch disk writes.
    baseline_start = time.perf_counter()
    with PlanStore(baseline_cache) as store:
        shared = store.load()
    for wave_index in range(requests):
        wave = [workload[client][wave_index] for client in range(clients)]
        with Optimizer(
            OptimizerConfig(cache="on"), plan_cache=shared
        ) as baseline:
            baseline.optimize_many(wave, executor="process", parallel=1)
    baseline_wall = time.perf_counter() - baseline_start

    ordered = sorted(latencies)

    def quantile(q: float) -> float:
        return ordered[min(len(ordered) - 1, int(q * len(ordered)))]

    import shutil

    shutil.rmtree(tmpdir, ignore_errors=True)
    return {
        "clients": clients,
        "requests_per_client": requests,
        "n_requests": n_requests,
        "warm_entries": warm_entries,
        "hot_shapes": len(_hot_specs()),
        "daemon_wall_s": round(daemon_wall, 6),
        "daemon_qps": round(n_requests / daemon_wall, 2),
        "p50_ms": round(1000.0 * statistics.median(ordered), 3),
        "p99_ms": round(1000.0 * quantile(0.99), 3),
        "baseline_wall_s": round(baseline_wall, 6),
        "baseline_qps": round(n_requests / baseline_wall, 2),
        "baseline_batches": requests,
        "speedup": round(baseline_wall / daemon_wall, 3),
        "daemon_server": stats["server"],
        "daemon_cache": stats["cache"],
    }


def build_pipeline_workload(groups: int) -> "list[QuerySpec]":
    """One connection's request stream for the pipeline phase.

    Each 8-request group (one pipeline window) is ``[a, b, c, d, a, b,
    c, d]``: four distinct cold misses followed by their duplicates.
    At depth 8 a duplicate usually arrives while its original is still
    in the pool and waits for it (coalescing); a serialized client
    runs the same list, where the duplicates are ordinary parent hits.
    Either way the pool computes each key once.
    """
    stream: "list[QuerySpec]" = []
    for index in range(groups):
        colds = [
            _chain_spec(6, 5000.0 + 1000.0 * index + 200.0 * j, tag=j)
            for j in range(4)
        ]
        stream.extend(colds)
        stream.extend(colds)
    return stream


def _quantiles_ms(latencies: "list[float]") -> "tuple[float, float]":
    ordered = sorted(latencies)
    p99 = ordered[min(len(ordered) - 1, int(0.99 * len(ordered)))]
    return (
        round(1000.0 * statistics.median(ordered), 3),
        round(1000.0 * p99, 3),
    )


def _unique_keys(stream: "list[QuerySpec]") -> int:
    """Distinct cache keys in ``stream``: the entries a cold cache keeps."""
    optimizer = Optimizer(OptimizerConfig(cache="on"))
    optimizer.optimize_many(stream)
    return len(optimizer.plan_cache)


def run_pipeline_phase(
    depth: int = 8,
    groups: int = 12,
    warm_entries: int = 200,
    workers: int = 2,
    pairs: int = 5,
) -> "dict[str, Any]":
    """Protocol v2 pipelining vs v1 lockstep on one connection.

    Runs ``pairs`` serialized/pipelined pairs, alternating which side
    goes first.  Every run gets a *fresh* daemon restored from its own
    copy of the same warm cache (so no run's absorbs can warm
    another), the same worker count, and the same request stream;
    only the client discipline differs.  The reported ``speedup``,
    which ``--min-pipeline-speedup`` gates, is the median of the
    pairs' serialized/pipelined wall-time ratios: one pass of about a
    hundred requests on two shared CPUs is noisier than the overlap
    gain, so a single pair cannot carry the premise.  Every run must
    ship exactly one pool task per unique cache key of the stream —
    hard-asserted, because a duplicate computed twice is wasted pool
    work whatever its timing.
    """
    import os
    import shutil
    import tempfile

    stream = build_pipeline_workload(groups)
    n_requests = len(stream)
    unique_keys = _unique_keys(stream)
    tmpdir = tempfile.mkdtemp(prefix="bench_pipeline_")
    warm_cache, _ = _warm_cache_file(tmpdir, warm_entries)

    def timed_run(side: str, cache_path: str) -> "dict[str, Any]":
        daemon = BackgroundServer(
            OptimizerConfig(cache="on", cache_path=cache_path),
            workers=workers,
            max_in_flight=4 * depth,
            queue_limit=8 * depth,
        )
        with daemon, PlanClient(daemon.address, timeout=120.0) as connection:
            connection.optimize(_chain_spec(4, 77.0))  # untimed warm-up
            before = connection.stats()["server"]
            latencies: "list[float]" = []
            started = time.perf_counter()
            if side == "pipelined":
                connection.optimize_many(stream, depth=depth)
                latencies = list(connection.last_latencies)
            else:
                for spec in stream:
                    sent = time.perf_counter()
                    connection.optimize(spec)
                    latencies.append(time.perf_counter() - sent)
            wall = time.perf_counter() - started
            server = connection.stats()["server"]
        tasks = server["served_pool"] - before["served_pool"]
        if tasks != unique_keys:
            raise AssertionError(
                f"the {side} run shipped {tasks} pool tasks for "
                f"{unique_keys} unique cache keys — duplicate misses "
                "were computed more than once"
            )
        return {
            "wall": wall,
            "latencies": latencies,
            "coalesced": server["coalesced"] - before["coalesced"],
            "server": server,
        }

    runs: "dict[str, list[dict[str, Any]]]" = {"serial": [], "pipelined": []}
    pair_rows: "list[dict[str, Any]]" = []
    try:
        for index in range(pairs):
            order = ("serial", "pipelined")
            if index % 2:
                order = order[::-1]
            for side in order:
                copy = os.path.join(tmpdir, f"run_{index}_{side}.sqlite")
                shutil.copy(warm_cache, copy)
                runs[side].append(timed_run(side, copy))
            serial, piped = runs["serial"][-1], runs["pipelined"][-1]
            pair_rows.append({
                "first": order[0],
                "serial_wall_s": round(serial["wall"], 6),
                "pipelined_wall_s": round(piped["wall"], 6),
                "speedup": round(serial["wall"] / piped["wall"], 3),
                "coalesced": piped["coalesced"],
            })
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    def summary(side: str) -> "tuple[float, float, float]":
        wall = statistics.median(run["wall"] for run in runs[side])
        latencies = [t for run in runs[side] for t in run["latencies"]]
        return (wall, *_quantiles_ms(latencies))

    serial_wall, serial_p50, serial_p99 = summary("serial")
    piped_wall, piped_p50, piped_p99 = summary("pipelined")
    return {
        "depth": depth,
        "n_requests": n_requests,
        "workers": workers,
        # q/s ratios are only interpretable against the core budget:
        # on a single-CPU host the 2-worker pool cannot physically
        # overlap computation, so the speedup degrades to whatever
        # scheduling overlap remains
        "cpus": os.cpu_count(),
        "warm_entries": warm_entries,
        # walls and q/s are medians over the runs of each side,
        # latency quantiles pool every request of that side
        "serial_wall_s": round(serial_wall, 6),
        "serial_qps": round(n_requests / serial_wall, 2),
        "serial_p50_ms": serial_p50,
        "serial_p99_ms": serial_p99,
        "pipelined_wall_s": round(piped_wall, 6),
        "pipelined_qps": round(n_requests / piped_wall, 2),
        "pipelined_p50_ms": piped_p50,
        "pipelined_p99_ms": piped_p99,
        "speedup": statistics.median(row["speedup"] for row in pair_rows),
        "pairs": pair_rows,
        "unique_keys": unique_keys,
        # asserted equal to unique_keys in every run
        "serial_pool_tasks": unique_keys,
        "pipelined_pool_tasks": unique_keys,
        "coalesced": sum(row["coalesced"] for row in pair_rows),
        "server": runs["pipelined"][-1]["server"],
    }


def run_serving(
    clients: int = 8,
    requests: int = 30,
    warm_entries: int = 400,
    pipeline_depth: int = 8,
    label: str = "",
) -> "dict[str, Any]":
    """Run both phases; return the JSON document."""
    return {
        "schema_version": SCHEMA_VERSION,
        "label": label,
        "created_unix": round(time.time(), 1),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "serving": run_serving_phase(
            clients=clients, requests=requests, warm_entries=warm_entries
        ),
        "pipeline": run_pipeline_phase(depth=pipeline_depth),
    }


def validate_result(document: "dict[str, Any]") -> None:
    """Raise ``ValueError`` when ``document`` violates the schema."""
    for key in REQUIRED_KEYS:
        if key not in document:
            raise ValueError(f"serving JSON missing key {key!r}")
    if document["schema_version"] != SCHEMA_VERSION:
        raise ValueError(
            f"schema_version {document['schema_version']!r} != "
            f"{SCHEMA_VERSION}"
        )
    for key in REQUIRED_SERVING_KEYS:
        if key not in document["serving"]:
            raise ValueError(f"serving section missing {key!r}")
    for key in REQUIRED_PIPELINE_KEYS:
        if key not in document["pipeline"]:
            raise ValueError(f"pipeline section missing {key!r}")


def render_summary(document: "dict[str, Any]") -> str:
    serving = document["serving"]
    pipeline = document["pipeline"]
    return "\n".join([
        f"plan-serving bench (schema v{document['schema_version']}, "
        f"python {document['python']})",
        f"  daemon:   {serving['daemon_qps']:>9} q/s  "
        f"p50={serving['p50_ms']}ms p99={serving['p99_ms']}ms  "
        f"({serving['clients']} clients x "
        f"{serving['requests_per_client']} requests)",
        f"  baseline: {serving['baseline_qps']:>9} q/s  "
        f"({serving['baseline_batches']} process batches)",
        f"  speedup:  {serving['speedup']}x resident daemon vs per-batch "
        "pool",
        f"  pipeline: depth {pipeline['depth']} "
        f"{pipeline['pipelined_qps']:>9} q/s "
        f"p50={pipeline['pipelined_p50_ms']}ms "
        f"p99={pipeline['pipelined_p99_ms']}ms  vs  depth 1 "
        f"{pipeline['serial_qps']} q/s "
        f"p50={pipeline['serial_p50_ms']}ms "
        f"p99={pipeline['serial_p99_ms']}ms",
        f"  pipeline speedup: {pipeline['speedup']}x, the median of "
        f"{[row['speedup'] for row in pipeline['pairs']]} "
        f"({pipeline['workers']} workers, {pipeline['cpus']} cpus)",
        f"  pool tasks per run: {pipeline['pipelined_pool_tasks']} "
        f"pipelined, {pipeline['serial_pool_tasks']} serialized for "
        f"{pipeline['unique_keys']} unique keys "
        f"({pipeline['coalesced']} coalesced over all pipelined runs)",
    ])


def main(argv: "Optional[list[str]]" = None) -> int:
    """CLI for the ``serving`` bench subcommand."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="bench_serving",
        description=(
            "Measure the resident plan-serving daemon against per-batch "
            "process pools, and pipelined against serialized requests"
        ),
    )
    parser.add_argument("--out", default=None)
    parser.add_argument(
        "--clients", type=int, default=8,
        help="concurrent clients (default 8)",
    )
    parser.add_argument(
        "--requests", type=int, default=30,
        help="requests per client (default 30)",
    )
    parser.add_argument(
        "--label", default="", help="free-form label stored in the document"
    )
    parser.add_argument(
        "--min-speedup", type=float, default=None,
        help="fail (exit 1) when the daemon is not this many times "
             "faster than per-batch pools (the CI gate: 1)",
    )
    parser.add_argument(
        "--pipeline-depth", type=int, default=8,
        help="in-flight window of the pipelined phase (default 8)",
    )
    parser.add_argument(
        "--min-pipeline-speedup", type=float, default=None,
        help="fail (exit 1) when depth-N pipelining is not this many "
             "times faster than the depth-1 lockstep, judged on the "
             "median of 5 alternating pairs (the CI gate: 1)",
    )
    args = parser.parse_args(argv)

    document = run_serving(
        clients=args.clients, requests=args.requests,
        pipeline_depth=args.pipeline_depth, label=args.label,
    )
    validate_result(document)
    print(render_summary(document))
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.out}", file=sys.stderr)
    if args.min_speedup is not None:
        speedup = document["serving"]["speedup"]
        if speedup is None or speedup < args.min_speedup:
            print(
                f"SERVING REGRESSION: resident daemon only {speedup}x "
                f"faster than per-batch pools (required "
                f"{args.min_speedup}x)",
                file=sys.stderr,
            )
            return 1
        print(
            f"resident daemon beats per-batch pools by >= "
            f"{args.min_speedup}x"
        )
    if args.min_pipeline_speedup is not None:
        speedup = document["pipeline"]["speedup"]
        if speedup is None or speedup < args.min_pipeline_speedup:
            print(
                f"PIPELINE REGRESSION: depth-"
                f"{document['pipeline']['depth']} pipelining only "
                f"{speedup}x faster than the depth-1 lockstep, median "
                f"of {len(document['pipeline']['pairs'])} pairs "
                f"(required {args.min_pipeline_speedup}x)",
                file=sys.stderr,
            )
            return 1
        print(
            f"pipelined serving beats the serialized loop by >= "
            f"{args.min_pipeline_speedup}x"
        )
    return 0
