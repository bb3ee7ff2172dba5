"""Serving-throughput harness: queries/sec hot vs cold plan cache.

Where :mod:`repro.bench.regression` tracks the single-query hot path,
this harness measures the *serving* story of the plan-cache layer: a
repeated workload (relabeled isomorphic copies of chain/cycle/star/grid
queries, the ROADMAP's "millions of users asking the same shapes"
scenario) is pushed through ``Optimizer.optimize_many`` three times —

* **cold**: cache disabled, every query enumerates from scratch (the
  pre-cache behaviour);
* **warm**: cache on, first encounter — one enumeration + store, the
  isomorphic rest already served by replay;
* **hot**: the same batch again, every query served by canonical
  fingerprint lookup + recipe replay.

The emitted JSON (``BENCH_pr3_plan_cache.json`` and
``BENCH_pr4_persist.json`` are the committed baselines) records
queries/sec for all three passes, the speedup, and the cache counters,
plus a mixed *drifting* workload where statistics changes force a
controlled miss rate, and a **restart** phase measuring the
persistence layer: a server with ``cache_path`` set is started cold
(no file), then "killed" and restarted against the autosaved file —
the warm restart must serve its very first query as a cache hit.  The
CI throughput-smoke job runs this at tiny sizes and fails when hot
does not beat cold by ``--min-speedup`` or warm restart does not beat
cold restart by ``--min-restart-speedup``.

``--executor process`` pushes every batch through the
``ProcessPoolExecutor`` backend instead of threads.

Usage::

    PYTHONPATH=src python -m repro.bench throughput --out BENCH_new.json
    PYTHONPATH=src python -m repro.bench throughput --max-n 8 --copies 10 \
        --min-speedup 3 --min-restart-speedup 3
    PYTHONPATH=src python -m repro.bench throughput --executor process \
        --workers 4
    PYTHONPATH=src python -m repro.bench throughput --max-n 6 --copies 8 \
        --cache-path plans.sqlite --min-restart-speedup 3
"""

from __future__ import annotations

import json
import math
import os
import platform
import sys
import tempfile
import time
from typing import Optional

from ..optimizer import Optimizer, OptimizerConfig
from ..workloads import generators
from ..workloads.repeated import (
    drifting_workload,
    mixed_shapes_workload,
    repeated_workload,
)
from .harness import scaled

#: bump when the JSON layout changes incompatibly
#: (v2: added the ``restart`` persistence phase and ``executor`` field)
SCHEMA_VERSION = 2

#: schema versions :func:`validate_result` still understands —
#: committed baselines from earlier PRs (e.g.
#: ``BENCH_pr3_plan_cache.json``) must keep validating
SUPPORTED_SCHEMA_VERSIONS = (1, 2)

#: top-level keys every throughput document must carry
REQUIRED_KEYS = ("schema_version", "label", "python", "workloads")

#: per-workload keys
REQUIRED_WORKLOAD_KEYS = (
    "workload",
    "n_relations",
    "n_queries",
    "cold_qps",
    "warm_qps",
    "hot_qps",
    "speedup",
    "hot_hit_rate",
    "cache",
)


def default_suite(max_n: Optional[int] = None) -> list:
    """Base shapes for the repeated-workload suite at scaled sizes."""

    def clamp(n: int, floor: int) -> int:
        if max_n is None:
            return n
        return max(floor, min(n, max_n))

    chain_n = clamp(scaled(12, 12), 2)
    cycle_n = clamp(scaled(10, 10), 3)
    star_satellites = clamp(scaled(9, 9), 1)
    grid_cols = clamp(scaled(4, 4), 2)
    return [
        ("chain", generators.chain(chain_n, seed=11)),
        ("cycle", generators.cycle(cycle_n, seed=12)),
        ("star", generators.star(star_satellites, seed=13)),
        ("grid", generators.grid(min(3, grid_cols), grid_cols, seed=15)),
    ]


def _timed_batch(
    optimizer: Optimizer,
    workload,
    workers: Optional[int],
    cache: Optional[bool] = None,
    executor: Optional[str] = None,
):
    """Run one batch, returning (seconds, results)."""
    start = time.perf_counter()
    results = optimizer.optimize_many(
        workload, parallel=workers, cache=cache, executor=executor
    )
    return time.perf_counter() - start, results


def run_restart(
    max_n: Optional[int] = None,
    copies: int = 24,
    workers: Optional[int] = None,
    executor: Optional[str] = None,
    cache_path: Optional[str] = None,
) -> dict:
    """Measure the persistence layer: cold restart vs warm restart.

    A mixed-shape serving batch is run by a fresh optimizer with
    ``cache_path`` pointing at a nonexistent file (**cold restart** —
    the first boot: every shape enumerates once, the batch autosaves),
    then by a second fresh optimizer with the same config (**warm
    restart** — the process came back: the cache auto-loads and the
    very first query must already be a hit).

    ``cache_path`` names the plan-store file (a ``.sqlite``/
    ``.sqlite3``/``.db`` name; only the basename is used — the file
    itself lives in a scratch directory either way).
    """
    filename = os.path.basename(cache_path) if cache_path else (
        "plan-cache.sqlite"
    )
    bases = [base for _shape, base in default_suite(max_n)]
    batch = mixed_shapes_workload(bases, copies, seed=300)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, filename)
        config = OptimizerConfig(cache="on", cache_path=path)

        cold_server = Optimizer(config)        # first boot: no file yet
        cold_s, cold_results = _timed_batch(
            cold_server, batch, workers, executor=executor
        )
        persisted_entries = len(cold_server.plan_cache)

        warm_server = Optimizer(config)        # simulated restart
        warm_s, warm_results = _timed_batch(
            warm_server, batch, workers, executor=executor
        )
    events = [
        result.stats.extra["plan_cache"]["event"] for result in warm_results
    ]
    drift = [
        (cold.cost, warm.cost)
        for cold, warm in zip(cold_results, warm_results)
        if not math.isclose(cold.cost, warm.cost, rel_tol=1e-9)
    ]
    if drift:
        raise AssertionError(
            f"warm-restart costs diverged from cold restart: {drift[:3]}"
        )
    return {
        "workload": "mixed-shapes-restart",
        "cache_file": filename,
        "shapes": [base.description for base in bases],
        "n_queries": len(batch),
        "persisted_entries": persisted_entries,
        "cold_restart_s": round(cold_s, 6),
        "warm_restart_s": round(warm_s, 6),
        "cold_restart_qps": (
            round(len(batch) / cold_s, 2) if cold_s else None
        ),
        "warm_restart_qps": (
            round(len(batch) / warm_s, 2) if warm_s else None
        ),
        "restart_speedup": round(cold_s / warm_s, 3) if warm_s else None,
        "first_query_event": events[0],
        "warm_hit_rate": round(events.count("hit") / len(events), 4),
    }


def run_throughput(
    max_n: Optional[int] = None,
    copies: int = 24,
    workers: Optional[int] = None,
    label: str = "",
    executor: Optional[str] = None,
    cache_path: Optional[str] = None,
) -> dict:
    """Measure the repeated-workload suite; return the JSON document."""
    if copies < 2:
        raise ValueError("need at least two copies to have a hot pass")
    workloads = []
    for shape, base in default_suite(max_n):
        batch = repeated_workload(base, copies, seed=100)
        optimizer = Optimizer(OptimizerConfig(cache="on"))
        cold_s, cold_results = _timed_batch(
            optimizer, batch, workers, cache=False, executor=executor
        )
        warm_s, _warm_results = _timed_batch(
            optimizer, batch, workers, executor=executor
        )
        hot_s, hot_results = _timed_batch(
            optimizer, batch, workers, executor=executor
        )
        counters = optimizer.plan_cache.counters()
        hot_events = [
            result.stats.extra["plan_cache"]["event"]
            for result in hot_results
        ]
        # Cross-check: hot pass must agree with the cold pass, cost-wise
        # (up to float reassociation across relabeled node orders).
        drift = [
            (cold.cost, hot.cost)
            for cold, hot in zip(cold_results, hot_results)
            if not math.isclose(cold.cost, hot.cost, rel_tol=1e-9)
        ]
        if drift:
            raise AssertionError(
                f"{shape}: hot-pass costs diverged from cold pass: {drift[:3]}"
            )
        workloads.append({
            "workload": shape,
            "query": base.description,
            "n_relations": base.n_relations,
            "n_queries": len(batch),
            "cold_s": round(cold_s, 6),
            "warm_s": round(warm_s, 6),
            "hot_s": round(hot_s, 6),
            "cold_qps": round(len(batch) / cold_s, 2) if cold_s else None,
            "warm_qps": round(len(batch) / warm_s, 2) if warm_s else None,
            "hot_qps": round(len(batch) / hot_s, 2) if hot_s else None,
            "speedup": round(cold_s / hot_s, 3) if hot_s else None,
            "hot_hit_rate": round(
                hot_events.count("hit") / len(hot_events), 4
            ),
            "optimal_cost": cold_results[0].cost,
            "cache": counters,
        })
    # Mixed workload: statistics drift forces a controlled miss rate.
    base = default_suite(max_n)[0][1]
    batch = drifting_workload(base, copies, seed=200, distinct_stats=4)
    optimizer = Optimizer(OptimizerConfig(cache="on"))
    warm_s, _ = _timed_batch(optimizer, batch, workers, executor=executor)
    drift_s, drift_results = _timed_batch(
        optimizer, batch, workers, executor=executor
    )
    drift_events = [
        result.stats.extra["plan_cache"]["event"]
        for result in drift_results
    ]
    drifting = {
        "workload": "chain-drifting-stats",
        "query": base.description,
        "n_relations": base.n_relations,
        "n_queries": len(batch),
        "distinct_stats": 4,
        "warm_s": round(warm_s, 6),
        "hot_s": round(drift_s, 6),
        "hot_qps": round(len(batch) / drift_s, 2) if drift_s else None,
        "hot_hit_rate": round(
            drift_events.count("hit") / len(drift_events), 4
        ),
        "cache": optimizer.plan_cache.counters(),
    }
    return {
        "schema_version": SCHEMA_VERSION,
        "label": label,
        "created_unix": round(time.time(), 1),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "copies": copies,
        "workers": workers,
        "executor": executor or "thread",
        "workloads": workloads,
        "drifting": drifting,
        "restart": run_restart(
            max_n=max_n, copies=copies, workers=workers, executor=executor,
            cache_path=cache_path,
        ),
        "min_speedup": round(
            min(entry["speedup"] for entry in workloads), 3
        ),
    }


def validate_result(document: dict) -> None:
    """Raise ``ValueError`` when ``document`` violates the schema."""
    for key in REQUIRED_KEYS:
        if key not in document:
            raise ValueError(f"throughput JSON missing key {key!r}")
    if document["schema_version"] not in SUPPORTED_SCHEMA_VERSIONS:
        raise ValueError(
            f"schema_version {document['schema_version']!r} not in "
            f"{SUPPORTED_SCHEMA_VERSIONS}"
        )
    if not document["workloads"]:
        raise ValueError("throughput JSON has no workloads")
    for entry in document["workloads"]:
        for key in REQUIRED_WORKLOAD_KEYS:
            if key not in entry:
                raise ValueError(
                    f"workload {entry.get('workload')!r} missing {key!r}"
                )
    if document["schema_version"] >= 2:
        restart = document.get("restart")
        if restart is None:
            raise ValueError("throughput JSON missing key 'restart'")
        for key in (
            "cold_restart_qps", "warm_restart_qps", "restart_speedup",
            "first_query_event", "persisted_entries",
        ):
            if key not in restart:
                raise ValueError(f"restart section missing {key!r}")


def render_summary(document: dict) -> str:
    """Small aligned text table for terminal output."""
    lines = [
        f"plan-cache throughput (schema v{document['schema_version']}, "
        f"python {document['python']}, copies={document['copies']})"
    ]
    for entry in document["workloads"]:
        line = (
            f"  {entry['query']:>12}  cold={entry['cold_qps']:>9} q/s  "
            f"warm={entry['warm_qps']:>10} q/s  "
            f"hot={entry['hot_qps']:>10} q/s  "
            f"speedup={entry['speedup']:.1f}x  "
            f"hit_rate={entry['hot_hit_rate']:.0%}"
        )
        fallbacks = entry.get("cache", {}).get("canonical_fallbacks", 0)
        if fallbacks:
            # keys built from the budget-exhausted index-order fallback:
            # relabelings of these queries cannot share entries, so the
            # hit rate above is labeling-limited, not capacity-limited
            line += f"  canonical_fallbacks={fallbacks}"
        lines.append(line)
    drifting = document.get("drifting")
    if drifting:
        lines.append(
            f"  {drifting['workload']:>12}  hot={drifting['hot_qps']:>10} "
            f"q/s  hit_rate={drifting['hot_hit_rate']:.0%} "
            f"(stats drift across {drifting['distinct_stats']} versions)"
        )
    restart = document.get("restart")
    if restart:
        lines.append(
            f"  restart: "
            f"cold={restart['cold_restart_qps']:>9} q/s  "
            f"warm={restart['warm_restart_qps']:>10} q/s  "
            f"speedup={restart['restart_speedup']:.1f}x  "
            f"first query after restart: {restart['first_query_event']} "
            f"({restart['persisted_entries']} persisted entries)"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    """CLI for the ``throughput`` bench subcommand."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="bench_throughput",
        description=(
            "Measure plan-cache serving throughput (queries/sec hot vs "
            "cold) on repeated isomorphic workloads"
        ),
    )
    parser.add_argument(
        "--out", help="write the JSON document to this path", default=None
    )
    parser.add_argument(
        "--max-n", type=int, default=None,
        help="clamp every workload size (CI smoke uses tiny values)",
    )
    parser.add_argument(
        "--copies", type=int, default=24,
        help="queries per repeated batch (default 24)",
    )
    parser.add_argument(
        "--workers", type=int, default=None,
        help="worker-pool width for optimize_many (default serial for "
             "threads, all CPUs for processes)",
    )
    parser.add_argument(
        "--executor", choices=("thread", "process"), default="thread",
        help="optimize_many backend to measure (default thread)",
    )
    parser.add_argument(
        "--label", default="", help="free-form label stored in the document"
    )
    parser.add_argument(
        "--cache-path", default=None,
        help="plan-store file name (.sqlite/.sqlite3/.db) for the restart "
             "phase (default plan-cache.sqlite); the file lives in a "
             "scratch directory either way.",
    )
    parser.add_argument(
        "--min-speedup", type=float, default=None,
        help="fail (exit 1) when hot/cold speedup of any workload is "
             "below this factor (the CI gate)",
    )
    parser.add_argument(
        "--min-restart-speedup", type=float, default=None,
        help="fail (exit 1) when the warm-restart pass is not this many "
             "times faster than the cold restart (the persistence gate)",
    )
    args = parser.parse_args(argv)

    document = run_throughput(
        max_n=args.max_n,
        copies=args.copies,
        workers=args.workers,
        label=args.label,
        executor=args.executor,
        cache_path=args.cache_path,
    )
    validate_result(document)
    print(render_summary(document))
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.out}", file=sys.stderr)
    if args.min_speedup is not None:
        slow = [
            entry for entry in document["workloads"]
            if entry["speedup"] is None or entry["speedup"] < args.min_speedup
        ]
        if slow:
            for entry in slow:
                print(
                    f"THROUGHPUT REGRESSION: {entry['workload']}: hot pass "
                    f"only {entry['speedup']}x faster than cold "
                    f"(required {args.min_speedup}x)",
                    file=sys.stderr,
                )
            return 1
        print(
            f"hot cache beats cold by >= {args.min_speedup}x on every "
            "workload"
        )
    if args.min_restart_speedup is not None:
        restart = document["restart"]
        failed = (
            restart["restart_speedup"] is None
            or restart["restart_speedup"] < args.min_restart_speedup
            or restart["first_query_event"] != "hit"
        )
        if failed:
            print(
                f"PERSISTENCE REGRESSION: warm restart only "
                f"{restart['restart_speedup']}x faster than cold restart "
                f"(required {args.min_restart_speedup}x), first query "
                f"event: {restart['first_query_event']}",
                file=sys.stderr,
            )
            return 1
        print(
            f"warm restart beats cold restart by >= "
            f"{args.min_restart_speedup}x and starts with a cache hit"
        )
    return 0
