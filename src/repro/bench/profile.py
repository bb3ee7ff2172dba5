"""``python -m repro.bench profile`` — cProfile the optimizer hot path.

Answers "where do the milliseconds go?" for one workload/algorithm
combination without leaving the repository's CLI.  The default is
``algorithm="auto"``, the route production runs; the report names the
registration ``auto`` resolved to.  It gives:

* top-N hot functions (by own time) straight from :mod:`cProfile`;
* per-phase totals, bucketing every profiled function into the
  optimizer's three phases by source path — **search** (enumeration:
  ``core/kernel`` (DPhyp), ``core/dphyp_recursive``, neighborhoods,
  bitsets, the DP table), **materialize** (plan construction in ``core/plans``) and
  **costing** (``repro/cost/*``) — plus ``other`` for the facade and
  anything else.

Phase totals sum *own* time (``tottime``), not cumulative time, so the
three buckets are disjoint and add up to the run's total: a function's
callees are charged to their own bucket.  This is what makes the split
honest for DPhyp's flat-array offer, whose search loop calls into
costing closures.

Usage::

    PYTHONPATH=src python -m repro.bench profile --workload chain --n 12
    PYTHONPATH=src python -m repro.bench profile --algorithm dphyp-recursive \
        --workload clique --n 10 --top 15 --json
"""

from __future__ import annotations

import cProfile
import json
import pstats
import sys
from typing import Optional

from ..workloads import generators

#: workload shapes the profiler can generate (name -> generator)
WORKLOAD_SHAPES = {
    "chain": generators.chain,
    "cycle": generators.cycle,
    "star": generators.star,
    "clique": generators.clique,
}

#: source-path fragments mapped onto optimizer phases, first match
#: wins (order matters: DPhyp's inline costing is costing, not search)
PHASE_PATTERNS = (
    ("costing", "/repro/cost/"),
    ("costing", "/repro/core/kernel/costing"),
    ("materialize", "/repro/core/plans"),
    ("search", "/repro/core/kernel/"),
    ("search", "/repro/core/dphyp"),
    ("search", "/repro/core/neighborhood"),
    ("search", "/repro/core/bitset"),
    ("search", "/repro/core/dptable"),
)

PHASE_ORDER = ("search", "materialize", "costing", "other")


def classify_phase(filename: str) -> str:
    """Bucket one profiled function by its source path."""
    normalized = filename.replace("\\", "/")
    for phase, fragment in PHASE_PATTERNS:
        if fragment in normalized:
            return phase
    return "other"


def profile_workload(
    workload: str,
    n: int,
    algorithm: str = "auto",
    repeat: int = 1,
    top: int = 10,
) -> dict:
    """Profile ``repeat`` optimizer runs; return a JSON-able report."""
    from ..optimizer import Optimizer, OptimizerConfig

    if workload not in WORKLOAD_SHAPES:
        raise ValueError(
            f"unknown workload {workload!r}; "
            f"one of {sorted(WORKLOAD_SHAPES)}"
        )
    query = WORKLOAD_SHAPES[workload](n)
    facade = Optimizer(OptimizerConfig(algorithm=algorithm))

    profiler = cProfile.Profile()
    profiler.enable()
    for _ in range(max(repeat, 1)):
        result = facade.optimize(query.graph, cardinalities=query.cardinalities)
    profiler.disable()

    stats = pstats.Stats(profiler)
    phases = {phase: 0.0 for phase in PHASE_ORDER}
    functions = []
    total = 0.0
    # pstats entry: (filename, line, name) -> (cc, ncalls, tottime,
    # cumtime, callers)
    for (filename, line, name), entry in stats.stats.items():
        _, ncalls, tottime, cumtime, _ = entry
        phase = classify_phase(filename)
        phases[phase] += tottime
        total += tottime
        functions.append(
            {
                "function": name,
                "where": f"{filename}:{line}",
                "phase": phase,
                "ncalls": ncalls,
                "tottime_ms": round(tottime * 1000.0, 3),
                "cumtime_ms": round(cumtime * 1000.0, 3),
            }
        )
    functions.sort(key=lambda f: -f["tottime_ms"])
    return {
        "workload": query.description,
        "algorithm": result.algorithm,
        "requested_algorithm": algorithm,
        "repeat": max(repeat, 1),
        "cost": None if result.plan is None else result.plan.cost,
        "ccp": result.stats.ccp_emitted,
        "total_ms": round(total * 1000.0, 3),
        "phases_ms": {
            phase: round(seconds * 1000.0, 3)
            for phase, seconds in phases.items()
        },
        "hot": functions[: max(top, 1)],
    }


def render_report(report: dict) -> str:
    """Aligned text rendering of :func:`profile_workload`'s output."""
    lines = [
        f"profile: {report['workload']}  algorithm={report['algorithm']}  "
        f"runs={report['repeat']}  total={report['total_ms']:.1f}ms  "
        f"ccp={report['ccp']}"
    ]
    lines.append("  phase totals (own time, disjoint):")
    total = report["total_ms"] or 1.0
    for phase in PHASE_ORDER:
        ms = report["phases_ms"][phase]
        lines.append(
            f"    {phase:>11}  {ms:9.1f}ms  {100.0 * ms / total:5.1f}%"
        )
    lines.append(
        f"  hot functions (top {len(report['hot'])} by own time):"
    )
    lines.append(
        f"    {'ncalls':>9}  {'tottime':>9}  {'cumtime':>9}  "
        f"{'phase':>11}  function"
    )
    for entry in report["hot"]:
        lines.append(
            f"    {entry['ncalls']:>9}  {entry['tottime_ms']:7.1f}ms  "
            f"{entry['cumtime_ms']:7.1f}ms  {entry['phase']:>11}  "
            f"{entry['function']}"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    """CLI for the bench ``profile`` subcommand."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.bench profile",
        description=(
            "cProfile one optimizer run: top-N hot functions plus "
            "search/materialize/costing phase totals"
        ),
    )
    parser.add_argument(
        "--workload", default="chain", choices=sorted(WORKLOAD_SHAPES),
        help="workload shape (default chain)",
    )
    parser.add_argument(
        "--n", type=int, default=14,
        help=(
            "relation count (star: satellite count; default 14, the "
            "largest size auto still enumerates exactly)"
        ),
    )
    parser.add_argument(
        "--algorithm", default="auto",
        help="registered algorithm name or auto (default auto)",
    )
    parser.add_argument(
        "--repeat", type=int, default=1,
        help="profiled runs to aggregate (default 1)",
    )
    parser.add_argument(
        "--top", type=int, default=10,
        help="hot functions to report (default 10)",
    )
    parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit the full report as JSON instead of text",
    )
    args = parser.parse_args(argv)

    try:
        report = profile_workload(
            args.workload, args.n, algorithm=args.algorithm,
            repeat=args.repeat, top=args.top,
        )
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 2
    if args.as_json:
        json.dump(report, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    else:
        print(render_report(report))
    return 0
