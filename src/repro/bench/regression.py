"""Perf-regression harness: canonical workloads, JSON output.

Unlike the figure/table drivers in :mod:`repro.bench.experiments`
(which reproduce the paper's evaluation), this harness exists to give
the *repository* a performance trajectory: it times the optimizer hot
path on the chain/cycle/star shapes, compares DPhyp against the
preserved seed-faithful recursive baseline
(:mod:`repro.core.dphyp_recursive`), and emits a stable JSON document
(``BENCH_*.json``) that future changes can diff against.

Usage::

    PYTHONPATH=src python -m repro.bench regression --out BENCH_new.json
    PYTHONPATH=src python -m repro.bench regression --tier kernel \
        --min-speedup 2.75 --out BENCH_kernel.json
    PYTHONPATH=src python benchmarks/bench_regression.py --max-n 6

Sizes honour the same knobs as the experiment drivers
(``REPRO_BENCH_FULL=1`` / ``REPRO_BENCH_MAX_N=<k>``), plus an explicit
``max_n`` clamp used by the CI smoke job to keep the schema honest at
tiny sizes.
"""

from __future__ import annotations

import json
import platform
import sys
import time
from typing import Optional

from ..workloads import generators
from .harness import measure_algorithm, scaled

#: bump when the JSON layout changes incompatibly
SCHEMA_VERSION = 1

#: algorithms timed per workload, on every tier: the hot path and the
#: seed-faithful recursive oracle it must beat, which builds a Plan per
#: candidate and scans the full edge list per connectivity test
ALGORITHMS = ("dphyp", "dphyp-recursive")

#: (baseline, contender) pair the ``speedups`` map reports
SPEEDUP_PAIR = ("dphyp-recursive", "dphyp")

#: workload tiers: the chain/cycle/star suite and the large-n suite
TIERS = ("default", "kernel")

#: ``--min-speedup`` applies only to kernel-tier workloads at least
#: this many relations wide — the flat-array win needs room; tiny
#: clamped CI runs should not fail the gate on noise
KERNEL_GATE_MIN_N = 30

#: top-level keys every regression document must carry
REQUIRED_KEYS = ("schema_version", "label", "python", "workloads", "speedups")

#: per-measurement keys every algorithm entry must carry
REQUIRED_MEASUREMENT_KEYS = (
    "ms",
    "ccp",
    "cost",
    "table_entries",
    "neighborhood_calls",
    "neighborhood_cache_hits",
    "neighborhood_cache_misses",
)


def default_workloads(max_n: Optional[int] = None) -> list:
    """The chain/cycle/star regression suite at scaled sizes.

    ``max_n`` additionally clamps every size (CI smoke uses tiny
    values); cycles need three relations and stars one satellite, so
    the clamp never goes below the shape's minimum.
    """

    def clamp(n: int, floor: int) -> int:
        if max_n is None:
            return n
        return max(floor, min(n, max_n))

    chain_n = clamp(scaled(18, 16), 2)
    cycle_n = clamp(scaled(16, 14), 3)
    star_satellites = clamp(scaled(12, 11), 1)
    return [
        ("chain", generators.chain(chain_n)),
        ("cycle", generators.cycle(cycle_n)),
        ("star", generators.star(star_satellites)),
    ]


def kernel_workloads(max_n: Optional[int] = None) -> list:
    """The large-n tier where DPhyp's flat-array offer must earn its keep.

    Chains and cycles run at 30–60 relations (where the
    ``--min-speedup`` gate applies, see :data:`KERNEL_GATE_MIN_N`);
    star and clique stay at the largest sizes a pure-Python CI run can
    afford — their exponential/3^n csg-cmp-pair counts make 30
    relations intractable — and contribute exact cost/ccp pinning plus
    a dense-graph speedup data point.
    """

    def clamp(n: int, floor: int) -> int:
        if max_n is None:
            return n
        return max(floor, min(n, max_n))

    sizes = [
        ("chain", generators.chain, clamp(scaled(30, 30), 2)),
        ("chain", generators.chain, clamp(scaled(40, 40), 2)),
        ("chain", generators.chain, clamp(scaled(60, 60), 2)),
        ("cycle", generators.cycle, clamp(scaled(30, 30), 3)),
        ("cycle", generators.cycle, clamp(scaled(40, 40), 3)),
        ("star", generators.star, clamp(scaled(16, 16), 1)),
        ("clique", generators.clique, clamp(scaled(12, 12), 2)),
    ]
    workloads = []
    seen = set()
    for shape, make, n in sizes:
        name = f"{shape}-{n}"
        if name in seen:  # --max-n can collapse the chain ladder
            continue
        seen.add(name)
        workloads.append((name, make(n)))
    return workloads


def run_regression(
    max_n: Optional[int] = None,
    repeat: int = 3,
    label: str = "",
    algorithms=None,
    tier: str = "default",
) -> dict:
    """Measure one regression tier and return the JSON document.

    ``tier="default"`` is the historical chain/cycle/star suite;
    ``tier="kernel"`` is the large-n suite from
    :func:`kernel_workloads`.  Both time dphyp against dphyp-recursive
    and emit the same schema; the tier is recorded in the document.
    """
    if tier not in TIERS:
        raise ValueError(f"unknown tier {tier!r}")
    if algorithms is None:
        algorithms = ALGORITHMS
    tier_workloads = (
        kernel_workloads(max_n) if tier == "kernel"
        else default_workloads(max_n)
    )
    baseline_name, contender_name = SPEEDUP_PAIR
    workloads = []
    speedups = {}
    for shape, query in tier_workloads:
        results = {}
        for algorithm in algorithms:
            measurement = measure_algorithm(
                query.graph, query.cardinalities, algorithm, repeat=repeat
            )
            stats = measurement.stats.as_dict()
            results[algorithm] = {
                "ms": round(measurement.milliseconds, 4),
                "ccp": measurement.ccp,
                "cost": measurement.cost,
                "table_entries": stats["table_entries"],
                "neighborhood_calls": stats["neighborhood_calls"],
                "neighborhood_cache_hits": stats["neighborhood_cache_hits"],
                "neighborhood_cache_misses": stats[
                    "neighborhood_cache_misses"
                ],
            }
        workloads.append(
            {
                "workload": shape,
                "query": query.description,
                "n_relations": query.n_relations,
                "results": results,
            }
        )
        base = results.get(baseline_name)
        new = results.get(contender_name)
        if base and new and new["ms"] > 0:
            speedups[query.description] = round(base["ms"] / new["ms"], 3)
    return {
        "schema_version": SCHEMA_VERSION,
        "tier": tier,
        "label": label,
        "created_unix": round(time.time(), 1),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "repeat": repeat,
        "workloads": workloads,
        "speedups": speedups,
    }


def validate_result(document: dict) -> None:
    """Raise ``ValueError`` when ``document`` violates the schema.

    Used by the CI smoke job (and the test suite) so schema drift is an
    explicit, reviewed event — bump :data:`SCHEMA_VERSION` when
    changing the layout.
    """
    for key in REQUIRED_KEYS:
        if key not in document:
            raise ValueError(f"regression JSON missing key {key!r}")
    if document["schema_version"] != SCHEMA_VERSION:
        raise ValueError(
            f"schema_version {document['schema_version']!r} != {SCHEMA_VERSION}"
        )
    if not document["workloads"]:
        raise ValueError("regression JSON has no workloads")
    for entry in document["workloads"]:
        for key in ("workload", "query", "n_relations", "results"):
            if key not in entry:
                raise ValueError(f"workload entry missing key {key!r}")
        if not entry["results"]:
            raise ValueError(f"workload {entry['workload']!r} has no results")
        for algorithm, measurement in entry["results"].items():
            for key in REQUIRED_MEASUREMENT_KEYS:
                if key not in measurement:
                    raise ValueError(
                        f"{entry['workload']}/{algorithm} missing {key!r}"
                    )


def compare_documents(
    current: dict, baseline: dict, tolerance: float = 1.3
) -> list[str]:
    """Diff ``current`` against a committed baseline document.

    Returns a list of human-readable regression messages (empty means
    the run is clean).  Three guards per shared workload shape:

    * **cost** must match exactly — a change means the optimizer now
      picks a different plan (a correctness/quality regression);
    * **ccp** must match exactly — a change means the enumerated
      search space drifted;
    * **time** may not regress by more than ``tolerance``.  Wall-clock
      is not comparable across machines, so when both documents carry
      the ``dphyp-recursive`` baseline the check uses the
      hardware-normalized ratio ``dphyp_ms / dphyp_recursive_ms``;
      only absent that does it fall back to raw milliseconds.

    Workloads whose recorded query differs (e.g. a ``--max-n`` clamp)
    are skipped with a note rather than compared apples-to-oranges.
    """
    problems: list[str] = []
    base_by_shape = {w["workload"]: w for w in baseline.get("workloads", [])}
    current_by_shape = {w["workload"]: w for w in current["workloads"]}
    # Baseline coverage that vanished from the current run would
    # silently hollow out the gate — flag it instead of skipping.
    for shape, base in base_by_shape.items():
        entry = current_by_shape.get(shape)
        if entry is None:
            problems.append(
                f"{shape}: workload present in baseline but missing from "
                "the current run (coverage loss)"
            )
            continue
        for algorithm in base["results"]:
            if algorithm not in entry["results"]:
                problems.append(
                    f"{shape}/{algorithm}: measured in baseline but missing "
                    "from the current run (coverage loss)"
                )
    for entry in current["workloads"]:
        shape = entry["workload"]
        base = base_by_shape.get(shape)
        if base is None:
            continue
        if entry["query"] != base["query"]:
            problems.append(
                f"{shape}: query {entry['query']!r} != baseline "
                f"{base['query']!r} (size mismatch — run at baseline sizes)"
            )
            continue
        for algorithm, measurement in entry["results"].items():
            base_measurement = base["results"].get(algorithm)
            if base_measurement is None:
                continue
            if measurement["ccp"] != base_measurement["ccp"]:
                problems.append(
                    f"{shape}/{algorithm}: ccp {measurement['ccp']} != "
                    f"baseline {base_measurement['ccp']} (search space drift)"
                )
            if measurement["cost"] != base_measurement["cost"]:
                problems.append(
                    f"{shape}/{algorithm}: cost {measurement['cost']} != "
                    f"baseline {base_measurement['cost']} (plan drift)"
                )
        ratio = _time_ratio(entry["results"], base["results"])
        if ratio is not None and ratio > tolerance:
            problems.append(
                f"{shape}: dphyp is {ratio:.2f}x slower than baseline "
                f"(tolerance {tolerance}x)"
            )
    return problems


def _time_ratio(current: dict, baseline: dict) -> Optional[float]:
    """Slowdown factor of dphyp vs the baseline document.

    Normalized by another algorithm's in-document time when both
    documents measured ``dphyp-recursive`` (so CI hardware differences
    cancel out); raw milliseconds only when no shared reference exists.
    """
    cur = current.get("dphyp")
    base = baseline.get("dphyp")
    if not cur or not base or not cur["ms"] or not base["ms"]:
        return None
    cur_ref = current.get("dphyp-recursive")
    base_ref = baseline.get("dphyp-recursive")
    if cur_ref and base_ref and cur_ref["ms"] and base_ref["ms"]:
        return (cur["ms"] / cur_ref["ms"]) / (base["ms"] / base_ref["ms"])
    return cur["ms"] / base["ms"]


def kernel_gate_problems(document: dict, min_speedup: float) -> list[str]:
    """The ``--min-speedup`` gate for the kernel tier.

    Two guards, both hardware-normalized because they compare numbers
    measured within the *same* run:

    * every workload that timed both algorithms must report exactly
      equal ``cost`` and ``ccp`` — DPhyp's contract with its oracle is
      bit-identical plans over an identical search space;
    * on workloads of at least :data:`KERNEL_GATE_MIN_N` relations,
      ``dphyp`` must beat ``dphyp-recursive`` by ``min_speedup``.
    """
    problems: list[str] = []
    gated = 0
    for entry in document["workloads"]:
        shape = entry["workload"]
        base = entry["results"].get("dphyp-recursive")
        new = entry["results"].get("dphyp")
        if not base or not new:
            problems.append(
                f"{shape}: gate needs both dphyp-recursive and dphyp "
                "measured"
            )
            continue
        if new["cost"] != base["cost"]:
            problems.append(
                f"{shape}: dphyp cost {new['cost']!r} != dphyp-recursive "
                f"{base['cost']!r} (must be bit-identical)"
            )
        if new["ccp"] != base["ccp"]:
            problems.append(
                f"{shape}: dphyp ccp {new['ccp']} != dphyp-recursive "
                f"{base['ccp']} (search space drift)"
            )
        if entry["n_relations"] < KERNEL_GATE_MIN_N:
            continue
        gated += 1
        speedup = base["ms"] / new["ms"] if new["ms"] else float("inf")
        if speedup < min_speedup:
            problems.append(
                f"{shape}: dphyp speedup {speedup:.2f}x < "
                f"required {min_speedup}x"
            )
    if not gated:
        problems.append(
            f"no workload reached {KERNEL_GATE_MIN_N} relations — the "
            "speedup gate checked nothing (raise --max-n)"
        )
    return problems


def render_summary(document: dict) -> str:
    """Small aligned text table for terminal output."""
    lines = [
        f"regression suite (schema v{document['schema_version']}, "
        f"python {document['python']})"
    ]
    for entry in document["workloads"]:
        parts = [f"  {entry['query']:>12}"]
        for algorithm, measurement in entry["results"].items():
            parts.append(f"{algorithm}={measurement['ms']:.2f}ms")
        parts.append(f"ccp={next(iter(entry['results'].values()))['ccp']}")
        lines.append("  ".join(parts))
    speedup_label = (
        "kernel speedup" if document.get("tier") == "kernel"
        else "iterative speedup"
    )
    for query, factor in document.get("speedups", {}).items():
        lines.append(f"  {query:>12}  {speedup_label} {factor:.2f}x")
    return "\n".join(lines)


def main(argv=None) -> int:
    """CLI used by ``benchmarks/bench_regression.py`` and the bench
    ``regression`` subcommand."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="bench_regression",
        description=(
            "Time the DPhyp hot path on chain/cycle/star and emit a "
            "BENCH_*.json perf-trajectory document"
        ),
    )
    parser.add_argument(
        "--out", help="write the JSON document to this path", default=None
    )
    parser.add_argument(
        "--tier", choices=TIERS, default="default",
        help="workload tier: 'default' (chain/cycle/star, dphyp vs "
             "dphyp-recursive) or 'kernel' (30-60 relation large-n "
             "suite, same pair)",
    )
    parser.add_argument(
        "--min-speedup", type=float, default=None, metavar="FACTOR",
        help="kernel tier only: fail unless dphyp beats dphyp-recursive "
             "by this factor on every workload of at least "
             f"{KERNEL_GATE_MIN_N} relations (cost/ccp equality is "
             "always enforced)",
    )
    parser.add_argument(
        "--max-n", type=int, default=None,
        help="clamp every workload size (CI smoke uses tiny values)",
    )
    parser.add_argument(
        "--repeat", type=int, default=3, help="timing repetitions per point"
    )
    parser.add_argument(
        "--label", default="", help="free-form label stored in the document"
    )
    parser.add_argument(
        "--compare", default=None, metavar="BASELINE.json",
        help="diff against a committed baseline document; non-zero exit "
             "on cost/ccp drift or slowdown beyond --tolerance",
    )
    parser.add_argument(
        "--tolerance", type=float, default=1.3,
        help="max allowed slowdown factor vs the baseline (default 1.3)",
    )
    args = parser.parse_args(argv)
    if args.min_speedup is not None and args.tier != "kernel":
        parser.error("--min-speedup only applies to --tier kernel")

    document = run_regression(
        max_n=args.max_n, repeat=args.repeat, label=args.label,
        tier=args.tier,
    )
    validate_result(document)
    print(render_summary(document))
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.out}", file=sys.stderr)
    if args.min_speedup is not None:
        problems = kernel_gate_problems(document, args.min_speedup)
        if problems:
            for problem in problems:
                print(f"GATE: {problem}", file=sys.stderr)
            return 1
        print(f"kernel gate passed (min speedup {args.min_speedup}x "
              f"at n >= {KERNEL_GATE_MIN_N})")
    if args.compare:
        with open(args.compare) as handle:
            baseline = json.load(handle)
        problems = compare_documents(document, baseline, args.tolerance)
        if problems:
            for problem in problems:
                print(f"REGRESSION: {problem}", file=sys.stderr)
            return 1
        print(f"no regression vs {args.compare} "
              f"(tolerance {args.tolerance}x)")
    return 0
