"""Benchmark CLI: regenerate the paper's tables and figures.

Usage::

    python -m repro.bench list
    python -m repro.bench run fig5-cycle8
    python -m repro.bench run all
    REPRO_BENCH_FULL=1 python -m repro.bench run fig6-star16   # paper size
    python -m repro.bench run fig7-regular --markdown
    python -m repro.bench regression --out BENCH_new.json
    python -m repro.bench throughput --out BENCH_new.json --min-speedup 5
"""

from __future__ import annotations

import argparse
import sys

from .experiments import EXPERIMENTS
from .reporting import render_markdown, render_table, summarize_winners


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "regression":
        # Forward verbatim so the flag set lives in one place
        # (repro.bench.regression.main), --help included.
        from .regression import main as regression_main

        return regression_main(argv[1:])
    if argv and argv[0] == "throughput":
        from .throughput import main as throughput_main

        return throughput_main(argv[1:])
    if argv and argv[0] == "serving":
        from .serving import main as serving_main

        return serving_main(argv[1:])
    if argv and argv[0] == "profile":
        from .profile import main as profile_main

        return profile_main(argv[1:])

    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description=(
            "Reproduce the evaluation of 'Dynamic Programming Strikes "
            "Back' (Moerkotte & Neumann, SIGMOD 2008)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list experiment ids")
    run = sub.add_parser("run", help="run one experiment (or 'all')")
    run.add_argument("experiment", help="experiment id or 'all'")
    run.add_argument(
        "--markdown", action="store_true", help="emit a markdown table"
    )
    run.add_argument(
        "--no-ccp", action="store_true", help="omit csg-cmp-pair counts"
    )
    # listed for --help only; dispatched before parsing, above
    sub.add_parser(
        "regression",
        help="time the chain/cycle/star hot path (--tier kernel for "
             "the 30-60 relation suite), emit BENCH_*.json",
    )
    sub.add_parser(
        "throughput",
        help="plan-cache serving throughput (hot vs cold q/s), "
             "emit BENCH_*.json",
    )
    sub.add_parser(
        "serving",
        help="resident plan-serving daemon vs per-batch process pools "
             "(q/s, p50/p99, pool tasks per unique key), "
             "emit BENCH_*.json",
    )
    sub.add_parser(
        "profile",
        help="cProfile one optimizer run: hot functions plus "
             "search/materialize/costing phase totals",
    )
    args = parser.parse_args(argv)

    if args.command == "list":
        for experiment_id, fn in EXPERIMENTS.items():
            doc = (fn.__doc__ or "").strip().splitlines()[0]
            print(f"{experiment_id:18} {doc}")
        return 0

    ids = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    unknown = [i for i in ids if i not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {unknown}", file=sys.stderr)
        print(f"available: {', '.join(EXPERIMENTS)}", file=sys.stderr)
        return 2
    for experiment_id in ids:
        result = EXPERIMENTS[experiment_id]()
        if args.markdown:
            print(render_markdown(result))
        else:
            print(render_table(result, show_ccp=not args.no_ccp))
            print(f"  shape: {summarize_winners(result)}")
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
