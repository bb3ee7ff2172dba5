"""The repository benchmark: one workload per run, or all of them.

Run from the root of a checkout::

    python3 perfbench/run.py --workload plan-cold --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

``--trace 0`` prints every end-to-end metric, ``--trace 1`` every
per-layer metric and the tracing overhead.  Each metric is printed by
name with its unit; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only when every answer matched the
oracle and the seed-fixed counts matched earlier runs of the same seed.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Optional, Sequence

sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import env  # noqa: E402

WORKLOADS = ("plan-cold", "plan-hot", "serve-mixed", "batch-process")


def parse(argv: "Optional[Sequence[str]]") -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py", description=__doc__.splitlines()[0]
    )
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def print_table(workload: str, result: dict) -> None:
    print(f"# {workload}: correct={result['correct']} "
          f"attempted={result['attempted']} failed={result['failed']}")
    for name, metric in result["metrics"].items():
        print(f"{name:<34} {metric['value']:>16.6g} {metric['unit']}")


def run_all(args: argparse.Namespace) -> int:
    """Every workload, one at a time, each in a fresh process."""
    results = {}
    status = 0
    for workload in WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if done.returncode != 0 or not lines:
            status = 1
        if lines:
            try:
                results[workload] = json.loads(lines[-1])
            except ValueError:
                status = 1
    print(json.dumps(results))
    return status


def main(argv: "Optional[Sequence[str]]" = None) -> int:
    args = parse(argv)
    try:
        env.require_program()
    except env.MissingProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    env.install_signal_handlers()
    env.sweep_stale_work()
    env.prune_caches()
    from harness import runner

    janitor = env.Janitor()
    try:
        result, notes = runner.run(
            args.workload, args.seed, args.seconds, bool(args.trace), janitor
        )
    except (KeyboardInterrupt, env.Interrupted) as exc:
        print(f"perfbench: interrupted ({exc})", file=sys.stderr)
        return 130
    finally:
        janitor.close()
    for note in notes:
        print(f"# {note}")
    print_table(args.workload, result)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
