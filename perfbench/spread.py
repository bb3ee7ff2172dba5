"""Run-to-run spread of the benchmark's metrics over several seeds.

Runs ``perfbench/run.py`` once per seed, one run at a time, and prints
for every metric its median, its quartiles and the driver's spread
(inter-quartile distance over the median), next to the metric's bound
from ``BENCHMARK.json`` when it has one.  Run from a checkout root::

    python3 perfbench/spread.py --workload plan-cold --seeds 1-10
    python3 perfbench/spread.py --workload serve-mixed --seeds 1-5 --trace 1

Exits 1 when a run fails or an end-to-end spread (``setup_s`` aside)
reaches its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from harness import stats  # noqa: E402


def seeds(text: str) -> "list[int]":
    if "-" in text:
        low, high = text.split("-", 1)
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json-out", default=None,
                        help="also write every run's result line here")
    args = parser.parse_args()
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values: "dict[str, list[float]]" = {}
    runs = []
    status = 0
    for seed in args.seeds:
        done = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"seed {seed}: exit {done.returncode}", flush=True)
            status = 1
            continue
        result = json.loads(lines[-1])
        runs.append({"seed": seed, **result})
        for line in lines[:-1]:
            # "# as measured: NAME = VALUE UNIT" and "# machine speed X"
            parts = line.split()
            if line.startswith("# as measured:"):
                values.setdefault(f"raw:{parts[3]}", []).append(
                    float(parts[5])
                )
            elif line.startswith("# machine speed"):
                values.setdefault("machine_speed", []).append(float(parts[3]))
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(
            f"{name}={metric['value']:.6g}"
            for name, metric in result["metrics"].items()
            if name in bounds
        ), flush=True)
    print(f"{'metric':<34} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}")
    for name, series in values.items():
        if len(series) < 2:
            continue
        q1, _q2, q3 = statistics.quantiles(series, n=4)
        share = stats.spread(series)
        bound = bounds.get(name)
        flag = ""
        if bound is not None and share is not None and name != "setup_s":
            if share >= bound:
                flag, status = "  OVER BOUND", 1
            elif share >= bound / 3:
                flag = "  over a third"
        print(f"{name:<34} {statistics.median(series):>12.6g} {q1:>12.6g} "
              f"{q3:>12.6g} "
              f"{share if share is not None else float('nan'):>8.4f} "
              f"{bound if bound is not None else '':>6}{flag}")
    if args.json_out:
        Path(args.json_out).write_text(json.dumps(runs, indent=1))
    return status


if __name__ == "__main__":
    sys.exit(main())
