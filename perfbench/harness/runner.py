"""One benchmark run: inputs, oracle, workload, checks, result line."""

from __future__ import annotations

import gc
import json
import pickle
import subprocess
import sys
from typing import Any

from . import calibrate, env, inproc, metrics, serve, stats, streams, verify
from .verify import Verifier

UNITS = {name: unit for name, (unit, _) in metrics.END_TO_END.items()}
#: end-to-end metrics the in-process workloads report at the reference
#: machine speed (see ``harness/calibrate.py``)
SCALED = ("qps", "latency_ms_p50", "latency_ms_p99", "batch_ms_p50",
          "batch_ms_p90")

#: layers only the daemon has; a traced batch-process run measures them
#: with the serve-mixed traffic, because serve-mixed's end-to-end figures
#: are too unsteady on a shared 2-CPU VM to be a gated workload
SERVING_LAYERS = ("wire", "server", "sync", "tier", "store")

#: fresh-interpreter start-ups whose median is ``setup_s``
SETUP_PROBES = 7
PROBE_TIMEOUT = 120.0


def setup_time(
    warm_queries: "list[Any]", janitor: env.Janitor
) -> "tuple[float, float]":
    """Median start-up time over fresh interpreters (``setup_probe.py``).

    Returns it as measured and at the reference machine speed, each
    probe scaled by the calibration kernel it ran after its start-up.
    """
    path = janitor.scratch_dir() / "warm.pickle"
    with open(path, "wb") as handle:
        pickle.dump(warm_queries, handle)
    measured, scaled = [], []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(env.BENCH_DIR / "setup_probe.py"), str(path)],
            cwd=str(env.ROOT), env=env.child_env(), capture_output=True,
            text=True, timeout=PROBE_TIMEOUT, check=True,
        )
        sample = json.loads(done.stdout.strip().splitlines()[-1])
        measured.append(sample["setup_s"])
        scaled.append(
            sample["setup_s"] * calibrate.REFERENCE_MS / sample["kernel_ms"]
        )
    return stats.median(measured), stats.median(scaled)


def serving_layers(
    seed: int,
    seconds: float,
    janitor: env.Janitor,
    values: "dict[str, float]",
    verifier: Verifier,
) -> Verifier:
    """Add the daemon's per-layer metrics from a traced serve-mixed run.

    Returns a verifier that accounts for both runs' answers.
    """
    stream = streams.build("serve-mixed", seed)
    checker = Verifier(verify.oracle_costs("serve-mixed", seed, stream.uniques))
    gc.freeze()
    serving = serve.run(stream, seed, checker, seconds, True, janitor)
    values.update(
        (name, value) for name, value in serving.items()
        if name.split(".", 1)[0] in SERVING_LAYERS
    )
    checker.attempted += verifier.attempted
    checker.failed += verifier.failed
    checker.first_failures = verifier.first_failures + checker.first_failures
    return checker


def run(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    janitor: env.Janitor,
) -> "tuple[dict[str, Any], list[str]]":
    """The result object, and notes for the human-readable table."""
    stream = streams.build(workload, seed)
    verifier = Verifier(verify.oracle_costs(workload, seed, stream.uniques))
    # the inputs live for the whole run: keep them out of the cyclic
    # collector's scans, so its pauses reflect the program's own objects
    gc.collect()
    gc.freeze()
    problems: "list[str]" = []
    notes: "list[str]" = []
    if workload == "serve-mixed":
        values = serve.run(stream, seed, verifier, seconds, trace, janitor)
        scaled = values
    else:
        outcome = inproc.run(workload, stream, verifier, seconds, trace)
        values, speed = outcome.metrics, outcome.speed
        scaled = values
        problems += verify.check_counts(workload, seed, outcome.counts)
        if trace and workload == "batch-process":
            verifier = serving_layers(seed, seconds, janitor, values, verifier)
        if not trace:
            values["setup_s"], setup_scaled = setup_time(
                outcome.warm_queries, janitor
            )
            scaled = speed.scale(values, SCALED, UNITS)
            scaled["setup_s"] = setup_scaled
            notes.append(
                f"machine speed {speed.factor:.6g} (calibration kernel "
                f"median {calibrate.REFERENCE_MS / speed.factor:.4g} ms "
                f"over {len(speed.samples_ms)} samples; reference "
                f"{calibrate.REFERENCE_MS} ms)"
            )
            notes += [
                f"as measured: {name} = {values[name]!r} {UNITS[name]}"
                for name in SCALED + ("setup_s",)
            ]
    if trace:
        wanted = metrics.PER_LAYER
    else:
        wanted = UNITS
        values = dict(scaled, ok_frac=verifier.ok_frac,
                      cost_ratio=verifier.cost_ratio)
    unknown = sorted(set(values) - set(wanted))
    if unknown:
        raise RuntimeError(f"metrics outside BENCHMARK.json: {unknown}")
    missing = [] if trace else sorted(set(wanted) - set(values))
    if missing:
        raise RuntimeError(f"end-to-end metrics not measured: {missing}")
    for problem in problems:
        print(f"count mismatch against an earlier run of seed {seed}: "
              f"{problem}", file=sys.stderr)
    for failure in verifier.first_failures:
        print(f"wrong answer: {failure}", file=sys.stderr)
    return {
        "correct": verifier.failed == 0 and not problems,
        "attempted": verifier.attempted,
        "failed": verifier.failed,
        "metrics": {
            # a layer the workload does not exercise did no work: 0
            name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, unit in wanted.items()
        },
    }, notes
