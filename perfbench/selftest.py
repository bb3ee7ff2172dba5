"""Self-tests of the benchmark harness.

Not collected by the repository's test suite (the file name does not
match ``test_*.py``); run them explicitly from a checkout root::

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import json
import os
import re
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

from harness import env, metrics, stats, streams, tracing, verify  # noqa: E402


# -- streams ------------------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(streams.BUILDERS))
def test_same_seed_same_stream_other_seed_other_stream(workload: str) -> None:
    first = streams.fingerprint(streams.build(workload, 7))
    again = streams.fingerprint(streams.build(workload, 7))
    other = streams.fingerprint(streams.build(workload, 8))
    assert first == again
    assert first != other


def test_decks_fix_the_work_mix_across_seeds() -> None:
    def mix(seed: int) -> "list[tuple[int, int]]":
        stream = streams.build("plan-cold", seed)
        return sorted(
            (r.query.graph.n_nodes, len(r.query.graph.edges))
            for r in stream.requests
        )

    assert mix(1) == mix(2)


# -- metric names and BENCHMARK.json --------------------------------------------


def test_every_metric_name_is_valid() -> None:
    names = list(metrics.END_TO_END) + list(metrics.PER_LAYER)
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name


def test_benchmark_json_matches_the_harness() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert spec["paths"] == ["perfbench"]
    # serve-mixed runs on demand; its layers are measured by the traced
    # batch-process run (see README.md)
    assert [w["name"] for w in spec["workloads"]] == [
        "plan-cold", "plan-hot", "batch-process"
    ]
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} \
        == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == metrics.PER_LAYER
    for metric in spec["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    assert max(m["bound"] for m in spec["end_to_end"]) == next(
        m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s"
    )
    layered = {name for _m, names, _s, _f in metrics.LAYER_MAP.values()
               for name in names}
    assert layered == set(metrics.PER_LAYER)


# -- reporting rules ------------------------------------------------------------


def test_tail_percentile_needs_ten_samples_beyond_it() -> None:
    with pytest.raises(stats.TooFewSamples):
        stats.tail(list(range(999)), 0.99)
    assert stats.tail(list(range(1000)), 0.99) == 989
    with pytest.raises(stats.TooFewSamples):
        stats.tail(list(range(99)), 0.90)
    assert stats.tail(list(range(100)), 0.90) == 89


def test_spread_is_interquartile_distance_over_median() -> None:
    values = [1.0, 2.0, 3.0, 4.0, 5.0]
    q1, q2, q3 = __import__("statistics").quantiles(values, n=4)
    assert stats.spread(values) == pytest.approx((q3 - q1) / q2)


# -- answer checking --------------------------------------------------------------


def test_an_injected_wrong_cost_lowers_ok_frac() -> None:
    checker = verify.Verifier([100.0, 200.0, 300.0, 400.0])
    assert checker.check(0, 100.0, "dpccp")
    assert not checker.check(1, 200.0 * 1.001, "dphyp")  # exact, wrong
    assert checker.check(2, 330.0, "greedy")  # heuristic, 10% worse
    assert not checker.check(3, 399.0, "greedy")  # beats the optimum
    checker.fail("error frame")
    assert checker.attempted == 5
    assert checker.failed == 3
    assert checker.ok_frac == pytest.approx(2 / 5)
    assert checker.cost_ratio == pytest.approx((1.0 * 1.1) ** 0.5)


def test_count_records_catch_a_changed_count(tmp_path, monkeypatch) -> None:
    monkeypatch.setattr(env, "CACHE_DIR", tmp_path)
    assert verify.check_counts("plan-cold", 3, {"cache.misses": 5}) == []
    assert verify.check_counts("plan-cold", 3, {"cache.misses": 5}) == []
    assert verify.check_counts("plan-cold", 3, {"cache.misses": 6})


def test_traced_stages_leave_plans_and_keys_unchanged() -> None:
    from repro import Optimizer, OptimizerConfig
    from repro.cache.plan_cache import PlanCache

    stream = streams.build("plan-cold", 2)
    queries = [request.query for request in stream.requests[:40]]
    plain_cache, traced_cache = PlanCache(), PlanCache()
    plain = Optimizer(plan_cache=plain_cache).optimize_many(queries)
    recorder = tracing.Recorder()
    traced = Optimizer(
        OptimizerConfig(pipeline=tracing.traced_pipeline(recorder)),
        plan_cache=traced_cache,
    ).optimize_many(queries)
    assert [r.cost for r in plain] == [r.cost for r in traced]
    assert [r.algorithm for r in plain] == [r.algorithm for r in traced]
    assert [key for key, _e in plain_cache.snapshot_entries()] == [
        key for key, _e in traced_cache.snapshot_entries()
    ]
    names = {span[1] for span in recorder.spans}
    assert {"normalize", "fingerprint", "cache.lookup", "dispatch",
            "cache.store", "finalize"} <= names


# -- hygiene --------------------------------------------------------------------------


def _start_serve_mixed() -> "tuple[subprocess.Popen, int, tuple[str, int]]":
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload",
         "serve-mixed", "--seed", "1", "--seconds", "60"],
        cwd=str(ROOT), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True,
    )
    assert proc.stderr is not None
    deadline = time.monotonic() + 300
    while time.monotonic() < deadline:
        line = proc.stderr.readline()
        match = re.match(r"daemon (\d+) listening on (.+):(\d+)", line)
        if match:
            return proc, int(match[1]), (match[2], int(match[3]))
        if not line and proc.poll() is not None:
            break
    proc.kill()
    proc.wait()
    raise AssertionError("the benchmark never started its daemon")


def _gone(pid: int, timeout: float) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return True
        time.sleep(0.1)
    return False


def _port_closed(address: "tuple[str, int]") -> bool:
    try:
        socket.create_connection(address, timeout=2).close()
    except OSError:
        return True
    return False


def _benchmark_processes() -> "list[int]":
    found = []
    marker = str(env.WORK_DIR).encode()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/cmdline", "rb") as handle:
                if marker in handle.read():
                    found.append(int(entry))
        except OSError:
            continue
    return found


@pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT,
                                    signal.SIGKILL])
def test_a_killed_run_leaves_nothing_behind(signum: int) -> None:
    segments = env.shm_segments()
    proc, daemon_pid, address = _start_serve_mixed()
    workers = env.proc_children(daemon_pid)
    proc.send_signal(signum)
    proc.wait(timeout=120)
    assert proc.stderr is not None
    proc.stderr.close()
    assert proc.returncode != 0
    for pid in [daemon_pid] + workers:
        assert _gone(pid, 30), f"process {pid} outlived the benchmark"
    assert _port_closed(address)
    deadline = time.monotonic() + 30
    while env.shm_segments() - segments and time.monotonic() < deadline:
        time.sleep(0.2)
    assert not env.shm_segments() - segments
    assert not _benchmark_processes()
    env.sweep_stale_work()
    leftovers = [
        entry for entry in (env.WORK_DIR.iterdir() if env.WORK_DIR.is_dir()
                            else [])
        if entry.name.startswith(f"{proc.pid}-")
    ]
    assert not leftovers


def test_missing_program_exits_nonzero_without_a_result(tmp_path) -> None:
    bare = tmp_path / "bare"
    (bare / "perfbench").mkdir(parents=True)
    for path in BENCH_DIR.rglob("*.py"):
        if ".work" in path.parts or ".cache" in path.parts:
            continue
        target = bare / "perfbench" / path.relative_to(BENCH_DIR)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(path.read_bytes())
    (bare / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "plan-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=str(bare), capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
