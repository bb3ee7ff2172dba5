"""Timing harness for the experiment drivers.

The enumeration algorithms are deterministic, so a measurement is a
``min`` over a few repetitions of a single cold run (classic
micro-benchmark practice; repetitions shrink automatically for slow
configurations to keep the whole suite snappy).

Scaling knobs (see DESIGN.md, "Substitutions"): the paper measures C++
on a 3.2 GHz Pentium D; pure Python is orders of magnitude slower, so
the largest paper configurations are intractable here.  Each driver
asks :func:`scaled` for its size: by default sizes are clamped to
laptop-Python-friendly values, ``REPRO_BENCH_FULL=1`` unlocks the
paper-sized runs, and ``REPRO_BENCH_MAX_N=<k>`` sets a custom cap.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from ..core.hypergraph import Hypergraph
from ..core.plans import JoinPlanBuilder
from ..core.stats import SearchStats
from ..optimizer import Optimizer, OptimizerConfig


def scaled(paper_n: int, default_cap: int) -> int:
    """Resolve an experiment size: the paper's value, capped.

    ``REPRO_BENCH_FULL=1`` returns the paper size; ``REPRO_BENCH_MAX_N``
    overrides the cap; otherwise ``min(paper_n, default_cap)``.
    """
    if os.environ.get("REPRO_BENCH_FULL") == "1":
        return paper_n
    cap_text = os.environ.get("REPRO_BENCH_MAX_N")
    cap = int(cap_text) if cap_text else default_cap
    return min(paper_n, cap)


@dataclass
class Measurement:
    """One timed optimizer run."""

    milliseconds: float
    stats: SearchStats
    cost: Optional[float] = None

    @property
    def ccp(self) -> int:
        return self.stats.ccp_emitted


def time_call(
    fn: Callable[[], object],
    repeat: int = 3,
    slow_threshold_ms: float = 300.0,
) -> float:
    """Minimum wall-clock milliseconds over up to ``repeat`` runs.

    A run slower than ``slow_threshold_ms`` is not repeated — large
    configurations are already far above timer resolution.
    """
    best = float("inf")
    for _ in range(max(repeat, 1)):
        start = time.perf_counter()
        fn()
        elapsed = (time.perf_counter() - start) * 1000.0
        best = min(best, elapsed)
        if elapsed > slow_threshold_ms:
            break
    return best


def measure_algorithm(
    graph: Hypergraph,
    cardinalities: list[float],
    algorithm,
    repeat: int = 3,
) -> Measurement:
    """Time one join-ordering algorithm on a hypergraph query.

    ``algorithm`` is a registry name (resolved through the
    capability-aware registry and run via the :class:`repro.Optimizer`
    facade — the same code path users take), a pre-configured
    :class:`repro.Optimizer` instance, or a solver callable ``(graph,
    builder, stats) -> plan`` directly for unregistered experiments
    (e.g. DPhyp with memoization disabled).
    """
    if isinstance(algorithm, (str, Optimizer)):
        if isinstance(algorithm, str):
            # OptimizerConfig validates the name and raises the
            # canonical "unknown algorithm" error.
            facade = Optimizer(OptimizerConfig(
                algorithm=algorithm, on_disconnected="plan-none"
            ))
        else:
            facade = algorithm

        def run():
            return facade.optimize(graph, cardinalities=cardinalities)

        milliseconds = time_call(run, repeat)
        # One extra instrumented run for stats and cost (not timed).
        result = facade.optimize(graph, cardinalities=cardinalities)
        return Measurement(
            milliseconds=milliseconds,
            stats=result.stats,
            cost=result.plan.cost if result.plan is not None else None,
        )

    solver = algorithm

    def run() -> None:
        stats = SearchStats()
        builder = JoinPlanBuilder(graph, cardinalities, stats=stats)
        solver(graph, builder, stats)

    milliseconds = time_call(run, repeat)
    stats = SearchStats()
    builder = JoinPlanBuilder(graph, cardinalities, stats=stats)
    plan = solver(graph, builder, stats)
    return Measurement(
        milliseconds=milliseconds,
        stats=stats,
        cost=plan.cost if plan is not None else None,
    )


def measure_tree(
    tree,
    algorithm: str = "dphyp",
    mode: str = "hyperedges",
    repeat: int = 3,
) -> Measurement:
    """Time operator-tree optimization (Section 5 experiments)."""
    facade = Optimizer(OptimizerConfig(algorithm=algorithm, mode=mode))

    def run() -> None:
        facade.optimize(tree)

    milliseconds = time_call(run, repeat)
    result = facade.optimize(tree)
    return Measurement(
        milliseconds=milliseconds,
        stats=result.stats,
        cost=result.cost if result.plan is not None else None,
    )


@dataclass
class Series:
    """One algorithm's curve in an experiment."""

    label: str
    points: dict = field(default_factory=dict)  # x -> Measurement


@dataclass
class ExperimentResult:
    """A full table/figure reproduction: x-axis plus one series per
    algorithm, mirroring how the paper reports results."""

    experiment_id: str
    title: str
    x_label: str
    x_values: list
    series: list[Series]
    notes: str = ""

    def series_by_label(self, label: str) -> Series:
        for series in self.series:
            if series.label == label:
                return series
        raise KeyError(label)
