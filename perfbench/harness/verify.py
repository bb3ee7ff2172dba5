"""Answer checking against the recursive-DPhyp oracle, and count records.

The oracle is ``dphyp-recursive``, one of the repository's reference
enumerators; the production routes (``dpccp``, ``dphyp``,
``dphyp-kernel``) never judge themselves.  Oracle costs are computed
before any timing and cached per workload, seed and code version under
``perfbench/.cache``.
"""

from __future__ import annotations

import json
import math
import os
import threading
from typing import Any, Optional, Sequence

from . import env

#: exact routes must match the oracle to this relative tolerance
REL_TOL = 1e-9


def _cache_path(kind: str, workload: str, seed: int) -> str:
    return str(
        env.CACHE_DIR / f"{kind}-{workload}-{seed}-{env.code_version()}.json"
    )


def _write_json(path: str, document: Any) -> None:
    env.CACHE_DIR.mkdir(parents=True, exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w") as handle:
        json.dump(document, handle)
    os.replace(tmp, path)


def oracle_costs(workload: str, seed: int, queries: Sequence[Any]) -> "list[float]":
    """Optimal cost of every query, from the cache or computed now."""
    path = _cache_path("oracle", workload, seed)
    try:
        with open(path) as handle:
            cached = json.load(handle)
        if len(cached) == len(queries):
            return [float(cost) for cost in cached]
    except (OSError, ValueError):
        pass
    from repro import Optimizer

    oracle = Optimizer(algorithm="dphyp-recursive", cache="off")
    costs = [oracle.optimize(query).cost for query in queries]
    _write_json(path, costs)
    return costs


class Verifier:
    """Checks every answer; feeds ``ok_frac`` and ``cost_ratio``.

    An answer is correct when it carries a cost and, for an exact
    route, that cost equals the oracle's; a heuristic route's cost may
    not beat the oracle and its ratio to it feeds ``cost_ratio``.
    Errors, refusals and missing answers are recorded with
    :meth:`fail`.
    """

    def __init__(self, oracle: Sequence[float]) -> None:
        from repro.registry import get_algorithm

        self._oracle = oracle
        #: the serve-mixed client checks answers from two threads
        self._lock = threading.Lock()
        self._exact: "dict[str, bool]" = {}
        self._get_algorithm = get_algorithm
        self.attempted = 0
        self.failed = 0
        self.log_ratio_sum = 0.0
        self.first_failures: "list[str]" = []

    def _is_exact(self, algorithm: str) -> bool:
        exact = self._exact.get(algorithm)
        if exact is None:
            try:
                exact = bool(self._get_algorithm(algorithm).exact)
            except ValueError:
                exact = False
            self._exact[algorithm] = exact
        return exact

    def check(self, index: int, cost: Optional[float], algorithm: str) -> bool:
        with self._lock:
            return self._check(index, cost, algorithm)

    def _check(self, index: int, cost: Optional[float], algorithm: str) -> bool:
        self.attempted += 1
        optimum = self._oracle[index]
        if cost is None or not math.isfinite(cost):
            return self._failure(f"query {index}: no cost ({algorithm})")
        if self._is_exact(algorithm):
            if not math.isclose(cost, optimum, rel_tol=REL_TOL):
                return self._failure(
                    f"query {index}: {algorithm} returned {cost!r}, "
                    f"optimum is {optimum!r}"
                )
            return True
        if cost < optimum * (1.0 - REL_TOL):
            return self._failure(
                f"query {index}: {algorithm} returned {cost!r}, below the "
                f"optimum {optimum!r}"
            )
        self.log_ratio_sum += math.log(cost / optimum)
        return True

    def fail(self, reason: str) -> None:
        """An attempted request that got no usable answer."""
        with self._lock:
            self.attempted += 1
            self._failure(reason)

    def _failure(self, reason: str) -> bool:
        self.failed += 1
        if len(self.first_failures) < 5:
            self.first_failures.append(reason)
        return False

    @property
    def ok_frac(self) -> float:
        if not self.attempted:
            return 0.0
        return (self.attempted - self.failed) / self.attempted

    @property
    def cost_ratio(self) -> float:
        """Geometric mean of returned over optimal cost (1.0 = optimal)."""
        ok = self.attempted - self.failed
        if not ok:
            return 0.0
        return math.exp(self.log_ratio_sum / ok)


def check_counts(
    workload: str, seed: int, counts: "dict[str, int]"
) -> "list[str]":
    """Compare ``counts`` with an earlier run's; record them if first.

    Returns the names of counts that differ from the earlier record.
    """
    path = _cache_path("counts", workload, seed)
    try:
        with open(path) as handle:
            earlier = json.load(handle)
    except (OSError, ValueError):
        _write_json(path, counts)
        return []
    names = sorted(set(earlier) | set(counts))
    return [
        f"{name}: {earlier.get(name)} before, {counts.get(name)} now"
        for name in names
        if earlier.get(name) != counts.get(name)
    ]
