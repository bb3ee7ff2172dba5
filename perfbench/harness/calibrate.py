"""Machine-speed calibration of the in-process end-to-end timings.

The shared 2-CPU boxes this benchmark runs on change speed by 30-50%
for minutes at a time while other tenants are busy (the same Python
loop, timed every 10 s for three minutes, had medians from 4.2 to
6.5 ms), which moves every wall-clock metric by more than a regression
bound can allow.  The in-process workloads therefore also time a fixed
calibration kernel in their measuring thread, between measured blocks,
and report their timings at a *reference speed*: the speed at which
the kernel takes :data:`REFERENCE_MS`.  With ``speed = REFERENCE_MS /
median kernel time``, a reported duration is the measured one times
``speed`` and a reported rate the measured one divided by it.  The run
also prints the measured figures and its speed.

The kernel is a small cost-based join-ordering dynamic program over
plan objects, dicts and bitsets (the optimizer's kind of interpreter
work), written here so that no change to the program can change it.
"""

from __future__ import annotations

import random
import time
from typing import Optional

from . import stats

#: kernel time (ms) that defines the reference speed, about what it
#: takes on an uncontended core of the 2-CPU development box
REFERENCE_MS = 4.0

#: seconds between kernel samples in a measured phase
SAMPLE_EVERY_S = 0.25

now = time.perf_counter_ns


class _Plan:
    __slots__ = ("left", "right", "cost", "card", "nodes")

    def __init__(self, left: "Optional[_Plan]", right: "Optional[_Plan]",
                 cost: float, card: float, nodes: "tuple[int, ...]") -> None:
        self.left = left
        self.right = right
        self.cost = cost
        self.card = card
        self.nodes = nodes


def kernel(relations: int = 8) -> float:
    """Cheapest bushy join order of a fixed random query (fixed work)."""
    rng = random.Random(7)
    cards = [float(rng.randint(10, 10_000)) for _ in range(relations)]
    selectivity = {}
    for i in range(relations):
        for j in range(i + 1, relations):
            if j == i + 1 or rng.random() < 0.25:
                selectivity[(i, j)] = rng.uniform(0.001, 0.1)
    table = {
        1 << i: _Plan(None, None, 0.0, cards[i], (i,))
        for i in range(relations)
    }
    for mask in range(1, 1 << relations):
        if mask in table:
            continue
        best: Optional[_Plan] = None
        sub = (mask - 1) & mask
        while sub:
            other = mask ^ sub
            if sub < other:
                left, right = table.get(sub), table.get(other)
                if left is not None and right is not None:
                    factor = 1.0
                    for a in left.nodes:
                        for b in right.nodes:
                            s = selectivity.get((a, b) if a < b else (b, a))
                            if s is not None:
                                factor *= s
                    if factor < 1.0:
                        card = left.card * right.card * factor
                        cost = left.cost + right.cost + card
                        if best is None or cost < best.cost:
                            best = _Plan(left, right, cost, card,
                                         tuple(sorted(left.nodes + right.nodes)))
            sub = (sub - 1) & mask
        if best is not None:
            table[mask] = best
    return table[(1 << relations) - 1].cost


class Speed:
    """Kernel samples taken through a run, and the speed they give."""

    def __init__(self) -> None:
        self.samples_ms: "list[float]" = []
        self._last = 0

    def sample(self, times: int = 1) -> None:
        for _ in range(times):
            start = now()
            kernel()
            self.samples_ms.append((now() - start) / 1e6)
        self._last = now()

    def sample_if_due(self) -> None:
        """One sample when :data:`SAMPLE_EVERY_S` passed since the last."""
        if now() - self._last >= SAMPLE_EVERY_S * 1e9:
            self.sample()

    @property
    def factor(self) -> float:
        """Measured speed relative to the reference (> 1 is faster)."""
        return REFERENCE_MS / stats.median(self.samples_ms)

    def scale(self, values: "dict[str, float]", names: "tuple[str, ...]",
              units: "dict[str, str]") -> "dict[str, float]":
        """``values`` with the named timings and rates at the reference
        speed."""
        scaled = dict(values)
        for name in names:
            if units[name] == "req/s":
                scaled[name] = values[name] / self.factor
            else:
                scaled[name] = values[name] * self.factor
        return scaled
