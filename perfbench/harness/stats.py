"""Order statistics with the benchmark's reporting rules."""

from __future__ import annotations

import statistics
from typing import Optional, Sequence

#: a tail percentile is reported only with this many samples beyond it
MIN_TAIL_SAMPLES = 10


class TooFewSamples(ValueError):
    """A percentile was asked of a sample too small to support it."""


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-quantile (``0 < q < 1``) of ``values``."""
    if not values:
        raise TooFewSamples("no samples")
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, int(q * len(ordered) + 0.5) - 1))
    return ordered[rank]


def tail(values: Sequence[float], q: float) -> float:
    """``percentile(values, q)``, refused without 10 samples beyond it.

    A p99 therefore needs at least 1000 samples and a p90 at least 100.
    """
    beyond = len(values) * (1.0 - q)
    if beyond + 1e-9 < MIN_TAIL_SAMPLES:
        raise TooFewSamples(
            f"p{q * 100:g} of {len(values)} samples has only "
            f"{beyond:.1f} beyond it; {MIN_TAIL_SAMPLES} are required"
        )
    return percentile(values, q)


def tail_or_lower(values: Sequence[float], q: float) -> float:
    """The highest of ``q``, p90 and the median that the sample supports.

    For per-layer tails, whose sample sizes the workload decides rather
    than the benchmark; 0 when there are no samples.
    """
    for level in (q, 0.9):
        try:
            return tail(values, level)
        except TooFewSamples:
            continue
    return percentile(values, 0.5) if values else 0.0


def median(values: Sequence[float]) -> float:
    if not values:
        raise TooFewSamples("no samples")
    return float(statistics.median(values))


def spread(values: Sequence[float]) -> Optional[float]:
    """Inter-quartile distance over the median (the driver's rule)."""
    if len(values) < 2:
        return None
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    if mid == 0:
        return 0.0 if q3 == q1 else None
    return (q3 - q1) / abs(mid)

