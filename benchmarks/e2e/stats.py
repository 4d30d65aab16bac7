"""Order statistics, backlog growth and the SLO rate search."""

from __future__ import annotations

import math

#: Percentiles a timing may be reported at, lowest first, in hundredths
#: of a percent.
PERCENTILES = (5000, 9000, 9900, 9990, 9999)
#: Samples that must lie beyond a percentile for it to be reported.
MIN_BEYOND = 10


def _rank(hundredths: int, n: int) -> int:
    """1-based rank of the inverted-CDF order statistic ``x_(ceil(q n))``."""
    return max(1, -(-hundredths * n // 10000))


def percentile(ordered, hundredths: int) -> float:
    """Percentile ``hundredths / 100`` of an ascending sequence (NaN if empty)."""
    if not ordered:
        return math.nan
    return ordered[_rank(hundredths, len(ordered)) - 1]


def supported_percentile(n: int) -> float | None:
    """Highest reportable percentile for ``n`` samples, or ``None``.

    A percentile is reportable when at least :data:`MIN_BEYOND` samples
    lie beyond its order statistic.
    """
    best = None
    for hundredths in PERCENTILES:
        if n - _rank(hundredths, n) >= MIN_BEYOND:
            best = hundredths / 100
    return best


def summarize(samples) -> dict:
    """Median, p99, sample count and the highest supported percentile."""
    ordered = sorted(samples)
    return {
        "n": len(ordered),
        "p50": percentile(ordered, 5000),
        "p99": percentile(ordered, 9900),
        "supported": supported_percentile(len(ordered)),
    }


def backlog_grew(samples, floor: float) -> bool:
    """Whether an in-flight backlog trace grew over its phase.

    Compares the mean of the last third of the samples with the first
    third: growth is more than doubling plus ``floor`` requests, which
    separates a queue that keeps building from ordinary jitter.
    """
    third = len(samples) // 3
    if third == 0:
        return False
    first = sum(samples[:third]) / third
    last = sum(samples[-third:]) / third
    return last > 2.0 * first + floor


async def slo_search(probe, lo: float, hi: float, probes: int):
    """Log-bisect for the highest rate ``probe`` accepts.

    ``lo`` is a rate known to pass and ``hi`` one assumed to fail; each
    probe tries their geometric mean.  Returns ``(rate, tried)`` where
    ``tried`` lists ``(rate, passed)`` in probe order.
    """
    tried = []
    for _ in range(probes):
        mid = math.sqrt(lo * hi)
        passed = await probe(mid)
        tried.append((mid, passed))
        if passed:
            lo = mid
        else:
            hi = mid
    return lo, tried
