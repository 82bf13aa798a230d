"""Sample statistics, process measurements and the failure ledger."""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics
import sys
from dataclasses import dataclass, field


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def lower_quartile(values) -> float:
    values = list(values)
    if len(values) < 2:
        return median(values)
    return statistics.quantiles(values, n=4, method="inclusive")[0]


def tail(values) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it, capped
    at p99 (so p99 once there are 1000 samples or more).

    Returns ``(value, percentile, sample_count)``.  With ten samples or
    fewer no percentile qualifies; the maximum is returned as p100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0, 0.0, 0
    if n <= 10:
        return ordered[-1], 100.0, n
    pct = min(99.0, float(math.floor(100.0 * (n - 10) / n)))
    rank = max(1, math.ceil(pct / 100.0 * n))  # nearest rank, 1-based
    return ordered[rank - 1], pct, n


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "platform": platform.platform(),
    }


@dataclass
class Ledger:
    """Attempted and failed operations of one run, with the first few
    failure reasons kept for the report."""

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def attempt(self, count: int = 1) -> None:
        self.attempted += count

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.reasons) < 20:
            self.reasons.append(reason)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
