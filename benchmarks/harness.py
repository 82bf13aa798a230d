"""Benchmark harness helpers (imported by every bench file).

Every benchmark regenerates one of the paper's tables or figures.  The
reproduced table is registered with :func:`report_table`, written to
``benchmarks/results/<name>.txt`` (on full runs only: a sliced run leaves
the committed results alone), and echoed in the pytest terminal summary,
so ``pytest benchmarks/ --benchmark-only`` shows both the timing of the
reproduction and the reproduced numbers themselves.
"""

from __future__ import annotations

import os
import pathlib

_RESULTS_DIR = pathlib.Path(__file__).parent / "results"
_TABLES: list[tuple[str, str]] = []

#: Worker count for benchmarks that batch-compile whole suites.
BATCH_JOBS = int(os.environ.get("REPRO_BENCH_JOBS", "4") or 4)


def _slice_limit() -> int:
    return int(os.environ.get("REPRO_SUITE_SLICE", "0") or 0)


def suite_slice():
    """The 72-program suite, or the first ``REPRO_SUITE_SLICE`` programs
    when that variable is set (the CI smoke pass runs a 12-program slice)."""
    from repro.workloads import generate_suite

    programs = generate_suite()
    limit = _slice_limit()
    return programs[:limit] if limit else programs


def report_table(name: str, title: str, lines: list[str]) -> str:
    """Register a reproduced table/figure for the terminal summary and,
    unless ``REPRO_SUITE_SLICE`` cuts the suite, persist it under
    ``benchmarks/results/``."""
    text = "\n".join([title, "-" * len(title), *lines, ""])
    _TABLES.append((name, text))
    if not _slice_limit():
        _RESULTS_DIR.mkdir(exist_ok=True)
        (_RESULTS_DIR / f"{name}.txt").write_text(text)
    return text


def text_histogram(values, bucket_width, unit, width=50):
    """Simple text histogram lines (stand-in for the paper's figures)."""
    if not values:
        return ["(no data)"]
    buckets: dict[int, int] = {}
    for value in values:
        buckets[int(value // bucket_width)] = (
            buckets.get(int(value // bucket_width), 0) + 1
        )
    peak = max(buckets.values())
    lines = []
    for bucket in range(min(buckets), max(buckets) + 1):
        count = buckets.get(bucket, 0)
        low = bucket * bucket_width
        high = low + bucket_width
        bar = "#" * max(1, round(count / peak * width)) if count else ""
        lines.append(f"{low:6.2f}-{high:6.2f} {unit} |{bar} {count}")
    return lines
