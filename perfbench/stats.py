"""Percentiles, summaries and self-time arithmetic for the benchmark.

Every helper here is pure so the benchmark's own tests can pin it down.
"""

from __future__ import annotations

import math
import statistics

#: A percentile is reported only when at least this many samples lie
#: strictly beyond its rank; otherwise it is ``None`` (printed ``null``).
MIN_BEYOND = 10


def percentile(values, q: float):
    """Nearest-rank ``q``-quantile of ``values`` (0 < q < 1), or ``None``.

    ``None`` when fewer than :data:`MIN_BEYOND` samples rank above the
    chosen one -- an empty or short sample never reads as 0.0.
    """
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie strictly between 0 and 1")
    n = len(values)
    if n == 0:
        return None
    rank = max(1, math.ceil(q * n))  # 1-based nearest rank
    if n - rank < MIN_BEYOND:
        return None
    return float(sorted(values)[rank - 1])


def latency_summary(values) -> dict:
    """``{"n", "p50_s", "p90_s", "p99_s"}``; short samples give ``None``."""
    return {"n": len(values),
            "p50_s": percentile(values, 0.50),
            "p90_s": percentile(values, 0.90),
            "p99_s": percentile(values, 0.99)}


def median(values):
    """Median of a non-empty sample, ``None`` for an empty one."""
    return float(statistics.median(values)) if values else None


def self_times(layer, child):
    """Per-request self time: ``layer[i] - child[i]`` over the same requests.

    Both sequences must time the same requests in the same order; a
    length mismatch is a harness bug, not something to paper over.
    """
    if len(layer) != len(child):
        raise ValueError(f"layer has {len(layer)} samples, child "
                         f"{len(child)}: not the same requests")
    return [a - b for a, b in zip(layer, child)]


def budget_table(chain: "list[tuple[str, list[float]]]",
                 http: "list[float]") -> dict:
    """Median self time of each blocking layer plus what is left over.

    ``chain`` lists ``(layer name, per-request self times)`` along the
    blocking path of one request; ``http`` is the end-to-end time of the
    same requests.  ``budget.unattributed_s`` is the HTTP median minus
    the sum of the self-time medians.
    """
    table = {name: median(samples) for name, samples in chain}
    table["budget.unattributed_s"] = median(http) - sum(table.values())
    return table
