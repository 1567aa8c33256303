"""Compare a fresh benchmark report against a committed baseline.

Flags any timing metric (JSON leaves whose key ends in ``_s``,
``_s_per_query`` or ``_s_per_request``) that regressed by more than
``--max-ratio`` relative to the baseline.  Metrics below
``--min-baseline-s`` in the baseline, or whose absolute slowdown is
under ``--min-delta-s``, are skipped — at sub-hundredth-of-a-second
scales a shared CI runner's timer noise exceeds any signal.

The reports may cover different subsets (the CI smoke mode runs
benchmarks with ``--quick``, which drops the most expensive entries);
only metrics present in both are compared.

``--require-max LEAF=SECONDS`` additionally enforces an *absolute*
ceiling on every current-report leaf with that name (e.g.
``--require-max snapshot_load_s=0.5`` for the mmap'd warm-start path,
which must stay in the tens of milliseconds regardless of how the
baseline drifts).  A bound that matches no leaf is an error — it
catches renamed metrics silently disarming the gate.

A ``null`` leaf is the statistic of an empty sample (for example a p99
over zero answered requests).  The relative comparison skips it; a
``--require-max`` bound on it fails, since no latency was measured.

Usage::

    python benchmarks/compare_bench.py BASELINE.json CURRENT.json \
        [--max-ratio 3.0] [--min-baseline-s 0.02] [--min-delta-s 0.05] \
        [--require-max LEAF=SECONDS ...]

Exits 1 if any compared metric regressed, and 2 — with a one-line
message rather than a traceback — when either report is missing,
unreadable, or not valid JSON (e.g. a baseline that was never
committed, or a benchmark run that died mid-write).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

TIMING_SUFFIXES = ("_s", "_s_per_query", "_s_per_request")


class ReportError(Exception):
    """A report file could not be loaded; the message says why."""


def load_report(path: Path, role: str) -> dict:
    """Read one report, raising :class:`ReportError` with a usable
    message instead of letting I/O or JSON tracebacks escape."""
    try:
        raw = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ReportError(
            f"{role} report {path} does not exist — run the benchmark "
            f"first (or commit its baseline)") from None
    except OSError as exc:
        raise ReportError(f"cannot read {role} report {path}: "
                          f"{exc.strerror or exc}") from None
    try:
        report = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ReportError(
            f"{role} report {path} is not valid JSON "
            f"(line {exc.lineno}: {exc.msg}) — was the benchmark "
            f"interrupted mid-write?") from None
    if not isinstance(report, dict):
        raise ReportError(
            f"{role} report {path} must be a JSON object, "
            f"got {type(report).__name__}")
    return report


def flatten(node, prefix="", *,
            keep_null: bool = False) -> dict[str, float | None]:
    """Dotted-path -> value map of every timing leaf in a report.

    ``null`` leaves are skipped unless ``keep_null``, which maps them to
    ``None``.
    """
    out: dict[str, float | None] = {}
    if isinstance(node, dict):
        for key, value in node.items():
            out.update(flatten(value, f"{prefix}{key}.",
                               keep_null=keep_null))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            out.update(flatten(value, f"{prefix}{i}.", keep_null=keep_null))
    elif (isinstance(node, (int, float)) and not isinstance(node, bool)) \
            or (node is None and keep_null):
        key = prefix.rstrip(".")
        leaf = key.rsplit(".", 1)[-1]
        if leaf.endswith(TIMING_SUFFIXES):
            out[key] = None if node is None else float(node)
    return out


def compare(baseline: dict, current: dict, *, max_ratio: float,
            min_baseline_s: float, min_delta_s: float) -> list[str]:
    base = flatten(baseline)
    curr = flatten(current)
    shared = sorted(set(base) & set(curr))
    regressions = []
    for key in shared:
        b, c = base[key], curr[key]
        if b < min_baseline_s or c - b < min_delta_s:
            continue
        if c > max_ratio * b:
            regressions.append(
                f"{key}: {c:.4f}s vs baseline {b:.4f}s "
                f"({c / b:.1f}x > {max_ratio:g}x allowed)")
    print(f"compared {len(shared)} shared timing metric(s); "
          f"{len(regressions)} regression(s)")
    return regressions


def check_bounds(current: dict, bounds: dict[str, float]) -> list[str]:
    """Absolute ceilings: every current leaf named in ``bounds`` must be
    at or under its bound; an unmatched bound or a ``null`` bounded leaf
    is itself a failure."""
    curr = flatten(current, keep_null=True)
    failures = []
    for leaf, ceiling in bounds.items():
        matched = {k: v for k, v in curr.items()
                   if k.rsplit(".", 1)[-1] == leaf}
        if not matched:
            failures.append(f"{leaf}: bound {ceiling:g}s matched no metric "
                            f"in the current report (renamed?)")
            continue
        for key, value in matched.items():
            if value is None:
                failures.append(f"{key}: null (an empty sample) where an "
                                f"absolute bound of {ceiling:g}s applies")
            elif value > ceiling:
                failures.append(f"{key}: {value:.4f}s exceeds absolute "
                                f"bound {ceiling:g}s")
    return failures


def parse_bounds(specs: list[str]) -> dict[str, float]:
    """``LEAF=SECONDS`` strings -> bound map, raising on malformed specs."""
    bounds: dict[str, float] = {}
    for spec in specs:
        leaf, sep, raw = spec.partition("=")
        try:
            if not sep or not leaf:
                raise ValueError
            bounds[leaf] = float(raw)
        except ValueError:
            raise ReportError(
                f"--require-max expects LEAF=SECONDS, got {spec!r}") from None
    return bounds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", type=Path)
    parser.add_argument("current", type=Path)
    parser.add_argument("--max-ratio", type=float, default=3.0,
                        help="fail when current > ratio * baseline "
                             "(default 3.0)")
    parser.add_argument("--min-baseline-s", type=float, default=0.02,
                        help="skip metrics with a baseline below this "
                             "(default 0.02 s)")
    parser.add_argument("--min-delta-s", type=float, default=0.05,
                        help="skip slowdowns smaller than this in absolute "
                             "terms (default 0.05 s)")
    parser.add_argument("--require-max", action="append", default=[],
                        metavar="LEAF=SECONDS",
                        help="absolute ceiling for every current leaf with "
                             "this name (repeatable)")
    args = parser.parse_args()

    try:
        bounds = parse_bounds(args.require_max)
        baseline = load_report(args.baseline, "baseline")
        current = load_report(args.current, "current")
    except ReportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    regressions = compare(baseline, current, max_ratio=args.max_ratio,
                          min_baseline_s=args.min_baseline_s,
                          min_delta_s=args.min_delta_s)
    regressions += check_bounds(current, bounds)
    for line in regressions:
        print(f"REGRESSION {line}", file=sys.stderr)
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
