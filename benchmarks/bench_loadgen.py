"""Benchmark the trace generator, the open-loop replayer, and capacity.

Three claims, asserted in-process on every run:

* **determinism** — the same :class:`~repro.loadgen.WorkloadConfig`
  yields byte-identical JSONL, both across two in-process generations
  and across a *fresh interpreter* (a subprocess regenerates the trace
  and must reproduce the exact bytes).  A trace that cannot be
  regenerated from its seed is not a reproducible experiment input;
* **replay health** — a multi-tenant trace replayed open-loop against a
  live two-worker fleet completes with zero non-shed errors, and its
  p99 (measured from *intended* arrival — no coordinated omission)
  stays under ``REPLAY_P99_BOUND_S`` (CI enforces it with
  ``compare_bench.py --require-max replay_p99_s=...``);
* **capacity selection** — the ``capacity`` experiment sweeps shard
  count x trace intensity and, for every intensity, either names the
  cheapest fleet size meeting the p99 SLO or proves none of the swept
  sizes does.  The full run's table is the committed
  ``BENCH_loadgen.json`` answer to "how many shards do I need?".

Run directly (not via pytest)::

    PYTHONPATH=src python benchmarks/bench_loadgen.py [--quick]
        [--output PATH]

Results land in ``BENCH_loadgen.json`` at the repository root.
``--quick`` (the CI smoke mode) keeps the determinism and replay
sections identical but shrinks the capacity sweep, storing it under
``capacity_quick`` so its cells are never ratio-compared against the
committed full-sweep baseline.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
OUTPUT = REPO_ROOT / "BENCH_loadgen.json"

SEED = 20170843

#: Determinism + replay trace: identical in quick and full modes so the
#: committed baseline and the CI smoke report stay comparable.
TRACE_TENANTS = 6
TRACE_DURATION_S = 12.0
TRACE_MEAN_RPS = 15.0

#: The dedicated replay cell: a two-worker fleet, trace compressed 2x.
REPLAY_WORKERS = 2
REPLAY_TIME_SCALE = 2.0
REPLAY_P99_BOUND_S = 2.0

#: Full capacity sweep (the committed answer table).
SHARD_COUNTS = (1, 2, 3)
INTENSITIES_RPS = (20.0, 40.0, 80.0)
CAPACITY_DURATION_S = 8.0
SLO_P99_S = 0.5

#: Quick sweep (CI smoke): still 3 intensities, smaller everything.
QUICK_SHARD_COUNTS = (1, 2)
QUICK_INTENSITIES_RPS = (5.0, 10.0, 20.0)
QUICK_CAPACITY_DURATION_S = 3.0


def _round6(seconds: "float | None") -> "float | None":
    """Six-decimal seconds; an empty sample stays ``None`` (JSON null)."""
    return None if seconds is None else round(seconds, 6)


def bench_determinism(report: dict) -> "WorkloadConfig":
    from repro.loadgen import WorkloadConfig, generate_trace

    config = WorkloadConfig(
        tenants=TRACE_TENANTS, duration_s=TRACE_DURATION_S,
        mean_rps=TRACE_MEAN_RPS, seed=SEED, name="bench")

    t0 = time.perf_counter()
    first = generate_trace(config).to_jsonl()
    generate_s = time.perf_counter() - t0
    second = generate_trace(config).to_jsonl()

    script = (
        "import sys\n"
        "from repro.loadgen import WorkloadConfig, generate_trace\n"
        f"cfg = WorkloadConfig(tenants={TRACE_TENANTS}, "
        f"duration_s={TRACE_DURATION_S}, mean_rps={TRACE_MEAN_RPS}, "
        f"seed={SEED}, name='bench')\n"
        "sys.stdout.write(generate_trace(cfg).to_jsonl())\n"
    )
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, check=True,
                          env={"PYTHONPATH": str(REPO_ROOT / "src"),
                               "PATH": "/usr/bin:/bin"})

    requests = first.count("\n") - 1  # minus the header line
    report["determinism"] = {
        "seed": SEED,
        "requests": requests,
        "trace_bytes": len(first.encode()),
        "generate_s": round(generate_s, 6),
        "in_process_identical": first == second,
        "subprocess_identical": proc.stdout == first,
    }
    if not (first == second and proc.stdout == first):
        raise SystemExit("FAIL: trace generation is not deterministic")
    print(f"determinism: {requests} requests, "
          f"{len(first.encode())} bytes, generated in {generate_s:.3f}s, "
          f"byte-identical in-process and across interpreters")
    return config


def bench_replay(report: dict, config) -> None:
    from repro.experiments.capacity_exp import _measure_cell
    from repro.loadgen import check_invariants, generate_trace

    trace = generate_trace(config)
    with tempfile.TemporaryDirectory(prefix="celia-bench-loadgen-") as cache:
        t0 = time.perf_counter()
        replay = asyncio.run(_measure_cell(
            trace, REPLAY_WORKERS, quota=config.quota, cache_dir=cache,
            timeout_s=60.0, time_scale=REPLAY_TIME_SCALE))
        cell_s = time.perf_counter() - t0

    problems = check_invariants(replay)
    report["replay"] = {
        "workers": REPLAY_WORKERS,
        "time_scale": REPLAY_TIME_SCALE,
        "requests": replay.requests,
        "ok": replay.ok,
        "shed": replay.shed,
        "errors": replay.errors,
        "availability": replay.availability,
        "offered_rps": round(replay.offered_rps, 3),
        "peak_inflight": replay.peak_inflight,
        "max_lag_s": round(replay.max_lag_s, 6),
        "replay_p50_s": _round6(replay.p50_s),
        "replay_p99_s": _round6(replay.p99_s),
        "burst_p99_s": _round6(replay.burst_p99_s),
        "calm_p99_s": _round6(replay.calm_p99_s),
        "cell_wall_s": round(cell_s, 3),
        "p99_bound_s": REPLAY_P99_BOUND_S,
        "invariant_violations": problems,
    }
    if problems:
        raise SystemExit(f"FAIL: replay report invariants: {problems}")
    if replay.errors:
        raise SystemExit(f"FAIL: {replay.errors} non-shed replay errors")
    if replay.p99_s is None:
        raise SystemExit("FAIL: the replay answered no request")
    if replay.p99_s > REPLAY_P99_BOUND_S:
        raise SystemExit(f"FAIL: replay p99 {replay.p99_s:.3f}s exceeds "
                         f"{REPLAY_P99_BOUND_S}s")
    print(f"replay: {replay.requests} requests on {REPLAY_WORKERS} workers "
          f"-> ok {replay.ok} shed {replay.shed} errors {replay.errors}, "
          f"p99 {replay.p99_s * 1e3:.1f}ms")


def bench_capacity(report: dict, quick: bool) -> None:
    from repro.experiments import capacity_exp
    from repro.experiments.common import ExperimentContext

    shard_counts = QUICK_SHARD_COUNTS if quick else SHARD_COUNTS
    intensities = QUICK_INTENSITIES_RPS if quick else INTENSITIES_RPS
    duration = QUICK_CAPACITY_DURATION_S if quick else CAPACITY_DURATION_S

    t0 = time.perf_counter()
    result = capacity_exp.run(
        ExperimentContext(seed=SEED),
        shard_counts=shard_counts, intensities_rps=intensities,
        duration_s=duration, slo_p99_s=SLO_P99_S)
    sweep_s = time.perf_counter() - t0

    answered = sum(1 for v in result.cheapest.values() if v is not None)
    section = {**result.to_series(),
               "sweep_wall_s": round(sweep_s, 3),
               "intensities_answered": answered}
    report["capacity_quick" if quick else "capacity"] = section
    if answered == 0:
        raise SystemExit("FAIL: no intensity has a feasible fleet size — "
                         "the capacity sweep answered nothing")
    print(result.render())


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke mode: shrink the capacity sweep")
    parser.add_argument("--output", type=Path, default=OUTPUT,
                        help=f"report path (default {OUTPUT})")
    args = parser.parse_args(argv)

    report: dict = {
        "bench": "loadgen",
        "quick": args.quick,
        "seed": SEED,
        "trace": {"tenants": TRACE_TENANTS,
                  "duration_s": TRACE_DURATION_S,
                  "mean_rps": TRACE_MEAN_RPS},
        "slo_p99_s": SLO_P99_S,
    }
    config = bench_determinism(report)
    bench_replay(report, config)
    bench_capacity(report, args.quick)

    args.output.write_text(json.dumps(report, indent=1, sort_keys=True)
                           + "\n", encoding="utf-8")
    print(f"\nreport written to {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
