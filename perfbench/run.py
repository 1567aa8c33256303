"""The planner benchmark: one command, named workloads, checked answers.

Run from the root of a checkout::

    python3 perfbench/run.py --workload serve-q2-mix --seed 1 \\
        --seconds 20 --trace 0

The whole run is pinned to one CPU (:func:`pin_to_one_cpu`).  Every
workload walks the path a user walks:

1. the cold pipeline -- characterise, fused sweep, frontier and
   feasibility build, snapshot store -- from an empty cache directory
   (``pipeline_s``, the fastest of the run's samples);
2. a fresh ``PlannerService.warm()`` over that cache up to the first
   answered select (``warm_start_s``, the fastest of the run's samples);
3. ``celia fleet serve --workers 1`` spawned three times, each until
   ``/healthz`` is ready and every signature is warm (``setup_s``, the
   median; ``peak_rss_mb`` is the serving worker's ``VmHWM``);
4. open-loop Poisson load at 30% and 50% of the seed commit's capacity
   over one keep-alive connection (``low.*``, ``high.*``), and a closed
   loop over it (``capacity_rps``), in interleaved rounds; each round
   starts with that workload's share of steps 1 and 2, each sample in a
   child forked from a process that has imported the program.

Every answer is compared with an in-process ``dispatch_request`` on a
fresh ``PlannerService`` fed the same bodies in the same order; any
error, shed or wrong answer counts as failed and makes the command exit
1.  With ``--trace 1`` the run also times each layer's public call from
this directory's files and prints the per-layer metrics instead.
Every sample of a run is written to
``.bench_build/perfbench/<workload>/samples.json``.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import workloads as wl
from fleetproc import FleetProcess, StageProcess, program_env
from loadclient import HttpConnection, PhaseResult, closed_loop, open_loop
from stats import latency_summary, median, percentile

#: Share of ``--seconds`` each serving phase is sized for.
PHASE_SHARES = {"low": 0.45, "high": 0.3, "capacity": 0.25}
#: Fleet spawns per run (``setup_s`` is their median).
SETUPS = 3
#: Client connections.  The run is pinned to one CPU (see
#: :func:`pin_to_one_cpu`), and one connection on one CPU keeps at most
#: one request in flight between the client, front end and worker.
CONNECTIONS = 1
#: A run whose generator woke later than this at its 90th percentile
#: was not offering the intended load: it is invalid and not reported.
LAG_TOLERANCE_S = 0.010
#: Exit code of an invalid run (generator fell behind).
EXIT_INVALID = 3

E2E_UNITS = {"setup_s": "s", "pipeline_s": "s", "warm_start_s": "s",
             "low.p50_s": "s", "high.p50_s": "s", "capacity_rps": "1/s",
             "peak_rss_mb": "MB"}
#: Per-layer metrics of the traced run (see ``layers.py``).  The 90th
#: percentiles sit here, not among the gated end-to-end metrics: over ten
#: runs on a two-core VM their spread was 0.2 to 0.65 of the median, more
#: than any end-to-end bound may be.  Every run prints them regardless.
LAYER_UNITS = {
    "low.p90_s": "s", "high.p90_s": "s",
    "frontend.http_s": "s", "frontend.self_s": "s",
    "rpc.call_s": "s", "rpc.self_s": "s",
    "server.dispatch_s": "s", "server.self_s": "s",
    "planner.handle_s": "s", "planner.self_s": "s",
    "planner.cache_hit_ratio": "ratio", "planner.batch_size_mean": "count",
    "planner.raw_memo_hits": "count",
    "celia.demand_gi_s": "s",
    "selection.select_s": "s", "selection.feasible_count_s": "s",
    "selection.feasible_fraction": "ratio",
    "optimizer.query_s": "s", "optimizer.min_cost_build_s": "s",
    "configspace.evaluate_s": "s", "configspace.configs_per_s": "1/s",
    "selection.frontier_build_s": "s", "selection.feasibility_build_s": "s",
    "cache.store_s": "s", "cache.store_index_s": "s",
    "cache.bytes_written": "bytes", "cache.load_s": "s",
    "cache.load_index_s": "s",
    "budget.unattributed_s": "s",
    "loadgen.lag_p90_s": "s", "loadgen.sent": "count",
    "loadgen.failed": "count", "failed_ratio": "ratio",
    "traced.low.p50_s": "s", "traced.high.p50_s": "s",
    "traced.capacity_rps": "1/s",
    "overhead.low.p50_s": "s", "overhead.high.p50_s": "s",
    "overhead.capacity_rps": "1/s",
}


def phase_counts(workload: wl.Workload, seconds: float) -> dict:
    rates = {"low": workload.low_rps, "high": workload.high_rps,
             "capacity": workload.reference_capacity_rps}
    return {phase: max(1, round(rates[phase] * seconds * share))
            for phase, share in PHASE_SHARES.items()}


# -- correctness ----------------------------------------------------------------


async def reference_answers(cache: Path, quota: int, requests) -> list:
    """``(status, result-or-envelope)`` per request from a fresh service."""
    from repro.service.planner import PlannerService, ServiceConfig
    from repro.service.server import dispatch_request

    # No batch window: batched and single answers are identical by
    # contract, and a difference would show up as a mismatch here.
    service = PlannerService(config=ServiceConfig(
        workers=1, cache_dir=str(cache), default_quota=quota,
        batch_window_s=0.0))
    out = []
    for request in requests:
        status, envelope = await dispatch_request(service, request.as_dict())
        out.append((status, envelope["result"] if status == 200
                    else envelope))
    return out


def check_answers(statuses, bodies, reference) -> dict:
    """Count errors, sheds and wrong answers against the reference."""
    counts = {"errors": 0, "sheds": 0, "wrong": 0}
    for status, body, (ref_status, ref_result) in zip(statuses, bodies,
                                                      reference):
        if status in (429, 503):
            counts["sheds"] += 1
        elif status != 200 or ref_status != 200:
            counts["errors"] += 1
        elif json.loads(body)["result"] != ref_result:
            counts["wrong"] += 1
    return counts


def verdict(attempted: int, counts: dict) -> "tuple[bool, int]":
    """``(correct, failed)``: correct only when nothing failed."""
    failed = sum(counts.values())
    return attempted > 0 and failed == 0, failed


# -- stages -----------------------------------------------------------------------


def run_stage(root: Path, script: str, workload, env_dir: Path,
              *args: str) -> dict:
    """Run one of this directory's scripts in a fresh process.

    The script gets the workload's quota and signatures and answers with
    one JSON object on the last line of its stdout.
    """
    argv = [sys.executable, str(Path(__file__).with_name(script)), *args,
            "--quota", str(workload.quota)]
    for app, seed in workload.signatures:
        argv += ["--sig", f"{app}:{seed}"]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=170,
                          env=program_env(root, env_dir), check=False)
    if done.returncode != 0:
        raise RuntimeError(f"{script} {args[0]} failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def round_slice(items, index: int, rounds: int):
    """The ``index``-th of ``rounds`` consecutive, near-equal parts."""
    return items[index * len(items) // rounds:
                 (index + 1) * len(items) // rounds]


async def serve_phases(fleet, plans: dict, seed: int, workload,
                       before_round) -> dict:
    """``workload.rounds`` interleaved rounds of capacity, low and high load.

    ``plans`` maps a name to ``(streams, on_sent)``.  The traced run
    passes two plans, untraced and traced, whose rounds alternate so that
    drift over the run lands on both alike.  ``before_round(index)`` runs
    the round's side stages first.  Returns, per plan, a list with one
    ``{phase: PhaseResult}`` per round.
    """
    rounds = workload.rounds
    conns = [HttpConnection(fleet.host, fleet.port)
             for _ in range(CONNECTIONS)]
    out = {name: [] for name in plans}
    try:
        for round_index in range(rounds):
            await before_round(round_index)
            for plan_index, (name, (streams, on_sent)) in enumerate(
                    plans.items()):
                # The closed loop first: it brings the serving processes
                # back into the CPU's caches after the side stages, so the
                # open-loop phases measure serving, not that recovery.
                results = {"capacity": await closed_loop(
                    conns, round_slice(streams["capacity"], round_index,
                                       rounds))}
                for phase_index, (phase, rate) in enumerate(
                        (("low", workload.low_rps),
                         ("high", workload.high_rps))):
                    requests = round_slice(streams[phase], round_index,
                                           rounds)
                    tag = (2 * plan_index + phase_index) * rounds \
                        + round_index
                    results[phase] = await open_loop(
                        conns, requests,
                        wl.arrivals(seed, tag, rate, len(requests)),
                        on_sent=None if on_sent is None else
                        (lambda i, t, d, p=phase: on_sent(p, i, t, d)))
                out[name].append(results)
    finally:
        for conn in conns:
            await conn.close()
    return out


def merged(rounds, phase: str) -> PhaseResult:
    """One phase's results of every round, in request order."""
    out = PhaseResult()
    for results in rounds:
        out.extend(results[phase])
    return out


def phase_metrics(rounds) -> dict:
    """Serving metrics of a run, over all of its rounds."""
    out = {}
    for phase in ("low", "high"):
        summary = latency_summary(merged(rounds, phase).latency_s)
        out[f"{phase}.p50_s"] = summary["p50_s"]
        out[f"{phase}.p90_s"] = summary["p90_s"]
    capacity = merged(rounds, "capacity")
    out["capacity_rps"] = capacity.completed / capacity.elapsed_s
    return out


def metric_from_scrape(snapshot: dict) -> dict:
    """Planner counters from the fleet's merged ``/metrics`` snapshot."""
    def total(kind: str, name: str) -> float:
        series = snapshot.get(kind, {})
        return sum(v for k, v in series.items()
                   if k == name or k.startswith(name + "{"))

    hits = total("counters", "cache_hits")
    misses = total("counters", "cache_misses")
    sizes = [v for k, v in snapshot.get("histograms", {}).items()
             if k == "batch_size" or k.startswith("batch_size{")]
    batches = sum(h["count"] for h in sizes)
    return {
        "planner.cache_hit_ratio": hits / (hits + misses)
        if hits + misses else None,
        "planner.batch_size_mean": sum(h["sum"] for h in sizes) / batches
        if batches else None,
        "planner.raw_memo_hits": total("counters", "raw_response_hits"),
    }


# -- one run ------------------------------------------------------------------------


async def run(root: Path, workload: wl.Workload, seed: int, seconds: float,
              traced: bool, report) -> dict:
    from layers import BUDGET_CHAIN, Spans, probe_http, probe_rpc

    work = root / ".bench_build" / "perfbench" / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cache = work / "cache"
    spans = Spans()
    metrics: dict = {}
    layer: dict = {}

    counts = phase_counts(workload, seconds)
    phases = ["low", "high", "capacity"]
    sizes = dict(counts)
    if traced:
        sizes.update({f"traced.{p}": counts[p] for p in phases})
    stream = workload.requests(seed, sum(sizes.values()))
    streams, start = {}, 0
    for name, size in sizes.items():
        streams[name] = stream[start:start + size]
        start += size
    probes = [r for r in workload.requests(seed, 8 * workload.probe_requests,
                                           stream=1)
              if r.kind == "select" and not r.repeat][:workload.probe_requests]
    report("realised shares", wl.realised_shares(stream))

    colds, warms, setups = [], [], []
    stages = StageProcess(root, work, quota=workload.quota,
                          signatures=workload.signatures)
    fleet = None

    async def cold(into: Path) -> None:
        shutil.rmtree(into, ignore_errors=True)  # each from empty
        colds.append(await stages.call("cold", into))

    async def before_round(index: int) -> None:
        """The round's side stages: cold pipelines, then a warm start."""
        for _ in range(workload.pipeline_per_round):
            await cold(work / "cold")
        warms.append((await stages.call(
            "warm", cache, select=probes[0].as_dict()))["warm_start_s"])

    with spans.root("bench.run", {"workload": workload.name, "seed": seed}):
        try:
            await stages.start()
            await cold(cache)  # the snapshot cache the fleet serves from
            # Flush the snapshot just written, so its write-back does not
            # compete with the timed stages that follow.
            os.sync()
            for attempt in range(SETUPS):
                fleet = FleetProcess(root, work, quota=workload.quota,
                                     cache_dir=cache,
                                     signatures=workload.signatures)
                setups.append(await fleet.start())
                if attempt == SETUPS - 1:
                    break
                if traced and attempt == 0:
                    layer["rpc"] = await probe_rpc(spans, fleet.socket_path,
                                                   probes)
                elif traced and attempt == 1:
                    layer["http"] = await probe_http(spans, fleet, probes)
                await fleet.stop()
            metrics["setup_s"] = median(setups)
            report("fleet setups (s)", setups)

            def on_sent(phase, i, intended, done):
                spans.record(f"client.{phase}",
                             time.time() - (time.monotonic() - intended),
                             done - intended, i=i)

            plans = {"untraced": ({p: streams[p] for p in phases}, None)}
            if traced:
                plans["traced"] = ({p: streams[f"traced.{p}"]
                                    for p in phases}, on_sent)
            served = await serve_phases(fleet, plans, seed, workload,
                                        before_round)
            if traced:
                layer.update(metric_from_scrape(await fleet.metrics()))
            metrics["peak_rss_mb"] = fleet.peak_rss_mb()
        finally:
            if fleet is not None:
                await fleet.stop()
            await stages.stop()

    # The fastest sample: a neighbour's load only ever slows a sample of
    # a single-threaded stage down, so the fastest is the program's own.
    metrics["pipeline_s"] = min(c["pipeline_s"] for c in colds)
    metrics["warm_start_s"] = min(warms)
    report("pipeline stages", colds)
    report("warm starts (s)", warms)
    rounds = served["untraced"]
    metrics.update(phase_metrics(rounds))
    report("per-round p50 (s) and capacity (1/s)", [
        {"low": percentile(r["low"].latency_s, 0.5),
         "high": percentile(r["high"].latency_s, 0.5),
         "capacity": r["capacity"].completed / r["capacity"].elapsed_s}
        for r in rounds])
    results = {phase: merged(rounds, phase) for phase in phases}
    answers = dict(results)
    if traced:
        for phase in phases:
            answers[f"traced.{phase}"] = merged(served["traced"], phase)

    # -- correctness: every served answer against a fresh reference.
    sent = [r for name in sizes for r in streams[name]]
    statuses = [s for name in sizes for s in answers[name].status]
    bodies = [b for name in sizes for b in answers[name].body]
    reference = await reference_answers(cache, workload.quota, sent)
    check = check_answers(statuses, bodies, reference)

    lag = [x for p in ("low", "high") for x in results[p].lag_s]
    summary = {"phases": {}, "check": check}
    for phase in phases:
        result = results[phase]
        summary["phases"][phase] = {
            **latency_summary(result.latency_s),
            "lag_p90_s": percentile(result.lag_s, 0.90),
            "lag_p99_s": percentile(result.lag_s, 0.99),
            "elapsed_s": result.elapsed_s}
    report("serving phases", summary)
    lag_p90 = percentile(lag, 0.90)
    _write_samples(work / "samples.json", rounds, streams, colds, warms,
                   setups)

    if traced:
        layer.update(_layer_probes(root, work, cache, workload, layer,
                                   probes))
        report("layer budget of one select at low rate, median self s",
               {name: layer[name] for name in
                (*BUDGET_CHAIN, "budget.unattributed_s", "frontend.http_s")})
        layer.update(run_stage(root, "pipeline_stage.py", workload, work,
                               "layers", "--cache-dir",
                               str(work / "layers-cache")))
        traced_metrics = phase_metrics(served["traced"])
        for name in ("low.p50_s", "high.p50_s", "capacity_rps"):
            layer[f"traced.{name}"] = traced_metrics[name]
            layer[f"overhead.{name}"] = (traced_metrics[name]
                                         - metrics[name])
        layer["low.p90_s"] = metrics["low.p90_s"]
        layer["high.p90_s"] = metrics["high.p90_s"]
        layer["loadgen.lag_p90_s"] = lag_p90
        layer["loadgen.sent"] = len(sent)
        layer["loadgen.failed"] = sum(check.values())
        layer["failed_ratio"] = sum(check.values()) / len(sent)
        report("span records", spans.write(work / "spans.jsonl"))

    for done in (cache, work / "cold", work / "layers-cache"):
        shutil.rmtree(done, ignore_errors=True)
    return {"metrics": metrics, "layer": layer, "check": check,
            "attempted": len(sent), "lag_p90_s": lag_p90}


def _write_samples(path: Path, rounds, streams, colds, warms,
                   setups) -> None:
    """Every timed sample of the run, for a look at its spread later."""
    kinds = {}
    for phase in ("low", "high"):
        kinds[phase] = [r.kind for r in streams[phase]]
    out = {"setup_s": setups, "pipeline_s": [c["pipeline_s"] for c in colds],
           "warm_start_s": warms, "rounds": []}
    offsets = {"low": 0, "high": 0}
    for results in rounds:
        entry = {"capacity_rps": results["capacity"].completed
                 / results["capacity"].elapsed_s}
        for phase in ("low", "high"):
            n = results[phase].completed
            entry[phase] = {
                "latency_s": results[phase].latency_s,
                "kind": kinds[phase][offsets[phase]:offsets[phase] + n]}
            offsets[phase] += n
        out["rounds"].append(entry)
    path.write_text(json.dumps(out))


def _layer_probes(root, work, cache, workload, layer, probes) -> dict:
    """In-process layer probes in a fresh process; checks every probe."""
    from layers import layer_metrics

    path = work / "probes.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for request in probes:
            fh.write(json.dumps({"kind": request.kind,
                                 "body": request.body.decode("utf-8")})
                     + "\n")
    out = run_stage(root, "layers.py", workload, work,
                    "--cache-dir", str(cache), "--requests", str(path),
                    "--spans", str(work / "spans-layers.jsonl"))
    reference = [tuple(answer) for answer in out["answers"]]
    http_t, http_answers = layer.pop("http")
    rpc_t, rpc_answers = layer.pop("rpc")
    for name, answers in (("http", http_answers), ("rpc", rpc_answers)):
        bad = check_answers([s for s, _ in answers],
                            [b for _, b in answers], reference)
        if sum(bad.values()):
            raise RuntimeError(f"{name} layer probe answers differ: {bad}")
    return layer_metrics(http_t, rpc_t, out["dispatch"], out["handle"],
                         out["index"])


def pin_to_one_cpu() -> int:
    """Run this process and every process it starts on one CPU.

    On a shared host, a request handed between processes on different
    CPUs waits for a wake-up on the other CPU, and how long that takes
    depends on the neighbours' load: unpinned, ten runs of the same code
    spread by a third to a half of their median.  On one CPU the hand-off
    is a local switch.  The last CPU of the affinity set is used, as the
    first tends to take the interrupts.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


# -- command line ---------------------------------------------------------------------


def _report(label: str, value) -> None:
    print(f"# {label}: {json.dumps(value, sort_keys=True, default=str)}",
          flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no src/repro here; run from the root of a "
              "checkout of the program", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))

    workload = wl.WORKLOADS[args.workload]
    _report("pinned to cpu", pin_to_one_cpu())
    t0 = time.perf_counter()
    outcome = asyncio.run(run(root, workload, args.seed, args.seconds,
                              bool(args.trace), _report))
    lag = outcome["lag_p90_s"]
    if lag is not None and lag > LAG_TOLERANCE_S:
        print(f"perfbench: invalid run: generator lag p90 {lag:.4f}s "
              f"exceeds the {LAG_TOLERANCE_S}s tolerance", file=sys.stderr)
        return EXIT_INVALID
    correct, failed = verdict(outcome["attempted"], outcome["check"])
    if args.trace:
        values = {name: {"value": outcome["layer"][name], "unit": unit}
                  for name, unit in LAYER_UNITS.items()}
    else:
        values = {name: {"value": outcome["metrics"][name], "unit": unit}
                  for name, unit in E2E_UNITS.items()}
    for name, entry in values.items():
        print(f"{name:34s} {entry['value']!s:>24} {entry['unit']}")
    print(f"# wall time {time.perf_counter() - t0:.1f}s; failed {failed} of "
          f"{outcome['attempted']} ({outcome['check']})")
    print(json.dumps({"correct": correct, "attempted": outcome["attempted"],
                      "failed": failed, "metrics": values}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
