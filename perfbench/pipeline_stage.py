"""The cold path a user pays once, and the warm start, in fresh processes.

``serve`` imports the program once and then answers one JSON request per
stdin line, each in a child forked for it, so every sample starts from
the state of a fresh process that has just imported the program:

* ``{"stage": "cold", "cache_dir": D}`` runs the facade path
  ``characterise -> Celia.evaluation -> Celia.selection_index`` for each
  signature into the empty directory ``D`` (``workers=1``, as a fleet
  shard uses), leaving a snapshot cache a fleet can serve from;
* ``{"stage": "warm", "cache_dir": D, "select": {...}}`` times a fresh
  ``PlannerService.warm()`` of every signature over ``D`` up to the
  first answered select.

Each answer is one JSON line on stdout.  Forking per sample costs
milliseconds where a new interpreter costs a second, so a run can take
its samples spread over its whole length.  ``layers`` times each layer's
public call on the same signatures into a second empty directory and
prints one JSON object.

Run as ``python3 perfbench/pipeline_stage.py serve|layers --quota Q
--sig APP:SEED [--sig ...] [--cache-dir D]`` with the checkout's ``src``
on ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
import time
import traceback
from pathlib import Path

from fleetproc import vm_hwm_mb

from repro.apps import application_by_name
from repro.cache import EvaluationCache
from repro.cloud.catalog import ec2_catalog
from repro.core.celia import Celia
from repro.core.optimizer import MinCostIndex
from repro.core.selection import FrontierIndex
from repro.service.planner import PlannerService, ServiceConfig


def cold(cache_dir: Path, quota: int, signatures) -> dict:
    stages = {"characterise_s": 0.0, "evaluation_s": 0.0,
              "selection_index_s": 0.0}
    for app_name, seed in signatures:
        celia = Celia(ec2_catalog(max_nodes_per_type=quota), seed=seed,
                      workers=1, cache_dir=cache_dir)
        app = application_by_name(app_name, seed=seed)
        t0 = time.perf_counter()
        celia.capacities(app)
        celia.demand_model(app)
        t1 = time.perf_counter()
        celia.evaluation(app)
        t2 = time.perf_counter()
        index = celia.selection_index(app)
        t3 = time.perf_counter()
        if celia.last_index_from_snapshot or index.frontier_size < 1:
            raise RuntimeError(f"{app_name}/{seed}: cache was not cold")
        stages["characterise_s"] += t1 - t0
        stages["evaluation_s"] += t2 - t1
        stages["selection_index_s"] += t3 - t2
    return {"pipeline_s": sum(stages.values()), **stages,
            "peak_rss_mb": vm_hwm_mb(os.getpid())}


def warm(cache_dir: Path, quota: int, signatures, select: dict) -> dict:
    """A fresh ``PlannerService.warm()`` up to the first answered select."""

    async def once() -> float:
        t0 = time.perf_counter()
        service = PlannerService(config=ServiceConfig(
            workers=1, cache_dir=str(cache_dir), default_quota=quota))
        for app, seed in signatures:
            await service.warm(app, quota=quota, seed=seed)
        await service.handle(select)
        return time.perf_counter() - t0

    return {"warm_start_s": asyncio.run(once())}


def forked(fn, *args) -> dict:
    """``fn(*args)`` in a forked child; its JSON answer or an error.

    Forking is safe here because this process has one thread: the run is
    pinned to one CPU, so NumPy's BLAS starts no threads of its own.
    """
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child: answer through the pipe, never return
        code = 0
        try:
            os.close(read_end)
            try:
                answer = fn(*args)
            except Exception:  # reported to the parent, which fails
                answer = {"error": traceback.format_exc()}
                code = 1
            with os.fdopen(write_end, "w", encoding="utf-8") as out:
                out.write(json.dumps(answer))
        finally:
            os._exit(code)
    os.close(write_end)
    with os.fdopen(read_end, encoding="utf-8") as fh:
        text = fh.read()
    _, status = os.waitpid(pid, 0)
    if not text:
        return {"error": f"stage child ended with status {status} and "
                         f"no answer"}
    return json.loads(text)


def serve(quota: int, signatures) -> None:
    """Answer one stage request per stdin line until stdin closes."""
    for line in sys.stdin:
        request = json.loads(line)
        cache_dir = Path(request["cache_dir"])
        cache_dir.mkdir(parents=True, exist_ok=True)
        if request["stage"] == "cold":
            answer = forked(cold, cache_dir, quota, signatures)
        else:
            answer = forked(warm, cache_dir, quota, signatures,
                            request["select"])
        print(json.dumps(answer), flush=True)


def layers(cache_dir: Path, quota: int, signatures) -> dict:
    """Time each layer's public call; sums over the signatures."""
    out = {"configspace.evaluate_s": 0.0, "selection.frontier_build_s": 0.0,
           "selection.feasibility_build_s": 0.0, "cache.store_s": 0.0,
           "cache.store_index_s": 0.0, "cache.load_s": 0.0,
           "cache.load_index_s": 0.0, "optimizer.min_cost_build_s": 0.0}
    configs = 0
    for app_name, seed in signatures:
        celia = Celia(ec2_catalog(max_nodes_per_type=quota), seed=seed,
                      workers=1, cache_dir=False)
        app = application_by_name(app_name, seed=seed)
        capacities = celia.capacities(app)
        cache = EvaluationCache(cache_dir / f"{app_name}-{seed}")

        def lap(name, fn, *args, **kwargs):
            t0 = time.perf_counter()
            value = fn(*args, **kwargs)
            out[name] += time.perf_counter() - t0
            return value

        evaluation = lap("configspace.evaluate_s", celia.space.evaluate,
                         capacities, workers=1)
        configs += celia.space.size
        index = lap("selection.frontier_build_s", FrontierIndex, evaluation,
                    candidates=evaluation.frontier_candidates())
        lap("selection.feasibility_build_s", index.ensure_feasibility)
        lap("cache.store_s", cache.store, evaluation, capacities)
        lap("cache.store_index_s", cache.store_index, index, capacities)
        loaded = lap("cache.load_s", cache.load, celia.space, capacities)
        if loaded is None:
            raise RuntimeError(f"{app_name}/{seed}: stored evaluation "
                               f"did not load back")
        if lap("cache.load_index_s", cache.load_index, loaded,
               capacities) is None:
            raise RuntimeError(f"{app_name}/{seed}: stored index snapshot "
                               f"did not load back")
        lap("optimizer.min_cost_build_s", MinCostIndex, loaded)
    out["configspace.configs_per_s"] = configs / out["configspace.evaluate_s"]
    out["cache.bytes_written"] = sum(
        p.stat().st_size for p in cache_dir.rglob("*") if p.is_file())
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("serve", "layers"))
    parser.add_argument("--cache-dir", type=Path,
                        help="layers: the empty directory to build into")
    parser.add_argument("--quota", type=int, required=True)
    parser.add_argument("--sig", action="append", required=True,
                        help="APP:SEED signature (repeatable)")
    args = parser.parse_args(argv)
    signatures = [(s.split(":")[0], int(s.split(":")[1])) for s in args.sig]
    if args.mode == "serve":
        serve(args.quota, signatures)
        return 0
    args.cache_dir.mkdir(parents=True, exist_ok=True)
    print(json.dumps(layers(args.cache_dir, args.quota, signatures)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
