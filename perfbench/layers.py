"""Per-layer probes for the traced run.

Each probe sends the same select requests, in the same order, one at a
time, into one layer's public entry point, starting from fresh state so
result caches treat every layer alike:

* ``frontend.http_s`` -- a keep-alive POST to a fresh fleet;
* ``rpc.call_s`` -- ``WorkerLink.call_raw`` straight to a fresh fleet's
  worker socket;
* ``server.dispatch_s`` -- ``dispatch_request`` plus ``json.dumps`` on a
  fresh ``PlannerService``;
* ``planner.handle_s`` -- ``PlannerService.handle`` on another one;
* ``celia.demand_gi_s``, ``selection.select_s`` (``select_batch`` of one
  query), ``selection.feasible_count_s`` and ``optimizer.query_s`` --
  the index layers, on a ``Celia`` over the same snapshot cache.

The last two groups run in a fresh process of their own, as the fleet
worker is one (``python3 perfbench/layers.py --cache-dir D --quota Q
--sig APP:SEED ... --requests FILE --spans FILE`` prints their timings as
JSON).  A layer's self time is its time minus the time of the layer it
calls, request by request (:func:`stats.self_times`).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import time

from loadclient import HttpConnection
from stats import budget_table, median, self_times


class Spans:
    """In-memory span records, written out when the run ends."""

    def __init__(self):
        from repro.obs.trace import Tracer

        self.tracer = Tracer(enabled=True, buffer=1 << 20)
        self._root = None

    def root(self, name: str, attrs: dict):
        span = self.tracer.span(name, attrs)
        self._root = span
        return span

    def record(self, name: str, start_wall: float, wall_s: float,
               **attrs) -> None:
        from repro.obs.trace import make_span_record

        context = self._root.context if self._root is not None else None
        self.tracer.record_raw(make_span_record(
            name, context, start_s=start_wall, wall_s=wall_s, cpu_s=0.0,
            attrs=attrs))

    def write(self, path) -> int:
        records = self.tracer.records()
        with open(path, "w", encoding="utf-8") as fh:
            for record in records:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
        return len(records)


async def _timed(spans: Spans, layer: str, requests, call):
    """Run ``call(request)`` per request; per-request seconds + answers."""
    times, answers = [], []
    for i, request in enumerate(requests):
        wall = time.time()
        t0 = time.perf_counter()
        answers.append(await call(request))
        elapsed = time.perf_counter() - t0
        times.append(elapsed)
        spans.record(f"layer.{layer}", wall, elapsed, i=i)
    return times, answers


async def probe_http(spans: Spans, fleet, requests):
    conn = HttpConnection(fleet.host, fleet.port)
    try:
        return await _timed(
            spans, "frontend", requests,
            lambda r: conn.request("POST", r.path, r.body))
    finally:
        await conn.close()


async def probe_rpc(spans: Spans, socket_path: str, requests):
    from repro.fleet.rpc import WorkerLink

    link = WorkerLink("w0", socket_path)
    await link.connect(timeout_s=30.0)
    try:
        return await _timed(spans, "rpc", requests,
                            lambda r: link.call_raw(r.kind, r.body))
    finally:
        await link.close()


async def probe_service(spans: Spans, make_service, requests):
    """``dispatch_request`` + encode, then ``handle``, each on fresh state."""
    from repro.service.server import dispatch_request

    decoded = [r.as_dict() for r in requests]
    by_body = {r.body: d for r, d in zip(requests, decoded)}

    service = await make_service()

    async def dispatch(r):
        status, envelope = await dispatch_request(service, by_body[r.body])
        json.dumps(envelope)
        return status, envelope

    dispatch_t, answers = await _timed(spans, "server", requests, dispatch)
    service = await make_service()

    async def handle(r):
        return await service.handle(by_body[r.body])

    handle_t, _ = await _timed(spans, "planner", requests, handle)
    return dispatch_t, handle_t, answers


def probe_index(spans: Spans, states, requests) -> dict:
    """Time the index layers on the same queries; per-request lists.

    ``states`` maps ``(app, planner seed)`` to ``(Celia, application)``
    over the workload's snapshot cache.
    """
    from repro.errors import InfeasibleError

    indexes = {}
    for key, (celia, app) in states.items():
        index = celia.selection_index(app)
        index.ensure_feasibility()
        indexes[key] = (celia, app, index, celia.min_cost_index(app))
    out = {"demand": [], "select": [], "count": [], "query": [],
           "fraction": []}
    for i, request in enumerate(requests):
        body = json.loads(request.body)
        celia, app, index, min_cost = indexes[(body["app"], body["seed"])]
        deadline, budget = body["deadline_hours"], body["budget_dollars"]
        wall = time.time()
        t0 = time.perf_counter()
        demand = celia.demand_gi(app, body["n"], body["a"])
        t1 = time.perf_counter()
        index.select_batch([demand], [deadline], [budget])
        t2 = time.perf_counter()
        count = index.feasible_count(demand, deadline, budget)
        t3 = time.perf_counter()
        try:
            min_cost.query(demand, deadline, budget_dollars=budget)
        except InfeasibleError:
            pass  # an empty answer is still an answer
        t4 = time.perf_counter()
        out["demand"].append(t1 - t0)
        out["select"].append(t2 - t1)
        out["count"].append(t3 - t2)
        out["query"].append(t4 - t3)
        out["fraction"].append(count / celia.space.size)
        spans.record("layer.index", wall, t4 - t0, i=i)
    return out


#: The blocking chain of one select, outermost layer first.
BUDGET_CHAIN = ("frontend.self_s", "rpc.self_s", "server.self_s",
                "planner.self_s", "celia.demand_gi_s", "selection.select_s")


def layer_metrics(http, rpc, dispatch, handle, index) -> dict:
    """Per-layer medians, self times and the blocking-chain budget."""
    below_planner = [d + s for d, s in zip(index["demand"], index["select"])]
    chain = list(zip(BUDGET_CHAIN, (
        self_times(http, rpc), self_times(rpc, dispatch),
        self_times(dispatch, handle), self_times(handle, below_planner),
        index["demand"], index["select"])))
    metrics = {
        "frontend.http_s": median(http),
        "rpc.call_s": median(rpc),
        "server.dispatch_s": median(dispatch),
        "planner.handle_s": median(handle),
        "selection.feasible_count_s": median(index["count"]),
        "selection.feasible_fraction":
            sum(index["fraction"]) / len(index["fraction"]),
        "optimizer.query_s": median(index["query"]),
    }
    metrics.update(budget_table(chain, http))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="in-process layer probes of the planner benchmark")
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--quota", type=int, required=True)
    parser.add_argument("--sig", action="append", required=True,
                        help="APP:SEED signature (repeatable)")
    parser.add_argument("--requests", required=True,
                        help="JSON lines of {kind, body}")
    parser.add_argument("--spans", required=True,
                        help="where to write this process's span records")
    args = parser.parse_args(argv)

    from repro.apps import application_by_name
    from repro.cloud.catalog import ec2_catalog
    from repro.core.celia import Celia
    from repro.service.planner import PlannerService, ServiceConfig
    from workloads import Request

    signatures = [(s.split(":")[0], int(s.split(":")[1])) for s in args.sig]
    with open(args.requests, encoding="utf-8") as fh:
        requests = [Request(r["kind"], r["body"].encode("utf-8"))
                    for r in map(json.loads, fh)]
    spans = Spans()

    async def make_service():
        service = PlannerService(config=ServiceConfig(
            workers=1, cache_dir=args.cache_dir, default_quota=args.quota))
        for app, seed in signatures:
            await service.warm(app, quota=args.quota, seed=seed)
        return service

    dispatch_t, handle_t, answers = asyncio.run(
        probe_service(spans, make_service, requests))
    states = {(app, seed): (Celia(ec2_catalog(max_nodes_per_type=args.quota),
                                  seed=seed, workers=1,
                                  cache_dir=args.cache_dir),
                            application_by_name(app, seed=seed))
              for app, seed in signatures}
    index = probe_index(spans, states, requests)
    spans.write(args.spans)
    print(json.dumps({
        "dispatch": dispatch_t, "handle": handle_t, "index": index,
        "answers": [[status, envelope.get("result")]
                    for status, envelope in answers]}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
