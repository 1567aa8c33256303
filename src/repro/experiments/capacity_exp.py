"""Capacity planning for the planner fleet itself (``capacity``).

CELIA answers "cheapest cloud configuration meeting a deadline" for
elastic applications; this experiment points the same question at the
service hosting the planner: **given a request trace and a p99 latency
SLO, how many fleet shards should run?**

The sweep axes mirror the paper's configuration space, shrunk to the
service's one scaling knob:

* **shard count** — the fleet's horizontal size (the paper's node
  counts);
* **trace intensity** — offered request rate of a seeded multi-tenant
  trace (the paper's problem size).

Each cell boots a real :class:`repro.fleet.PlannerFleet` with that many
shard workers, prewarm-primes the trace's warm keys, replays the trace
open-loop (:mod:`repro.loadgen.replay`) and records the measured p99,
shed count and availability.  A cell is *feasible* when it met the SLO
with zero errors *and zero sheds* (a shed request is unserved demand);
the answer per intensity is the cheapest
feasible shard count, priced at the catalog's on-demand rate for the
shard host type — exactly the paper's "cheapest configuration meeting
T′" selection, with :func:`repro.pareto.pareto_indices_2d` recovering
the (cost, p99) frontier per intensity.

All workers share one snapshot cache directory, so warm-state builds
happen once across the whole sweep and every cell measures steady-state
serving, not state construction.
"""

from __future__ import annotations

import asyncio
import tempfile
from dataclasses import dataclass

import numpy as np

from repro.experiments.common import ExperimentContext
from repro.loadgen.replay import prewarm, replay_trace
from repro.loadgen.report import ReplayReport
from repro.loadgen.tenants import WorkloadConfig, generate_trace
from repro.pareto import pareto_indices_2d
from repro.utils.tables import TextTable

__all__ = ["CapacityCell", "CapacityResult", "run",
           "DEFAULT_SHARD_COUNTS", "DEFAULT_INTENSITIES_RPS",
           "DEFAULT_SLO_P99_S", "SHARD_HOST_TYPE"]

DEFAULT_SHARD_COUNTS = (1, 2, 3)
DEFAULT_INTENSITIES_RPS = (40.0, 80.0, 160.0)
DEFAULT_SLO_P99_S = 0.5
DEFAULT_DURATION_S = 8.0
DEFAULT_TENANTS = 6

#: The instance type a planner shard is priced as (catalog on-demand
#: rate); the experiment falls back to this hourly price when the
#: context's catalog does not list the type.
SHARD_HOST_TYPE = "m4.large"
FALLBACK_SHARD_PRICE = 0.120


@dataclass(frozen=True, slots=True)
class CapacityCell:
    """One (shard count x trace intensity) measurement."""

    shards: int
    intensity_rps: float
    offered_rps: float
    requests: int
    ok: int
    shed: int
    errors: int
    availability: float | None
    p50_s: float | None
    p99_s: float | None
    cost_per_hour: float
    feasible: bool

    def to_dict(self) -> dict:
        return {
            "shards": self.shards,
            "intensity_rps": self.intensity_rps,
            "offered_rps": self.offered_rps,
            "requests": self.requests,
            "ok": self.ok,
            "shed": self.shed,
            "errors": self.errors,
            "availability": self.availability,
            "p50_s": self.p50_s,
            "p99_s": self.p99_s,
            "cost_per_hour": self.cost_per_hour,
            "feasible": self.feasible,
        }


@dataclass(frozen=True)
class CapacityResult:
    """The capacity sweep plus CELIA-style selection per intensity."""

    slo_p99_s: float
    shard_price_per_hour: float
    duration_s: float
    time_scale: float
    cells: tuple[CapacityCell, ...]
    #: intensity_rps -> cheapest feasible shard count (None: SLO unmet
    #: at every swept size).
    cheapest: dict
    #: intensity_rps -> shard counts on the (cost, p99) Pareto frontier.
    frontier: dict

    def render(self) -> str:
        table = TextTable(
            ["rps", "shards", "$/h", "p99 ms", "shed", "err", "avail",
             "SLO"], aligns="rrrrrrrl",
            title=f"fleet capacity vs p99 SLO {self.slo_p99_s * 1e3:g} ms "
                  f"(shard = {SHARD_HOST_TYPE} "
                  f"${self.shard_price_per_hour:.3f}/h)")
        for cell in self.cells:
            table.add_row([
                f"{cell.intensity_rps:g}", str(cell.shards),
                f"{cell.cost_per_hour:.3f}",
                "-" if cell.p99_s is None else f"{cell.p99_s * 1e3:.1f}",
                str(cell.shed), str(cell.errors),
                "-" if cell.availability is None
                else f"{cell.availability:.3f}",
                "met" if cell.feasible else "MISSED",
            ])
        lines = [table.render(), ""]
        for rps in sorted(self.cheapest):
            shards = self.cheapest[rps]
            frontier = self.frontier.get(rps, ())
            if shards is None:
                verdict = "no swept fleet size met the SLO"
            else:
                verdict = (f"cheapest fleet: {shards} shard(s) at "
                           f"${shards * self.shard_price_per_hour:.3f}/h")
            lines.append(f"{rps:g} rps -> {verdict} "
                         f"(frontier: {list(frontier)})")
        return "\n".join(lines)

    def to_series(self) -> dict:
        return {
            "slo_p99_s": self.slo_p99_s,
            "shard_price_per_hour": self.shard_price_per_hour,
            "duration_s": self.duration_s,
            "time_scale": self.time_scale,
            "cells": [cell.to_dict() for cell in self.cells],
            "cheapest_shards_by_rps": {
                f"{rps:g}": self.cheapest[rps] for rps in self.cheapest},
            "frontier_shards_by_rps": {
                f"{rps:g}": list(self.frontier[rps])
                for rps in self.frontier},
        }


def _shard_price(ctx: ExperimentContext) -> float:
    for instance in ctx.catalog.types:
        if instance.name == SHARD_HOST_TYPE:
            return float(instance.price_per_hour)
    return FALLBACK_SHARD_PRICE


async def _measure_cell(trace, shards: int, *, quota: int, cache_dir,
                        timeout_s: float, time_scale: float
                        ) -> ReplayReport:
    from repro.fleet import FleetConfig, PlannerFleet
    from repro.fleet.frontend import FleetFrontend

    config = FleetConfig(
        workers=shards, port=0, quota=quota, cache_dir=cache_dir,
        monitor_interval_s=0.2, connect_timeout_s=180.0,
        health_probes=False,
    )
    fleet = PlannerFleet(config)
    await fleet.start()
    frontend = FleetFrontend(fleet, host="127.0.0.1", port=0)
    await frontend.start()
    try:
        await prewarm(trace, port=frontend.port, timeout_s=timeout_s)
        result = await replay_trace(
            trace, port=frontend.port, time_scale=time_scale,
            timeout_s=timeout_s, fetch_server_metrics=False)
        return ReplayReport.from_result(result)
    finally:
        await frontend.stop()
        await fleet.stop()


def run(ctx: ExperimentContext, *,
        shard_counts: tuple[int, ...] = DEFAULT_SHARD_COUNTS,
        intensities_rps: tuple[float, ...] = DEFAULT_INTENSITIES_RPS,
        duration_s: float = DEFAULT_DURATION_S,
        tenants: int = DEFAULT_TENANTS,
        quota: int = 2,
        slo_p99_s: float = DEFAULT_SLO_P99_S,
        time_scale: float = 1.0,
        timeout_s: float = 30.0,
        cache_dir=None) -> CapacityResult:
    """Sweep shard count x trace intensity; select per-intensity capacity.

    One trace per intensity (seeded from ``ctx.seed``) is replayed
    against every fleet size, so cells within an intensity differ only
    in capacity.  ``cache_dir=None`` uses a sweep-private temporary
    directory shared by all cells.
    """
    price = _shard_price(ctx)
    cells: list[CapacityCell] = []
    with tempfile.TemporaryDirectory(prefix="celia-capacity-") as fallback:
        shared_cache = cache_dir if cache_dir is not None else fallback
        for rps in intensities_rps:
            trace = generate_trace(WorkloadConfig(
                tenants=tenants, duration_s=duration_s, mean_rps=rps,
                seed=ctx.seed, quota=quota, name=f"capacity-{rps:g}rps"))
            for shards in shard_counts:
                report = asyncio.run(_measure_cell(
                    trace, shards, quota=quota, cache_dir=shared_cache,
                    timeout_s=timeout_s, time_scale=time_scale))
                # A shed request is a tenant that got a 503: the fleet
                # protected itself but did not meet demand, so sheds
                # disqualify a cell just like hard errors do.
                feasible = (report.errors == 0
                            and report.shed == 0
                            and report.ok > 0
                            and report.p99_s <= slo_p99_s)
                cells.append(CapacityCell(
                    shards=shards,
                    intensity_rps=float(rps),
                    offered_rps=report.offered_rps,
                    requests=report.requests,
                    ok=report.ok,
                    shed=report.shed,
                    errors=report.errors,
                    availability=report.availability,
                    p50_s=report.p50_s,
                    p99_s=report.p99_s,
                    cost_per_hour=shards * price,
                    feasible=feasible,
                ))

    cheapest: dict = {}
    frontier: dict = {}
    for rps in intensities_rps:
        group = [c for c in cells if c.intensity_rps == float(rps)]
        feasible = [c for c in group if c.feasible]
        cheapest[float(rps)] = (min(feasible,
                                    key=lambda c: c.cost_per_hour).shards
                                if feasible else None)
        # A cell that answered nothing has no p99: never on the frontier.
        answered = [c for c in group if c.p99_s is not None]
        indices = pareto_indices_2d(
            np.array([c.cost_per_hour for c in answered]),
            np.array([c.p99_s for c in answered]))
        frontier[float(rps)] = tuple(answered[i].shards for i in indices)

    return CapacityResult(
        slo_p99_s=slo_p99_s,
        shard_price_per_hour=price,
        duration_s=duration_s,
        time_scale=time_scale,
        cells=tuple(cells),
        cheapest=cheapest,
        frontier=frontier,
    )
