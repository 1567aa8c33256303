"""Trace-replay reports: deterministic aggregation of a replay run.

A :class:`ReplayReport` is computed from the raw observations, not from
the metrics histograms: percentiles are exact over *all* samples (no
sliding-window truncation) and, because observations are keyed by the
trace's dense ``request_id``, the aggregation is **independent of
completion order** — replaying the same responses under any concurrency
interleaving yields an identical report.  That property is load-bearing:
the determinism tests shuffle observation order and assert byte-equal
report JSON.

The report answers the operator questions a replay exists to ask:

* did the service keep its availability under this trace
  (``availability`` counts sheds apart from errors)?
* what latency did each tenant actually see (per-tenant p50/p95/p99
  measured from *intended* arrival — coordinated-omission-free)?
* was the replayer itself honest (``max_lag_s`` bounds scheduling skew;
  a lagging replayer under-drives the service)?

A statistic of an empty sample is ``None`` (JSON ``null``), never
``0.0``: a replay that answered nothing has no latency and no
availability, and a zero would pass every latency ceiling.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ValidationError
from repro.loadgen.replay import ReplayResult
from repro.utils.tables import TextTable

__all__ = ["TenantStats", "ReplayReport", "check_invariants"]

_PCTS = (50.0, 95.0, 99.0)


def _percentile(ordered: "list[float]", p: float) -> float | None:
    """Nearest-rank percentile on a sorted list (``None`` when empty)."""
    if not ordered:
        return None
    last = len(ordered) - 1
    return ordered[min(last, round(p / 100.0 * last))]


def _optional_float(value) -> float | None:
    return None if value is None else float(value)


def _ms(seconds: float | None, unit: str = "ms") -> str:
    """Milliseconds for display; ``-`` for an empty sample."""
    return "-" if seconds is None else f"{seconds * 1e3:.1f}{unit}"


@dataclass(frozen=True, slots=True)
class TenantStats:
    """One tenant's slice of a replay."""

    tenant: str
    requests: int
    ok: int
    shed: int
    infeasible: int
    errors: int
    p50_s: float | None
    p95_s: float | None
    p99_s: float | None
    max_s: float | None

    def to_dict(self) -> dict:
        return {
            "tenant": self.tenant,
            "requests": self.requests,
            "ok": self.ok,
            "shed": self.shed,
            "infeasible": self.infeasible,
            "errors": self.errors,
            "p50_s": self.p50_s,
            "p95_s": self.p95_s,
            "p99_s": self.p99_s,
            "max_s": self.max_s,
        }


@dataclass(frozen=True)
class ReplayReport:
    """Aggregated view of one replay run (JSON round-trip + table render)."""

    trace_name: str
    trace_seed: int
    duration_s: float
    time_scale: float
    wall_s: float
    requests: int
    ok: int
    shed: int
    infeasible: int
    errors: int
    availability: float | None
    offered_rps: float
    achieved_rps: float
    p50_s: float | None
    p95_s: float | None
    p99_s: float | None
    max_s: float | None
    max_lag_s: float
    peak_inflight: int
    tenants: tuple[TenantStats, ...]
    burst_p99_s: float | None = None
    calm_p99_s: float | None = None
    server_metrics: dict = field(default_factory=dict)

    # -- construction -----------------------------------------------------

    @classmethod
    def from_result(cls, result: ReplayResult) -> "ReplayReport":
        observations = sorted(result.observations,
                              key=lambda obs: obs.request_id)
        counts = {"ok": 0, "shed": 0, "infeasible": 0, "error": 0}
        latencies: list[float] = []
        burst_lat: list[float] = []
        calm_lat: list[float] = []
        by_tenant: dict[str, list] = {}
        max_lag = 0.0
        for obs in observations:
            counts[obs.status] += 1
            by_tenant.setdefault(obs.tenant, []).append(obs)
            max_lag = max(max_lag, obs.lag_s)
            if obs.status == "ok":
                latencies.append(obs.latency_s)
                (burst_lat if obs.burst else calm_lat).append(obs.latency_s)
        latencies.sort()
        burst_lat.sort()
        calm_lat.sort()

        tenants = []
        for tenant in sorted(by_tenant):
            rows = by_tenant[tenant]
            ok_lat = sorted(o.latency_s for o in rows if o.status == "ok")
            tenants.append(TenantStats(
                tenant=tenant,
                requests=len(rows),
                ok=sum(1 for o in rows if o.status == "ok"),
                shed=sum(1 for o in rows if o.status == "shed"),
                infeasible=sum(1 for o in rows if o.status == "infeasible"),
                errors=sum(1 for o in rows if o.status == "error"),
                p50_s=_percentile(ok_lat, 50.0),
                p95_s=_percentile(ok_lat, 95.0),
                p99_s=_percentile(ok_lat, 99.0),
                max_s=_percentile(ok_lat, 100.0),
            ))

        total = len(observations)
        answered = counts["ok"] + counts["error"]
        wall = max(result.wall_s, 1e-9)
        return cls(
            trace_name=result.trace_name,
            trace_seed=result.trace_seed,
            duration_s=result.duration_s,
            time_scale=result.time_scale,
            wall_s=result.wall_s,
            requests=total,
            ok=counts["ok"],
            shed=counts["shed"],
            infeasible=counts["infeasible"],
            errors=counts["error"],
            availability=(counts["ok"] / answered) if answered else None,
            offered_rps=total / (result.duration_s / result.time_scale)
            if result.duration_s > 0 else 0.0,
            achieved_rps=counts["ok"] / wall,
            p50_s=_percentile(latencies, 50.0),
            p95_s=_percentile(latencies, 95.0),
            p99_s=_percentile(latencies, 99.0),
            max_s=_percentile(latencies, 100.0),
            max_lag_s=max_lag,
            peak_inflight=result.peak_inflight,
            tenants=tuple(tenants),
            burst_p99_s=_percentile(burst_lat, 99.0),
            calm_p99_s=_percentile(calm_lat, 99.0),
            server_metrics=dict(result.server_metrics),
        )

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "trace_name": self.trace_name,
            "trace_seed": self.trace_seed,
            "duration_s": self.duration_s,
            "time_scale": self.time_scale,
            "wall_s": self.wall_s,
            "requests": self.requests,
            "ok": self.ok,
            "shed": self.shed,
            "infeasible": self.infeasible,
            "errors": self.errors,
            "availability": self.availability,
            "offered_rps": self.offered_rps,
            "achieved_rps": self.achieved_rps,
            "p50_s": self.p50_s,
            "p95_s": self.p95_s,
            "p99_s": self.p99_s,
            "max_s": self.max_s,
            "max_lag_s": self.max_lag_s,
            "peak_inflight": self.peak_inflight,
            "burst_p99_s": self.burst_p99_s,
            "calm_p99_s": self.calm_p99_s,
            "tenants": [t.to_dict() for t in self.tenants],
            "server_metrics": self.server_metrics,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ReplayReport":
        try:
            tenants = tuple(
                TenantStats(**row) for row in payload.get("tenants", ()))
            return cls(
                trace_name=str(payload["trace_name"]),
                trace_seed=int(payload["trace_seed"]),
                duration_s=float(payload["duration_s"]),
                time_scale=float(payload["time_scale"]),
                wall_s=float(payload["wall_s"]),
                requests=int(payload["requests"]),
                ok=int(payload["ok"]),
                shed=int(payload["shed"]),
                infeasible=int(payload["infeasible"]),
                errors=int(payload["errors"]),
                availability=_optional_float(payload["availability"]),
                offered_rps=float(payload["offered_rps"]),
                achieved_rps=float(payload["achieved_rps"]),
                p50_s=_optional_float(payload["p50_s"]),
                p95_s=_optional_float(payload["p95_s"]),
                p99_s=_optional_float(payload["p99_s"]),
                max_s=_optional_float(payload["max_s"]),
                max_lag_s=float(payload["max_lag_s"]),
                peak_inflight=int(payload["peak_inflight"]),
                tenants=tenants,
                burst_p99_s=_optional_float(payload.get("burst_p99_s")),
                calm_p99_s=_optional_float(payload.get("calm_p99_s")),
                server_metrics=dict(payload.get("server_metrics", {})),
            )
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"bad replay report: {exc}") from None

    def save(self, path: "str | Path") -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True)
                        + "\n", encoding="utf-8")
        return path

    @classmethod
    def load(cls, path: "str | Path") -> "ReplayReport":
        return cls.from_dict(
            json.loads(Path(path).read_text(encoding="utf-8")))

    # -- rendering --------------------------------------------------------

    def render(self) -> str:
        lines = [
            f"trace {self.trace_name} (seed {self.trace_seed}): "
            f"{self.requests} requests over {self.duration_s:g}s "
            f"at x{self.time_scale:g} "
            f"({self.offered_rps:.1f} offered rps, wall {self.wall_s:.1f}s)",
            f"  ok {self.ok}  shed {self.shed}  "
            f"infeasible {self.infeasible}  errors {self.errors}  "
            "availability " + ("-" if self.availability is None
                               else f"{self.availability:.4f}"),
            f"  latency p50 {_ms(self.p50_s)}  "
            f"p95 {_ms(self.p95_s)}  p99 {_ms(self.p99_s)}  "
            f"max {_ms(self.max_s)}  "
            f"(burst p99 {_ms(self.burst_p99_s)}, "
            f"calm p99 {_ms(self.calm_p99_s)})",
            f"  peak inflight {self.peak_inflight}  "
            f"max replayer lag {self.max_lag_s * 1e3:.1f}ms",
            "",
        ]
        table = TextTable(
            ["tenant", "requests", "ok", "shed", "err",
             "p50 ms", "p95 ms", "p99 ms"])
        for t in self.tenants:
            table.add_row([
                t.tenant, str(t.requests), str(t.ok), str(t.shed),
                str(t.errors + t.infeasible),
                _ms(t.p50_s, ""), _ms(t.p95_s, ""), _ms(t.p99_s, ""),
            ])
        lines.append(table.render())
        return "\n".join(lines)


def check_invariants(report: ReplayReport) -> "list[str]":
    """Structural invariants every honest replay report satisfies.

    Returns a list of violations (empty = sound).  The CI loadgen-smoke
    job runs this against a live replay; the tests run it against
    synthetic results.
    """
    problems = []
    if report.ok + report.shed + report.infeasible + report.errors \
            != report.requests:
        problems.append("status counts do not sum to total requests")
    if report.availability is not None and \
            not 0.0 <= report.availability <= 1.0:
        problems.append("availability outside [0, 1]")
    if report.tenants:
        if sum(t.requests for t in report.tenants) != report.requests:
            problems.append("tenant request counts do not sum to total")
        if sum(t.ok for t in report.tenants) != report.ok:
            problems.append("tenant ok counts do not sum to total ok")
    if (report.p50_s is None) != (report.ok == 0):
        problems.append("latency percentiles must be null exactly when "
                        "no request was answered ok")
    elif report.ok and \
            not report.p50_s <= report.p95_s <= report.p99_s <= report.max_s:
        problems.append("percentiles not monotone")
    for t in report.tenants:
        if t.ok and not t.p50_s <= t.p95_s <= t.p99_s <= t.max_s:
            problems.append(f"tenant {t.tenant} percentiles not monotone")
    if report.wall_s < 0 or report.max_lag_s < 0:
        problems.append("negative timing field")
    if report.peak_inflight < 0:
        problems.append("negative peak_inflight")
    return problems
