"""The benchmark's workloads: seeded request streams and fixed rates.

The request generator lives here, not in the program, so a change to
``src/`` can never change what the benchmark sends.  The same ``seed``
gives byte-identical request bodies and arrival offsets.
"""

from __future__ import annotations

import json
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

#: Demand envelopes ``(n_lo, n_hi, a_lo, a_hi)`` per app: every point is
#: feasible at quota >= 2 under the 48 h / $350 envelope (the same
#: envelopes the program's load generator draws from).
ENVELOPES = {
    "x264": (600.0, 1800.0, 1.0, 40.0),
    "galaxy": (65536.0, 65536.0, 2000.0, 8000.0),
    "sand": (4.0e6, 6.4e7, 0.04, 0.04),
}
#: Demand fields each app validates as integers.
INTEGER_FIELDS = {"x264": ("n",), "galaxy": ("n", "a"), "sand": ("n",)}
#: Catalog size: one count per resource type in a configuration vector.
RESOURCE_TYPES = 9

DEADLINE_HOURS = 48.0
BUDGET_DOLLARS = 350.0

#: serve-q2-mix: request-kind shares of the non-repeat requests.  Fresh
#: selects (which wait out the 2 ms batch window) are more than half of
#: all requests, so the median falls inside the select mode of the
#: latency mixture, not on the gap below it, where a percentile jumps
#: with every small shift of the host's speed.  Cache hits, predict,
#: plan and replan make the fast mode under it.
MIX_SHARES = (("select", 0.70), ("predict", 0.15), ("plan", 0.10),
              ("replan", 0.05))
#: serve-q2-mix: share of requests that repeat an earlier body exactly.
REPEAT_SHARE = 0.20
#: serve-q2-mix: requests per block; the shares above are exact in a
#: block's 5 repeats and 20 fresh requests.
MIX_BLOCK = 25
MIX_TENANTS = 6
MIX_SKEW = 1.1
MIX_APPS = ("galaxy", "x264", "sand")
MIX_PLANNER_SEEDS = (0, 1)

#: serve-q5-select: deadline and budget per galaxy step, drawn
#: log-uniformly so the capacity cutoff (and with it the number of
#: feasibility blocks scanned) ranges from a few rows to the whole space.
Q5_DEADLINE_PER_STEP = (1.9e-3, 7.5e-3)
Q5_BUDGET_PER_STEP = (0.019, 0.030)
#: serve-q5-select: requests per stratified block.
Q5_BLOCK = 16


@dataclass(frozen=True)
class Request:
    """One generated request: its route kind and exact body bytes."""

    kind: str
    body: bytes
    repeat: bool = False

    @property
    def path(self) -> str:
        return f"/v1/{self.kind}"

    def as_dict(self) -> dict:
        """The decoded body with its ``kind``, as the service sees it."""
        return {**json.loads(self.body), "kind": self.kind}


@dataclass(frozen=True)
class Workload:
    """A named workload: its space, its signatures and its fixed rates."""

    name: str
    quota: int
    #: ``(app, planner seed)`` pairs the workload touches.
    signatures: tuple
    #: ``generator(seed, count, quota, stream)`` -> requests.
    generator: Callable
    #: Closed-loop completions per second of the seed commit over one
    #: connection on one CPU of a two-vCPU VM, in its slower, contended
    #: periods.  Fixed here so every later commit is measured at the same
    #: rates.
    reference_capacity_rps: float
    #: Sequential select requests per layer in the traced run's probes.
    probe_requests: int
    #: The serving load runs as this many interleaved rounds (capacity,
    #: low, high, capacity, ...), each after its side stages, so that a
    #: passing slowdown of the shared machine lands on a few rounds of
    #: every metric instead of on all of one.
    rounds: int
    #: Cold pipelines before each round, besides the one before serving
    #: that builds the cache the fleet serves from: more where one takes
    #: a fraction of a second, none where it takes seconds.  One warm
    #: start follows them.
    pipeline_per_round: int

    @property
    def low_rps(self) -> float:
        return 0.3 * self.reference_capacity_rps

    @property
    def high_rps(self) -> float:
        # Half of capacity, not more: the capacity of a shared two-vCPU VM
        # swings by a third between busy and quiet periods of its host,
        # and nearer saturation that swing, not the code, sets latency.
        return 0.5 * self.reference_capacity_rps

    def requests(self, seed: int, count: int,
                 stream: int = 0) -> "list[Request]":
        """``count`` requests of the seeded ``stream`` (0: served load)."""
        return self.generator(seed, count, self.quota, stream)


def encode(body: dict) -> bytes:
    return json.dumps(body, separators=(",", ":"),
                      sort_keys=True).encode("utf-8")


def _rng(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *tags]))


def _log_uniform(rng, lo: float, hi: float, u: "float | None" = None) -> float:
    """Log-uniform on ``[lo, hi]``; at quantile ``u`` if one is given."""
    if lo == hi:
        return float(lo)
    if u is None:
        u = rng.uniform()
    return float(math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo))))


def stratified(rng, count: int) -> np.ndarray:
    """``count`` uniform quantiles, one in each of ``count`` equal strata,
    in random order.

    Every block of a stream draws its variates this way, so each block --
    and with it each round of a run and each seed's whole stream -- covers
    the distribution evenly instead of by luck.
    """
    return rng.permutation((np.arange(count) + rng.uniform(size=count))
                           / count)


def stratified_choice(rng, probs, count: int) -> np.ndarray:
    """``count`` category indices whose counts follow ``probs`` closely."""
    edges = np.cumsum(probs)
    edges[-1] = 1.0
    return np.searchsorted(edges, stratified(rng, count), side="right")


def demand_point(rng, app: str) -> "tuple[float, float]":
    n_lo, n_hi, a_lo, a_hi = ENVELOPES[app]
    n = _log_uniform(rng, n_lo, n_hi)
    a = _log_uniform(rng, a_lo, a_hi)
    if "n" in INTEGER_FIELDS[app]:
        n = float(max(round(n), math.ceil(n_lo)))
    if "a" in INTEGER_FIELDS[app]:
        a = float(max(round(a), math.ceil(a_lo)))
    return n, a


def _mix_body(rng, kind: str, app: str, quota: int, seed: int) -> dict:
    n, a = demand_point(rng, app)
    n_lo, n_hi, a_lo, a_hi = ENVELOPES[app]
    common = {"app": app, "quota": quota, "seed": seed}
    if kind == "select":
        return {**common, "n": n, "a": a, "deadline_hours": DEADLINE_HOURS,
                "budget_dollars": BUDGET_DOLLARS}
    if kind == "predict":
        config = [int(v) for v in rng.integers(0, quota + 1,
                                               RESOURCE_TYPES)]
        if not any(config):
            config[int(rng.integers(RESOURCE_TYPES))] = 1
        return {**common, "n": n, "a": a, "configuration": config}
    if kind == "plan":
        plan = {**common, "deadline_hours": DEADLINE_HOURS,
                "budget_dollars": BUDGET_DOLLARS,
                "integral": app == "galaxy"}
        if n_lo == n_hi:  # fixed problem size: search the size knob
            return {**plan, "fix_accuracy": a, "range": [8192.0, n_hi]}
        return {**plan, "fix_size": n, "range": [a_lo, a_hi]}
    # replan: a residual share of the work under a residual envelope.
    share = float(rng.uniform(0.2, 0.9))
    return {**common, "remaining_gi": round(_log_uniform(rng, 1e5, 5e6), 3),
            "residual_deadline_hours": DEADLINE_HOURS * share,
            "residual_budget_dollars": BUDGET_DOLLARS * share,
            "n": n, "accuracy": a}


def mix_requests(seed: int, count: int, quota: int,
                 stream: int = 0) -> "list[Request]":
    """serve-q2-mix: Zipf tenants, four request kinds, exact repeats.

    Drawn in blocks of :data:`MIX_BLOCK` requests: each block holds
    exactly :data:`REPEAT_SHARE` repeats and the kinds in their
    :data:`MIX_SHARES`, with tenants stratified over the Zipf weights.
    """
    rng = _rng(seed, 2, stream)
    weights = np.array([1.0 / (i + 1) ** MIX_SKEW
                        for i in range(MIX_TENANTS)])
    weights /= weights.sum()
    kinds = [k for k, _ in MIX_SHARES]
    shares = np.array([s for _, s in MIX_SHARES])
    repeats = round(REPEAT_SHARE * MIX_BLOCK)
    out: list[Request] = []
    fresh: list[Request] = []
    seen: set = set()
    while len(out) < count:
        repeat_at = set(rng.permutation(MIX_BLOCK)[:repeats].tolist())
        block_kinds = stratified_choice(rng, shares, MIX_BLOCK - repeats)
        block_tenants = stratified_choice(rng, weights, MIX_BLOCK - repeats)
        drawn = 0
        for slot in range(MIX_BLOCK):
            if slot in repeat_at and fresh:
                earlier = fresh[int(rng.integers(len(fresh)))]
                out.append(Request(earlier.kind, earlier.body, repeat=True))
                continue
            index = min(drawn, MIX_BLOCK - repeats - 1)
            drawn += 1
            tenant = int(block_tenants[index])
            kind = kinds[int(block_kinds[index])]
            app = MIX_APPS[tenant % len(MIX_APPS)]
            planner_seed = MIX_PLANNER_SEEDS[tenant % len(MIX_PLANNER_SEEDS)]
            body = encode(_mix_body(rng, kind, app, quota, planner_seed))
            while (kind, body) in seen:  # only the chosen repeats repeat
                body = encode(_mix_body(rng, kind, app, quota, planner_seed))
            seen.add((kind, body))
            request = Request(kind, body)
            fresh.append(request)
            out.append(request)
    return out[:count]


def select_requests(seed: int, count: int, quota: int,
                    stream: int = 0) -> "list[Request]":
    """serve-q5-select: unique galaxy selects over a deadline/budget range.

    Accuracy, deadline and budget are drawn in blocks of
    :data:`Q5_BLOCK`, each variate stratified on its own (a Latin
    hypercube per block), so the mix of cheap and costly queries is the
    same in every round and for every seed.
    """
    rng = _rng(seed, 5, stream)
    n = ENVELOPES["galaxy"][0]
    a_lo, a_hi = ENVELOPES["galaxy"][2:]
    out = []
    while len(out) < count:
        for u_a, u_deadline, u_budget in zip(stratified(rng, Q5_BLOCK),
                                             stratified(rng, Q5_BLOCK),
                                             stratified(rng, Q5_BLOCK)):
            a = float(max(round(_log_uniform(rng, a_lo, a_hi, u_a)),
                          math.ceil(a_lo)))
            deadline = a * _log_uniform(rng, *Q5_DEADLINE_PER_STEP,
                                        u=u_deadline)
            budget = a * _log_uniform(rng, *Q5_BUDGET_PER_STEP, u=u_budget)
            out.append(Request("select", encode({
                "app": "galaxy", "quota": quota, "seed": 0, "n": n, "a": a,
                "deadline_hours": deadline, "budget_dollars": budget})))
    return out[:count]


WORKLOADS = {
    w.name: w for w in (
        Workload("serve-q2-mix", 2,
                 tuple((app, s) for app in MIX_APPS
                       for s in MIX_PLANNER_SEEDS),
                 mix_requests, reference_capacity_rps=350.0,
                 probe_requests=200, rounds=16, pipeline_per_round=1),
        Workload("serve-q5-select", 5, (("galaxy", 0),), select_requests,
                 reference_capacity_rps=80.0, probe_requests=60, rounds=8,
                 pipeline_per_round=0),
    )
}


def arrivals(seed: int, phase: int, rate: float, count: int) -> "list[float]":
    """Poisson arrival offsets (seconds from phase start) at ``rate``.

    A Poisson process conditioned on ``count`` arrivals in ``count /
    rate`` seconds: sorted uniform times over that span.  Conditioning
    keeps every seed's phase at exactly the intended rate.
    """
    span = count / rate
    times = np.sort(_rng(seed, 100 + phase).uniform(0.0, span, count))
    return [float(t) for t in times]


def realised_shares(requests: "list[Request]") -> dict:
    """Share of each kind among all requests, and of exact repeats."""
    total = len(requests)
    shares = {f"share.{kind}": sum(r.kind == kind for r in requests) / total
              for kind, _ in MIX_SHARES}
    shares["share.repeat"] = sum(r.repeat for r in requests) / total
    return shares
