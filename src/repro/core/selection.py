"""Algorithm 1 — resource configuration selection.

Enumerate every configuration, predict its time and cost, keep those with
``T < T'`` and ``C < C'``, and pass the survivors through the
Pareto-optimal filter.  Because the whole space is explored, *all*
optimal configurations are found (the paper's exhaustiveness guarantee).

Two execution strategies produce identical results:

* **streamed** — one pass over the space in chunks: each chunk
  contributes its feasible count and its local Pareto candidates; the
  candidates are merged and re-filtered at the end (the Pareto set of a
  union is a subset of the union of per-chunk Pareto sets, so this is
  exact).  Needed whenever an ``exclude_mask`` carves arbitrary holes in
  the space.
* **indexed** — the demand-invariance fast path.  Predicted time
  ``D/U/3600`` and cost ``D·(C_u/U)/3600`` both scale linearly in the
  demand ``D``, so the Pareto-optimal *set of rows* is the same for every
  demand: it is the nondominated set over the demand-free pair
  ``(1/U, C_u/U)``.  :class:`FrontierIndex` precomputes that set once per
  :class:`SpaceEvaluation`; afterwards each query filters the (tiny)
  precomputed frontier by the constraints and counts feasibility with
  binary searches plus a block × rank prefix-count table — O(|frontier|
  + log S + B + R) instead of O(S) (see :func:`rank_table_shape`).

Exactness across the two paths is bit-level, not just mathematical.
Both compute times as ``fl(fl(D/U)/3600)`` and costs as
``fl(fl(D·r)/3600)`` with ``r = fl(C_u/U)`` — the factored cost form
makes cost exactly monotone in ``r`` and time exactly monotone in ``U``
under IEEE rounding, so feasibility is exactly a capacity suffix
intersected with a ratio prefix.  The Pareto filter runs on the exact
pair ``(−U, r)`` in both paths (order-isomorphic to ``(T, C)`` for every
demand in real arithmetic, and immune to rounding collisions), so the
surviving rows coincide row-for-row.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.configspace import DEFAULT_CHUNK, ConfigurationSpace, SpaceEvaluation
from repro.errors import ValidationError
from repro.pareto.frontier import pareto_mask_2d
from repro.units import SECONDS_PER_HOUR

__all__ = [
    "ParetoPoint",
    "SelectionResult",
    "FrontierIndex",
    "select_configurations",
    "select_configurations_batch",
]

#: Rows per block of the feasibility-count structure (√S-ish for the
#: paper's space; a single block for small spaces).
DEFAULT_FEASIBILITY_BLOCK = 4096


def rank_table_shape(total: int, block_size: int) -> tuple[int, int, int]:
    """``(blocks, rank stride R, columns)`` of the feasibility count table:
    at most ``total + blocks`` cells for any block size."""
    n_blocks = -(-total // block_size)
    stride = max(block_size, n_blocks)
    return n_blocks, stride, total // stride + 1


@dataclass(frozen=True, slots=True)
class ParetoPoint:
    """One Pareto-optimal configuration with its predictions."""

    configuration: tuple[int, ...]
    time_hours: float
    cost_dollars: float
    capacity_gips: float
    unit_cost_per_hour: float


@dataclass(frozen=True)
class SelectionResult:
    """Output of Algorithm 1 for one (application run, deadline, budget)."""

    demand_gi: float
    deadline_hours: float
    budget_dollars: float
    total_configurations: int
    feasible_count: int
    pareto: tuple[ParetoPoint, ...]

    @property
    def pareto_count(self) -> int:
        """Number of Pareto-optimal configurations."""
        return len(self.pareto)

    @property
    def cost_span(self) -> tuple[float, float]:
        """(min, max) cost across the Pareto frontier."""
        if not self.pareto:
            raise ValidationError("no Pareto points: selection was infeasible")
        costs = [p.cost_dollars for p in self.pareto]
        return min(costs), max(costs)

    @property
    def max_saving_fraction(self) -> float:
        """Cost saved choosing the cheapest frontier point vs the dearest.

        The paper's Observation 1 headline: up to ~30% for galaxy
        (frontier spans $126–$167 → 1 − 126/167 ≈ 0.25, "up to 30%").
        """
        lo, hi = self.cost_span
        return 1.0 - lo / hi

    def cheapest(self) -> ParetoPoint:
        """The minimum-cost Pareto point."""
        if not self.pareto:
            raise ValidationError("no Pareto points: selection was infeasible")
        return min(self.pareto, key=lambda p: p.cost_dollars)

    def fastest(self) -> ParetoPoint:
        """The minimum-time Pareto point."""
        if not self.pareto:
            raise ValidationError("no Pareto points: selection was infeasible")
        return min(self.pareto, key=lambda p: p.time_hours)


def _validate_query(demand_gi: float, deadline_hours: float,
                    budget_dollars: float) -> None:
    if demand_gi <= 0:
        raise ValidationError("demand must be positive")
    if deadline_hours <= 0 or budget_dollars <= 0:
        raise ValidationError("deadline and budget must be positive")


def _materialize(
    evaluation: SpaceEvaluation,
    all_t: np.ndarray,
    all_c: np.ndarray,
    all_rows: np.ndarray,
    epsilons: tuple[float, float] | None,
) -> list[ParetoPoint]:
    """Order the surviving frontier, optionally ε-thin it, build the points.

    Shared verbatim by the streamed and indexed paths so ordering,
    ε-filtering and decoding are identical: inputs arrive in ascending
    evaluation-row order, output is sorted by time (stable, so ties keep
    row order), and all configurations decode in one vectorized call.
    """
    if all_rows.size == 0:
        return []
    if epsilons is not None:
        from repro.pareto.epsilon import eps_sort

        points = np.column_stack([all_t, all_c])
        _, kept_tags = eps_sort(points, epsilons=list(epsilons),
                                tags=list(range(all_t.size)))
        eps_mask = np.zeros(all_t.size, dtype=bool)
        eps_mask[np.asarray(kept_tags, dtype=np.int64)] = True
        all_t, all_c, all_rows = all_t[eps_mask], all_c[eps_mask], \
            all_rows[eps_mask]
    order = np.argsort(all_t, kind="stable")
    sel_t = all_t[order]
    sel_c = all_c[order]
    sel_rows = all_rows[order]
    matrix = evaluation.configurations_at(sel_rows)
    capacity = evaluation.capacity_gips
    unit_cost = evaluation.unit_cost_per_hour
    return [
        ParetoPoint(
            configuration=tuple(int(v) for v in matrix[k]),
            time_hours=float(sel_t[k]),
            cost_dollars=float(sel_c[k]),
            capacity_gips=float(capacity[row]),
            unit_cost_per_hour=float(unit_cost[row]),
        )
        for k, row in enumerate(sel_rows.tolist())
    ]


class FrontierIndex:
    """Demand-invariant Algorithm-1 accelerator over one evaluation.

    Holds two artefacts:

    * ``frontier_rows`` — the nondominated rows over ``(−U, C_u/U)``,
      which *is* the Pareto frontier for every demand (see module
      docstring).  A query keeps the rows meeting ``T < T'`` and
      ``C < C'``; the restriction is exact because any dominator of a
      feasible point is itself feasible (both objectives only improve).
      When the evaluation came from a fused sweep its harvested
      candidates are merged directly (a few hundred rows); otherwise one
      witness-filtered pass over the value arrays recovers them.
    * the count structure — with rows in capacity order (blocks of ``B``),
      ``pos_of_rank`` maps each ratio rank to its position and
      ``rank_table[j, b]`` counts the rows in blocks ``>= b`` ranked below
      ``j·R``, so ``feasible_count`` is two binary searches, one cell and
      two scans of at most ``B`` and ``R`` rows.  Built lazily on first
      use (two argsorts), or rehydrated via :meth:`from_arrays`.
    """

    def __init__(self, evaluation: SpaceEvaluation,
                 *, chunk_size: int = DEFAULT_CHUNK,
                 block_size: int = DEFAULT_FEASIBILITY_BLOCK,
                 candidates: np.ndarray | None = None):
        if block_size < 1:
            raise ValidationError("block size must be >= 1")
        self.evaluation = evaluation
        self._block_size = block_size
        capacity = evaluation.capacity_gips
        unit_cost = evaluation.unit_cost_per_hour

        # Demand-invariant frontier: chunked local Pareto + exact merge,
        # the same idiom the streamed path uses per query.  A fused sweep
        # hands its harvested candidates in; otherwise one witness-
        # filtered pass over the value arrays recovers them.  Either way
        # the final merge yields the identical frontier (the Pareto set
        # of any candidate superset of the frontier is the frontier).
        from repro.obs.trace import get_tracer

        fused = candidates is not None
        with get_tracer().span("frontier.build",
                               {"fused": fused}) as span:
            if candidates is None:
                from repro.core.sweepkernel import \
                    frontier_candidates_from_values

                candidates = frontier_candidates_from_values(
                    capacity, unit_cost, chunk_size=chunk_size)
            rows = np.asarray(candidates, dtype=np.int64)
            cand_capacity = capacity[rows]
            cand_ratio = unit_cost[rows] / cand_capacity
            final = pareto_mask_2d(-cand_capacity, cand_ratio)
            self.frontier_rows = rows[final]  # ascending row order
            self._frontier_capacity = cand_capacity[final]
            self._frontier_ratio = cand_ratio[final]
            span.set_attribute("candidates", int(rows.size))
            span.set_attribute("frontier", int(self.frontier_rows.size))

        # The feasibility-count structure (two S-length argsorts) is built
        # lazily on the first ``feasible_count`` — frontier-only
        # consumers and snapshot stores that load it from disk never pay
        # the sorts.
        self._capacity_sorted: np.ndarray | None = None
        self._ratio_by_capacity: np.ndarray | None = None
        self._ratio_sorted: np.ndarray | None = None
        self._pos_of_rank: np.ndarray | None = None
        self._rank_table: np.ndarray | None = None

    @classmethod
    def from_arrays(cls, evaluation: SpaceEvaluation, *,
                    frontier_rows: np.ndarray,
                    capacity_sorted: np.ndarray,
                    ratio_by_capacity: np.ndarray,
                    ratio_sorted: np.ndarray,
                    pos_of_rank: np.ndarray,
                    rank_table: np.ndarray,
                    block_size: int) -> "FrontierIndex":
        """Rehydrate an index from persisted (typically mmap'd) arrays.

        No pass over the space and no sorts: the frontier's capacity and
        ratio vectors are tiny gathers from the evaluation arrays, and
        the feasibility structure arrives prebuilt — this is the
        millisecond warm-start path behind
        :meth:`repro.cache.EvaluationCache.load_index`.  Callers are
        responsible for validating shapes/keys (the cache does).
        """
        index = cls.__new__(cls)
        index.evaluation = evaluation
        index._block_size = int(block_size)
        index.frontier_rows = np.asarray(frontier_rows, dtype=np.int64)
        capacity = evaluation.capacity_gips
        index._frontier_capacity = capacity[index.frontier_rows]
        index._frontier_ratio = \
            evaluation.unit_cost_per_hour[index.frontier_rows] \
            / index._frontier_capacity
        index._capacity_sorted = capacity_sorted
        index._ratio_by_capacity = ratio_by_capacity
        index._ratio_sorted = ratio_sorted
        index._pos_of_rank = pos_of_rank
        index._rank_table = rank_table
        return index

    def ensure_feasibility(self) -> None:
        """Build the feasibility-count structure if not yet present.

        Idempotent; called automatically by :meth:`feasible_count` and
        eagerly by snapshot stores (the sorts must exist to persist).
        """
        if self._capacity_sorted is not None:
            return
        evaluation = self.evaluation
        capacity = evaluation.capacity_gips
        ratio = evaluation.cost_ratio()
        total = capacity.size
        order = evaluation.capacity_order()
        # Equal ratios may rank in any order: with ``k`` the left
        # insertion point of a cutoff, ``rank < k`` <=> ``ratio < cutoff``.
        by_ratio = np.argsort(ratio)
        position = np.empty(total, dtype=np.int32)
        position[order] = np.arange(total, dtype=np.int32)
        pos_of_rank = position[by_ratio]
        self._ratio_sorted = ratio[by_ratio]
        del by_ratio, position  # 120 MB at quota 5: free before the table
        block_size = self._block_size
        n_blocks, stride, n_cols = rank_table_shape(total, block_size)
        hist = np.bincount(np.arange(total, dtype=np.int32) // stride
                           * n_blocks + pos_of_rank // block_size,
                           minlength=n_cols * n_blocks).reshape(n_cols, -1)
        rank_table = np.zeros((n_cols, n_blocks), dtype=np.int32)
        np.cumsum(hist[:-1, ::-1], axis=1, out=rank_table[1:, ::-1])
        np.cumsum(rank_table, axis=0, out=rank_table)
        self._ratio_by_capacity = ratio[order]
        self._pos_of_rank = pos_of_rank
        self._rank_table = rank_table
        # Published LAST: concurrent callers (the service computes
        # batches on executor threads) gate on this attribute, so every
        # other array must be visible before it is.  A racing duplicate
        # build is benign — the inputs are deterministic, so both builds
        # produce identical arrays.
        self._capacity_sorted = capacity[order]

    @property
    def block_size(self) -> int:
        """Rows per block of the feasibility-count structure."""
        return self._block_size

    @property
    def frontier_size(self) -> int:
        """Number of rows on the demand-invariant frontier."""
        return int(self.frontier_rows.size)

    # -- exact feasibility cutoffs ---------------------------------------------

    def _capacity_cutoff(self, demand_gi: float, deadline_hours: float) -> int:
        """First capacity-sorted position whose predicted time beats ``T'``.

        ``fl(fl(D/U)/3600)`` is monotone non-increasing in ``U`` (IEEE
        division is monotone), so the feasible set is exactly the suffix
        from this position; the binary search evaluates the *same*
        floating-point predicate the streamed path applies elementwise.
        """
        cs = self._capacity_sorted
        lo, hi = 0, cs.size
        while lo < hi:
            mid = (lo + hi) // 2
            if demand_gi / cs[mid] / SECONDS_PER_HOUR < deadline_hours:
                hi = mid
            else:
                lo = mid + 1
        return lo

    def _ratio_cutoff(self, demand_gi: float, budget_dollars: float) -> int:
        """First ratio-sorted rank whose predicted cost reaches ``C'``.

        ``fl(fl(D·r)/3600)`` is monotone non-decreasing in ``r``, so a row
        is cost-feasible iff its rank is below the returned one (``S``
        when every row is feasible).
        """
        rs = self._ratio_sorted
        lo, hi = 0, rs.size
        while lo < hi:
            mid = (lo + hi) // 2
            if demand_gi * rs[mid] / SECONDS_PER_HOUR < budget_dollars:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def feasible_count(self, demand_gi: float, deadline_hours: float,
                       budget_dollars: float) -> int:
        """How many configurations satisfy ``T < T'`` and ``C < C'``.

        Exactly equal to the streamed count: the two cutoffs reduce the
        conjunction to "capacity position >= p AND rank < k".
        """
        _validate_query(demand_gi, deadline_hours, budget_dollars)
        return self._feasible_count(demand_gi, deadline_hours,
                                    budget_dollars)

    def _feasible_count(self, demand_gi: float, deadline_hours: float,
                        budget_dollars: float) -> int:
        self.ensure_feasibility()
        p = self._capacity_cutoff(demand_gi, deadline_hours)
        total = self._capacity_sorted.size
        if p >= total:
            return 0
        block = self._block_size
        first_full = -(-p // block)  # first block fully inside the suffix
        head_stop = min(first_full * block, total)
        count = int(np.count_nonzero(demand_gi * self._ratio_by_capacity[
            p:head_stop] / SECONDS_PER_HOUR < budget_dollars))
        n_blocks, stride, _ = rank_table_shape(total, block)
        if first_full < n_blocks:
            k = self._ratio_cutoff(demand_gi, budget_dollars)
            j = k // stride
            count += int(self._rank_table[j, first_full]) + int(
                np.count_nonzero(self._pos_of_rank[j * stride:k] >= head_stop))
        return count

    # -- the fast path ----------------------------------------------------------

    def select(self, demand_gi: float, deadline_hours: float,
               budget_dollars: float,
               *, epsilons: tuple[float, float] | None = None
               ) -> SelectionResult:
        """Algorithm 1 via the precomputed index (no pass over the space)."""
        _validate_query(demand_gi, deadline_hours, budget_dollars)
        times = demand_gi / self._frontier_capacity / SECONDS_PER_HOUR
        costs = demand_gi * self._frontier_ratio / SECONDS_PER_HOUR
        keep = (times < deadline_hours) & (costs < budget_dollars)
        pareto_points = _materialize(
            self.evaluation, times[keep], costs[keep],
            self.frontier_rows[keep], epsilons,
        )
        return SelectionResult(
            demand_gi=demand_gi,
            deadline_hours=deadline_hours,
            budget_dollars=budget_dollars,
            total_configurations=self.evaluation.space.size,
            feasible_count=self._feasible_count(demand_gi, deadline_hours,
                                                budget_dollars),
            pareto=tuple(pareto_points),
        )

    def select_batch(
        self,
        demands_gi: "np.ndarray | Sequence[float]",
        deadlines_hours: "np.ndarray | Sequence[float]",
        budgets_dollars: "np.ndarray | Sequence[float]",
        *,
        epsilons: tuple[float, float] | None = None,
    ) -> list[SelectionResult]:
        """Algorithm 1 for many (demand, deadline, budget) queries at once.

        One vectorized pass computes every query's frontier times, costs
        and feasibility mask as 2-D ``(queries, frontier)`` arrays; only
        the per-query materialization loops in Python.  Division and
        multiplication are applied elementwise under the same IEEE
        rounding as the scalar path, so each returned result is
        bit-identical to ``select(d, t, c)`` for the matching query —
        this is what lets the planning service coalesce concurrent
        requests without changing any answer.
        """
        demands = np.asarray(demands_gi, dtype=np.float64)
        deadlines = np.asarray(deadlines_hours, dtype=np.float64)
        budgets = np.asarray(budgets_dollars, dtype=np.float64)
        if not (demands.ndim == deadlines.ndim == budgets.ndim == 1) or \
                not (demands.shape == deadlines.shape == budgets.shape):
            raise ValidationError(
                "batch queries need equal-length 1-D demand, deadline and "
                "budget vectors"
            )
        for d, t, c in zip(demands, deadlines, budgets):
            _validate_query(float(d), float(t), float(c))
        times = demands[:, None] / self._frontier_capacity[None, :] \
            / SECONDS_PER_HOUR
        costs = demands[:, None] * self._frontier_ratio[None, :] \
            / SECONDS_PER_HOUR
        keep = (times < deadlines[:, None]) & (costs < budgets[:, None])
        results: list[SelectionResult] = []
        for q in range(demands.size):
            mask = keep[q]
            pareto_points = _materialize(
                self.evaluation, times[q][mask], costs[q][mask],
                self.frontier_rows[mask], epsilons,
            )
            results.append(SelectionResult(
                demand_gi=float(demands[q]),
                deadline_hours=float(deadlines[q]),
                budget_dollars=float(budgets[q]),
                total_configurations=self.evaluation.space.size,
                feasible_count=self._feasible_count(
                    float(demands[q]), float(deadlines[q]),
                    float(budgets[q])),
                pareto=tuple(pareto_points),
            ))
        return results


def select_configurations_batch(
    evaluation: SpaceEvaluation,
    demands_gi: "np.ndarray | Sequence[float]",
    deadlines_hours: "np.ndarray | Sequence[float]",
    budgets_dollars: "np.ndarray | Sequence[float]",
    *,
    epsilons: tuple[float, float] | None = None,
) -> list[SelectionResult]:
    """Batched Algorithm 1 over one evaluation (the service's entry point).

    Builds (or reuses) the evaluation's :class:`FrontierIndex` and answers
    all queries in one vectorized pass; results are bit-identical to
    calling :func:`select_configurations` once per query.
    """
    return evaluation.frontier_index().select_batch(
        demands_gi, deadlines_hours, budgets_dollars, epsilons=epsilons,
    )


def select_configurations(
    evaluation: SpaceEvaluation,
    demand_gi: float,
    deadline_hours: float,
    budget_dollars: float,
    *,
    chunk_size: int = DEFAULT_CHUNK,
    exclude_mask: np.ndarray | None = None,
    epsilons: tuple[float, float] | None = None,
    method: str = "auto",
) -> SelectionResult:
    """Run Algorithm 1 against a precomputed space evaluation.

    Parameters
    ----------
    evaluation:
        ``U_j`` / ``C_{j,u}`` for the whole space
        (from :meth:`ConfigurationSpace.evaluate`).
    demand_gi:
        Application resource demand ``D_{P(n,a)}`` in GI.
    deadline_hours, budget_dollars:
        The constraints ``T'`` and ``C'`` (strict, per Algorithm 1).
    exclude_mask:
        Optional boolean array over the space (row ``r`` ↔ linear index
        ``r + 1``); ``True`` rows are treated as infeasible regardless of
        time and cost — used for memory-feasibility and similar hard
        constraints (see :meth:`ConfigurationSpace.mask_using_types`).
        Forces the streamed path.
    epsilons:
        Optional ``(time_hours, cost_dollars)`` box sizes for an
        ε-nondomination final filter — the paper's actual pareto.py
        configuration, thinning near-duplicate frontier points.  ``None``
        keeps exact nondomination.
    method:
        ``"streamed"`` forces the exact one-pass scan, ``"indexed"``
        forces the demand-invariant fast path (building the
        :class:`FrontierIndex` on first use; incompatible with
        ``exclude_mask``), and ``"auto"`` uses the index when the
        evaluation already carries one and streams otherwise.

    Returns
    -------
    SelectionResult
        Feasibility counts and the cost-time Pareto frontier; an empty
        ``pareto`` list means no configuration satisfies both bounds.

    Raises
    ------
    ValidationError
        If ``method`` names an unknown strategy, ``"indexed"`` is
        combined with ``exclude_mask`` (hard constraints require the
        streamed scan), or any of demand/deadline/budget is not
        positive.
    """
    if method not in ("auto", "streamed", "indexed"):
        raise ValidationError(
            f"method must be 'auto', 'streamed' or 'indexed', got {method!r}"
        )
    if method == "indexed" and exclude_mask is not None:
        raise ValidationError(
            "the indexed fast path cannot honour exclude_mask; "
            "use method='streamed' (or 'auto')"
        )
    _validate_query(demand_gi, deadline_hours, budget_dollars)

    use_index = method == "indexed" or (
        method == "auto" and exclude_mask is None
        and evaluation.has_frontier_index()
    )
    if use_index:
        return evaluation.frontier_index().select(
            demand_gi, deadline_hours, budget_dollars, epsilons=epsilons,
        )

    space: ConfigurationSpace = evaluation.space
    total = space.size
    if exclude_mask is not None and exclude_mask.shape != (total,):
        raise ValidationError("exclude_mask must cover the whole space")
    feasible_count = 0
    cand_index: list[np.ndarray] = []

    for start in range(0, total, chunk_size):
        stop = min(start + chunk_size, total)
        capacity = evaluation.capacity_gips[start:stop]
        unit_cost = evaluation.unit_cost_per_hour[start:stop]
        ratio = unit_cost / capacity
        times = demand_gi / capacity / SECONDS_PER_HOUR
        costs = demand_gi * ratio / SECONDS_PER_HOUR
        mask = (times < deadline_hours) & (costs < budget_dollars)
        if exclude_mask is not None:
            mask &= ~exclude_mask[start:stop]
        n_feasible = int(np.count_nonzero(mask))
        feasible_count += n_feasible
        if n_feasible == 0:
            continue
        local = pareto_mask_2d(-capacity[mask], ratio[mask])
        cand_index.append(np.flatnonzero(mask)[local] + start)

    pareto_points: list[ParetoPoint] = []
    if cand_index:
        all_rows = np.concatenate(cand_index)
        all_capacity = evaluation.capacity_gips[all_rows]
        all_ratio = evaluation.unit_cost_per_hour[all_rows] / all_capacity
        final = pareto_mask_2d(-all_capacity, all_ratio)
        sel_rows = all_rows[final]
        all_t = demand_gi / all_capacity[final] / SECONDS_PER_HOUR
        all_c = demand_gi * all_ratio[final] / SECONDS_PER_HOUR
        pareto_points = _materialize(evaluation, all_t, all_c, sel_rows,
                                     epsilons)

    return SelectionResult(
        demand_gi=demand_gi,
        deadline_hours=deadline_hours,
        budget_dollars=budget_dollars,
        total_configurations=total,
        feasible_count=feasible_count,
        pareto=tuple(pareto_points),
    )
