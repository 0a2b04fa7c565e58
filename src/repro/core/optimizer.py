"""Layout optimization (paper Section 4.2 / Appendix B, Algorithm 1).

``find_optimal_layout`` samples the dataset and the query workload,
flattens both through per-dimension CDF models, then — for each choice of
sort dimension — orders the remaining dimensions by average selectivity and
runs a gradient-descent search over the column counts, scoring candidates
with the cost model on *estimated* statistics. No candidate layout is ever
built, no data is sorted, and no query is executed during the search, which
is what makes learning fast enough to re-run on workload shifts
(Figure 10).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.cost import CostModel, QueryFeatures
from repro.core.flatten import Flattener
from repro.core.layout import GridLayout
from repro.errors import BuildError


@dataclass
class OptimizationResult:
    """The chosen layout plus bookkeeping for the creation-time benches."""

    layout: GridLayout
    predicted_cost: float
    learn_seconds: float
    candidates: list[tuple[GridLayout, float]] = field(default_factory=list)


def _avg_selectivities(sample_matrix, dims, queries) -> dict[str, float]:
    """Average per-dimension selectivity of the workload on the sample.

    Unfiltered queries contribute selectivity 1 for that dimension, so
    rarely filtered dimensions rank last (and tend to get few columns).
    """
    result = {}
    for k, dim in enumerate(dims):
        values = sample_matrix[:, k]
        total = 0.0
        for query in queries:
            if query.filters(dim):
                low, high = query.bounds(dim)
                total += float(((values >= low) & (values <= high)).mean())
            else:
                total += 1.0
        result[dim] = total / max(len(queries), 1)
    return result


class _SampleEvaluator:
    """Estimates QueryFeatures for candidate layouts from a flattened sample.

    Per dimension we precompute the CDF of every sample point and of every
    query bound; a candidate's statistics then reduce to vectorized
    comparisons (no layout build, no query execution).
    """

    def __init__(self, table, sample_rows, queries, dims, flatten):
        self.n_total = table.num_rows
        self.n_sample = len(sample_rows)
        self.scale = self.n_total / max(self.n_sample, 1)
        self.dims = list(dims)
        self.queries = list(queries)
        self._flattener = Flattener(
            table, self.dims, kind=flatten, sample_rows=sample_rows
        )
        # Per-dim sample CDFs and raw values (values needed for the sort dim).
        self._sample_cdf = {}
        self._sample_values = {}
        for dim in self.dims:
            values = table.values(dim)[sample_rows]
            self._sample_values[dim] = values
            self._sample_cdf[dim] = self._flattener.cdf(dim, values)
        # Per-query, per-dim CDF bounds.
        self._query_cdf_bounds = []
        for query in self.queries:
            bounds = {}
            for dim in self.dims:
                if query.filters(dim):
                    low, high = query.bounds(dim)
                    cdf = self._flattener.cdf(
                        dim, np.array([low, high], dtype=np.int64)
                    )
                    bounds[dim] = (float(cdf[0]), float(cdf[1]))
            self._query_cdf_bounds.append(bounds)

    @property
    def flattener(self) -> Flattener:
        return self._flattener

    def features(self, order, columns) -> list[QueryFeatures]:
        """Estimated QueryFeatures for every sample query under a layout."""
        grid_dims = order[:-1]
        sort_dim = order[-1]
        # math.prod, not np.prod: int64 silently wraps for large products.
        total_cells = math.prod(columns) if columns else 1
        out = []
        for query, cdf_bounds in zip(self.queries, self._query_cdf_bounds):
            nc = 1
            mask = np.ones(self.n_sample, dtype=bool)
            for dim, c in zip(grid_dims, columns):
                if dim in cdf_bounds:
                    lo_cdf, hi_cdf = cdf_bounds[dim]
                    first = min(int(lo_cdf * c), c - 1)
                    last = min(int(hi_cdf * c), c - 1)
                    nc *= last - first + 1
                    point_cdf = self._sample_cdf[dim]
                    mask &= point_cdf >= first / c
                    if last == c - 1:
                        # The real index clips column assignments into the top
                        # column, so a sample point with model CDF == 1.0 still
                        # lands in column c-1; a strict upper comparison would
                        # drop it and underestimate Ns.
                        mask &= point_cdf <= (last + 1) / c
                    else:
                        mask &= point_cdf < (last + 1) / c
                else:
                    nc *= c
            sort_filtered = query.filters(sort_dim)
            if sort_filtered:
                low, high = query.bounds(sort_dim)
                values = self._sample_values[sort_dim]
                mask &= (values >= low) & (values <= high)
            ns = float(np.count_nonzero(mask)) * self.scale
            out.append(
                QueryFeatures(
                    total_cells=total_cells,
                    nc=nc,
                    ns=ns,
                    dims_filtered=len(query),
                    sort_filtered=sort_filtered,
                    table_rows=self.n_total,
                )
            )
        return out


def _descend(
    evaluator: _SampleEvaluator,
    cost_model: CostModel,
    order,
    init_columns,
    max_cells: int,
    max_iters: int = 12,
):
    """Projected finite-difference gradient descent in log2-column space."""

    def project(x):
        x = np.clip(x, 0.0, 20.0)
        total = x.sum()
        cap = np.log2(max_cells)
        if total > cap:
            x = x * (cap / total)
        return x

    costs: dict[tuple[int, ...], float] = {}

    def cost_of(columns):
        # Rounding maps nearby points (finite-difference probes, polish
        # moves) onto the same layout: predict each layout once.
        cost = costs.get(columns)
        if cost is None:
            cost = costs[columns] = cost_model.predict_batch(
                evaluator.features(order, columns)
            )
        return cost

    def cost_at(x):
        columns = tuple(max(1, int(round(2**v))) for v in x)
        return cost_of(columns), columns

    x = project(np.log2(np.maximum(init_columns, 1)).astype(np.float64))
    best_cost, best_columns = cost_at(x)
    step = 1.0
    h = 0.5
    for _ in range(max_iters):
        grad = np.zeros_like(x)
        for j in range(x.size):
            plus = x.copy()
            plus[j] += h
            minus = x.copy()
            minus[j] -= h
            grad[j] = (cost_at(project(plus))[0] - cost_at(project(minus))[0]) / (2 * h)
        norm = float(np.linalg.norm(grad))
        if norm == 0.0:
            break
        candidate = project(x - step * grad / norm)
        cost, columns = cost_at(candidate)
        if cost < best_cost:
            best_cost, best_columns = cost, columns
            x = candidate
            step = min(step * 1.25, 2.0)
        else:
            step *= 0.5
            if step < 0.05:
                break
    # Polish: per-dimension halve/double/drop moves catch improvements the
    # rounded gradient steps miss (e.g. collapsing a barely-useful grid
    # dimension to a single column).
    best_columns = list(best_columns)
    for _ in range(3):
        improved = False
        for j in range(len(best_columns)):
            current = best_columns[j]
            for candidate_cols in {1, max(1, current // 2), current * 2}:
                if candidate_cols == current:
                    continue
                trial = list(best_columns)
                trial[j] = candidate_cols
                # math.prod, not np.prod: the int64 wrap could let an enormous
                # trial layout slip under the cell cap.
                if math.prod(trial) > max_cells:
                    continue
                cost = cost_of(tuple(trial))
                if cost < best_cost:
                    best_cost = cost
                    best_columns = trial
                    improved = True
        if not improved:
            break
    return tuple(best_columns), best_cost


def _init_columns(grid_dims, queries, target_cells: int) -> tuple[int, ...]:
    """Starting column counts: log-share of the target cell count allocated
    in proportion to how often each dimension is filtered."""
    if not grid_dims:
        return ()
    freq = {
        d: sum(1 for q in queries if q.filters(d)) / max(len(queries), 1)
        for d in grid_dims
    }
    weights = np.array([freq[d] + 0.05 for d in grid_dims])
    shares = weights / weights.sum() * np.log(max(target_cells, 2))
    return tuple(max(1, int(round(np.exp(s)))) for s in shares)


def heuristic_layout(
    table,
    queries,
    target_cells: int = 1024,
    sort_dim: str | None = None,
    dims=None,
    sample_size: int = 5000,
    seed: int = 0,
) -> GridLayout:
    """A workload-aware but un-learned layout (Figure 11's middle rungs).

    The most selective dimension becomes the sort dimension; grid columns
    are allocated in proportion to how often each dimension is filtered.
    """
    dims = list(table.dims if dims is None else dims)
    if len(dims) == 0:
        raise BuildError("no dimensions to lay out")
    if table.num_rows == 0:
        raise BuildError("cannot derive a layout from an empty table")
    rng = np.random.default_rng(seed)
    rows = np.sort(
        rng.choice(table.num_rows, size=min(sample_size, table.num_rows), replace=False)
    )
    matrix = np.stack([table.values(d)[rows] for d in dims], axis=1)
    selectivity = _avg_selectivities(matrix, dims, queries)
    if sort_dim is None:
        sort_dim = min(dims, key=lambda d: selectivity[d])
    grid_dims = sorted(
        (d for d in dims if d != sort_dim), key=lambda d: selectivity[d]
    )
    columns = _init_columns(grid_dims, queries, target_cells)
    return GridLayout(tuple(grid_dims) + (sort_dim,), columns)


def find_optimal_layout(
    table,
    queries,
    cost_model: CostModel,
    data_sample_size: int = 2000,
    query_sample_size: int = 50,
    max_cells: int = 16384,
    flatten: str = "rmi",
    seed: int = 0,
    dims=None,
    max_iters: int = 12,
) -> OptimizationResult:
    """Algorithm 1: sample, flatten, try each sort dimension, descend.

    Parameters mirror the paper's sampling knobs (Figures 15 and 16): the
    data and query samples bound learning time without hurting quality.
    """
    start = time.perf_counter()
    rng = np.random.default_rng(seed)
    dims = list(table.dims if dims is None else dims)
    if not dims:
        raise BuildError("no dimensions to lay out")
    if not queries:
        raise BuildError("cannot optimize a layout for an empty workload")

    n = table.num_rows
    sample_rows = (
        np.sort(rng.choice(n, size=min(data_sample_size, n), replace=False))
        if n
        else np.empty(0, dtype=np.int64)
    )
    queries = list(queries)
    if len(queries) > query_sample_size:
        picked = rng.choice(len(queries), size=query_sample_size, replace=False)
        queries = [queries[i] for i in picked]

    evaluator = _SampleEvaluator(table, sample_rows, queries, dims, flatten)
    sample_matrix = np.stack([evaluator._sample_values[d] for d in dims], axis=1)
    selectivity = _avg_selectivities(sample_matrix, dims, queries)

    best = None
    candidates = []
    for sort_dim in dims:
        grid_dims = sorted(
            (d for d in dims if d != sort_dim), key=lambda d: selectivity[d]
        )
        order = tuple(grid_dims) + (sort_dim,)
        if grid_dims:
            init = _init_columns(grid_dims, queries, min(1024, max_cells))
            columns, cost = _descend(
                evaluator, cost_model, order, np.array(init), max_cells, max_iters
            )
        else:
            columns, cost = (), cost_model.predict_batch(
                evaluator.features(order, ())
            )
        layout = GridLayout(order, columns)
        candidates.append((layout, cost))
        if best is None or cost < best[1]:
            best = (layout, cost)

    layout, cost = best
    return OptimizationResult(
        layout=layout,
        predicted_cost=cost,
        learn_seconds=time.perf_counter() - start,
        candidates=candidates,
    )
