"""The Flood index: grid + sort dimension + learned refinement.

Build (Sections 3.1 and 5.1): each grid dimension is flattened through its
CDF model and bucketed into columns; points are ordered by cell id
(depth-first along the dimension ordering) and, within each cell, by the
sort dimension. A cell table records the physical start of every cell, and
each cell gets a delta-bounded PLM over its sort-dimension values.

Query (Sections 3.2 and 5.2):

1. **Projection** -- per grid dimension, map the query bounds through the
   CDF to an inclusive column range; the intersecting cells are the cross
   product of those ranges.
2. **Refinement** -- if the query filters the sort dimension, each cell's
   physical range is narrowed with its PLM (or binary search, for the
   ablation), so scanned sort-dimension values are guaranteed in range.
3. **Scan** -- the refined ranges are scanned in one columnar pass; only
   *boundary* columns of filtered grid dimensions need per-point checks
   (interior columns are exact by monotonicity of the CDF), which is why
   Flood's time per scanned point is low (Table 2).
"""

from __future__ import annotations

from itertools import product

import numpy as np

from repro.baselines.base import BaseIndex, timed
from repro.core.flatten import Flattener
from repro.core.layout import GridLayout
from repro.errors import BuildError, SchemaError
from repro.ml.plm import PiecewiseLinearModel, lockstep_searchsorted
from repro.query.predicate import Query
from repro.query.stats import QueryStats
from repro.storage.kernels import get_kernel, resolve_kernel
from repro.storage.scan import Runs, columnar_scan, scan_filtered
from repro.storage.table import Table
from repro.storage.visitor import Visitor

_REFINEMENTS = ("plm", "binary", "none")

#: Below this many planned cells, per-cell scalar refinement beats the
#: lock-step vectorized path (whose ~log(cell width) numpy passes cost more
#: than they save on tiny lane counts).
_LOCKSTEP_MIN_CELLS = 32


class QueryPlan:
    """Vectorized projection result: intersecting cells + residual checks.

    Produced by :meth:`FloodIndex.plan`; arrays are aligned and restricted to
    non-empty cells in ascending cell-id (= storage) order. ``codes`` packs
    each cell's per-dimension boundary flags into an integer (bit K-1-k for
    grid dim k) so the scan can derive residual checks without building
    Python tuples per cell; :meth:`check_bounds` gives each bit its bounds.
    """

    __slots__ = (
        "cells",
        "starts",
        "stops",
        "codes",
        "base_checks",
        "grid_dims",
        "cells_enumerated",
        "refine",
        "sort_low",
        "sort_high",
    )

    def __init__(
        self,
        cells: np.ndarray,
        starts: np.ndarray,
        stops: np.ndarray,
        codes: np.ndarray,
        base_checks: tuple[str, ...],
        grid_dims: tuple[str, ...],
        cells_enumerated: int,
        refine: bool,
        sort_low: int,
        sort_high: int,
    ):
        self.cells = cells
        self.starts = starts
        self.stops = stops
        self.codes = codes
        self.base_checks = base_checks
        self.grid_dims = grid_dims
        self.cells_enumerated = cells_enumerated
        self.refine = refine
        self.sort_low = sort_low
        self.sort_high = sort_high

    def check_bounds(self, query: Query) -> list[tuple[str, int, int, int]]:
        """The plan's residual checks as ``(dim, low, high, bit)``.

        Base checks come first with bit 0 (checked on every run), then each
        filtered grid dim ``k`` in dim order with bit ``1 << (K-1-k)``
        (checked on runs whose code has it set) — the ``checks`` argument
        of :func:`~repro.storage.scan.columnar_scan`.
        """
        checks = [(dim, *query.bounds(dim), 0) for dim in self.base_checks]
        last = len(self.grid_dims) - 1
        for k, dim in enumerate(self.grid_dims):
            if query.filters(dim) and dim not in self.base_checks:
                checks.append((dim, *query.bounds(dim), 1 << (last - k)))
        return checks

    def coalesced_runs(self) -> Runs:
        """Planned cells merged into maximal storage-contiguous runs.

        Consecutive cells whose physical ranges touch (``stops[i] ==
        starts[i+1]``, which holds for adjacent cell ids and across empty
        cells) and that share a residual-check code are scanned as one
        range. Returns :class:`~repro.storage.scan.Runs` in storage order.
        """
        starts, stops, codes = self.starts, self.stops, self.codes
        m = starts.size
        # edge[i]: a run boundary before cell i (edge[m]: after the last).
        edge = np.ones(m + 1, dtype=bool)
        if m > 1:
            np.not_equal(starts[1:], stops[:-1], out=edge[1:m])
            edge[1:m] |= codes[1:] != codes[:-1]
        first, last = edge[:m], edge[1:]
        return Runs(starts[first], stops[last], codes[first])


class FloodIndex(BaseIndex):
    """The learned multi-dimensional index.

    Parameters
    ----------
    layout:
        The grid layout (usually produced by
        :func:`repro.core.optimizer.find_optimal_layout`).
    flatten:
        CDF model kind: ``'rmi'`` (paper), ``'quantile'``, ``'none'``
        (equal-width columns; the Figure 11 "+Sort Dim" rung), or
        ``'conditional'`` (correlation-aware sub-CDFs, Section 6 —
        implemented to verify the paper's claim that it does not pay off).
    refinement:
        ``'plm'`` (paper), ``'binary'`` (Section 3.2.2's simple index), or
        ``'none'`` (skip refinement; sort dimension checked during scan).
    delta:
        PLM per-segment average error bound (paper default 50).
    kernel:
        Compiled scan-kernel spec: ``'auto'`` (default; the numba tier
        when numba is installed, else the numpy columnar scan alone),
        ``'numba'``, or ``None`` for the numpy columnar scan alone.
        Resolved eagerly so ``'numba'`` on an install without numba fails
        here, not mid-query.
    """

    name = "Flood"

    #: Table-content generation. A plain Flood index is immutable after
    #: build, so this never moves; mutable wrappers
    #: (:class:`~repro.core.delta.DeltaBufferedFlood`) bump their own
    #: counter on every insert/merge. The serving layer folds
    #: ``generation`` into result-cache keys, so caching over a mutable
    #: index can never serve a pre-mutation result.
    generation: int = 0

    #: Attributes holding all state :meth:`_build` produces. Lives next to
    #: the build code so additions stay in sync; anything sharing a built
    #: index without rebuilding (``ShardedFloodIndex.wrap``) copies exactly
    #: these. PLM entries are absent under other refinements, hence the
    #: hasattr guard at the copy site.
    _BUILT_STATE_ATTRS = (
        "_table",
        "_sort_values",
        "_cell_starts",
        "_cell_models",
        "_flattener",
        "_plm_cell_offsets",
        "_plm_keys",
        "_plm_pos",
        "_plm_slope",
        "_plm_maxerr",
        "_plm_ends",
    )

    def __init__(
        self,
        layout: GridLayout,
        flatten: str = "rmi",
        refinement: str = "plm",
        delta: float = 50.0,
        kernel: str | None = "auto",
    ):
        super().__init__()
        if refinement not in _REFINEMENTS:
            raise BuildError(
                f"unknown refinement {refinement!r}; use one of {_REFINEMENTS}"
            )
        self.layout = layout
        self.flatten = flatten
        self.refinement = refinement
        self.delta = float(delta)
        self._kernel_spec = kernel
        self._kernel_tier = resolve_kernel(kernel)
        self._scan_kernel = None

    # ----------------------------------------------------------------- kernel
    @property
    def kernel_spec(self) -> str | None:
        """The configured kernel spec (``'auto'``/``'numba'``/None)."""
        return self._kernel_spec

    @property
    def kernel_tier(self) -> str | None:
        """The resolved compiled-kernel tier this index scans with (None:
        the numpy columnar scan alone)."""
        return self._kernel_tier

    @property
    def scan_kernel(self):
        """The resolved :class:`~repro.storage.kernels.ScanKernel` (or None).

        Process-wide singleton per tier, cached on the instance so the
        per-query path pays an attribute load, not a registry lookup.
        """
        if self._kernel_tier is None:
            return None
        kernel = self._scan_kernel
        if kernel is None:
            kernel = self._scan_kernel = get_kernel(self._kernel_tier)
        return kernel

    def use_kernel(self, kernel: str | None) -> str | None:
        """Swap the compiled-kernel tier; returns the previous resolved tier.

        Accepts the same specs as the constructor; resolution is eager,
        so an unavailable explicit ``'numba'`` fails here with the index
        untouched.
        """
        tier = resolve_kernel(kernel)
        old = self._kernel_tier
        self._kernel_spec = kernel
        self._kernel_tier = tier
        self._scan_kernel = None
        return old

    # ------------------------------------------------------------------ build
    def _build(self, table: Table) -> None:
        layout = self.layout
        for dim in layout.order:
            if dim not in table:
                raise SchemaError(f"layout dimension {dim!r} not in table")
        if self.flatten == "conditional":
            from repro.core.conditional import ConditionalFlattener

            self._flattener = ConditionalFlattener(
                table, layout.grid_dims, layout.columns
            )
        else:
            self._flattener = Flattener(table, layout.grid_dims, kind=self.flatten)
        n = table.num_rows
        cell_ids = np.zeros(n, dtype=np.int64)
        for dim, cols in zip(layout.grid_dims, layout.columns):
            assignment = self._flattener.column_of(dim, table.values(dim), cols)
            cell_ids = cell_ids * cols + assignment
        sort_values = table.values(layout.sort_dim)
        # Order by (cell, sort value): lexsort's last key is primary.
        order = np.lexsort((sort_values, cell_ids))
        self._table = table.permute(order)
        self._sort_values = sort_values[order]
        num_cells = layout.num_cells
        counts = np.bincount(cell_ids, minlength=num_cells)
        self._cell_starts = np.zeros(num_cells + 1, dtype=np.int64)
        np.cumsum(counts, out=self._cell_starts[1:])
        self._cell_models: list[PiecewiseLinearModel | None] = [None] * num_cells
        if self.refinement == "plm":
            for cell in range(num_cells):
                start, stop = self._cell_starts[cell], self._cell_starts[cell + 1]
                if stop > start:
                    self._cell_models[cell] = PiecewiseLinearModel(
                        self._sort_values[start:stop], delta=self.delta
                    )
            self._flatten_cell_models()

    def build_clustered(self, table: Table) -> "FloodIndex":
        """Build over a table that is *already* in this layout's clustered
        order, skipping the permutation (and its copy of every column).

        This is the fleet-reader fast path: the writer publishes its
        clustered table through shared memory, and the reader's table is
        byte-identical to what :meth:`_build` would produce — re-sorting
        it would allocate a private copy of the whole table and defeat
        the zero-copy attach. The flattener is re-trained here (same
        value multiset → same CDF → same column assignment), then the
        claimed clustering is *verified*: cell ids must be non-decreasing
        and each cell's sort-dimension run non-decreasing. On any
        violation this falls back to the regular :meth:`build` (correct
        even over read-only shared views — ``permute`` copies into fresh
        local arrays), so a caller can never end up with a mis-clustered
        index.
        """
        start = timed()
        layout = self.layout
        for dim in layout.order:
            if dim not in table:
                raise SchemaError(f"layout dimension {dim!r} not in table")
        if self.flatten == "conditional":
            from repro.core.conditional import ConditionalFlattener

            flattener = ConditionalFlattener(
                table, layout.grid_dims, layout.columns
            )
        else:
            flattener = Flattener(table, layout.grid_dims, kind=self.flatten)
        n = table.num_rows
        cell_ids = np.zeros(n, dtype=np.int64)
        for dim, cols in zip(layout.grid_dims, layout.columns):
            assignment = flattener.column_of(dim, table.values(dim), cols)
            cell_ids = cell_ids * cols + assignment
        sort_values = table.values(layout.sort_dim)
        clustered = bool(np.all(cell_ids[1:] >= cell_ids[:-1])) if n > 1 else True
        if clustered and n > 1:
            # Within-cell ordering: sort values may only decrease at a
            # cell boundary.
            decreasing = sort_values[1:] < sort_values[:-1]
            boundary = cell_ids[1:] != cell_ids[:-1]
            clustered = bool(np.all(boundary[decreasing]))
        if not clustered:
            return self.build(table)
        self._flattener = flattener
        self._table = table
        self._sort_values = np.ascontiguousarray(sort_values)
        num_cells = layout.num_cells
        counts = np.bincount(cell_ids, minlength=num_cells)
        self._cell_starts = np.zeros(num_cells + 1, dtype=np.int64)
        np.cumsum(counts, out=self._cell_starts[1:])
        self._cell_models = [None] * num_cells
        if self.refinement == "plm":
            for cell in range(num_cells):
                cstart, cstop = self._cell_starts[cell], self._cell_starts[cell + 1]
                if cstop > cstart:
                    self._cell_models[cell] = PiecewiseLinearModel(
                        self._sort_values[cstart:cstop], delta=self.delta
                    )
            self._flatten_cell_models()
        self.build_seconds = timed() - start
        return self

    def _flatten_cell_models(self) -> None:
        """Concatenate every cell PLM's segments into global arrays.

        The batched refinement path (:meth:`refine_plan`) runs the same
        model+repair algorithm as :meth:`PiecewiseLinearModel._search`, but
        lock-step across all of a query's cells; that needs each cell's
        segment keys/intercepts/slopes addressable by slices of shared
        arrays. Positions are stored *absolute* (cell start added) so
        predictions index straight into ``self._sort_values``.
        """
        offsets = [0]
        keys, pos, slope, maxerr, ends = [], [], [], [], []
        for cell, model in enumerate(self._cell_models):
            if model is not None:
                base = int(self._cell_starts[cell])
                keys.append(model._seg_keys_arr)
                pos.append(model._seg_pos_arr + base)
                slope.append(model._seg_slope_arr)
                maxerr.append(model._seg_maxerr_arr)
                ends.append(model._seg_end_arr + base)
            offsets.append(offsets[-1] + (model.num_segments if model else 0))
        self._plm_cell_offsets = np.asarray(offsets, dtype=np.int64)
        empty_f = np.empty(0, dtype=np.float64)
        self._plm_keys = np.concatenate(keys) if keys else empty_f
        self._plm_pos = np.concatenate(pos) if pos else empty_f
        self._plm_slope = np.concatenate(slope) if slope else empty_f
        self._plm_maxerr = np.concatenate(maxerr) if maxerr else empty_f
        self._plm_ends = (
            np.concatenate(ends) if ends else np.empty(0, dtype=np.int64)
        )

    @property
    def cell_starts(self) -> np.ndarray:
        """Physical start row of every cell (length ``num_cells + 1``).

        ``cell_starts[c]`` is the first row of cell ``c`` in the clustered
        table and ``cell_starts[-1] == num_rows``; shard boundaries are
        chosen along this array so each shard owns whole cells.
        """
        if self._table is None:
            raise BuildError(f"{self.name} index used before build()")
        return self._cell_starts

    # ------------------------------------------------------------------ query
    def _project(self, query: Query):
        """Per-grid-dim inclusive column ranges plus boundary metadata.

        Returns the 2-tuple ``(info, always_check)``: ``info[k] = (dim,
        first, last, check_first, check_last)`` for grid dimension ``k``
        (boundary flags say whether that end column needs per-point checks),
        and ``always_check`` lists dims whose *every* column needs checks
        (conditioned dims under conditional flattening).
        """
        info = []
        always_check = []
        exactable = getattr(self._flattener, "exactable", None)
        for dim, cols in zip(self.layout.grid_dims, self.layout.columns):
            if query.filters(dim):
                low, high = query.bounds(dim)
                first, last = self._flattener.column_range(dim, low, high, cols)
                if exactable is not None and not exactable(dim):
                    # Conditioned dims (conditional flattening): the column
                    # range is a union over predecessor columns, so every
                    # column needs per-point checks.
                    always_check.append(dim)
                    info.append((dim, first, last, False, False))
                else:
                    # Boundary columns need per-point checks, unless the
                    # query bound covers the whole domain on that side.
                    dom_lo, dom_hi = self._flattener.domain(dim)
                    check_first = low > dom_lo
                    check_last = high < dom_hi
                    info.append((dim, first, last, check_first, check_last))
            else:
                info.append((dim, 0, cols - 1, False, False))
        return info, always_check

    def _base_checks(self, query: Query, always_check, refine) -> tuple[str, ...]:
        """Dims needing per-point checks in *every* visited cell: non-indexed
        filtered dims, conditioned dims, and the sort dim when unrefined."""
        layout = self.layout
        base = tuple(
            d for d in query.dims if d not in layout.order and d in self.table
        ) + tuple(always_check)
        if query.filters(layout.sort_dim) and not refine:
            base += (layout.sort_dim,)
        return base

    def plan(self, query: Query, enum_cache: dict | None = None) -> QueryPlan:
        """Vectorized projection: enumerate intersecting cells in bulk.

        Cell ids come from mixed-radix numpy broadcasting over the per-dim
        column ranges (ascending id order = the old ``product()`` order),
        ``cell_starts`` is gathered in one shot, and per-cell residual-check
        sets are packed into integer codes (one bit per grid dim, set on
        boundary columns that need per-point checks).

        ``enum_cache`` (used by the batch engine) memoizes the enumeration
        arrays keyed by the projected column ranges + boundary flags:
        queries that project identically share one enumeration. Cached
        arrays are never mutated downstream (refinement reassigns fresh
        arrays), so sharing is safe.
        """
        if self._table is None:
            raise BuildError(f"{self.name} index used before build()")
        layout = self.layout
        info, always_check = self._project(query)
        sort_filtered = query.filters(layout.sort_dim)
        refine = sort_filtered and self.refinement != "none"
        sort_low, sort_high = query.bounds(layout.sort_dim)
        base_checks = self._base_checks(query, always_check, refine)
        key = (tuple(info), base_checks) if enum_cache is not None else None
        cached = enum_cache.get(key) if key is not None else None
        if cached is None:
            strides = layout.strides
            cells = np.zeros(1, dtype=np.int64)
            codes = np.zeros(1, dtype=np.int64)
            for k, (dim, first, last, check_first, check_last) in enumerate(info):
                offsets = np.arange(first, last + 1, dtype=np.int64) * strides[k]
                flags = np.zeros(last - first + 1, dtype=np.int64)
                if check_first:
                    flags[0] = 1
                if check_last:
                    flags[-1] = 1
                cells = (cells[:, None] + offsets[None, :]).reshape(-1)
                codes = ((codes[:, None] << 1) | flags[None, :]).reshape(-1)
            starts = self._cell_starts[cells]
            stops = self._cell_starts[cells + 1]
            keep = stops > starts
            cached = (cells[keep], starts[keep], stops[keep], codes[keep], cells.size)
            if key is not None:
                enum_cache[key] = cached
        cells, starts, stops, codes, enumerated = cached
        return QueryPlan(
            cells=cells,
            starts=starts,
            stops=stops,
            codes=codes,
            base_checks=base_checks,
            grid_dims=layout.grid_dims,
            cells_enumerated=enumerated,
            refine=refine,
            sort_low=sort_low,
            sort_high=sort_high,
        )

    def refine_plan(self, plan: QueryPlan) -> None:
        """Narrow every planned cell range on the sort dimension, in place.

        All cells share the query's two probes, so refinement runs lock-step
        across the whole cell batch: one vectorized pass per probe instead
        of two Python searches per cell.
        """
        m = plan.starts.size
        if not plan.refine or m == 0:
            return
        low, high = plan.sort_low, plan.sort_high
        if m < _LOCKSTEP_MIN_CELLS:
            # Small plans: two scalar searches per cell are cheaper than the
            # fixed cost of the vectorized passes.
            new_starts = np.empty(m, dtype=np.int64)
            new_stops = np.empty(m, dtype=np.int64)
            cells, starts, stops = plan.cells, plan.starts, plan.stops
            refine_one = self._refine
            for i in range(m):
                new_starts[i], new_stops[i] = refine_one(
                    int(cells[i]), int(starts[i]), int(stops[i]), low, high
                )
        elif self.refinement == "plm":
            new_starts = self._plm_search_cells(plan, float(low), "left")
            new_stops = self._plm_search_cells(plan, float(high), "right")
        else:  # 'binary' (Section 3.2.2's simple index)
            new_starts = lockstep_searchsorted(
                self._sort_values, plan.starts, plan.stops, low, "left"
            )
            new_stops = lockstep_searchsorted(
                self._sort_values, plan.starts, plan.stops, high, "right"
            )
        keep = new_stops > new_starts
        plan.cells = plan.cells[keep]
        plan.starts = new_starts[keep]
        plan.stops = new_stops[keep]
        plan.codes = plan.codes[keep]

    def _plm_search_cells(
        self, plan: QueryPlan, probe: float, side: str
    ) -> np.ndarray:
        """Absolute refined positions of ``probe`` in every planned cell.

        The batched twin of ``PiecewiseLinearModel._search``: locate each
        cell's covering segment (lock-step binary search over the flattened
        segment keys), predict, verify the error-bounded bracket, repair
        failures to the segment's full range, then finish with a lock-step
        binary search over the brackets in the global sort-value array.
        """
        cells, starts, stops = plan.cells, plan.starts, plan.stops
        sort_values = self._sort_values
        n_total = sort_values.size
        seg_lo = self._plm_cell_offsets[cells]
        seg_hi = self._plm_cell_offsets[cells + 1]
        # Rightmost segment with key <= probe, per cell (upper bound - 1).
        upper = lockstep_searchsorted(
            self._plm_keys, seg_lo, seg_hi, probe, "right"
        )
        idx = upper - 1
        routed = idx >= seg_lo  # probe below a cell's first key -> position 0
        idx = np.maximum(idx, seg_lo)
        seg_start = self._plm_pos[idx].astype(np.int64)
        seg_end = self._plm_ends[idx]
        pred = self._plm_pos[idx] + self._plm_slope[idx] * (
            probe - self._plm_keys[idx]
        )
        lo = np.maximum(pred.astype(np.int64) - 1, seg_start)
        hi = np.minimum(
            (pred + self._plm_maxerr[idx]).astype(np.int64) + 2, seg_end
        )
        lo = np.minimum(lo, hi)
        # Bracket verification (cell-relative boundaries become absolute).
        below = sort_values[np.maximum(lo - 1, 0)]
        above = sort_values[np.minimum(hi, n_total - 1)]
        if side == "left":
            ok = ((lo == starts) | (below < probe)) & (
                (hi >= stops) | (above >= probe)
            )
        else:
            ok = ((lo == starts) | (below <= probe)) & (
                (hi >= stops) | (above > probe)
            )
        lo = np.where(ok, lo, seg_start)
        hi = np.where(ok, hi, np.minimum(seg_end, stops))
        out = lockstep_searchsorted(sort_values, lo, hi, probe, side)
        return np.where(routed, out, starts)

    def execute_plan(
        self,
        plan: QueryPlan,
        query: Query,
        visitor: Visitor,
        stats: QueryStats,
        runs: Runs | None = None,
    ) -> None:
        """Scan a (refined) plan's coalesced runs in one columnar pass.

        Parameters
        ----------
        plan:
            A (refined) :class:`QueryPlan` for ``query``.
        query:
            The query, consulted for residual-check bounds.
        visitor:
            Aggregation visitor fed every matching range.
        stats:
            Mutated in place: ``points_scanned`` / ``points_matched`` /
            ``exact_points`` accumulate over all runs.
        runs:
            Optional pre-computed :class:`~repro.storage.scan.Runs`;
            defaults to ``plan.coalesced_runs()``.
        """
        if runs is None:
            runs = plan.coalesced_runs()
        columnar_scan(
            self.table, runs, plan.check_bounds(query), visitor, stats,
            self.scan_kernel,
        )

    def query(
        self, query: Query, visitor: Visitor, enum_cache: dict | None = None
    ) -> QueryStats:
        """Execute one range query through the vectorized pipeline.

        Runs the paper's three stages — projection (:meth:`plan`),
        sort-dimension refinement (:meth:`refine_plan`), and the coalesced
        scan (:meth:`execute_plan`) — timing each into the returned stats.

        Parameters
        ----------
        query:
            Conjunction of inclusive ranges; dimensions it does not filter
            are unbounded.
        visitor:
            Aggregation visitor fed every matching range (``mask=None``
            marks exact ranges, enabling the cumulative-aggregate path).
        enum_cache:
            Optional cell-enumeration memo shared across queries (see
            :meth:`plan`); the batch engine passes its own.

        Returns
        -------
        :class:`~repro.query.stats.QueryStats` with the paper's counters
        (cells visited, points scanned/matched, per-stage times).
        """
        stats = QueryStats()
        # ---- projection (timed as a whole; per-cell timers would dominate
        # the very overhead they measure).
        index_start = timed()
        plan = self.plan(query, enum_cache=enum_cache)
        stats.cells_visited = plan.cells_enumerated
        stats.index_time = timed() - index_start
        # ---- refinement: narrow each cell's physical range on the sort dim.
        if plan.refine and plan.starts.size:
            refine_start = timed()
            self.refine_plan(plan)
            stats.refine_time = timed() - refine_start
        # ---- scan.
        scan_start = timed()
        self.execute_plan(plan, query, visitor, stats)
        stats.scan_time = timed() - scan_start
        stats.total_time = stats.index_time + stats.refine_time + stats.scan_time
        return stats

    def query_percell(self, query: Query, visitor: Visitor) -> QueryStats:
        """The seed's per-cell reference path (one ``product()`` combo at a
        time, one scan call per cell).

        Kept verbatim as the baseline for ``benchmarks/bench_throughput.py``
        and for result-identity tests against the vectorized engine; produces
        the same stats counters as :meth:`query`.

        Parameters
        ----------
        query:
            Conjunction of inclusive ranges (same semantics as
            :meth:`query`).
        visitor:
            Aggregation visitor fed every matching range.

        Returns
        -------
        :class:`~repro.query.stats.QueryStats`; counter-identical to
        :meth:`query` on the same query (timings differ, of course).
        """
        stats = QueryStats()
        layout = self.layout
        table = self.table
        index_start = timed()
        info, always_check = self._project(query)
        ranges = [range(first, last + 1) for _, first, last, _, _ in info]
        strides = layout.strides
        sort_dim = layout.sort_dim
        sort_filtered = query.filters(sort_dim)
        refine = sort_filtered and self.refinement != "none"
        sort_low, sort_high = query.bounds(sort_dim)
        base_checks = self._base_checks(query, always_check, refine)
        # Per-dim boundary flags indexed by column (True = needs checking).
        boundary_flags = []
        for dim, first, last, check_first, check_last in info:
            flags = {}
            if check_first:
                flags[first] = True
            if check_last:
                flags[last] = True
            boundary_flags.append(flags)
        grid_dim_names = layout.grid_dims
        cell_starts = self._cell_starts
        tasks = []  # (cell, start, stop, check_dims)
        for combo in product(*ranges):
            cell = 0
            checks = base_checks
            for k, col in enumerate(combo):
                cell += col * strides[k]
                if boundary_flags[k].get(col):
                    checks = checks + (grid_dim_names[k],)
            start = int(cell_starts[cell])
            stop = int(cell_starts[cell + 1])
            stats.cells_visited += 1
            if stop > start:
                tasks.append((cell, start, stop, checks))
        stats.index_time = timed() - index_start

        if refine and tasks:
            refine_start = timed()
            refined = []
            for cell, start, stop, checks in tasks:
                start, stop = self._refine(cell, start, stop, sort_low, sort_high)
                if stop > start:
                    refined.append((cell, start, stop, checks))
            tasks = refined
            stats.refine_time = timed() - refine_start

        scan_start = timed()
        bounds_cache: dict[tuple, list] = {}
        for _, start, stop, checks in tasks:
            if not checks:
                visitor.visit(table, start, stop, None)
                scanned = stop - start
                stats.points_scanned += scanned
                stats.points_matched += scanned
                stats.exact_points += scanned
                continue
            bounds = bounds_cache.get(checks)
            if bounds is None:
                bounds = [(d, *query.bounds(d)) for d in checks]
                bounds_cache[checks] = bounds
            scanned, matched = scan_filtered(table, bounds, start, stop, visitor)
            stats.points_scanned += scanned
            stats.points_matched += matched
        stats.scan_time = timed() - scan_start

        stats.total_time = stats.index_time + stats.refine_time + stats.scan_time
        return stats

    def _refine(self, cell, start, stop, low, high) -> tuple[int, int]:
        """Narrow [start, stop) to sort-dimension values in [low, high]."""
        if self.refinement == "plm":
            model = self._cell_models[cell]
            if model is None:
                return start, start
            i1 = model.search_left(low)
            i2 = model.search_right(high)
            return start + i1, start + i2
        section = self._sort_values[start:stop]
        i1 = int(np.searchsorted(section, low, side="left"))
        i2 = int(np.searchsorted(section, high, side="right"))
        return start + i1, start + i2

    # ------------------------------------------------------------------- size
    def size_bytes(self) -> int:
        """Index footprint: cell table + flattening models + per-cell PLMs.

        As in the paper (Section 7.4), over 95% of this is typically the
        per-cell sort-dimension models.
        """
        if self._table is None:
            return 0
        total = int(self._cell_starts.nbytes) + self._flattener.size_bytes()
        for model in self._cell_models:
            if model is not None:
                total += model.size_bytes()
        return total

    def refinement_model_bytes(self) -> int:
        """Footprint of the per-cell models alone (Figure 8 discussion)."""
        return sum(m.size_bytes() for m in self._cell_models if m is not None)
