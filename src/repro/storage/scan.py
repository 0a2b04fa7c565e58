"""The scan-and-filter kernels.

``scan_range`` scans one physical range of the clustered table, checks each
row against the residual filter, and feeds the visitor; the baselines scan
through it. Two paper optimizations live here:

- **Exact ranges** (Section 7.1, optimization 1): when the caller guarantees
  every row in the range matches (``exact=True``), per-value checks are
  skipped entirely and the visitor receives ``mask=None`` — which in turn
  unlocks cumulative-aggregate answers.
- **Skip dims**: dimensions already guaranteed by the caller (e.g. the sort
  dimension after refinement, or a k-d tree page fully inside the query
  rectangle on some dimension) are excluded from the residual filter,
  reducing per-point work — this is why Flood's "time per scanned point" is
  lower than the baselines' in Table 2.

Flood scans a query's runs with :func:`columnar_scan`: one pass over all
of them, one decode per residual dim and one batched visitor call.
``scan_filtered`` is the per-range reference the Flood tests compare
against.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from repro.storage.table import Table
from repro.storage.visitor import Visitor


def scan_range(
    table: Table,
    ranges: Mapping[str, tuple[int, int]],
    start: int,
    stop: int,
    visitor: Visitor,
    exact: bool = False,
    skip_dims: frozenset[str] | set[str] = frozenset(),
) -> tuple[int, int]:
    """Scan rows [start, stop), filter by ``ranges``, accumulate ``visitor``.

    Parameters
    ----------
    ranges:
        Dim name -> inclusive (low, high) bounds. Dims not in the table are
        ignored (the paper ignores filters on unindexed dims at this layer).
    exact:
        The caller guarantees all rows match; skip all checks.
    skip_dims:
        Dims whose bounds are already guaranteed for this range.

    Returns
    -------
    (points_scanned, points_matched)
    """
    start = max(0, int(start))
    stop = min(table.num_rows, int(stop))
    if stop <= start:
        return 0, 0
    scanned = stop - start
    if exact:
        visitor.visit(table, start, stop, None)
        return scanned, scanned
    applicable = [
        (dim, bounds)
        for dim, bounds in ranges.items()
        if dim in table and dim not in skip_dims
    ]
    if not applicable:
        visitor.visit(table, start, stop, None)
        return scanned, scanned
    mask = None
    for dim, (low, high) in applicable:
        values = table.values(dim, start, stop)
        dim_mask = (values >= low) & (values <= high)
        mask = dim_mask if mask is None else (mask & dim_mask)
    matched = int(np.count_nonzero(mask))
    if matched:
        visitor.visit(table, start, stop, mask)
    return scanned, matched


def scan_filtered(
    table: Table,
    bounds: list[tuple[str, int, int]],
    start: int,
    stop: int,
    visitor: Visitor,
) -> tuple[int, int]:
    """Lean scan kernel for callers that pre-resolved the residual filter.

    ``bounds`` is a non-empty list of ``(dim, low, high)`` already
    restricted to dims present in the table; range clamping is the caller's
    job. Flood's per-cell scan path uses this to avoid re-deriving the
    residual filter for every cell.
    """
    mask = None
    for dim, low, high in bounds:
        values = table.values(dim, start, stop)
        dim_mask = (values >= low) & (values <= high)
        mask = dim_mask if mask is None else (mask & dim_mask)
    matched = int(np.count_nonzero(mask))
    if matched:
        visitor.visit(table, start, stop, mask)
    return stop - start, matched


class Runs:
    """One query's scan runs as three aligned int64 arrays.

    Run ``i`` covers rows ``[starts[i], stops[i])`` of the clustered table
    and needs the residual checks whose bits are set in ``codes[i]`` (see
    :func:`columnar_scan`). Runs are storage-ordered and disjoint; the
    shape ``QueryPlan.coalesced_runs`` produces and :func:`split_runs`
    cuts at shard boundaries.
    """

    __slots__ = ("starts", "stops", "codes")

    def __init__(self, starts: np.ndarray, stops: np.ndarray, codes: np.ndarray):
        self.starts = starts
        self.stops = stops
        self.codes = codes

    def __len__(self) -> int:
        return int(self.starts.size)

    @property
    def points(self) -> int:
        """Rows covered by all runs."""
        return int((self.stops - self.starts).sum())


def split_runs(runs: Runs, boundaries) -> list[Runs]:
    """Partition runs at shard boundaries.

    Parameters
    ----------
    runs:
        Storage-ordered, non-overlapping :class:`Runs`.
    boundaries:
        Ascending row offsets ``[b_0=0, b_1, ..., b_K=num_rows]`` delimiting
        K storage-contiguous shards; shard ``k`` owns rows
        ``[b_k, b_{k+1})``.

    Returns
    -------
    One :class:`Runs` per shard, in shard order. A run crossing a boundary
    is split at it (the residual-check code is duplicated on both sides),
    so concatenating the per-shard runs scans exactly the input rows; the
    last shard absorbs any overhang past ``b_K``. Shards that intersect no
    run get empty runs.
    """
    boundaries = np.asarray(boundaries, dtype=np.int64)
    num_shards = boundaries.size - 1
    if num_shards <= 0:
        return []
    starts, stops = runs.starts, runs.stops
    last = num_shards - 1
    first_shard = np.clip(np.searchsorted(boundaries, starts, "right") - 1, 0, last)
    last_shard = np.clip(np.searchsorted(boundaries, stops - 1, "right") - 1, 0, last)
    pieces = np.where(stops > starts, last_shard - first_shard + 1, 0)
    run_of = np.repeat(np.arange(starts.size), pieces)
    ends = np.cumsum(pieces)
    # Shard of each piece: its run's first shard plus its rank in the run.
    rank = np.arange(run_of.size) - (ends - pieces)[run_of]
    shard = first_shard[run_of] + rank
    piece_starts = np.where(rank == 0, starts[run_of], boundaries[shard])
    piece_stops = np.where(
        shard == last_shard[run_of], stops[run_of], boundaries[shard + 1]
    )
    piece_codes = runs.codes[run_of]
    cuts = np.searchsorted(shard, np.arange(num_shards + 1)).tolist()
    return [
        Runs(piece_starts[a:b], piece_stops[a:b], piece_codes[a:b])
        for a, b in zip(cuts[:-1], cuts[1:])
    ]


_NO_ROWS = np.empty(0, dtype=np.int64)

#: Filtered runs decode by one contiguous slice each, instead of one
#: gather over all of them, when there are at most _SLICE_MAX_RUNS of
#: them or they average at least _SLICE_MIN_RUN rows: a slice costs a few
#: microseconds per run but decodes a compressed row about five times
#: faster than a gather (which also needs the row ids built first).
_SLICE_MAX_RUNS = 2
_SLICE_MIN_RUN = 1024


def _decode(table, dim: str, starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """``dim`` over every run, concatenated, by one slice decode per run."""
    parts = [
        table.values(dim, start, stop)
        for start, stop in zip(starts.tolist(), stops.tolist())
    ]
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _offsets(starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """Each run's offset into the runs' concatenated rows, then the total."""
    offsets = np.zeros(starts.size + 1, dtype=np.int64)
    np.cumsum(stops - starts, out=offsets[1:])
    return offsets


def _row_ids(starts: np.ndarray, stops: np.ndarray, offsets: np.ndarray):
    """Row ids of every run, concatenated in run order."""
    # A position's row id is its run's start plus its rank within the run.
    rows = np.repeat(starts - offsets[:-1], stops - starts)
    rows += np.arange(rows.size, dtype=np.int64)
    return rows


class ScanBatch:
    """One columnar scan pass, as :meth:`Visitor.visit_many` receives it.

    Exact runs (every row matches) are kept as ranges; the other runs are
    decoded together, with one match mask over their concatenated rows.

    Attributes
    ----------
    table:
        The scanned table.
    exact_starts, exact_stops:
        The exact runs, in storage order.
    starts, stops:
        The filtered runs (those needing residual checks), in storage
        order.
    rows:
        Row ids of the filtered runs, concatenated in storage order
        (built on first use).
    offsets:
        Each filtered run's offset into ``rows``, then ``size``.
    size:
        Rows in the filtered runs.
    mask:
        Per ``rows`` entry, whether the row passed every residual check.
    exact_points:
        Rows in exact runs.
    hits:
        Matching rows among ``rows``.
    """

    __slots__ = (
        "table",
        "exact_starts",
        "exact_stops",
        "starts",
        "stops",
        "offsets",
        "size",
        "mask",
        "exact_points",
        "hits",
        "_rows",
        "_sliced",
        "_values",
    )

    def __init__(self, table, exact_starts, exact_stops, starts, stops):
        self.table = table
        self.exact_starts = exact_starts
        self.exact_stops = exact_stops
        self.starts = starts
        self.stops = stops
        self.offsets = _offsets(starts, stops)
        self.size = int(self.offsets[-1])
        self.mask = np.ones(self.size, dtype=bool)
        self.exact_points = (
            int((exact_stops - exact_starts).sum()) if exact_starts.size else 0
        )
        self.hits = self.size
        self._rows = None
        self._sliced = (
            starts.size <= _SLICE_MAX_RUNS or self.size >= _SLICE_MIN_RUN * starts.size
        )
        self._values: dict[str, np.ndarray] = {}

    @property
    def matched(self) -> int:
        """Matching rows, exact runs included."""
        return self.exact_points + self.hits

    @property
    def rows(self) -> np.ndarray:
        if self._rows is None:
            self._rows = _row_ids(self.starts, self.stops, self.offsets)
        return self._rows

    def values(self, dim: str) -> np.ndarray:
        """``dim`` decoded at every entry of ``rows``: once per pass, shared
        by the residual checks and the visitors."""
        values = self._values.get(dim)
        if values is None:
            if self._sliced:
                values = _decode(self.table, dim, self.starts, self.stops)
            else:
                values = self.table.take(dim, self.rows)
            self._values[dim] = values
        return values

    def filter(self, bounds) -> int:
        """AND the inclusive ``(dim, low, high)`` checks into ``mask``, one
        decode per dim; returns (and stores as ``hits``) the matches."""
        mask = None
        for dim, low, high in bounds:
            values = self.values(dim)
            if mask is None:
                mask = values >= low
            else:
                mask &= values >= low
            mask &= values <= high
        if mask is not None:
            self.mask = mask
        self.hits = int(np.count_nonzero(self.mask))
        return self.hits

    def matching_values(self, dim: str) -> list[np.ndarray]:
        """``dim`` at every matching row, as at most two non-empty arrays:
        the exact runs' values and the filtered matches."""
        parts = []
        if self.exact_points:
            parts.append(
                _decode(self.table, dim, self.exact_starts, self.exact_stops)
            )
        if self.hits:
            parts.append(self.values(dim)[self.mask])
        return parts

    def matching_rows(self) -> np.ndarray:
        """Row ids of every matching row, ascending."""
        filtered = self.rows[self.mask] if self.hits else None
        if not self.exact_points:
            return filtered if filtered is not None else _NO_ROWS
        exact = _row_ids(
            self.exact_starts,
            self.exact_stops,
            _offsets(self.exact_starts, self.exact_stops),
        )
        if filtered is None:
            return exact
        return np.sort(np.concatenate((exact, filtered)))

    def visits(self) -> list[tuple[int, int, np.ndarray | None]]:
        """The batch as per-run ``(start, stop, mask)`` visits in storage
        order: ``mask`` is None on exact runs and the run's slice of
        :attr:`mask` otherwise; filtered runs with no match are left out."""
        out = [
            (start, stop, None)
            for start, stop in zip(
                self.exact_starts.tolist(), self.exact_stops.tolist()
            )
        ]
        if self.hits:
            seen = np.zeros(self.mask.size + 1, dtype=np.int64)
            np.cumsum(self.mask, out=seen[1:])
            offsets = self.offsets
            hit_runs = np.flatnonzero(seen[offsets[1:]] != seen[offsets[:-1]])
            offsets = offsets.tolist()
            starts, stops = self.starts.tolist(), self.stops.tolist()
            for i in hit_runs.tolist():
                out.append(
                    (starts[i], stops[i], self.mask[offsets[i] : offsets[i + 1]])
                )
            if self.exact_starts.size:
                out.sort(key=lambda visit: visit[0])
        return out


def columnar_scan(table, runs: Runs, checks, visitor, stats, kernel=None) -> None:
    """Scan a batch of runs in one columnar pass: Flood's scan stage.

    Every Flood scan goes through here: :meth:`FloodIndex.execute_plan`
    with all of a query's runs, and each scan backend with one shard's
    share of them.

    - *Exact* runs (code 0 and no always-on check) are not read at all:
      their row count is one vectorized difference, and the visitor gets
      them as ranges (COUNT adds the count, SUM answers from the
      cumulative column when there is one).
    - The other runs are decoded together: the dims to check are the
      union of the residual checks over those runs (the always-on checks
      plus every grid dim whose bit is set in the OR of their codes), and
      each is decoded once — one gather over a row-id array, or one slice
      per run when the runs are few or long — and checked on every row.
      Checking a dim on a row of one of its interior columns is always
      true (the CDF is monotone; that is why the index may skip the
      check there), so the union yields exactly the per-run masks.
    - The visitor gets the whole pass in one :meth:`Visitor.visit_many`
      call, and only when something matched.

    Parameters
    ----------
    table:
        The clustered table.
    runs:
        Storage-ordered, disjoint :class:`Runs`.
    checks:
        ``(dim, low, high, bit)`` inclusive residual checks, dims present
        in the table. ``bit`` 0 marks a check every run needs; otherwise
        the check applies to runs whose code has ``bit`` set.
    visitor:
        The aggregation visitor.
    stats:
        A :class:`~repro.query.stats.QueryStats`; ``points_scanned``,
        ``points_matched``, ``exact_points`` (and, with a kernel,
        ``kernel_tier``/``kernel_groups``) accumulate into it.
    kernel:
        Optional compiled :class:`~repro.storage.kernels.ScanKernel`. It
        may fuse the residual checks with the aggregate over the filtered
        runs' rows for a built-in visitor; the exact runs still reach the
        visitor through ``visit_many``.
    """
    if kernel is not None:
        stats.kernel_tier = kernel.tier
    starts, stops, codes = runs.starts, runs.stops, runs.codes
    if not starts.size:
        return
    always = [(dim, low, high) for dim, low, high, bit in checks if not bit]
    if always or codes.all():
        exact_starts = exact_stops = _NO_ROWS
    else:
        exact = codes == 0
        exact_starts, exact_stops = starts[exact], stops[exact]
        filtered = ~exact
        starts, stops, codes = starts[filtered], stops[filtered], codes[filtered]
    batch = ScanBatch(table, exact_starts, exact_stops, starts, stops)
    scanned = batch.exact_points + batch.size
    matched = batch.exact_points
    if batch.size:
        union = int(np.bitwise_or.reduce(codes))
        bounds = always + [
            (dim, low, high) for dim, low, high, bit in checks if bit & union
        ]
        fused = None if kernel is None else kernel.fused_scan(batch, bounds, visitor)
        if fused is None:
            matched += batch.filter(bounds)
        else:
            stats.kernel_groups += 1
            matched += fused
            batch = ScanBatch(table, exact_starts, exact_stops, _NO_ROWS, _NO_ROWS)
    stats.points_scanned += scanned
    stats.points_matched += matched
    stats.exact_points += batch.exact_points
    if batch.matched:
        visitor.visit_many(batch)
