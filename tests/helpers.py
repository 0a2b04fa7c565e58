"""Shared test utilities: random tables, queries, and brute-force results."""

from __future__ import annotations

import numpy as np

from repro.query.predicate import Query
from repro.storage.scan import Runs
from repro.storage.table import Table
from repro.storage.visitor import CollectVisitor


def make_table(n=500, dims=("x", "y", "z"), seed=0, skew=False, compress=True):
    """A random int64 table; ``skew=True`` uses lognormal-ish columns."""
    rng = np.random.default_rng(seed)
    data = {}
    for k, dim in enumerate(dims):
        if skew and k % 2 == 0:
            data[dim] = rng.lognormal(mean=6, sigma=1.5, size=n).astype(np.int64)
        else:
            data[dim] = rng.integers(0, 1000, size=n)
    return Table(data, compress=compress)


def random_query(table, rng, num_dims=None):
    """A random range query over a subset of the table's dimensions."""
    dims = list(table.dims)
    if num_dims is None:
        num_dims = rng.integers(1, len(dims) + 1)
    chosen = rng.choice(dims, size=int(num_dims), replace=False)
    ranges = {}
    for dim in chosen:
        lo, hi = table.min_max(dim)
        a, b = sorted(rng.integers(lo, hi + 1, size=2).tolist())
        ranges[dim] = (a, b)
    return Query(ranges)


def runs_from(triples) -> Runs:
    """:class:`Runs` from ``(start, stop, code)`` triples."""
    arr = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
    return Runs(*(np.ascontiguousarray(arr[:, j]) for j in range(3)))


def runs_list(runs: Runs) -> list[tuple[int, int, int]]:
    """The ``(start, stop, code)`` triples of :class:`Runs`."""
    return list(zip(runs.starts.tolist(), runs.stops.tolist(), runs.codes.tolist()))


def brute_force_rows(index, query):
    """Row *values* matching a query, via the index's own clustered table.

    Physical row ids differ between indexes (each clusters differently), so
    equivalence is checked on the multiset of matching row tuples.
    """
    table = index.table
    mask = query.match_mask(table)
    matrix = table.column_matrix()
    return _canonical(matrix[mask])


def collected_rows(index, query):
    """Row values collected by actually querying the index."""
    visitor = CollectVisitor()
    index.query(query, visitor)
    matrix = index.table.column_matrix()
    return _canonical(matrix[visitor.result])


def _canonical(matrix: np.ndarray) -> np.ndarray:
    """Rows sorted lexicographically so multisets compare with array_equal."""
    if matrix.size == 0:
        return matrix.reshape(0, matrix.shape[1] if matrix.ndim == 2 else 0)
    order = np.lexsort(matrix.T[::-1])
    return matrix[order]
