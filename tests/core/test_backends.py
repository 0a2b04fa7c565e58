"""Scan backends: identity across serial/thread/process, plumbing, leaks.

The backend contract is that *where* a shard scan runs never changes
*what* it computes: every backend is held to the seed's
``FloodIndex.query_percell`` results and counters, for mergeable
visitors (partial-aggregate shipping) and arbitrary ones (recording
fallback) alike.
"""

from functools import partial

import numpy as np
import pytest

from repro.core.backends import (
    BACKEND_NAMES,
    ProcessBackend,
    ScanBackend,
    SerialBackend,
    ThreadBackend,
    resolve_backend,
)
from repro.core.engine import BatchQueryEngine
from repro.core.index import FloodIndex
from repro.core.layout import GridLayout
from repro.core.shard import ShardedFloodIndex
from repro.errors import QueryError
from repro.query.predicate import Query
from repro.storage.shm import SharedMemoryTable, owned_segment_names
from repro.storage.visitor import (
    AvgVisitor,
    CollectVisitor,
    CountVisitor,
    MaxVisitor,
    MinVisitor,
    SumVisitor,
    Visitor,
)

from tests.helpers import make_table, random_query

DIMS = ("x", "y", "z")


@pytest.fixture(scope="module")
def flood():
    # "u" is filterable but not indexed: a residual check on every run.
    table = make_table(n=6000, dims=DIMS + ("u",), seed=11)
    return FloodIndex(GridLayout(DIMS, (6, 5))).build(table)


@pytest.fixture(scope="module")
def process_backend(flood):
    backend = ProcessBackend(flood.table, workers=2)
    yield backend
    backend.shutdown()


def _sharded(flood, backend):
    return ShardedFloodIndex.wrap(
        flood, num_shards=4, min_parallel_points=0, backend=backend
    )


def _queries(flood, n, seed):
    rng = np.random.default_rng(seed)
    return [random_query(flood.table, rng) for _ in range(n)]


class _DoubleCount(CountVisitor):
    """A subclass overriding visit(); module-level so the process backend
    can pickle fresh() prototypes by reference."""

    def visit(self, table, start, stop, mask):
        super().visit(table, start, stop, mask)
        super().visit(table, start, stop, mask)


class _TupleVisitor(Visitor):
    """Deliberately non-mergeable: exercises the recording fallback."""

    def __init__(self):
        self.spans = []

    def visit(self, table, start, stop, mask):
        count = stop - start if mask is None else int(np.count_nonzero(mask))
        self.spans.append((start, stop, count))

    @property
    def result(self):
        return self.spans


#: Every built-in aggregate plus the non-mergeable custom visitor.
VISITORS = [
    CountVisitor,
    partial(SumVisitor, "y"),
    partial(AvgVisitor, "y"),
    partial(MinVisitor, "y"),
    partial(MaxVisitor, "y"),
    CollectVisitor,
    _TupleVisitor,
]


def _comparable(result):
    if isinstance(result, np.ndarray):
        return sorted(result.tolist())
    if isinstance(result, list):  # _TupleVisitor spans: compare match totals
        return sum(count for _, _, count in result)
    return result


class TestIdentity:
    @pytest.mark.parametrize("spec", BACKEND_NAMES)
    def test_counts_and_stats_match_percell(self, flood, process_backend, spec):
        """Random queries (mixed residual codes, runs split at shard
        boundaries) plus one per scan branch: all-exact, an unindexed
        filter, and a sort-dim range that refines to an empty plan."""
        backend = process_backend if spec == "process" else spec
        sharded = _sharded(flood, backend)
        queries = _queries(flood, 12, seed=spec == "serial" and 1 or 2) + [
            Query({"x": flood.table.min_max("x")}),
            Query({"x": (100, 900), "u": (200, 700)}),
            Query({"y": (0, 999), "z": (5000, 6000)}),
        ]
        for query in queries:
            for make in VISITORS:
                fast, slow = make(), make()
                s_fast = sharded.query(query, fast)
                s_slow = flood.query_percell(query, slow)
                assert _comparable(fast.result) == _comparable(slow.result)
                assert s_fast.points_scanned == s_slow.points_scanned
                assert s_fast.points_matched == s_slow.points_matched
                assert s_fast.exact_points == s_slow.exact_points

    @pytest.mark.parametrize("spec", BACKEND_NAMES)
    def test_sum_and_collect_match(self, flood, process_backend, spec):
        backend = process_backend if spec == "process" else spec
        sharded = _sharded(flood, backend)
        for query in _queries(flood, 6, seed=3):
            total, reference_total = SumVisitor("y"), SumVisitor("y")
            sharded.query(query, total)
            flood.query_percell(query, reference_total)
            assert total.result == reference_total.result
            rows, reference_rows = CollectVisitor(), CollectVisitor()
            sharded.query(query, rows)
            flood.query_percell(query, reference_rows)
            np.testing.assert_array_equal(
                np.sort(rows.result), np.sort(reference_rows.result)
            )

    def test_collect_order_deterministic_across_backends(
        self, flood, process_backend
    ):
        """Partial-aggregate shipping (thread, process) reproduces the
        replay path's visit order exactly — shard order, per-shard code
        grouping — not just the same multiset. (The *unsharded* serial
        path orders by code globally, so it is compared as a multiset.)"""
        thread = _sharded(flood, "thread")
        process = _sharded(flood, process_backend)
        for query in _queries(flood, 4, seed=4):
            a, b, reference = CollectVisitor(), CollectVisitor(), CollectVisitor()
            thread.query(query, a)
            process.query(query, b)
            flood.query_percell(query, reference)
            np.testing.assert_array_equal(a.result, b.result)
            np.testing.assert_array_equal(
                np.sort(a.result), np.sort(reference.result)
            )

    def test_subclassed_visitor_correct_under_every_backend(
        self, flood, process_backend
    ):
        """Regression: fresh() used to hard-code the base class, so a
        subclass overriding visit() silently computed the base aggregate
        on the thread/process paths."""
        query = Query({"x": (50, 900), "z": (100, 800)})
        expected = CountVisitor()
        flood.query_percell(query, expected)
        for backend in ("serial", "thread", process_backend):
            doubled = _DoubleCount()
            _sharded(flood, backend).query(query, doubled)
            assert doubled.result == 2 * expected.result, backend

    def test_non_mergeable_visitor_uses_recording_fallback(
        self, flood, process_backend
    ):
        for backend in ("thread", process_backend):
            sharded = _sharded(flood, backend)
            query = Query({"x": (50, 900), "z": (100, 800)})
            fallback, reference = _TupleVisitor(), CountVisitor()
            sharded.query(query, fallback)
            flood.query_percell(query, reference)
            assert sum(count for _, _, count in fallback.result) == reference.result

    def test_cumulative_fast_path_survives_process_hop(self, flood):
        """Workers see the shared cumulative column, so exact-range SUMs
        stay O(1) on the far side of the pool (and on every other
        backend)."""
        table = make_table(n=5000, dims=DIMS, seed=12)
        index = FloodIndex(GridLayout(DIMS, (6, 5))).build(table)
        index.table.add_cumulative("y")
        backend = ProcessBackend(index.table, workers=2)
        try:
            for spec in ("serial", "thread", backend):
                sharded = ShardedFloodIndex.wrap(
                    index, num_shards=4, min_parallel_points=0, backend=spec
                )
                query = Query({"x": table.min_max("x")})  # whole domain: exact runs
                fast, slow = SumVisitor("y"), SumVisitor("y")
                stats = sharded.query(query, fast)
                index.query_percell(query, slow)
                assert fast.result == slow.result
                assert fast.cumulative_hits > 0
                assert stats.exact_points == stats.points_scanned == table.num_rows
        finally:
            backend.shutdown()


class TestPlumbing:
    def test_resolve_names(self, flood):
        assert isinstance(resolve_backend("serial"), SerialBackend)
        assert isinstance(resolve_backend("thread"), ThreadBackend)
        backend = resolve_backend("process", table=flood.table)
        try:
            assert isinstance(backend, ProcessBackend)
        finally:
            backend.shutdown()
        instance = SerialBackend()
        assert resolve_backend(instance) is instance

    def test_resolve_rejects_unknown_and_tableless_process(self):
        with pytest.raises(QueryError):
            resolve_backend("gpu")
        with pytest.raises(QueryError):
            resolve_backend("process")

    def test_default_backend_is_thread(self, flood):
        sharded = ShardedFloodIndex.wrap(flood, num_shards=2)
        assert isinstance(sharded.scan_backend, ThreadBackend)
        assert sharded.scan_backend is sharded.scan_backend  # cached

    def test_use_backend_swaps_and_returns_old(self, flood):
        sharded = _sharded(flood, "thread")
        old = sharded.use_backend("serial")
        assert isinstance(old, (ThreadBackend, type(None)))
        assert isinstance(sharded.scan_backend, SerialBackend)
        with pytest.raises(QueryError):
            sharded.use_backend("bogus")

    def test_engine_backend_requires_sharded_index(self, flood):
        with pytest.raises(QueryError, match="ShardedFloodIndex"):
            BatchQueryEngine(flood, backend="serial")

    def test_engine_backend_wiring_identical_results(self, flood, process_backend):
        queries = _queries(flood, 10, seed=5)
        reference = BatchQueryEngine(flood).run(queries)
        sharded = _sharded(flood, "thread")
        engine = BatchQueryEngine(sharded, workers=2, backend=process_backend)
        assert sharded.scan_backend is process_backend
        batch = engine.run(queries)
        assert batch.results == reference.results

    def test_invalid_worker_count(self, flood):
        with pytest.raises(QueryError):
            ProcessBackend(flood.table, workers=0)


class TestLifecycle:
    def test_shutdown_unlinks_owned_segments(self):
        table = make_table(n=2000, dims=("x", "y"), seed=13)
        index = FloodIndex(GridLayout(("x", "y"), (4,))).build(table)
        before = set(owned_segment_names())
        backend = ProcessBackend(index.table, workers=2)
        created = set(owned_segment_names()) - before
        assert created  # the table went into shared memory
        sharded = ShardedFloodIndex.wrap(
            index, num_shards=2, min_parallel_points=0, backend=backend
        )
        visitor = CountVisitor()
        sharded.query(Query({"x": (0, 500)}), visitor)
        backend.shutdown()
        assert not created & set(owned_segment_names())
        backend.shutdown()  # idempotent

    def test_borrowed_shm_table_not_unlinked_by_shutdown(self):
        table = make_table(n=2000, dims=("x", "y"), seed=14)
        shm_table = SharedMemoryTable.from_table(table)
        backend = ProcessBackend(shm_table, workers=1)
        backend.shutdown()
        # The caller owns a table it passed in; shutdown must not yank it.
        np.testing.assert_array_equal(shm_table.values("x"), table.values("x"))
        shm_table.unlink()

    def test_pool_survives_across_queries(self, flood, process_backend):
        sharded = _sharded(flood, process_backend)
        for query in _queries(flood, 5, seed=6):
            expected = CountVisitor()
            flood.query_percell(query, expected)
            got = CountVisitor()
            sharded.query(query, got)
            assert got.result == expected.result
        assert process_backend._pool is not None  # persistent, not per-query
