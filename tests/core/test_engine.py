"""Tests for the batch query engine and the vectorized query path.

The load-bearing property is *result identity*: the vectorized plan /
refine / scan pipeline (single-query and batched, sequential and threaded)
must produce exactly the seed per-cell loop's rows, aggregates, and stats
counters on every index variant.
"""

import numpy as np
import pytest

from repro.core.engine import BatchQueryEngine, BatchResult
from repro.core.index import FloodIndex
from repro.core.layout import GridLayout
from repro.errors import BuildError, QueryError
from repro.query.predicate import Query
from repro.query.stats import QueryStats
from repro.storage.scan import columnar_scan, scan_filtered
from repro.storage.table import Table
from repro.storage.visitor import CollectVisitor, CountVisitor, SumVisitor

from tests.helpers import (
    brute_force_rows,
    collected_rows,
    make_table,
    random_query,
    runs_from,
    runs_list,
)

DIMS = ("x", "y", "z", "w")


def _flood(table, columns=(5, 4, 3), **kwargs):
    return FloodIndex(GridLayout(DIMS, columns), **kwargs).build(table)


def _workload(table, n=15, seed=0):
    rng = np.random.default_rng(seed)
    return [random_query(table, rng) for _ in range(n)]


class TestVectorizedQueryIdentity:
    """FloodIndex.query (vectorized) vs FloodIndex.query_percell (seed)."""

    @pytest.mark.parametrize("flatten", ["rmi", "quantile", "none"])
    @pytest.mark.parametrize("refinement", ["plm", "binary", "none"])
    def test_rows_and_stats_match_percell(self, flatten, refinement):
        table = make_table(n=900, dims=DIMS, seed=1, skew=True)
        index = _flood(table, flatten=flatten, refinement=refinement)
        for query in _workload(table, n=10, seed=2):
            fast, slow = CollectVisitor(), CollectVisitor()
            s_fast = index.query(query, fast)
            s_slow = index.query_percell(query, slow)
            assert np.array_equal(np.sort(fast.result), np.sort(slow.result))
            for attr in (
                "points_scanned",
                "points_matched",
                "cells_visited",
                "exact_points",
            ):
                assert getattr(s_fast, attr) == getattr(s_slow, attr), attr

    def test_large_plan_lockstep_refinement(self):
        # Enough intersecting cells to cross the lock-step threshold.
        table = make_table(n=4000, dims=DIMS, seed=3)
        index = _flood(table, columns=(8, 8, 4))
        query = Query({"x": (0, 999), "w": (200, 600)})
        fast, slow = CollectVisitor(), CollectVisitor()
        index.query(query, fast)
        index.query_percell(query, slow)
        assert np.array_equal(np.sort(fast.result), np.sort(slow.result))

    def test_conditional_flatten_identity(self):
        table = make_table(n=900, dims=("x", "y", "z"), seed=4)
        index = FloodIndex(
            GridLayout(("x", "y", "z"), (6, 5)), flatten="conditional"
        ).build(table)
        for query in _workload(table, n=8, seed=5):
            fast, slow = CollectVisitor(), CollectVisitor()
            index.query(query, fast)
            index.query_percell(query, slow)
            assert np.array_equal(np.sort(fast.result), np.sort(slow.result))

    def test_brute_force_still_holds(self):
        table = make_table(n=700, dims=DIMS, seed=6, skew=True)
        index = _flood(table)
        for query in _workload(table, n=8, seed=7):
            assert np.array_equal(
                collected_rows(index, query), brute_force_rows(index, query)
            )


class TestQueryPlan:
    def test_full_domain_query_coalesces_to_one_run(self):
        table = make_table(n=2000, dims=DIMS, seed=8)
        index = _flood(table, columns=(6, 5, 4))
        plan = index.plan(Query({"x": (-(10**7), 10**7)}))
        runs = plan.coalesced_runs()
        # Every cell is interior (no residual checks) and storage-adjacent:
        # the whole table collapses into a single exact run.
        assert runs_list(runs) == [(0, table.num_rows, 0)]

    def test_checks_decode_in_dim_order(self):
        table = make_table(n=1500, dims=DIMS, seed=9)
        index = _flood(table, columns=(4, 4, 4))
        lo_x, hi_x = table.min_max("x")
        query = Query({"x": (lo_x + 1, hi_x - 1), "y": (0, 400), "w": (5, 9)})
        plan = index.plan(query)
        checks = plan.check_bounds(query)
        # No base checks (the sort dim w is refined), then the filtered
        # grid dims in dim order, each owning the code bit the plan sets
        # on its boundary columns.
        assert checks == [("x", lo_x + 1, hi_x - 1, 0b100), ("y", 0, 400, 0b010)]
        union = int(np.bitwise_or.reduce(plan.codes))
        assert union & ~0b110 == 0

    def test_plan_counts_empty_cells_as_visited(self):
        table = make_table(n=60, dims=DIMS, seed=10)
        index = _flood(table, columns=(8, 8, 2))  # mostly empty cells
        stats = index.query(Query({"x": (-(10**7), 10**7)}), CountVisitor())
        assert stats.cells_visited == 8 * 8 * 2


class TestBatchQueryEngine:
    def test_matches_legacy_loop_counts_and_stats(self):
        table = make_table(n=1200, dims=DIMS, seed=11, skew=True)
        index = _flood(table)
        queries = _workload(table, n=20, seed=12)
        batch = BatchQueryEngine(index).run(queries)
        for query, got_count, got_stats in zip(queries, batch.results, batch.stats):
            visitor = CountVisitor()
            legacy = index.query_percell(query, visitor)
            assert visitor.result == got_count
            assert legacy.points_matched == got_stats.points_matched
            assert legacy.points_scanned == got_stats.points_scanned
            assert legacy.cells_visited == got_stats.cells_visited

    def test_parallel_workers_identical_results(self):
        table = make_table(n=1500, dims=DIMS, seed=13)
        index = _flood(table)
        queries = _workload(table, n=30, seed=14)
        sequential = BatchQueryEngine(index, workers=1).run(queries)
        threaded = BatchQueryEngine(index, workers=4).run(queries)
        assert sequential.results == threaded.results
        assert [s.points_matched for s in sequential.stats] == [
            s.points_matched for s in threaded.stats
        ]

    def test_enum_cache_reuse_keeps_results(self):
        table = make_table(n=800, dims=DIMS, seed=15)
        index = _flood(table)
        queries = _workload(table, n=10, seed=16)
        engine = BatchQueryEngine(index)
        first = engine.run(queries + queries)  # exact repeats hit the cache
        assert len(engine._enum_cache) > 0
        assert engine.cache_stats()["hits"] > 0
        second = engine.run(queries + queries)
        assert first.results == second.results
        engine.clear_cache()
        assert len(engine._enum_cache) == 0

    def test_enum_cache_lru_bound_and_eviction_counter(self):
        table = make_table(n=800, dims=DIMS, seed=15)
        index = _flood(table)
        queries = _workload(table, n=12, seed=21)
        engine = BatchQueryEngine(index, cache_entries=4)
        engine.run(queries)
        stats = engine.cache_stats()
        assert stats["capacity"] == 4
        assert stats["entries"] <= 4
        assert stats["evictions"] >= stats["misses"] - 4
        # Eviction never corrupts results: rerun the full workload.
        baseline = BatchQueryEngine(index).run(queries)
        again = engine.run(queries)
        assert again.results == baseline.results

    def test_enum_cache_lru_keeps_hot_entry(self):
        from repro.core.engine import LRUEnumCache

        cache = LRUEnumCache(2)
        cache["a"] = 1
        cache["b"] = 2
        assert cache.get("a") == 1  # refresh 'a'; 'b' is now the LRU entry
        cache["c"] = 3
        assert "a" in cache and "c" in cache
        assert "b" not in cache
        assert cache.stats_payload()["evictions"] == 1

    def test_sum_visitors_agree_with_single_query_path(self):
        table = make_table(n=1000, dims=DIMS, seed=17)
        index = _flood(table)
        queries = _workload(table, n=12, seed=18)
        batch = BatchQueryEngine(index).run(
            queries, visitor_factory=lambda: SumVisitor("y")
        )
        for query, got in zip(queries, batch.results):
            visitor = SumVisitor("y")
            index.query(query, visitor)
            assert visitor.result == got

    def test_batch_result_accounting(self):
        table = make_table(n=600, dims=DIMS, seed=19)
        index = _flood(table)
        queries = _workload(table, n=5, seed=20)
        batch = BatchQueryEngine(index).run(queries)
        assert batch.num_queries == 5
        assert batch.wall_seconds > 0
        assert batch.queries_per_second > 0
        assert batch.points_matched == sum(s.points_matched for s in batch.stats)
        workload = batch.workload_result("Flood")
        assert workload.num_queries == 5

    def test_rejects_unbuilt_index(self):
        with pytest.raises(BuildError):
            BatchQueryEngine(FloodIndex(GridLayout(DIMS, (2, 2, 2))))

    def test_rejects_non_flood_index(self):
        from repro.baselines import FullScanIndex

        with pytest.raises(QueryError):
            BatchQueryEngine(FullScanIndex().build(make_table()))


class TestScanRuns:
    """The columnar scan core against the per-range reference."""

    def _table(self, n=3000, seed=21):
        rng = np.random.default_rng(seed)
        return Table({"a": rng.integers(0, 100, size=n), "b": rng.integers(0, 100, size=n)})

    def _scan(self, table, runs, checks, visitor):
        stats = QueryStats()
        columnar_scan(table, runs_from(runs), checks, visitor, stats)
        return stats

    def test_gather_path_matches_per_run_path(self):
        table = self._table()
        table.add_cumulative("b")
        rng = np.random.default_rng(22)
        starts = np.sort(rng.choice(2900, size=40, replace=False))
        stops = np.minimum(
            starts + rng.integers(1, 60, size=40), np.append(starts[1:], 3000)
        )
        # Exact runs (code 0) between filtered ones (code 1).
        codes = rng.integers(0, 2, size=40)
        runs = list(zip(starts.tolist(), stops.tolist(), codes.tolist()))
        bounds = [("a", 10, 60), ("b", 20, 90)]
        checks = [(dim, low, high, 1) for dim, low, high in bounds]
        for make in (CollectVisitor, CountVisitor, lambda: SumVisitor("b")):
            batched, per_run = make(), make()
            stats = self._scan(table, runs, checks, batched)
            scanned_p = matched_p = exact_p = 0
            for start, stop, code in runs:
                if code:
                    s, m = scan_filtered(table, bounds, start, stop, per_run)
                else:
                    per_run.visit(table, start, stop, None)
                    s = m = stop - start
                    exact_p += s
                scanned_p += s
                matched_p += m
            assert (stats.points_scanned, stats.points_matched, stats.exact_points) == (
                scanned_p, matched_p, exact_p
            )
            assert exact_p and matched_p > exact_p
            result, expected = batched.result, per_run.result
            if isinstance(result, np.ndarray):
                assert np.all(np.diff(result) > 0)  # storage order
                expected = np.sort(expected)
            assert np.array_equal(result, expected)

    def test_long_runs_take_slice_path(self):
        table = self._table(n=20000)
        runs = [(0, 10000, 1), (10000, 20000, 1)]
        visitor, reference = CountVisitor(), CountVisitor()
        stats = self._scan(table, runs, [("a", 0, 49, 1)], visitor)
        scan_filtered(table, [("a", 0, 49)], 0, 20000, reference)
        assert stats.points_scanned == 20000
        assert stats.points_matched == visitor.result == reference.result

    def test_empty_bounds_are_exact(self):
        table = self._table()
        visitor = CountVisitor()
        stats = self._scan(table, [(5, 10, 0), (20, 25, 0)], [("a", 0, 9, 1)], visitor)
        assert stats.points_scanned == stats.points_matched == 10
        assert stats.exact_points == 10
        assert visitor.result == 10

    def test_zero_length_runs_are_safe(self):
        table = self._table()
        runs = [(0, 0, 1)] * 10 + [(10, 20, 1)]
        visitor = CountVisitor()
        stats = self._scan(table, runs, [("a", 0, 100, 1)], visitor)
        assert stats.points_scanned == 10
        assert stats.points_matched == 10
        stats = self._scan(table, [], [("a", 0, 100, 1)], visitor)
        assert stats.points_scanned == 0
        assert visitor.result == 10


class TestBatchResultDefaults:
    def test_empty_batch(self):
        result = BatchResult()
        assert result.num_queries == 0
        assert result.queries_per_second == 0.0
        assert result.results == []

    def test_zero_elapsed_time_guard(self):
        """Regression: a clock too coarse for a tiny batch must not yield
        inf (or raise) — throughput degrades to 0.0, never nonsense."""
        from repro.query.stats import QueryStats

        fast = BatchResult(
            stats=[QueryStats()], visitors=[CountVisitor()], wall_seconds=0.0
        )
        assert fast.num_queries == 1
        assert fast.queries_per_second == 0.0
        negative = BatchResult(
            stats=[QueryStats()], visitors=[CountVisitor()], wall_seconds=-1e-9
        )
        assert negative.queries_per_second == 0.0
        empty_and_instant = BatchResult(wall_seconds=0.0)
        assert empty_and_instant.queries_per_second == 0.0

    def test_normal_batch_reports_finite_throughput(self):
        from repro.query.stats import QueryStats

        result = BatchResult(
            stats=[QueryStats()] * 4, visitors=[CountVisitor()] * 4,
            wall_seconds=0.5,
        )
        assert result.queries_per_second == pytest.approx(8.0)


class TestEngineExtensions:
    def test_explicit_visitors_list(self):
        """The batcher's path: mixed per-query visitors in one batch."""
        table = make_table(n=900, dims=DIMS, seed=30)
        index = _flood(table)
        queries = _workload(table, n=4, seed=31)
        visitors = [CountVisitor(), SumVisitor("y"), CountVisitor(), SumVisitor("z")]
        batch = BatchQueryEngine(index).run(queries, visitors=visitors)
        assert batch.visitors is visitors
        for query, visitor in zip(queries, visitors):
            twin = type(visitor)(visitor.dim) if hasattr(visitor, "dim") else type(visitor)()
            index.query_percell(query, twin)
            assert visitor.result == twin.result

    def test_visitors_length_mismatch_rejected(self):
        table = make_table(n=300, dims=DIMS, seed=32)
        index = _flood(table)
        queries = _workload(table, n=3, seed=33)
        with pytest.raises(QueryError):
            BatchQueryEngine(index).run(queries, visitors=[CountVisitor()])

    def test_external_executor_reused_not_shut_down(self):
        from concurrent.futures import ThreadPoolExecutor

        table = make_table(n=1000, dims=DIMS, seed=34)
        index = _flood(table)
        queries = _workload(table, n=12, seed=35)
        pool = ThreadPoolExecutor(max_workers=2)
        try:
            engine = BatchQueryEngine(index, workers=2, executor=pool)
            first = engine.run(queries)
            second = engine.run(queries)  # pool must still be usable
            reference = BatchQueryEngine(index).run(queries)
            assert first.results == second.results == reference.results
        finally:
            pool.shutdown()
