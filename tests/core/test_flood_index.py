"""Unit and property tests for the Flood index itself."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.index import FloodIndex
from repro.core.layout import GridLayout
from repro.errors import BuildError, SchemaError
from repro.query.predicate import Query
from repro.storage.visitor import CountVisitor

from tests.helpers import brute_force_rows, collected_rows, make_table, random_query

DIMS = ("x", "y", "z")


def _flood(table, columns=(4, 5), **kwargs):
    layout = GridLayout(DIMS, columns)
    return FloodIndex(layout, **kwargs).build(table)


class TestFloodBuild:
    def test_cells_partition_rows(self):
        index = _flood(make_table(n=700, seed=0))
        assert index._cell_starts[-1] == 700

    def test_sorted_within_cells(self):
        index = _flood(make_table(n=900, seed=1))
        starts = index._cell_starts
        values = index._sort_values
        for cell in range(index.layout.num_cells):
            section = values[starts[cell] : starts[cell + 1]]
            assert np.all(np.diff(section) >= 0)

    def test_unknown_dim_raises(self):
        layout = GridLayout(("nope", "x"), (2,))
        with pytest.raises(SchemaError):
            FloodIndex(layout).build(make_table())

    def test_bad_refinement_rejected(self):
        with pytest.raises(BuildError):
            FloodIndex(GridLayout(DIMS, (2, 2)), refinement="quantum")

    def test_build_before_query(self):
        index = FloodIndex(GridLayout(DIMS, (2, 2)))
        with pytest.raises(BuildError):
            index.query(Query({"x": (0, 1)}), CountVisitor())

    def test_plm_models_built_per_nonempty_cell(self):
        index = _flood(make_table(n=500, seed=2))
        nonempty = int((np.diff(index._cell_starts) > 0).sum())
        built = sum(1 for m in index._cell_models if m is not None)
        assert built == nonempty

    def test_size_dominated_by_cell_models(self):
        index = _flood(make_table(n=5000, seed=3), columns=(8, 8))
        assert index.refinement_model_bytes() > 0
        assert index.refinement_model_bytes() <= index.size_bytes()


class TestFloodCorrectness:
    @pytest.mark.parametrize("flatten", ["rmi", "quantile", "none"])
    @pytest.mark.parametrize("refinement", ["plm", "binary", "none"])
    def test_variants_match_brute_force(self, flatten, refinement):
        # "w" is filterable but not indexed: a residual check on every run.
        table = make_table(n=500, dims=DIMS + ("w",), seed=4, skew=True)
        index = _flood(table, flatten=flatten, refinement=refinement)
        rng = np.random.default_rng(5)
        queries = [random_query(table, rng) for _ in range(8)] + [
            Query({"x": table.min_max("x")}),  # whole domain: exact runs
            Query({"y": (100, 900), "w": (200, 700)}),
            # Past the sort dim's maximum: refines to an empty plan.
            Query({"z": (table.min_max("z")[1] + 1, 10**9)}),
        ]
        for query in queries:
            assert np.array_equal(
                collected_rows(index, query), brute_force_rows(index, query)
            ), f"flatten={flatten} refinement={refinement} {query}"

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6))
    def test_random_query_property(self, qseed):
        table = make_table(n=400, seed=6, skew=True)
        index = _flood(table, columns=(3, 4))
        query = random_query(table, np.random.default_rng(qseed))
        assert np.array_equal(
            collected_rows(index, query), brute_force_rows(index, query)
        )

    def test_query_on_unindexed_dim(self):
        # A dim in the table but not the layout must still be filtered.
        table = make_table(n=400, dims=("x", "y", "z", "w"), seed=7)
        layout = GridLayout(("x", "y"), (4,))
        index = FloodIndex(layout).build(table)
        query = Query({"w": (0, 300)})
        assert np.array_equal(
            collected_rows(index, query), brute_force_rows(index, query)
        )

    def test_single_dimension_layout(self):
        table = make_table(n=300, seed=8)
        index = FloodIndex(GridLayout(("x",), ())).build(table)
        query = Query({"x": (100, 400)})
        assert np.array_equal(
            collected_rows(index, query), brute_force_rows(index, query)
        )

    def test_duplicate_heavy_sort_dim(self):
        from repro.storage.table import Table

        rng = np.random.default_rng(9)
        table = Table(
            {"g": rng.integers(0, 5, size=600), "s": rng.integers(0, 3, size=600)}
        )
        index = FloodIndex(GridLayout(("g", "s"), (3,))).build(table)
        query = Query({"s": (1, 1)})
        assert np.array_equal(
            collected_rows(index, query), brute_force_rows(index, query)
        )


class TestFloodBehavior:
    def test_sort_dim_query_has_no_scan_overhead(self):
        table = make_table(n=2000, seed=10)
        index = _flood(table, columns=(4, 4))
        stats = index.query(Query({"z": (100, 300)}), CountVisitor())
        # Refinement guarantees scanned sort values are in range; with no
        # other filters every scanned point matches.
        assert stats.points_scanned == stats.points_matched
        assert stats.exact_points == stats.points_scanned

    def test_refinement_reduces_scanned_points(self):
        table = make_table(n=3000, seed=11)
        layout = GridLayout(DIMS, (4, 4))
        refined = FloodIndex(layout, refinement="plm").build(table)
        unrefined = FloodIndex(layout, refinement="none").build(table)
        query = Query({"x": (0, 500), "z": (100, 200)})
        r = refined.query(query, CountVisitor())
        u = unrefined.query(query, CountVisitor())
        assert r.points_scanned < u.points_scanned
        assert r.points_matched == u.points_matched

    def test_interior_columns_skip_checks(self):
        table = make_table(n=4000, seed=12)
        index = _flood(table, columns=(10, 1))
        lo, hi = table.min_max("x")
        stats = index.query(Query({"x": (lo, hi)}), CountVisitor())
        # The whole domain is covered: every cell interior, all exact.
        assert stats.exact_points == stats.points_scanned

    def test_cells_visited_counts_projection(self):
        table = make_table(n=1000, seed=13)
        index = _flood(table, columns=(5, 5))
        stats = index.query(Query({"x": (-10**6, 10**6)}), CountVisitor())
        assert stats.cells_visited == 25

    def test_flattening_improves_skewed_scan_overhead(self):
        table = make_table(n=8000, seed=14, skew=True)
        layout = GridLayout(DIMS, (16, 4))
        flat = FloodIndex(layout, flatten="rmi").build(table)
        unflat = FloodIndex(layout, flatten="none").build(table)
        rng = np.random.default_rng(15)
        values = np.sort(table.values("x"))
        flat_scanned = unflat_scanned = 0
        for _ in range(12):
            # Ranges between random data quantiles: realistically selective
            # on the skewed dimension.
            a, b = sorted(rng.integers(0, len(values), size=2).tolist())
            query = Query({"x": (int(values[a]), int(values[b]))})
            flat_scanned += flat.query(query, CountVisitor()).points_scanned
            unflat_scanned += unflat.query(query, CountVisitor()).points_scanned
        assert flat_scanned < unflat_scanned
