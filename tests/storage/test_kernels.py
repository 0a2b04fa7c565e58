"""The columnar scan and the compiled kernel tier: dispatch rules, tier
resolution, and identity.

The contract under test: a columnar scan pass (numpy masks, or the
compiled tier's fused loop when it accepts the visitor) produces
*exactly* the per-run reference path's results (visitor state and
counters alike), and the compiled tier declines whatever it cannot
answer. Identity is checked at the ``columnar_scan`` level (property
tests over random tables, runs, and bounds — including empty runs,
exact runs, all-pass/all-fail residual masks, and NaN-bearing float
columns) and at the index level against the seed's ``query_percell``,
across every tier importable here and the thread/process backends.

Float SUM/AVG are the one documented exception: accumulation order
differs per path (numpy pairwise vs. sequential), so they agree to
~1e-9 relative tolerance instead of bit-for-bit.
"""

import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.backends import ProcessBackend, ThreadBackend
from repro.core.index import FloodIndex
from repro.core.layout import GridLayout
from repro.core.shard import ShardedFloodIndex
from repro.errors import QueryError
from repro.query.predicate import Query
from repro.query.stats import QueryStats
from repro.storage.kernels import (
    KERNEL_NAMES,
    ScanKernel,
    fused_kind,
    get_kernel,
    numba_available,
    resolve_kernel,
    stats_payload,
    warmup_kernels,
)
from repro.storage.scan import columnar_scan, scan_filtered
from repro.storage.table import Table
from repro.storage.visitor import (
    AvgVisitor,
    CollectVisitor,
    CountVisitor,
    MaxVisitor,
    MinVisitor,
    RecordingVisitor,
    SumVisitor,
    Visitor,
    fold_max,
    fold_min,
)

from tests.helpers import make_table, random_query, runs_from

#: Every scan tier importable in this environment: the pure-numpy
#: columnar scan (kernel None, test id ``numpy``) always, the compiled
#: numba tier only when numba is installed (CI runs a with-numba leg).
TIERS = [pytest.param(None, id="numpy")] + (
    ["numba"] if numba_available() else []
)

VISITORS = [
    ("count", CountVisitor, ()),
    ("sum", SumVisitor, ("v",)),
    ("avg", AvgVisitor, ("v",)),
    ("min", MinVisitor, ("v",)),
    ("max", MaxVisitor, ("v",)),
    ("collect", CollectVisitor, ()),
]


def _results_equal(a, b, rel=1e-9):
    """Result identity with the documented float-accumulation tolerance."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(np.asarray(a), np.asarray(b))
    if a is None or b is None:
        return a is b
    if isinstance(a, float) and isinstance(b, float):
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return math.isclose(a, b, rel_tol=rel, abs_tol=1e-12)
    return a == b


# ------------------------------------------------------------ resolution
class TestResolution:
    def test_auto_resolves_to_an_available_tier(self):
        tier = resolve_kernel("auto")
        assert tier == ("numba" if numba_available() else None)
        assert resolve_kernel(None) is None

    def test_unknown_spec_is_a_query_error(self):
        # 'numpy' is no tier: kernel None runs the numpy columnar scan.
        for spec in ("fortran", "numpy"):
            with pytest.raises(QueryError, match="unknown scan kernel"):
                resolve_kernel(spec)

    @pytest.mark.skipif(numba_available(), reason="needs a numba-less install")
    def test_explicit_numba_without_numba_is_loud(self):
        # Silent degradation of an explicitly requested tier would hide a
        # 2x+ perf regression; the error names the extras tag.
        with pytest.raises(QueryError, match=r"repro\[kernels\]"):
            resolve_kernel("numba")

    def test_kernel_names_cover_cli_choices(self):
        assert KERNEL_NAMES == ("auto", "numba")

    def test_get_kernel_is_a_singleton_per_tier(self):
        assert get_kernel("auto") is get_kernel("auto")
        assert get_kernel(None) is None
        kernel = get_kernel("auto")
        if numba_available():
            assert kernel is get_kernel("numba")
            assert kernel.tier == "numba"
        else:
            assert kernel is None  # the columnar scan answers alone

    def test_scan_kernel_rejects_unresolved_tier(self):
        for tier in ("auto", "numpy"):
            with pytest.raises(QueryError):
                ScanKernel(tier)  # specs must go through resolve_kernel


# -------------------------------------------------------------- dispatch
class TestDispatch:
    """The compiled tier declines exactly when the numpy masks must run."""

    def _table(self):
        rng = np.random.default_rng(7)
        return Table(
            {
                "x": rng.integers(0, 100, size=400),
                "v": rng.integers(0, 100, size=400),
            }
        )

    def test_recording_visitor_falls_back(self):
        # RecordingVisitor must see every (start, stop, mask) verbatim.
        assert fused_kind(self._table(), [("x", 10, 50)], RecordingVisitor()) is None

    def test_visitor_subclass_falls_back(self):
        # Subclasses may override visit(); exact-type dispatch only.
        class TracingSum(SumVisitor):
            pass

        assert fused_kind(self._table(), [("x", 10, 50)], TracingSum("v")) is None

    def test_exact_runs_fall_back(self):
        # Empty bounds = exact runs: the cumulative-aggregate path's job.
        table = self._table()
        assert fused_kind(table, [], CountVisitor()) is None
        assert fused_kind(table, [("x", 10, 50)], CountVisitor()) == "count"
        assert fused_kind(table, [("x", 10, 50)], AvgVisitor("v")) == "avg"

    def test_unsupported_dtype_falls_back(self):
        # Table itself coerces to int64/float64; only duck-typed tables
        # can surface other dtypes, and the kernel must decline them.
        class Int32Table:
            num_rows = 50

            def __contains__(self, dim):
                return True

            def values(self, dim, start=None, stop=None):
                return np.arange(50, dtype=np.int32)[start:stop]

            def take(self, dim, indices):
                return self.values(dim)[indices]

        assert fused_kind(Int32Table(), [("x", 0, 10)], CountVisitor()) is None

    def test_missing_aggregate_dim_falls_back(self):
        # The numpy path lets the visitor raise; the kernel must not
        # preempt that with its own error.
        assert fused_kind(self._table(), [("x", 10, 50)], SumVisitor("nope")) is None

    def test_all_empty_runs_short_circuit(self):
        visitor = CountVisitor()
        stats = QueryStats()
        runs = runs_from([(5, 5, 1), (9, 9, 1)])
        columnar_scan(
            self._table(), runs, [("x", 10, 50, 1)], visitor, stats,
            get_kernel("auto"),
        )
        assert (stats.points_scanned, stats.points_matched) == (0, 0)
        assert stats.kernel_groups == 0
        assert visitor.result == 0


# ------------------------------------------------- columnar scan identity
def _runs_partition(n, rng, pieces):
    """Random disjoint (start, stop, code) runs in storage order, with
    some zero-length runs mixed in; code 0 marks an exact run."""
    if n == 0:
        return [(0, 0, 1)]
    cuts = sorted(rng.integers(0, n + 1, size=pieces * 2).tolist())
    runs = []
    for lo, hi in zip(cuts[::2], cuts[1::2]):
        # zero-length when lo == hi: tolerated
        runs.append((lo, hi, int(rng.integers(0, 3) > 0)))
    return runs or [(0, n, 1)]


def _reference(table, bounds, runs, visitor):
    """The per-run path: exact runs visited whole, the rest through
    ``scan_filtered``. Returns ``(points_scanned, points_matched)``."""
    scanned = matched = 0
    for start, stop, code in runs:
        if stop <= start:
            continue
        if code:
            got = scan_filtered(table, bounds, start, stop, visitor)
        else:
            visitor.visit(table, start, stop, None)
            got = (stop - start, stop - start)
        scanned += got[0]
        matched += got[1]
    return scanned, matched


def _scan(table, bounds, runs, visitor, tier):
    stats = QueryStats()
    checks = [(dim, low, high, 1) for dim, low, high in bounds]
    columnar_scan(
        table, runs_from(runs), checks, visitor, stats, get_kernel(tier)
    )
    return stats


def _brute(table, bounds, runs):
    mask_all = np.zeros(table.num_rows, dtype=bool)
    exact = np.zeros(table.num_rows, dtype=bool)
    for start, stop, code in runs:
        mask_all[start:stop] = True
        exact[start:stop] = not code
    for dim, lo, hi in bounds:
        vals = table.values(dim)
        mask_all &= exact | ((vals >= lo) & (vals <= hi))
    return mask_all


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("name,cls,args", VISITORS, ids=[v[0] for v in VISITORS])
@pytest.mark.parametrize("dtype", ["int64", "float64"])
def test_scan_runs_kernel_identity(tier, name, cls, args, dtype):
    rng = np.random.default_rng(hash((tier, name, dtype)) % 2**32)
    n = 3000
    data = {
        "x": rng.integers(0, 100, size=n).astype(dtype),
        "y": rng.integers(0, 100, size=n).astype(dtype),
        "v": rng.integers(0, 100, size=n).astype(dtype),
    }
    if dtype == "float64":
        data["v"][rng.integers(0, n, size=30)] = np.nan
    table = Table(data, compress=False)
    bounds = [("x", 20, 70), ("y", 10, 90)]
    runs = _runs_partition(n, rng, pieces=6)

    baseline = cls(*args)
    expected = _reference(table, bounds, runs, baseline)

    batched = cls(*args)
    stats = _scan(table, bounds, runs, batched, tier)

    assert (stats.points_scanned, stats.points_matched) == expected
    assert stats.kernel_groups == (1 if tier else 0)
    result, reference = batched.result, baseline.result
    if name == "collect":
        # The compiled tier collects filtered rows before exact runs.
        result, reference = np.sort(result), np.sort(reference)
    assert _results_equal(result, reference), (
        tier, name, dtype, result, reference,
    )


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("edge", ["all_pass", "all_fail", "empty_runs"])
def test_scan_runs_kernel_edges(tier, edge):
    rng = np.random.default_rng(5)
    n = 500
    table = Table(
        {
            "x": rng.integers(0, 100, size=n),
            "v": rng.integers(0, 100, size=n),
        },
        compress=False,
    )
    if edge == "all_pass":
        bounds, runs = [("x", 0, 99)], [(0, n, 1)]
    elif edge == "all_fail":
        bounds, runs = [("x", 1000, 2000)], [(0, n, 1)]
    else:
        bounds, runs = [("x", 20, 70)], [(0, 0, 1), (10, 10, 0), (499, 499, 1)]
    for name, cls, args in VISITORS:
        baseline, batched = cls(*args), cls(*args)
        expected = _reference(table, bounds, runs, baseline)
        stats = _scan(table, bounds, runs, batched, tier)
        assert (stats.points_scanned, stats.points_matched) == expected
        assert _results_equal(batched.result, baseline.result), (tier, edge, name)


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(0, 250),
    dtype=st.sampled_from(["int64", "float64"]),
    lo=st.integers(-5, 110),
    width=st.integers(0, 120),
    pieces=st.integers(1, 5),
    nan_count=st.integers(0, 20),
)
@settings(max_examples=60, deadline=None)
def test_scan_runs_kernel_identity_property(
    seed, n, dtype, lo, width, pieces, nan_count
):
    """Batched == per-run on arbitrary tables, runs, and residual bounds.

    ``lo``/``width`` extremes produce all-pass and all-fail masks; the
    runs partition mixes zero-length and exact runs; float tables get NaN
    injected into both the filter and the aggregate columns (a NaN filter
    value matches nothing; a NaN aggregate value poisons MIN/MAX to NaN).
    """
    rng = np.random.default_rng(seed)
    data = {
        "x": rng.integers(0, 100, size=n).astype(dtype),
        "v": rng.integers(0, 100, size=n).astype(dtype),
    }
    if dtype == "float64" and n and nan_count:
        data["x"][rng.integers(0, n, size=nan_count)] = np.nan
        data["v"][rng.integers(0, n, size=nan_count)] = np.nan
    table = Table(data, compress=False)
    bounds = [("x", lo, lo + width)]
    runs = _runs_partition(n, rng, pieces)

    expected_matches = int(_brute(table, bounds, runs).sum())
    for tier in (None, *TIERS[1:]):
        for name, cls, args in VISITORS:
            baseline, batched = cls(*args), cls(*args)
            expected = _reference(table, bounds, runs, baseline)
            stats = _scan(table, bounds, runs, batched, tier)
            assert (stats.points_scanned, stats.points_matched) == expected
            assert stats.points_matched == expected_matches
            result, reference = batched.result, baseline.result
            if name == "collect":
                result, reference = np.sort(result), np.sort(reference)
            assert _results_equal(result, reference), (
                tier, name, result, reference,
            )


def test_fold_min_max_nan_is_order_independent():
    """Regression: Python's min/max keep or drop NaN depending on
    argument order, so NaN MIN/MAX results used to depend on run
    boundaries. The folds propagate NaN from either side."""
    nan = float("nan")
    assert math.isnan(fold_min(nan, 3.0))
    assert math.isnan(fold_min(3.0, nan))
    assert math.isnan(fold_max(nan, 3.0))
    assert math.isnan(fold_max(3.0, nan))
    assert fold_min(None, 2.0) == 2.0
    assert fold_max(None, 2.0) == 2.0
    assert fold_min(1.0, 2.0) == 1.0
    assert fold_max(1.0, 2.0) == 2.0


# -------------------------------------------------------- index identity
DIMS = ("x", "y", "z")


@pytest.fixture(scope="module")
def kernel_table():
    rng = np.random.default_rng(23)
    n = 5000
    data = {dim: rng.integers(0, 1000, size=n) for dim in DIMS}
    data["u"] = rng.integers(0, 1000, size=n)  # filterable, not indexed
    values = rng.uniform(0, 1000, size=n)
    values[rng.integers(0, n, size=50)] = np.nan
    data["f"] = values
    return Table(data)


def _int_dim_query(rng):
    """A random query over the int dims (the NaN-bearing float column is
    an aggregate target, not a filter — its min/max is NaN)."""
    ranges = {}
    for dim in rng.choice(DIMS, size=int(rng.integers(1, len(DIMS) + 1)), replace=False):
        a, b = sorted(rng.integers(0, 1000, size=2).tolist())
        ranges[dim] = (a, b)
    return Query(ranges)


def _index_queries(rng, n):
    """Random queries plus one case per branch of the columnar scan:
    random multi-dim queries mix residual codes within one pass; the
    whole domain is all exact runs; an unindexed filter is a check on
    every run; a sort-dim range past the data refines to an empty plan."""
    return [_int_dim_query(rng) for _ in range(n)] + [
        Query({"x": (0, 999)}),
        Query({"x": (100, 800), "u": (200, 600)}),
        Query({"y": (0, 999), "z": (2000, 3000)}),
    ]


class _MatchSpans(Visitor):
    """Not mergeable and no batched fold: takes the replaying default of
    ``visit_many`` and records what it is fed, per run."""

    def __init__(self):
        self.spans = []

    def visit(self, table, start, stop, mask):
        count = stop - start if mask is None else int(np.count_nonzero(mask))
        self.spans.append((start, stop, count))

    @property
    def result(self):
        return sum(count for _, _, count in self.spans)


def _index_visitors():
    """Visitor factories: every built-in aggregate, then a custom one."""
    out = []
    for agg in ("z", "f"):
        out += [
            partial(cls, agg)
            for cls in (SumVisitor, AvgVisitor, MinVisitor, MaxVisitor)
        ]
    return out + [CountVisitor, CollectVisitor, _MatchSpans]


@pytest.mark.parametrize("tier", TIERS)
def test_index_kernel_matches_query_percell(kernel_table, tier):
    layout = GridLayout(order=DIMS, columns=(7, 5))
    index = FloodIndex(layout, kernel=tier).build(kernel_table)
    assert index.kernel_tier == tier
    rng = np.random.default_rng(3)
    queries = _index_queries(rng, 8)
    # Exact runs answer SUM(z) by slices first, then from the cumulative
    # column once there is one.
    for cumulative in (False, True):
        if cumulative:
            index.table.add_cumulative("z")
        for qi, query in enumerate(queries):
            for make in _index_visitors():
                visitor, reference = make(), make()
                stats = index.query(query, visitor)
                ref_stats = index.query_percell(query, reference)
                for attr in ("points_scanned", "points_matched", "exact_points"):
                    assert getattr(stats, attr) == getattr(ref_stats, attr), attr
                assert stats.kernel_tier == (tier or "")
                result, expected = visitor.result, reference.result
                if isinstance(result, np.ndarray):
                    # collect order follows visit order, which differs between
                    # the vectorized and per-cell paths by design — compare
                    # sorted (the CollectVisitor contract).
                    result, expected = np.sort(result), np.sort(expected)
                assert _results_equal(result, expected), (
                    tier, qi, cumulative, type(visitor).__name__,
                )
    exact = index.query(queries[-3], SumVisitor("z"))
    assert exact.exact_points == exact.points_scanned > 0
    assert index.query(queries[-1], CountVisitor()).points_scanned == 0


def test_index_kernel_stats_and_swap(kernel_table):
    layout = GridLayout(order=DIMS, columns=(7, 5))
    index = FloodIndex(layout).build(kernel_table)  # kernel="auto"
    auto = resolve_kernel("auto")
    stats = index.query(Query({"x": (100, 800)}), CountVisitor())
    assert stats.kernel_tier == (auto or "")
    assert stats.kernel_groups == (1 if auto else 0)
    # kernel=None pins the numpy columnar scan; no tier is reported.
    old = index.use_kernel(None)
    assert old == auto
    assert index.kernel_tier is None
    stats = index.query(Query({"x": (100, 800)}), CountVisitor())
    assert stats.kernel_tier == ""
    assert stats.kernel_groups == 0
    assert index.use_kernel("auto") is None
    assert index.kernel_tier == auto


# ------------------------------------------------------ backend identity
@pytest.mark.parametrize("tier", TIERS)
def test_thread_backend_kernel_identity(tier):
    table = make_table(n=6000, dims=DIMS, seed=31)
    flood = FloodIndex(GridLayout(DIMS, (6, 5)), kernel=tier).build(table)
    sharded = ShardedFloodIndex.wrap(
        flood, num_shards=4, min_parallel_points=0, backend=ThreadBackend()
    )
    assert sharded.kernel_tier == tier
    rng = np.random.default_rng(4)
    for _ in range(6):
        query = random_query(table, rng)
        for visitor in (CountVisitor(), SumVisitor("z"), CollectVisitor()):
            reference = visitor.fresh()
            stats = sharded.query(query, visitor)
            flood.query_percell(query, reference)
            if stats.points_scanned > stats.exact_points:
                assert stats.kernel_tier == (tier or "")
                assert (stats.kernel_groups >= 1) == (tier is not None)
            result = visitor.result
            expected = reference.result
            if isinstance(result, np.ndarray):
                result, expected = np.sort(result), np.sort(expected)
            assert _results_equal(result, expected)


def test_process_backend_kernel_identity():
    table = make_table(n=6000, dims=DIMS, seed=37)
    flood = FloodIndex(GridLayout(DIMS, (6, 5))).build(table)  # kernel="auto"
    auto = resolve_kernel("auto")
    backend = ProcessBackend(flood.table, workers=2)
    try:
        sharded = ShardedFloodIndex.wrap(
            flood, num_shards=4, min_parallel_points=0, backend=backend
        )
        rng = np.random.default_rng(6)
        for _ in range(4):
            query = random_query(table, rng)
            for visitor in (CountVisitor(), SumVisitor("z"), CollectVisitor()):
                reference = visitor.fresh()
                stats = sharded.query(query, visitor)
                flood.query_percell(query, reference)
                # worker-side fusions are shipped back per query
                if stats.points_scanned > stats.exact_points:
                    assert stats.kernel_tier == (auto or "")
                    assert (stats.kernel_groups >= 1) == (auto is not None)
                result = visitor.result
                expected = reference.result
                if isinstance(result, np.ndarray):
                    result, expected = np.sort(result), np.sort(expected)
                assert _results_equal(result, expected)
    finally:
        backend.shutdown()


# --------------------------------------------------- warm-up + stats block
class TestWarmupAndStats:
    def test_warmup_records_tier_and_time(self):
        out = warmup_kernels("auto")
        assert out["tier"] == resolve_kernel("auto")
        assert out["seconds"] >= 0.0

    def test_warmup_numpy_is_a_cheap_noop(self):
        # The numpy columnar scan (no compiled tier) has nothing to compile.
        out = warmup_kernels(None)
        assert out["tier"] is None
        assert out["seconds"] < 1.0

    def test_stats_payload_shape(self):
        auto = resolve_kernel("auto")
        warmup_kernels("auto")
        get_kernel("auto")  # registers the compiled tier, when there is one
        payload = stats_payload(auto)
        assert payload["tier"] == auto
        assert payload["numba_available"] == numba_available()
        assert payload["warmup_tier"] == auto
        assert payload["warmup_seconds"] >= 0.0
        assert set(payload["tiers"]) == ({"numba"} if auto else set())
        for tier_stats in payload["tiers"].values():
            assert set(tier_stats) == {"fused_groups", "fused_rows"}
            assert tier_stats["fused_groups"] >= 0

    def test_fused_counters_advance(self):
        """The compiled tier's counters move exactly when it answers."""
        kernel = get_kernel("auto")
        before = kernel.stats_payload() if kernel is not None else None
        rng = np.random.default_rng(11)
        table = Table(
            {
                "x": rng.integers(0, 100, size=800),
                "v": rng.integers(0, 100, size=800),
            }
        )
        visitor, stats = CountVisitor(), QueryStats()
        columnar_scan(
            table, runs_from([(0, 800, 1)]), [("x", 10, 60, 1)],
            visitor, stats, kernel,
        )
        x = table.values("x")
        expected = int(np.count_nonzero((x >= 10) & (x <= 60)))
        assert visitor.result == stats.points_matched == expected
        if kernel is None:
            assert (stats.kernel_tier, stats.kernel_groups) == ("", 0)
            return
        assert (stats.kernel_tier, stats.kernel_groups) == ("numba", 1)
        after = kernel.stats_payload()
        assert after["fused_groups"] == before["fused_groups"] + 1
        assert after["fused_rows"] == before["fused_rows"] + 800
