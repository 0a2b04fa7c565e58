"""Workload ``paper``: the library path, in process, closed loop.

The four Table 2 datasets at bench scale (``BENCH_ROWS``), Flood learned
with the calibrated cost model exactly as the paper experiments build it,
and the tuned Clustered baseline. Each test query runs as COUNT and as
SUM on both indexes, one call at a time on one thread; every reply must
equal the numpy oracle. No serving layer runs.

- ``query_p50_ms`` (= ``idle_p50_ms``: every query runs alone) and
  ``query_qps`` (Flood queries per second of Flood time): medians over
  four time slices of the run (``common.windowed``).
- ``tt_vs_clustered``: geometric mean over the datasets of Flood's mean
  TT over Clustered's, the two alternating query by query.
- ``setup_s``: layout learning plus index build, all four datasets.
"""

from __future__ import annotations

import time

import numpy as np

from common import (
    Oracle,
    Outcome,
    geomean,
    mean,
    peak_rss_mb,
    percentile,
    table_columns,
    windowed,
)
from layers import calibrate_seconds, library_layers, mutable_layers, wire_rtt
from repro.bench.experiments import BENCH_QUERIES, BENCH_ROWS, PAPER_DATASETS
from repro.bench.harness import build_flood, build_tuned_baselines
from repro.core.shard import ShardedFloodIndex
from repro.datasets import (
    load,
    osm_workload,
    perfmon_workload,
    sales_workload,
    tpch_workload,
)
from repro.serve.server import visitor_factory_for

WORKLOADS = {
    "sales": (sales_workload, "price"),
    "tpch": (tpch_workload, "quantity"),
    "osm": (osm_workload, "lat"),
    "perfmon": (perfmon_workload, "cpu"),
}
#: Test queries drawn per dataset from the workload seed (each runs as
#: COUNT and as SUM).
QUERIES_PER_DATASET = 800
#: Items per dataset the traced layer probes replay.
TRACED_ITEMS = 160


def _items(bundle, name: str, seed: int) -> list:
    workload, sum_dim = WORKLOADS[name]
    queries = workload(bundle.table, num_queries=QUERIES_PER_DATASET, seed=seed)
    oracle = Oracle(table_columns(bundle.table))
    items = []
    for query in queries:
        ranges = query.ranges
        items.append((query, "count", None, oracle.answer(ranges, "count", None)))
        items.append((query, "sum", sum_dim, oracle.answer(ranges, "sum", sum_dim)))
    return items


def run(ctx) -> Outcome:
    out = Outcome()
    setup = learn = build = 0.0
    cases = []
    for k, name in enumerate(PAPER_DATASETS):
        bundle = load(name, n=BENCH_ROWS[name], num_queries=BENCH_QUERIES, seed=0)
        start = time.perf_counter()
        flood, opt = build_flood(bundle.table, bundle.train, ctx.cost_model, seed=1)
        setup += time.perf_counter() - start
        learn += opt.learn_seconds
        build += flood.build_seconds
        clustered = build_tuned_baselines(
            bundle.table, bundle.train, include=("Clustered",)
        )["Clustered"]
        items = _items(bundle, name, seed=ctx.seed * 31 + k)
        cases.append((flood, clustered, items))
    if ctx.trace:
        layers = library_layers(
            [(f, c, items[:TRACED_ITEMS]) for f, c, items in cases],
            ctx.tracer, out,
        )
        layers["optimizer.learn_s"] = learn
        layers["index.build_s"] = build
        layers["calibrate_s"] = calibrate_seconds()
        # No server runs here: the wire goes through an in-process server
        # over the first dataset, the mutable layers through the probe.
        flood, _, items = cases[0]
        sample = items[:TRACED_ITEMS]
        count, total, _ = ctx.tracer.self_times()["batcher.submit"]
        sharded = ShardedFloodIndex.wrap(flood, num_shards=2, backend="thread")
        rtt = wire_rtt(sharded, sample, ctx.tracer, out)
        layers["wire.tax_ms"] = (rtt - total / count) * 1e3
        layers.update(mutable_layers(flood.layout, flood.table, sample[:40],
                                     ctx.tracer, out))
        out.attempted += sum(len(items[:TRACED_ITEMS]) for *_, items in cases)
        out.report["layers"] = layers
        out.report["not_exercised"] = "result cache: the paper workload runs no server"
        return out

    # Closed loop: shuffled passes over every (dataset, item) until the
    # measuring time is spent; Flood and Clustered alternate per item so
    # drift hits both sides of the ratio alike.
    order = [(k, i) for k, (_, _, items) in enumerate(cases) for i in range(len(items))]
    rng = np.random.default_rng(ctx.seed)
    latencies = []
    flood_tt = [[] for _ in cases]
    clustered_tt = [[] for _ in cases]
    deadline = time.perf_counter() + ctx.seconds
    while time.perf_counter() < deadline:
        for j in rng.permutation(len(order)):
            if time.perf_counter() >= deadline:
                break
            k, i = order[j]
            flood, clustered, items = cases[k]
            query, agg, dim, expected = items[i]
            factory = visitor_factory_for(agg, dim)
            visitor = factory()
            start = time.perf_counter()
            stats = flood.query(query, visitor)
            elapsed = time.perf_counter() - start
            latencies.append(elapsed)
            flood_tt[k].append(stats.total_time)
            out.check(visitor.result == expected, f"flood {query!r} {agg}")
            visitor = factory()
            stats = clustered.query(query, visitor)
            clustered_tt[k].append(stats.total_time)
            out.check(visitor.result == expected, f"clustered {query!r} {agg}")
            out.attempted += 2
    p50 = windowed(latencies, lambda chunk: percentile(chunk, 50)) * 1e3
    out.put("setup_s", setup, "s")
    out.put("query_p50_ms", p50, "ms")
    out.put("query_p99_ms", percentile(latencies, 99) * 1e3, "ms")
    out.put("query_qps", windowed(latencies, lambda chunk: len(chunk) / chunk.sum()), "1/s")
    out.put("idle_p50_ms", p50, "ms")
    per_dataset = [mean(f) / mean(c) for f, c in zip(flood_tt, clustered_tt)]
    out.put("tt_vs_clustered", geomean(per_dataset), "x")
    out.put("peak_rss_mb", peak_rss_mb(), "MiB")
    out.report["samples"] = len(latencies)
    out.report["tt_vs_clustered by dataset"] = {
        name: round(r, 4) for name, r in zip(PAPER_DATASETS, per_dataset)
    }
    out.report["not_applicable"] = (
        "slo_qps, insert_*, disk_bytes_per_user_byte: no server, no writes"
    )
    return out
