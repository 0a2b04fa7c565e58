"""Workload ``serve-scan``: read-only ``repro serve`` under an open loop.

``repro serve --dataset tpch --rows 300000 --seed 7`` at its defaults
(2-shard thread backend, 2 ms micro-batch window, result cache off). The
benchmark regenerates the same table, draws a pool of distinct queries
from the workload seed (more than the engine's 1024-entry enumeration
cache holds, so no request repeats one), and precomputes every answer
with the numpy oracle. Load is a ladder of fixed Poisson rates over two
connections; the mix alternates COUNT and SUM(quantity).

- ``idle_p50_ms``: p50 at the lowest rate, where requests arrive alone
  and the gather window dominates.
- ``query_p50_ms`` / ``query_p99_ms``: at the fixed mid-ladder rate (the
  p99 as the median over four spans of the rung, ``common.windowed``).
- ``query_qps``: replies per second on the top rung, which is offered
  more than the server can take: the serving capacity.
- ``slo_qps``: the highest rate whose p99 meets
  ``SLO_P99_MS`` with the generator on schedule and no growing backlog.
- ``tt_vs_clustered``: Flood's index time from the replies to ``PROBE``
  one-in-flight requests, over the tuned Clustered baseline's in-process
  time on the same requests, interleaved request by request.
"""

from __future__ import annotations

import asyncio

import numpy as np

from common import (
    Oracle,
    Outcome,
    ServeProcess,
    mean,
    peak_rss_mb,
    ratio,
    table_columns,
)
from layers import calibrate_seconds, learn_and_build, library_layers, mutable_layers
from loadgen import arrivals, closed_probe, open_loop, quiet_gc
from repro.bench.harness import build_tuned_baselines
from repro.datasets import load, tpch_workload
from repro.serve.client import AsyncFloodClient, FloodClient

ROWS = 300_000
DATA_SEED = 7
SUM_DIM = "quantity"
CONNECTIONS = 2
#: (offered queries/s, share of ``--seconds``); fixed numbers, not derived
#: from measured capacity (about 500/s for this mix on two cores). The mid
#: rung gets most of the time, for a p99 over about a thousand replies;
#: the top rung is offered more than the server can take.
LADDER = ((50, 0.14), (100, 0.60), (250, 0.05), (500, 0.05), (1200, 0.16))
MID_RATE = 100
SLO_P99_MS = 20.0
POOL = 6200
#: One-in-flight requests (from the end of the pool) for tt_vs_clustered
#: and, traced, the wire tax.
PROBE = 300
TRACED_ITEMS = 200


def _items(table, seed: int) -> list:
    oracle = Oracle(table_columns(table))
    seen = set()
    items = []
    for query in tpch_workload(table, num_queries=POOL, seed=seed):
        if query in seen:
            continue
        seen.add(query)
        agg, dim = ("count", None) if len(items) % 2 == 0 else ("sum", SUM_DIM)
        items.append((query, agg, dim, oracle.answer(query.ranges, agg, dim)))
    return items


async def _connect(port: int, n: int) -> list:
    return [await AsyncFloodClient().connect("127.0.0.1", port) for _ in range(n)]


async def _ladder(port, items, seconds, seed, out, rates=None):
    rng = np.random.default_rng(seed)
    quiet_gc()
    clients = await _connect(port, CONNECTIONS)
    rungs = []
    first = 0
    try:
        for rate, share in LADDER:
            if rates is not None and rate not in rates:
                continue
            offsets = arrivals(rng, rate, share * seconds)
            rungs.append(await open_loop(clients, rate, offsets, items, first, out))
            first += len(offsets)
    finally:
        for client in clients:
            await client.close()
    return rungs


def _traced(ctx, out, serve, bundle, items, clustered) -> None:
    """Per-layer metrics: in-process layers over the served table, the
    wire at one request in flight, and a traced mid-ladder rung."""
    tracer = ctx.tracer
    _, flood, learn = learn_and_build(bundle, ctx.cost_model, DATA_SEED)
    sample = items[:TRACED_ITEMS]
    layers = library_layers([(flood, clustered, sample)], tracer, out)
    layers["optimizer.learn_s"] = learn
    layers["index.build_s"] = flood.build_seconds
    layers["calibrate_s"] = calibrate_seconds()
    rtts, _, _ = closed_probe(serve.port, sample, clustered, out, tracer)
    count, total, _ = tracer.self_times()["batcher.submit"]
    layers["wire.tax_ms"] = (mean(rtts) - total / count) * 1e3
    rungs = asyncio.run(_ladder(serve.port, items[TRACED_ITEMS:], ctx.seconds,
                                ctx.seed, out, rates=(MID_RATE,)))
    with FloodClient("127.0.0.1", serve.port) as client:
        stats = client.server_stats()
    layers["batcher.mean_batch"] = stats["mean_batch_size"]
    layers["batcher.rejected"] = stats["queries_rejected"]
    out.report["gen_lag_p99_ms"] = round(rungs[0].lag_p99_ms, 3)
    out.report["layers"] = layers
    # The read-only server has no delta, WAL, merge or checkpoint layer;
    # the in-process probe drives them over the same table and layout.
    layers.update(mutable_layers(flood.layout, bundle.table, sample[:40],
                                 tracer, out))
    out.report["not_exercised"] = "result cache: off in this workload"


def run(ctx) -> Outcome:
    out = Outcome()
    args = ["--dataset", "tpch", "--rows", str(ROWS), "--seed", str(DATA_SEED)]
    with ServeProcess(args, "serve-scan.log") as serve:
        setup = serve.start()
        bundle = load("tpch", n=ROWS, num_queries=50, seed=DATA_SEED)
        items = _items(bundle.table, ctx.seed)
        clustered = build_tuned_baselines(bundle.table, bundle.train,
                                          include=("Clustered",))["Clustered"]
        if ctx.trace:
            _traced(ctx, out, serve, bundle, items, clustered)
            return out
        _, flood_tt, clustered_tt = closed_probe(
            serve.port, items[-PROBE:], clustered, out, ctx.tracer)
        rungs = asyncio.run(_ladder(serve.port, items[:-PROBE], ctx.seconds,
                                    ctx.seed, out))
        rss = peak_rss_mb(serve.pid)
        with FloodClient("127.0.0.1", serve.port) as client:
            stats = client.server_stats()
    by_rate = {rung.rate: rung for rung in rungs}
    mid, top = by_rate[MID_RATE], rungs[-1]
    slo = [r.rate for r in rungs
           if r.p(99) <= SLO_P99_MS and r.valid
           and r.backlog <= max(4, r.rate * SLO_P99_MS / 1e3)]
    out.put("setup_s", setup, "s")
    out.put("query_p50_ms", mid.p(50), "ms")
    out.put("query_p99_ms", mid.windowed_p(99), "ms")
    out.put("query_qps", top.completed_per_s(), "1/s")
    out.put("idle_p50_ms", rungs[0].p(50), "ms")
    out.put("tt_vs_clustered", ratio(mean(flood_tt), mean(clustered_tt)), "x")
    out.put("peak_rss_mb", rss, "MiB")
    # No rung meeting the limit reads 0 here; slo_qps is not gated.
    out.put("slo_qps", max(slo, default=0), "1/s")
    out.report["ladder"] = {
        f"{r.rate}/s": (f"n={r.sent} p50={r.p(50):.2f} p99={r.p(99):.2f} ms "
                        f"done={r.completed_per_s():.0f}/s backlog={r.backlog} "
                        f"lag_p99={r.lag_p99_ms:.2f} ms"
                        + ("" if r.valid else " INVALID: generator behind"))
        for r in rungs
    }
    out.report["gen_lag_p99_ms"] = round(max(r.lag_p99_ms for r in rungs), 3)
    if not all(r.valid for r in rungs[:-1]):
        out.report["FLAG"] = "generator fell behind schedule; latencies not valid"
    out.report["server mean batch"] = round(stats["mean_batch_size"], 3)
    out.report["pool"] = (f"{len(items)} distinct queries, "
                          f"{sum(r.sent for r in rungs) + PROBE} sent")
    out.report["not_applicable"] = "insert_*, disk_bytes_per_user_byte: no writes"
    return out
