"""Workload ``serve-ingest``: durable mutable serving under writes.

``repro serve --dataset tpch --rows 150000 --seed 7 --index delta
--data-dir <tmp> --fsync always --group-commit --merge-threshold 2000
--cache-entries 256``: every acked insert is fsynced (group commit), the
delta buffer merges off-loop every 2000 rows and each merge checkpoints.

Load, after an idle probe of distinct one-at-a-time queries:

- a closed-loop loader keeping ``WINDOW`` single-row inserts in flight on
  one connection, each row resampled from the table by the workload seed;
- open-loop "dashboard" queries at ``DASH_RATE``/s on the other
  connection, drawn Zipf-wise from a hot set of ``HOT`` queries that fits
  the result cache (COUNT and SUM alternate).

Every dashboard reply must lie between the oracle's answer on the initial
table and that answer plus the matching rows sent before the reply came
(checked after the load, off the measured path). After the load stops, a final ``merge`` op;
then a full-domain COUNT must equal initial plus acked rows and every
hot-set reply must equal the oracle over initial plus acked rows.

- ``idle_p50_ms`` / ``tt_vs_clustered``: the idle probe, one request in
  flight (index time from its replies over the tuned Clustered
  baseline's in-process time, interleaved request by request).
- ``query_p50_ms`` (median over four spans of the run), ``query_p99_ms``
  and ``query_qps``: the dashboard.
- ``insert_rows_per_s``, ``insert_p50_ms``, ``insert_p99_ms``
  (acked rows, send to ack) and ``disk_bytes_per_user_byte`` (data dir
  after the final merge over 48 bytes per initial or acked row).
"""

from __future__ import annotations

import asyncio
import shutil
import time

import numpy as np

from common import (
    Oracle,
    Outcome,
    ServeProcess,
    dir_bytes,
    fresh_dir,
    io_wchar,
    mean,
    peak_rss_mb,
    percentile,
    ratio,
    table_columns,
)
from layers import calibrate_seconds, learn_and_build, library_layers
from loadgen import arrivals, closed_probe, open_loop, quiet_gc
from repro.bench.harness import build_tuned_baselines
from repro.core.delta import DeltaBufferedFlood
from repro.datasets import load, tpch_workload
from repro.errors import QueryError
from repro.serve.client import AsyncFloodClient, FloodClient
from repro.serve.server import visitor_factory_for

ROWS = 150_000
DATA_SEED = 7
MERGE_THRESHOLD = 2000
CACHE_ENTRIES = 256
WINDOW = 4
DASH_RATE = 80
HOT = 128
ZIPF_S = 0.7
IDLE_QUERIES = 400
SUM_DIM = "quantity"


def _with_expected(oracle, queries) -> list:
    items = []
    for i, query in enumerate(queries):
        agg, dim = ("count", None) if i % 2 == 0 else ("sum", SUM_DIM)
        items.append((query, agg, dim, oracle.answer(query.ranges, agg, dim)))
    return items


class _Loader:
    """Closed loop: ``WINDOW`` single-row inserts in flight until the end."""

    def __init__(self, columns, rng, tracer):
        self.columns = columns
        self.rng = rng
        self.tracer = tracer
        self.sent_rows: list[int] = []  # table row ids, in send order
        self.acked_rows: list[int] = []
        self.latencies: list[float] = []
        self.failed = 0
        self.merges: dict[int, float] = {}  # merge number -> seconds
        self.checkpoints: dict[int, float] = {}
        self.wal_point = None
        self.wal_bytes = self.wal_rows = 0
        self.seconds = 0.0

    def _note(self, ack: dict) -> None:
        if ack.get("merges"):
            self.merges[ack["merges"]] = ack["last_merge_seconds"]
        durability = ack.get("durability") or {}
        if durability.get("checkpoints"):
            self.checkpoints[durability["checkpoints"]] = (
                durability["last_checkpoint_seconds"])
        # WAL growth between two acks with no checkpoint (which truncates
        # the log) in between: bytes appended per row logged.
        point = (durability.get("checkpoints"), durability.get("wal_bytes", 0),
                 durability.get("rows_logged", 0))
        prev, self.wal_point = self.wal_point, point
        if prev is not None and prev[0] == point[0] and point[2] > prev[2]:
            self.wal_bytes += point[1] - prev[1]
            self.wal_rows += point[2] - prev[2]

    async def _worker(self, client, deadline: float) -> None:
        while time.perf_counter() < deadline:
            row_id = int(self.rng.integers(len(self.columns["ship_date"])))
            row = {d: int(v[row_id]) for d, v in self.columns.items()}
            self.sent_rows.append(row_id)
            sid = self.tracer.open("client.insert", f"r{len(self.sent_rows)}")
            start = time.perf_counter()
            try:
                ack = await client.insert(row)
            except QueryError:
                self.failed += 1
                continue
            finally:
                self.tracer.close(sid)
            self.latencies.append(time.perf_counter() - start)
            self.acked_rows.append(row_id)
            self._note(ack)

    async def run(self, client, seconds: float) -> None:
        start = time.perf_counter()
        await asyncio.gather(*[
            self._worker(client, start + seconds) for _ in range(WINDOW)])
        self.seconds = time.perf_counter() - start


def _plain_answer(columns, ranges, agg, dim):
    mask = np.ones(len(columns["ship_date"]), dtype=bool)
    for d, (low, high) in ranges.items():
        mask &= (columns[d] >= low) & (columns[d] <= high)
    if agg == "count":
        return int(np.count_nonzero(mask))
    return int(columns[dim][mask].sum())


def _check_dashboard(columns, sent_rows, replies, out) -> None:
    """Each dashboard reply lies between the initial answer and the answer
    with every row sent before the reply arrived (rows are only added and
    both aggregates only grow)."""
    ids = np.asarray(sent_rows, dtype=np.int64)
    for (query, agg, dim, low), result, sent in replies:
        part = {d: v[ids[:sent]] for d, v in columns.items()}
        high = low + _plain_answer(part, query.ranges, agg, dim)
        out.check(low <= result <= high,
                  f"dashboard {query!r} {agg}: {result} not in [{low}, {high}]")


async def _drive(port, columns, hot, ctx, out):
    rng = np.random.default_rng(ctx.seed)
    loader = _Loader(columns, np.random.default_rng(ctx.seed + 1), ctx.tracer)
    quiet_gc()
    a = await AsyncFloodClient().connect("127.0.0.1", port)
    b = await AsyncFloodClient().connect("127.0.0.1", port)
    try:
        weights = 1.0 / np.arange(1, HOT + 1) ** ZIPF_S
        offsets = arrivals(rng, DASH_RATE, ctx.seconds)
        picks = rng.choice(HOT, size=len(offsets), p=weights / weights.sum())
        dash_items = [hot[k] for k in picks]

        replies = []

        def record(item, result):
            replies.append((item, result, len(loader.sent_rows)))
            return True

        dash, _ = await asyncio.gather(
            open_loop([b], DASH_RATE, offsets, dash_items, 0, out,
                      tracer=ctx.tracer if ctx.trace else None,
                      check=record),
            loader.run(a, ctx.seconds),
        )
        _check_dashboard(columns, loader.sent_rows, replies, out)
        out.attempted += len(loader.sent_rows)
        out.failed += loader.failed
        await a.merge()
        out.attempted += 1
    finally:
        await a.close()
        await b.close()
    return dash, loader


def _final_checks(port, columns, loader, hot, out) -> dict:
    ids = np.asarray(loader.acked_rows, dtype=np.int64)
    final = {d: np.concatenate([v, v[ids]]) for d, v in columns.items()}
    oracle = Oracle(final)
    low, high = int(final["ship_date"].min()), int(final["ship_date"].max())
    with FloodClient("127.0.0.1", port) as client:
        count, _ = client.query({"ship_date": (low, high)})
        expected = len(columns["ship_date"]) + len(loader.acked_rows)
        out.check(count == expected, f"full-domain COUNT {count} != {expected}")
        for query, agg, dim, _ in hot:
            result, _ = client.query(query.ranges, agg, dim)
            want = oracle.answer(query.ranges, agg, dim)
            out.check(result == want, f"final {query!r} {agg}: {result} != {want}")
        out.attempted += 1 + len(hot)
        deadline = time.perf_counter() + 60
        stats = client.server_stats()
        while (stats["mutable"]["durability"]["checkpoint_pending"]
               and time.perf_counter() < deadline):
            time.sleep(0.05)
            stats = client.server_stats()
    return stats


def _buffer_scan_ms(layout, table, columns, hot, rng, tracer) -> float:
    """Mean extra query time a half-full delta buffer adds (in process)."""
    delta = DeltaBufferedFlood(layout).build(table)
    ids = rng.integers(len(columns["ship_date"]), size=MERGE_THRESHOLD // 2)
    delta.insert_many({d: v[ids] for d, v in columns.items()})
    plain = buffered = 0.0
    for i, (query, agg, dim, _) in enumerate(hot):
        factory = visitor_factory_for(agg, dim)
        start = time.perf_counter()
        delta.index.query(query, factory())
        plain += time.perf_counter() - start
        sid = tracer.open("delta.query", f"delta-{i}")
        start = time.perf_counter()
        delta.query(query, factory())
        buffered += time.perf_counter() - start
        tracer.close(sid)
    delta.shutdown()
    return (buffered - plain) / len(hot) * 1e3


def run(ctx) -> Outcome:
    out = Outcome()
    bundle = load("tpch", n=ROWS, num_queries=50, seed=DATA_SEED)
    columns = table_columns(bundle.table)
    oracle = Oracle(columns)
    queries = tpch_workload(bundle.table, num_queries=HOT + IDLE_QUERIES, seed=ctx.seed)
    hot = _with_expected(oracle, queries[:HOT])
    idle_items = _with_expected(oracle, queries[HOT:])
    data_dir = fresh_dir("ingest-data")
    args = ["--dataset", "tpch", "--rows", str(ROWS), "--seed", str(DATA_SEED),
            "--index", "delta", "--data-dir", data_dir, "--fsync", "always",
            "--group-commit", "--merge-threshold", str(MERGE_THRESHOLD),
            "--cache-entries", str(CACHE_ENTRIES)]
    clustered = build_tuned_baselines(bundle.table, bundle.train,
                                      include=("Clustered",))["Clustered"]
    try:
        with ServeProcess(args, "serve-ingest.log") as serve:
            setup = serve.start()
            rtts, flood_tt, clustered_tt = closed_probe(
                serve.port, idle_items, clustered, out, ctx.tracer)
            dash, loader = asyncio.run(_drive(serve.port, columns, hot, ctx, out))
            stats = _final_checks(serve.port, columns, loader, hot, out)
            rss = peak_rss_mb(serve.pid)
            wchar = io_wchar(serve.pid)
        disk = dir_bytes(data_dir)
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)

    user_bytes = (ROWS + len(loader.acked_rows)) * 8 * len(columns)
    gaps = np.diff(sorted(dash.done_at)) if len(dash.done_at) > 1 else [0.0]
    durability = stats["mutable"]["durability"]
    group = durability["group_commit"] or {}
    cache = stats.get("cache", {})
    layers = {
        "batcher.mean_batch": stats["mean_batch_size"],
        "batcher.rejected": stats["queries_rejected"],
        "cache.hit_rate": cache.get("hit_rate", 0.0),
        "cache.evictions": cache.get("evictions", 0),
        "merge.count": stats["mutable"]["merges"],
        "merge.mean_s": mean(list(loader.merges.values())),
        "merge.max_query_gap_ms": float(np.max(gaps)) * 1e3,
        "wal.fsyncs": group.get("batches_flushed", 0),
        "wal.rows_per_fsync": ratio(group.get("records_grouped", 0),
                                    group.get("batches_flushed", 0)),
        "wal.bytes_per_row": ratio(loader.wal_bytes, loader.wal_rows),
        "checkpoint.count": durability["checkpoints"],
        "checkpoint.mean_s": mean(list(loader.checkpoints.values())),
        "storage.write_amp": ratio(wchar, user_bytes),
        "gen_lag_p99_ms": dash.lag_p99_ms,
    }
    out.report["acked rows"] = len(loader.acked_rows)
    out.report["dashboard"] = (f"n={dash.sent} lag_p99={dash.lag_p99_ms:.2f} ms"
                               + ("" if dash.valid else " INVALID: generator behind"))
    if not dash.valid:
        out.report["FLAG"] = "generator fell behind schedule; latencies not valid"
    out.report["per-layer counters"] = {k: round(float(v), 4) for k, v in layers.items()}
    out.report["not_applicable"] = "slo_qps: one fixed dashboard rate, no ladder"

    if ctx.trace:
        layout, flood, layers["optimizer.learn_s"] = learn_and_build(
            bundle, ctx.cost_model, DATA_SEED)
        layers["index.build_s"] = flood.build_seconds
        layers.update(library_layers([(flood, clustered, idle_items)], ctx.tracer, out))
        # Server-side batcher counters win over the in-process burst.
        layers["batcher.mean_batch"] = stats["mean_batch_size"]
        layers["batcher.rejected"] = stats["queries_rejected"]
        count, total, _ = ctx.tracer.self_times()["batcher.submit"]
        layers["wire.tax_ms"] = (mean(rtts) - total / count) * 1e3
        layers["delta.buffer_scan_ms"] = _buffer_scan_ms(
            layout, bundle.table, columns, hot, np.random.default_rng(ctx.seed),
            ctx.tracer)
        layers["calibrate_s"] = calibrate_seconds()
        out.report["layers"] = layers
        return out

    out.put("setup_s", setup, "s")
    out.put("query_p50_ms", dash.windowed_p(50), "ms")
    out.put("query_p99_ms", dash.p(99), "ms")
    out.put("query_qps", dash.completed_per_s(), "1/s")
    out.put("idle_p50_ms", percentile(rtts, 50) * 1e3, "ms")
    out.put("tt_vs_clustered", ratio(mean(flood_tt), mean(clustered_tt)), "x")
    out.put("peak_rss_mb", rss, "MiB")
    out.put("insert_rows_per_s", ratio(len(loader.acked_rows), loader.seconds), "rows/s")
    out.put("insert_p50_ms", percentile(loader.latencies, 50) * 1e3, "ms")
    out.put("insert_p99_ms", percentile(loader.latencies, 99) * 1e3, "ms")
    out.put("disk_bytes_per_user_byte", ratio(disk, user_bytes), "B/B")
    return out
