"""The traced run's in-process layer probes.

Every traced run drives its workload's queries through the library layers
itself, with spans around each public call: ``FloodIndex.plan`` /
``refine_plan`` / ``execute_plan`` (the paper's projection, refinement and
scan), the tuned ``ClusteredIndex``, ``BatchQueryEngine.run``, a 2-shard
``ShardedFloodIndex`` and ``MicroBatcher.submit``. The serve workloads add
client-side spans and the server's ``stats`` op on top (see their
modules); ``wire_rtt`` and ``mutable_layers`` drive the wire and the
delta, WAL, merge and checkpoint layers in process for workloads whose
own traffic does not reach them. The index pass runs once untraced and
once traced; the difference is reported as ``trace.overhead_frac``.
"""

from __future__ import annotations

import asyncio
import shutil
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from common import fresh_dir, io_wchar, mean, ratio, table_columns
from repro.core.durable import DurableDeltaFlood
from repro.core.engine import BatchQueryEngine
from repro.core.index import FloodIndex
from repro.core.optimizer import find_optimal_layout
from repro.core.shard import ShardedFloodIndex
from repro.query.predicate import Query
from repro.query.stats import QueryStats
from repro.serve.batcher import MicroBatcher
from repro.serve.client import FloodClient
from repro.serve.server import FloodServer, visitor_factory_for

#: Every per-layer metric: name -> (unit, better). ``run.py`` reports a
#: layer the workload does not exercise as 0 and says so in its report.
#: Workloads whose server does not exercise the delta, WAL, merge and
#: checkpoint layers drive them in process (``mutable_layers``).
PER_LAYER = {
    "index.plan_ms": ("ms", "lower"),
    "index.refine_ms": ("ms", "lower"),
    "index.scan_ms": ("ms", "lower"),
    "index.cells_per_query": ("count", "lower"),
    "index.runs_per_query": ("count", "lower"),
    "index.scan_overhead": ("x", "lower"),
    "index.tps_ns": ("ns", "lower"),
    "index.exact_frac": ("frac", "higher"),
    "clustered.tt_ms": ("ms", "lower"),
    "clustered.tps_ns": ("ns", "lower"),
    "optimizer.learn_s": ("s", "lower"),
    "index.build_s": ("s", "lower"),
    "calibrate_s": ("s", "lower"),
    "engine.ms_per_query": ("ms", "lower"),
    "engine.enum_hit_rate": ("frac", "higher"),
    "engine.tax": ("x", "lower"),
    "shard.ms_per_query": ("ms", "lower"),
    "shard.tax": ("x", "lower"),
    "batcher.wait_ms": ("ms", "lower"),
    "batcher.mean_batch": ("count", "higher"),
    "batcher.rejected": ("count", "lower"),
    "wire.tax_ms": ("ms", "lower"),
    "cache.hit_rate": ("frac", "higher"),
    "cache.evictions": ("count", "lower"),
    "merge.count": ("count", "lower"),
    "merge.mean_s": ("s", "lower"),
    "merge.max_query_gap_ms": ("ms", "lower"),
    "delta.buffer_scan_ms": ("ms", "lower"),
    "wal.fsyncs": ("count", "lower"),
    "wal.rows_per_fsync": ("rows/fsync", "higher"),
    "wal.bytes_per_row": ("B/row", "lower"),
    "checkpoint.count": ("count", "lower"),
    "checkpoint.mean_s": ("s", "lower"),
    "storage.write_amp": ("x", "lower"),
    "trace.overhead_frac": ("frac", "lower"),
}


def learn_and_build(bundle, cost_model, seed: int):
    """The layout ``repro serve`` learns at its defaults for ``bundle``, its
    built index, and the learning seconds."""
    start = time.perf_counter()
    layout = find_optimal_layout(bundle.table, bundle.train, cost_model,
                                 seed=seed).layout
    learn = time.perf_counter() - start
    return layout, FloodIndex(layout).build(bundle.table), learn


def calibrate_seconds(seed: int = 0) -> float:
    """Time one cost-model calibration in the configuration
    ``repro.bench.harness.default_cost_model`` uses (the once-per-machine
    cost the pinned cache saves every other run)."""
    from repro.core.calibration import calibrate
    from repro.datasets.synthetic import generate_uniform, uniform_workload

    table = generate_uniform(n=100_000, d=5, seed=seed)
    queries = uniform_workload(table, num_queries=30, seed=seed + 1)
    start = time.perf_counter()
    calibrate(table, queries, num_layouts=12, seed=seed)
    return time.perf_counter() - start


def staged_query(index, query, visitor, tracer, rid):
    """``FloodIndex.query`` spelled out stage by stage, one span per stage.

    Returns ``(stats, runs)``; the scan counters land in ``stats``.
    """
    root = tracer.open("index.query", rid)
    sid = tracer.open("index.plan", rid, root)
    plan = index.plan(query)
    tracer.close(sid)
    if plan.refine and plan.starts.size:
        sid = tracer.open("index.refine_plan", rid, root)
        index.refine_plan(plan)
        tracer.close(sid)
    runs = plan.coalesced_runs()
    stats = QueryStats(cells_visited=plan.cells_enumerated)
    sid = tracer.open("index.execute_plan", rid, root)
    index.execute_plan(plan, query, visitor, stats, runs=runs)
    tracer.close(sid)
    tracer.close(root)
    return stats, len(runs)


class _TracedEngine(BatchQueryEngine):
    """The engine with a span around every ``run`` call (batcher probe)."""

    tracer = None
    rid = None
    parent = -1
    last_seconds = 0.0

    def run(self, queries, *args, **kwargs):
        start = time.perf_counter()
        result = super().run(queries, *args, **kwargs)
        end = time.perf_counter()
        self.last_seconds = end - start
        self.tracer.add("engine.run", start, end, self.rid, self.parent)
        return result


async def _batcher_probe(engine, items, tracer, outcome, burst: int = 64):
    """One request in flight, then a burst: wait time and batch sizes."""
    batcher = MicroBatcher(engine)
    await batcher.start()
    try:
        waits = []
        for i, (query, agg, dim, expected) in enumerate(items):
            rid = f"batcher-{i}"
            sid = tracer.open("batcher.submit", rid)
            engine.rid, engine.parent = rid, sid
            start = time.perf_counter()
            result, _ = await batcher.submit(query, visitor_factory_for(agg, dim))
            waits.append(time.perf_counter() - start - engine.last_seconds)
            tracer.close(sid)
            outcome.check(result == expected, f"batcher {query!r} {agg}")
        engine.rid, engine.parent = "burst", -1
        before = (batcher.stats.batches_dispatched, batcher.stats.queries_served)
        chunk = items[:burst]
        replies = await asyncio.gather(*[
            batcher.submit(q, visitor_factory_for(agg, dim))
            for q, agg, dim, _ in chunk
        ])
        for (q, agg, _dim, expected), (result, _) in zip(chunk, replies):
            outcome.check(result == expected, f"batcher burst {q!r} {agg}")
        batches = batcher.stats.batches_dispatched - before[0]
        served = batcher.stats.queries_served - before[1]
        return mean(waits), ratio(served, batches), batcher.stats.queries_rejected
    finally:
        await batcher.stop()


def _timed_calls(tracer, span, items, call, outcome, label):
    """Run ``call(query, visitor)`` per item under a span.

    Returns ``(mean seconds per call, list of returned QueryStats)``.
    """
    total = 0.0
    stats = []
    for i, (query, agg, dim, expected) in enumerate(items):
        visitor = visitor_factory_for(agg, dim)()
        sid = tracer.open(span, f"{label}-{i}")
        start = time.perf_counter()
        out = call(query, visitor)
        total += time.perf_counter() - start
        tracer.close(sid)
        outcome.check(visitor.result == expected, f"{label} {query!r} {agg}")
        stats.append(out)
    return total / max(len(items), 1), stats


def _index_pass(flood, items, tracer, outcome):
    """Every item through the staged index path; returns (seconds, rows)."""
    rows = []
    start = time.perf_counter()
    for i, (query, agg, dim, expected) in enumerate(items):
        visitor = visitor_factory_for(agg, dim)()
        stats, runs = staged_query(flood, query, visitor, tracer, f"index-{i}")
        rows.append((stats, runs))
        outcome.check(visitor.result == expected, f"index {query!r} {agg}")
    return time.perf_counter() - start, rows


def library_layers(cases, tracer, outcome) -> dict:
    """All in-process layer metrics over ``cases``.

    ``cases`` is a list of ``(flood, clustered, items)`` where each item
    is ``(query, agg, dim, expected)``. Returns ``name -> value``.
    """
    from tracing import Tracer

    untraced = Tracer(False)
    plain_s = traced_s = 0.0
    rows = []
    for _round in range(2):
        for flood, _clustered, items in cases:
            plain_s += _index_pass(flood, items, untraced, outcome)[0]
            seconds, case_rows = _index_pass(flood, items, tracer, outcome)
            traced_s += seconds
            if _round == 0:
                rows.extend(case_rows)
    stage = tracer.self_times()
    n = len(rows)
    scanned = sum(s.points_scanned for s, _ in rows)
    out = {
        "index.plan_ms": stage["index.plan"][1] / 2 / n * 1e3,
        "index.refine_ms": stage.get("index.refine_plan", (0, 0.0))[1] / 2 / n * 1e3,
        "index.scan_ms": stage["index.execute_plan"][1] / 2 / n * 1e3,
        "index.cells_per_query": mean([s.cells_visited for s, _ in rows]),
        "index.runs_per_query": mean([r for _, r in rows]),
        "index.scan_overhead": ratio(scanned, sum(s.points_matched for s, _ in rows)),
        "index.tps_ns": ratio(stage["index.execute_plan"][1] / 2, scanned) * 1e9,
        "index.exact_frac": ratio(sum(s.exact_points for s, _ in rows), scanned),
        "trace.overhead_frac": ratio(traced_s, plain_s) - 1.0,
    }
    tt = []
    tps_num = tps_den = 0.0
    index_s = engine_s = shard_s = 0.0
    hits = lookups = 0
    for flood, clustered, items in cases:
        _, c_stats = _timed_calls(tracer, "clustered.query", items,
                                  clustered.query, outcome, "clustered")
        tt.extend(s.total_time for s in c_stats)
        tps_num += sum(s.scan_time for s in c_stats)
        tps_den += sum(s.points_scanned for s in c_stats)
        seconds, _ = _timed_calls(tracer, "flood.query", items,
                                  flood.query, outcome, "query")
        index_s += seconds
        engine = BatchQueryEngine(flood)
        seconds, _ = _timed_calls(
            tracer, "engine.run", items,
            lambda q, v: engine.run([q], visitors=[v]), outcome, "engine")
        engine_s += seconds
        cache = engine.cache_stats()
        hits += cache["hits"]
        lookups += cache["hits"] + cache["misses"]
        sharded = ShardedFloodIndex.wrap(flood, num_shards=2, backend="thread")
        seconds, _ = _timed_calls(tracer, "shard.query", items,
                                  sharded.query, outcome, "shard")
        shard_s += seconds
    k = len(cases)
    out.update({
        "clustered.tt_ms": mean(tt) * 1e3,
        "clustered.tps_ns": ratio(tps_num, tps_den) * 1e9,
        "engine.ms_per_query": engine_s / k * 1e3,
        "engine.enum_hit_rate": ratio(hits, lookups),
        "engine.tax": ratio(engine_s, index_s),
        "shard.ms_per_query": shard_s / k * 1e3,
        "shard.tax": ratio(shard_s, index_s),
    })
    # The batcher probe serves the 2-shard thread-backend index, the
    # configuration ``repro serve`` runs at its defaults on two cores.
    flood, _clustered, items = cases[0]
    engine = _TracedEngine(
        ShardedFloodIndex.wrap(flood, num_shards=2, backend="thread"))
    engine.tracer = tracer
    wait, batch, rejected = asyncio.run(
        _batcher_probe(engine, items, tracer, outcome))
    out.update({
        "batcher.wait_ms": wait * 1e3,
        "batcher.mean_batch": batch,
        "batcher.rejected": rejected,
    })
    return out


#: Single-row inserts per merge cycle of the in-process mutable probe.
PROBE_ROWS = 1000
PROBE_CYCLES = 2


def mutable_layers(layout, table, items, tracer, out) -> dict:
    """The delta, WAL, merge and checkpoint layers in process, over the
    workload's own table and layout: per cycle, ``PROBE_ROWS`` single-row
    inserts through an ``fsync always`` group-commit log (each ticket
    awaited, as an ack would), the items over the full buffer and over
    the main index alone, then a merge prepared on another thread while
    the items keep querying, its commit, and the checkpoint."""
    columns = table_columns(table)
    rng = np.random.default_rng(0)
    data_dir = fresh_dir("mutable-probe")
    wchar = io_wchar("self")
    index = DurableDeltaFlood(layout, data_dir, fsync="always",
                              merge_threshold=None, group_commit=True).build(table)
    merges, checkpoints, buffer_s, gaps = [], [], [], [0.0]
    wal_bytes = 0
    try:
        with ThreadPoolExecutor(max_workers=1) as pool:
            for cycle in range(PROBE_CYCLES):
                for row_id in rng.integers(table.num_rows, size=PROBE_ROWS):
                    ticket = index.insert({d: int(v[row_id]) for d, v in columns.items()})
                    if ticket is not None:
                        ticket.result()
                wal_bytes = max(wal_bytes, index.durability_stats()["wal_bytes"])
                for i, (query, agg, dim, _) in enumerate(items):
                    factory = visitor_factory_for(agg, dim)
                    start = time.perf_counter()
                    index.index.query(query, factory())
                    plain = time.perf_counter() - start
                    sid = tracer.open("delta.query", f"delta-{cycle}-{i}")
                    start = time.perf_counter()
                    index.query(query, factory())
                    buffer_s.append(time.perf_counter() - start - plain)
                    tracer.close(sid)
                sid = tracer.open("merge", f"merge-{cycle}")
                start = last = time.perf_counter()
                prepared = pool.submit(index.prepare_merge)
                while not prepared.done():
                    for query, agg, dim, _ in items[:8]:
                        index.query(query, visitor_factory_for(agg, dim)())
                        now = time.perf_counter()
                        gaps.append(now - last)
                        last = now
                index.commit_merge(prepared.result())
                merges.append(time.perf_counter() - start)
                tracer.close(sid)
                sid = tracer.open("checkpoint", f"checkpoint-{cycle}")
                start = time.perf_counter()
                index.checkpoint()
                checkpoints.append(time.perf_counter() - start)
                tracer.close(sid)
        dim = table.dims[0]
        low, high = int(columns[dim].min()), int(columns[dim].max())
        visitor = visitor_factory_for("count", None)()
        index.query(Query({dim: (low, high)}), visitor)
        inserted = PROBE_CYCLES * PROBE_ROWS
        out.check(visitor.result == table.num_rows + inserted,
                  f"mutable probe COUNT {visitor.result}")
        stats = index.durability_stats()
    finally:
        index.shutdown()
        shutil.rmtree(data_dir, ignore_errors=True)
    group = stats["group_commit"] or {}
    row_bytes = 8 * len(columns)
    return {
        "merge.count": len(merges),
        "merge.mean_s": mean(merges),
        "merge.max_query_gap_ms": max(gaps) * 1e3,
        "delta.buffer_scan_ms": mean(buffer_s) * 1e3,
        "wal.fsyncs": group.get("batches_flushed", 0),
        "wal.rows_per_fsync": ratio(group.get("records_grouped", 0),
                                    group.get("batches_flushed", 0)),
        "wal.bytes_per_row": ratio(wal_bytes, PROBE_ROWS),
        "checkpoint.count": stats["checkpoints"],
        "checkpoint.mean_s": mean(checkpoints),
        "storage.write_amp": ratio(io_wchar("self") - wchar,
                                   (table.num_rows + inserted) * row_bytes),
    }


def wire_rtt(index, items, tracer, out) -> float:
    """Mean seconds per ``FloodClient.query``, one request in flight, to an
    in-process ``FloodServer`` over ``index`` on its own loop thread."""
    loop = asyncio.new_event_loop()
    server = FloodServer(BatchQueryEngine(index), port=0)
    _, port = loop.run_until_complete(server.start())
    thread = threading.Thread(target=loop.run_forever, name="perfbench-server")
    thread.start()
    try:
        total = 0.0
        with FloodClient("127.0.0.1", port) as client:
            for i, (query, agg, dim, expected) in enumerate(items):
                sid = tracer.open("client.query", f"wire-{i}")
                start = time.perf_counter()
                result, _ = client.query(query.ranges, agg, dim)
                total += time.perf_counter() - start
                tracer.close(sid)
                out.check(result == expected, f"wire {query!r} {agg}")
        return total / len(items)
    finally:
        asyncio.run_coroutine_threadsafe(server.stop(), loop).result(timeout=60)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=60)
        loop.close()
