"""Serving resilience: the result cache and admission control under load.

Three sweeps over a Fig.7-style TPC-H configuration behind ``FloodServer``
(the serving stack the `repro serve` CLI runs):

1. **Cache efficacy** — a hot-query workload (few distinct queries, many
   repeats) against the same server with and without the result cache.
   Cached results must be identical to the uncached path, and the cached
   run must be measurably faster: a hit skips both the table scan *and*
   the micro-batch gather delay. The speedup assert can be demoted to a
   report with ``REPRO_REQUIRE_CACHE_SPEEDUP=0`` for hopelessly noisy
   runners (identity is always enforced).
2. **Hit-rate × concurrency × queue-depth sweep** — throughput across the
   operating envelope, with retrying clients riding out shed requests.
   Results are persisted as strict JSON (``results/BENCH_serving.json``,
   where CI's artifact glob and ``repro bench-diff`` pick them up;
   non-finite ``scan_overhead`` values become ``null``).
3. **Overload** — a saturated server (slow engine, small queue depth)
   sheds excess requests with the structured ``overloaded`` reply while
   ``ping`` keeps answering, and clients with retry enabled eventually
   succeed.
"""

import asyncio
import json
import os
import time

import pytest

from repro.bench.harness import build_flood
from repro.bench.report import write_json_result
from repro.core.cost import AnalyticCostModel
from repro.core.engine import BatchQueryEngine
from repro.core.index import FloodIndex
from repro.datasets import load
from repro.serve.client import AsyncFloodClient, FloodClient, RetryableError
from repro.serve.server import FloodServer
from repro.storage.visitor import CountVisitor

ROWS = 60_000
GRID_SCALE = 4.0
#: Distinct hot queries and total requests for the cache-efficacy run.
HOT_QUERIES = 6
HOT_REQUESTS = 90
#: Required cached/uncached speedup on the hot workload. Conservative: a
#: hit skips the ~1ms batching delay plus the scan, so even slow runners
#: clear this comfortably.
MIN_CACHE_SPEEDUP = 1.25
REQUIRE_SPEEDUP = os.environ.get("REPRO_REQUIRE_CACHE_SPEEDUP", "1") != "0"
MAX_DELAY = 0.001


@pytest.fixture(scope="module")
def serving_setup():
    bundle = load("tpch", n=ROWS, num_queries=140, seed=7)
    _, opt = build_flood(
        bundle.table, bundle.train, cost_model=AnalyticCostModel(),
        max_cells=8192, seed=7,
    )
    flood = FloodIndex(opt.layout.scaled(GRID_SCALE)).build(bundle.table)
    return flood, bundle


def _expected_count(flood, query) -> int:
    visitor = CountVisitor()
    flood.query_percell(query, visitor)
    return visitor.result


def _wire_ranges(query) -> dict:
    return {d: list(b) for d, b in query.ranges.items()}


def _with_server(flood, scenario, engine=None, **server_kwargs):
    """Run ``await scenario(host, port)`` against a fresh server."""

    async def main():
        server = FloodServer(
            engine or BatchQueryEngine(flood), max_delay=MAX_DELAY, **server_kwargs
        )
        host, port = await server.start()
        try:
            return await asyncio.wait_for(scenario(host, port), timeout=120)
        finally:
            await server.stop()

    return asyncio.run(main())


def _in_thread(fn):
    return asyncio.get_running_loop().run_in_executor(None, fn)


# --------------------------------------------------------- 1. cache efficacy
def test_hot_queries_cached_vs_uncached(serving_setup):
    flood, bundle = serving_setup
    hot = bundle.test[:HOT_QUERIES]
    workload = [hot[i % len(hot)] for i in range(HOT_REQUESTS)]
    expected = [_expected_count(flood, q) for q in workload]

    def run_workload(host, port):
        results = []
        with FloodClient(host, port) as client:
            client.ping()  # connection warmup outside the timed region
            start = time.perf_counter()
            for query in workload:
                results.append(client.query(_wire_ranges(query))[0])
            elapsed = time.perf_counter() - start
            stats = client.server_stats()
        return elapsed, results, stats

    async def scenario(host, port):
        return await _in_thread(lambda: run_workload(host, port))

    uncached_s, uncached, _ = _with_server(flood, scenario)  # cache disabled
    cached_s, cached, stats = _with_server(flood, scenario, cache_entries=64)

    assert uncached == expected  # identity, uncached path
    assert cached == expected  # identity, cached path
    assert stats["cache"]["hits"] == HOT_REQUESTS - HOT_QUERIES
    assert stats["cache"]["misses"] == HOT_QUERIES

    speedup = uncached_s / cached_s
    print(
        f"\nhot workload ({HOT_REQUESTS} requests over {HOT_QUERIES} queries): "
        f"uncached {uncached_s * 1e3:.1f} ms, cached {cached_s * 1e3:.1f} ms "
        f"({speedup:.2f}x, hit rate {stats['cache']['hit_rate']:.2f})"
    )
    message = f"cache only {speedup:.2f}x (need >= {MIN_CACHE_SPEEDUP}x)"
    if REQUIRE_SPEEDUP:
        assert speedup >= MIN_CACHE_SPEEDUP, message
    elif speedup < MIN_CACHE_SPEEDUP:
        print(f"  WARNING (not asserted): {message}")


# ------------------------------------------- 2. hit × concurrency × depth
def test_sweep_hit_rate_concurrency_queue_depth(serving_setup):
    flood, bundle = serving_setup
    total = 120
    pool = bundle.test + bundle.train
    expected_by_query = {}
    rows = []

    async def run_config(host, port, queries, concurrency):
        client = await AsyncFloodClient(retries=8, backoff=0.01).connect(host, port)
        gate = asyncio.Semaphore(concurrency)
        scanned = 0
        matched = 0

        async def one(query):
            nonlocal scanned, matched
            async with gate:
                result, stats = await client.query(_wire_ranges(query))
                scanned += stats["points_scanned"]
                matched += stats["points_matched"]
                return result

        start = time.perf_counter()
        results = await asyncio.gather(*[one(q) for q in queries])
        elapsed = time.perf_counter() - start
        server_stats = await _in_thread(lambda: _stats_once(host, port))
        await client.close()
        overhead = scanned / matched if matched else float("inf")
        return elapsed, results, overhead, server_stats

    for distinct in (total, 24, 6):  # nominal hit rates 0 / 0.8 / 0.95
        queries = [pool[i % distinct] for i in range(total)]
        for query in queries:
            if query not in expected_by_query:
                expected_by_query[query] = _expected_count(flood, query)
        expected = [expected_by_query[q] for q in queries]
        for concurrency in (1, 8, 32):
            for depth in (0, 8):
                elapsed, results, overhead, stats = _with_server(
                    flood,
                    lambda host, port: run_config(host, port, queries, concurrency),
                    cache_entries=256,
                    max_queue_depth=depth,
                )
                assert results == expected, (distinct, concurrency, depth)
                rows.append(
                    {
                        "distinct_queries": distinct,
                        "nominal_hit_rate": 1 - distinct / total,
                        "concurrency": concurrency,
                        "max_queue_depth": depth,
                        "queries_per_second": total / elapsed,
                        "scan_overhead": overhead,
                        "cache_hit_rate": stats["cache"]["hit_rate"],
                        "queries_rejected": stats["queries_rejected"],
                    }
                )

    print(f"\n{'distinct':>8s} {'conc':>5s} {'depth':>5s} {'q/s':>9s} "
          f"{'hit%':>5s} {'shed':>5s}")
    for row in rows:
        print(
            f"{row['distinct_queries']:8d} {row['concurrency']:5d} "
            f"{row['max_queue_depth']:5d} {row['queries_per_second']:9.1f} "
            f"{row['cache_hit_rate'] * 100:5.1f} {row['queries_rejected']:5d}"
        )
    path = write_json_result("BENCH_serving", {"rows": ROWS, "sweep": rows})
    # The result file is strict JSON even when scan_overhead was inf.
    with open(path) as handle:
        def boom(name):
            raise AssertionError(f"non-RFC JSON constant {name} in {path}")
        json.load(handle, parse_constant=boom)


def _stats_once(host, port) -> dict:
    with FloodClient(host, port) as client:
        return client.server_stats()


# ---------------------------------------------------------------- 3. overload
class _SlowEngine:
    """Holds each batch in the executor for ``delay`` s to force saturation."""

    def __init__(self, engine, delay):
        self.engine = engine
        self.index = engine.index
        self.delay = delay

    def run(self, queries, visitors=None):
        time.sleep(self.delay)
        return self.engine.run(queries, visitors=visitors)


def test_overloaded_server_sheds_and_stays_responsive(serving_setup):
    flood, bundle = serving_setup
    query = bundle.test[0]
    expected = _expected_count(flood, query)

    async def scenario(host, port):
        client = await AsyncFloodClient().connect(host, port)
        tasks = [
            asyncio.get_running_loop().create_task(
                client.query(_wire_ranges(query))
            )
            for _ in range(16)
        ]
        await asyncio.sleep(0.05)
        started = asyncio.get_running_loop().time()
        pong = await asyncio.wait_for(_in_thread(lambda: _ping_once(host, port)), 5)
        ping_seconds = asyncio.get_running_loop().time() - started
        outcomes = await asyncio.gather(*tasks, return_exceptions=True)
        await client.close()

        retry_client = await AsyncFloodClient(retries=10, backoff=0.05).connect(
            host, port
        )
        retried = await asyncio.gather(
            *[retry_client.query(_wire_ranges(query)) for _ in range(8)]
        )
        await retry_client.close()
        return pong, ping_seconds, outcomes, retried

    pong, ping_seconds, outcomes, retried = _with_server(
        flood,
        scenario,
        engine=_SlowEngine(BatchQueryEngine(flood), delay=0.2),
        max_batch=1,
        max_queue_depth=4,
    )
    served = [r for r in outcomes if not isinstance(r, Exception)]
    shed = [r for r in outcomes if isinstance(r, RetryableError)]
    print(
        f"\noverload: {len(served)} served, {len(shed)} shed, "
        f"ping answered in {ping_seconds * 1e3:.1f} ms while saturated"
    )
    assert pong is True
    assert ping_seconds < 2.0  # ping never queues behind the batcher
    assert len(shed) > 0  # admission control actually shed load
    assert len(served) + len(shed) == 16  # every request got *some* reply
    assert all(result == expected for result, _ in served)
    # With retries enabled every request eventually lands, identically.
    assert [r for r, _ in retried] == [expected] * 8


def _ping_once(host, port) -> bool:
    with FloodClient(host, port) as client:
        return client.ping()


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-q", "-s"]))
