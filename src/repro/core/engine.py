"""Throughput-mode batch query execution over a Flood index.

The single-query path (:meth:`FloodIndex.query`) optimizes latency; this
module optimizes aggregate throughput for serving many queries: plans are
built through a shared enumeration cache (queries that project to the same
column ranges reuse one vectorized cell enumeration), per-query state is
kept in reusable buffers, and an optional worker pool parallelizes across
queries — the numpy kernels (plan gather, lock-step refinement, gathered
scans) release the GIL for their heavy lifting, so threads scale on
multicore without sharding the table. For parallelism *within* one large
query, pair the engine with :class:`~repro.core.shard.ShardedFloodIndex`;
for serving concurrent clients, put :mod:`repro.serve` in front of it.

Every query still gets its own :class:`QueryStats` and visitor, and results
are bit-identical to running :meth:`FloodIndex.query` (or the seed's
per-cell loop) query by query.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

from repro.baselines.base import timed
from repro.core.protocol import require_queryable
from repro.errors import QueryError
from repro.query.stats import QueryStats, WorkloadResult
from repro.storage.visitor import CountVisitor, Visitor

#: Enumeration-cache entry cap: bounds engine memory for long-running
#: serving processes whose queries keep projecting to new column ranges.
_MAX_CACHE_ENTRIES = 1024


class LRUEnumCache:
    """Bounded LRU memo for plan enumerations, with eviction accounting.

    Duck-types the two operations :meth:`FloodIndex.plan` performs on its
    ``enum_cache`` — ``get(key)`` and ``cache[key] = value`` — so it
    drops in where a plain dict was. Under an adaptive or shifting
    workload the projected-column-range key space is unbounded; a plain
    dict grows without limit, and the engine's old FIFO trim evicted the
    *oldest insert*, which is exactly the entry a stable working set
    keeps reusing. LRU keeps the working set hot and the
    hit/miss/eviction counters make cache health observable (server
    stats op, ``engine_cache`` block).

    Thread-safe: engine workers share one cache; every operation holds
    the lock (entries are immutable once stored, so readers never see a
    partially-built value either way — the lock protects the OrderedDict
    reordering, which *is* a mutation on every hit).
    """

    def __init__(self, capacity: int = _MAX_CACHE_ENTRIES):
        if int(capacity) < 1:
            raise QueryError(f"enum cache needs capacity >= 1, got {capacity}")
        self.capacity = int(capacity)
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._data: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key, default=None):
        with self._lock:
            try:
                value = self._data[key]
            except KeyError:
                self.misses += 1
                return default
            self._data.move_to_end(key)
            self.hits += 1
            return value

    def __setitem__(self, key, value) -> None:
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.capacity:
                self._data.popitem(last=False)
                self.evictions += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __contains__(self, key) -> bool:
        with self._lock:
            return key in self._data

    def clear(self) -> None:
        """Drop every entry (counters keep accumulating)."""
        with self._lock:
            self._data.clear()

    def stats_payload(self) -> dict:
        with self._lock:
            return {
                "entries": len(self._data),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }


@dataclass
class BatchResult:
    """Per-query stats and visitors plus batch-level throughput numbers."""

    stats: list[QueryStats] = field(default_factory=list)
    visitors: list[Visitor] = field(default_factory=list)
    wall_seconds: float = 0.0

    @property
    def num_queries(self) -> int:
        return len(self.stats)

    @property
    def results(self) -> list:
        """Each query's aggregate (visitor result), in input order."""
        return [visitor.result for visitor in self.visitors]

    @property
    def queries_per_second(self) -> float:
        """Aggregate throughput over the batch's wall time.

        Guarded against degenerate timing: an empty batch, or one so fast
        (or so coarsely clocked) that the measured wall time is zero or
        negative, reports ``0.0`` rather than raising or returning ``inf``.
        """
        if self.num_queries == 0 or self.wall_seconds <= 0.0:
            return 0.0
        return self.num_queries / self.wall_seconds

    @property
    def points_matched(self) -> int:
        return sum(s.points_matched for s in self.stats)

    @property
    def points_scanned(self) -> int:
        return sum(s.points_scanned for s in self.stats)

    def workload_result(self, index_name: str) -> WorkloadResult:
        """Adapt to the benchmark harness's per-workload statistics."""
        result = WorkloadResult(index_name)
        for stats in self.stats:
            result.add(stats)
        return result


class BatchQueryEngine:
    """Executes batches of queries against a built queryable index.

    Parameters
    ----------
    index:
        Any built index satisfying the queryable-index protocol
        (:mod:`repro.core.protocol`): a plain :class:`FloodIndex` (any
        ``flatten`` / ``refinement`` variant),
        :class:`~repro.core.shard.ShardedFloodIndex` — engine workers
        then parallelize across queries while each query's scan fans
        out across the shard pool (the pools are distinct and both
        bounded, so the combination cannot deadlock or oversubscribe
        unboundedly) — or a mutable
        :class:`~repro.core.delta.DeltaBufferedFlood`.
    workers:
        Worker threads for query-level parallelism. 1 (default) runs the
        batch on the calling thread; the enumeration cache is shared either
        way (a benign race may duplicate a cache fill under threads, never
        corrupt it, since entries are immutable once stored).
    executor:
        Optional externally-owned :class:`ThreadPoolExecutor` to dispatch
        worker jobs on (the serving layer shares one pool across batches).
        When given, ``workers`` only controls job chunking and the engine
        never shuts the pool down.
    backend:
        Optional scan-backend spec (``'serial'`` / ``'thread'`` /
        ``'process'`` or a :class:`~repro.core.backends.ScanBackend`)
        applied to the index's *intra-query* scans. Requires a
        :class:`~repro.core.shard.ShardedFloodIndex`; plain indexes have
        no shard fan-out to re-target. ``None`` (default) leaves the
        index's own backend untouched. With the process backend, engine
        worker threads submit to one bounded process pool, so the
        combination cannot oversubscribe unboundedly.
    kernel:
        Optional compiled scan-kernel spec (``'auto'`` / ``'numba'``)
        applied to the index via
        :meth:`FloodIndex.use_kernel`. ``None`` (default) leaves the
        index's own kernel configuration untouched.
    cache_entries:
        Enumeration-cache capacity (LRU; default 1024 entries). Hit,
        miss, and eviction counters are reachable through
        :meth:`cache_stats`.
    """

    def __init__(
        self,
        index,
        workers: int = 1,
        executor=None,
        backend=None,
        kernel=None,
        cache_entries: int = _MAX_CACHE_ENTRIES,
    ):
        # Anything satisfying the queryable-index protocol serves: plain,
        # sharded, or delta-buffered (raises BuildError when not built).
        require_queryable(index)
        if backend is not None:
            if not hasattr(index, "use_backend"):
                raise QueryError(
                    "backend= needs a ShardedFloodIndex; wrap the index first "
                    "(ShardedFloodIndex.wrap)"
                )
            index.use_backend(backend)
        if kernel is not None:
            if not hasattr(index, "use_kernel"):
                raise QueryError(
                    "kernel= needs an index with a fused-kernel tier "
                    "(FloodIndex or a wrapper forwarding use_kernel)"
                )
            index.use_kernel(kernel)
        self.index = index
        self.workers = max(1, int(workers))
        self.executor = executor
        self._enum_cache = LRUEnumCache(cache_entries)
        self._cache_table = index.table

    def clear_cache(self) -> None:
        """Drop the shared enumeration cache (e.g. after a workload shift)."""
        self._enum_cache.clear()

    def cache_stats(self) -> dict:
        """Enumeration-cache health: entries/capacity/hits/misses/evictions."""
        return self._enum_cache.stats_payload()

    def _check_cache_epoch(self) -> None:
        """Invalidate the enumeration cache when the clustered table moved.

        A mutable index (``DeltaBufferedFlood``) replaces its clustered
        table wholesale on every merge/re-layout; cached enumerations
        index the *old* table's cell starts and would silently scan the
        wrong rows. Buffered inserts never replace the table, so the
        identity check costs one pointer compare per batch and the cache
        stays hot under write load. (Benign under racing workers: the
        worst case is clearing an already-cleared cache.)
        """
        table = self.index.table
        if table is not self._cache_table:
            self._enum_cache.clear()
            self._cache_table = table

    @staticmethod
    def replay_stats(stats: QueryStats) -> QueryStats:
        """Cache-bypass hook: per-query stats for a result served *without*
        running the engine.

        The serving layer's :class:`~repro.serve.cache.ResultCache` stores
        the :class:`QueryStats` of the execution that populated an entry;
        every request answered from cache gets its own fresh copy through
        this hook, preserving the engine's contract that each query owns a
        private mutable stats object while keeping the counters identical
        to the uncached execution (the work the answer *represents*, even
        though a hit re-performs none of it).
        """
        return replace(stats)

    # ------------------------------------------------------------------- run
    def run(self, queries, visitor_factory=CountVisitor, visitors=None) -> BatchResult:
        """Execute ``queries``; one visitor + one QueryStats per query.

        Parameters
        ----------
        queries:
            Iterable of :class:`~repro.query.predicate.Query`.
        visitor_factory:
            Zero-argument callable producing a fresh visitor per query
            (default ``CountVisitor``); ignored when ``visitors`` is given.
        visitors:
            Optional pre-built visitor list aligned with ``queries`` — the
            serving batcher passes one, since requests in a micro-batch may
            ask for different aggregates.

        Returns
        -------
        :class:`BatchResult` with per-query stats and visitors in input
        order plus the batch's wall time.
        """
        queries = list(queries)
        self._check_cache_epoch()
        if visitors is None:
            visitors = [visitor_factory() for _ in queries]
        elif len(visitors) != len(queries):
            raise QueryError(
                f"{len(queries)} queries but {len(visitors)} visitors"
            )
        stats: list[QueryStats | None] = [None] * len(queries)
        wall_start = timed()
        if self.workers == 1 or len(queries) <= 1:
            for i, query in enumerate(queries):
                stats[i] = self._execute(query, visitors[i])
        else:
            # Chunked jobs: one dispatch per block, not per query, so pool
            # overhead stays negligible even for sub-millisecond queries.
            block = max(1, len(queries) // (self.workers * 4))
            blocks = range(0, len(queries), block)

            def job(first):
                for i in range(first, min(first + block, len(queries))):
                    stats[i] = self._execute(queries[i], visitors[i])

            if self.executor is not None:
                list(self.executor.map(job, blocks))
            else:
                with ThreadPoolExecutor(max_workers=self.workers) as pool:
                    list(pool.map(job, blocks))
        return BatchResult(
            stats=stats, visitors=visitors, wall_seconds=timed() - wall_start
        )

    def _execute(self, query, visitor) -> QueryStats:
        """One query through the vectorized pipeline, via the shared cache.

        The cache evicts inline (LRU, bounded at construction), so there
        is no trim pass here.
        """
        return self.index.query(query, visitor, enum_cache=self._enum_cache)
