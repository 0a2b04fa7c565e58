"""Open-loop load over the JSON-lines wire protocol.

Arrivals are Poisson at a fixed rate, drawn from the workload seed. Each
request is timed from when it was *due*, so a stall also charges the
requests queued behind it, and the generator records how late it sent
each one (``lag``): a run whose generator fell behind is flagged rather
than reported as valid.
"""

from __future__ import annotations

import asyncio
import gc
import time
from dataclasses import dataclass, field

import numpy as np

from common import percentile, windowed
from repro.errors import QueryError

#: Generator lag (p99, ms) above which a rung's latencies are not valid.
GEN_LAG_LIMIT_MS = 10.0


@dataclass
class Rung:
    """One fixed-rate open-loop segment and what it observed."""

    rate: float
    sent: int = 0
    latencies: list = field(default_factory=list)  # seconds from due
    dues: list = field(default_factory=list)  # due time of each latency
    lags: list = field(default_factory=list)  # seconds late at send
    done_at: list = field(default_factory=list)  # completion times
    total_times: list = field(default_factory=list)  # (item index, TT s)
    backlog: int = 0  # requests still outstanding when the last was sent
    first_due: float = 0.0

    @property
    def lag_p99_ms(self) -> float:
        return percentile(self.lags, 99) * 1e3

    @property
    def valid(self) -> bool:
        """Whether the generator kept to its schedule."""
        return self.lag_p99_ms <= GEN_LAG_LIMIT_MS

    def p(self, q: float) -> float:
        """Latency percentile in milliseconds."""
        return percentile(self.latencies, q) * 1e3

    def windowed_p(self, q: float) -> float:
        """Latency percentile in ms, as the median over four spans of due
        time (see ``common.windowed``)."""
        order = np.argsort(self.dues)
        return windowed(np.asarray(self.latencies)[order],
                        lambda chunk: percentile(chunk, q)) * 1e3

    def completed_per_s(self) -> float:
        """Replies per second from the first due time to the last reply."""
        if not self.done_at:
            return 0.0
        return len(self.done_at) / (max(self.done_at) - self.first_due)


def quiet_gc() -> None:
    """Collect once and freeze the set-up's objects, so the collector's
    full passes over them do not stall the generator mid-schedule."""
    gc.collect()
    gc.freeze()


def arrivals(rng: np.random.Generator, rate: float, duration: float) -> np.ndarray:
    """Poisson arrival offsets (seconds) within ``[0, duration)``."""
    gaps = rng.exponential(1.0 / rate, size=int(rate * duration * 1.5) + 16)
    offsets = np.cumsum(gaps)
    return offsets[offsets < duration]


async def open_loop(clients, rate, offsets, items, first, out, tracer=None,
                    check=None) -> Rung:
    """Send ``items[first + i]`` at ``offsets[i]``, alternating clients.

    Every reply is checked with ``check(item, result)`` (default: equal to
    the item's expected answer); failures and refusals count in ``out``.
    """
    rung = Rung(rate)
    if check is None:
        def check(item, result):
            return result == item[3]

    async def one(i, client, item, due):
        sid = tracer.open("client.query", f"q{first + i}") if tracer else -1
        try:
            result, stats = await client.query(item[0].ranges, item[1], item[2])
        except QueryError as exc:
            out.failed += 1
            out.report.setdefault("first error", str(exc))
            return
        finally:
            if tracer:
                tracer.close(sid)
        done = time.perf_counter()
        rung.latencies.append(done - due)
        rung.dues.append(due)
        rung.done_at.append(done)
        rung.total_times.append((first + i, stats["total_time"]))
        out.check(check(item, result), f"served {item[0]!r} {item[1]} -> {result}")

    start = time.perf_counter() + 0.005
    rung.first_due = start
    tasks = []
    n = len(items)
    for i, offset in enumerate(offsets):
        due = start + float(offset)
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        rung.lags.append(max(0.0, time.perf_counter() - due))
        item = items[(first + i) % n]
        tasks.append(asyncio.get_running_loop().create_task(
            one(i, clients[i % len(clients)], item, due)))
    rung.sent = len(tasks)
    out.attempted += len(tasks)
    rung.backlog = sum(1 for task in tasks if not task.done())
    await asyncio.gather(*tasks)
    return rung


def closed_probe(port, items, clustered, out, tracer):
    """One request in flight: each item goes to the server, then to the
    in-process tuned Clustered baseline, so machine drift hits both sides.

    Returns ``(round trips s, served Flood TT s, Clustered TT s)`` lists.
    """
    from repro.serve.client import FloodClient
    from repro.serve.server import visitor_factory_for

    rtts, flood_tt, clustered_tt = [], [], []
    with FloodClient("127.0.0.1", port) as client:
        for i, (query, agg, dim, expected) in enumerate(items):
            sid = tracer.open("client.query", f"probe-{i}")
            start = time.perf_counter()
            result, stats = client.query(query.ranges, agg, dim)
            rtts.append(time.perf_counter() - start)
            tracer.close(sid)
            flood_tt.append(stats["total_time"])
            out.check(result == expected, f"probe {query!r} {agg}")
            visitor = visitor_factory_for(agg, dim)()
            clustered_tt.append(clustered.query(query, visitor).total_time)
            out.check(visitor.result == expected, f"clustered {query!r} {agg}")
    out.attempted += 2 * len(items)
    return rtts, flood_tt, clustered_tt
