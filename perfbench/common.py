"""Shared plumbing for the repository benchmark: paths, statistics, the
numpy oracle, process memory readings, and the ``repro serve`` child.

Everything the benchmark writes lives under ``.bench_build/perfbench`` in
the checkout it runs from.
"""

from __future__ import annotations

import glob
import math
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_build", "perfbench")
#: The pinned cost-model cache (``REPRO_CACHE_DIR``): calibration is paid
#: once per checkout, before any timed region, never inside ``setup_s``.
CACHE_DIR = os.path.join(WORK, "cost-model")
#: Scheduling niceness of the ``repro serve`` child (see ServeProcess).
SERVER_NICE = 5


# ---------------------------------------------------------------- results
@dataclass
class Outcome:
    """What one workload run hands back to ``run.py``."""

    metrics: dict = field(default_factory=dict)  # name -> (value, unit)
    report: dict = field(default_factory=dict)  # human-readable extras
    attempted: int = 0
    failed: int = 0
    mismatches: list = field(default_factory=list)

    def put(self, name: str, value, unit: str) -> None:
        """Record one metric value with its unit."""
        self.metrics[name] = (float(value), unit)

    def check(self, ok: bool, what: str) -> None:
        """Record one correctness comparison; keep the first few misses."""
        if not ok and len(self.mismatches) < 20:
            self.mismatches.append(what)
        elif not ok:
            self.mismatches.append(None)

    @property
    def correct(self) -> bool:
        """True when no oracle comparison failed."""
        return not self.mismatches


def percentile(values, q: float) -> float:
    """The q-th percentile (0..100) of ``values``; 0.0 when empty."""
    if len(values) == 0:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def windowed(values, statistic, windows: int = 4) -> float:
    """Median over ``windows`` consecutive equal slices of time-ordered
    ``values`` of ``statistic(slice)``. The shared machine's speed drifts
    over seconds; a slow spell then moves one slice's value, not the
    reported median."""
    chunks = np.array_split(np.asarray(values, dtype=np.float64), windows)
    return float(np.median([statistic(chunk) for chunk in chunks]))


def mean(values) -> float:
    """Arithmetic mean; 0.0 when empty."""
    return float(sum(values) / len(values)) if len(values) else 0.0


def geomean(values) -> float:
    """Geometric mean of positive values."""
    return float(math.exp(sum(math.log(v) for v in values) / len(values)))


def ratio(num: float, den: float) -> float:
    """``num / den`` with 0.0 for an empty denominator."""
    return float(num) / float(den) if den else 0.0


# ----------------------------------------------------------------- oracle
class Oracle:
    """Brute-force COUNT/SUM answers from plain numpy columns.

    Shares no code with the index: each query picks its narrowest filtered
    dimension through a per-dimension argsort, then masks that slice on
    every other filtered dimension.
    """

    def __init__(self, columns: dict):
        self.columns = {d: np.asarray(v) for d, v in columns.items()}
        self._order = {}
        self._sorted = {}
        for dim, values in self.columns.items():
            order = np.argsort(values, kind="stable")
            self._order[dim] = order
            self._sorted[dim] = values[order]

    def answer(self, ranges: dict, agg: str, dim: str | None):
        """The exact COUNT or SUM(dim) over rows matching ``ranges``."""
        best = None
        for d, (low, high) in ranges.items():
            sorted_values = self._sorted[d]
            lo = int(np.searchsorted(sorted_values, low, "left"))
            hi = int(np.searchsorted(sorted_values, high, "right"))
            if best is None or hi - lo < best[2] - best[1]:
                best = (d, lo, hi)
        first, lo, hi = best
        rows = self._order[first][lo:hi]
        mask = np.ones(rows.size, dtype=bool)
        for d, (low, high) in ranges.items():
            if d != first:
                values = self.columns[d][rows]
                mask &= (values >= low) & (values <= high)
        if agg == "count":
            return int(np.count_nonzero(mask))
        return int(self.columns[dim][rows[mask]].sum())


def table_columns(table) -> dict:
    """A table's columns as a plain ``dim -> ndarray`` dict."""
    return {dim: np.asarray(table.values(dim)) for dim in table.dims}


# ----------------------------------------------------------------- memory
def _status_kb(pid, key: str) -> int:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith(key + ":"):
                return int(line.split()[1])
    return 0


def peak_rss_mb(pid="self") -> float:
    """Peak resident set size (VmHWM) of a process, in MiB."""
    return _status_kb(pid, "VmHWM") / 1024.0


def io_wchar(pid) -> int:
    """Bytes a process has passed to write calls (``/proc/<pid>/io``)."""
    with open(f"/proc/{pid}/io") as handle:
        for line in handle:
            if line.startswith("wchar:"):
                return int(line.split()[1])
    return 0


def dir_bytes(path: str) -> int:
    """Total size of the regular files under ``path``."""
    total = 0
    for base, _dirs, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(base, name))
    return total


# ------------------------------------------------------------ serve child
class ServeProcess:
    """One ``python -m repro serve`` child with a guaranteed teardown.

    ``start`` returns the set-up time: from spawning the process to its
    ``listening`` line. ``stop`` asks for a graceful shutdown, escalates
    to terminate/kill, waits for the exit, and unlinks any ``/dev/shm``
    segment the child left behind. Use it as a context manager.
    """

    def __init__(self, args: list[str], log_name: str):
        self.args = list(args)
        self.log_path = os.path.join(WORK, log_name)
        self.proc: subprocess.Popen | None = None
        self.port = 0

    def __enter__(self) -> "ServeProcess":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def start(self, timeout: float = 600.0) -> float:
        """Spawn the server; block until it listens. Returns seconds."""
        env = dict(os.environ, PYTHONPATH=SRC, REPRO_CACHE_DIR=CACHE_DIR)
        with open(self.log_path, "wb") as log:
            start = time.perf_counter()
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", *self.args],
                cwd=ROOT,
                env=env,
                stdout=log,
                stderr=subprocess.STDOUT,
                stdin=subprocess.DEVNULL,
            )
        # The load generator shares the machine's cores with the server;
        # a lower server priority keeps the generator on its schedule and
        # its timestamps honest. Set before the server starts its threads,
        # which inherit it; with nothing else runnable it costs the server
        # nothing.
        os.setpriority(os.PRIO_PROCESS, self.proc.pid, SERVER_NICE)
        marker = "repro-serve listening on "
        while True:
            with open(self.log_path, errors="replace") as log:
                text = log.read()
            if marker in text:
                elapsed = time.perf_counter() - start
                line = text.split(marker, 1)[1].splitlines()[0]
                self.port = int(line.rsplit(":", 1)[1])
                return elapsed
            if self.proc.poll() is not None:
                raise RuntimeError(f"repro serve exited early:\n{text[-2000:]}")
            if time.perf_counter() - start > timeout:
                raise RuntimeError("repro serve did not start in time")
            time.sleep(0.005)

    @property
    def pid(self) -> int:
        return self.proc.pid

    def stop(self) -> None:
        """Shut the child down and reap it (idempotent)."""
        proc, self.proc = self.proc, None
        if proc is None:
            return
        try:
            if proc.poll() is None and self.port:
                from repro.errors import QueryError
                from repro.serve.client import FloodClient

                try:
                    with FloodClient("127.0.0.1", self.port, timeout=10) as c:
                        c.shutdown()
                    proc.wait(timeout=30)
                except (OSError, QueryError, subprocess.TimeoutExpired):
                    pass
            if proc.poll() is None:
                proc.terminate()
                try:
                    proc.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    pass
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            for segment in glob.glob(f"/dev/shm/repro-{proc.pid}-*"):
                try:
                    os.unlink(segment)
                except OSError:
                    pass


def fresh_dir(name: str) -> str:
    """An empty directory under the benchmark's work area."""
    path = os.path.join(WORK, name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path
