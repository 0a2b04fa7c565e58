"""Compiled scan kernels: residual filter + aggregate in one pass.

Flood's columnar scan (:func:`repro.storage.scan.columnar_scan`) decodes
a pass's filtered rows once per residual dim, builds one boolean mask
and hands the batch to the visitor. For the aggregates that dominate the
paper's workloads (COUNT/SUM/AVG/MIN/MAX, plus row collection) the
optional ``numba`` tier replaces the mask and the fold with one compiled
loop over the decoded values: ``@numba.njit(nogil=True, cache=True)``
loops compiled per dtype signature. ``nogil`` lets the thread backend's
shard scans run outside the GIL. numba is **never** a hard dependency; it
is an extras tag (``pip install repro[kernels]``) resolved at import
time. Without it, ``'auto'`` resolves to no tier and the numpy columnar
scan answers alone.

Dispatch rules (:func:`fused_kind`): the compiled path fires only for the
exact built-in mergeable visitor types (subclasses fall back — they may
override ``visit``), only for int64/float64 columns, and only when the
residual filter is non-empty (exact runs keep the cumulative fast path).
Anything else declines and the columnar scan answers — the fallback
guarantee is structural, not a mode.

Float caveat: SUM/AVG over float64 accumulate in a different order per
path (numpy pairwise vs. one sequential loop), so float sums agree to
~1e-9 relative tolerance rather than bit-for-bit; COUNT/MIN/MAX/collect
and all-int64 aggregates are bit-identical. MIN/MAX over a match set
containing NaN is NaN on every path (numpy semantics).
"""

from __future__ import annotations

import threading
import time

import numpy as np

from repro.errors import QueryError
from repro.storage.visitor import (
    AvgVisitor,
    CollectVisitor,
    CountVisitor,
    MaxVisitor,
    MinVisitor,
    SumVisitor,
    fold_max,
    fold_min,
)

#: Spec strings accepted by :func:`resolve_kernel` (and the CLIs).
KERNEL_NAMES = ("auto", "numba")

try:  # soft dependency: the columnar scan must work without numba installed
    from numba import njit as _njit

    _HAVE_NUMBA = True
except Exception:  # pragma: no cover - exercised on numba-less installs
    _HAVE_NUMBA = False


def numba_available() -> bool:
    """Whether the compiled tier can be used in this process."""
    return _HAVE_NUMBA


def resolve_kernel(spec: str | None) -> str | None:
    """Resolve a kernel spec to a concrete tier name, or None for the
    numpy columnar scan alone.

    ``'auto'`` picks ``'numba'`` when numba imports, else None; ``None``
    stays None. An explicit ``'numba'`` on an install without numba is a
    :class:`~repro.errors.QueryError` — silently degrading a tier the
    caller asked for by name would hide a 2x+ perf regression.
    """
    if spec is None:
        return None
    if spec not in KERNEL_NAMES:
        raise QueryError(
            f"unknown scan kernel {spec!r}; use one of {KERNEL_NAMES}"
        )
    if spec == "numba" and not _HAVE_NUMBA:
        raise QueryError(
            "the numba kernel tier needs numba installed "
            "(pip install repro[kernels]); use --kernel auto to scan "
            "without it"
        )
    return "numba" if _HAVE_NUMBA else None


# ------------------------------------------------------------- numba tier
# Compiled once per dtype signature, lazily on first call (or eagerly via
# warmup_kernels). All kernels take the residual filter split by dtype:
# ivals is a (k_int, n) int64 matrix with per-dim inclusive bounds
# ilo/ihi, fvals the float64 counterpart. Query bounds are always ints
# (Query coerces), so int dims compare exactly and float dims compare
# against exact float64 conversions — identical to numpy broadcasting.
# NaN never matches a bound check (`v >= lo` is False), same as numpy.

if _HAVE_NUMBA:

    @_njit(nogil=True, cache=True)
    def _nb_count(ivals, ilo, ihi, fvals, flo, fhi):
        matched = 0
        for j in range(ivals.shape[1]):
            ok = True
            for d in range(ivals.shape[0]):
                v = ivals[d, j]
                if v < ilo[d] or v > ihi[d]:
                    ok = False
                    break
            if ok:
                for d in range(fvals.shape[0]):
                    v = fvals[d, j]
                    if not (v >= flo[d] and v <= fhi[d]):
                        ok = False
                        break
            if ok:
                matched += 1
        return matched

    @_njit(nogil=True, cache=True)
    def _nb_sum_int(ivals, ilo, ihi, fvals, flo, fhi, agg):
        matched = 0
        total = 0
        for j in range(agg.shape[0]):
            ok = True
            for d in range(ivals.shape[0]):
                v = ivals[d, j]
                if v < ilo[d] or v > ihi[d]:
                    ok = False
                    break
            if ok:
                for d in range(fvals.shape[0]):
                    v = fvals[d, j]
                    if not (v >= flo[d] and v <= fhi[d]):
                        ok = False
                        break
            if ok:
                matched += 1
                total += agg[j]
        return matched, total

    @_njit(nogil=True, cache=True)
    def _nb_sum_float(ivals, ilo, ihi, fvals, flo, fhi, agg):
        matched = 0
        total = 0.0
        for j in range(agg.shape[0]):
            ok = True
            for d in range(ivals.shape[0]):
                v = ivals[d, j]
                if v < ilo[d] or v > ihi[d]:
                    ok = False
                    break
            if ok:
                for d in range(fvals.shape[0]):
                    v = fvals[d, j]
                    if not (v >= flo[d] and v <= fhi[d]):
                        ok = False
                        break
            if ok:
                matched += 1
                total += agg[j]
        return matched, total

    @_njit(nogil=True, cache=True)
    def _nb_minmax(ivals, ilo, ihi, fvals, flo, fhi, agg):
        # mn/mx are only meaningful when matched > 0; NaN aggregates are
        # tracked explicitly (comparisons against NaN are always False,
        # so a plain min/max loop would silently drop them).
        matched = 0
        has_nan = False
        first = True
        mn = agg[0]
        mx = agg[0]
        for j in range(agg.shape[0]):
            ok = True
            for d in range(ivals.shape[0]):
                v = ivals[d, j]
                if v < ilo[d] or v > ihi[d]:
                    ok = False
                    break
            if ok:
                for d in range(fvals.shape[0]):
                    v = fvals[d, j]
                    if not (v >= flo[d] and v <= fhi[d]):
                        ok = False
                        break
            if ok:
                matched += 1
                a = agg[j]
                if a != a:
                    has_nan = True
                elif first:
                    mn = a
                    mx = a
                    first = False
                else:
                    if a < mn:
                        mn = a
                    if a > mx:
                        mx = a
        return matched, mn, mx, has_nan

    @_njit(nogil=True, cache=True)
    def _nb_select(ivals, ilo, ihi, fvals, flo, fhi, out):
        # out is a caller-allocated int64[n]; the first `matched` slots
        # receive the *positions* (0-based within the batch) of matches.
        matched = 0
        for j in range(ivals.shape[1]):
            ok = True
            for d in range(ivals.shape[0]):
                v = ivals[d, j]
                if v < ilo[d] or v > ihi[d]:
                    ok = False
                    break
            if ok:
                for d in range(fvals.shape[0]):
                    v = fvals[d, j]
                    if not (v >= flo[d] and v <= fhi[d]):
                        ok = False
                        break
            if ok:
                out[matched] = j
                matched += 1
        return matched


#: Fused aggregate kind per *exact* visitor type. Subclasses deliberately
#: miss: they may override ``visit`` and must see every call.
_FUSED_KINDS = {
    CountVisitor: "count",
    SumVisitor: "sum",
    AvgVisitor: "avg",
    MinVisitor: "min",
    MaxVisitor: "max",
    CollectVisitor: "collect",
}

_SUPPORTED_DTYPES = (np.dtype(np.int64), np.dtype(np.float64))


def fused_kind(table, bounds, visitor) -> str | None:
    """The compiled aggregate that can answer ``visitor`` over ``bounds``
    (``'count'``, ``'sum'``, ...), or None when the columnar scan must.

    Declines non-built-in visitors (subclasses included), empty filters,
    a missing aggregate dim (the visitor raises as it would anyway) and
    any column that is not int64/float64 (probed on one row).
    """
    kind = _FUSED_KINDS.get(type(visitor))
    if kind is None or not bounds:
        return None
    dims = [dim for dim, _, _ in bounds]
    if kind not in ("count", "collect"):
        if visitor.dim not in table:
            return None
        dims.append(visitor.dim)
    for dim in dims:
        if table.values(dim, 0, 1).dtype not in _SUPPORTED_DTYPES:
            return None
    return kind


class ScanKernel:
    """The compiled tier's fused-scan entry point plus usage counters.

    One process-wide instance (:func:`get_kernel`); the counters feed the
    server's ``kernel`` stats block. Counter updates are locked — the
    thread backend drives one kernel from many shard workers at once.
    """

    __slots__ = ("tier", "fused_groups", "fused_rows", "_lock")

    def __init__(self, tier: str):
        if tier != "numba":
            raise QueryError(f"unknown resolved kernel tier {tier!r}")
        if not _HAVE_NUMBA:
            raise QueryError("numba kernel tier constructed without numba")
        self.tier = tier
        self.fused_groups = 0
        self.fused_rows = 0
        self._lock = threading.Lock()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ScanKernel(tier={self.tier!r}, fused_groups={self.fused_groups})"

    def stats_payload(self) -> dict:
        with self._lock:
            return {
                "fused_groups": self.fused_groups,
                "fused_rows": self.fused_rows,
            }

    def _count_fused(self, rows: int) -> None:
        with self._lock:
            self.fused_groups += 1
            self.fused_rows += rows

    # ------------------------------------------------------------ dispatch
    def fused_scan(self, batch, bounds, visitor) -> int | None:
        """Check ``batch.rows`` against ``bounds`` and fold the matches
        into ``visitor`` in one compiled pass.

        ``batch`` is the columnar scan's :class:`~repro.storage.scan.ScanBatch`
        and ``bounds`` the union of its runs' residual checks. Returns the
        match count, or None (visitor untouched) when :func:`fused_kind`
        declines.
        """
        kind = fused_kind(batch.table, bounds, visitor)
        if kind is None:
            return None
        filters = [(batch.values(dim), low, high) for dim, low, high in bounds]
        agg_values = (
            None if kind in ("count", "collect") else batch.values(visitor.dim)
        )
        matched = self._run_numba(filters, agg_values, batch, kind, visitor)
        self._count_fused(batch.size)
        return matched

    def _run_numba(self, filters, agg_values, batch, kind, visitor):
        total = batch.size
        int_rows, int_lo, int_hi = [], [], []
        flt_rows, flt_lo, flt_hi = [], [], []
        for values, low, high in filters:
            if values.dtype.kind == "f":
                flt_rows.append(values)
                flt_lo.append(low)
                flt_hi.append(high)
            else:
                int_rows.append(values)
                int_lo.append(low)
                int_hi.append(high)
        # Single-dim filters reshape to a (1, n) view; np.stack would copy.
        if len(int_rows) == 1:
            ivals = np.ascontiguousarray(int_rows[0]).reshape(1, -1)
        elif int_rows:
            ivals = np.stack(int_rows)
        else:
            ivals = np.empty((0, total), dtype=np.int64)
        ilo = np.asarray(int_lo, dtype=np.int64)
        ihi = np.asarray(int_hi, dtype=np.int64)
        if len(flt_rows) == 1:
            fvals = np.ascontiguousarray(flt_rows[0]).reshape(1, -1)
        elif flt_rows:
            fvals = np.stack(flt_rows)
        else:
            fvals = np.empty((0, total), dtype=np.float64)
        flo = np.asarray(flt_lo, dtype=np.float64)
        fhi = np.asarray(flt_hi, dtype=np.float64)
        if kind == "count":
            matched = int(_nb_count(ivals, ilo, ihi, fvals, flo, fhi))
            visitor.count += matched
        elif kind in ("sum", "avg"):
            if agg_values.dtype.kind == "f":
                matched, local = _nb_sum_float(
                    ivals, ilo, ihi, fvals, flo, fhi, agg_values
                )
                local = float(local)
            else:
                matched, local = _nb_sum_int(
                    ivals, ilo, ihi, fvals, flo, fhi, agg_values
                )
                local = int(local)
            matched = int(matched)
            if kind == "sum":
                if matched:
                    visitor.total += local
            else:
                if matched:
                    visitor._sum.total += local
                visitor._count.count += matched
        elif kind in ("min", "max"):
            matched, mn, mx, has_nan = _nb_minmax(
                ivals, ilo, ihi, fvals, flo, fhi, agg_values
            )
            matched = int(matched)
            if matched:
                if has_nan:
                    local = float("nan")
                elif agg_values.dtype.kind == "f":
                    local = float(mn if kind == "min" else mx)
                else:
                    local = int(mn if kind == "min" else mx)
                if kind == "min":
                    visitor._min = fold_min(visitor._min, local)
                else:
                    visitor._max = fold_max(visitor._max, local)
        else:  # collect
            out = np.empty(total, dtype=np.int64)
            matched = int(_nb_select(ivals, ilo, ihi, fvals, flo, fhi, out))
            if matched:
                visitor._chunks.append(batch.rows[out[:matched]])
        return matched


# ------------------------------------------------------------- singletons
_KERNELS: dict[str, ScanKernel] = {}
_KERNELS_LOCK = threading.Lock()

#: Last warm-up record, surfaced in the server's kernel stats block.
_WARMUP = {"tier": None, "seconds": 0.0}


def get_kernel(spec: str | None) -> ScanKernel | None:
    """The process-wide :class:`ScanKernel` singleton for ``spec`` (None
    when the spec resolves to the numpy columnar scan alone).

    Sharing one instance per tier keeps the usage counters global and
    shares the compiled dispatch cache across every index and backend in
    the process.
    """
    tier = resolve_kernel(spec)
    if tier is None:
        return None
    with _KERNELS_LOCK:
        kernel = _KERNELS.get(tier)
        if kernel is None:
            kernel = _KERNELS[tier] = ScanKernel(tier)
        return kernel


def warmup_kernels(kernel: str = "auto") -> dict:
    """Compile every fused kernel signature now, off the serving path.

    numba compiles lazily on first call — seconds of JIT work that must
    never land on a serving event loop (the loop-safety checker flags
    calls reachable from coroutines). ``repro serve`` calls this once at
    startup, before binding the socket. Without a compiled tier there is
    nothing to compile; warm-up is a no-op that still records the
    resolved tier (None).

    Returns ``{"tier": ..., "seconds": ...}`` (also surfaced in the
    server's ``kernel`` stats block).
    """
    tier = resolve_kernel(kernel)
    start = time.perf_counter()
    if tier == "numba":
        ivals = np.zeros((1, 2), dtype=np.int64)
        ibounds = np.zeros(1, dtype=np.int64), np.ones(1, dtype=np.int64)
        fvals = np.zeros((1, 2), dtype=np.float64)
        fbounds = np.zeros(1, dtype=np.float64), np.ones(1, dtype=np.float64)
        iagg = np.arange(2, dtype=np.int64)
        fagg = np.arange(2, dtype=np.float64)
        out = np.empty(2, dtype=np.int64)
        args = (ivals, *ibounds, fvals, *fbounds)
        _nb_count(*args)
        _nb_sum_int(*args, iagg)
        _nb_sum_float(*args, fagg)
        _nb_minmax(*args, iagg)
        _nb_minmax(*args, fagg)
        _nb_select(*args, out)
    seconds = time.perf_counter() - start
    _WARMUP["tier"] = tier
    _WARMUP["seconds"] = seconds
    return {"tier": tier, "seconds": seconds}


def stats_payload(tier: str | None = None) -> dict:
    """The ``kernel`` observability block (server stats op).

    ``tier`` is the serving index's resolved tier (``None`` when the
    numpy columnar scan answers alone). Per-tier counters cover every kernel used
    in this process — with the process scan backend, worker-side fusions
    count in the workers, so the per-query truth is
    ``QueryStats.kernel_groups``, not these process-local totals.
    """
    payload = {
        "tier": tier,
        "numba_available": numba_available(),
        "warmup_tier": _WARMUP["tier"],
        "warmup_seconds": _WARMUP["seconds"],
    }
    with _KERNELS_LOCK:
        kernels = dict(_KERNELS)
    payload["tiers"] = {
        name: kernel.stats_payload() for name, kernel in sorted(kernels.items())
    }
    return payload
