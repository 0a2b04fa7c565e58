"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload paper|serve-scan|serve-ingest \\
        --seed N --seconds S --trace 0|1

Run from the repository root. The program under test is imported from
``src/`` and served with ``python -m repro serve``; everything the
benchmark writes goes under ``.bench_build/perfbench``. Workloads:

``paper``
    The library path in process: Flood vs the tuned Clustered baseline on
    the four Table 2 datasets (see ``paper.py``).
``serve-scan``
    Read-only ``repro serve`` on tpch at 300k rows under an open-loop
    ladder of fixed Poisson rates (see ``serve_scan.py``).
``serve-ingest``
    Durable mutable serving: closed-loop single-row inserts plus an
    open-loop cached dashboard (see ``serve_ingest.py``).

``--trace 0`` measures the end-to-end metrics with tracing off and prints
them; ``--trace 1`` runs the workload's layers with spans and prints the
per-layer metrics, each layer's self time and the tracing overhead, and
writes the spans to ``.bench_build/perfbench/spans-<workload>.jsonl``.
The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit). Any reply that
differs from the benchmark's oracle makes ``correct`` false and the exit
code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from types import SimpleNamespace

#: The gated end-to-end metrics (BENCHMARK.json): every workload reports
#: them, and on a shared two-core machine whose speed drifts by a quarter
#: over tens of seconds they repeat across seeds within their bound. Every
#: other end-to-end metric a workload measures is printed by name with its
#: unit but left out of the JSON line, with the worst spread (quartile
#: distance over median, ten seeds) seen: ``query_p50_ms`` (0.30 on
#: serve-ingest), ``query_p99_ms`` (0.79 on serve-scan), ``query_qps``
#: (0.29 on serve-scan), ``peak_rss_mb`` (0.32 on serve-ingest),
#: ``failed_frac`` (0 in a healthy run; the JSON's ``failed`` and
#: ``attempted`` carry it) and the metrics only one workload has
#: (``slo_qps``, ``insert_*``, ``disk_bytes_per_user_byte``).
END_TO_END = {
    "setup_s": "s",
    "idle_p50_ms": "ms",
    "tt_vs_clustered": "x",
}

WORKLOADS = ("paper", "serve-scan", "serve-ingest")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _print_report(args, out, layer_names, tracer) -> None:
    print(f"== perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    for name, (value, unit) in out.metrics.items():
        print(f"  {name:28s} {value:14.6g} {unit}")
    for key, value in out.report.items():
        if key == "layers":
            continue
        if isinstance(value, dict):
            value = ", ".join(f"{k}={v}" for k, v in value.items())
        print(f"  {key}: {value}")
    print(f"  failed_frac: {out.failed / max(out.attempted, 1):.6g} "
          f"({out.failed} failed or refused of {out.attempted} attempted)")
    if tracer.enabled:
        print("  self time by span (count, total s, self s):")
        for name, (count, total, own) in sorted(tracer.self_times().items()):
            print(f"    {name:26s} {count:8d} {total:10.4f} {own:10.4f}")
        missing = [n for n in layer_names if n not in out.report["layers"]]
        if missing:
            print("  reported as 0, layer not exercised: " + ", ".join(missing))
    for miss in out.mismatches:
        if miss is not None:
            print(f"  MISMATCH {miss}")


def main(argv=None) -> int:
    args = _parse(argv)
    from common import CACHE_DIR, SRC, WORK

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(CACHE_DIR, exist_ok=True)
    os.environ["REPRO_CACHE_DIR"] = CACHE_DIR

    from layers import PER_LAYER
    from repro.bench.harness import default_cost_model
    from tracing import Tracer

    # Calibrate (or load the pinned model) before any timed region.
    start = time.perf_counter()
    cost_model = default_cost_model()
    print(f"cost model ready in {time.perf_counter() - start:.2f}s ({CACHE_DIR})")

    if args.workload == "paper":
        from paper import run
    elif args.workload == "serve-scan":
        from serve_scan import run
    else:
        from serve_ingest import run
    tracer = Tracer(bool(args.trace))
    ctx = SimpleNamespace(
        seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
        tracer=tracer, cost_model=cost_model,
    )
    out = run(ctx)

    if args.trace:
        layers = out.report["layers"]
        metrics = {
            name: {"value": float(layers.get(name, 0.0)), "unit": unit}
            for name, (unit, _better) in PER_LAYER.items()
        }
        out.metrics = {n: (m["value"], m["unit"]) for n, m in metrics.items()}
        tracer.write(os.path.join(WORK, f"spans-{args.workload}.jsonl"))
    else:
        missing = set(END_TO_END) - set(out.metrics)
        if missing:
            raise RuntimeError(f"workload did not report {sorted(missing)}")
        metrics = {
            name: {"value": out.metrics[name][0], "unit": unit}
            for name, unit in END_TO_END.items()
        }
    _print_report(args, out, PER_LAYER, tracer)
    print(json.dumps({
        "correct": out.correct,
        "attempted": int(out.attempted),
        "failed": int(out.failed),
        "metrics": metrics,
    }))
    return 0 if out.correct else 1


if __name__ == "__main__":
    sys.exit(main())
