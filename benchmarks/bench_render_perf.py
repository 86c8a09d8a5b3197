#!/usr/bin/env python
"""Render-performance benchmark: cache + batched rendering vs the honest
per-class baseline, on the same 100-user x 30-iteration x 3-vector
workload (9000 grid items).

Three timed configurations, all producing bit-identical datasets:

  baseline  cache disabled, ``study._MAX_BATCH`` pinned to 1 — one engine
            pass per grid item, one pool task per class: the pre-batching
            cost model.
  batched   cache disabled — misses grouped by (vector, stack) and
            rendered through the engine's batch axis, at the same worker
            count as the baseline. This isolates the batching win from
            the caching win.
  cached    cache enabled (default driver config) — the production path;
            instrumented with repro.obs, its run report lands in
            benchmarks/.cache/BENCH_render_report.json and feeds the
            "breakdown" section (phases, per-vector latency, batch sizes,
            hot nodes, pool utilization).

A worker-scaling sweep re-times the batched cold render at workers =
1, 2, 4, 8 so the pool threshold in repro.population.study
(``_POOL_GROUP_THRESHOLD``) and the group-count chunksize heuristic are
pinned to measurements, not folklore.

All of the above run on the 128-frame quantum loop: ``plan_segments`` is
stubbed to decline every graph, so the context takes its quantum-loop
fallback (forked pool workers inherit the stub). A fourth timed
configuration then re-runs the batched cold render on the production
render path:

  fused     cache disabled, planner restored — same workload, whole-buffer
            segment kernels instead of the quantum loop. Its dataset must
            equal the baseline's byte for byte (the fused path is pure
            cost control, never an identity).

Acceptance floor (asserted, so later PRs have a trajectory to beat):
>= 95% hit rate, cached speedup >= 10x, batched cold throughput >= 3x
the per-class baseline at equal workers, fused throughput >= 3x batched,
datasets bit-identical across every configuration.

Usage: PYTHONPATH=src python benchmarks/bench_render_perf.py [--users N]
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from contextlib import contextmanager

_HERE = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.join(os.path.dirname(_HERE), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro import RenderCache, run_study  # noqa: E402
from repro.obs import Histogram  # noqa: E402
from repro.population import study  # noqa: E402
from repro.webaudio import ENGINE_VERSION, context  # noqa: E402

VECTORS = ("dc", "fft", "hybrid")
SWEEP_WORKERS = (1, 2, 4, 8)


@contextmanager
def _patched(module, name, value):
    """Temporarily replace ``module.name``; forked pool workers inherit
    the replacement."""
    original = getattr(module, name)
    setattr(module, name, value)
    try:
        yield
    finally:
        setattr(module, name, original)


def _quantum_loop():
    """Every render on the quantum loop: the planner declines all graphs."""
    return _patched(context, "plan_segments", lambda nodes, destination: None)


def _breakdown(report: dict) -> dict:
    """Condense a repro.obs run report into the BENCH breakdown section."""
    latency = {}
    for name, payload in report["histograms"].items():
        prefix = "render.latency_s."
        if not name.startswith(prefix):
            continue
        hist = Histogram.from_dict(payload)
        latency[name[len(prefix):]] = {
            "renders": hist.count,
            "mean_ms": round(hist.mean * 1e3, 3),
            "p95_ms": round(hist.approx_quantile(0.95) * 1e3, 3),
            "max_ms": round((hist.max or 0.0) * 1e3, 3),
        }
    batch_sizes = None
    if "render.batch_size" in report["histograms"]:
        hist = Histogram.from_dict(report["histograms"]["render.batch_size"])
        batch_sizes = {
            "batches": hist.count,
            "renders": int(hist.total),
            "mean": round(hist.mean, 2),
            "max": hist.max,
        }
    batch_wall = {}
    for name, payload in report["histograms"].items():
        prefix = "render.batch_wall_s."
        if not name.startswith(prefix):
            continue
        hist = Histogram.from_dict(payload)
        batch_wall[name[len(prefix):]] = {
            "batches": hist.count,
            "mean_ms": round(hist.mean * 1e3, 3),
            "max_ms": round((hist.max or 0.0) * 1e3, 3),
        }
    hot: dict[str, dict] = {}
    for nodes in report["node_profile"].values():
        for label, entry in nodes.items():
            agg = hot.setdefault(label, {"seconds": 0.0, "calls": 0})
            agg["seconds"] += entry["seconds"]
            agg["calls"] += entry["calls"]
    hot_nodes = [
        {"node": label, "wall_ms": round(agg["seconds"] * 1e3, 3),
         "calls": agg["calls"]}
        for label, agg in sorted(hot.items(), key=lambda kv: -kv[1]["seconds"])
    ][:8]
    return {
        "phases": {p["name"]: round(p["duration_s"], 4)
                   for p in report["phases"]},
        "render_latency": latency,
        "batch_sizes": batch_sizes,
        "batch_wall": batch_wall,
        "hot_nodes": hot_nodes,
        "pool": report["pool"],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--users", type=int, default=100)
    parser.add_argument("--iterations", type=int, default=30)
    parser.add_argument("--seed", type=int, default=2021)
    parser.add_argument("--workers", type=int, default=None,
                        help="process-pool size (default: auto)")
    parser.add_argument("--skip-sweep", action="store_true",
                        help="skip the worker-scaling sweep")
    parser.add_argument("--out", default=os.path.join(_HERE, "BENCH_render.json"))
    args = parser.parse_args()

    grid_items = args.users * args.iterations * len(VECTORS)
    common = dict(user_count=args.users, iterations=args.iterations,
                  vectors=VECTORS, seed=args.seed, workers=args.workers)

    print(f"workload: {args.users} users x {args.iterations} iterations "
          f"x {len(VECTORS)} vectors = {grid_items} grid items")

    report_path = os.path.join(_HERE, ".cache", "BENCH_render_report.json")
    os.makedirs(os.path.dirname(report_path), exist_ok=True)

    with _quantum_loop():
        cache = RenderCache()
        t0 = time.perf_counter()
        cached_dataset = run_study(cache=cache, report_path=report_path,
                                   **common)
        cached_wall = time.perf_counter() - t0
        stats = cache.stats()
        distinct_classes = stats["entries"]
        print(f"cached run:   {cached_wall:8.2f}s  "
              f"({distinct_classes} classes rendered, "
              f"hit rate {stats['hit_rate']:.4f})")

        t0 = time.perf_counter()
        batched_dataset = run_study(cache=RenderCache(disabled=True), **common)
        batched_wall = time.perf_counter() - t0
        print(f"batched run:  {batched_wall:8.2f}s  ({grid_items} renders, "
              f"batch axis, cache disabled)")

        with _patched(study, "_MAX_BATCH", 1):
            t0 = time.perf_counter()
            baseline_dataset = run_study(cache=RenderCache(disabled=True),
                                         **common)
            baseline_wall = time.perf_counter() - t0
        print(f"baseline run: {baseline_wall:8.2f}s  ({grid_items} renders, "
              f"per-class, cache disabled)")

        bit_identical = (cached_dataset == baseline_dataset == batched_dataset)
        if not bit_identical:
            print("FATAL: datasets differ between configurations")
            return 1

        sweep = []
        if not args.skip_sweep:
            print("worker sweep (batched, cache disabled):")
            for workers in SWEEP_WORKERS:
                sweep_common = dict(common, workers=workers)
                t0 = time.perf_counter()
                sweep_dataset = run_study(cache=RenderCache(disabled=True),
                                          **sweep_common)
                wall = time.perf_counter() - t0
                ok = sweep_dataset == baseline_dataset
                sweep.append({
                    "workers": workers,
                    "wall_s": round(wall, 4),
                    "renders_per_s": round(grid_items / wall, 2),
                    "bit_identical": ok,
                })
                print(f"  workers={workers}:  {wall:8.2f}s  "
                      f"({grid_items / wall:7.1f} renders/s)"
                      + ("" if ok else "  DATASET MISMATCH"))
                if not ok:
                    print("FATAL: sweep dataset differs from baseline dataset")
                    return 1

    t0 = time.perf_counter()
    fused_dataset = run_study(cache=RenderCache(disabled=True), **common)
    fused_wall = time.perf_counter() - t0
    fused_identical = fused_dataset == baseline_dataset
    fused_speedup = batched_wall / fused_wall
    print(f"fused run:    {fused_wall:8.2f}s  ({grid_items} renders, "
          f"whole-buffer kernels, {fused_speedup:.2f}x batched)"
          + ("" if fused_identical else "  DATASET MISMATCH"))
    if not fused_identical:
        print("FATAL: fused dataset differs from baseline dataset")
        return 1

    batching_speedup = baseline_wall / batched_wall
    cache_speedup = baseline_wall / cached_wall
    result = {
        "benchmark": "bench_render_perf",
        "engine_version": ENGINE_VERSION,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "workload": {
            "users": args.users,
            "iterations": args.iterations,
            "vectors": list(VECTORS),
            "grid_items": grid_items,
        },
        "cached": {
            "wall_s": round(cached_wall, 4),
            "distinct_classes": distinct_classes,
            "hit_rate": round(stats["hit_rate"], 6),
            "renders_performed": distinct_classes,
            "grid_items_per_s": round(grid_items / cached_wall, 2),
        },
        "batched": {
            "wall_s": round(batched_wall, 4),
            "renders_performed": grid_items,
            "renders_per_s": round(grid_items / batched_wall, 2),
            "max_batch": study._MAX_BATCH,
        },
        "baseline": {
            "wall_s": round(baseline_wall, 4),
            "renders_performed": grid_items,
            "renders_per_s": round(grid_items / baseline_wall, 2),
        },
        "fused": {
            "wall_s": round(fused_wall, 4),
            "renders_performed": grid_items,
            "renders_per_s": round(grid_items / fused_wall, 2),
            "speedup_vs_batched": round(fused_speedup, 2),
            "bit_identical": fused_identical,
        },
        "speedup": round(cache_speedup, 2),
        "batching_speedup": round(batching_speedup, 2),
        "datasets_bit_identical": bit_identical,
        "pool_thresholds": {
            "batch_groups": study._POOL_GROUP_THRESHOLD,
            "note": "pool engages at >= this many batch-group jobs; the "
                    "worker sweep below measures where extra workers "
                    "actually pay off on this machine",
        },
        "worker_sweep": sweep,
    }
    with open(report_path, "r", encoding="utf-8") as fh:
        run_report = json.load(fh)
    result["breakdown"] = _breakdown(run_report)
    result["breakdown"]["report_path"] = os.path.relpath(report_path, _HERE)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    print(f"cache speedup: {cache_speedup:.1f}x  "
          f"batching speedup: {batching_speedup:.1f}x  ->  {args.out}")

    failures = []
    if stats["hit_rate"] < 0.95:
        failures.append(f"hit rate {stats['hit_rate']:.4f} < 0.95")
    if cache_speedup < 10.0:
        failures.append(f"cache speedup {cache_speedup:.1f}x < 10x")
    if batching_speedup < 3.0:
        failures.append(f"batching speedup {batching_speedup:.1f}x < 3x")
    if fused_speedup < 3.0:
        failures.append(f"fused speedup {fused_speedup:.1f}x < 3x batched")
    if failures:
        print("ACCEPTANCE FAILED: " + "; ".join(failures))
        return 1
    print("acceptance: hit rate >= 0.95, cache speedup >= 10x, "
          "batching speedup >= 3x, fused speedup >= 3x batched  [ok]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
