#!/usr/bin/env python
"""Observability overhead benchmark: the disabled path must be ~free.

Three measurements, written to benchmarks/BENCH_obs_overhead.json:

  1. micro: the per-call cost of the NullRecorder's span/count/observe/
     event no-ops — the only thing a disabled study ever pays per
     phase — and of the live Recorder's, for contrast.
  2. end-to-end: the same seeded study run with observability off
     (null recorder) and on (Recorder + per-node profiling), with the
     off/on wall-clock ratio. Renders take the production fused path,
     so the baseline reflects the production render speed — a faster render makes any fixed recorder cost
     *relatively* larger, which is the honest denominator.
  3. events: the same instrumented study with a streaming JSONL event
     log attached, as a ratio over the instrumented run without one —
     the isolated cost of event-log emission (one json.dumps + write +
     flush per event).

Acceptance (the "near-zero overhead when disabled" budget): the null
span round-trip stays under 2 µs/op, the fully-instrumented study costs
at most 1.5x the disabled one, and attaching the event log costs at
most 1.05x the instrumented run (best of 3 each). The disabled path
does a strict subset of the instrumented path's work, so bounding the
*enabled* overhead transitively certifies the disabled path — without
the flakiness of comparing a run against itself on a noisy machine.

Usage: PYTHONPATH=src python benchmarks/bench_obs_overhead.py [--users N]
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.join(os.path.dirname(_HERE), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro import RenderCache, run_study  # noqa: E402
from repro.obs import NULL_RECORDER, Recorder  # noqa: E402

MICRO_OPS = 200_000
NULL_SPAN_BUDGET_US = 2.0
ENABLED_OVERHEAD_BUDGET = 1.5
EVENTS_OVERHEAD_BUDGET = 1.05


def _time_ops(recorder, ops: int) -> dict:
    t0 = time.perf_counter()
    for _ in range(ops):
        with recorder.span("s"):
            pass
    span_us = (time.perf_counter() - t0) / ops * 1e6

    t0 = time.perf_counter()
    for _ in range(ops):
        recorder.count("c")
    count_us = (time.perf_counter() - t0) / ops * 1e6

    t0 = time.perf_counter()
    for _ in range(ops):
        recorder.observe("h", 0.001)
    observe_us = (time.perf_counter() - t0) / ops * 1e6

    t0 = time.perf_counter()
    for _ in range(ops):
        recorder.event("study.start")
    event_us = (time.perf_counter() - t0) / ops * 1e6
    return {"span_us": round(span_us, 4), "count_us": round(count_us, 4),
            "observe_us": round(observe_us, 4),
            "event_us": round(event_us, 4)}


def _study_wall(recorder_factory, event_log: bool = False, **kwargs) -> float:
    best = float("inf")
    for trial in range(3):
        log_path = None
        if event_log:
            log_path = os.path.join(tempfile.mkdtemp(), "events.jsonl")
        t0 = time.perf_counter()
        run_study(cache=RenderCache(), recorder=recorder_factory(),
                  event_log_path=log_path, **kwargs)
        best = min(best, time.perf_counter() - t0)
    return best


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--users", type=int, default=40)
    parser.add_argument("--iterations", type=int, default=10)
    parser.add_argument("--seed", type=int, default=2021)
    parser.add_argument("--out",
                        default=os.path.join(_HERE, "BENCH_obs_overhead.json"))
    args = parser.parse_args()

    micro_null = _time_ops(NULL_RECORDER, MICRO_OPS)
    micro_live = _time_ops(Recorder(), MICRO_OPS)
    print(f"micro ({MICRO_OPS} ops): null span {micro_null['span_us']:.3f} µs/op, "
          f"live span {micro_live['span_us']:.3f} µs/op, "
          f"live event {micro_live['event_us']:.3f} µs/op")

    study = dict(user_count=args.users, iterations=args.iterations,
                 seed=args.seed, workers=0)
    off = _study_wall(lambda: None, **study)      # null recorder (the default)
    on = _study_wall(Recorder, **study)           # spans + timing + profiling
    logged = _study_wall(Recorder, event_log=True, **study)  # + JSONL stream
    enabled_ratio = on / off
    events_ratio = logged / on
    print(f"study off {off:.3f}s, on {on:.3f}s (x{enabled_ratio:.3f}), "
          f"on+events {logged:.3f}s (x{events_ratio:.3f} vs on)")

    result = {
        "benchmark": "bench_obs_overhead",
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "workload": {"users": args.users, "iterations": args.iterations,
                     "renders_off": "per distinct class"},
        "micro_us_per_op": {"null": micro_null, "recorder": micro_live,
                            "ops": MICRO_OPS},
        "study_wall_s": {"disabled": round(off, 4),
                         "enabled": round(on, 4),
                         "enabled_ratio": round(enabled_ratio, 4),
                         "enabled_events": round(logged, 4),
                         "events_ratio": round(events_ratio, 4)},
        "budgets": {"null_span_us": NULL_SPAN_BUDGET_US,
                    "enabled_overhead_ratio": ENABLED_OVERHEAD_BUDGET,
                    "events_overhead_ratio": EVENTS_OVERHEAD_BUDGET},
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    print(f"-> {args.out}")

    failures = []
    if micro_null["span_us"] > NULL_SPAN_BUDGET_US:
        failures.append(f"null span {micro_null['span_us']:.3f} µs/op "
                        f"> {NULL_SPAN_BUDGET_US} µs budget")
    if enabled_ratio > ENABLED_OVERHEAD_BUDGET:
        failures.append(f"enabled/disabled wall ratio {enabled_ratio:.3f} "
                        f"> {ENABLED_OVERHEAD_BUDGET}")
    if events_ratio > EVENTS_OVERHEAD_BUDGET:
        failures.append(f"event-log/instrumented wall ratio "
                        f"{events_ratio:.3f} > {EVENTS_OVERHEAD_BUDGET}")
    if failures:
        print("ACCEPTANCE FAILED: " + "; ".join(failures))
        return 1
    print("acceptance: disabled observability within budget  [ok]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
