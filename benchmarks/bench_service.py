#!/usr/bin/env python
"""Online matching-service benchmark: sustained throughput, overload
shedding, and crash-recovery replay speed.

Four phases over one seeded synthetic visit stream:

  sustained   ingest the full stream, then a lookup sweep — visits/s,
              lookups/s, p50/p99 lookup latency (recorder histograms)
  overload    offer 2x the queue capacity in concurrent bursts against
              a deliberately stalled consumer — the shed rate must be
              typed (every refused visit got an ``IngestShed``), and
              lookup p99 must stay bounded *while* shedding
  recovery    delete the snapshot and time a cold full-WAL replay —
              replayed visits/s, plus the byte-identity gate (replayed
              state == live state, byte for byte)
  gates       the incremental-vs-batch collation pin rechecked at bench
              scale

The JSON lands in ``BENCH_service.json`` and the regression sentinel
(``repro.obs.regress``) watches the scale-invariant rates/latencies.

Usage: PYTHONPATH=src python benchmarks/bench_service.py [--users N]
       [--iterations K] [--out PATH]
"""
from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import sys
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.join(os.path.dirname(_HERE), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro import Recorder, run_study  # noqa: E402
from repro.analysis.collation import collate_vector  # noqa: E402
from repro.obs import NULL_RECORDER  # noqa: E402
from repro.resilience import faults  # noqa: E402
from repro.service import (FingerprintService, IncrementalCollator,  # noqa: E402
                           IngestShed, ServiceConfig, visits_from_dataset)

VECTORS = ("dc", "fft")

#: acceptance floors — generous (smoke scale, shared CI machines), they
#: catch step-function regressions (an accidental O(n) lookup, a lost
#: group commit), not noise
MIN_INGEST_PER_S = 300.0
MIN_LOOKUPS_PER_S = 2_000.0
MAX_OVERLOAD_P99_MS = 250.0
MIN_REPLAY_PER_S = 1_000.0


def _service(directory, recorder=None, **config):
    return FingerprintService(
        directory, VECTORS, config=ServiceConfig(**config),
        recorder=recorder if recorder is not None else NULL_RECORDER)


def bench_sustained(directory, visits, users):
    recorder = Recorder()
    service = _service(directory, recorder, snapshot_every=512)

    async def go():
        await service.start()
        t0 = time.perf_counter()
        for visit in visits:
            await service.ingest(visit)
        ingest_wall = time.perf_counter() - t0
        sweep = [u for _ in range(10) for u in users]
        t0 = time.perf_counter()
        for user in sweep:
            await service.lookup(user)
        lookup_wall = time.perf_counter() - t0
        await service.stop()
        return ingest_wall, lookup_wall, len(sweep)
    ingest_wall, lookup_wall, lookups = asyncio.run(go())
    hist = recorder.histograms["service.lookup_latency_s"]
    return service, {
        "ingest_wall_s": round(ingest_wall, 4),
        "ingest_visits_per_s": round(len(visits) / ingest_wall, 1),
        "lookup_wall_s": round(lookup_wall, 4),
        "lookups_per_s": round(lookups / lookup_wall, 1),
        "lookup_p50_ms": round(hist.approx_quantile(0.5) * 1e3, 4),
        "lookup_p99_ms": round(hist.approx_quantile(0.99) * 1e3, 4),
        "deadline_misses": service.counts["lookup_deadline_misses"],
        "breaker_trips": service.breaker.trips,
    }


def bench_overload(directory, visits, users):
    """2x overload: bursts of 2*queue_limit concurrent ingests against a
    stalled consumer; lookups interleave with the shedding."""
    recorder = Recorder()
    queue_limit = 32
    service = _service(directory, recorder, queue_limit=queue_limit,
                       batch_max=8, snapshot_every=512)
    stall = {"s": 0.002}
    real_hook = faults.slow_consumer
    faults.slow_consumer = lambda: stall["s"]
    try:
        async def go():
            await service.start()
            offered = sheds = 0
            untyped = 0
            lookup_count = 0
            rounds = max(1, len(visits) // (2 * queue_limit))
            for r in range(rounds):
                burst = [visits[(r * 2 * queue_limit + i) % len(visits)]
                         for i in range(2 * queue_limit)]
                tasks = [asyncio.create_task(service.ingest(v))
                         for v in burst]
                for user in users[:8]:
                    await service.lookup(user)
                    lookup_count += 1
                results = await asyncio.gather(*tasks)
                offered += len(results)
                for result in results:
                    if isinstance(result, IngestShed):
                        sheds += 1
                        if result.reason not in ("queue_full",
                                                 "deadline_exceeded"):
                            untyped += 1
                    elif result is None:
                        untyped += 1
            stall["s"] = 0.0
            await service.stop()
            return offered, sheds, untyped, lookup_count
        offered, sheds, untyped, lookups = asyncio.run(go())
    finally:
        faults.slow_consumer = real_hook
    hist = recorder.histograms["service.lookup_latency_s"]
    return {
        "queue_limit": queue_limit,
        "offered": offered,
        "sheds": sheds,
        "shed_rate": round(sheds / offered, 4),
        "all_refusals_typed": untyped == 0,
        "lookups_during_overload": lookups,
        "lookup_p99_ms": round(hist.approx_quantile(0.99) * 1e3, 4),
    }


def bench_recovery(directory, live_bytes):
    """Cold full-WAL replay speed (snapshot removed) + byte identity."""
    snapshot = os.path.join(directory, "snapshot.json")
    if os.path.exists(snapshot):
        os.unlink(snapshot)
    service = FingerprintService(directory, VECTORS)
    t0 = time.perf_counter()
    info = service.recover()
    wall = time.perf_counter() - t0
    return {
        "replayed": info["replayed"],
        "replay_wall_s": round(wall, 4),
        "replay_visits_per_s": round(info["replayed"] / wall, 1),
        "byte_identical": service.state_bytes() == live_bytes,
    }


def check_batch_equivalence(dataset) -> bool:
    for vector in dataset.vectors:
        collator = IncrementalCollator(vector)
        for uid, series in dataset.iter_user_series(vector):
            for efp in series:
                collator.observe(uid, efp)
        batch = collate_vector(dataset, vector)
        want = {u: int(c) for u, c in batch.user_component_ids().items()}
        if collator.user_component_ids() != want:
            return False
    return True


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--users", type=int, default=150)
    parser.add_argument("--iterations", type=int, default=10)
    parser.add_argument("--seed", type=int, default=2021)
    parser.add_argument("--out", default=os.path.join(_HERE,
                                                      "BENCH_service.json"))
    parser.add_argument("--scratch", default=None,
                        help="service state directory (default: a temp dir)")
    args = parser.parse_args()

    import tempfile
    scratch = args.scratch or tempfile.mkdtemp(prefix="bench-service-")

    dataset = run_study(args.users, args.iterations, vectors=VECTORS,
                        seed=args.seed, workers=0)
    visits = visits_from_dataset(dataset, seed=args.seed, spoof_fraction=0.1,
                                 bot_fraction=0.05)
    users = dataset.user_ids()

    live, sustained = bench_sustained(os.path.join(scratch, "sustained"),
                                      visits, users)
    overload = bench_overload(os.path.join(scratch, "overload"), visits,
                              users)
    recovery = bench_recovery(os.path.join(scratch, "sustained"),
                              live.state_bytes())

    gates = {
        "incremental_matches_batch": check_batch_equivalence(dataset),
        "replay_byte_identical": recovery["byte_identical"],
        "overload_refusals_typed": overload["all_refusals_typed"],
        "ingest_floor_ok":
            sustained["ingest_visits_per_s"] >= MIN_INGEST_PER_S,
        "lookup_floor_ok": sustained["lookups_per_s"] >= MIN_LOOKUPS_PER_S,
        "overload_p99_bounded":
            overload["lookup_p99_ms"] <= MAX_OVERLOAD_P99_MS,
        "replay_floor_ok":
            recovery["replay_visits_per_s"] >= MIN_REPLAY_PER_S,
    }

    doc = {
        "benchmark": "bench_service",
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "workload": {
            "users": args.users,
            "iterations": args.iterations,
            "vectors": list(VECTORS),
            "visits": len(visits),
        },
        "sustained": sustained,
        "overload": overload,
        "recovery": {k: v for k, v in recovery.items()
                     if k != "byte_identical"},
        "detections": dict(live.state.detections),
        "gates": gates,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(json.dumps(doc, indent=1))

    failed = [name for name, ok in gates.items() if not ok]
    if failed:
        print(f"GATE FAILURES: {failed}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
