#!/usr/bin/env python3
"""The repository benchmark: the paper pipeline and the matching service,
timed end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload paper-cold --seed 2021 \\
        --seconds 40 --trace 0

``--trace 0`` measures untraced passes and prints the end-to-end
metrics; ``--trace 1`` alternates untraced and traced passes and prints
the per-layer metrics (the traced passes also rebuild one Chrome trace
covering every workload traced so far). Every run sets up several
times (``setup_s`` is their median), repeats the measured pass until
``--seconds`` have elapsed (at least one pass), samples the reference
kernel (``reference.py``) between them to express their times in
reference seconds, checks the outputs, and prints one JSON object as
its last line::

    {"correct": true, "attempted": N, "failed": 0,
     "metrics": {"<name>": {"value": <number>, "unit": "<unit>"}, ...}}

A JSON line with the environment record precedes it; the same record,
the per-pass figures and the checks land in
``.perfbench/out/<workload>-seed<seed>-trace<0|1>.json``. See
``perfbench/README.md`` for the workloads, the metrics and what each
per-layer metric should move.
"""
from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

try:
    import numpy
    import repro  # noqa: F401
except ImportError as exc:
    print(f"perfbench: cannot import the program from "
          f"{os.path.join(ROOT, 'src')}: {exc}", file=sys.stderr)
    sys.exit(2)

from repro.io import atomic_write_json  # noqa: E402
from repro.obs import NULL_RECORDER, Recorder  # noqa: E402

import layers  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
import servicebench  # noqa: E402
from servicebench import quantile  # noqa: E402

#: set-ups per run; ``setup_s`` is their median
SETUPS = 5
#: the seed claims are developed on, and the one kept back to check them
DEV_SEED = 2021
HOLDOUT_SEED = 7919

#: every end-to-end metric, with its unit. Times are in reference
#: seconds (see ``reference.py``), except ``pipeline_s`` on a workload
#: whose work does not follow the host's speed. The service's latency,
#: rate and replay figures are per-layer metrics: on a shared host they
#: spread far past any bound a referee could use (see README.md)
END_TO_END = {
    "setup_s": "s",
    "pipeline_s": "s",
    "peak_rss_mb": "MB",
    "success_fraction": "fraction",
}


def _filesystem(path: str) -> str:
    """The type of the filesystem holding ``path`` (from /proc/mounts)."""
    path = os.path.realpath(path)
    best, fstype = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) < 3:
                    continue
                mount = parts[1]
                inside = path == mount or path.startswith(
                    mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, fstype = mount, parts[2]
    except OSError:
        pass
    return fstype


def environment(seed: int, work_dir: str) -> dict:
    cpus = os.cpu_count() or 1
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": cpus,
        # run_study's documented default: cpu count, capped at 8
        "workers": min(cpus, 8),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "seed": seed,
        "dev_seed": DEV_SEED,
        "holdout_seed": HOLDOUT_SEED,
        "wal_filesystem": _filesystem(work_dir),
    }


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _timed_pass(workload, recorder, samples: list[float]):
    """One pass, with a reference sample after it and another after the
    workload's after-pass work, so that the next pass too has a sample
    on either side."""
    start = time.perf_counter()
    result = workload.run_pass(recorder)
    result.wall_s = time.perf_counter() - start
    samples.append(reference.sample())
    result.work_ref_s = reference.scaled(result.work_s, samples[-2],
                                         samples[-1])
    workload.after_pass()
    samples.append(reference.sample())
    return result


def measure(workload, seconds: float, trace: bool):
    """Set up ``SETUPS`` times, then repeat passes for ``seconds``. With
    ``trace`` the passes alternate untraced / traced. Reference samples
    precede the first set-up and follow every set-up and pass. Returns
    the set-up times (seconds and reference seconds), the untraced and
    traced passes, the first traced pass's spans and the samples."""
    reference.sample()  # warms the kernel; not kept
    samples = [reference.sample()]
    setups, setups_ref = [], []
    for _ in range(SETUPS):
        start = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - start)
        samples.append(reference.sample())
        setups_ref.append(reference.scaled(setups[-1], samples[-2],
                                           samples[-1]))
    untraced, traced, spans = [], [], None
    deadline = time.perf_counter() + seconds
    while True:
        if trace and len(traced) < len(untraced):
            recorder = Recorder()
            result = _timed_pass(workload, recorder, samples)
            result.layers = layers.pass_layers(recorder, result.layers or {})
            traced.append(result)
            if spans is None:
                spans = recorder.spans
        else:
            untraced.append(_timed_pass(workload, NULL_RECORDER, samples))
        if time.perf_counter() >= deadline and (traced or not trace):
            break
    return setups, setups_ref, untraced, traced, spans, samples


def _latency_ms(passes, kind: str, q: float) -> float:
    """Median over every latency window of the run of the window's ``q``
    quantile (ms), so a slow stretch of the host cannot set the figure."""
    return _median([quantile(window, q) * 1e3 for p in passes
                    for window in servicebench.windows(getattr(p.offered,
                                                               kind))])


def end_to_end(workload, setups_ref, passes) -> dict:
    """Medians over the run, in reference seconds where the work follows
    the host's speed, so that speed cancels out."""
    return {
        "setup_s": _median(setups_ref),
        "pipeline_s": _median([p.work_ref_s if workload.work_follows_host
                               else p.work_s for p in passes]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        * 1024 / layers.MB,
    }


def service_figures(workload, passes) -> dict:
    """The open-loop figures of untraced passes: latency quantiles as
    medians over windows, the ladder walk's rate, the fastest replay."""
    fastest_replay = min(s for p in passes for s in p.recover_s)
    return {
        "service.ingest_p50_ms": _latency_ms(passes, "ingest_s", 0.50),
        "service.ingest_p99_ms": _latency_ms(passes, "ingest_s", 0.99),
        "service.lookup_p50_ms": _latency_ms(passes, "lookup_s", 0.50),
        "service.lookup_p99_ms": _latency_ms(passes, "lookup_s", 0.99),
        "service.max_rate_visits_per_s": workload.rate_search.estimate(),
        "service.replay_visits_per_s": passes[0].replayed / fastest_replay,
    }


def per_layer(workload, untraced, traced, samples) -> dict:
    rows = [p.layers for p in traced]
    values = {name: _median([row[name] for row in rows])
              for name in layers.PER_LAYER}
    if isinstance(workload, workloads.ServiceWorkload):
        values.update(service_figures(workload, untraced))
    values["obs.reference_s"] = statistics.fmean(samples)
    # the first pass also runs the once-per-run checks: it is left out
    # of the untraced side unless it is the only untraced pass
    values["obs.untraced_pass_s"] = _median(
        [p.wall_s for p in untraced[1:] or untraced])
    values["obs.tracing_overhead"] = (_median([p.wall_s for p in traced])
                                      / values["obs.untraced_pass_s"])
    return values


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEV_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(workloads.SCALES),
                        default="paper",
                        help="workload size (tiny: smoke tests only)")
    parser.add_argument("--work-dir",
                        default=os.path.join(ROOT, ".perfbench"),
                        help="scratch and output directory")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    work = os.path.join(args.work_dir, "work", args.workload)
    out_dir = os.path.join(args.work_dir, "out")
    os.makedirs(work, exist_ok=True)
    os.makedirs(out_dir, exist_ok=True)
    env = environment(args.seed, work)
    workload = workloads.make(args.workload, args.seed,
                              workloads.SCALES[args.scale], work)

    setups, setups_ref, untraced, traced, spans, samples = measure(
        workload, args.seconds, bool(args.trace))
    passes = untraced + traced
    checks = dict(workload.setup_checks)
    for index, result in enumerate(passes):
        for name, ok in result.checks.items():
            checks[f"{name}#{index}"] = ok
    if args.trace:
        problems = layers.write_trace(out_dir, args.workload, spans,
                                      workloads.WORKLOADS)
        checks["chrome_trace_valid"] = not problems

    attempted = sum(p.operations for p in passes) + len(checks)
    failed = sum(p.failed_operations for p in passes) \
        + sum(1 for ok in checks.values() if not ok)
    if args.trace:
        values = per_layer(workload, untraced, traced, samples)
        units = layers.PER_LAYER
    else:
        values = end_to_end(workload, setups_ref, untraced)
        values["success_fraction"] = (attempted - failed) / attempted
        units = END_TO_END
    metrics = {name: {"value": float(values[name]), "unit": unit}
               for name, unit in units.items()}
    result = {"correct": all(checks.values()), "attempted": attempted,
              "failed": failed, "metrics": metrics}

    record = {"workload": args.workload, "scale": args.scale,
              "trace": args.trace, "environment": env,
              "setup_s": setups, "setup_ref_s": setups_ref,
              "reference_s": samples,
              "passes": [{"work_s": p.work_s, "work_ref_s": p.work_ref_s,
                          "wall_s": p.wall_s,
                          "failed_operations": p.failed_operations}
                         for p in passes],
              "failed_checks": sorted(n for n, ok in checks.items() if not ok),
              "result": result}
    if isinstance(workload, workloads.ServiceWorkload):
        record["service"] = service_figures(workload, untraced)
        record["ladder_rungs_walked"] = [servicebench.LADDER[r] for r in
                                         workload.rate_search.walked]
        for row, p in zip(record["passes"], passes):
            row.update({
                "ingest_p99_ms": quantile(p.offered.ingest_s, 0.99) * 1e3,
                "lookup_p99_ms": quantile(p.offered.lookup_s, 0.99) * 1e3,
                "replay_s": p.recover_s,
                "generator_lag_p99_ms":
                    quantile(p.offered.lag_s, 0.99) * 1e3,
                "errors": p.offered.errors[:5]})
    atomic_write_json(os.path.join(
        out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
        record, indent=1)
    for child in multiprocessing.active_children():
        child.join(timeout=30)
    print(json.dumps({"environment": env, "passes": len(passes),
                      "failed_checks": record["failed_checks"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
