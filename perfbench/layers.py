"""Per-layer metrics of a traced pass, layer self time, and the Chrome
trace.

A traced pass records into one ``repro.obs.Recorder``: the benchmark's
own spans around each call into a layer (``population.run_study``,
``analysis.collate``, ``service.open_loop``, ``checks.*`` ...) under one
root ``pass`` span, plus the spans, counters and events the program
already records through its public ``recorder=`` argument (``plan``,
``probe``, ``render``, ``assemble``, ``collate``, ``tables`` ...).

Counts are derived here, at the benchmark's boundary, and every ratio
names its base:

* cache lookups are ``RenderCache.stats()`` hit+miss deltas over the
  study call (``hit_rate`` is not used);
* retries are ``retry.attempts - pool.jobs``, because ``retry.attempts``
  also counts each job's first attempt;
* rows per batch are ``render.renders / render.batches`` (the
  ``render.batch_size`` histogram carries no unit).
"""
from __future__ import annotations

import json
import os

from repro.io import atomic_write_json
from repro.obs.trace import build_trace, validate_trace
from repro.vectors import FULL_BATTERY

from servicebench import quantile

#: every per-layer metric, in print order, with its unit
PER_LAYER = {
    "population.run_study_s": "s",
    "population.save_s": "s",
    "population.load_s": "s",
    "population.dataset_mb": "MB",
    "population.plan_s": "s",
    "population.probe_s": "s",
    "population.render_s": "s",
    "population.assemble_s": "s",
    "population.cache_lookups": "count",
    "population.cache_lookups_per_class": "lookups/class",
    "population.grid_items": "count",
    "population.distinct_classes": "count",
    "webaudio.renders": "count",
    "webaudio.batches": "count",
    "webaudio.rows_per_batch": "rows/batch",
    "webaudio.renders_per_s": "renders/s",
    **{f"vectors.{name}.render_s": "s" for name in FULL_BATTERY},
    "resilience.pool_jobs": "count",
    "resilience.retries": "count",
    "resilience.pool_utilization": "fraction",
    "analysis.collate_s": "s",
    "analysis.report_s": "s",
    "analysis.tables_s": "s",
    "analysis.validate_s": "s",
    "analysis.efps": "count",
    "service.commits": "count",
    "service.visits_per_commit": "visits/commit",
    "service.snapshot_writes": "count",
    "service.wal_mb": "MB",
    "service.snapshot_mb": "MB",
    "service.recover_s": "s",
    "service.sheds": "count",
    "service.lookups_degraded": "count",
    "service.breaker_trips": "count",
    "service.ingest_calls": "count",
    "service.lookup_calls": "count",
    "service.generator_lag_p99_ms": "ms",
    "service.ingest_p50_ms": "ms",
    "service.ingest_p99_ms": "ms",
    "service.lookup_p50_ms": "ms",
    "service.lookup_p99_ms": "ms",
    "service.max_rate_visits_per_s": "visits/s",
    "service.replay_visits_per_s": "visits/s",
    "obs.tracing_overhead": "ratio",
    "obs.traced_pass_s": "s",
    "obs.untraced_pass_s": "s",
    "obs.reference_s": "s",
    "self.population_s": "s",
    "self.webaudio_s": "s",
    "self.analysis_s": "s",
    "self.service_s": "s",
    "self.checks_s": "s",
    "self.bench_s": "s",
}

#: the layer each of the program's own span names belongs to; the
#: benchmark's spans name their layer before the first dot, and the root
#: ``pass`` span is the benchmark's own (``bench``)
_PROGRAM_SPANS = {"plan": "population", "probe": "population",
                  "assemble": "population", "render": "webaudio",
                  "collate": "analysis", "entropy": "analysis",
                  "combine": "analysis", "tables": "analysis"}
LAYERS = ("population", "webaudio", "analysis", "service", "checks", "bench")

MB = 1e6


def _layer(name: str) -> str:
    if name in _PROGRAM_SPANS:
        return _PROGRAM_SPANS[name]
    prefix = name.split(".", 1)[0]
    return prefix if prefix in LAYERS and "." in name else "bench"


def self_times(spans: list[dict]) -> dict[str, float]:
    """Seconds per layer spent in a span of that layer and in none of its
    children. They sum to the root spans' total duration."""
    covered: dict[int, float] = {}
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] = covered.get(span["parent"], 0.0) \
                + span["duration_s"]
    totals = dict.fromkeys(LAYERS, 0.0)
    for span in spans:
        own = span["duration_s"] - covered.get(span["id"], 0.0)
        totals[_layer(span["name"])] += own
    return totals


def _total(spans, name: str) -> float:
    return sum(s["duration_s"] for s in spans if s["name"] == name)


def _ratio(numerator: float, base: float) -> float:
    return numerator / base if base else 0.0


def study_layers(recorder, cache_lookups: int, dataset_bytes: int,
                 run_report: dict) -> dict:
    """The population / webaudio / vectors / resilience / analysis
    metrics of one traced paper pass."""
    spans, counters = recorder.spans, recorder.counters
    plan = next(s for s in spans if s["name"] == "plan")
    classes = plan["attrs"]["distinct_classes"]
    probe_s = _total(spans, "probe")
    render_s = _total(spans, "render") - probe_s
    renders = counters.get("render.renders", 0)
    batches = counters.get("render.batches", 0)
    jobs = counters.get("pool.jobs", 0)
    out = {
        "population.run_study_s": _total(spans, "population.run_study"),
        "population.save_s": _total(spans, "population.save"),
        "population.load_s": _total(spans, "population.load"),
        "population.dataset_mb": dataset_bytes / MB,
        "population.plan_s": plan["duration_s"],
        "population.probe_s": probe_s,
        "population.render_s": render_s,
        "population.assemble_s": _total(spans, "assemble"),
        "population.cache_lookups": cache_lookups,
        "population.cache_lookups_per_class": _ratio(cache_lookups, classes),
        "population.grid_items": plan["attrs"]["grid_items"],
        "population.distinct_classes": classes,
        "webaudio.renders": renders,
        "webaudio.batches": batches,
        "webaudio.rows_per_batch": _ratio(renders, batches),
        "webaudio.renders_per_s": _ratio(renders, render_s),
        "resilience.pool_jobs": jobs,
        "resilience.retries": counters.get("retry.attempts", 0) - jobs,
        "resilience.pool_utilization":
            (run_report.get("pool") or {}).get("utilization") or 0.0,
        "analysis.collate_s": _total(spans, "analysis.collate"),
        "analysis.report_s": _total(spans, "analysis.report"),
        "analysis.tables_s": _total(spans, "analysis.tables"),
        "analysis.validate_s": _total(spans, "analysis.validate"),
        "analysis.efps": counters.get("collation.efps", 0),
    }
    for name in FULL_BATTERY:
        hist = recorder.histograms.get(f"render.batch_wall_s.{name}")
        out[f"vectors.{name}.render_s"] = hist.total if hist else 0.0
    return out


def service_layers(recorder, service, offered, recover_s: float,
                   wal_bytes: int, snapshot_bytes: int) -> dict:
    """The service metrics of one traced open-loop stream."""
    sizes = [e["size"] for e in recorder.events if e["kind"] == "ingest.batch"]
    counts = service.counts
    return {
        "service.commits": len(sizes),
        "service.visits_per_commit": _ratio(sum(sizes), len(sizes)),
        "service.snapshot_writes": counts["snapshot_writes"],
        "service.wal_mb": wal_bytes / MB,
        "service.snapshot_mb": snapshot_bytes / MB,
        "service.recover_s": recover_s,
        "service.sheds": counts["shed_queue_full"] + counts["shed_deadline"]
        + counts["shed_stopping"],
        "service.lookups_degraded": counts["lookups_degraded"],
        "service.breaker_trips": service.breaker.trips,
        "service.ingest_calls": len(offered.ingest_s),
        "service.lookup_calls": counts["lookups"],
        "service.generator_lag_p99_ms": quantile(offered.lag_s, 0.99) * 1e3,
    }


def pass_layers(recorder, measured: dict) -> dict:
    """All per-layer metrics of one traced pass: ``measured`` holds what
    the pass's layers reported; layers it left idle read 0."""
    out = dict.fromkeys(PER_LAYER, 0.0)
    out.update(measured)
    selves = self_times(recorder.spans)
    for layer, seconds in selves.items():
        out[f"self.{layer}_s"] = seconds
    out["obs.traced_pass_s"] = sum(selves.values())
    return out


def write_trace(out_dir: str, workload: str, spans: list[dict],
                workloads) -> list[str]:
    """Store this workload's spans, then rebuild one Chrome trace from
    the spans of every workload traced so far in ``out_dir`` (laid end to
    end on one timeline) and validate it. Returns the problems found."""
    os.makedirs(out_dir, exist_ok=True)
    atomic_write_json(os.path.join(out_dir, f"spans-{workload}.json"), spans)
    combined, offset = [], 0.0
    for name in workloads:
        path = os.path.join(out_dir, f"spans-{name}.json")
        if not os.path.exists(path):
            continue
        with open(path, encoding="utf-8") as fh:
            part = json.load(fh)
        for span in part:
            combined.append(dict(span, start_s=span["start_s"] + offset))
        offset = max((s["start_s"] + s["duration_s"] for s in combined),
                     default=offset) + 0.001
    trace = build_trace(spans=combined)
    problems = validate_trace(trace)
    atomic_write_json(os.path.join(out_dir, "trace.json"), trace)
    return problems
