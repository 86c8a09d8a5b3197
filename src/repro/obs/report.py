"""The machine-readable run report: build, validate, render, CLI.

A report is one JSON document describing where a study run spent its
time: top-level phase spans (plan/render/assemble), the full span list,
counters, per-vector latency histograms, cache statistics, the per-stack
hot-node profile, and pool utilization. ``run_study(report_path=...)``
writes one; CI schema-checks it with ``--check`` and uploads it as an
artifact; ``python -m repro.obs.report <path>`` renders it as tables.

The CLI dispatches on the document's ``kind``: run reports
(``repro.obs.report``) are handled here, analysis reports
(``repro.analysis.report``, written by ``python -m repro.analysis``) are
validated/rendered through ``repro.analysis.report`` — so one ``--check``
entry point gates every report artefact CI produces.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from .recorder import Histogram

REPORT_KIND = "repro.obs.report"
REPORT_FORMAT = 1

#: every study report must carry exactly these top-level phases
STUDY_PHASES = ("plan", "render", "assemble")


def build_report(recorder, workload: dict, cache_stats: dict | None = None,
                 pool: dict | None = None,
                 resilience: dict | None = None,
                 events_path: str | None = None) -> dict:
    """Assemble the report document from a recorder plus run context.

    ``resilience`` is the supervised-execution summary produced by
    ``run_study`` (``repro.resilience.SupervisedExecutor.summary()`` plus
    the checkpoint bookkeeping); its ``retry`` / ``degraded`` /
    ``checkpoint`` members become top-level report sections so dashboards
    and the CI schema check see recovery activity next to the latency
    data it perturbed.

    ``events_path`` names the JSONL event-log sidecar the run streamed
    its events to (see ``repro.obs.events``). The report embeds only the
    summary — count, per-kind tally, emitting pid — plus the sidecar
    path; ``--check`` re-reads the sidecar and refuses a report whose log
    lost events.
    """
    snapshot = recorder.snapshot()
    top_level = [s for s in snapshot["spans"] if s.get("parent") is None]
    top_level.sort(key=lambda s: s["start_s"])
    phases = [{"name": s["name"], "start_s": s["start_s"],
               "duration_s": s["duration_s"]} for s in top_level]
    resilience = resilience or {}
    events = None
    if snapshot.get("events"):
        kinds: dict[str, int] = {}
        for event in snapshot["events"]:
            kinds[event["kind"]] = kinds.get(event["kind"], 0) + 1
        events = {
            "path": events_path,
            "count": len(snapshot["events"]),
            "kinds": dict(sorted(kinds.items())),
            "pid": os.getpid(),
        }
    return {
        "kind": REPORT_KIND,
        "format": REPORT_FORMAT,
        "workload": dict(workload),
        "phases": phases,
        "spans": snapshot["spans"],
        "counters": snapshot["counters"],
        "histograms": snapshot["histograms"],
        "cache": dict(cache_stats) if cache_stats is not None else None,
        "node_profile": snapshot["node_profile"],
        "pool": dict(pool) if pool is not None else None,
        "retry": resilience.get("retry"),
        "degraded": resilience.get("degraded"),
        "checkpoint": resilience.get("checkpoint"),
        "events": events,
    }


# -- validation (the CI schema check) ----------------------------------------

def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def validate_report(payload, base_dir: str | None = None) -> list[str]:
    """Return the list of schema problems (empty == valid).

    ``base_dir`` anchors relative sidecar paths (the events JSONL named
    by the ``events`` section); the CLI passes the report's directory.
    Without it, relative sidecar paths resolve against the working
    directory.
    """
    problems: list[str] = []
    if not isinstance(payload, dict):
        return ["report is not a JSON object"]
    if payload.get("kind") != REPORT_KIND:
        problems.append(f"kind must be {REPORT_KIND!r}, got {payload.get('kind')!r}")
    if payload.get("format") != REPORT_FORMAT:
        problems.append(f"format must be {REPORT_FORMAT}, got {payload.get('format')!r}")
    for key in ("workload", "counters", "histograms", "node_profile"):
        if not isinstance(payload.get(key), dict):
            problems.append(f"{key} must be an object")

    phases = payload.get("phases")
    if not isinstance(phases, list) or not phases:
        problems.append("phases must be a non-empty array")
    else:
        names = set()
        for i, phase in enumerate(phases):
            if not isinstance(phase, dict) or not isinstance(phase.get("name"), str) \
                    or not _is_number(phase.get("duration_s")):
                problems.append(f"phases[{i}] must have a string name and numeric duration_s")
                continue
            names.add(phase["name"])
        missing = [p for p in STUDY_PHASES if p not in names]
        if missing:
            problems.append(f"phases missing {missing} (need all of {list(STUDY_PHASES)})")

    spans = payload.get("spans")
    if not isinstance(spans, list):
        problems.append("spans must be an array")

    if isinstance(payload.get("counters"), dict):
        for name, value in payload["counters"].items():
            if not _is_number(value):
                problems.append(f"counter {name!r} is not numeric")

    if isinstance(payload.get("histograms"), dict):
        for name, hist in payload["histograms"].items():
            if not isinstance(hist, dict) or not {"count", "sum", "buckets"} <= hist.keys():
                problems.append(f"histogram {name!r} missing count/sum/buckets")
            elif isinstance(hist["buckets"], dict):
                if sum(hist["buckets"].values()) != hist["count"]:
                    problems.append(f"histogram {name!r} bucket counts do not sum to count")
            else:
                problems.append(f"histogram {name!r} buckets must be an object")

    cache = payload.get("cache")
    if cache is not None:
        if not isinstance(cache, dict) or not {"hits", "misses"} <= cache.keys():
            problems.append("cache must be null or an object with hits/misses")

    # resilience contract: the supervised executor writes its summary both
    # as counters and as the retry/degraded/checkpoint sections — the two
    # views must agree, and recovery activity implies the sections exist
    counters = payload.get("counters")
    counters = counters if isinstance(counters, dict) else {}

    retry = payload.get("retry")
    if retry is None:
        if counters.get("retry.attempts"):
            problems.append("retry.* counters present but retry section missing")
    elif not isinstance(retry, dict):
        problems.append("retry must be null or an object")
    else:
        for field in ("attempts", "retries", "timeouts", "crashes",
                      "worker_errors", "corrupt_returns", "bisections"):
            if not _is_number(retry.get(field)):
                problems.append(f"retry.{field} must be numeric")
        quarantined = retry.get("quarantined")
        if not isinstance(quarantined, list) \
                or not all(isinstance(k, str) for k in quarantined):
            problems.append("retry.quarantined must be an array of class keys")
        elif len(quarantined) != counters.get("retry.quarantined", 0):
            problems.append("retry.quarantined length does not match "
                            "counter retry.quarantined")
        budget = retry.get("budget")
        if not isinstance(budget, dict) or not _is_number(budget.get("limit")) \
                or not _is_number(budget.get("spent")):
            problems.append("retry.budget must have numeric limit/spent")
        for field, counter in (("attempts", "retry.attempts"),
                               ("retries", "retry.retries"),
                               ("timeouts", "retry.timeouts"),
                               ("crashes", "retry.crashes"),
                               ("corrupt_returns", "retry.corrupt_returns"),
                               ("bisections", "retry.bisections")):
            if _is_number(retry.get(field)) \
                    and retry[field] != counters.get(counter, 0):
                problems.append(f"retry.{field} does not match counter {counter}")

    degraded = payload.get("degraded")
    if degraded is not None:
        if not isinstance(degraded, dict) \
                or not _is_number(degraded.get("pool_rebuilds")) \
                or not isinstance(degraded.get("inline_fallback"), bool):
            problems.append("degraded must have numeric pool_rebuilds and "
                            "boolean inline_fallback")
        elif degraded["pool_rebuilds"] != counters.get("degraded.pool_rebuilds", 0):
            problems.append("degraded.pool_rebuilds does not match counter "
                            "degraded.pool_rebuilds")

    checkpoint = payload.get("checkpoint")
    if checkpoint is not None:
        if not isinstance(checkpoint, dict) \
                or not isinstance(checkpoint.get("enabled"), bool):
            problems.append("checkpoint must have a boolean enabled flag")
        else:
            for field, counter in (("writes", "checkpoint.writes"),
                                   ("torn_writes", "checkpoint.torn_writes"),
                                   ("resumed_classes", "checkpoint.resumed_classes"),
                                   ("corrupt_recoveries", "checkpoint.corrupt")):
                if not _is_number(checkpoint.get(field)):
                    problems.append(f"checkpoint.{field} must be numeric")
                elif checkpoint[field] != counters.get(counter, 0):
                    problems.append(
                        f"checkpoint.{field} does not match counter {counter}")

    # events contract: the report's event summary and the JSONL sidecar
    # it points at must agree — a sidecar holding fewer events than the
    # report recorded means the log was truncated after the fact
    events = payload.get("events")
    if events is not None:
        if not isinstance(events, dict) or not _is_number(events.get("count")) \
                or not isinstance(events.get("kinds"), dict):
            problems.append("events must be null or an object with numeric "
                            "count and a kinds tally")
        else:
            if sum(events["kinds"].values()) != events["count"]:
                problems.append("events.kinds tally does not sum to "
                                "events.count")
            path = events.get("path")
            if isinstance(path, str):
                resolved = path if os.path.isabs(path) \
                    else os.path.join(base_dir or ".", path)
                # deferred import: reports without sidecars never pay it
                from .events import read_events
                try:
                    sidecar, side_problems = read_events(resolved)
                except FileNotFoundError:
                    sidecar, side_problems = None, []
                    problems.append(f"events sidecar missing at {resolved}")
                if sidecar is not None:
                    for problem in side_problems:
                        problems.append(f"events sidecar: {problem}")
                    if len(sidecar) < events["count"]:
                        problems.append(
                            f"events sidecar truncated: holds "
                            f"{len(sidecar)} of {events['count']} events")

    # batched-render contract: any run that counted batches must also have
    # recorded the batch-size histogram, and its observations must account
    # for every batch (the per-batch latency attribution rides on it)
    if isinstance(payload.get("counters"), dict) \
            and isinstance(payload.get("histograms"), dict):
        batches = payload["counters"].get("render.batches")
        if batches:
            batch_hist = payload["histograms"].get("render.batch_size")
            if not isinstance(batch_hist, dict):
                problems.append(
                    "render.batches counted but render.batch_size histogram missing")
            elif batch_hist.get("count") != batches:
                problems.append(
                    "render.batch_size histogram count does not equal render.batches")
            renders = payload["counters"].get("render.renders")
            if isinstance(batch_hist, dict) and _is_number(batch_hist.get("sum")) \
                    and _is_number(renders) and batch_hist["sum"] != renders:
                problems.append(
                    "render.batch_size histogram sum does not equal render.renders")

    if isinstance(payload.get("node_profile"), dict):
        for stack, nodes in payload["node_profile"].items():
            if not isinstance(nodes, dict):
                problems.append(f"node_profile[{stack!r}] must be an object")
                continue
            for label, entry in nodes.items():
                if not isinstance(entry, dict) or not _is_number(entry.get("seconds")) \
                        or not isinstance(entry.get("calls"), int):
                    problems.append(
                        f"node_profile[{stack!r}][{label!r}] must have numeric "
                        "seconds and integer calls")
    return problems


# -- human-readable rendering -------------------------------------------------

def _table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
              for i, h in enumerate(headers)]
    def fmt(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(r) for r in rows)
    return "\n".join(lines)


def _ms(seconds: float) -> str:
    return f"{seconds * 1e3:.3f}"


def _seconds_valued(name: str) -> bool:
    """Histograms named ``*_s`` (``pool.task_wall_s``,
    ``render.latency_s.dc``) observe seconds; the rest observe plain
    values such as ``render.batch_size`` rows."""
    return any(part.endswith("_s") for part in name.split("."))


def render_report(payload: dict) -> str:
    """Render a report dict as human-readable tables."""
    out: list[str] = []
    workload = payload.get("workload", {})
    out.append("== run report ==")
    out.append("workload: " + ", ".join(f"{k}={v}" for k, v in workload.items()))

    phases = payload.get("phases", [])
    total = sum(p["duration_s"] for p in phases) or 1.0
    out.append("")
    out.append("phases:")
    out.append(_table(
        ["phase", "wall_ms", "share"],
        [[p["name"], _ms(p["duration_s"]), f"{100 * p['duration_s'] / total:5.1f}%"]
         for p in phases]))

    cache = payload.get("cache")
    if cache:
        out.append("")
        out.append("cache: " + ", ".join(
            f"{k}={cache[k]}" for k in
            ("hits", "misses", "hit_rate", "entries", "evictions", "disk_loads")
            if k in cache))

    histograms = payload.get("histograms", {})
    for title, seconds, fmt, suffix in (
            ("latency histograms:", True, _ms, "_ms"),
            ("value histograms:", False, "{:.4g}".format, "")):
        names = [n for n in sorted(histograms)
                 if _seconds_valued(n) == seconds]
        if not names:
            continue
        rows = []
        for name in names:
            hist = Histogram.from_dict(histograms[name])
            rows.append([name, str(hist.count), fmt(hist.mean),
                         fmt(hist.approx_quantile(0.5)),
                         fmt(hist.approx_quantile(0.95)),
                         fmt(hist.max or 0.0)])
        out.append("")
        out.append(title)
        out.append(_table(["histogram", "n"] + [
            column + suffix for column in ("mean", "p50", "p95", "max")],
            rows))

    counters = payload.get("counters", {})
    if counters:
        out.append("")
        out.append("counters:")
        out.append(_table(["counter", "value"],
                          [[k, f"{v:g}"] for k, v in sorted(counters.items())]))

    node_profile = payload.get("node_profile", {})
    if node_profile:
        out.append("")
        out.append("hot nodes (per profiled stack):")
        for stack in sorted(node_profile):
            nodes = node_profile[stack]
            stack_total = sum(e["seconds"] for e in nodes.values()) or 1.0
            out.append(f"  stack {stack}")
            rows = [[label, _ms(entry["seconds"]), str(entry["calls"]),
                     f"{100 * entry['seconds'] / stack_total:5.1f}%"]
                    for label, entry in
                    sorted(nodes.items(), key=lambda kv: -kv[1]["seconds"])]
            table = _table(["node", "wall_ms", "calls", "share"], rows)
            out.extend("  " + line for line in table.splitlines())

    pool = payload.get("pool")
    if pool:
        out.append("")
        out.append("pool: " + ", ".join(f"{k}={v}" for k, v in pool.items()))

    events = payload.get("events")
    if events:
        out.append("")
        out.append(f"events: {events['count']} recorded"
                   + (f" -> {events['path']}" if events.get("path") else ""))
        out.append("  " + ", ".join(f"{kind}={n}"
                                    for kind, n in events["kinds"].items()))

    retry = payload.get("retry")
    if retry:
        out.append("")
        parts = [f"{k}={retry[k]}"
                 for k in ("attempts", "retries", "timeouts", "crashes",
                           "worker_errors", "corrupt_returns", "bisections")
                 if k in retry]
        budget = retry.get("budget") or {}
        parts.append(f"budget={budget.get('spent', 0)}/{budget.get('limit', 0)}")
        out.append("retry: " + ", ".join(parts))
        if retry.get("quarantined"):
            out.append("  quarantined: " + ", ".join(retry["quarantined"]))
    degraded = payload.get("degraded")
    if degraded:
        out.append("degraded: " + ", ".join(f"{k}={v}"
                                            for k, v in degraded.items()))
    checkpoint = payload.get("checkpoint")
    if checkpoint and checkpoint.get("enabled"):
        out.append("checkpoint: " + ", ".join(f"{k}={v}"
                                              for k, v in checkpoint.items()))
    out.append("")
    return "\n".join(out)


# -- CLI ----------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.report",
        description="Validate and pretty-print a repro report (run reports "
                    "and repro.analysis reports, dispatched on 'kind').")
    parser.add_argument("path", help="path to a report JSON file")
    parser.add_argument("--check", action="store_true",
                        help="schema-check only; print nothing on success")
    args = parser.parse_args(argv)

    try:
        with open(args.path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except FileNotFoundError:
        print(f"error: no report at {args.path}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: {args.path} is not valid JSON: {exc}", file=sys.stderr)
        return 2

    if isinstance(payload, dict) \
            and payload.get("kind") == "repro.analysis.report":
        # deferred import: obs stays analysis-free unless a report needs it
        from ..analysis.report import (render_analysis_report,
                                       validate_analysis_report)
        problems = validate_analysis_report(payload)
        if problems:
            print(f"error: {args.path} failed schema check:", file=sys.stderr)
            for problem in problems:
                print(f"  - {problem}", file=sys.stderr)
            return 2
        if not args.check:
            try:
                print(render_analysis_report(payload))
            except BrokenPipeError:  # e.g. piped into `head`
                sys.stderr.close()
        return 0

    if isinstance(payload, dict) \
            and payload.get("kind") == "repro.analysis.tables":
        from ..analysis.tables import (render_tables_report,
                                       validate_tables_report)
        problems = validate_tables_report(payload)
        if problems:
            print(f"error: {args.path} failed schema check:", file=sys.stderr)
            for problem in problems:
                print(f"  - {problem}", file=sys.stderr)
            return 2
        if not args.check:
            try:
                print(render_tables_report(payload))
            except BrokenPipeError:  # e.g. piped into `head`
                sys.stderr.close()
        return 0

    if isinstance(payload, dict) \
            and payload.get("kind") == "repro.analysis.shard_report":
        from ..analysis.shards import (render_shard_report,
                                       validate_shard_report)
        problems = validate_shard_report(payload)
        if problems:
            print(f"error: {args.path} failed schema check:", file=sys.stderr)
            for problem in problems:
                print(f"  - {problem}", file=sys.stderr)
            return 2
        if not args.check:
            try:
                print(render_shard_report(payload))
            except BrokenPipeError:  # e.g. piped into `head`
                sys.stderr.close()
        return 0

    problems = validate_report(payload,
                               base_dir=os.path.dirname(os.path.abspath(args.path)))
    if problems:
        print(f"error: {args.path} failed schema check:", file=sys.stderr)
        for problem in problems:
            print(f"  - {problem}", file=sys.stderr)
        return 2
    if not args.check:
        try:
            print(render_report(payload))
        except BrokenPipeError:  # e.g. piped into `head`
            sys.stderr.close()
    return 0


if __name__ == "__main__":  # pragma: no cover — exercised via CLI tests
    sys.exit(main())
