"""Sharded, streaming studies: million-user scale under bounded memory.

``run_study`` materializes the whole grid and dataset in RAM — fine at
the paper's 2,093 users, not at the north star's millions. This module
partitions the population into deterministic, independently seeded
shards and renders them one at a time through the exact machinery the
monolithic driver uses (`_plan` / `_render_phase` — supervision,
retry, bisection, checkpoint-resume, chaos hooks all included), then
streams each shard's per-user series to disk instead of holding them:

  shard_<start>_<stop>.jsonl           one compact JSON record per user
  shard_<start>_<stop>.manifest.json   the commit point: study
                                       fingerprint, shard range,
                                       ENGINE_VERSION, byte count,
                                       record count, sha256 of the data

Peak RSS is O(shard_size + distinct classes), independent of the total
user count — the render cache is shared across shards, so the classes a
later shard needs are almost always already rendered.

Determinism is the load-bearing property: population sampling and
per-user jitter streams are both seeded by *global user index*
(``sample_population_slice`` / ``_plan(first_index=...)``), so a shard
renders exactly the series the monolithic run would produce for those
users, bit for bit, regardless of how the population is partitioned.
The analysis layer exploits this: per-shard mergeable reports
(``repro.analysis.shards``) merge to the byte-identical analysis report
the monolithic path emits — ``benchmarks/bench_shard_scale.py`` gates
both the RSS bound and that bit-identity.

Crash safety: each shard's data file is written through the atomic
chunk writer (complete file or no file), and the manifest is written
*after* the data — a manifest on disk is proof its shard is complete
and hashed. Mid-shard crashes resume from the shard's render checkpoint
(stamped with the shard range, so one shard's checkpoint can never
resume another's); a shard whose bytes no longer match its manifest is
quarantined to ``*.corrupt`` and raises ``ShardIntegrityError`` (or is
transparently re-rendered when encountered during a resumed run).
"""
from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field

from ..io import atomic_write_chunks, atomic_write_json, atomic_write_text
from ..obs import EventLog, NULL_RECORDER, Recorder
from ..resilience import study_fingerprint
from ..webaudio import ENGINE_VERSION
from .cache import RenderCache
from .dataset import StudyDataset
from .sampler import sample_population_slice
from .study import (_CHECKPOINT_EVERY, _keyed_to_render, _load_resume,
                    _plan, _render_phase, _resolve_workers,
                    _validate_study_args)

SHARD_KIND = "repro.study.shard"
SHARD_FORMAT = 1


class ShardIntegrityError(ValueError):
    """A shard's on-disk bytes no longer match its manifest (torn,
    truncated, or bit-rotted data). The offending files are quarantined
    to ``*.corrupt`` before this is raised, so a retry starts clean."""


# -- shard geometry -----------------------------------------------------------

def shard_ranges(user_count: int, shard_size: int) -> list[tuple[int, int]]:
    """Partition ``[0, user_count)`` into ``shard_size``-user ranges (the
    last shard takes the remainder)."""
    if not isinstance(shard_size, int) or isinstance(shard_size, bool) \
            or shard_size <= 0:
        raise ValueError(f"shard_size must be a positive integer, "
                         f"got {shard_size!r}")
    return [(start, min(start + shard_size, user_count))
            for start in range(0, user_count, shard_size)]


def _validate_ranges(ranges, user_count: int) -> list[tuple[int, int]]:
    """Validate explicit shard ranges: integer bounds inside the
    population, non-empty, non-overlapping. Returns them sorted by
    start. (Full-partition coverage is a *merge-time* requirement —
    rendering a subset of shards is how distributed runs divide work.)"""
    if not ranges:
        raise ValueError("ranges must be non-empty")
    cleaned = []
    for r in ranges:
        try:
            start, stop = r
        except (TypeError, ValueError):
            raise ValueError(f"shard range {r!r} is not a (start, stop) "
                             "pair") from None
        if not all(isinstance(v, int) and not isinstance(v, bool)
                   for v in (start, stop)):
            raise ValueError(f"shard range {r!r} must hold integers")
        if start >= stop:
            raise ValueError(f"shard range ({start}, {stop}) is empty")
        if start < 0 or stop > user_count:
            raise ValueError(f"shard range ({start}, {stop}) falls outside "
                             f"the population [0, {user_count})")
        cleaned.append((start, stop))
    cleaned.sort()
    for (_, prev_stop), (start, stop) in zip(cleaned, cleaned[1:]):
        if start < prev_stop:
            raise ValueError(f"shard ranges overlap: ({start}, {stop}) "
                             f"starts before {prev_stop}")
    return cleaned


def shard_stem(start: int, stop: int) -> str:
    return f"shard_{start:08d}_{stop:08d}"


@dataclass(frozen=True)
class ShardPaths:
    """Every on-disk artefact one shard owns."""
    data: str
    manifest: str
    report: str
    checkpoint: str

    @classmethod
    def in_dir(cls, out_dir: str, start: int, stop: int) -> "ShardPaths":
        stem = os.path.join(out_dir, shard_stem(start, stop))
        report = os.path.join(
            out_dir, f"shard_report_{start:08d}_{stop:08d}.json")
        return cls(data=stem + ".jsonl", manifest=stem + ".manifest.json",
                   report=report, checkpoint=stem + ".ckpt")


# -- shard data format --------------------------------------------------------

def _record_lines(dataset: StudyDataset, start: int):
    """One compact, deterministic JSONL line per user.

    Insertion order is preserved (no ``sort_keys``): the record layout is
    already deterministic, and keeping ``Device.describe()``'s key order
    means a reassembled dataset serializes byte-identically to one the
    monolithic driver built."""
    for row, (uid, user) in enumerate(zip(dataset.user_ids(), dataset.users)):
        record = {
            "i": start + row,
            "user": user,
            "series": {vector: dataset.series[vector][uid]
                       for vector in dataset.vectors},
        }
        yield json.dumps(record, separators=(",", ":")) + "\n"


def write_shard(paths: ShardPaths, study: dict, index: int, start: int,
                stop: int, dataset: StudyDataset) -> dict:
    """Stream one shard's records to disk and commit its manifest.

    The data file goes through the atomic chunk writer (sha256 and byte
    count computed while streaming); the manifest is written only after
    the data file is in place — its presence is the completion marker a
    resumed run trusts.
    """
    digest = hashlib.sha256()
    counted = {"records": 0, "bytes": 0}

    def _chunks():
        for line in _record_lines(dataset, start):
            raw = line.encode("utf-8")
            digest.update(raw)
            counted["records"] += 1
            counted["bytes"] += len(raw)
            yield line

    atomic_write_chunks(paths.data, _chunks())
    manifest = {
        "kind": SHARD_KIND,
        "format": SHARD_FORMAT,
        "study": dict(study),
        "engine_version": ENGINE_VERSION,
        "shard": {"index": index, "start": start, "stop": stop,
                  "users": stop - start},
        "data": {"file": os.path.basename(paths.data),
                 "bytes": counted["bytes"],
                 "sha256": digest.hexdigest(),
                 "records": counted["records"]},
    }
    atomic_write_json(paths.manifest, manifest, indent=2, sort_keys=True)
    return manifest


def _quarantine_shard(paths: ShardPaths) -> list[str]:
    """Move a shard's data+manifest aside; best-effort, returns what moved."""
    moved = []
    for path in (paths.data, paths.manifest):
        try:
            os.replace(path, path + ".corrupt")
            moved.append(path + ".corrupt")
        except OSError:
            pass
    return moved


def load_manifest(manifest_path: str):
    """Parse and structurally validate a shard manifest; ``None`` if the
    file does not exist. A malformed manifest quarantines the shard and
    raises ``ShardIntegrityError`` naming the problem."""
    try:
        with open(manifest_path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except FileNotFoundError:
        return None
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        paths = _paths_for_manifest(manifest_path)
        _quarantine_shard(paths)
        raise ShardIntegrityError(
            f"shard manifest {manifest_path} is unreadable "
            f"({exc.__class__.__name__}); shard quarantined") from None
    problems = _manifest_problems(payload)
    if problems:
        paths = _paths_for_manifest(manifest_path)
        _quarantine_shard(paths)
        raise ShardIntegrityError(
            f"shard manifest {manifest_path} is malformed "
            f"({'; '.join(problems)}); shard quarantined")
    return payload


def _manifest_problems(payload) -> list[str]:
    problems = []
    if not isinstance(payload, dict):
        return ["not a JSON object"]
    if payload.get("kind") != SHARD_KIND:
        problems.append(f"kind is {payload.get('kind')!r}")
    if payload.get("format") != SHARD_FORMAT:
        problems.append(f"format is {payload.get('format')!r}")
    if not isinstance(payload.get("study"), dict):
        problems.append("study fingerprint missing")
    shard = payload.get("shard")
    if not isinstance(shard, dict) or not all(
            isinstance(shard.get(k), int) and not isinstance(shard.get(k), bool)
            for k in ("start", "stop", "users")):
        problems.append("shard range missing or malformed")
    data = payload.get("data")
    if not isinstance(data, dict) or not isinstance(data.get("file"), str) \
            or not isinstance(data.get("sha256"), str) \
            or not all(isinstance(data.get(k), int) for k in
                       ("bytes", "records")):
        problems.append("data section missing or malformed")
    if not isinstance(payload.get("engine_version"), str):
        problems.append("engine_version missing")
    return problems


def _paths_for_manifest(manifest_path: str) -> ShardPaths:
    base = manifest_path[:-len(".manifest.json")] \
        if manifest_path.endswith(".manifest.json") else manifest_path
    return ShardPaths(data=base + ".jsonl", manifest=manifest_path,
                      report="", checkpoint="")


def verify_shard_data(paths: ShardPaths, manifest: dict) -> None:
    """Check the data file against its manifest stamp (size + sha256);
    quarantine and raise ``ShardIntegrityError`` on any mismatch — a
    torn or truncated shard must never flow into a merge silently."""
    stamp = manifest["data"]
    stem = os.path.basename(paths.data)
    try:
        size = os.path.getsize(paths.data)
    except OSError:
        _quarantine_shard(paths)
        raise ShardIntegrityError(
            f"shard {stem}: manifest present but data file missing; "
            "shard quarantined") from None
    if size != stamp["bytes"]:
        _quarantine_shard(paths)
        raise ShardIntegrityError(
            f"shard {stem}: data file is {size} bytes, manifest stamped "
            f"{stamp['bytes']} (torn or truncated); shard quarantined")
    digest = hashlib.sha256()
    with open(paths.data, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    if digest.hexdigest() != stamp["sha256"]:
        _quarantine_shard(paths)
        raise ShardIntegrityError(
            f"shard {stem}: data sha256 {digest.hexdigest()[:12]}… does not "
            f"match manifest {stamp['sha256'][:12]}…; shard quarantined")


def check_shard_study(manifest: dict, study: dict, manifest_path: str,
                      expected_range: tuple[int, int] | None = None) -> None:
    """Reject a manifest that belongs to a different study or engine.

    Mixing shards across seeds, populations, or ENGINE_VERSIONs would
    silently poison a merged analysis, so each mismatch is a
    ``ValueError`` naming the offending field.
    """
    theirs = manifest["study"]
    for name in ("seed", "user_count", "iterations", "vectors"):
        if theirs.get(name) != study[name]:
            raise ValueError(
                f"shard manifest {manifest_path} belongs to a different "
                f"study: {name} is {theirs.get(name)!r}, this run has "
                f"{study[name]!r}")
    if manifest["engine_version"] != ENGINE_VERSION:
        raise ValueError(
            f"shard manifest {manifest_path} was rendered by engine_version "
            f"{manifest['engine_version']!r} but this build is "
            f"{ENGINE_VERSION!r} — delete the shard (or re-render the study) "
            "so versions never mix")
    if expected_range is not None:
        got = (manifest["shard"]["start"], manifest["shard"]["stop"])
        if got != tuple(expected_range):
            raise ValueError(
                f"shard manifest {manifest_path} covers range {got}, "
                f"expected {tuple(expected_range)}")


def iter_shard_records(data_path: str):
    """Yield the shard's user records (call after ``verify_shard_data``)."""
    with open(data_path, "r", encoding="utf-8") as fh:
        for line in fh:
            yield json.loads(line)


def load_shard(manifest_path: str, study: dict | None = None):
    """Load one completed shard: ``(manifest, records)``.

    Verifies data integrity first (quarantining on failure) and, when
    ``study`` is given, that the shard belongs to it.
    """
    manifest = load_manifest(manifest_path)
    if manifest is None:
        raise FileNotFoundError(f"no shard manifest at {manifest_path}")
    paths = _paths_for_manifest(manifest_path)
    verify_shard_data(paths, manifest)
    if study is not None:
        check_shard_study(manifest, study, manifest_path)
    return manifest, list(iter_shard_records(paths.data))


def dataset_from_records(manifest: dict, records: list[dict]) -> StudyDataset:
    """Rebuild one shard's (shard-sized) ``StudyDataset`` from records."""
    study = manifest["study"]
    shard = manifest["shard"]
    if len(records) != shard["users"]:
        raise ShardIntegrityError(
            f"shard covering [{shard['start']}, {shard['stop']}) holds "
            f"{len(records)} records, expected {shard['users']}")
    vectors = tuple(study["vectors"])
    users = []
    series: dict[str, dict[str, list[str]]] = {v: {} for v in vectors}
    for offset, record in enumerate(records):
        if record.get("i") != shard["start"] + offset:
            raise ShardIntegrityError(
                f"shard record {offset} is user index {record.get('i')!r}, "
                f"expected {shard['start'] + offset} (records out of order)")
        user = record["user"]
        users.append(user)
        for vector in vectors:
            series[vector][user["id"]] = record["series"][vector]
    return StudyDataset(seed=study["seed"], user_count=len(users),
                        iterations=study["iterations"], vectors=vectors,
                        users=users, series=series)


def combine_shards(manifest_paths: list[str],
                   study: dict | None = None) -> StudyDataset:
    """Reassemble the full monolithic dataset from a complete shard set.

    A convenience for tests / small-scale verification — it holds the
    whole population in memory, which is exactly what sharding exists to
    avoid; production analysis goes through the mergeable shard reports
    instead.
    """
    loaded = [load_shard(path, study) for path in manifest_paths]
    loaded.sort(key=lambda pair: pair[0]["shard"]["start"])
    if not loaded:
        raise ValueError("no shards to combine")
    base = loaded[0][0]["study"]
    expect = 0
    for manifest, _ in loaded:
        check_shard_study(manifest, base, "combine_shards input")
        if manifest["shard"]["start"] != expect:
            raise ValueError(
                f"shards do not form a partition: expected a shard starting "
                f"at {expect}, got {manifest['shard']['start']}")
        expect = manifest["shard"]["stop"]
    if expect != base["user_count"]:
        raise ValueError(
            f"shards cover [0, {expect}) but the study has "
            f"{base['user_count']} users")
    users = []
    vectors = tuple(base["vectors"])
    series: dict[str, dict[str, list[str]]] = {v: {} for v in vectors}
    for manifest, records in loaded:
        part = dataset_from_records(manifest, records)
        users.extend(part.users)
        for vector in vectors:
            series[vector].update(part.series[vector])
    return StudyDataset(seed=base["seed"], user_count=len(users),
                        iterations=base["iterations"], vectors=vectors,
                        users=users, series=series)


# -- the sharded driver -------------------------------------------------------

@dataclass
class ShardResult:
    """One shard's outcome within a sharded run."""
    index: int
    start: int
    stop: int
    paths: ShardPaths
    resumed: bool = False
    requarantined: bool = False
    classes: int = 0


@dataclass
class ShardedStudy:
    """What ``run_study_sharded`` returns: where everything landed."""
    out_dir: str
    user_count: int
    iterations: int
    vectors: tuple[str, ...]
    seed: int
    shards: list[ShardResult] = field(default_factory=list)
    merged_report_path: str | None = None

    def manifest_paths(self) -> list[str]:
        return [s.paths.manifest for s in self.shards]

    def shard_report_paths(self) -> list[str]:
        return [s.paths.report for s in self.shards]

    def to_dataset(self) -> StudyDataset:
        """Reassemble the monolithic dataset (small scales only)."""
        study = study_fingerprint(self.seed, self.user_count,
                                  self.iterations, self.vectors)
        return combine_shards(self.manifest_paths(), study)


def _merge_resilience(summaries: list[dict], checkpoint_info: dict) -> dict:
    """Fold per-shard supervisor summaries into one report-shaped block
    (sums match the recorder's counters, which also accumulated across
    shards — the report validator cross-checks exactly that)."""
    retry_keys = ("attempts", "retries", "timeouts", "crashes",
                  "worker_errors", "corrupt_returns", "bisections")
    retry = {key: sum(s["retry"][key] for s in summaries)
             for key in retry_keys}
    quarantined: set[str] = set()
    for s in summaries:
        quarantined.update(s["retry"]["quarantined"])
    retry["quarantined"] = sorted(quarantined)
    retry["budget"] = {
        "limit": max((s["retry"]["budget"]["limit"] for s in summaries),
                     default=0),
        "spent": sum(s["retry"]["budget"]["spent"] for s in summaries),
        "exhausted": any(s["retry"]["budget"]["exhausted"]
                         for s in summaries),
    }
    return {
        "retry": retry,
        "degraded": {
            "pool_rebuilds": sum(s["degraded"]["pool_rebuilds"]
                                 for s in summaries),
            "inline_fallback": any(s["degraded"]["inline_fallback"]
                                   for s in summaries),
        },
        "checkpoint": checkpoint_info,
    }


def run_study_sharded(user_count: int, shard_size: int | None,
                      out_dir: str, *, iterations: int = 30,
                      vectors: tuple[str, ...] = ("dc", "fft", "hybrid"),
                      seed: int = 2021,
                      ranges: list[tuple[int, int]] | None = None,
                      cache: RenderCache | None = None,
                      workers: int | None = None, recorder=None,
                      report_path: str | None = None,
                      checkpoint_every: int = _CHECKPOINT_EVERY,
                      retry_policy=None, retry_budget: int | None = None,
                      event_log_path: str | None = None,
                      progress=False, resume: bool = True,
                      analyze: bool = True) -> ShardedStudy:
    """Render the study sharded, streaming results to ``out_dir``.

    Arguments mirror ``run_study`` (same validation, same defaults, same
    supervision/chaos/telemetry semantics per shard), plus:

    ``shard_size``: users per shard; the population ``[0, user_count)``
    is partitioned into ``ceil(user_count / shard_size)`` ranges. Pass
    ``ranges`` (a list of non-overlapping ``(start, stop)`` ranges) to
    render an explicit subset instead — how a distributed run divides
    shards between machines — in which case ``shard_size`` is ignored
    and may be None.
    ``resume``: a shard whose manifest already exists (same study
    fingerprint, same ENGINE_VERSION, data bytes intact) is skipped; a
    shard whose data fails its integrity check is quarantined to
    ``*.corrupt`` and re-rendered; a manifest from a *different* study
    or engine version raises ``ValueError`` naming the field.
    Mid-shard crashes resume from the shard's render checkpoint.
    ``analyze``: also write each shard's mergeable analysis report
    (``shard_report_*.json``) and, when the rendered ranges form the
    full partition, the merged analysis report (``analysis.json``) —
    byte-identical to what the monolithic path produces.

    The render cache is shared across shards, so equivalence classes
    are rendered once per *study*, not once per shard. Peak memory is
    O(shard_size + distinct classes): no full-population dataset ever
    exists in this process.
    """
    _validate_study_args(user_count, iterations, vectors, workers,
                         checkpoint_every)
    if ranges is None:
        ranges = shard_ranges(user_count, shard_size)
    else:
        ranges = _validate_ranges(ranges, user_count)
    vectors = tuple(vectors)

    if recorder is None:
        recorder = Recorder() if (report_path is not None
                                  or event_log_path is not None) \
            else NULL_RECORDER
    measuring = recorder.enabled
    if cache is None:
        cache = RenderCache()
    event_log = None
    if event_log_path is not None and measuring:
        event_log = EventLog(event_log_path)
        recorder.attach_event_log(event_log)
    cache.attach_recorder(recorder)
    try:
        return _run_study_sharded(
            user_count, out_dir, iterations, vectors, seed, ranges, cache,
            workers, recorder, measuring, report_path,
            checkpoint_every, retry_policy, retry_budget, event_log_path,
            progress, resume, analyze)
    finally:
        cache.detach_recorder()
        if event_log is not None:
            recorder.detach_event_log()
            event_log.close()


def _run_study_sharded(user_count, out_dir, iterations, vectors, seed,
                       ranges, cache, workers, recorder, measuring,
                       report_path, checkpoint_every, retry_policy,
                       retry_budget, event_log_path, progress, resume,
                       analyze) -> ShardedStudy:
    workers, requested_workers, cpu = _resolve_workers(workers)
    result = ShardedStudy(out_dir=out_dir, user_count=user_count,
                          iterations=iterations, vectors=vectors, seed=seed)
    recorder.event("study.start", users=user_count, iterations=iterations,
                   vectors=list(vectors), seed=seed, workers=workers,
                   sharded=True, shards=len(ranges))

    # phase "plan" covers the *shard geometry* — per-shard population
    # sampling and grid planning happen inside each shard's render (that
    # locality is the whole point: no full-population plan ever exists)
    recorder.event("phase.start", phase="plan")
    with recorder.span("plan", users=user_count, iterations=iterations,
                       vectors=list(vectors), shards=len(ranges)):
        os.makedirs(out_dir, exist_ok=True)
        study = study_fingerprint(seed, user_count, iterations, vectors)
    recorder.event("phase.end", phase="plan")

    checkpoint_info = {"enabled": True, "writes": 0, "torn_writes": 0,
                       "resumed_classes": 0, "corrupt_recoveries": 0}
    summaries: list[dict] = []
    seen_classes: set[str] = set()
    grid_items = 0
    rendered_classes = 0
    any_pooled = False
    shard_reports: list[dict] = []

    recorder.event("phase.start", phase="render")
    with recorder.span("render", shards=len(ranges)):
        grid_items, rendered_classes, any_pooled = _render_shards(
            ranges, result, study, user_count, iterations, vectors, seed,
            cache, workers, requested_workers, recorder, measuring,
            checkpoint_every, checkpoint_info, retry_policy, retry_budget,
            progress, resume, analyze, summaries, seen_classes,
            shard_reports)
    recorder.event("phase.end", phase="render")

    recorder.event("phase.start", phase="assemble")
    with recorder.span("assemble"):
        is_partition = ranges[0][0] == 0 and ranges[-1][1] == user_count \
            and all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))
        if analyze and is_partition:
            from ..analysis.shards import (dumps_shard_or_merged,
                                           merge_shard_reports)
            merged = merge_shard_reports(shard_reports)
            merged_path = os.path.join(out_dir, "analysis.json")
            atomic_write_text(merged_path, dumps_shard_or_merged(merged))
            result.merged_report_path = merged_path
    recorder.event("phase.end", phase="assemble")

    recorder.event("study.end", grid_items=grid_items,
                   distinct_classes=len(seen_classes),
                   rendered=rendered_classes, shards=len(ranges))

    if report_path is not None:
        from ..obs.report import build_report
        resilience_info = _merge_resilience(summaries, checkpoint_info) \
            if summaries else {"checkpoint": checkpoint_info}
        if measuring:
            busy = recorder.histograms.get("pool.task_wall_s")
            busy_s = busy.total if busy else 0.0
            pool_info = {
                "workers": workers, "pooled": any_pooled,
                "jobs": int(recorder.counters.get("pool.jobs", 0)),
                "requested": (requested_workers
                              if requested_workers is not None else workers),
                "cpu_count": cpu, "supervised": True,
                "rebuilds": resilience_info.get("degraded", {}).get(
                    "pool_rebuilds", 0),
                "busy_s": round(busy_s, 6),
                "utilization": None,
            }
        else:
            pool_info = None
        workload = {"users": user_count, "iterations": iterations,
                    "vectors": list(vectors), "seed": seed,
                    "grid_items": grid_items,
                    "distinct_classes": len(seen_classes),
                    "shards": len(ranges)}
        report = build_report(recorder, workload, cache_stats=cache.stats(),
                              pool=pool_info, resilience=resilience_info,
                              events_path=event_log_path)
        atomic_write_json(report_path, report, indent=2)
    return result


def _render_shards(ranges, result, study, user_count, iterations, vectors,
                   seed, cache, workers, requested_workers, recorder,
                   measuring, checkpoint_every, checkpoint_info,
                   retry_policy, retry_budget, progress, resume, analyze,
                   summaries, seen_classes, shard_reports):
    """The shard loop: render (or resume) each range, stream it to disk,
    commit its manifest, and (optionally) write its mergeable report."""
    out_dir = result.out_dir
    grid_items = 0
    rendered_classes = 0
    any_pooled = False
    for index, (start, stop) in enumerate(ranges):
        paths = ShardPaths.in_dir(out_dir, start, stop)
        shard_result = ShardResult(index=index, start=start, stop=stop,
                                   paths=paths)
        result.shards.append(shard_result)

        manifest = None
        if resume:
            try:
                manifest = load_manifest(paths.manifest)
                if manifest is not None:
                    check_shard_study(manifest, study, paths.manifest,
                                      expected_range=(start, stop))
                    verify_shard_data(paths, manifest)
            except ShardIntegrityError as exc:
                # quarantined by the checker; render the shard fresh
                shard_result.requarantined = True
                recorder.count("shard.quarantined")
                recorder.event("shard.quarantine", shard=index,
                               start=start, stop=stop, problem=str(exc))
                manifest = None
        if manifest is not None:
            shard_result.resumed = True
            recorder.count("shard.resumed")
            recorder.event("shard.resume", shard=index, start=start,
                           stop=stop, records=manifest["data"]["records"])
            if analyze:
                shard_reports.append(_ensure_shard_report(paths, manifest))
            continue

        recorder.event("shard.start", shard=index, start=start, stop=stop)
        with recorder.span("shard", index=index, start=start, stop=stop) \
                as shard_span:
            devices = sample_population_slice(user_count, seed, start, stop)
            item_keys, classes = _plan(devices, vectors, iterations, seed,
                                       first_index=start)
            grid_items += sum(len(k) for k in item_keys.values())
            seen_classes.update(classes)
            shard_result.classes = len(classes)
            shard_fp = dict(study, shard=[start, stop])
            resumed = _load_resume(paths.checkpoint, shard_fp, classes,
                                   recorder, checkpoint_info)
            keyed = _keyed_to_render(cache, item_keys, classes, resumed,
                                     recorder)
            rendered, supervisor, job_count, pooled = _render_phase(
                keyed, measuring=measuring, recorder=recorder, cache=cache,
                seed=seed, workers=workers,
                requested_workers=requested_workers, fingerprint=shard_fp,
                checkpoint_path=paths.checkpoint,
                checkpoint_every=checkpoint_every,
                checkpoint_info=checkpoint_info, retry_policy=retry_policy,
                retry_budget=retry_budget, progress=progress,
                resumed=resumed)
            summaries.append(supervisor.summary())
            rendered_classes += len(keyed)
            any_pooled = any_pooled or pooled
            if measuring:
                recorder.count("pool.jobs", job_count)
                shard_span.set(users=stop - start,
                               distinct_classes=len(classes),
                               rendered=len(keyed))

            lookup = rendered.__getitem__ if cache.disabled else cache.get
            dataset = StudyDataset(
                seed=seed, user_count=len(devices), iterations=iterations,
                vectors=vectors, users=[d.describe() for d in devices])
            for vector_name in vectors:
                dataset.series[vector_name] = {}
            for (vector_name, user_id), keys in item_keys.items():
                dataset.series[vector_name][user_id] = \
                    [lookup(key) for key in keys]
            manifest = write_shard(paths, study, index, start, stop, dataset)
            try:
                os.remove(paths.checkpoint)  # the manifest supersedes it
            except OSError:
                pass
            if analyze:
                shard_reports.append(
                    _build_and_write_shard_report(paths, manifest, dataset))
        recorder.count("shard.completed")
        recorder.event("shard.end", shard=index, start=start, stop=stop,
                       records=manifest["data"]["records"],
                       classes=len(classes))
    return grid_items, rendered_classes, any_pooled


def _build_and_write_shard_report(paths: ShardPaths, manifest: dict,
                                  dataset: StudyDataset) -> dict:
    from ..analysis.shards import build_shard_report, dumps_shard_or_merged
    report = build_shard_report(dataset, manifest)
    atomic_write_text(paths.report, dumps_shard_or_merged(report))
    return report


def _ensure_shard_report(paths: ShardPaths, manifest: dict) -> dict:
    """Reuse a resumed shard's report when present and sound, else
    rebuild it from the shard records (reports are pure functions of the
    shard data, so either way the merge sees identical bytes)."""
    from ..analysis.shards import validate_shard_report
    try:
        with open(paths.report, "r", encoding="utf-8") as fh:
            report = json.load(fh)
        if not validate_shard_report(report) \
                and report.get("study") == manifest["study"] \
                and report.get("shard") == manifest["shard"]:
            return report
    except (OSError, json.JSONDecodeError, UnicodeDecodeError):
        pass
    records = list(iter_shard_records(paths.data))
    dataset = dataset_from_records(manifest, records)
    return _build_and_write_shard_report(paths, manifest, dataset)
