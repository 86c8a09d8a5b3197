"""run_study: the deduplicating, cache-backed, supervised study driver.

The paper's headline workload is 2093 users x 30 iterations x 7 vectors
(~440k renders). Because every eFP is a pure function of (vector, stack,
jitter path), the grid collapses to its distinct equivalence classes:

  1. PLAN     — sample the population, then deterministically pre-draw every
                iteration's jitter path (cheap, no DSP), producing the full
                item grid plus the set of distinct class keys.
  2. RENDER   — probe the cache once per class; group the misses by
                (vector, stack) and render each group as ONE batched pass
                through the engine's batch axis (graph built once, all
                jitter paths rendered together — bit-identical to per-class
                renders, pinned by tests). Groups fan out through a
                ``repro.resilience.SupervisedExecutor``: jobs are submitted
                individually with per-job deadlines, failed/hung jobs retry
                with capped deterministic backoff, failing batch groups are
                bisected to quarantine the poison class, pool death degrades
                to inline rendering, and a retry budget turns a
                systematically broken stack into a structured
                ``StudyExecutionError`` instead of a hang or a
                ``BrokenProcessPool``. With ``checkpoint_path`` set, rendered
                eFPs are crash-safely checkpointed every
                ``checkpoint_every`` completed jobs, so a killed run resumes
                without re-rendering — byte-identical either way.
  3. ASSEMBLE — build the per-user series by cache lookup only.

With the cache disabled the driver degrades to the honest baseline: one
real render per grid item, still batched by group. ``bench_render_perf.py``
measures the cache gap and (with ``_MAX_BATCH`` pinned to 1) the batching
gap.

Observability (repro.obs) is threaded through all three phases but is
off by default: the ``recorder`` defaults to the null object, render
jobs carry measure=0, and no per-render recorder call is ever made — the
dataset is bit-identical either way. When a ``Recorder`` is active (or
``report_path`` / ``event_log_path`` is set), each batch is timed
(``render.batch_size`` histogram + per-batch wall clock, plus per-render
amortized latency so per-vector histograms keep one observation per
render), the first batch per (vector, stack) pair additionally runs
under the per-node profiler, and pool workers return their measurements
as a plain dict riding next to the eFPs — the parent folds those into
its own recorder, so aggregate counters are identical at any worker
count. The supervisor adds ``retry.*`` / ``degraded.*`` /
``checkpoint.*`` counters, surfaced as dedicated run-report sections
(schema-checked by ``repro.obs.report``).

Telemetry (repro.obs.events) rides the same channel: the driver, the
supervisor, the cache, and the checkpoint path all emit sequence events
(study/phase lifecycle, cache misses and quarantines, checkpoint
writes/resumes, retries/rebuilds, per-batch renders shipped home from
pool workers inside their metrics dicts). With ``event_log_path`` set
the sequence also streams crash-safely to a JSONL sidecar the moment
each event lands. The opt-in ``progress`` heartbeat prints live
classes/throughput/ETA lines to stderr from the supervisor loop; both
are free when disabled (the NullRecorder contract is pinned by tests).
"""
from __future__ import annotations

import os
import string
import time

import numpy as np

from ..io import atomic_write_json
from ..obs import (EventLog, NULL_RECORDER, ProgressMeter, Recorder,
                   make_event, profile_nodes)
from ..platform.jitter import sample_path, sample_repertoire
from ..platform.stacks import AudioStack
from ..resilience import (RetryBudget, RetryPolicy, StudyExecutionError,
                          SupervisedExecutor, load_checkpoint,
                          study_fingerprint, write_checkpoint)
from ..resilience.faults import CORRUPT_EFP, render_fault
from ..vectors.registry import get_vector
from .cache import RenderCache
from .dataset import StudyDataset
from .device import Device
from .sampler import sample_population

_STUDY_STREAM = 0x57D  # per-user jitter streams, disjoint from the sampler's

#: Pool engagement threshold, measured by benchmarks/bench_render_perf.py
#: (see the "pool" section of BENCH_render.json — the worker sweep records
#: where process-pool overhead actually pays off on this workload):
#: below this many batch-group jobs, fork + pickle overhead loses to inline
#: rendering.
_POOL_GROUP_THRESHOLD = 4

#: Batch rows per engine pass. Caps the working set of a batched render
#: ((B, channels, 5000) float64 blocks plus the analyser history) while
#: keeping the interpreter amortization; row results are independent, so
#: splitting a group across sub-batches cannot change any eFP.
_MAX_BATCH = 256

#: measure levels carried by each render job
_MEASURE_OFF = 0    # bare render, metrics slot is None
_MEASURE_TIME = 1   # wall-clock the render
_MEASURE_NODES = 2  # wall-clock + per-node profile

#: default checkpoint cadence: completed render jobs between snapshots
_CHECKPOINT_EVERY = 16

_HEX_DIGITS = frozenset(string.hexdigits.lower())


def _user_rng(seed: int, user_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, _STUDY_STREAM, user_index]))


def _render_group(job: tuple[str, AudioStack, list, int]):
    """Pool worker: render one (vector, stack) batch group in a single
    batched engine pass. Top-level for pickling.

    Returns ``(pairs, metrics)`` where pairs is ``[(key, efp), ...]`` in
    member order and metrics is None unless the job asked to be measured.
    The chaos hook fires per member key: a crash/hang selected for any
    member takes the whole group (that is what bisection is for); a
    corrupt fault poisons only the selected member's row.
    """
    vector_name, stack, members, measure = job
    keys = [key for key, _ in members]
    paths = [path for _, path in members]
    corrupt_rows = [i for i, key in enumerate(keys) if render_fault(key)]
    vector = get_vector(vector_name)
    if not measure:
        efps = vector.render_batch(stack, paths)
        for i in corrupt_rows:
            efps[i] = CORRUPT_EFP
        return list(zip(keys, efps)), None
    start = time.perf_counter()
    if measure >= _MEASURE_NODES:
        with profile_nodes() as profiler:
            efps = vector.render_batch(stack, paths)
    else:
        profiler = None
        efps = vector.render_batch(stack, paths)
    wall = time.perf_counter() - start
    metrics = {
        "vector": vector_name,
        "stack": stack.cache_key(),
        "wall_s": wall,
        "batch_size": len(members),
        "events": [make_event("render.batch", vector=vector_name,
                              stack=stack.cache_key(),
                              batch_size=len(members), wall_s=wall)],
    }
    if profiler is not None:
        metrics["nodes"] = profiler.seconds
        metrics["node_calls"] = profiler.calls
    for i in corrupt_rows:
        efps[i] = CORRUPT_EFP
    return list(zip(keys, efps)), metrics


def _group_jobs(keyed_classes, measuring: bool):
    """Batch-group jobs: group classes by (vector, stack), split at
    ``_MAX_BATCH`` rows, attach measure levels.

    Grouping preserves plan order (first-seen group order, member order
    within a group), so the job list — and with it the profiled set and
    every aggregate counter — is identical at any worker count. When
    measuring, every batch is timed and the first batch per (vector,
    stack) pair also carries the per-node profiler.
    """
    groups: dict[tuple[str, str], tuple[str, AudioStack, list]] = {}
    for key, (vector_name, stack, path) in keyed_classes:
        entry = groups.setdefault((vector_name, stack.cache_key()),
                                  (vector_name, stack, []))
        entry[2].append((key, path))
    jobs = []
    for vector_name, stack, members in groups.values():
        first = True
        for lo in range(0, len(members), _MAX_BATCH):
            if not measuring:
                measure = _MEASURE_OFF
            elif first:
                measure = _MEASURE_NODES
            else:
                measure = _MEASURE_TIME
            first = False
            jobs.append((vector_name, stack, members[lo:lo + _MAX_BATCH],
                         measure))
    return jobs


# -- supervision plumbing: validate / split / name render jobs ----------------

def _valid_efp(value) -> bool:
    """eFPs are 32-char lowercase hex md5 digests; anything else is a
    corrupted worker return."""
    return isinstance(value, str) and len(value) == 32 \
        and set(value) <= _HEX_DIGITS


def _validate_group_result(job, result) -> bool:
    pairs, _metrics = result
    members = job[2]
    if len(pairs) != len(members):
        return False
    return all(key == member_key and _valid_efp(efp)
               for (key, efp), (member_key, _) in zip(pairs, members))


def _group_job_keys(job) -> list[str]:
    return [key for key, _ in job[2]]


def _split_group_job(job):
    """Bisect a failing batch group so the supervisor can corner the
    poison member. The first half inherits the parent's measure level
    (a profiled group keeps exactly one profiled descendant); results
    stay bit-identical because batch rows never interact."""
    vector_name, stack, members, measure = job
    if len(members) < 2:
        return None
    mid = len(members) // 2
    tail_measure = _MEASURE_TIME if measure else _MEASURE_OFF
    return [(vector_name, stack, members[:mid], measure),
            (vector_name, stack, members[mid:], tail_measure)]


def _absorb_batch_metrics(recorder, metrics: dict) -> None:
    """Fold one batch-group metrics snapshot into the parent recorder.

    Per-vector latency histograms keep one observation per *render* (the
    batch wall clock amortized over its rows), so their counts still equal
    the render count; the batch-level cost lands in ``render.batch_size``
    and ``render.batch_wall_s.<vector>`` — together they show the
    amortization directly.
    """
    size = metrics["batch_size"]
    wall = metrics["wall_s"]
    vector = metrics["vector"]
    recorder.count("render.renders", size)
    recorder.count("render.batches")
    recorder.observe("render.batch_size", size)
    recorder.observe(f"render.batch_wall_s.{vector}", wall)
    amortized = wall / size
    for _ in range(size):
        recorder.observe(f"render.latency_s.{vector}", amortized)
    recorder.observe("pool.task_wall_s", wall)
    for event in metrics.get("events", ()):
        recorder.merge_event(event)
    if "nodes" in metrics:
        recorder.count("render.profiled_renders")
        recorder.record_node_profile(metrics["stack"], metrics["nodes"],
                                     metrics["node_calls"])


def _plan(devices: list[Device], vectors: tuple[str, ...], iterations: int,
          seed: int, first_index: int = 0):
    """Pre-draw all jitter paths; return per-item keys and the class table.

    Analyser-free vectors draw nothing from the rng, so adding/removing
    them never shifts another vector's jitter stream. ``first_index`` is
    the global population index of ``devices[0]`` — per-user jitter
    streams are seeded by global index, so planning a shard of the
    population draws exactly the paths the monolithic plan would.
    """
    item_keys: dict[tuple[str, str], list[str]] = {}   # (vector, user_id) -> keys
    classes: dict[str, tuple[str, object, str]] = {}
    for offset, device in enumerate(devices):
        rng = _user_rng(seed, first_index + offset)
        repertoire = sample_repertoire(rng, device.load)
        for vector_name in vectors:
            vector = get_vector(vector_name)
            # each vector fingerprints its own per-device stack (the audio
            # stack for audio vectors; UA/canvas/fonts/math identities for
            # the comparators) — the class key and the render input both
            # come from that stack, so the cache stays a pure function of
            # (vector, stack, path) across every fingerprint surface
            stack = vector.stack_of(device)
            stack_key = stack.cache_key()
            keys = []
            for _ in range(iterations):
                if vector.uses_analyser:
                    path = sample_path(rng, device.load, repertoire)
                else:
                    path = vector.canonical_path(None)
                key = RenderCache.make_key(vector_name, stack_key, path)
                keys.append(key)
                if key not in classes:
                    classes[key] = (vector_name, stack, path)
            item_keys[(vector_name, device.user_id)] = keys
    return item_keys, classes


def _validate_study_args(user_count, iterations, vectors, workers,
                         checkpoint_every) -> None:
    """The shared front-door argument checks (``run_study`` and
    ``run_study_sharded`` reject the same bad inputs the same way)."""
    if not isinstance(user_count, int) or isinstance(user_count, bool) \
            or user_count <= 0:
        raise ValueError(f"user_count must be a positive integer, "
                         f"got {user_count!r}")
    if iterations <= 0:
        raise ValueError(f"iterations must be positive, got {iterations}")
    if not vectors:
        raise ValueError("vectors must be non-empty")
    if workers is not None and workers < 0:
        raise ValueError(f"workers must be >= 0 (or None for auto), "
                         f"got {workers}")
    if checkpoint_every <= 0:
        raise ValueError(f"checkpoint_every must be positive, "
                         f"got {checkpoint_every}")
    seen = set()
    for name in vectors:
        get_vector(name)  # fail fast on unknown vectors (UnknownVectorError)
        if name in seen:
            # a duplicate would silently double-count the vector's series
            # assembly; reject it before any rendering happens
            raise ValueError(f"duplicate vector {name!r} in vectors")
        seen.add(name)


def _resolve_workers(workers: int | None) -> tuple[int, int | None, int]:
    """Resolve the ``workers`` knob to an effective pool size.

    Returns ``(workers, requested, cpu)``: None = auto (cpu count capped
    at 8); explicit counts above the core count are clamped to it, never
    below 2 — an explicit pool request stays a pool even on a 1-core box.
    """
    cpu = os.cpu_count() or 1
    requested = workers
    if workers is None:
        workers = min(cpu, 8)
    elif workers > max(cpu, 2):
        # Oversubscribing a small machine cannot win: more processes than
        # cores adds context-switch and serialization overhead (the
        # committed worker sweep measures exactly this). Explicit requests
        # are trimmed to the core count — but never below 2, so an
        # explicit >= 2 request keeps pool semantics (supervision, crash
        # isolation) even on a 1-core box. Results are worker-count
        # invariant (pinned), so only wall time changes.
        workers = max(cpu, 2)
    return workers, requested, cpu


def _load_resume(checkpoint_path, fingerprint, classes, recorder,
                 checkpoint_info) -> dict[str, str]:
    """Load a checkpoint and keep only the classes this plan wants."""
    resumed: dict[str, str] = {}
    if checkpoint_path is None:
        return resumed
    loaded, problem = load_checkpoint(checkpoint_path, fingerprint)
    if problem is not None:
        checkpoint_info["corrupt_recoveries"] += 1
        recorder.count("checkpoint.corrupt")
        recorder.event("checkpoint.corrupt_quarantine", problem=problem)
    # only classes this study actually plans can be resumed; an
    # ENGINE_VERSION bump changes every stack key, so stale
    # checkpoints resume nothing (and re-render everything)
    resumed = {key: efp for key, efp in loaded.items() if key in classes}
    if resumed:
        checkpoint_info["resumed_classes"] = len(resumed)
        recorder.count("checkpoint.resumed_classes", len(resumed))
        recorder.event("checkpoint.resume", classes=len(resumed))
    return resumed


def _keyed_to_render(cache, item_keys, classes, resumed, recorder):
    """The classes still needing a render, as ``(key, class)`` pairs.

    With the cache disabled this degrades to the honest baseline: one
    real render per grid item, charged through the miss-counter API so
    benchmark speedups isolate the cache.
    """
    if cache.disabled:
        keyed = [(key, classes[key])
                 for keys in item_keys.values() for key in keys
                 if key not in resumed]
        cache.record_miss(len(keyed))
        return keyed
    with recorder.span("probe"):
        return [(key, classes[key]) for key in classes
                if key not in resumed and cache.get(key) is None]


def _render_phase(keyed, *, measuring, recorder, cache, seed, workers,
                  requested_workers, fingerprint, checkpoint_path,
                  checkpoint_every, checkpoint_info, retry_policy,
                  retry_budget, progress, resumed):
    """Render ``keyed`` classes under supervision; the render-phase core
    shared by ``run_study`` and the sharded driver.

    Returns ``(rendered, supervisor, jobs_count, pooled)`` where
    ``rendered`` maps class key -> eFP (resumed classes included) and the
    supervisor carries the resilience summary. Completed renders are
    pushed into the cache before returning.
    """
    jobs = _group_jobs(keyed, measuring)
    pooled = bool(workers and workers > 1
                  and len(jobs) >= _POOL_GROUP_THRESHOLD)
    if requested_workers is not None and workers < requested_workers:
        recorder.count("pool.workers_clamped", requested_workers - workers)
    if not pooled and len(jobs) >= _POOL_GROUP_THRESHOLD and workers <= 1 \
            and (requested_workers is None or requested_workers > 1):
        # enough jobs to pool, but fan-out cannot win on this machine
        recorder.count("pool.fanout_skipped")
    budget = None if retry_budget is None else RetryBudget(retry_budget)
    supervisor = SupervisedExecutor(
        _render_group, workers=workers if pooled else 0,
        policy=retry_policy, budget=budget, recorder=recorder,
        seed=seed, splitter=_split_group_job,
        validator=_validate_group_result, keys_of=_group_job_keys)

    meter = None
    if progress:
        stream = progress if hasattr(progress, "write") else None
        meter = ProgressMeter(total_jobs=len(jobs),
                              total_classes=len(keyed), stream=stream)

    rendered: dict[str, str] = dict(resumed)
    completed_jobs = 0

    def _checkpoint() -> None:
        if write_checkpoint(checkpoint_path, fingerprint, rendered,
                            completed_jobs):
            checkpoint_info["writes"] += 1
            recorder.count("checkpoint.writes")
            recorder.event("checkpoint.write", completed_jobs=completed_jobs)
        else:
            checkpoint_info["torn_writes"] += 1
            recorder.count("checkpoint.torn_writes")
            recorder.event("checkpoint.torn_write",
                           completed_jobs=completed_jobs)

    try:
        for pairs, metrics in supervisor.run(jobs):
            rendered.update(pairs)
            if metrics is not None:
                _absorb_batch_metrics(recorder, metrics)
            completed_jobs += 1
            if checkpoint_path is not None \
                    and completed_jobs % checkpoint_every == 0:
                _checkpoint()
            if meter is not None:
                meter.update(completed_jobs,
                             len(rendered) - len(resumed),
                             retries=supervisor.retries,
                             hit_rate=cache.hit_rate)
    except StudyExecutionError:
        # persist everything that DID render before surfacing the
        # failure: a later run with the stack fixed resumes from here
        if checkpoint_path is not None:
            _checkpoint()
        raise
    if checkpoint_path is not None:
        _checkpoint()
    if meter is not None:
        meter.finish(len(rendered) - len(resumed),
                     retries=supervisor.retries,
                     hit_rate=cache.hit_rate)
    if not cache.disabled:
        for key, efp in rendered.items():
            cache.put(key, efp)
    return rendered, supervisor, len(jobs), pooled


def run_study(user_count: int, iterations: int = 30,
              vectors: tuple[str, ...] = ("dc", "fft", "hybrid"),
              seed: int = 2021, cache: RenderCache | None = None,
              workers: int | None = None, recorder=None,
              report_path: str | None = None,
              checkpoint_path: str | None = None,
              checkpoint_every: int = _CHECKPOINT_EVERY,
              retry_policy: RetryPolicy | None = None,
              retry_budget: int | None = None,
              event_log_path: str | None = None,
              progress=False) -> StudyDataset:
    """Run the synthetic study and return its dataset.

    ``workers``: None = auto (cpu count, capped at 8), 0 = render inline.
    Explicit counts above the machine's core count are clamped to it
    (never below 2, so an explicit pool request stays a pool); the clamp
    and any fan-out skip are recorded as ``pool.workers_clamped`` /
    ``pool.fanout_skipped`` counters.
    ``recorder``: a ``repro.obs.Recorder`` to instrument the run; None =
    observability off (null object, no per-render overhead) unless
    ``report_path`` or ``event_log_path`` is set, which implies a fresh
    recorder.
    ``report_path``: write a machine-readable run report (see repro.obs)
    here after the study completes.
    ``checkpoint_path``: crash-safely checkpoint rendered eFPs here every
    ``checkpoint_every`` completed render jobs; if the file already holds
    a checkpoint of *this* study, its classes are not re-rendered
    (resume). A checkpoint of a different study raises; a torn/corrupt
    one is quarantined to ``<path>.corrupt`` and the run starts cold.
    ``retry_policy`` / ``retry_budget``: supervision knobs (see
    ``repro.resilience``); defaults retry failed or hung render jobs with
    capped deterministic backoff and give up — raising
    ``StudyExecutionError`` naming the quarantined classes — once the
    budget is spent.
    ``event_log_path``: stream the run's telemetry events (see
    ``repro.obs.events``) to this crash-safe append-only JSONL sidecar;
    the run report gains an ``events`` summary section pointing at it.
    Appending to an existing log quarantines any torn tail a previous
    crash left to ``<path>.corrupt`` first.
    ``progress``: True (or a writable stream) prints a throttled
    heartbeat — classes done/total, renders/s, cache hit rate, retries,
    ETA — to stderr (or the stream) while the render phase runs. Off by
    default and costs nothing when off.
    Results are bit-identical regardless of worker count, cache state,
    batch size, observability, checkpoint resume, or any fault recovery
    that succeeds.
    """
    _validate_study_args(user_count, iterations, vectors, workers,
                         checkpoint_every)
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
        return _run_study(
            user_count, iterations, tuple(vectors), seed, cache, workers,
            recorder, measuring, report_path, checkpoint_path,
            checkpoint_every, retry_policy, retry_budget, event_log_path,
            progress)
    finally:
        cache.detach_recorder()
        if event_log is not None:
            recorder.detach_event_log()
            event_log.close()


def _run_study(user_count, iterations, vectors, seed, cache, workers,
               recorder, measuring, report_path, checkpoint_path,
               checkpoint_every, retry_policy, retry_budget, event_log_path,
               progress) -> StudyDataset:
    """The study body; ``run_study`` owns argument validation and the
    telemetry attach/detach lifecycle around it."""
    workers, requested_workers, cpu = _resolve_workers(workers)

    recorder.event("study.start", users=user_count, iterations=iterations,
                   vectors=list(vectors), seed=seed, workers=workers)

    recorder.event("phase.start", phase="plan")
    with recorder.span("plan", users=user_count, iterations=iterations,
                       vectors=list(vectors)) as plan_span:
        devices = sample_population(user_count, seed)
        item_keys, classes = _plan(devices, tuple(vectors), iterations, seed)
        grid_items = sum(len(k) for k in item_keys.values())
        if measuring:
            plan_span.set(grid_items=grid_items,
                          distinct_classes=len(classes))
    recorder.event("phase.end", phase="plan")

    checkpoint_info = {"enabled": checkpoint_path is not None, "writes": 0,
                       "torn_writes": 0, "resumed_classes": 0,
                       "corrupt_recoveries": 0}
    fingerprint = study_fingerprint(seed, user_count, iterations, vectors)

    recorder.event("phase.start", phase="render")
    with recorder.span("render") as render_span:
        resumed = _load_resume(checkpoint_path, fingerprint, classes,
                               recorder, checkpoint_info)
        keyed = _keyed_to_render(cache, item_keys, classes, resumed, recorder)
        rendered, supervisor, job_count, pooled = _render_phase(
            keyed, measuring=measuring, recorder=recorder,
            cache=cache, seed=seed, workers=workers,
            requested_workers=requested_workers, fingerprint=fingerprint,
            checkpoint_path=checkpoint_path,
            checkpoint_every=checkpoint_every,
            checkpoint_info=checkpoint_info, retry_policy=retry_policy,
            retry_budget=retry_budget, progress=progress, resumed=resumed)
        lookup = rendered.__getitem__ if cache.disabled else cache.get
    recorder.event("phase.end", phase="render")

    resilience_info = supervisor.summary()
    resilience_info["checkpoint"] = checkpoint_info

    if measuring:
        recorder.count("pool.jobs", job_count)
        busy = recorder.histograms.get("pool.task_wall_s")
        busy_s = busy.total if busy else 0.0
        lanes = workers if pooled else 1
        pool_info = {
            "workers": workers, "pooled": pooled, "jobs": job_count,
            "requested": (requested_workers if requested_workers is not None
                          else workers),
            "cpu_count": cpu,
            "supervised": True,
            "rebuilds": resilience_info["degraded"]["pool_rebuilds"],
            "busy_s": round(busy_s, 6),
            "utilization": round(busy_s / (render_span.duration_s * lanes), 4)
            if render_span.duration_s > 0 else None,
        }
    else:
        pool_info = None

    recorder.event("phase.start", phase="assemble")
    with recorder.span("assemble"):
        dataset = StudyDataset(
            seed=seed,
            user_count=user_count,
            iterations=iterations,
            vectors=tuple(vectors),
            users=[d.describe() for d in devices],
        )
        for vector_name in vectors:
            dataset.series[vector_name] = {}
        for (vector_name, user_id), keys in item_keys.items():
            dataset.series[vector_name][user_id] = [lookup(key) for key in keys]
    recorder.event("phase.end", phase="assemble")
    recorder.event("study.end", grid_items=grid_items,
                   distinct_classes=len(classes), rendered=len(rendered))

    if report_path is not None:
        from ..obs.report import build_report  # deferred: only report users pay for it
        workload = {"users": user_count, "iterations": iterations,
                    "vectors": list(vectors), "seed": seed,
                    "grid_items": grid_items,
                    "distinct_classes": len(classes)}
        report = build_report(recorder, workload, cache_stats=cache.stats(),
                              pool=pool_info, resilience=resilience_info,
                              events_path=event_log_path)
        atomic_write_json(report_path, report, indent=2)
    return dataset
