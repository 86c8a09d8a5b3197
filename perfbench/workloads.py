"""The two workloads: set-up, one measured pass, and the checks.

* ``paper-cold``  the paper study (users x iterations x the 11-vector
  ``FULL_BATTERY``) into a fresh, empty ``RenderCache`` on every pass,
  then save -> load -> collate -> analysis report -> Tables 2-5 report ->
  both validators. No service runs.
* ``service-mixed``  set-up runs a small study on ``SERVICE_VECTORS`` and
  expands it into an interleaved visit stream with spoofers and bots.
  Each pass offers the stream open-loop to a fresh service and replays
  the WAL cold; after the pass the max-rate ladder is walked. No study,
  render or batch analysis runs inside a pass.
"""
from __future__ import annotations

import json
import os
import statistics
import time
from dataclasses import dataclass, field

from repro import RenderCache, run_study
from repro.analysis import (build_analysis_report, build_tables_report,
                            collate, validate_analysis_report,
                            validate_tables_report)
from repro.population import StudyDataset
from repro.vectors import FULL_BATTERY

import layers
import servicebench
from servicebench import SERVICE_VECTORS

#: workload sizes; ``tiny`` exists for the benchmark's own smoke tests
SCALES = {
    "paper": {"users": 2093, "iterations": 30, "service_users": 1000,
              "service_iterations": 10, "rate": 1500.0,
              "probe_visits": 1500},
    "tiny": {"users": 12, "iterations": 3, "service_users": 16,
             "service_iterations": 3, "rate": 400.0, "probe_visits": 24},
}
#: users and seed of the tiny study that warms imports and constant
#: caches. The seed is fixed: which device classes 24 users draw, and so
#: what the warm-up renders, varies fourfold from seed to seed, and
#: ``setup_s`` would follow it
_WARMUP_USERS = 24
_WARMUP_SEED = 2021


@dataclass
class PassResult:
    """What one measured pass produced."""

    #: the pass's timed work (s): the pipeline's wall time on
    #: ``paper-cold``; the stream's CPU time plus the median cold replay
    #: on ``service-mixed``
    work_s: float = 0.0
    work_ref_s: float = 0.0    # ``work_s`` in reference seconds
    offered: servicebench.Offered = field(
        default_factory=servicebench.Offered)
    recover_s: list[float] = field(default_factory=list)
    replayed: int = 0
    checks: dict[str, bool] = field(default_factory=dict)
    operations: int = 0        # attempted operations besides the checks
    failed_operations: int = 0
    layers: dict | None = None
    wall_s: float = 0.0        # the whole pass, checks included


class Workload:
    """Shared by all workloads."""

    name = ""
    #: whether a pass's ``work_s`` follows the host's speed, so that
    #: ``pipeline_s`` is reported in reference seconds (see reference.py)
    work_follows_host = True

    def __init__(self, seed: int, scale: dict, work_dir: str):
        self.seed = seed
        self.scale = scale
        self.work_dir = work_dir
        self.setup_checks: dict[str, bool] = {}

    def after_pass(self) -> None:
        """Work done after each pass, outside its wall time."""


class PaperWorkload(Workload):
    """``paper-cold``: the paper pipeline into a fresh cache per pass."""

    name = "paper-cold"

    def __init__(self, seed, scale, work_dir):
        super().__init__(seed, scale, work_dir)
        #: the saved dataset bytes every pass must reproduce (the first
        #: pass's); one bytes object, so holding it costs the collector
        #: nothing
        self.reference: bytes | None = None
        self.warm_checked = False

    def setup(self) -> None:
        # a tiny study through the whole pipeline: imports and the
        # engine's constant caches are ready before the first pass, while
        # the paper study's own cache stays empty
        dataset = run_study(min(_WARMUP_USERS, self.scale["users"]), 2,
                            vectors=FULL_BATTERY, seed=_WARMUP_SEED,
                            cache=RenderCache())
        collations = collate(dataset)
        build_analysis_report(dataset, collations)
        build_tables_report(dataset, collations)

    def run_pass(self, recorder) -> PassResult:
        result = PassResult()
        with recorder.span("pass", workload=self.name):
            self._pipeline(recorder, result)
        return result

    def _pipeline(self, recorder, result: PassResult) -> None:
        traced = recorder.enabled
        cache = RenderCache()
        before = cache.stats()
        path = os.path.join(self.work_dir, "dataset.json")
        report_path = os.path.join(self.work_dir, "run_report.json") \
            if traced else None
        start = time.perf_counter()
        with recorder.span("population.run_study"):
            dataset = run_study(
                self.scale["users"], self.scale["iterations"],
                vectors=FULL_BATTERY, seed=self.seed, cache=cache,
                recorder=recorder if traced else None,
                report_path=report_path)
        with recorder.span("population.save"):
            dataset.save(path)
        with recorder.span("population.load"):
            loaded = StudyDataset.load(path)
        with recorder.span("analysis.collate"):
            collations = collate(loaded, recorder=recorder)
        with recorder.span("analysis.report"):
            report = build_analysis_report(loaded, collations,
                                           recorder=recorder)
        with recorder.span("analysis.tables"):
            tables = build_tables_report(loaded, collations,
                                         recorder=recorder)
        with recorder.span("analysis.validate"):
            problems = validate_analysis_report(report) \
                + validate_tables_report(tables)
        result.work_s = time.perf_counter() - start
        result.operations += 1
        after = cache.stats()
        with recorder.span("checks.dataset"):
            result.checks.update(self.dataset_checks(dataset, loaded,
                                                     problems, _read(path)))
        if traced:
            with open(report_path, encoding="utf-8") as fh:
                run_report = json.load(fh)
            lookups = (after["hits"] + after["misses"]) \
                - (before["hits"] + before["misses"])
            result.layers = layers.study_layers(
                recorder, lookups, os.path.getsize(path), run_report)
        if not self.warm_checked:
            # once per run: a warm re-run against the cache this pass
            # filled must reproduce the cold study byte for byte
            with recorder.span("checks.warm_rerun"):
                warm = run_study(self.scale["users"],
                                 self.scale["iterations"],
                                 vectors=FULL_BATTERY, seed=self.seed,
                                 cache=cache)
                result.checks["warm_rerun_matches_cold"] = \
                    (json.dumps(warm.to_dict()) + "\n").encode() \
                    == _read(path)
                del warm
            self.warm_checked = True

    def dataset_checks(self, dataset, loaded, problems,
                       saved: bytes) -> dict[str, bool]:
        """The study-side invariants of one pass (no pinned digests):
        valid reports, a lossless save/load, the same bytes as every
        other study of this seed, and bit-stable ``dc`` series."""
        if self.reference is None:
            self.reference = saved
        return {
            "reports_valid": not problems,
            "dataset_round_trips": loaded == dataset,
            "dataset_matches_reference": saved == self.reference,
            "dc_bit_stable":
                set(dataset.distinct_counts("dc").values()) == {1},
        }


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


class ServiceWorkload(Workload):
    """``service-mixed``: only the service and its I/O run in a pass."""

    name = "service-mixed"
    #: the open-loop stream's CPU time does not follow the host's speed: a
    #: faster host commits more, smaller batches at the same offered rate
    #: (on a 2-core VM it read the same on runs whose reference samples
    #: differed by 15 %), so scaling it would only add the kernel's noise
    work_follows_host = False

    def __init__(self, seed, scale, work_dir):
        super().__init__(seed, scale, work_dir)
        self.visits = None
        self.rate_search: servicebench.RateSearch | None = None

    def setup(self) -> None:
        dataset = run_study(self.scale["service_users"],
                            self.scale["service_iterations"],
                            vectors=SERVICE_VECTORS, seed=self.seed,
                            cache=RenderCache())
        visits = servicebench.visit_stream(
            dataset, self.seed, self.scale["service_users"],
            self.scale["service_iterations"])
        if self.visits is None:
            self.visits = visits
        else:
            self.setup_checks["setup_runs_equal"] = \
                self.setup_checks.get("setup_runs_equal", True) \
                and visits == self.visits

    def run_pass(self, recorder) -> PassResult:
        """Offer the stream open-loop, replay the WAL cold and check both
        identity invariants."""
        result = PassResult()
        live_dir = os.path.join(self.work_dir, "service")
        with recorder.span("pass", workload=self.name):
            with recorder.span("service.open_loop"):
                start = time.process_time()
                service, offered = servicebench.run_stream(
                    live_dir, self.visits, self.scale["rate"], recorder,
                    servicebench.open_config(len(self.visits)))
                stream_cpu_s = time.process_time() - start
            wal_bytes = os.path.getsize(service.wal_path)
            snapshot_bytes = os.path.getsize(service.snapshots.path)
            with recorder.span("service.recover"):
                recover_s, replayed, replay_ok = servicebench.replay(
                    live_dir, service.state_bytes())
            with recorder.span("checks.service"):
                result.checks["replay_matches_live_state"] = replay_ok
                result.checks["incremental_matches_batch"] = \
                    servicebench.incremental_matches_batch(service,
                                                           self.visits)
        result.offered = offered
        result.recover_s = recover_s
        result.replayed = replayed
        result.operations = offered.attempted + len(recover_s)
        result.failed_operations = offered.failed
        median_recover = statistics.median(recover_s)
        result.work_s = stream_cpu_s + median_recover
        if recorder.enabled:
            result.layers = layers.service_layers(
                recorder, service, offered, median_recover, wal_bytes,
                snapshot_bytes)
        return result

    def after_pass(self) -> None:
        """Walk the max-rate ladder on fresh services (after a pass, so
        its variable length stays out of the pass's wall time)."""
        if self.rate_search is None:
            self.rate_search = servicebench.RateSearch(
                os.path.join(self.work_dir, "probe"),
                self.visits[:self.scale["probe_visits"]])
        self.rate_search.run()


def make(name: str, seed: int, scale: dict, work_dir: str) -> Workload:
    if name == "service-mixed":
        return ServiceWorkload(seed, scale, work_dir)
    return PaperWorkload(seed, scale, work_dir)


WORKLOADS = ("paper-cold", "service-mixed")
