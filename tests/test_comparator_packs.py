"""Comparator packs.

The canvas/fonts/useragent/mathjs vectors never enter the audio engine:
one of their rows costs microseconds, far less than a pool round trip.
The study driver therefore packs each comparator vector's (vector, stack)
sub-batches into jobs of up to ``_MAX_BATCH`` rows, while an audio
sub-batch stays one job. Packing must change no byte of the dataset, keep
fault isolation per class key, keep one measured batch per sub-batch (so
the run report's counters and its profiled set are what they were), and
leave no empty hot-node table in the report.
"""
import json

import pytest

from repro import (FaultPlan, Recorder, RenderCache, StudyExecutionError,
                   run_study)
from repro.obs import validate_report
from repro.population import study as study_mod
from repro.population.sampler import sample_population
from repro.resilience import Fault, RetryPolicy
from repro.resilience.faults import ENV_VAR
from repro.vectors import COMPARATOR_VECTORS, FULL_BATTERY

STUDY = dict(user_count=12, iterations=3, vectors=FULL_BATTERY, seed=23)

#: fast supervision knobs; a failing job is bisected on its first failure
POLICY = RetryPolicy(base_delay_s=0.005, max_delay_s=0.05,
                     job_deadline_s=30.0, bisect_after=1)


@pytest.fixture(autouse=True)
def _no_leaked_fault_plan(monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)


@pytest.fixture(scope="module")
def clean():
    """The fault-free inline run: its dataset and the canvas class keys."""
    mp = pytest.MonkeyPatch()
    mp.delenv(ENV_VAR, raising=False)
    try:
        cache = RenderCache()
        dataset = run_study(workers=0, cache=cache, **STUDY)
    finally:
        mp.undo()
    canvas = sorted(key for key in cache._store if key.startswith("canvas|"))
    return dataset, canvas


def _keyed():
    """Every class of ``STUDY`` as the render phase sees it cold."""
    plan = study_mod._plan(
        sample_population(STUDY["user_count"], STUDY["seed"]),
        STUDY["vectors"], STUDY["iterations"], STUDY["seed"])
    return list(zip(plan.keys, plan.classes))


def _install(monkeypatch, tmp_path, faults):
    plan = FaultPlan(seed=99, faults=tuple(faults))
    monkeypatch.setenv(ENV_VAR, plan.save(str(tmp_path / "plan.json")))


class TestJobShape:
    def test_audio_batches_alone_comparators_packed(self):
        jobs = study_mod._group_jobs(_keyed(), measuring=False)
        packs = [job for job in jobs if job[0] in COMPARATOR_VECTORS]
        for vector_name, batches in jobs:
            if vector_name not in COMPARATOR_VECTORS:
                assert len(batches) == 1
        # at this scale every comparator vector fits one pack
        assert sorted(job[0] for job in packs) == sorted(COMPARATOR_VECTORS)
        assert any(len(batches) > 1 for _, batches in packs)
        for _, batches in packs:
            assert sum(len(members) for _, members, _ in batches) \
                <= study_mod._MAX_BATCH

    def test_packs_split_at_max_batch(self, monkeypatch):
        monkeypatch.setattr(study_mod, "_MAX_BATCH", 4)
        keyed = _keyed()
        jobs = study_mod._group_jobs(keyed, measuring=False)
        for vector_name in COMPARATOR_VECTORS:
            rows = [sum(len(members) for _, members, _ in batches)
                    for name, batches in jobs if name == vector_name]
            assert max(rows) <= 4
            assert sum(rows) == sum(1 for _, (name, _, _) in keyed
                                    if name == vector_name)

    def test_every_class_in_exactly_one_job(self):
        keyed = _keyed()
        jobs = study_mod._group_jobs(keyed, measuring=False)
        keys = [key for job in jobs for key in study_mod._job_keys(job)]
        assert sorted(keys) == sorted(key for key, _ in keyed)

    def test_each_batch_keeps_its_measure_level(self):
        """One profiled batch per (vector, stack) pair, packed or not: the
        profiled set is the set of distinct pairs."""
        keyed = _keyed()
        jobs = study_mod._group_jobs(keyed, measuring=True)
        profiled = [(vector_name, stack.cache_key())
                    for vector_name, batches in jobs
                    for stack, _, measure in batches
                    if measure == study_mod._MEASURE_NODES]
        pairs = {(name, stack.cache_key()) for _, (name, stack, _) in keyed}
        assert len(profiled) == len(set(profiled))
        assert set(profiled) == pairs

    def test_split_pack_keeps_batches_whole(self):
        jobs = study_mod._group_jobs(_keyed(), measuring=True)
        pack = next(job for job in jobs
                    if job[0] in COMPARATOR_VECTORS and len(job[1]) > 1)
        halves = study_mod._split_job(pack)
        assert [batch for half in halves for batch in half[1]] \
            == list(pack[1])


class TestPackedStudy:
    def test_pooled_equals_inline(self, clean):
        recorder = Recorder()
        dataset = run_study(workers=2, recorder=recorder, **STUDY)
        assert dataset == clean[0]
        assert recorder.counters["pool.jobs"] \
            < recorder.counters["render.batches"]

    def test_run_report(self, tmp_path):
        report_path = tmp_path / "report.json"
        run_study(workers=2, report_path=str(report_path), **STUDY)
        report = json.loads(report_path.read_text())
        assert validate_report(report) == []
        counters = report["counters"]
        assert report["pool"]["pooled"] is True
        assert counters["render.batches"] \
            == report["histograms"]["render.batch_size"]["count"]
        assert counters["render.renders"] \
            == report["workload"]["distinct_classes"]
        # one profiled batch per (vector, stack) pair
        pairs = {(name, stack.cache_key())
                 for _, (name, stack, _) in _keyed()}
        assert counters["render.profiled_renders"] == len(pairs)

    def test_no_empty_node_profile(self, tmp_path):
        """Comparator stacks never enter the engine, so their profiles are
        empty and the report carries no table for them."""
        report_path = tmp_path / "report.json"
        run_study(workers=0, report_path=str(report_path), **STUDY)
        profile = json.loads(report_path.read_text())["node_profile"]
        assert profile
        assert all(nodes for nodes in profile.values())


class TestFaultIsolationInPacks:
    def test_corrupt_canvas_key_is_bisected_out(self, clean, monkeypatch,
                                                tmp_path):
        dataset, canvas = clean
        poison = canvas[len(canvas) // 2]
        _install(monkeypatch, tmp_path,
                 [Fault(kind="corrupt", keys=(poison,), times=1)])
        recorder = Recorder()
        got = run_study(workers=2, recorder=recorder, retry_policy=POLICY,
                        **STUDY)
        assert got == dataset
        # one failed attempt, the pack bisected instead of retried whole,
        # and the halves rendered clean
        assert recorder.counters["retry.corrupt_returns"] == 1
        assert recorder.counters["retry.bisections"] == 1
        assert recorder.counters.get("retry.retries", 0) == 0
        assert recorder.counters.get("retry.quarantined", 0) == 0
        failed = [event["key"] for event in recorder.events
                  if event["kind"] == "job.failed"]
        assert len(failed) == 1 and failed[0].startswith("canvas|")

    def test_permanent_poison_quarantines_only_its_key(self, clean,
                                                       monkeypatch, tmp_path):
        _, canvas = clean
        poison = canvas[len(canvas) // 2]
        _install(monkeypatch, tmp_path,
                 [Fault(kind="corrupt", keys=(poison,), times=None)])
        with pytest.raises(StudyExecutionError) as err:
            run_study(workers=2, retry_policy=POLICY, **STUDY)
        assert err.value.quarantined == [poison]
