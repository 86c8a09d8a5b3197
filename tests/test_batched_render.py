"""Batched rendering contracts.

The whole batching optimisation rests on one invariant: a batched render
is *bit-identical* to the per-class renders it replaces — same digests,
same dataset bytes, at any batch composition, batch split, worker count,
or FFT backend. These tests pin that invariant, plus the crash-safety of
the render cache's disk persistence.
"""
import dataclasses
import json
import os

import numpy as np
import pytest

from repro import RenderCache, run_study
from repro.platform import AudioStack
from repro.platform.jitter import sample_path, sample_repertoire
from repro.population import StudyDataset
from repro.population import study as study_mod
from repro.population.sampler import sample_population
from repro.population.study import _plan, _user_rng
from repro.vectors import AUDIO_VECTORS, FULL_BATTERY, get_vector
from repro.webaudio.fft import FFT_BACKENDS, get_fft_backend

BACKENDS = sorted(FFT_BACKENDS)


def _random_paths(rng, count):
    """Jitter paths under heavy load: duplicates and the reference path
    both occur, so batches mix repeated and distinct rows."""
    repertoire = sample_repertoire(rng, 0.9)
    return [sample_path(rng, 0.9, repertoire) for _ in range(count)]


class TestBatchedDigestsMatchSerial:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("name", sorted(AUDIO_VECTORS))
    def test_randomized_paths_every_backend(self, name, backend):
        vector = get_vector(name)
        stack = AudioStack("blink", "ucrt", backend, "blink")
        rng = np.random.default_rng(hash((name, backend)) % 2**32)
        paths = _random_paths(rng, 6)
        batched = vector.render_batch(stack, paths)
        assert batched == [vector.render(stack, p) for p in paths]

    def test_single_row_batch(self):
        vector = get_vector("hybrid")
        stack = AudioStack("webkit", "apple-libm", "bluestein", "webkit", 48000)
        assert vector.render_batch(stack, [None]) == [vector.render(stack, None)]

    def test_empty_batch(self):
        stack = AudioStack("blink", "ucrt", "radix2", "blink")
        assert get_vector("fft").render_batch(stack, []) == []

    def test_batch_rows_do_not_interact(self):
        """A row's digest must not depend on which rows share its batch."""
        vector = get_vector("fft")
        stack = AudioStack("gecko", "glibc", "splitradix", "gecko")
        rng = np.random.default_rng(77)
        paths = _random_paths(rng, 5)
        alone = vector.render_batch(stack, [paths[2]])[0]
        together = vector.render_batch(stack, paths)[2]
        shuffled = vector.render_batch(stack, paths[::-1])[2]
        assert alone == together == shuffled


class TestBatchedFFTBitIdentity:
    """fft((B, n)) rows must equal fft((n,)) of each row, bit for bit."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_pow2(self, backend):
        fft = get_fft_backend(backend)
        rng = np.random.default_rng(11)
        x = rng.standard_normal((4, 256))
        rows = fft.fft(x)
        for b in range(x.shape[0]):
            np.testing.assert_array_equal(rows[b], fft.fft(x[b]))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_non_pow2_via_bluestein(self, backend):
        fft = get_fft_backend(backend)
        rng = np.random.default_rng(12)
        x = rng.standard_normal((3, 60))
        rows = fft.fft(x)
        for b in range(x.shape[0]):
            np.testing.assert_array_equal(rows[b], fft.fft(x[b]))


STUDY = dict(user_count=6, iterations=3, vectors=("dc", "fft", "hybrid"),
             seed=13)


def _reference_paths(devices, vectors, iterations, seed, first_index=0):
    """The scalar planner the driver's numpy replay must match: on each
    user's own stream, ``sample_repertoire`` then one ``sample_path`` per
    analyser-vector iteration, in vector order. Returns
    ``{(vector, user_id): [path, ...]}``."""
    paths = {}
    for offset, device in enumerate(devices):
        rng = _user_rng(seed, first_index + offset)
        repertoire = sample_repertoire(rng, device.load)
        for name in vectors:
            vector = get_vector(name)
            paths[(name, device.user_id)] = [
                sample_path(rng, device.load, repertoire)
                if vector.uses_analyser else vector.canonical_path(None)
                for _ in range(iterations)]
    return paths


def _serial_study(user_count, iterations, vectors, seed) -> StudyDataset:
    """The reference the driver must match: the scalar reference plan,
    every grid item rendered alone by ``vector.render`` — no cache, no
    grouping, no batch axis, no pool."""
    devices = sample_population(user_count, seed)
    paths = _reference_paths(devices, vectors, iterations, seed)
    dataset = StudyDataset(seed=seed, user_count=user_count,
                           iterations=iterations, vectors=tuple(vectors),
                           users=[d.describe() for d in devices])
    for name in vectors:
        vector = get_vector(name)
        dataset.series[name] = {
            device.user_id: [
                vector.render(vector.stack_of(device), path)
                for path in paths[(name, device.user_id)]]
            for device in devices}
    return dataset


def _assert_plan_matches_reference(devices, vectors, iterations, seed,
                                   first_index=0):
    plan = _plan(devices, tuple(vectors), iterations, seed,
                 first_index=first_index)
    reference = _reference_paths(devices, vectors, iterations, seed,
                                 first_index)
    expected_keys = {}
    for u, device in enumerate(devices):
        for v, name in enumerate(vectors):
            stack_key = get_vector(name).stack_of(device).cache_key()
            want = [RenderCache.make_key(name, stack_key, path)
                    for path in reference[(name, device.user_id)]]
            got = [plan.keys[c] for c in plan.grid[u, v].tolist()]
            assert got == want, (name, device.user_id)
            for key in want:
                expected_keys.setdefault(key, None)
    # classes are numbered in first-seen grid order
    assert plan.keys == list(expected_keys)
    assert plan.index == {key: c for c, key in enumerate(plan.keys)}
    return plan


def _with_load(devices, load):
    return [dataclasses.replace(device, load=load) for device in devices]


class TestPlanMatchesScalarReference:
    """The numpy replay of the jitter streams against the scalar
    planner. This is the guard against a numpy release changing how
    ``Generator.random`` / ``Generator.integers`` consume the bit
    generator."""

    VECTORS = ("dc", "fft", "hybrid", "am", "canvas")

    @pytest.mark.parametrize("seed", [2021, 7919, 13, 404])
    def test_sampled_population(self, seed):
        devices = sample_population(40, seed)
        _assert_plan_matches_reference(devices, self.VECTORS, 8, seed)

    def test_full_battery(self):
        devices = sample_population(25, 2021)
        _assert_plan_matches_reference(devices, FULL_BATTERY, 30, 2021)

    @pytest.mark.parametrize("load", [0.0, 0.9, 0.95, 0.999])
    def test_extreme_loads(self, load):
        devices = _with_load(sample_population(30, 7), load)
        plan = _assert_plan_matches_reference(devices, self.VECTORS, 12, 7)
        if load == 0.0:
            assert len(plan.keys) == len(
                {key.rsplit("|", 1)[0] for key in plan.keys})

    @pytest.mark.parametrize("load", [0.02, 0.08])
    def test_single_path_repertoire(self, load):
        """``integers(1)`` draws nothing from the stream."""
        devices = _with_load(sample_population(30, 11), load)
        assert all(len(sample_repertoire(_user_rng(11, i), load)) == 1
                   for i in range(len(devices)))
        _assert_plan_matches_reference(devices, self.VECTORS, 30, 11)

    def test_mixed_repertoire_sizes(self):
        devices = sample_population(30, 5)
        devices = [dataclasses.replace(d, load=(0.0, 0.05, 0.5, 0.97)[i % 4])
                   for i, d in enumerate(devices)]
        _assert_plan_matches_reference(devices, self.VECTORS, 20, 5)

    @pytest.mark.parametrize("start", [1, 17, 33])
    def test_shard_slice(self, start):
        devices = sample_population(50, 2021)[start:start + 12]
        _assert_plan_matches_reference(devices, self.VECTORS, 10, 2021,
                                       first_index=start)

    def test_forced_rejection_takes_scalar_fallback(self, monkeypatch):
        """A user whose Lemire draw may reject is re-planned by the
        scalar loop; its codes still match the reference."""
        fallbacks = []
        scalar = study_mod._scalar_codes

        def spy(seed, user_index, load, slots):
            fallbacks.append(user_index)
            return scalar(seed, user_index, load, slots)

        monkeypatch.setattr(study_mod, "_may_reject",
                            lambda product, bound: np.ones(len(bound), bool))
        monkeypatch.setattr(study_mod, "_scalar_codes", spy)
        devices = _with_load(sample_population(20, 3), 0.6)
        _assert_plan_matches_reference(devices, self.VECTORS, 10, 3)
        assert sorted(fallbacks) == list(range(20))

    def test_rejection_bound_covers_numpy_threshold(self):
        """Every product numpy rejects, ``_may_reject`` flags."""
        bound = np.arange(1, 12, dtype=np.uint64)
        threshold = (2 ** 32 - bound) % bound
        for low in (0, 1, 3, 6, 10):
            product = np.full(len(bound), low, dtype=np.uint64)
            flagged = study_mod._may_reject(product, bound)
            assert np.all(flagged[product < threshold])


class TestGroupingNeverChangesTheDataset:
    @pytest.fixture(scope="class")
    def serial(self):
        return _serial_study(**STUDY)

    @pytest.mark.parametrize("workers", [0, 1, 2])
    def test_batched_equals_serial_at_any_worker_count(self, serial, workers):
        batched = run_study(cache=RenderCache(), workers=workers, **STUDY)
        assert batched == serial

    @pytest.mark.parametrize("workers", [0, 2])
    def test_disabled_cache_baselines_agree(self, serial, workers):
        cold = run_study(cache=RenderCache(disabled=True), workers=workers,
                         **STUDY)
        assert cold == serial

    def test_dataset_json_bytes_identical(self, serial, tmp_path):
        """Not just ==: the serialized artifact is byte-for-byte stable."""
        blobs = set()
        for workers in (0, 2):
            dataset = run_study(cache=RenderCache(), workers=workers, **STUDY)
            path = tmp_path / f"w{workers}.json"
            dataset.save(str(path))
            blobs.add(path.read_bytes())
        serial_path = tmp_path / "serial.json"
        serial.save(str(serial_path))
        blobs.add(serial_path.read_bytes())
        assert len(blobs) == 1

    def test_sub_batch_split_is_invisible(self, serial, monkeypatch):
        """Forcing tiny sub-batches (_MAX_BATCH=2) must not change bytes —
        splitting a group can only change amortization, never rows."""
        import repro.population.study as study_mod
        monkeypatch.setattr(study_mod, "_MAX_BATCH", 2)
        tiny = run_study(cache=RenderCache(), workers=0, **STUDY)
        assert tiny == serial

    def test_single_row_batches_equal_default(self, serial, monkeypatch):
        """_MAX_BATCH=1 is the per-item baseline the render bench times:
        every group job renders one row, and the dataset is unchanged."""
        import repro.population.study as study_mod
        monkeypatch.setattr(study_mod, "_MAX_BATCH", 1)
        single = run_study(cache=RenderCache(disabled=True), workers=0,
                           **STUDY)
        assert single == serial

    def test_full_battery_batched_equals_serial(self):
        """All 11 vectors — audio and comparator — through the driver:
        grouping by (vector, stack) must not change a single byte."""
        kw = dict(user_count=12, iterations=3, vectors=FULL_BATTERY, seed=29)
        batched = run_study(cache=RenderCache(), workers=0, **kw)
        assert batched == _serial_study(**kw)


class TestCacheCrashSafety:
    def _populated(self, path):
        cache = RenderCache(disk_path=path)
        cache.put("k1", "v1")
        cache.put("k2", "v2")
        return cache

    def test_persist_then_load_round_trips(self, tmp_path):
        path = str(tmp_path / "cache.json")
        self._populated(path).persist()
        fresh = RenderCache(disk_path=path)
        assert fresh.get("k1") == "v1" and fresh.get("k2") == "v2"
        assert fresh.disk_loads == 2

    def test_persist_leaves_no_temp_files(self, tmp_path):
        path = str(tmp_path / "cache.json")
        self._populated(path).persist()
        assert sorted(os.listdir(tmp_path)) == ["cache.json"]

    def test_persist_replaces_atomically(self, tmp_path):
        """An existing file is replaced whole — never appended or truncated
        in place — so a reader mid-persist sees old or new, not torn."""
        path = str(tmp_path / "cache.json")
        self._populated(path).persist()
        cache = RenderCache(disk_path=path)
        cache.get("k1")
        cache.put("k3", "v3")
        cache.persist()
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)  # valid JSON, complete new content
        assert payload["entries"] == {"k1": "v1", "k2": "v2", "k3": "v3"}

    @pytest.mark.parametrize("garbage", [
        b"",                         # truncated to nothing
        b'{"format": 1, "entries"',  # torn mid-write (pre-atomic-writer file)
        b"[1, 2, 3]",                # not an object
        b'{"format": 1, "entries": [1, 2]}',  # entries wrong shape
        b"\x00\xff\x00\xff",         # binary garbage
    ])
    def test_unreadable_file_degrades_to_cold_cache(self, tmp_path, garbage):
        path = tmp_path / "cache.json"
        path.write_bytes(garbage)
        cache = RenderCache(disk_path=str(path))
        assert len(cache) == 0 and cache.disk_loads == 0
        cache.put("k", "v")
        cache.persist()  # and the bad file is recoverable by persisting over it
        assert RenderCache(disk_path=str(path)).get("k") == "v"

    def test_unreadable_directory_degrades_to_cold_cache(self, tmp_path):
        unreadable = tmp_path / "dir-not-file"
        unreadable.mkdir()
        cache = RenderCache(disk_path=str(unreadable))
        assert len(cache) == 0

    def test_non_string_entries_are_skipped(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text(json.dumps(
            {"format": 1, "entries": {"good": "v", "bad": 7}}))
        cache = RenderCache(disk_path=str(path))
        assert len(cache) == 1 and cache.disk_loads == 1
