"""Batched rendering contracts.

The whole batching optimisation rests on one invariant: a batched render
is *bit-identical* to the per-class renders it replaces — same digests,
same dataset bytes, at any batch composition, batch split, worker count,
or FFT backend. These tests pin that invariant, plus the crash-safety of
the render cache's disk persistence.
"""
import json
import os

import numpy as np
import pytest

from repro import RenderCache, run_study
from repro.platform import AudioStack
from repro.platform.jitter import sample_path, sample_repertoire
from repro.population import StudyDataset
from repro.population.sampler import sample_population
from repro.population.study import _plan
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


def _serial_study(user_count, iterations, vectors, seed) -> StudyDataset:
    """The reference the driver must match: the driver's own plan
    (population, jitter paths), but every grid item rendered alone by
    ``vector.render`` — no cache, no grouping, no batch axis, no pool."""
    devices = sample_population(user_count, seed)
    item_keys, classes = _plan(devices, tuple(vectors), iterations, seed)
    dataset = StudyDataset(seed=seed, user_count=user_count,
                           iterations=iterations, vectors=tuple(vectors),
                           users=[d.describe() for d in devices])
    for name in vectors:
        vector = get_vector(name)
        dataset.series[name] = {
            device.user_id: [
                vector.render(vector.stack_of(device), classes[key][2])
                for key in item_keys[(name, device.user_id)]]
            for device in devices}
    return dataset


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
