"""Fused render path contracts.

The fused whole-buffer path exists purely as cost control: it must be
*bit-identical* to the 128-frame quantum loop for every vector, FFT
backend, and batch composition — same eFP digests, same StudyDataset
bytes — or it may not run at all (segmentation declines and the quantum
loop takes over). These tests pin that invariant, the segmentation
decision rules, the study runner's pool clamp, and the render cache's
stale-version pruning.

The quantum loop is the oracle. Production has no switch for it: the
context falls back to it only when ``plan_segments`` declines a graph.
``_on_quantum_loop`` reaches it by stubbing the planner to decline
everything.
"""
import json

import numpy as np
import pytest

from repro import RenderCache, run_study
from repro.obs import Recorder
from repro.platform import AudioStack
from repro.platform.jitter import sample_path, sample_repertoire
from repro.population.cache import _stale_version
from repro.vectors import AUDIO_VECTORS, get_vector
from repro.webaudio import ENGINE_VERSION, OfflineAudioContext
from repro.webaudio.fft import FFT_BACKENDS
from repro.webaudio.segments import plan_segments

BACKENDS = sorted(FFT_BACKENDS)


def _paths_under_load(rng, count):
    """Heavy-load jitter paths: duplicates dominate, so batches exercise
    the analyser's readout dedup alongside genuinely distinct rows."""
    repertoire = sample_repertoire(rng, 0.9)
    return [sample_path(rng, 0.9, repertoire) for _ in range(count)]


def _on_quantum_loop(render):
    """Call ``render()`` with every graph declined by the fuser, so each
    context renders on the quantum loop. Pool workers fork and inherit
    the stub."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("repro.webaudio.context.plan_segments",
                   lambda nodes, destination: None)
        return render()


class TestFusedMatchesQuantum:
    """Every digest the fused path produces equals the quantum loop's."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("name", sorted(AUDIO_VECTORS))
    def test_batched_digests_identical(self, name, backend):
        vector = get_vector(name)
        stack = AudioStack("blink", "ucrt", backend, "blink")
        rng = np.random.default_rng(hash((name, backend, "fused")) % 2**32)
        paths = _paths_under_load(rng, 7)
        quantum = _on_quantum_loop(lambda: vector.render_batch(stack, paths))
        fused = vector.render_batch(stack, paths)
        assert fused == quantum

    @pytest.mark.parametrize("batch", [1, 7, 256])
    def test_every_batch_size(self, batch):
        vector = get_vector("hybrid")
        stack = AudioStack("gecko", "glibc", "splitradix", "gecko", 48000)
        rng = np.random.default_rng(batch)
        paths = _paths_under_load(rng, batch)
        quantum = _on_quantum_loop(lambda: vector.render_batch(stack, paths))
        assert vector.render_batch(stack, paths) == quantum

    def test_single_render_identical(self):
        vector = get_vector("fft")
        stack = AudioStack("webkit", "apple-libm", "bluestein", "webkit")
        quantum = _on_quantum_loop(lambda: vector.render(stack, None))
        assert vector.render(stack, None) == quantum

    def test_rendered_buffer_bytes_identical(self):
        """Not just digests: the raw (B, c, n) buffer is byte-equal."""
        def _render():
            ctx = OfflineAudioContext(1, 5000, 44100, batch_size=3)
            osc = ctx.create_oscillator()
            comp = ctx.create_dynamics_compressor()
            osc.connect(comp).connect(ctx.destination)
            osc.start(0.0)
            return ctx.start_rendering_batch(), ctx.render_path_used
        fused, fused_path = _render()
        quantum, quantum_path = _on_quantum_loop(_render)
        assert (fused_path, quantum_path) == ("fused", "quantum")
        np.testing.assert_array_equal(fused, quantum)


STUDY = dict(user_count=6, iterations=3, vectors=("dc", "fft", "hybrid"),
             seed=13)


class TestStudyDatasetAcrossRenderPaths:
    def test_dataset_json_bytes_identical(self, tmp_path):
        """The serialized study artifact cannot depend on the render path."""
        def _study_bytes(name):
            dataset = run_study(cache=RenderCache(), workers=0, **STUDY)
            out = tmp_path / f"{name}.json"
            dataset.save(str(out))
            return out.read_bytes()
        quantum = _on_quantum_loop(lambda: _study_bytes("quantum"))
        assert _study_bytes("fused") == quantum


class TestSegmentation:
    def _chain(self):
        ctx = OfflineAudioContext(1, 5000, 44100)
        osc = ctx.create_oscillator()
        comp = ctx.create_dynamics_compressor()
        analyser = ctx.create_analyser()
        gain = ctx.create_gain()
        osc.connect(comp).connect(analyser).connect(gain).connect(ctx.destination)
        osc.start(0.0)
        return ctx, osc, comp, analyser, gain

    def test_linear_chain_plans(self):
        ctx, osc, comp, analyser, gain = self._chain()
        plan = plan_segments(ctx._nodes, ctx.destination)
        assert plan is not None
        # stateful nodes are singleton segment boundaries
        for segment in plan.segments:
            if segment.stateful:
                assert len(segment.nodes) == 1
                assert segment.nodes[0] in (comp, analyser)
        stateful = [s.nodes[0] for s in plan.segments if s.stateful]
        assert stateful == [comp, analyser]

    def test_fusible_graph_renders_fused(self):
        ctx, *_ = self._chain()
        ctx.start_rendering()
        assert ctx.render_path_used == "fused"

    def test_declined_plan_renders_on_quantum_loop(self):
        """The oracle stub really reaches the quantum loop."""
        ctx, *_ = self._chain()
        _on_quantum_loop(ctx.start_rendering)
        assert ctx.render_path_used == "quantum"

    def test_automation_falls_back_to_quantum(self):
        ctx, osc, comp, analyser, gain = self._chain()
        gain.gain.set_value_at_time(0.5, 0.05)
        assert plan_segments(ctx._nodes, ctx.destination) is None
        ctx.start_rendering()
        assert ctx.render_path_used == "quantum"

    def test_fan_out_falls_back_to_quantum(self):
        ctx = OfflineAudioContext(1, 5000, 44100)
        osc = ctx.create_oscillator()
        g1, g2 = ctx.create_gain(), ctx.create_gain()
        osc.connect(g1).connect(ctx.destination)
        osc.connect(g2).connect(ctx.destination)
        osc.start(0.0)
        assert plan_segments(ctx._nodes, ctx.destination) is None
        ctx.start_rendering()
        assert ctx.render_path_used == "quantum"

    def test_fan_in_falls_back_to_quantum(self):
        ctx = OfflineAudioContext(1, 5000, 44100)
        o1, o2 = ctx.create_oscillator(), ctx.create_oscillator()
        gain = ctx.create_gain()
        o1.connect(gain)
        o2.connect(gain)
        gain.connect(ctx.destination)
        o1.start(0.0)
        o2.start(0.0)
        assert plan_segments(ctx._nodes, ctx.destination) is None
        ctx.start_rendering()
        assert ctx.render_path_used == "quantum"

    def test_fallback_is_bit_identical(self):
        """A non-fusible graph renders the same bytes through the
        production fallback as through the oracle."""
        def _render():
            ctx = OfflineAudioContext(1, 5000, 44100)
            o1, o2 = ctx.create_oscillator(), ctx.create_oscillator()
            o2.frequency.value = 880.0
            o1.connect(ctx.destination)
            o2.connect(ctx.destination)
            o1.start(0.0)
            o2.start(0.0)
            out = ctx.start_rendering_batch()
            assert ctx.render_path_used == "quantum"
            return out
        np.testing.assert_array_equal(_render(), _on_quantum_loop(_render))


class TestCacheIdentity:
    def test_stack_cache_key_is_historical(self):
        """One render path, one key: a stack's cache key carries no render
        tier, so entries written before the tier knob was dropped still hit."""
        key = AudioStack("blink", "ucrt", "radix2", "blink").cache_key()
        assert key == f"e{ENGINE_VERSION}|blink|ucrt|radix2|blink|44100|1"


class TestPoolClamp:
    def _tiny(self, monkeypatch, cores, **kw):
        monkeypatch.setattr("repro.population.study.os.cpu_count", lambda: cores)
        recorder = Recorder()
        dataset = run_study(user_count=3, iterations=2, vectors=("dc",),
                            seed=7, cache=RenderCache(), recorder=recorder,
                            **kw)
        return dataset, recorder.counters

    def test_oversubscribed_request_is_clamped(self, monkeypatch):
        _, counters = self._tiny(monkeypatch, cores=1, workers=8)
        # clamped to max(cpu, 2) == 2: 6 workers shaved off
        assert counters.get("pool.workers_clamped") == 6

    def test_explicit_pool_request_never_drops_below_two(self, monkeypatch):
        """workers=2 must stay a real pool even on a 1-core box (hang
        recovery needs a process to interrupt)."""
        _, counters = self._tiny(monkeypatch, cores=1, workers=2)
        assert "pool.workers_clamped" not in counters

    def test_within_budget_request_untouched(self, monkeypatch):
        _, counters = self._tiny(monkeypatch, cores=8, workers=4)
        assert "pool.workers_clamped" not in counters
        assert "pool.fanout_skipped" not in counters

    def test_auto_on_one_core_skips_fanout(self, monkeypatch):
        monkeypatch.setattr("repro.population.study.os.cpu_count", lambda: 1)
        recorder = Recorder()
        run_study(user_count=10, iterations=3,
                  vectors=("dc", "fft", "hybrid"), seed=7,
                  cache=RenderCache(), recorder=recorder, workers=None)
        # enough group jobs to pool, but auto resolved to 1 worker
        assert recorder.counters.get("pool.fanout_skipped") == 1

    def test_clamp_never_changes_the_dataset(self, monkeypatch):
        plain, _ = self._tiny(monkeypatch, cores=8, workers=0)
        clamped, _ = self._tiny(monkeypatch, cores=1, workers=8)
        assert clamped == plain


class TestStaleCachePruning:
    CUR = f"e{ENGINE_VERSION}"

    def test_stale_version_predicate(self):
        assert _stale_version("dc|e999|blink|ucrt|radix2|blink|44100|1|-")
        assert not _stale_version(f"dc|{self.CUR}|blink|ucrt|radix2|blink|44100|1|-")
        assert not _stale_version("k1")          # ad-hoc keys are never stale
        assert not _stale_version("a|b|c")       # no version component
        assert not _stale_version("dc|e12x|rest")  # malformed != stale

    def _file_with(self, tmp_path, entries):
        path = tmp_path / "cache.json"
        path.write_text(json.dumps({"format": 1, "entries": entries}))
        return str(path)

    def test_stale_entries_pruned_on_load(self, tmp_path):
        current = f"dc|{self.CUR}|blink|ucrt|radix2|blink|44100|1|-"
        stale = "dc|e999|blink|ucrt|radix2|blink|44100|1|-"
        path = self._file_with(tmp_path, {current: "a", stale: "b", "k1": "c"})
        cache = RenderCache(disk_path=path)
        assert cache.get(current) == "a"
        assert cache.get("k1") == "c"
        assert cache.get(stale) is None
        assert cache.stale_prunes == 1
        assert cache.disk_loads == 2
        assert cache.stats()["stale_prunes"] == 1

    def test_next_persist_drops_pruned_entries(self, tmp_path):
        stale = "fft|e999|gecko|glibc|splitradix|gecko|48000|1|-"
        path = self._file_with(tmp_path, {stale: "dead", "k1": "alive"})
        cache = RenderCache(disk_path=path)
        cache.persist()
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        assert payload["entries"] == {"k1": "alive"}

    def test_reset_stats_clears_prune_counter(self, tmp_path):
        stale = "dc|e999|blink|ucrt|radix2|blink|44100|1|-"
        cache = RenderCache(disk_path=self._file_with(tmp_path, {stale: "x"}))
        assert cache.stale_prunes == 1
        cache.reset_stats()
        assert cache.stale_prunes == 0
