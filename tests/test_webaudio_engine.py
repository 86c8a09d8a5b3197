"""Engine correctness: nodes, params, graph, block renderer."""
import numpy as np
import pytest

from repro.webaudio import OfflineAudioContext, RENDER_QUANTUM_FRAMES
from repro.webaudio.graph import topological_order
from repro.webaudio.node import mix_to_channels


def _context(length=1024, rate=44100.0, channels=1):
    return OfflineAudioContext(channels, length, rate)


class TestOscillator:
    def test_sine_frequency(self):
        ctx = _context(length=4410)
        osc = ctx.create_oscillator()
        osc.frequency.value = 441.0
        osc.connect(ctx.destination)
        osc.start(0.0)
        data = ctx.start_rendering().get_channel_data(0)
        t = np.arange(4410) / 44100.0
        assert np.allclose(data, np.sin(2 * np.pi * 441.0 * t), atol=1e-9)

    def test_not_started_is_silent(self):
        ctx = _context()
        osc = ctx.create_oscillator()
        osc.connect(ctx.destination)
        assert np.all(ctx.start_rendering().get_channel_data(0) == 0.0)

    def test_start_stop_window(self):
        ctx = _context(length=1000)
        osc = ctx.create_oscillator()
        osc.connect(ctx.destination)
        osc.start(256 / 44100.0)
        osc.stop(512 / 44100.0)
        data = ctx.start_rendering().get_channel_data(0)
        assert np.all(data[:256] == 0.0)
        assert np.any(data[256:512] != 0.0)
        assert np.all(data[512:] == 0.0)

    def test_triangle_is_band_limited(self):
        """At 10 kHz/44.1 kHz only the fundamental fits below Nyquist, so the
        'triangle' collapses to a scaled sine — exactly what band-limited
        wavetable synthesis should do."""
        ctx = _context(length=2048)
        osc = ctx.create_oscillator()
        osc.type = "triangle"
        osc.frequency.value = 10000.0
        osc.connect(ctx.destination)
        osc.start(0.0)
        data = ctx.start_rendering().get_channel_data(0)
        assert np.max(np.abs(data)) <= 8.0 / np.pi ** 2 + 1e-9

    def test_unknown_type_raises(self):
        ctx = _context()
        osc = ctx.create_oscillator()
        osc.type = "noise"
        osc.connect(ctx.destination)
        osc.start(0.0)
        with pytest.raises(ValueError):
            ctx.start_rendering()


class TestGainAndParams:
    def test_constant_gain(self):
        ctx = _context()
        osc = ctx.create_oscillator()
        gain = ctx.create_gain()
        gain.gain.value = 0.25
        osc.connect(gain).connect(ctx.destination)
        osc.start(0.0)
        data = ctx.start_rendering().get_channel_data(0)

        ctx2 = _context()
        osc2 = ctx2.create_oscillator()
        osc2.connect(ctx2.destination)
        osc2.start(0.0)
        ref = ctx2.start_rendering().get_channel_data(0)
        assert np.allclose(data, 0.25 * ref)

    def test_linear_ramp(self):
        ctx = _context(length=RENDER_QUANTUM_FRAMES * 4)
        gain = ctx.create_gain()
        duration = ctx.length / ctx.sample_rate
        gain.gain.set_value_at_time(0.0, 0.0)
        gain.gain.linear_ramp_to_value_at_time(1.0, duration)
        values = gain.gain.values(0, ctx.length, ctx.sample_rate)
        expected = np.arange(ctx.length) / ctx.length
        assert np.allclose(values, expected, atol=1e-6)

    def test_set_value_holds(self):
        from repro.webaudio.param import AudioParam
        p = AudioParam(1.0)
        p.set_value_at_time(3.0, 0.5)
        v = p.values(0, 44100, 44100.0)
        assert np.all(v[:22050] == 1.0)
        assert np.all(v[22050:] == 3.0)


class TestMergerAndChannels:
    def test_merger_routes_inputs_to_channels(self):
        ctx = OfflineAudioContext(2, 512, 44100.0)
        osc = ctx.create_oscillator()
        merger = ctx.create_channel_merger(2)
        osc.connect(merger, input=1)  # only channel 1 carries signal
        merger.connect(ctx.destination)
        osc.start(0.0)
        buf = ctx.start_rendering()
        assert np.all(buf.get_channel_data(0) == 0.0)
        assert np.any(buf.get_channel_data(1) != 0.0)

    def test_merger_input_bounds(self):
        ctx = _context()
        merger = ctx.create_channel_merger(2)
        osc = ctx.create_oscillator()
        with pytest.raises(IndexError):
            osc.connect(merger, input=5)

    def test_fan_in_sums(self):
        ctx = _context()
        a, b = ctx.create_oscillator(), ctx.create_oscillator()
        a.connect(ctx.destination)
        b.connect(ctx.destination)
        a.start(0.0)
        b.start(0.0)
        data = ctx.start_rendering().get_channel_data(0)

        ctx2 = _context()
        solo = ctx2.create_oscillator()
        solo.connect(ctx2.destination)
        solo.start(0.0)
        ref = ctx2.start_rendering().get_channel_data(0)
        assert np.allclose(data, 2.0 * ref, atol=1e-12)

    @pytest.mark.parametrize("c,channels", [(2, 1), (3, 1), (1, 2), (3, 2),
                                            (2, 4)])
    def test_mix_to_channels_keeps_broadcast_rows_broadcast(self, c, channels):
        """A zero-stride (row-uniform) block mixes its one distinct row:
        the output is zero-stride too, and byte-equal to mixing the
        materialized block row by row."""
        row = np.random.default_rng(c * 10 + channels).standard_normal(
            (1, c, 300))
        uniform = np.broadcast_to(row, (5, c, 300))
        got = mix_to_channels(uniform, channels)
        want = mix_to_channels(np.ascontiguousarray(uniform), channels)
        assert got.shape == want.shape == (5, channels, 300)
        assert got.strides[0] == 0
        assert got.tobytes() == want.tobytes()


class TestCompressor:
    def test_reduces_loud_signal_crest(self):
        """A full-scale signal must come out of the compressor attenuated
        relative to a pass-through render (gain reduction happened)."""
        ctx = _context(length=4096)
        osc = ctx.create_oscillator()
        comp = ctx.create_dynamics_compressor()
        osc.connect(comp).connect(ctx.destination)
        osc.start(0.0)
        out = ctx.start_rendering().get_channel_data(0)
        assert comp.reduction < -1.0  # dB of gain reduction was applied
        # once the envelope settles (no pre-delay, so skip the attack
        # transient) the compressed signal sits well below full scale
        assert np.max(np.abs(out[2048:])) < 1.0

    def test_compressor_is_deterministic(self):
        def render():
            ctx = _context(length=2048)
            osc = ctx.create_oscillator()
            osc.type = "square"
            comp = ctx.create_dynamics_compressor()
            osc.connect(comp).connect(ctx.destination)
            osc.start(0.0)
            return ctx.start_rendering().get_channel_data(0)

        assert np.array_equal(render(), render())


class TestAnalyser:
    def test_peak_bin_matches_tone(self):
        ctx = _context(length=4096)
        osc = ctx.create_oscillator()
        osc.frequency.value = 43.066406  # ~ bin 2 at fftSize 2048
        analyser = ctx.create_analyser()
        osc.connect(analyser).connect(ctx.destination)
        osc.start(0.0)
        ctx.start_rendering()
        db = analyser.get_float_frequency_data()
        expected_bin = round(osc.frequency.value * analyser.fft_size / ctx.sample_rate)
        assert abs(int(np.argmax(db)) - expected_bin) <= 1

    def test_fft_size_validation(self):
        ctx = _context()
        analyser = ctx.create_analyser()
        with pytest.raises(ValueError):
            analyser.fft_size = 1000
        analyser.fft_size = 1024
        assert analyser.frequency_bin_count == 512

    def test_pass_through(self):
        ctx = _context()
        osc = ctx.create_oscillator()
        analyser = ctx.create_analyser()
        osc.connect(analyser).connect(ctx.destination)
        osc.start(0.0)
        data = ctx.start_rendering().get_channel_data(0)
        assert np.any(data != 0.0)


class TestGraphAndContext:
    def test_cycle_detection(self):
        ctx = _context()
        a, b = ctx.create_gain(), ctx.create_gain()
        a.connect(b)
        b.connect(a)
        b.connect(ctx.destination)
        with pytest.raises(ValueError, match="cycle"):
            ctx.start_rendering()

    def test_topological_order_respects_edges(self):
        ctx = _context()
        osc = ctx.create_oscillator()
        gain = ctx.create_gain()
        osc.connect(gain).connect(ctx.destination)
        order = topological_order(ctx._nodes)
        assert order.index(osc) < order.index(gain) < order.index(ctx.destination)

    def test_cross_context_connect_rejected(self):
        ctx1, ctx2 = _context(), _context()
        osc = ctx1.create_oscillator()
        with pytest.raises(ValueError):
            osc.connect(ctx2.destination)

    def test_non_quantum_aligned_length(self):
        ctx = _context(length=5000)  # 5000 = 39*128 + 8
        osc = ctx.create_oscillator()
        osc.connect(ctx.destination)
        osc.start(0.0)
        buf = ctx.start_rendering()
        assert buf.length == 5000

    def test_rendering_is_idempotent(self):
        ctx = _context()
        osc = ctx.create_oscillator()
        osc.connect(ctx.destination)
        osc.start(0.0)
        assert ctx.start_rendering() is ctx.start_rendering()

    def test_invalid_length(self):
        with pytest.raises(ValueError):
            OfflineAudioContext(1, 0, 44100.0)
